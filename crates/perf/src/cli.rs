//! The `cqa-perf` command-line surface, shared by the standalone binary
//! and the `cqa-cli perf` subcommand.
//!
//! ```text
//! cqa-perf run  [--profile ci|full] [--only SUITE] [--pr N] [--out FILE] [--dashboard DIR]
//! cqa-perf diff --against FILE --current FILE [--tolerance F] [--allow-missing]
//! cqa-perf export --report FILE [--dashboard DIR]
//! ```

use crate::diff::{diff, DiffOptions};
use crate::schema::BenchReport;
use crate::suites::{run_suites, suite_by_name, Profile, SUITES};
use crate::{dashboard, envinfo};
use cqa_common::{CqaError, Result};
use std::io::Write;
use std::path::PathBuf;

/// Usage text for `cqa-perf help` and argument errors.
pub const USAGE: &str = "\
USAGE: cqa-perf <command> [options]

  run   [--profile ci|full] [--only SUITE] [--pr N] [--out FILE] [--dashboard DIR]
        Run the suite registry and write BENCH_<pr>.json
        (default --profile ci, --pr 0, --out BENCH_<pr>.json).
        With --only, run just that suite: samplers, schemes, synopsis,
        figure, server, flight, lint, ablations or optest.
        With --dashboard, also append the recording to DIR/data.js.

  diff  --against FILE --current FILE [--tolerance F] [--allow-missing]
        Gate a recording against a baseline. Exits nonzero when any
        series regresses beyond its noise envelope.

  export --report FILE [--dashboard DIR]
        Append an existing recording to the dashboard (default dev/bench).

  help  Show this message.
";

fn parse_flags(args: &[String]) -> Result<std::collections::BTreeMap<String, String>> {
    let mut flags = std::collections::BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(name) = a.strip_prefix("--") else {
            return Err(CqaError::InvalidParameter(format!("unexpected argument '{a}'")));
        };
        if name == "allow-missing" {
            flags.insert(name.to_owned(), "1".to_owned());
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return Err(CqaError::InvalidParameter(format!("--{name} needs a value")));
        };
        flags.insert(name.to_owned(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn run_cmd(args: &[String], out: &mut dyn Write) -> Result<()> {
    let flags = parse_flags(args)?;
    let profile_name = flags.get("profile").map(String::as_str).unwrap_or("ci");
    let profile = Profile::by_name(profile_name).ok_or_else(|| {
        CqaError::InvalidParameter(format!("unknown profile '{profile_name}' (ci or full)"))
    })?;
    let pr: u64 = match flags.get("pr") {
        Some(v) => v
            .parse()
            .map_err(|_| CqaError::InvalidParameter(format!("--pr wants an integer, got '{v}'")))?,
        None => 0,
    };
    let suites = match flags.get("only") {
        Some(name) => vec![suite_by_name(name).ok_or_else(|| {
            let known: Vec<&str> = SUITES.iter().map(|&(n, _)| n).collect();
            CqaError::InvalidParameter(format!(
                "unknown suite '{name}' (one of {})",
                known.join(", ")
            ))
        })?],
        None => SUITES.to_vec(),
    };
    let out_path = flags
        .get("out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("BENCH_{pr}.json")));

    let env = envinfo::fingerprint(profile.scale, profile.seed, profile.name);
    let mut report = BenchReport::new(pr, envinfo::unix_now(), env);
    for s in run_suites(&profile, &suites)? {
        report.push(s)?;
    }
    report.write_to(&out_path)?;
    writeln!(
        out,
        "wrote {} ({} series, profile {})",
        out_path.display(),
        report.series.len(),
        profile.name
    )
    .map_err(|e| CqaError::InvalidParameter(format!("write output: {e}")))?;
    if let Some(dir) = flags.get("dashboard") {
        dashboard::export(&PathBuf::from(dir), &report)?;
        writeln!(out, "dashboard updated under {dir}")
            .map_err(|e| CqaError::InvalidParameter(format!("write output: {e}")))?;
    }
    Ok(())
}

fn diff_cmd(args: &[String], out: &mut dyn Write) -> Result<bool> {
    let flags = parse_flags(args)?;
    let against = flags
        .get("against")
        .ok_or_else(|| CqaError::InvalidParameter("diff needs --against FILE".into()))?;
    let current = flags
        .get("current")
        .ok_or_else(|| CqaError::InvalidParameter("diff needs --current FILE".into()))?;
    let baseline = BenchReport::read_from(&PathBuf::from(against))?;
    let candidate = BenchReport::read_from(&PathBuf::from(current))?;
    let mut opts = DiffOptions::default();
    if let Some(t) = flags.get("tolerance") {
        opts.tolerance = t.parse().map_err(|_| {
            CqaError::InvalidParameter(format!("--tolerance wants a float, got '{t}'"))
        })?;
    }
    if flags.contains_key("allow-missing") {
        opts.require_all_baseline_series = false;
    }
    let report = diff(&baseline, &candidate, &opts);
    write!(out, "{report}")
        .map_err(|e| CqaError::InvalidParameter(format!("write output: {e}")))?;
    Ok(report.passed())
}

fn export_cmd(args: &[String], out: &mut dyn Write) -> Result<()> {
    let flags = parse_flags(args)?;
    let path = flags
        .get("report")
        .ok_or_else(|| CqaError::InvalidParameter("export needs --report FILE".into()))?;
    let dir = flags.get("dashboard").map(String::as_str).unwrap_or("dev/bench");
    let report = BenchReport::read_from(&PathBuf::from(path))?;
    dashboard::export(&PathBuf::from(dir), &report)?;
    writeln!(out, "dashboard updated under {dir} (PR {})", report.pr)
        .map_err(|e| CqaError::InvalidParameter(format!("write output: {e}")))?;
    Ok(())
}

/// Dispatches a `cqa-perf` invocation. Returns the process exit code:
/// 0 success / gate passed, 1 gate failed, 2 usage or runtime error
/// (errors are written to `out` by the caller via the `Err`).
pub fn dispatch(args: &[String], out: &mut dyn Write) -> Result<i32> {
    match args.first().map(String::as_str) {
        Some("run") => {
            run_cmd(&args[1..], out)?;
            Ok(0)
        }
        Some("diff") => {
            if diff_cmd(&args[1..], out)? {
                Ok(0)
            } else {
                Ok(1)
            }
        }
        Some("export") => {
            export_cmd(&args[1..], out)?;
            Ok(0)
        }
        Some("help") | None => {
            write!(out, "{USAGE}")
                .map_err(|e| CqaError::InvalidParameter(format!("write output: {e}")))?;
            Ok(0)
        }
        Some(other) => {
            Err(CqaError::InvalidParameter(format!("unknown cqa-perf command '{other}'\n{USAGE}")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{bench_series, EnvFingerprint};
    use crate::stats::Summary;

    fn report(pr: u64, value: f64) -> BenchReport {
        let mut r = BenchReport::new(pr, 0, EnvFingerprint::default());
        let s = Summary::from_samples(&[value, value * 1.01, value * 0.99]);
        r.push(bench_series(crate::names::SeriesName::SchemeKlAnswerNs, &s)).unwrap();
        r
    }

    fn dispatch_str(args: &[&str]) -> (Result<i32>, String) {
        let mut buf = Vec::new();
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let code = dispatch(&owned, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn help_and_unknown_commands() {
        let (code, out) = dispatch_str(&["help"]);
        assert_eq!(code.unwrap(), 0);
        assert!(out.contains("USAGE"));
        let (code, _) = dispatch_str(&["frobnicate"]);
        assert!(code.is_err());
    }

    #[test]
    fn diff_exit_codes_follow_the_gate() {
        let dir = std::env::temp_dir().join("cqa-perf-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("BENCH_5.json");
        let same = dir.join("BENCH_6.json");
        let slow = dir.join("BENCH_7.json");
        report(5, 1.0e6).write_to(&base).unwrap();
        report(6, 1.0e6).write_to(&same).unwrap();
        report(7, 2.1e6).write_to(&slow).unwrap();

        let (code, out) = dispatch_str(&[
            "diff",
            "--against",
            base.to_str().unwrap(),
            "--current",
            same.to_str().unwrap(),
        ]);
        assert_eq!(code.unwrap(), 0, "{out}");
        assert!(out.contains("PASS"), "{out}");

        let (code, out) = dispatch_str(&[
            "diff",
            "--against",
            base.to_str().unwrap(),
            "--current",
            slow.to_str().unwrap(),
        ]);
        assert_eq!(code.unwrap(), 1, "{out}");
        assert!(out.contains("REGRESSED"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flag_errors_are_clean() {
        assert!(dispatch_str(&["diff"]).0.is_err());
        assert!(dispatch_str(&["run", "--profile", "warp"]).0.is_err());
        assert!(dispatch_str(&["run", "--pr"]).0.is_err());
        assert!(dispatch_str(&["export"]).0.is_err());
    }

    #[test]
    fn unknown_suite_is_a_usage_error() {
        let (code, out) = dispatch_str(&["run", "--only", "warp", "--out", "/dev/null"]);
        let err = code.unwrap_err().to_string();
        assert!(err.contains("unknown suite 'warp'"), "{err}");
        assert!(err.contains("synopsis"), "{err}");
        assert!(out.is_empty(), "nothing runs before the check: {out}");
        assert!(dispatch_str(&["run", "--only"]).0.is_err());
    }
}
