//! The `cqa-perf` command-line surface, shared by the standalone binary
//! and the `cqa-cli perf` subcommand.
//!
//! ```text
//! cqa-perf run  [--profile ci|full] [--only SUITE] [--pr N] [--out FILE] [--dashboard DIR]
//! cqa-perf diff --base PATH
//! cqa-perf export --report FILE [--dashboard DIR]
//! ```

use crate::diff::{judge, run_rounds, ROUNDS};
use crate::schema::BenchReport;
use crate::suites::{run_suites, suite_by_name, Profile, SUITES};
use crate::{dashboard, envinfo};
use cqa_common::{CqaError, Result, Stopwatch};
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Usage text for `cqa-perf help` and argument errors.
pub const USAGE: &str = "\
USAGE: cqa-perf <command> [options]

  run   [--profile ci|full] [--only SUITE] [--pr N] [--out FILE] [--dashboard DIR]
        Run the suite registry and write BENCH_<pr>.json
        (default --profile ci, --pr 0, --out BENCH_<pr>.json).
        With --only, run just that suite: samplers, schemes, synopsis,
        figure, server, flight, lint, ablations or optest.
        With --dashboard, also append the recording to DIR/data.js.

  diff  --base PATH
        Gate this build against PATH, the merge base's cqa-perf: both run
        every suite of the ci profile in turn, 12 rounds. Exits 1 when a
        series' 2nd-smallest per-round ratio is above 1.10 (worse in at
        least 11 of 12 rounds).

  export --report FILE [--dashboard DIR]
        Append an existing recording to the dashboard (default dev/bench).

  help  Show this message.
";

/// Parses `--name value` pairs, refusing any flag not in `known`.
fn parse_flags(args: &[String], known: &[&str]) -> Result<BTreeMap<String, String>> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(name) = a.strip_prefix("--") else {
            return Err(CqaError::InvalidParameter(format!("unexpected argument '{a}'")));
        };
        if !known.contains(&name) {
            return Err(CqaError::InvalidParameter(format!("unknown flag '{a}'\n{USAGE}")));
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
    let flags = parse_flags(args, &["profile", "only", "pr", "out", "dashboard"])?;
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

/// The command line that runs this executable as `cqa-perf`: `cqa-cli`
/// nests this surface under its `perf` subcommand.
fn self_command() -> Result<Vec<OsString>> {
    let exe = std::env::current_exe()
        .map_err(|e| CqaError::InvalidParameter(format!("cannot locate this executable: {e}")))?;
    let mut cmd = vec![exe.as_os_str().to_owned()];
    if exe.file_stem().is_some_and(|stem| stem == "cqa-cli") {
        cmd.push("perf".into());
    }
    Ok(cmd)
}

fn diff_cmd(args: &[String], out: &mut dyn Write) -> Result<bool> {
    let flags = parse_flags(args, &["base"])?;
    let base = flags.get("base").map(Path::new).ok_or_else(|| {
        CqaError::InvalidParameter(format!(
            "diff needs --base PATH (the merge base's cqa-perf)\n{USAGE}"
        ))
    })?;
    if !base.is_file() {
        return Err(CqaError::InvalidParameter(format!("--base {} is not a file", base.display())));
    }
    let dir = std::env::temp_dir().join(format!("cqa-perf-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir)
        .map_err(|e| CqaError::InvalidParameter(format!("cannot create {}: {e}", dir.display())))?;
    let clock = Stopwatch::start();
    let rounds = run_rounds(&[base.as_os_str().to_owned()], &self_command()?, &dir);
    std::fs::remove_dir_all(&dir).ok();
    let report = judge(&rounds?);
    write!(out, "{report}")
        .and_then(|()| {
            writeln!(out, "gate wall time: {:.0} s for {ROUNDS} rounds", clock.elapsed_secs())
        })
        .map_err(|e| CqaError::InvalidParameter(format!("write output: {e}")))?;
    Ok(report.passed())
}

fn export_cmd(args: &[String], out: &mut dyn Write) -> Result<()> {
    let flags = parse_flags(args, &["report", "dashboard"])?;
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
    fn diff_takes_only_a_base_binary() {
        let err = |args: &[&str]| dispatch_str(args).0.unwrap_err().to_string();
        assert!(err(&["diff"]).contains("diff needs --base PATH"));
        for removed in ["--against", "--current", "--tolerance", "--allow-missing"] {
            let e = err(&["diff", removed, "x"]);
            assert!(e.contains(&format!("unknown flag '{removed}'")), "{e}");
            let e = err(&["diff", "--base", "Cargo.toml", removed]);
            assert!(e.contains(&format!("unknown flag '{removed}'")), "{e}");
        }
        assert!(err(&["diff", "--base", "no/such/cqa-perf"]).contains("is not a file"));
    }

    #[test]
    fn flag_errors_are_clean() {
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
