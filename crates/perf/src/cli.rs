//! The `cqa-perf` command-line surface.
//!
//! ```text
//! cqa-perf run  [--only SUITE] [--pr N] [--out FILE]
//! cqa-perf diff --base PATH
//! ```

use crate::diff::{judge, run_rounds, ROUNDS};
use crate::envinfo;
use crate::schema::BenchReport;
use crate::suites::{run_suites, suite_by_name, PROFILE, SCALE, SEED, SUITES};
use cqa_common::{CqaError, Result, Stopwatch};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Usage text for `cqa-perf help` and argument errors.
pub const USAGE: &str = "\
USAGE: cqa-perf <command> [options]

  run   [--only SUITE] [--pr N] [--out FILE]
        Run the suite registry and write BENCH_<pr>.json
        (default --pr 0, --out BENCH_<pr>.json).
        With --only, run just that suite: samplers, schemes, synopsis,
        figure, server, ablations or optest.

  diff  --base PATH
        Gate this build against PATH, the merge base's cqa-perf: both run
        every suite in turn, 12 rounds. Exits 1 when a series'
        2nd-smallest per-round ratio is above 1.10 (worse in at least 11
        of 12 rounds).

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

fn run_cmd(args: &[String]) -> Result<String> {
    let flags = parse_flags(args, &["only", "pr", "out"])?;
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

    let env = envinfo::fingerprint(SCALE, SEED, PROFILE);
    let mut report = BenchReport::new(pr, envinfo::unix_now(), env);
    for s in run_suites(&suites)? {
        report.push(s)?;
    }
    report.write_to(&out_path)?;
    let (path, n) = (out_path.display(), report.series.len());
    Ok(format!("wrote {path} ({n} series, profile {PROFILE})\n"))
}

/// Runs the gate; returns its exit code and report.
fn diff_cmd(args: &[String]) -> Result<(i32, String)> {
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
    let head = std::env::current_exe()
        .map_err(|e| CqaError::InvalidParameter(format!("cannot locate this executable: {e}")))?;
    let clock = Stopwatch::start();
    let rounds = run_rounds(&[base.as_os_str().to_owned()], &[head.into_os_string()], &dir);
    std::fs::remove_dir_all(&dir).ok();
    let report = judge(&rounds?);
    let wall = clock.elapsed_secs();
    let text = format!("{report}gate wall time: {wall:.0} s for {ROUNDS} rounds\n");
    Ok((if report.passed() { 0 } else { 1 }, text))
}

/// Dispatches a `cqa-perf` invocation. Returns the process exit code:
/// 0 success / gate passed, 1 gate failed, 2 usage or runtime error
/// (errors are written to `out` by the caller via the `Err`).
pub fn dispatch(args: &[String], out: &mut dyn Write) -> Result<i32> {
    let (code, text) = match args.first().map(String::as_str) {
        Some("run") => (0, run_cmd(&args[1..])?),
        Some("diff") => diff_cmd(&args[1..])?,
        Some("help") | None => (0, USAGE.to_owned()),
        Some(other) => {
            let msg = format!("unknown cqa-perf command '{other}'\n{USAGE}");
            return Err(CqaError::InvalidParameter(msg));
        }
    };
    out.write_all(text.as_bytes())
        .map_err(|e| CqaError::InvalidParameter(format!("write output: {e}")))?;
    Ok(code)
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
        assert!(dispatch_str(&["run", "--pr"]).0.is_err());
        for removed in ["--profile", "--dashboard"] {
            let e = dispatch_str(&["run", removed, "x"]).0.unwrap_err().to_string();
            assert!(e.contains(&format!("unknown flag '{removed}'")), "{e}");
        }
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
