//! CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p cqa-lint -- check [--root <path>] [--out <findings-file>]
//! ```
//!
//! Exits 0 when the workspace is clean, 1 when the rule fires, 2 on usage
//! or I/O errors. With `--out`, findings are also written to the given
//! file, one per line (CI uploads it as a build artifact). See
//! `docs/ANALYSIS.md` for the rule.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cqa-lint check [--root <workspace-root>] [--out <findings-file>]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if cmd != "check" {
        eprintln!("cqa-lint: unknown command {cmd:?}\n{USAGE}");
        return ExitCode::from(2);
    }
    // Default to the workspace root this binary was built from, so
    // `cargo run -p cqa-lint -- check` works from any directory.
    let mut root = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
    let mut out_file: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("cqa-lint: --root needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            "--out" => match args.next() {
                Some(p) => out_file = Some(PathBuf::from(p)),
                None => {
                    eprintln!("cqa-lint: --out needs a path\n{USAGE}");
                    return ExitCode::from(2);
                }
            },
            other => {
                eprintln!("cqa-lint: unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    match cqa_lint::check_workspace(&root) {
        Ok(findings) => {
            if let Some(path) = &out_file {
                let mut body =
                    findings.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n");
                if !body.is_empty() {
                    body.push('\n');
                }
                if let Err(e) = std::fs::write(path, body) {
                    eprintln!("cqa-lint: cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            if findings.is_empty() {
                println!("cqa-lint: workspace clean");
                ExitCode::SUCCESS
            } else {
                for f in &findings {
                    println!("{f}");
                }
                println!("cqa-lint: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
