//! cqa-lint: the workspace lock-discipline checker.
//!
//! Rust's type system cannot say "nothing waits under a lock guard: no
//! second lock, no blocking call, no fault point". `cqa-lint` checks that
//! one invariant, `no-wait-under-guard`, with a hand-rolled lexer
//! ([`lexer`]), an item parser ([`parser`]), and a conservative workspace
//! call graph ([`callgraph`]) over which [`lockflow`] lifts each guard's
//! span; it has **zero** dependencies beyond std, so it runs anywhere the
//! workspace builds. Every other invariant has its enforcement point
//! elsewhere — the compiler (enum-typed names, `forbid(unsafe_code)`),
//! clippy (panics in the library crates, estimator arithmetic), or a test
//! (the golden digests for the seeded random stream, the counting
//! allocator for allocation-free sampling, `protocol_doc.rs` for the wire
//! protocol); `docs/ANALYSIS.md` lists them.
//!
//! Entry point: [`check_workspace`]. CLI: `cargo run -p cqa-lint -- check`.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod lockflow;
pub mod parser;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Directory globs (relative to the workspace root) whose `src` trees are
/// scanned. `tools/*/src` includes cqa-lint itself — the linter holds its
/// own invariant; its *fixtures* live outside `src` and are not scanned.
/// `shims/` is not scanned: the shims stand in for crates.io crates, whose
/// locks and blocking calls are primitives to the workspace, not code it
/// can change.
pub const SCAN_ROOTS: [&str; 2] = ["crates", "tools"];

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Which rule fired ([`lockflow::NO_WAIT`]).
    pub rule: &'static str,
    /// Repo-relative file the finding is in.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// A fatal problem with the scan itself (an unreadable file) — distinct
/// from findings, which are problems with the code.
#[derive(Debug)]
pub struct CheckError(pub String);

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cqa-lint: {}", self.0)
    }
}

impl std::error::Error for CheckError {}

fn read(path: &Path) -> Result<String, CheckError> {
    fs::read_to_string(path).map_err(|e| CheckError(format!("cannot read {}: {e}", path.display())))
}

/// All `.rs` files under `<root>/<scan>/<member>/src`, sorted for
/// deterministic output, as (absolute, repo-relative) pairs.
fn source_files(root: &Path) -> Result<Vec<(PathBuf, String)>, CheckError> {
    let mut files = Vec::new();
    for scan in SCAN_ROOTS {
        let dir = root.join(scan);
        let entries = match fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue, // a scan root may legitimately not exist yet
        };
        for entry in entries {
            let entry = entry.map_err(|e| CheckError(format!("reading {}: {e}", dir.display())))?;
            let src = entry.path().join("src");
            if src.is_dir() {
                walk_rs(&src, &mut files)?;
            }
        }
    }
    let mut out = Vec::with_capacity(files.len());
    for f in files {
        let rel = f
            .strip_prefix(root)
            .map_err(|_| CheckError(format!("{} escapes the workspace root", f.display())))?
            .to_string_lossy()
            .replace('\\', "/");
        out.push((f.clone(), rel));
    }
    out.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), CheckError> {
    let entries =
        fs::read_dir(dir).map_err(|e| CheckError(format!("reading {}: {e}", dir.display())))?;
    for entry in entries {
        let entry = entry.map_err(|e| CheckError(format!("reading {}: {e}", dir.display())))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Runs the rule over a set of `(repo-relative path, source)` pairs. This
/// is the engine behind [`check_workspace`] and the fixture self-tests — a
/// finding reached through calls needs the *set*, not a single file, so
/// fixtures exercising cross-module reachability pass several files at
/// once.
pub fn check_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let parsed: Vec<parser::ParsedFile> = sources
        .iter()
        .map(|(rel, src)| parser::parse_file(rel, &lexer::strip_cfg_test(&lexer::lex(src))))
        .collect();
    let mut findings = lockflow::check(&callgraph::Graph::build(&parsed));
    sort_dedup(&mut findings);
    findings
}

/// Sorts findings by file/line/rule and keeps one finding per
/// (file, line, rule): the same site can surface through several seeds
/// or paths (e.g. one lock acquisition reached under two guards) and
/// one report with one path is enough to act on.
fn sort_dedup(findings: &mut Vec<Finding>) {
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.rule == b.rule);
}

/// Every scanned source of the workspace rooted at `root`, as
/// `(repo-relative path, text)` pairs sorted by path.
pub fn workspace_sources(root: &Path) -> Result<Vec<(String, String)>, CheckError> {
    source_files(root)?.into_iter().map(|(abs, rel)| Ok((rel, read(&abs)?))).collect()
}

/// Runs the rule over the workspace rooted at `root` and returns the
/// findings, sorted by file/line.
pub fn check_workspace(root: &Path) -> Result<Vec<Finding>, CheckError> {
    Ok(check_sources(&workspace_sources(root)?))
}

/// Lints a single source string as if it were file `rel`. Single-file
/// view of [`check_sources`]; reachability sees only this file's
/// functions.
pub fn check_source(rel: &str, src: &str) -> Vec<Finding> {
    check_sources(&[(rel.to_owned(), src.to_owned())])
}
