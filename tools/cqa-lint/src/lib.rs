//! cqa-lint: the workspace invariant checker.
//!
//! Rust's type system cannot express several invariants this workspace
//! relies on — "no panics reachable from the server's request path", "all
//! randomness flows from the seeded root RNG", "nothing waits under a
//! lock guard: no second lock, no blocking call, no fault point".
//! Invariants the compiler, clippy or a test already enforce are left to
//! them — span, fault-point and benchmark-series names are enums, so the
//! compiler rejects a misspelled one; the counting allocator in
//! `crates/core/tests/alloc_sanitizer.rs` checks that sampling never
//! allocates; and `crates/server/tests/protocol_doc.rs` checks that the
//! wire protocol and its document agree (see `docs/ANALYSIS.md`).
//! `cqa-lint` enforces them with a hand-rolled lexer ([`lexer`]), an item
//! parser ([`parser`]), and a conservative workspace call graph
//! ([`callgraph`]) that turns the panic, RNG and lock rules into transitive
//! reachability queries ([`lockflow`] holds the lock rule); it has **zero** dependencies beyond std, so it
//! runs anywhere the workspace builds.
//!
//! Entry point: [`check_workspace`]. CLI: `cargo run -p cqa-lint -- check`.
//! Rules, rationale, and the suppression syntax are documented in
//! `docs/ANALYSIS.md`.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod lexer;
pub mod lockflow;
pub mod parser;
pub mod rules;

use rules::Finding;
use std::fs;
use std::path::{Path, PathBuf};

/// Files on the server's request path, subject to `no-panic-in-request-path`.
pub const REQUEST_PATH_FILES: [&str; 3] =
    ["crates/server/src/server.rs", "crates/server/src/pool.rs", "crates/server/src/cache.rs"];
/// Directory globs (relative to the workspace root) whose `src` trees are
/// scanned. `tools/*/src` includes cqa-lint itself — the linter holds its
/// own invariants; its *fixtures* live outside `src` and are not scanned.
pub const SCAN_ROOTS: [&str; 3] = ["crates", "shims", "tools"];
/// Files holding the samplers, the DKLR planners and the Monte-Carlo
/// estimator loops, whose every function seeds `rng-flow`.
pub const SAMPLING_FILES: [&str; 4] = [
    "crates/core/src/coverage.rs",
    "crates/core/src/montecarlo.rs",
    "crates/core/src/optest.rs",
    "crates/core/src/sampler.rs",
];

/// A fatal problem with the scan itself (an unreadable file) — distinct
/// from findings, which are problems with the code.
#[derive(Debug)]
pub struct CheckError(pub String);

impl std::fmt::Display for CheckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
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

/// Runs every rule over a set of `(repo-relative path, source)` pairs:
/// the per-file rules, then the call-graph rules over the whole set. This
/// is the engine behind [`check_workspace`] and the fixture self-tests —
/// a transitive finding needs the *set*, not a single file, so fixtures
/// exercising cross-module reachability pass several files at once.
pub fn check_sources(sources: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut lexed_v: Vec<lexer::Lexed> = Vec::with_capacity(sources.len());
    let mut stripped_v: Vec<Vec<lexer::Tok>> = Vec::with_capacity(sources.len());
    let mut parsed_v: Vec<parser::ParsedFile> = Vec::with_capacity(sources.len());

    for (rel, src) in sources {
        let lexed = lexer::lex(src);
        let stripped = lexer::strip_cfg_test(&lexed.toks);

        findings.extend(rules::suppression_hygiene(&lexed, rel));
        parsed_v.push(parser::parse_file(rel, &stripped));
        lexed_v.push(lexed);
        stripped_v.push(stripped);
    }

    let graph = callgraph::Graph::build(&parsed_v);
    findings.extend(rules::no_panic(&graph, &lexed_v, &REQUEST_PATH_FILES));
    findings.extend(rules::rng_flow(&graph, &lexed_v, &stripped_v, &SAMPLING_FILES));
    findings.extend(lockflow::check(&graph, &lexed_v));

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

/// Runs every rule over the workspace rooted at `root` and returns the
/// surviving findings, sorted by file/line/rule.
pub fn check_workspace(root: &Path) -> Result<Vec<Finding>, CheckError> {
    Ok(check_sources(&workspace_sources(root)?))
}

/// Lints a single source string as if it were file `rel`. Single-file
/// view of [`check_sources`]; transitive rules see only this file's
/// functions.
pub fn check_source(rel: &str, src: &str) -> Vec<Finding> {
    check_sources(&[(rel.to_owned(), src.to_owned())])
}
