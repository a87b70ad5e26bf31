//! Self-tests: the rule must fire on its bad fixtures (with the right
//! rule name) and stay silent on its good fixture, and the real workspace
//! must lint clean — which makes `cargo test --workspace` fail the moment
//! the invariant regresses, even where CI forgets to run the CLI.

use cqa_lint::lockflow::NO_WAIT;
use std::path::{Path, PathBuf};

fn fixture_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(rel)
}

fn fixture(rel: &str) -> String {
    let path = fixture_path(rel);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lints a fixture as if it were workspace file `rel` and returns the
/// rule names that fired.
fn fired(rel: &str, fixture_file: &str) -> Vec<&'static str> {
    cqa_lint::check_source(rel, &fixture(fixture_file)).into_iter().map(|f| f.rule).collect()
}

const REQUEST_PATH: &str = "crates/server/src/pool.rs";
const ANYWHERE: &str = "crates/core/src/sampler.rs";

/// Lints several fixtures together as the given workspace files — the
/// call graph needs the whole set to connect cross-module edges.
fn fired_multi(files: &[(&str, &str)]) -> Vec<cqa_lint::Finding> {
    let sources: Vec<(String, String)> =
        files.iter().map(|(rel, fx)| (rel.to_string(), fixture(fx))).collect();
    cqa_lint::check_sources(&sources)
}

#[test]
fn no_wait_fires_on_every_wait_under_a_guard() {
    let findings = cqa_lint::check_source(REQUEST_PATH, &fixture("no-wait-under-guard/bad.rs"));
    let fired: Vec<_> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(fired, vec![NO_WAIT; 4], "nested lock, recv, sleep, fault point");
    // Each finding names the guard's receiver and where it was taken.
    let guard = format!("guard on `STATE` ({REQUEST_PATH}:13)");
    assert!(findings.iter().all(|f| f.message.contains(&guard)), "{findings:#?}");
}

#[test]
fn no_wait_fires_outside_the_request_path() {
    // The rule is workspace-wide: a file off the request path gets the
    // same four findings.
    assert_eq!(fired(ANYWHERE, "no-wait-under-guard/bad.rs"), vec![NO_WAIT; 4]);
}

#[test]
fn no_wait_passes_good_fixture() {
    // A block-scoped guard before a sleep and a `drop(g)` before a fault
    // point: clean only because guard release is modeled.
    assert!(fired(ANYWHERE, "no-wait-under-guard/good.rs").is_empty());
}

#[test]
fn no_wait_follows_the_call_graph_in_both_directions() {
    // The seeded ABBA pair in the cache/pool fixtures: each direction
    // acquires its second lock in a callee, and each finding carries its
    // own call path.
    let findings = fired_multi(&[
        ("crates/server/src/cache.rs", "transitive/abba_cache.rs"),
        ("crates/server/src/pool.rs", "transitive/abba_pool.rs"),
    ]);
    assert_eq!(findings.len(), 2, "one finding per direction: {findings:#?}");
    assert!(findings.iter().all(|f| f.rule == NO_WAIT), "{findings:#?}");
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("reachable via Cache::lookup → Pool::reserve_worker")),
        "{findings:#?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("reachable via Pool::shed → Cache::refresh")),
        "{findings:#?}"
    );
}

/// The real workspace must stay clean: this is the same check CI runs via
/// the CLI, embedded in the test suite so `cargo test --workspace` alone
/// catches regressions.
#[test]
fn workspace_lints_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = cqa_lint::check_workspace(&root).expect("scan must succeed");
    assert!(findings.is_empty(), "workspace findings:\n{findings:#?}");
}
