//! Self-tests: every rule must fire on its bad fixture (with the right
//! rule name) and stay silent on its good fixture, suppressions must be
//! honored, and the real workspace must lint clean — which makes
//! `cargo test --workspace` fail the moment an invariant regresses, even
//! where CI forgets to run the CLI.

use cqa_lint::rules;
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
const ESTIMATOR: &str = "crates/core/src/montecarlo.rs";

/// Lints several fixtures together as the given workspace files — the
/// call-graph rules need the whole set to connect cross-module edges.
fn fired_multi(files: &[(&str, &str)]) -> Vec<rules::Finding> {
    let sources: Vec<(String, String)> =
        files.iter().map(|(rel, fx)| (rel.to_string(), fixture(fx))).collect();
    cqa_lint::check_sources(&sources)
}

#[test]
fn no_panic_fires_on_bad_fixture() {
    let fired = fired(REQUEST_PATH, "no-panic-in-request-path/bad.rs");
    assert_eq!(fired, vec![rules::NO_PANIC, rules::NO_PANIC], "unwrap + panic!");
}

#[test]
fn no_panic_is_scoped_to_the_request_path() {
    // The same source outside the request path is not no-panic's business.
    assert!(fired(ANYWHERE, "no-panic-in-request-path/bad.rs").is_empty());
}

#[test]
fn no_panic_passes_good_fixture_and_ignores_tests() {
    assert!(fired(REQUEST_PATH, "no-panic-in-request-path/good.rs").is_empty());
}

#[test]
fn suppression_comment_waives_a_finding() {
    assert!(fired(REQUEST_PATH, "no-panic-in-request-path/suppressed.rs").is_empty());
}

#[test]
fn transitive_panic_crosses_modules() {
    let findings = fired_multi(&[
        (REQUEST_PATH, "transitive/request_entry.rs"),
        ("crates/server/src/util.rs", "transitive/request_helper.rs"),
    ]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, rules::NO_PANIC);
    assert_eq!(findings[0].file, "crates/server/src/util.rs");
    assert!(findings[0].message.contains("reachable via"), "{}", findings[0].message);
}

#[test]
fn transitive_helpers_alone_are_clean() {
    // Without the entry point, the helper is not reachable from a seed:
    // the finding above really does come from the call graph.
    assert!(fired("crates/server/src/util.rs", "transitive/request_helper.rs").is_empty());
}

#[test]
fn rng_flow_fires_on_ambient_entropy_and_unforked_root() {
    let findings = cqa_lint::check_source(ESTIMATOR, &fixture("rng-flow/bad.rs"));
    assert_eq!(findings.len(), 2, "{findings:#?}");
    assert!(findings.iter().all(|f| f.rule == rules::RNG_FLOW));
    assert!(findings.iter().any(|f| f.message.contains("thread_rng")), "{findings:#?}");
}

#[test]
fn rng_flow_passes_forked_rng() {
    assert!(fired(ESTIMATOR, "rng-flow/good.rs").is_empty());
}

#[test]
fn suppression_hygiene_fires_on_bad_fixture() {
    let fired = fired(REQUEST_PATH, "suppression-needs-reason/bad.rs");
    assert_eq!(
        fired,
        vec![rules::SUPPRESSION, rules::SUPPRESSION, rules::SUPPRESSION],
        "missing reason, unknown rule, self-suppression"
    );
}

#[test]
fn suppression_hygiene_passes_good_fixture() {
    assert!(fired(REQUEST_PATH, "suppression-needs-reason/good.rs").is_empty());
}

#[test]
fn no_wait_fires_on_every_wait_under_a_guard() {
    let findings = cqa_lint::check_source(REQUEST_PATH, &fixture("no-wait-under-guard/bad.rs"));
    let fired: Vec<_> = findings.iter().map(|f| f.rule).collect();
    assert_eq!(fired, vec![rules::NO_WAIT; 4], "nested lock, recv, sleep, fault point");
    // Each finding names the guard's receiver and where it was taken.
    let guard = format!("guard on `STATE` ({REQUEST_PATH}:13)");
    assert!(findings.iter().all(|f| f.message.contains(&guard)), "{findings:#?}");
}

#[test]
fn no_wait_fires_outside_the_request_path() {
    // The rule is workspace-wide: a file off the request path gets the
    // same four findings.
    assert_eq!(fired(ANYWHERE, "no-wait-under-guard/bad.rs"), vec![rules::NO_WAIT; 4]);
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
    assert!(findings.iter().all(|f| f.rule == rules::NO_WAIT), "{findings:#?}");
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
