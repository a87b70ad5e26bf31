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
fn no_alloc_fires_on_bad_fixture() {
    let fired = fired(ANYWHERE, "no-alloc-in-hot-path/bad.rs");
    assert_eq!(
        fired,
        vec![rules::NO_ALLOC, rules::NO_ALLOC, rules::NO_ALLOC],
        "clone, format!, Vec::new"
    );
}

#[test]
fn no_alloc_passes_good_fixture() {
    assert!(fired(ANYWHERE, "no-alloc-in-hot-path/good.rs").is_empty());
}

#[test]
fn no_alloc_reports_unclosed_region() {
    let findings = cqa_lint::check_source(ANYWHERE, &fixture("no-alloc-in-hot-path/unclosed.rs"));
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].rule, rules::NO_ALLOC);
    assert!(findings[0].message.contains("never closed"), "{}", findings[0].message);
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
fn transitive_alloc_crosses_modules_from_hot_region() {
    let findings = fired_multi(&[
        (ANYWHERE, "transitive/hot_entry.rs"),
        ("crates/core/src/tabulate.rs", "transitive/hot_helper.rs"),
    ]);
    assert_eq!(findings.len(), 1, "{findings:#?}");
    assert_eq!(findings[0].rule, rules::NO_ALLOC);
    assert_eq!(findings[0].file, "crates/core/src/tabulate.rs");
    assert!(findings[0].message.contains("reachable via"), "{}", findings[0].message);
}

#[test]
fn transitive_helpers_alone_are_clean() {
    // Without the entry points, neither helper is reachable from a seed:
    // the findings above really do come from the call graph.
    assert!(fired("crates/server/src/util.rs", "transitive/request_helper.rs").is_empty());
    assert!(fired("crates/core/src/tabulate.rs", "transitive/hot_helper.rs").is_empty());
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
fn protocol_sync_passes_matching_pair() {
    let lexed = cqa_lint::lexer::lex(&fixture("protocol-doc-sync/good_protocol.rs"));
    let code = rules::protocol_code_keys(&lexed.toks);
    assert_eq!(code.iter().map(String::as_str).collect::<Vec<_>>(), vec!["query", "seed"]);
    let doc = rules::protocol_doc_keys(&fixture("protocol-doc-sync/good_doc.md"));
    assert!(rules::protocol_sync(&code, &doc, "protocol.rs", "doc.md").is_empty());
}

#[test]
fn protocol_sync_fires_in_both_directions() {
    let lexed = cqa_lint::lexer::lex(&fixture("protocol-doc-sync/good_protocol.rs"));
    let code = rules::protocol_code_keys(&lexed.toks);
    let doc = rules::protocol_doc_keys(&fixture("protocol-doc-sync/bad_doc.md"));
    let findings = rules::protocol_sync(&code, &doc, "protocol.rs", "doc.md");
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == rules::PROTOCOL_SYNC));
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("\"seed\"") && f.message.contains("never documented")),
        "undocumented code key: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("\"retries\"") && f.message.contains("stale doc")),
        "doc-only key: {findings:?}"
    );
}

#[test]
fn error_table_sync_passes_matching_pair() {
    let lexed = cqa_lint::lexer::lex(&fixture("protocol-doc-sync/error_protocol.rs"));
    let code = rules::protocol_error_kinds(&lexed.toks);
    assert_eq!(
        code.iter().map(String::as_str).collect::<Vec<_>>(),
        vec!["bad_request", "overloaded"],
        "kinds come from the from_name parse table only"
    );
    let doc = rules::protocol_doc_error_kinds(&fixture("protocol-doc-sync/good_error_doc.md"));
    assert_eq!(code, doc, "tables outside the error section must be ignored");
    assert!(rules::error_table_sync(&code, &doc, "protocol.rs", "doc.md").is_empty());
}

#[test]
fn error_table_sync_fires_in_both_directions() {
    let lexed = cqa_lint::lexer::lex(&fixture("protocol-doc-sync/error_protocol.rs"));
    let code = rules::protocol_error_kinds(&lexed.toks);
    let doc = rules::protocol_doc_error_kinds(&fixture("protocol-doc-sync/bad_error_doc.md"));
    let findings = rules::error_table_sync(&code, &doc, "protocol.rs", "doc.md");
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings.iter().all(|f| f.rule == rules::PROTOCOL_SYNC));
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("\"bad_request\"") && f.message.contains("missing")),
        "undocumented error kind: {findings:?}"
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("\"deadline_exceeded\"") && f.message.contains("stale")),
        "doc-only error kind: {findings:?}"
    );
}

#[test]
fn lock_order_fires_on_seeded_abba() {
    let fired = fired(ANYWHERE, "lock-order/bad.rs");
    assert_eq!(fired, vec![rules::LOCK_ORDER, rules::LOCK_ORDER], "one finding per direction");
}

#[test]
fn lock_order_passes_good_fixture() {
    // Consistent ordering plus a drop-then-reacquire that is only clean
    // because guard release is modeled.
    assert!(fired(ANYWHERE, "lock-order/good.rs").is_empty());
}

#[test]
fn lock_order_reconstructs_interprocedural_acquisition_paths() {
    // The seeded ABBA cycle in the cache/pool pair: each direction crosses
    // a call edge, and each finding carries its own acquisition path plus
    // the rendered cycle.
    let findings = fired_multi(&[
        ("crates/server/src/cache.rs", "transitive/abba_cache.rs"),
        ("crates/server/src/pool.rs", "transitive/abba_pool.rs"),
    ]);
    let cycles: Vec<_> = findings.iter().filter(|f| f.rule == rules::LOCK_ORDER).collect();
    assert_eq!(cycles.len(), 2, "one finding per direction: {findings:#?}");
    assert!(
        cycles.iter().any(|f| f.message.contains("Cache::lookup → Pool::reserve_worker")),
        "{cycles:#?}"
    );
    assert!(
        cycles.iter().any(|f| f.message.contains("Pool::shed → Cache::refresh")),
        "{cycles:#?}"
    );
    assert!(cycles.iter().all(|f| f.message.contains("cycle: ")), "{cycles:#?}");
}

#[test]
fn no_blocking_fires_on_bad_fixture() {
    let fired = fired(REQUEST_PATH, "no-blocking-while-locked/bad.rs");
    assert_eq!(
        fired,
        vec![rules::NO_BLOCKING, rules::NO_BLOCKING, rules::NO_BLOCKING],
        "second lock acquisition, recv, sleep"
    );
}

#[test]
fn no_blocking_is_scoped_to_the_request_path() {
    // Holding two independent locks without a cycle is legal off the
    // request path; only the request-path region demands lock-free waits.
    assert!(fired(ANYWHERE, "no-blocking-while-locked/bad.rs").is_empty());
}

#[test]
fn no_blocking_passes_good_fixture() {
    assert!(fired(REQUEST_PATH, "no-blocking-while-locked/good.rs").is_empty());
}

#[test]
fn guard_fault_fires_directly_and_transitively() {
    let fired = fired(ANYWHERE, "no-guard-across-fault-point/bad.rs");
    assert_eq!(
        fired,
        vec![rules::GUARD_FAULT, rules::GUARD_FAULT],
        "one direct fault point, one via a callee"
    );
}

#[test]
fn guard_fault_passes_good_fixture() {
    assert!(fired(ANYWHERE, "no-guard-across-fault-point/good.rs").is_empty());
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
