//! The reverse direction of the [`Point`] enum: every point must be
//! planted with `fault_point!` at some boundary outside `#[cfg(test)]`
//! code. A point without a call site injects nothing, so a plan that
//! targets it reports a clean pass for a boundary it never perturbed.
//! The call sites are the ones `cqa-lint`'s `no-guard-across-fault-point`
//! rule sees.

use cqa_chaos::Point;
use cqa_lint::{lexer, parser};
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn every_point_has_a_call_site_outside_tests() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut planted = BTreeSet::new();
    for (rel, src) in cqa_lint::workspace_sources(&root).expect("workspace sources") {
        let parsed = parser::parse_file(&rel, &lexer::strip_cfg_test(&lexer::lex(&src).toks));
        for f in &parsed.fns {
            planted.extend(f.fault_sites.iter().map(|(arg, _)| arg.clone()));
        }
    }
    for p in Point::ALL {
        assert!(
            planted.contains(&format!("{p:?}")),
            "fault point {p:?} ({}) has no fault_point! call site outside tests",
            p.name()
        );
    }
}
