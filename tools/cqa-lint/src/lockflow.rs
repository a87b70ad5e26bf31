//! Interprocedural held-locks dataflow: the `no-wait-under-guard` rule.
//!
//! The [`crate::parser`] models each lock acquisition as a [`LockSpan`] —
//! the guard's receiver plus the line range the guard stays alive
//! (let-bound guards live to `drop()`/block close/fn end; everything else
//! is a statement temporary). This module lifts those spans through the
//! call graph: while a guard's span is active, every call edge leaving it
//! drags the full reachable closure into the "held" context. Anywhere in
//! the workspace, that context must not wait:
//!
//! - **no second lock acquisition** (any lock, `try_*` included): with no
//!   nested acquisition anywhere, no lock-order cycle can form, so no
//!   order graph is needed;
//! - **no blocking operation** (channel recv, `join()`, file/socket I/O,
//!   `sleep`), which would stall every contender on whatever it waits
//!   for;
//! - **no `fault_point!`**: an injected delay parks every contender and an
//!   injected panic poisons the lock — the chaos invariants in
//!   docs/RELIABILITY.md assume fault points fire lock-free.
//!
//! The vendored shims under `shims/` are not scanned: they stand in for
//! crates.io crates, so their locks are primitives (every workspace
//! `Mutex::lock` bottoms out in the parking_lot shim), audited separately
//! by the loom model checker. Known unsoundness of the span model itself
//! is documented in `docs/ANALYSIS.md`.

use crate::callgraph::{FnId, Graph};
use crate::parser::LockSpan;
use crate::Finding;

/// The rule's name, as printed in findings.
pub const NO_WAIT: &str = "no-wait-under-guard";

/// Runs `no-wait-under-guard` over the whole parsed set.
pub fn check(g: &Graph<'_>) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, file) in g.files.iter().enumerate() {
        for (ni, f) in file.fns.iter().enumerate() {
            let id = (fi, ni);
            for s in &f.lock_spans {
                let guard = format!("`{}` ({}:{})", s.recv, file.rel, s.acquire_line);
                // The guard is held on lines (acquire, end]; the acquire
                // line itself is excluded because receiver/argument code on
                // it runs before the acquisition.
                let held = |line: u32| line > s.acquire_line && line <= s.end_line;
                waits(g, id, &guard, "", held, &mut out);
                // Interprocedural: everything reachable from in-span calls
                // executes with the guard held.
                for (callee, _) in g.facts[fi][ni].edges.iter().filter(|(_, l)| held(*l)) {
                    let parent = g.reach(&[*callee]);
                    for &rid in parent.keys() {
                        let via = format!(
                            " (reachable via {} → {})",
                            g.display(id),
                            g.path_to(&parent, rid)
                        );
                        waits(g, rid, &guard, &via, |_| true, &mut out);
                    }
                }
            }
        }
    }
    out
}

/// Reports every wait in function `id` on a line `in_span` accepts: lock
/// acquisitions, blocking operations and fault points.
fn waits(
    g: &Graph<'_>,
    id: FnId,
    guard: &str,
    via: &str,
    in_span: impl Fn(u32) -> bool,
    out: &mut Vec<Finding>,
) {
    let rel = &g.files[id.0].rel;
    let f = g.fn_item(id);
    let mut report = |line: u32, what: String| {
        if in_span(line) {
            out.push(Finding {
                rule: NO_WAIT,
                file: rel.clone(),
                line,
                message: format!(
                    "{what} while the guard on {guard} is held{via}; release the guard before \
                     waiting"
                ),
            });
        }
    };
    for LockSpan { recv, acquire_line, .. } in &f.lock_spans {
        report(*acquire_line, format!("lock `{recv}` is acquired"));
    }
    for b in &g.facts[id.0][id.1].blocking {
        report(b.line, format!("blocking op {} runs", b.what));
    }
    for (point, line) in &f.fault_sites {
        report(*line, format!("fault_point!({point}) fires"));
    }
}
