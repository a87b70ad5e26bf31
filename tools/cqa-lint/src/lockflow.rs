//! Interprocedural held-locks dataflow: the three lock-discipline rules.
//!
//! The [`crate::parser`] models each lock acquisition as a [`LockSpan`] —
//! a lock *identity* plus the line range its guard stays alive (let-bound
//! guards live to `drop()`/block close/fn end; everything else is a
//! statement temporary). This module lifts those spans through the call
//! graph: while a guard's span is active, every call edge leaving it drags
//! the full reachable closure into the "held" context. On that context it
//! enforces:
//!
//! - **`lock-order`** (workspace-wide): every "acquire B while holding A"
//!   occurrence becomes an edge A → B in a global lock-acquisition order
//!   graph; an edge that lies on a cycle is a potential deadlock and is
//!   reported with the reconstructed acquisition path for its direction.
//!   This is the static twin of the parking_lot shim's debug-build ABBA
//!   detector — and like it, a `try_*` acquisition can *hold* a lock
//!   (edge source) but never *waits* (edge target), so try-edges cannot
//!   close a cycle.
//! - **`no-blocking-while-locked`** (request path): a blocking operation
//!   (second lock acquisition, channel recv, `join()`, file/socket I/O,
//!   `sleep`) reachable while a request-path guard is held serializes the
//!   request path on whatever that operation waits for.
//! - **`no-guard-across-fault-point`** (workspace-wide): a guard held
//!   across a `fault_point!` boundary means an injected delay parks every
//!   contender and an injected panic poisons the lock — the chaos
//!   invariants in docs/RELIABILITY.md assume fault points fire lock-free.
//!
//! Files under `shims/` contribute **no** lock or blocking facts: the
//! shims are the primitive layer (every workspace `Mutex::lock` bottoms
//! out in the parking_lot shim's one `inner` field, which would alias all
//! workspace locks into one), and they are audited separately by the
//! runtime ABBA detector and the loom model checker. Known unsoundness of
//! the span model itself is documented in `docs/ANALYSIS.md`.

use crate::callgraph::{FnId, Graph};
use crate::lexer::Lexed;
use crate::parser::LockSpan;
use crate::rules::{self, Finding, GUARD_FAULT, LOCK_ORDER, NO_BLOCKING};
use std::collections::{BTreeMap, VecDeque};

fn is_shim(rel: &str) -> bool {
    rel.starts_with("shims/")
}

/// Stable key and display name for a span's lock. Global identities
/// (`Cache.shard(…)`, `PLAN`) key as themselves; function-local ones
/// (`m` inside `fn a`) are keyed per (file, fn) so same-named variables in
/// different functions never unify.
fn lock_names(g: &Graph<'_>, id: FnId, span: &LockSpan) -> (String, String) {
    if span.local {
        let disp = format!("{}::{}", g.fn_item(id).name, span.lock);
        (format!("{}#{}::{}", g.files[id.0].rel, id.1, span.lock), disp)
    } else {
        (span.lock.clone(), span.lock.clone())
    }
}

/// Evidence for one lock-order edge: where the finding anchors and how the
/// second acquisition is reached from the holder.
struct Edge {
    /// File index / line of the second acquisition (the finding anchor).
    fi: usize,
    line: u32,
    /// Function acquisition path, e.g. `Cache::lookup → Pool::reserve`.
    path: String,
    /// `file:line` where the held lock was acquired.
    held_at: String,
}

/// Runs the three lock-discipline rules over the whole parsed set.
pub fn check(g: &Graph<'_>, lexed: &[Lexed], request_files: &[&str]) -> Vec<Finding> {
    let mut out = Vec::new();
    // Order graph: (holder key, acquired key) → first evidence seen.
    let mut order: BTreeMap<(String, String), Edge> = BTreeMap::new();
    let mut disp: BTreeMap<String, String> = BTreeMap::new();

    for (fi, file) in g.files.iter().enumerate() {
        if is_shim(&file.rel) {
            continue;
        }
        let on_request_path = request_files.contains(&file.rel.as_str());
        for (ni, f) in file.fns.iter().enumerate() {
            if f.lock_spans.is_empty() {
                continue;
            }
            let id = (fi, ni);
            let facts = &g.facts[fi][ni];
            for s in &f.lock_spans {
                let (key, d) = lock_names(g, id, s);
                disp.insert(key.clone(), d.clone());
                let held_at = format!("{}:{}", file.rel, s.acquire_line);
                // The guard is held on lines (acquire, end]; the acquire
                // line itself is excluded because receiver/argument code on
                // it runs before the acquisition (and two temporaries on
                // one line carry no order information either way).
                let held = |line: u32| line > s.acquire_line && line <= s.end_line;

                // Direct second acquisitions inside the span.
                for s2 in f.lock_spans.iter().filter(|s2| held(s2.acquire_line)) {
                    let (key2, d2) = lock_names(g, id, s2);
                    disp.insert(key2.clone(), d2.clone());
                    if s2.blocking {
                        order.entry((key.clone(), key2.clone())).or_insert_with(|| Edge {
                            fi,
                            line: s2.acquire_line,
                            path: g.display(id),
                            held_at: held_at.clone(),
                        });
                    }
                    if on_request_path {
                        rules::push(
                            &mut out,
                            &lexed[fi],
                            NO_BLOCKING,
                            &file.rel,
                            s2.acquire_line,
                            format!(
                                "acquiring `{d2}` while the guard on `{d}` ({held_at}) is still \
                                 held blocks the request path; narrow the first guard's scope"
                            ),
                        );
                    }
                }
                // Direct blocking operations and fault points in the span.
                if on_request_path {
                    for b in facts.blocking.iter().filter(|b| held(b.line)) {
                        rules::push(
                            &mut out,
                            &lexed[fi],
                            NO_BLOCKING,
                            &file.rel,
                            b.line,
                            format!(
                                "blocking op {} runs while the guard on `{d}` ({held_at}) is held",
                                b.what
                            ),
                        );
                    }
                }
                for (point, pline) in f.fault_sites.iter().filter(|(_, l)| held(*l)) {
                    rules::push(
                        &mut out,
                        &lexed[fi],
                        GUARD_FAULT,
                        &file.rel,
                        *pline,
                        format!(
                            "guard on `{d}` ({held_at}) is held across fault_point!({point}); \
                             an injected delay stalls every contender and an injected panic \
                             poisons the lock"
                        ),
                    );
                }
                // Interprocedural: everything reachable from in-span calls
                // executes with the guard held.
                for (callee, _) in facts.edges.iter().filter(|(_, l)| held(*l)) {
                    let parent = g.reach(&[*callee]);
                    for &rid in parent.keys() {
                        let rrel = &g.files[rid.0].rel;
                        if is_shim(rrel) {
                            continue;
                        }
                        let rf = g.fn_item(rid);
                        let rfacts = &g.facts[rid.0][rid.1];
                        let via = format!("{} → {}", g.display(id), g.path_to(&parent, rid));
                        for s2 in rf.lock_spans.iter().filter(|s2| s2.blocking) {
                            let (key2, d2) = lock_names(g, rid, s2);
                            disp.insert(key2.clone(), d2.clone());
                            order.entry((key.clone(), key2.clone())).or_insert_with(|| Edge {
                                fi: rid.0,
                                line: s2.acquire_line,
                                path: via.clone(),
                                held_at: held_at.clone(),
                            });
                            if on_request_path {
                                rules::push(
                                    &mut out,
                                    &lexed[rid.0],
                                    NO_BLOCKING,
                                    rrel,
                                    s2.acquire_line,
                                    format!(
                                        "lock `{d2}` is acquired here while the request path \
                                         holds `{d}` ({held_at}) (reachable via {via})"
                                    ),
                                );
                            }
                        }
                        if on_request_path {
                            for b in &rfacts.blocking {
                                rules::push(
                                    &mut out,
                                    &lexed[rid.0],
                                    NO_BLOCKING,
                                    rrel,
                                    b.line,
                                    format!(
                                        "blocking op {} runs while the request path holds `{d}` \
                                         ({held_at}) (reachable via {via})",
                                        b.what
                                    ),
                                );
                            }
                        }
                        for (point, pline) in &rf.fault_sites {
                            rules::push(
                                &mut out,
                                &lexed[rid.0],
                                GUARD_FAULT,
                                rrel,
                                *pline,
                                format!(
                                    "fault_point!({point}) fires while the guard on `{d}` \
                                     ({held_at}) is held (reachable via {via}); an injected \
                                     delay stalls every contender and an injected panic poisons \
                                     the lock"
                                ),
                            );
                        }
                    }
                }
            }
        }
    }

    // Cycle detection: an edge (a, b) is on a cycle iff b reaches a. Each
    // such edge gets its own finding, so both directions of an ABBA pair
    // are reported at their own acquisition sites with their own paths.
    let mut adj: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
    for (a, b) in order.keys() {
        adj.entry(a).or_default().push(b);
    }
    for ((a, b), e) in &order {
        let Some(back) = path_between(&adj, b, a) else { continue };
        let mut cycle = vec![a.as_str()];
        cycle.extend(back.iter().map(|k| k.as_str()));
        let rendered = cycle
            .iter()
            .map(|k| disp.get(*k).map(String::as_str).unwrap_or(k))
            .collect::<Vec<_>>()
            .join(" → ");
        rules::push(
            &mut out,
            &lexed[e.fi],
            LOCK_ORDER,
            &g.files[e.fi].rel,
            e.line,
            format!(
                "lock-order cycle: `{}` is acquired while `{}` is held (held since {}; \
                 acquisition path {}) — cycle: {rendered}",
                disp[b], disp[a], e.held_at, e.path
            ),
        );
    }
    out
}

/// Shortest path `from → … → to` over `adj`, both ends inclusive.
/// `from == to` is the trivial one-node path (the self-loop case: a lock
/// re-acquired while already held).
fn path_between<'m>(
    adj: &BTreeMap<&'m String, Vec<&'m String>>,
    from: &'m String,
    to: &String,
) -> Option<Vec<&'m String>> {
    if from == to {
        return Some(vec![from]);
    }
    let mut parent: BTreeMap<&String, &'m String> = BTreeMap::new();
    let mut q = VecDeque::from([from]);
    parent.insert(from, from);
    while let Some(n) = q.pop_front() {
        for &m in adj.get(n).into_iter().flatten() {
            if parent.contains_key(&m) {
                continue;
            }
            parent.insert(m, n);
            if m == to {
                let mut path = vec![m];
                let mut cur = m;
                while parent[&cur] != cur {
                    cur = parent[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            q.push_back(m);
        }
    }
    None
}
