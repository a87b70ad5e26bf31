//! The one check that sampling and enumeration do not allocate per step.
//!
//! A counting `#[global_allocator]` wraps the system allocator with a
//! thread-local heap-operation counter, and the harness asserts that
//!
//! * each sampler's `sample()` makes zero heap operations over 2 048
//!   calls;
//! * every scheme, run end to end through `approx_relative_frequency`,
//!   makes as many heap operations at a small ε as at a large one that
//!   draws at least 4× the samples, so no estimator phase loop (stopping
//!   rule, variance pairs, final loop, Cover's trial and probe loops)
//!   allocates per sample;
//! * homomorphism enumeration makes a bounded number of heap operations
//!   however many candidate rows the join kernel visits.
//!
//! Run it under the debug profile (`cargo test`): an optimized build may
//! elide an allocation the source makes, which would hide it here.
//!
//! The counter is thread-local so the harness stays exact while the rest
//! of the test binary runs on sibling threads.

use cqa_common::Mt64;
use cqa_core::sampler::{KlSampler, KlmSampler, NaturalSampler, Sampler};
use cqa_core::scheme::{approx_relative_frequency, Budget, ALL_SCHEMES};
use cqa_query::{for_each_hom, parse, EvalOptions};
use cqa_storage::{ColumnType::Int, Database, Schema, Value};
use cqa_synopsis::AdmissiblePair;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;

/// Forwards to [`System`], counting every heap operation that can acquire
/// memory on the current thread.
struct CountingAlloc;

thread_local! {
    static HEAP_OPS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: delegates verbatim to the system allocator; the bookkeeping is a
// thread-local counter bump, which itself performs no heap operations
// (const-initialized Cell<u64>, no destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Heap operations performed by `f` on this thread.
fn heap_ops_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = HEAP_OPS.with(Cell::get);
    let value = f();
    let after = HEAP_OPS.with(Cell::get);
    (after - before, value)
}

// ---------------------------------------------------------------------------
// Sampling
// ---------------------------------------------------------------------------

const SAMPLES: usize = 2_048; // ≥ 10³ per the acceptance bar

fn overlap_pair() -> AdmissiblePair {
    AdmissiblePair::new(
        vec![vec![(0, 0)], vec![(0, 0), (1, 1)], vec![(1, 1), (2, 2)], vec![(2, 0)]],
        vec![2, 3, 4],
    )
    .unwrap()
}

/// The kernel's skip paths: blocks 0 and 2 hold one fact each, so their
/// draws and atoms are skipped, and image `[(0,0),(2,0)]` lies only on
/// them, so it is contained in every database.
fn one_fact_pair() -> AdmissiblePair {
    AdmissiblePair::new(
        vec![
            vec![(0, 0), (1, 2)],
            vec![(0, 0), (2, 0)],
            vec![(1, 1), (3, 0)],
            vec![(2, 0), (3, 1)],
        ],
        vec![1, 3, 1, 2],
    )
    .unwrap()
}

/// Drives `SAMPLES` draws after one warm-up call and asserts the loop as a
/// whole touched the heap zero times (stronger than zero *per* sample).
fn assert_sampling_is_alloc_free<S: Sampler>(mut sampler: S, seed: u64) {
    let mut rng = Mt64::new(seed);
    // Warm-up: constructor-adjacent laziness (alias tables, scratch
    // buffers) must not be billed to the steady-state loop.
    let _ = sampler.sample(&mut rng);
    let (ops, ()) = heap_ops_during(|| {
        for _ in 0..SAMPLES {
            std::hint::black_box(sampler.sample(&mut rng));
        }
    });
    assert_eq!(
        ops,
        0,
        "{}: {ops} heap op(s) over {SAMPLES} samples — the per-sample loop must not allocate",
        sampler.name()
    );
}

#[test]
fn natural_sampler_is_alloc_free_per_sample() {
    let pair = overlap_pair();
    assert_sampling_is_alloc_free(NaturalSampler::new(&pair), 101);
}

#[test]
fn kl_sampler_is_alloc_free_per_sample() {
    let pair = overlap_pair();
    assert_sampling_is_alloc_free(KlSampler::new(&pair), 102);
}

#[test]
fn klm_sampler_is_alloc_free_per_sample() {
    let pair = overlap_pair();
    assert_sampling_is_alloc_free(KlmSampler::new(&pair), 103);
}

#[test]
fn samplers_are_alloc_free_on_one_fact_blocks() {
    let pair = one_fact_pair();
    assert_sampling_is_alloc_free(NaturalSampler::new(&pair), 107);
    assert_sampling_is_alloc_free(KlSampler::new(&pair), 108);
    assert_sampling_is_alloc_free(KlmSampler::new(&pair), 109);
}

/// The estimators own their phase loops (no public per-sample hook), so
/// they are measured differentially: a run at the small ε draws at least
/// 4× the samples of one at the large ε and must cost exactly as many
/// heap operations — all allocation is one-time setup.
#[test]
fn estimator_heap_ops_do_not_scale_with_samples() {
    const EPS_LARGE: f64 = 0.5;
    const EPS_SMALL: f64 = 0.03;
    let budget = Budget::unbounded();
    for (name, pair) in [("overlap", overlap_pair()), ("one-fact", one_fact_pair())] {
        for scheme in ALL_SCHEMES {
            let run = |eps: f64, seed: u64| {
                let mut rng = Mt64::new(seed);
                heap_ops_during(|| {
                    approx_relative_frequency(&pair, scheme, eps, 0.25, &budget, &mut rng).unwrap()
                })
            };
            // Warm-up run: name interning and other first-use laziness.
            run(EPS_LARGE, 104);
            let (few_ops, few) = run(EPS_LARGE, 105);
            let (many_ops, many) = run(EPS_SMALL, 106);
            assert!(
                many.samples >= 4 * few.samples,
                "{scheme} on {name}: ε values too close to discriminate ({} vs {} samples)",
                many.samples,
                few.samples
            );
            assert_eq!(
                few_ops, many_ops,
                "{scheme} on {name}: heap ops scale with the sample count ({few_ops} at {} \
                 samples vs {many_ops} at {}) — a phase loop allocates",
                few.samples, many.samples
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Enumeration
// ---------------------------------------------------------------------------

const ROWS: i64 = 20_000;

/// `item(k, g)`: every item in group 1. `tag(k, t)`: one tag per item,
/// tag 7 on every 5000th item only.
fn database() -> Database {
    let schema = Schema::builder()
        .relation("item", &[("k", Int), ("g", Int)], Some(1))
        .relation("tag", &[("k", Int), ("t", Int)], None)
        .build();
    let mut db = Database::new(schema);
    for k in 0..ROWS {
        db.insert_named("item", &[Value::Int(k), Value::Int(1)]).unwrap();
        let t = if k % 5000 == 0 { 7 } else { k % 5 };
        db.insert_named("tag", &[Value::Int(k), Value::Int(t)]).unwrap();
    }
    db
}

/// Visits the homomorphisms, counting candidates indirectly: every item row
/// is a candidate of the first step and a probe of the second.
fn enumerate(db: &Database, text: &str) -> (u64, usize) {
    let q = parse(db.schema(), text).unwrap();
    let mut homs = 0usize;
    let run = || {
        for_each_hom(db, &q, EvalOptions::default(), |_, _| {
            homs += 1;
            ControlFlow::Continue(())
        })
        .unwrap()
    };
    let (ops, ()) = heap_ops_during(run);
    (ops, homs)
}

#[test]
fn enumeration_heap_ops_do_not_scale_with_candidates() {
    let db = database();
    // Both atoms have one constant and 20k rows, so the plan takes `item`,
    // the first, and visits all 20k rows of group 1; each probes `tag` on
    // (k, 7).
    let text = "Q(k) :- item(k, 1), tag(k, 7)";
    // Warm-up builds and caches both indexes.
    let (_, homs) = enumerate(&db, text);
    assert_eq!(homs, 4, "items 0, 5000, 10000 and 15000 carry tag 7");

    let (ops, homs) = enumerate(&db, text);
    let plan_steps = 2u64;
    // Per plan step: the key and op lists, the index-cache lookup key and
    // a small per-atom set; per run: constants, binding, facts, key buffer
    // and the step list. Nothing per candidate (20k) or per probe (20k).
    let bound = 16 * plan_steps + 16 + homs as u64;
    assert!(
        ops <= bound,
        "{ops} heap ops to enumerate {homs} homomorphisms over {ROWS} candidates; \
         expected at most {bound} (plan steps + homomorphisms)"
    );
}

#[test]
fn scan_steps_do_not_allocate_per_row() {
    let db = database();
    // No constant: the first step scans `tag`, then probes `item` by key.
    let text = "Q(k, t) :- tag(k, t), item(k, g)";
    let (_, homs) = enumerate(&db, text);
    assert_eq!(homs, ROWS as usize);
    let (ops, homs) = enumerate(&db, text);
    let bound = 16 * 2 + 16;
    assert!(
        ops <= bound,
        "{ops} heap ops to enumerate {homs} homomorphisms; the visitor keeps nothing, so \
         enumeration itself must stay within {bound}"
    );
}
