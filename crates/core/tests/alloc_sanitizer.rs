//! Runtime cross-check of cqa-lint's `no-alloc-in-hot-path` rule.
//!
//! The static rule proves "no allocation is *reachable* from the marked
//! sampling regions" on a conservative call graph; this harness proves the
//! dynamic counterpart: a counting `#[global_allocator]` wraps the system
//! allocator, and every scheme's per-sample work must register **zero**
//! heap operations. The two checks fail together when someone puts a
//! `Vec::push` back into a sampler loop — the lint at `cargo run -p
//! cqa-lint -- check`, this test at `cargo test`.
//!
//! The counter is thread-local so the harness stays exact while the rest
//! of the test binary runs on sibling threads.

use cqa_common::Mt64;
use cqa_core::coverage::self_adjusting_coverage;
use cqa_core::sampler::{KlSampler, KlmSampler, NaturalSampler, Sampler};
use cqa_core::scheme::Budget;
use cqa_synopsis::AdmissiblePair;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

#[test]
fn coverage_allocations_do_not_scale_with_steps() {
    assert_coverage_is_alloc_free(&overlap_pair());
}

#[test]
fn coverage_is_alloc_free_on_one_fact_blocks() {
    assert_coverage_is_alloc_free(&one_fact_pair());
}

/// The coverage scheme owns its loop (no public per-sample hook), so it is
/// measured differentially: a run with a ~4× larger step budget must cost
/// exactly as many heap operations as a small run — i.e. the inner loop
/// contributes zero and all allocation is one-time setup.
fn assert_coverage_is_alloc_free(pair: &AdmissiblePair) {
    let budget = Budget::unbounded();
    // Warm-up run: name interning and other first-use laziness.
    let mut rng = Mt64::new(104);
    self_adjusting_coverage(pair, 0.2, 0.25, &budget, &mut rng).unwrap();

    let mut rng_small = Mt64::new(105);
    let (small_ops, small) = heap_ops_during(|| {
        self_adjusting_coverage(pair, 0.2, 0.25, &budget, &mut rng_small).unwrap()
    });
    let mut rng_big = Mt64::new(106);
    let (big_ops, big) = heap_ops_during(|| {
        self_adjusting_coverage(pair, 0.08, 0.25, &budget, &mut rng_big).unwrap()
    });
    assert!(
        big.steps >= 4 * small.steps,
        "budgets too close to discriminate: {} vs {} steps",
        big.steps,
        small.steps
    );
    assert_eq!(
        small_ops, big_ops,
        "coverage heap ops scale with the step count ({small_ops} at {} steps vs {big_ops} at {} \
         steps) — the sampling loop allocates",
        small.steps, big.steps
    );
}
