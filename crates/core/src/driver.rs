//! `ApxCQA` (Algorithm 1): approximate consistent query answering.
//!
//! Per §5, the implementation deviates from the naive pseudocode for
//! efficiency: a single preprocessing pass builds `enc(syn_{Σ,Q}(D))` —
//! every candidate answer's encoded synopsis — and the approximation
//! scheme is then invoked once per synopsis, never touching the database
//! again. Theorem 3.1: plugging any data-efficient approximation scheme
//! for `RelativeFreq` into this loop yields one for `CQA`.

use crate::scheme::{approx_relative_frequency, Budget, Scheme};
use cqa_common::{Mt64, Result, Stopwatch};
use cqa_obs::Span;
use cqa_query::ConjunctiveQuery;
use cqa_storage::{Database, Datum};
use cqa_synopsis::{build_synopses, BuildOptions, SynopsisSet};
use std::time::Duration;

/// One approximated answer.
#[derive(Debug, Clone)]
pub struct TupleEstimate {
    /// The candidate answer `t̄`.
    pub tuple: Vec<Datum>,
    /// The approximation of `R_{D,Σ,Q}(t̄)`.
    pub frequency: f64,
    /// Samples spent on this tuple.
    pub samples: u64,
}

/// The result of `ApxCQA[scheme]`.
#[derive(Debug, Clone)]
pub struct ApxCqaResult {
    /// The approximated `ans_{D,Σ}(Q)`, ordered by tuple.
    pub answers: Vec<TupleEstimate>,
    /// Wall time of the preprocessing step (synopsis construction).
    pub preprocess_time: Duration,
    /// Wall time of the approximation phase (all tuples).
    pub scheme_time: Duration,
    /// Total samples across all tuples.
    pub total_samples: u64,
}

/// Runs `ApxCQA[scheme]` end to end: preprocessing + one
/// `ApxRelativeFreq` call per candidate answer.
pub fn apx_cqa(
    db: &Database,
    q: &ConjunctiveQuery,
    scheme: Scheme,
    eps: f64,
    delta: f64,
    budget: &Budget,
    rng: &mut Mt64,
) -> Result<ApxCqaResult> {
    let syn =
        build_synopses(db, q, BuildOptions { deadline: Some(budget.deadline), max_homs: None })?;
    apx_cqa_on_synopses(&syn, scheme, eps, delta, budget, rng)
}

/// The approximation phase alone, for callers that already hold the
/// synopsis set (the benchmark harness reuses one preprocessing pass
/// across all four schemes, as the paper does).
pub fn apx_cqa_on_synopses(
    syn: &SynopsisSet,
    scheme: Scheme,
    eps: f64,
    delta: f64,
    budget: &Budget,
    rng: &mut Mt64,
) -> Result<ApxCqaResult> {
    let sw = Stopwatch::start();
    let mut span = cqa_obs::span_args(Span::DriverApxCqa, syn.entries.len() as u64, 0);
    let mut answers = Vec::with_capacity(syn.entries.len());
    let mut total_samples = 0u64;
    for entry in &syn.entries {
        let out = approx_relative_frequency(&entry.pair, scheme, eps, delta, budget, rng)?;
        total_samples += out.samples;
        answers.push(TupleEstimate {
            tuple: entry.tuple.clone(),
            frequency: out.estimate,
            samples: out.samples,
        });
    }
    span.set_args(syn.entries.len() as u64, total_samples);
    Ok(ApxCqaResult {
        answers,
        preprocess_time: syn.build_time,
        scheme_time: sw.elapsed(),
        total_samples,
    })
}

/// Parallel `ApxCQA`: the approximation phase distributed over worker
/// threads, one candidate answer at a time.
///
/// The paper's appendix notes that "the performance of the approximation
/// schemes for CQA can greatly benefit from a parallel implementation of
/// the sampling phase without additional synchronization overhead"
/// (Appendix E). Synopses are independent, so tuple-level parallelism is
/// exactly that: each worker owns a forked MT19937-64 stream and no shared
/// mutable state. Results are deterministic for a fixed `(seed, threads)`
/// pair because streams are assigned by tuple index, not by scheduling
/// order.
pub fn apx_cqa_parallel(
    syn: &SynopsisSet,
    scheme: Scheme,
    eps: f64,
    delta: f64,
    budget: &Budget,
    seed: u64,
    threads: usize,
) -> Result<ApxCqaResult> {
    let sw = Stopwatch::start();
    let n = syn.entries.len();
    let threads = threads.clamp(1, n.max(1));
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<std::sync::Mutex<Option<Result<TupleEstimate>>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let entry = &syn.entries[i];
                // Stream keyed by tuple index: independent of scheduling.
                let mut rng = cqa_common::Mt64::from_key(&[seed, i as u64, 0x7A11]);
                let out =
                    approx_relative_frequency(&entry.pair, scheme, eps, delta, budget, &mut rng)
                        .map(|o| TupleEstimate {
                            tuple: entry.tuple.clone(),
                            frequency: o.estimate,
                            samples: o.samples,
                        });
                *results[i].lock().expect("no poisoning") = Some(out);
            });
        }
    });
    let mut answers = Vec::with_capacity(n);
    let mut total_samples = 0u64;
    for slot in results {
        let te = slot.into_inner().expect("no poisoning").expect("every slot filled")?;
        total_samples += te.samples;
        answers.push(te);
    }
    Ok(ApxCqaResult {
        answers,
        preprocess_time: syn.build_time,
        scheme_time: sw.elapsed(),
        total_samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::ALL_SCHEMES;
    use cqa_query::parse;
    use cqa_storage::ColumnType::*;
    use cqa_storage::{Schema, Value};

    fn example_db() -> Database {
        let schema = Schema::builder()
            .relation("employee", &[("id", Int), ("name", Str), ("dept", Str)], Some(1))
            .build();
        let mut db = Database::new(schema);
        for (id, name, dept) in
            [(1, "Bob", "HR"), (1, "Bob", "IT"), (2, "Alice", "IT"), (2, "Tim", "IT")]
        {
            db.insert_named("employee", &[Value::Int(id), Value::str(name), Value::str(dept)])
                .unwrap();
        }
        db
    }

    #[test]
    fn example_1_1_all_schemes_give_one_half() {
        // The relative frequency of the empty tuple is 50% (§1).
        let db = example_db();
        let q = parse(db.schema(), "Q() :- employee(1, n1, d), employee(2, n2, d)").unwrap();
        for (k, scheme) in ALL_SCHEMES.into_iter().enumerate() {
            let mut rng = Mt64::new(700 + k as u64);
            let res = apx_cqa(&db, &q, scheme, 0.1, 0.25, &Budget::unbounded(), &mut rng).unwrap();
            assert_eq!(res.answers.len(), 1);
            assert!(res.answers[0].tuple.is_empty());
            let f = res.answers[0].frequency;
            assert!((f - 0.5).abs() <= 0.08, "{scheme}: frequency {f}");
        }
    }

    #[test]
    fn non_boolean_query_estimates_each_tuple() {
        let db = example_db();
        let q = parse(db.schema(), "Q(n) :- employee(x, n, d)").unwrap();
        let mut rng = Mt64::new(71);
        let res = apx_cqa(&db, &q, Scheme::Klm, 0.1, 0.25, &Budget::unbounded(), &mut rng).unwrap();
        // Bob certain (1.0); Alice and Tim each 0.5.
        assert_eq!(res.answers.len(), 3);
        for te in &res.answers {
            let name = db.resolve(te.tuple[0]).to_string();
            let expected = if name == "'Bob'" { 1.0 } else { 0.5 };
            assert!(
                (te.frequency - expected).abs() <= 0.08,
                "{name}: {} vs {expected}",
                te.frequency
            );
        }
        assert!(res.total_samples > 0);
    }

    #[test]
    fn empty_answer_set_yields_empty_result() {
        let db = example_db();
        let q = parse(db.schema(), "Q(n) :- employee(9, n, d)").unwrap();
        let mut rng = Mt64::new(72);
        let res =
            apx_cqa(&db, &q, Scheme::Natural, 0.1, 0.25, &Budget::unbounded(), &mut rng).unwrap();
        assert!(res.answers.is_empty());
        assert_eq!(res.total_samples, 0);
    }

    #[test]
    fn timings_are_populated() {
        let db = example_db();
        let q = parse(db.schema(), "Q(n) :- employee(x, n, d)").unwrap();
        let mut rng = Mt64::new(73);
        let res = apx_cqa(&db, &q, Scheme::Kl, 0.1, 0.25, &Budget::unbounded(), &mut rng).unwrap();
        assert!(res.scheme_time.as_nanos() > 0);
        // preprocess_time comes from the synopsis builder's stopwatch.
        assert!(res.preprocess_time.as_nanos() > 0);
    }
}

#[cfg(test)]
mod parallel_tests {
    use super::*;
    use crate::scheme::ALL_SCHEMES;
    use cqa_common::Mt64;
    use cqa_query::parse;
    use cqa_storage::ColumnType::*;
    use cqa_storage::{Schema, Value};
    use cqa_synopsis::{build_synopses, BuildOptions};

    fn wide_db() -> Database {
        let schema = Schema::builder().relation("r", &[("k", Int), ("v", Int)], Some(1)).build();
        let mut db = Database::new(schema);
        let mut rng = Mt64::new(1);
        for k in 0..30 {
            for _ in 0..2 {
                db.insert_named("r", &[Value::Int(k), Value::Int(rng.below(6) as i64)]).unwrap();
            }
        }
        db
    }

    #[test]
    fn parallel_matches_sequential_answer_set() {
        let db = wide_db();
        let q = parse(db.schema(), "Q(v) :- r(k, v)").unwrap();
        let syn = build_synopses(&db, &q, BuildOptions::default()).unwrap();
        for scheme in ALL_SCHEMES {
            let par =
                apx_cqa_parallel(&syn, scheme, 0.1, 0.25, &Budget::unbounded(), 9, 4).unwrap();
            let mut rng = Mt64::new(9);
            let seq = apx_cqa_on_synopses(&syn, scheme, 0.1, 0.25, &Budget::unbounded(), &mut rng)
                .unwrap();
            assert_eq!(par.answers.len(), seq.answers.len());
            for (p, s) in par.answers.iter().zip(&seq.answers) {
                assert_eq!(p.tuple, s.tuple);
                // Different RNG streams: estimates agree within the band.
                assert!((p.frequency - s.frequency).abs() < 0.25);
            }
        }
    }

    #[test]
    fn parallel_is_deterministic_for_fixed_seed() {
        let db = wide_db();
        let q = parse(db.schema(), "Q(v) :- r(k, v)").unwrap();
        let syn = build_synopses(&db, &q, BuildOptions::default()).unwrap();
        let a = apx_cqa_parallel(&syn, Scheme::Klm, 0.1, 0.25, &Budget::unbounded(), 7, 4).unwrap();
        let b = apx_cqa_parallel(&syn, Scheme::Klm, 0.1, 0.25, &Budget::unbounded(), 7, 2).unwrap();
        for (x, y) in a.answers.iter().zip(&b.answers) {
            assert_eq!(x.frequency, y.frequency, "thread count must not change results");
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn parallel_handles_empty_synopsis_set() {
        let db = wide_db();
        let q = parse(db.schema(), "Q(v) :- r(999, v)").unwrap();
        let syn = build_synopses(&db, &q, BuildOptions::default()).unwrap();
        let res =
            apx_cqa_parallel(&syn, Scheme::Kl, 0.1, 0.25, &Budget::unbounded(), 1, 4).unwrap();
        assert!(res.answers.is_empty());
    }
}
