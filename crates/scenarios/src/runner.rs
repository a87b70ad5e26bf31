//! Executing the four schemes on database–query pairs.
//!
//! Mirrors the paper's measurement protocol (§7): the preprocessing step
//! (synopsis construction) runs once per pair and is timed separately —
//! its cost is identical for all schemes — and each scheme then runs with
//! its own timeout; a run that exceeds the budget is flagged as timed out
//! and accounted at the budget's value in the figure averages, matching
//! how the paper's plots saturate at the timeout with a timeout-count
//! annotation.

use crate::config::BenchConfig;
use cqa_common::{CqaError, Mt64, Result};
use cqa_core::{apx_cqa_on_synopses, Budget, Scheme, ALL_SCHEMES};
use cqa_obs::Span;
use cqa_query::ConjunctiveQuery;
use cqa_storage::Database;
use cqa_synopsis::{build_synopses, BuildOptions, SynopsisStats};

/// One scheme's run on one pair.
#[derive(Debug, Clone, Copy)]
pub struct SchemeRun {
    /// Which scheme.
    pub scheme: Scheme,
    /// Wall seconds (the timeout value when timed out).
    pub secs: f64,
    /// Whether the budget was exhausted.
    pub timed_out: bool,
    /// Total samples drawn (0 when timed out early).
    pub samples: u64,
}

/// The outcome of one pair: shared preprocessing + all four schemes.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// Synopsis statistics (output size, homomorphic size, balance, …).
    pub stats: SynopsisStats,
    /// One entry per scheme, in [`ALL_SCHEMES`] order.
    pub runs: Vec<SchemeRun>,
}

/// Runs the full protocol on one `(D, Q)` pair.
///
/// Preprocessing gets its own deadline (the same budget); if *it* times
/// out the error is surfaced — the paper's preprocessing never exceeded
/// two minutes and ours is similarly far from its budget in practice.
pub fn run_pair(
    db: &Database,
    q: &ConjunctiveQuery,
    cfg: &BenchConfig,
    seed: u64,
) -> Result<PairOutcome> {
    let mut pair_span = cqa_obs::span_args(Span::ScenarioRunPair, seed, 0);
    let syn = build_synopses(
        db,
        q,
        BuildOptions {
            deadline: Some(cqa_common::Deadline::after_secs(cfg.timeout_secs * 10.0)),
            max_homs: None,
        },
    )?;
    let stats = SynopsisStats::of(&syn);
    let mut runs = Vec::with_capacity(ALL_SCHEMES.len());
    for (k, scheme) in ALL_SCHEMES.into_iter().enumerate() {
        let mut rng = Mt64::from_key(&[seed, k as u64, 0xC0FFEE]);
        let budget = Budget::with_timeout_secs(cfg.timeout_secs);
        let mut scheme_span = cqa_obs::span_args(run_span_name(scheme), seed, 0);
        let sw = cqa_common::Stopwatch::start();
        match apx_cqa_on_synopses(&syn, scheme, cfg.eps, cfg.delta, &budget, &mut rng) {
            Ok(res) => {
                scheme_span.set_args(seed, res.total_samples);
                runs.push(SchemeRun {
                    scheme,
                    secs: sw.elapsed_secs(),
                    timed_out: false,
                    samples: res.total_samples,
                });
            }
            Err(CqaError::TimedOut { .. }) => {
                runs.push(SchemeRun { scheme, secs: cfg.timeout_secs, timed_out: true, samples: 0 })
            }
            Err(e) => return Err(e),
        }
    }
    pair_span.set_args(seed, syn.entries.len() as u64);
    Ok(PairOutcome { stats, runs })
}

/// The trace span of one scheme's full run over a pair's synopses (one
/// level above the per-tuple `scheme/*` spans).
fn run_span_name(scheme: Scheme) -> Span {
    match scheme {
        Scheme::Natural => Span::RunNatural,
        Scheme::Kl => Span::RunKl,
        Scheme::Klm => Span::RunKlm,
        Scheme::Cover => Span::RunCover,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn run_pair_reports_all_four_schemes() {
        let db = example_db();
        let q = parse(db.schema(), "Q(n) :- employee(x, n, d)").unwrap();
        let cfg = BenchConfig::smoke();
        let out = run_pair(&db, &q, &cfg, 1).unwrap();
        assert_eq!(out.runs.len(), 4);
        for run in &out.runs {
            assert!(!run.timed_out, "{} timed out on a trivial pair", run.scheme);
            assert!(run.secs >= 0.0);
            assert!(run.samples > 0);
        }
        assert_eq!(out.stats.output_size, 3);
    }

    #[test]
    fn run_pair_is_deterministic_given_a_seed() {
        let db = example_db();
        let q = parse(db.schema(), "Q(n) :- employee(x, n, d)").unwrap();
        let cfg = BenchConfig::smoke();
        let a = run_pair(&db, &q, &cfg, 99).unwrap();
        let b = run_pair(&db, &q, &cfg, 99).unwrap();
        for (x, y) in a.runs.iter().zip(&b.runs) {
            assert_eq!(x.samples, y.samples);
        }
    }

    #[test]
    fn timeouts_are_flagged_per_scheme() {
        // Six conflicting blocks of four facts each and a Boolean query
        // demanding one specific fact from each: R = 4^-6, far too small
        // for the natural scheme to finish within a millisecond budget,
        // while the symbolic schemes sail through.
        let schema = Schema::builder().relation("r", &[("k", Int), ("v", Int)], Some(1)).build();
        let mut db = Database::new(schema);
        for k in 0..6 {
            for v in 0..4 {
                db.insert_named("r", &[Value::Int(k), Value::Int(v)]).unwrap();
            }
        }
        let q = parse(db.schema(), "Q() :- r(0, 0), r(1, 0), r(2, 0), r(3, 0), r(4, 0), r(5, 0)")
            .unwrap();
        let mut cfg = BenchConfig::smoke();
        cfg.timeout_secs = 0.01;
        let out = run_pair(&db, &q, &cfg, 3).unwrap();
        let natural = &out.runs[0];
        assert_eq!(natural.scheme, cqa_core::Scheme::Natural);
        assert!(natural.timed_out, "natural must exhaust a 10ms budget at R=4^-6");
        assert_eq!(natural.secs, cfg.timeout_secs);
        let kl = &out.runs[1];
        assert!(!kl.timed_out, "KL finishes: its expectation is 1 here");
    }
}
