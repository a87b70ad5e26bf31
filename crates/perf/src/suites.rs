//! The benchmark suite registry: what `cqa-perf run` measures.
//!
//! Four suite families mirror the paper's axes and the repo's serving
//! stack:
//!
//! 1. **samplers** — per-sample cost of the three repair samplers on the
//!    synthetic chain pair (the §4.2 micro-benchmark);
//! 2. **schemes** — full (ε, δ)-answering latency of all four schemes on
//!    the Boolean-like regime of §7.2;
//! 3. **synopsis** — preprocessing (Figure 3's metric): synopsis
//!    construction over noisy TPC-H at 1 and 3 joins, plus the end-to-end
//!    `fig3` pipeline on a pinned scenario pool;
//! 4. **server** — throughput and p50/p95 latency of `cqa-server` under
//!    the closed-loop load generator. The gated values are the
//!    client-side percentiles (exact floats); a ci round is 200 requests,
//!    so ten of them lie beyond p95, while p99 and p999 would be a round's
//!    second-largest and largest request. The server's own `cqa-obs`
//!    histogram quantiles ride along in the load report but are
//!    log₂-bucketed, too coarse to gate on. The always-on flight
//!    recorder (per-request digest and span capture) and the fault-*off*
//!    cost of the `fault_point!` probes are inside these series: chaos is
//!    never armed in these suites, so a probe that stopped being free
//!    would regress them. The chaos harness's reliability floor is a test
//!    (`tests/chaos.rs`), not a series;
//! 5. **ablations** — the design choices DESIGN.md calls out, each arm
//!    its own series: alias vs linear weighted draw, DKLR vs Hoeffding
//!    iteration planning, sequential vs two-thread `apx_cqa_parallel`;
//! 6. **optest** — the DKLR stopping rule and full iteration plan on
//!    single-image pairs of ratio 4⁻¹, 4⁻², 4⁻³: the 1/µ cost growth
//!    behind every trend in Figures 1–2.
//!
//! Everything runs at a pinned seed/scale from [`Profile::ci`]. One run's
//! numbers are not repeatable to better than tens of percent; the gate in
//! [`mod@crate::diff`] copes by pairing the base and the head per suite
//! over many rounds, not by pretending the numbers are exact.

use crate::names::SeriesName;
use crate::schema::{bench_series, Series};
use crate::stats::{measure_batched, MeasureOpts, Summary};
use cqa_common::{AliasTable, Mt64, Result};
use cqa_core::{
    approx_relative_frequency, apx_cqa_on_synopses, apx_cqa_parallel, monte_carlo, plan_iterations,
    stopping_rule, Budget, KlSampler, KlmSampler, NaturalSampler, Sampler, Scheme,
};
use cqa_noise::{add_query_aware_noise, NoiseSpec};
use cqa_qgen::{sqg, SqgSpec};
use cqa_query::answers;
use cqa_scenarios::{figures, BenchConfig, Pool};
use cqa_server::{run_load, LoadReport, LoadSpec, Server, ServerConfig};
use cqa_storage::{ColumnType, Database, Schema, Value};
use cqa_synopsis::{build_synopses, AdmissiblePair, BuildOptions};
use cqa_tpch::{generate, TpchConfig};
use std::time::Duration;

/// The run configuration: pinned seed/scale plus measurement shapes.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Profile name recorded in the fingerprint: always "ci", so every
    /// recording names the same configuration.
    pub name: &'static str,
    /// TPC-H scale factor for data-backed suites.
    pub scale: f64,
    /// Root seed; every suite derives from it deterministically.
    pub seed: u64,
    /// Measurement shape for micro/mid-cost loops.
    pub opts: MeasureOpts,
    /// Measurement shape for expensive end-to-end loops (fewer repeats).
    pub heavy: MeasureOpts,
    /// ε for scheme and server suites.
    pub eps: f64,
    /// δ for scheme and server suites.
    pub delta: f64,
    /// Load-generator clients for the server suite.
    pub clients: usize,
    /// Requests per client per server round.
    pub requests: usize,
    /// Independent server rounds (each a fresh server; one sample each).
    pub server_rounds: u32,
}

impl Profile {
    /// The CI profile: pinned small scale, < 2 minutes end to end.
    pub fn ci() -> Profile {
        Profile {
            name: "ci",
            scale: 0.0005,
            seed: 20210620,
            // ~1.5 s of samples per series. The span matters as much as the
            // count: shared hardware sits in throttled or boosted states for
            // whole fractions of a second, and a run must straddle them for
            // its best-case sample to be comparable across runs.
            opts: MeasureOpts {
                warmup: 3,
                repeats: 150,
                budget: Duration::from_secs(2),
                min_repeats: 7,
            },
            heavy: MeasureOpts {
                warmup: 1,
                repeats: 150,
                budget: Duration::from_secs(3),
                min_repeats: 3,
            },
            eps: 0.2,
            delta: 0.25,
            clients: 4,
            requests: 50,
            server_rounds: 5,
        }
    }
}

/// Seconds → nanoseconds, for `_ns` series.
fn to_ns(samples: &[f64]) -> Vec<f64> {
    samples.iter().map(|s| s * 1e9).collect()
}

/// The §4.2 chain pair: `n` images over `n + span` blocks of size 4.
fn chain_pair(n: usize, span: usize) -> Result<AdmissiblePair> {
    let nblocks = n + span;
    let sizes = vec![4u32; nblocks];
    let images: Vec<Vec<(u32, u32)>> = (0..n)
        .map(|i| (0..span).map(|k| ((i + k) as u32, ((i + k) % 4) as u32)).collect())
        .collect();
    AdmissiblePair::new(images, sizes)
}

/// The §7.2 Boolean-like pair: many single-atom images, ratio close to 1.
fn boolean_like() -> Result<AdmissiblePair> {
    let sizes = vec![4u32; 16];
    let mut images = Vec::new();
    for b in 0..16u32 {
        for t in 0..3u32 {
            images.push(vec![(b, t)]);
        }
    }
    AdmissiblePair::new(images, sizes)
}

/// Suite 1: per-sample cost of the three samplers.
pub fn suite_samplers(profile: &Profile) -> Result<Vec<Series>> {
    let pair = chain_pair(64, 3)?;
    let mut out = Vec::new();

    let mut natural = NaturalSampler::new(&pair);
    let mut rng = Mt64::new(profile.seed);
    let samples = measure_batched(&profile.opts, || {
        natural.sample(&mut rng);
    });
    out.push(bench_series(
        SeriesName::SamplerNaturalSampleNs,
        &Summary::from_samples(&to_ns(&samples)),
    ));

    let mut kl = KlSampler::new(&pair);
    let mut rng = Mt64::new(profile.seed ^ 1);
    let samples = measure_batched(&profile.opts, || {
        kl.sample(&mut rng);
    });
    out.push(bench_series(SeriesName::SamplerKlSampleNs, &Summary::from_samples(&to_ns(&samples))));

    let mut klm = KlmSampler::new(&pair);
    let mut rng = Mt64::new(profile.seed ^ 2);
    let samples = measure_batched(&profile.opts, || {
        klm.sample(&mut rng);
    });
    out.push(bench_series(
        SeriesName::SamplerKlmSampleNs,
        &Summary::from_samples(&to_ns(&samples)),
    ));
    Ok(out)
}

/// Suite 2: full (ε, δ)-answering latency per scheme.
pub fn suite_schemes(profile: &Profile) -> Result<Vec<Series>> {
    let pair = boolean_like()?;
    let mut out = Vec::new();
    for (scheme, name) in [
        (Scheme::Natural, SeriesName::SchemeNaturalAnswerNs),
        (Scheme::Kl, SeriesName::SchemeKlAnswerNs),
        (Scheme::Klm, SeriesName::SchemeKlmAnswerNs),
        (Scheme::Cover, SeriesName::SchemeCoverAnswerNs),
    ] {
        let samples = measure_batched(&profile.opts, || {
            let mut rng = Mt64::new(profile.seed);
            approx_relative_frequency(
                &pair,
                scheme,
                profile.eps,
                profile.delta,
                &Budget::unbounded(),
                &mut rng,
            )
            .expect("unbounded budget cannot time out");
        });
        out.push(bench_series(name, &Summary::from_samples(&to_ns(&samples))));
    }
    Ok(out)
}

/// Draws a non-trivial SQG query with exactly `joins` joins, as the pool
/// builder does, then returns the noisy instance and the query.
fn noisy_workload(
    base: &Database,
    joins: usize,
    rng: &mut Mt64,
) -> Result<(Database, cqa_query::ConjunctiveQuery)> {
    let q = loop {
        let Ok(q) = sqg(base, SqgSpec { joins, constants: 2, proj_fraction: 1.0 }, rng) else {
            continue;
        };
        if q.join_count() == joins && !answers(base, &q).unwrap_or_default().is_empty() {
            break q;
        }
    };
    let (noisy, _) = add_query_aware_noise(base, &q, NoiseSpec::with_p(0.5), rng)?;
    Ok((noisy, q))
}

/// Suite 3a: synopsis construction over noisy TPC-H at 1 and 3 joins.
pub fn suite_synopsis(profile: &Profile) -> Result<Vec<Series>> {
    let base = generate(TpchConfig { scale: profile.scale, seed: profile.seed });
    let mut rng = Mt64::new(profile.seed ^ 0x51);
    let mut out = Vec::new();
    for (joins, name) in
        [(1usize, SeriesName::SynopsisBuildJ1Ns), (3, SeriesName::SynopsisBuildJ3Ns)]
    {
        let (noisy, q) = noisy_workload(&base, joins, &mut rng)?;
        let samples = measure_batched(&profile.opts, || {
            build_synopses(&noisy, &q, BuildOptions::default()).expect("synopses build");
        });
        out.push(bench_series(name, &Summary::from_samples(&to_ns(&samples))));
    }
    Ok(out)
}

/// Suite 3b: the end-to-end Figure 3 pipeline on a pinned scenario pool.
pub fn suite_figure(profile: &Profile) -> Result<Vec<Series>> {
    let cfg = BenchConfig { scale: profile.scale, seed: profile.seed, ..BenchConfig::smoke() };
    let pool = Pool::build(cfg)?;
    let samples = measure_batched(&profile.heavy, || {
        let (_fig, _summary) = figures::fig3_preprocessing(&pool);
    });
    Ok(vec![bench_series(
        SeriesName::FigureFig3PreprocessingNs,
        &Summary::from_samples(&to_ns(&samples)),
    )])
}

/// Suite 4: server throughput + tail latency through the load generator.
/// Each round binds a **fresh** in-process server (so its histogram and
/// cache start cold), warms the cache with the load generator's warmup
/// query, and contributes one sample per series. Latency percentiles are
/// the exact client-side measurements; the server-side `cqa-obs`
/// histogram still travels in every load report (and is how `bench-serve`
/// prints them) but its log₂ buckets can only move in 2× jumps.
pub fn suite_server(profile: &Profile) -> Result<Vec<Series>> {
    let db = generate(TpchConfig { scale: profile.scale, seed: profile.seed });
    let reports = load_rounds(profile, &db)?;
    let series = |name, value: fn(&LoadReport) -> f64| {
        let values: Vec<f64> = reports.iter().map(value).collect();
        bench_series(name, &Summary::from_samples(&values))
    };
    Ok(vec![
        series(SeriesName::ServerThroughputRps, LoadReport::throughput_rps),
        series(SeriesName::ServerLatencyP50Ms, |r| r.client_latency_ms(50.0)),
        series(SeriesName::ServerLatencyP95Ms, |r| r.client_latency_ms(95.0)),
    ])
}

/// One load report per round, each against a fresh server. Round `r` runs
/// seed `profile.seed ^ r`.
fn load_rounds(profile: &Profile, db: &Database) -> Result<Vec<LoadReport>> {
    let mut reports = Vec::new();
    for round in 0..profile.server_rounds {
        let server = Server::bind(
            db.clone(),
            ServerConfig { addr: "127.0.0.1:0".into(), workers: 2, ..ServerConfig::default() },
        )
        .map_err(|e| cqa_common::CqaError::InvalidParameter(format!("bind: {e}")))?;
        let mut handle = server
            .spawn()
            .map_err(|e| cqa_common::CqaError::InvalidParameter(format!("spawn: {e}")))?;
        let report = run_load(&LoadSpec {
            addr: handle.addr().to_string(),
            query: "Q(rn) :- region(rk, rn)".to_owned(),
            scheme: Scheme::Klm,
            eps: profile.eps,
            delta: profile.delta,
            clients: profile.clients,
            requests: profile.requests,
            seed: profile.seed ^ u64::from(round),
            timeout_ms: None,
            permute: false,
        });
        handle.shutdown();
        reports.push(report?);
    }
    Ok(reports)
}

/// Linear-scan weighted choice over a cumulative table: the textbook
/// alternative to the alias table the symbolic samplers draw with.
fn linear_choice(cumulative: &[f64], rng: &mut Mt64) -> usize {
    let x = rng.next_f64();
    cumulative.iter().position(|&c| x < c).unwrap_or(cumulative.len() - 1)
}

/// Monte Carlo with a Hoeffding-style plan: a rough mean from the
/// stopping rule, then `N = ⌈ln(2/δ) / (2(εµ̂)²)⌉` samples. It ignores the
/// variance, so it overshoots whenever the sampler's variance is far below
/// µ̂² — the gap DKLR's variance step closes.
fn hoeffding_monte_carlo<S: Sampler>(s: &mut S, eps: f64, delta: f64, rng: &mut Mt64) -> f64 {
    let mut count = 0;
    let rough = stopping_rule(s, 0.5, delta / 2.0, &Budget::unbounded(), rng, &mut count)
        .expect("unbounded budget cannot time out");
    let n = ((2.0f64 / delta).ln() / (2.0 * (eps * rough.mu).powi(2))).ceil() as u64;
    (0..n).map(|_| s.sample(rng)).sum::<f64>() / n as f64
}

/// Suite 5: the ablations. Each pair of series prices one design choice
/// against its textbook alternative on the same input.
pub fn suite_ablations(profile: &Profile) -> Result<Vec<Series>> {
    let mut out = Vec::new();

    // Weighted choice over 4096 harmonic weights.
    let weights: Vec<f64> = (1..=4096).map(|i| 1.0 / i as f64).collect();
    let alias = AliasTable::new(&weights);
    let mut rng = Mt64::new(profile.seed);
    let samples = measure_batched(&profile.opts, || {
        std::hint::black_box(alias.sample(&mut rng));
    });
    out.push(bench_series(
        SeriesName::AblationAliasDrawNs,
        &Summary::from_samples(&to_ns(&samples)),
    ));
    let total: f64 = weights.iter().sum();
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w / total;
            Some(*acc)
        })
        .collect();
    let mut rng = Mt64::new(profile.seed);
    let samples = measure_batched(&profile.opts, || {
        std::hint::black_box(linear_choice(&cumulative, &mut rng));
    });
    out.push(bench_series(
        SeriesName::AblationLinearDrawNs,
        &Summary::from_samples(&to_ns(&samples)),
    ));

    // Iteration planning on a moderate-frequency pair.
    let pair =
        AdmissiblePair::new(vec![vec![(0, 0)], vec![(0, 1)], vec![(1, 0), (2, 0)]], vec![3, 2, 2])?;
    let samples = measure_batched(&profile.opts, || {
        let mut s = NaturalSampler::new(&pair);
        let mut rng = Mt64::new(profile.seed);
        monte_carlo(&mut s, 0.1, 0.25, &Budget::unbounded(), &mut rng)
            .expect("unbounded budget cannot time out");
    });
    out.push(bench_series(
        SeriesName::AblationDklrPlanNs,
        &Summary::from_samples(&to_ns(&samples)),
    ));
    let samples = measure_batched(&profile.opts, || {
        let mut s = NaturalSampler::new(&pair);
        let mut rng = Mt64::new(profile.seed);
        std::hint::black_box(hoeffding_monte_carlo(&mut s, 0.1, 0.25, &mut rng));
    });
    out.push(bench_series(
        SeriesName::AblationHoeffdingPlanNs,
        &Summary::from_samples(&to_ns(&samples)),
    ));

    // Sequential vs two-thread ApxCQA (Appendix E) over 200 blocks of 3.
    let schema = Schema::builder()
        .relation("r", &[("k", ColumnType::Int), ("v", ColumnType::Int)], Some(1))
        .build();
    let mut db = Database::new(schema);
    let mut rng = Mt64::new(profile.seed);
    for k in 0..200 {
        for _ in 0..3 {
            db.insert_named("r", &[Value::Int(k), Value::Int(rng.below(8) as i64)])?;
        }
    }
    let q = cqa_query::parse(db.schema(), "Q(k, v) :- r(k, v)")?;
    let syn = build_synopses(&db, &q, BuildOptions::default())?;
    let samples = measure_batched(&profile.heavy, || {
        let mut rng = Mt64::new(profile.seed);
        apx_cqa_on_synopses(&syn, Scheme::Klm, 0.1, 0.25, &Budget::unbounded(), &mut rng)
            .expect("unbounded budget cannot time out");
    });
    out.push(bench_series(
        SeriesName::AblationKlmSequentialNs,
        &Summary::from_samples(&to_ns(&samples)),
    ));
    let samples = measure_batched(&profile.heavy, || {
        apx_cqa_parallel(&syn, Scheme::Klm, 0.1, 0.25, &Budget::unbounded(), profile.seed, 2)
            .expect("unbounded budget cannot time out");
    });
    out.push(bench_series(
        SeriesName::AblationKlmParallel2Ns,
        &Summary::from_samples(&to_ns(&samples)),
    ));
    Ok(out)
}

/// Suite 6: DKLR cost against the mean. A single-image pair over `depth`
/// blocks of size 4 has ratio `4^-depth`; the stopping rule and the full
/// plan should each cost about 4× more per extra block.
pub fn suite_optest(profile: &Profile) -> Result<Vec<Series>> {
    const NAMES: [[SeriesName; 2]; 3] = [
        [SeriesName::OptestStoppingRuleR1Ns, SeriesName::OptestPlanR1Ns],
        [SeriesName::OptestStoppingRuleR2Ns, SeriesName::OptestPlanR2Ns],
        [SeriesName::OptestStoppingRuleR3Ns, SeriesName::OptestPlanR3Ns],
    ];
    let mut out = Vec::new();
    for (depth, [rule_name, plan_name]) in (1usize..).zip(NAMES) {
        let image: Vec<(u32, u32)> = (0..depth as u32).map(|b| (b, 0)).collect();
        let pair = AdmissiblePair::new(vec![image], vec![4; depth])?;
        let samples = measure_batched(&profile.opts, || {
            let mut s = NaturalSampler::new(&pair);
            let mut rng = Mt64::new(profile.seed);
            stopping_rule(&mut s, 0.2, 0.25, &Budget::unbounded(), &mut rng, &mut 0)
                .expect("unbounded budget cannot time out");
        });
        out.push(bench_series(rule_name, &Summary::from_samples(&to_ns(&samples))));
        let samples = measure_batched(&profile.opts, || {
            let mut s = NaturalSampler::new(&pair);
            let mut rng = Mt64::new(profile.seed);
            plan_iterations(&mut s, 0.2, 0.25, &Budget::unbounded(), &mut rng, &mut 0)
                .expect("unbounded budget cannot time out");
        });
        out.push(bench_series(plan_name, &Summary::from_samples(&to_ns(&samples))));
    }
    Ok(out)
}

/// A registered suite: a name and the function producing its series.
pub type Suite = (&'static str, fn(&Profile) -> Result<Vec<Series>>);

/// The suite registry, in run order: `cqa-perf run` runs all of it, and
/// `--only <name>` one entry.
pub const SUITES: [Suite; 7] = [
    ("samplers", suite_samplers),
    ("schemes", suite_schemes),
    ("synopsis", suite_synopsis),
    ("figure", suite_figure),
    ("server", suite_server),
    ("ablations", suite_ablations),
    ("optest", suite_optest),
];

/// The registered suite called `name`.
pub fn suite_by_name(name: &str) -> Option<Suite> {
    SUITES.into_iter().find(|&(n, _)| n == name)
}

/// Runs `suites` in order, with progress lines on stderr.
pub fn run_suites(profile: &Profile, suites: &[Suite]) -> Result<Vec<Series>> {
    let mut out = Vec::new();
    for &(name, suite) in suites {
        eprintln!("[cqa-perf] suite {name} ...");
        let series = suite(profile)?;
        for s in &series {
            eprintln!(
                "[cqa-perf]   {} = {:.3} {} (± {:.3}, n={})",
                s.name, s.value, s.unit, s.spread, s.repeats
            );
        }
        out.extend(series);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suites_resolve_by_name() {
        assert_eq!(suite_by_name("synopsis").map(|(n, _)| n), Some("synopsis"));
        assert!(suite_by_name("nope").is_none());
        let mut names: Vec<&str> = SUITES.iter().map(|&(n, _)| n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SUITES.len(), "suite names must be unique");
    }

    #[test]
    fn sampler_suite_records_registered_series() {
        // The fastest suite doubles as an integration test: every series
        // it emits is positive and ns-scaled.
        let mut profile = Profile::ci();
        profile.opts =
            MeasureOpts { warmup: 1, repeats: 3, budget: Duration::from_secs(5), min_repeats: 3 };
        let series = suite_samplers(&profile).unwrap();
        assert_eq!(series.len(), 3);
        for s in &series {
            assert!(s.value > 0.0, "{} = {}", s.name, s.value);
            assert!(s.repeats >= 1);
        }
    }
}
