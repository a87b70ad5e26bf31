//! One pipeline per paper figure.
//!
//! Each function turns a [`Pool`] (or, for validation, freshly generated
//! workloads) into [`Figure`]s whose series are the four schemes — the
//! same plots the paper shows, re-measured on this implementation.

use crate::config::BenchConfig;
use crate::pool::Pool;
use crate::report::{Figure, Point, Series};
use crate::runner::{run_jobs, run_pair, PairOutcome};
use cqa_common::{percentile, Mt64, Result, RunningStats};
use cqa_core::ALL_SCHEMES;
use cqa_noise::{add_query_aware_noise, NoiseSpec};
use cqa_obs::Span;
use cqa_query::ConjunctiveQuery;
use cqa_storage::Database;
use cqa_synopsis::{build_synopses, BuildOptions};

/// A named database plus its named validation queries.
type Workload = (String, Database, Vec<(String, ConjunctiveQuery)>);

/// Aggregated per-scheme timing at one x value.
struct Cell {
    avg_secs: [f64; 4],
    timeouts: [usize; 4],
    total: usize,
}

/// Runs every `(db, query, seed)` job and aggregates per scheme.
/// A pair whose preprocessing fails (deadline) counts as a timeout for
/// every scheme.
fn run_cell(jobs: Vec<(&Database, &ConjunctiveQuery, u64)>, cfg: &BenchConfig) -> Cell {
    let total = jobs.len();
    let outcomes: Vec<Result<PairOutcome>> =
        run_jobs(jobs, cfg.threads, |(db, q, seed)| run_pair(db, q, cfg, seed));
    let mut avg = [0.0f64; 4];
    let mut touts = [0usize; 4];
    for oc in &outcomes {
        match oc {
            Ok(out) => {
                for (k, run) in out.runs.iter().enumerate() {
                    avg[k] += run.secs;
                    if run.timed_out {
                        touts[k] += 1;
                    }
                }
            }
            Err(_) => {
                for k in 0..4 {
                    avg[k] += cfg.timeout_secs;
                    touts[k] += 1;
                }
            }
        }
    }
    if total > 0 {
        for a in &mut avg {
            *a /= total as f64;
        }
    }
    Cell { avg_secs: avg, timeouts: touts, total }
}

fn scheme_series(points: Vec<(f64, Cell)>) -> Vec<Series> {
    ALL_SCHEMES
        .iter()
        .enumerate()
        .map(|(k, scheme)| Series {
            label: scheme.name().to_owned(),
            points: points
                .iter()
                .map(|(x, c)| Point {
                    x: *x,
                    y: c.avg_secs[k],
                    timeouts: c.timeouts[k],
                    total: c.total,
                })
                .collect(),
        })
        .collect()
}

fn balance_index(cfg: &BenchConfig, q: f64) -> usize {
    cfg.balance_levels
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| (*a - q).abs().partial_cmp(&(*b - q).abs()).expect("finite"))
        .map(|(i, _)| i)
        .expect("non-empty balance grid")
}

/// Figure 1 (and appendix Figures 6–7): the noise scenarios
/// `Noise[q, j]` — execution time vs noise level, one figure per selected
/// `(balance, joins)` combination.
pub fn fig1_noise(pool: &Pool, selections: &[(f64, usize)]) -> Vec<Figure> {
    let cfg = &pool.config;
    let mut figures = Vec::new();
    for &(q_target, j) in selections {
        let bi = balance_index(cfg, q_target);
        let qs = pool.queries_at_join(j);
        let mut points = Vec::new();
        for (pi, &p) in cfg.noise_levels.iter().enumerate() {
            let jobs: Vec<_> = qs
                .iter()
                .map(|&qi| {
                    let (db, query) = pool.pair(qi, pi, bi);
                    (db, query, pool.pair_seed(qi, pi, bi))
                })
                .collect();
            let mut cell_span =
                cqa_obs::span_args(Span::ScenarioCellNoise, (p * 100.0).round() as u64, j as u64);
            let cell = run_cell(jobs, cfg);
            cell_span.set_args((p * 100.0).round() as u64, cell.total as u64);
            drop(cell_span);
            points.push((p * 100.0, cell));
        }
        figures.push(Figure {
            id: format!("noise_q{:02}_j{j}", (q_target * 10.0).round() as u32),
            title: format!("Noise[{q_target}, {j}]"),
            xlabel: "Noise (%)".into(),
            ylabel: "Execution time (s)".into(),
            series: scheme_series(points),
        });
    }
    figures
}

/// Figure 2 (and appendix Figures 8–9): the balance scenarios
/// `Balance[p, j]` — execution time vs balance level.
pub fn fig2_balance(pool: &Pool, selections: &[(f64, usize)]) -> Vec<Figure> {
    let cfg = &pool.config;
    let mut figures = Vec::new();
    for &(p_target, j) in selections {
        let pi = cfg
            .noise_levels
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (*a - p_target).abs().partial_cmp(&(*b - p_target).abs()).expect("finite")
            })
            .map(|(i, _)| i)
            .expect("non-empty noise grid");
        let qs = pool.queries_at_join(j);
        let mut points = Vec::new();
        for (bi, &b) in cfg.balance_levels.iter().enumerate() {
            let jobs: Vec<_> = qs
                .iter()
                .map(|&qi| {
                    let (db, query) = pool.pair(qi, pi, bi);
                    (db, query, pool.pair_seed(qi, pi, bi))
                })
                .collect();
            let mut cell_span =
                cqa_obs::span_args(Span::ScenarioCellBalance, (b * 100.0).round() as u64, j as u64);
            let cell = run_cell(jobs, cfg);
            cell_span.set_args((b * 100.0).round() as u64, cell.total as u64);
            drop(cell_span);
            points.push((b * 100.0, cell));
        }
        figures.push(Figure {
            id: format!("balance_p{:02}_j{j}", (p_target * 10.0).round() as u32),
            title: format!("Balance[{p_target}, {j}]"),
            xlabel: "Balance (%)".into(),
            ylabel: "Execution time (s)".into(),
            series: scheme_series(points),
        });
    }
    figures
}

/// Figure 3: the distribution of the preprocessing step's running time
/// over every pair of `P_H`, plus the paper's CDF claims ("for 80% of the
/// pairs … under 30 seconds").
pub fn fig3_preprocessing(pool: &Pool) -> (Figure, String) {
    let cfg = &pool.config;
    let mut jobs = Vec::new();
    for qi in 0..pool.queries.len() {
        for pi in 0..cfg.noise_levels.len() {
            for bi in 0..cfg.balance_levels.len() {
                jobs.push((qi, pi, bi));
            }
        }
    }
    let times: Vec<f64> = run_jobs(jobs, cfg.threads, |(qi, pi, bi)| {
        let (db, q) = pool.pair(qi, pi, bi);
        match build_synopses(db, q, BuildOptions::default()) {
            Ok(syn) => syn.build_time.as_secs_f64(),
            Err(_) => f64::NAN,
        }
    })
    .into_iter()
    .filter(|t| t.is_finite())
    .collect();

    let mut sorted = times.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let max = sorted.last().copied().unwrap_or(0.0);
    // Normalized histogram over ~20 buckets, like the paper's Figure 3.
    let buckets = 20usize;
    let width = (max / buckets as f64).max(1e-6);
    let mut counts = vec![0usize; buckets];
    for &t in &times {
        let b = ((t / width) as usize).min(buckets - 1);
        counts[b] += 1;
    }
    let points: Vec<Point> = counts
        .iter()
        .enumerate()
        .map(|(i, &c)| Point {
            x: (i as f64 + 1.0) * width,
            y: c as f64 / times.len().max(1) as f64,
            timeouts: 0,
            total: times.len(),
        })
        .collect();
    let summary = format!(
        "preprocessing over {} pairs: median {:.3}s, p80 {:.3}s, p94 {:.3}s, max {:.3}s",
        times.len(),
        percentile(&sorted, 50.0),
        percentile(&sorted, 80.0),
        percentile(&sorted, 94.0),
        max
    );
    (
        Figure {
            id: "preprocessing_distribution".into(),
            title: "Distribution of preprocessing running time over P_H".into(),
            xlabel: "Running time (s)".into(),
            ylabel: "Fraction of pairs".into(),
            series: vec![Series { label: "fraction".into(), points }],
        },
        summary,
    )
}

/// Figure 4 (and appendix Figures 10–13): the join scenarios
/// `Joins[p, q]` — *share of running time* (%) per scheme vs join count.
pub fn fig4_joins(pool: &Pool, selections: &[(f64, f64)]) -> Vec<Figure> {
    let cfg = &pool.config;
    let mut figures = Vec::new();
    for &(p_target, q_target) in selections {
        let pi = cfg.noise_levels.iter().position(|&p| (p - p_target).abs() < 1e-9).unwrap_or(0);
        let bi = balance_index(cfg, q_target);
        let mut points = Vec::new();
        for &j in &cfg.joins {
            let qs = pool.queries_at_join(j);
            let jobs: Vec<_> = qs
                .iter()
                .map(|&qi| {
                    let (db, query) = pool.pair(qi, pi, bi);
                    (db, query, pool.pair_seed(qi, pi, bi))
                })
                .collect();
            let mut cell = run_cell(jobs, cfg);
            // Convert averages to shares of the per-join total.
            let sum: f64 = cell.avg_secs.iter().sum();
            if sum > 0.0 {
                for a in &mut cell.avg_secs {
                    *a = *a / sum * 100.0;
                }
            }
            points.push((j as f64, cell));
        }
        figures.push(Figure {
            id: format!(
                "joins_p{:02}_q{:02}",
                (p_target * 10.0).round() as u32,
                (q_target * 10.0).round() as u32
            ),
            title: format!("Joins[{p_target}, {q_target}]"),
            xlabel: "Joins".into(),
            ylabel: "Share of running time (%)".into(),
            series: scheme_series(points),
        });
    }
    figures
}

/// Figure 5 (and appendix Figures 14–15): the validation scenarios on the
/// TPC-H and TPC-DS workload queries — execution time vs noise, with the
/// measured balance (avg/std over the noise levels) in the title.
///
/// Queries that are empty at the configured scale are skipped and listed
/// in the returned notes.
pub fn fig5_validation(cfg: &BenchConfig) -> Result<(Vec<Figure>, Vec<String>)> {
    let mut rng = Mt64::new(cfg.seed ^ 0xFACE);
    let noise_levels: Vec<f64> = if cfg.noise_levels.len() >= 8 {
        (1..=8).map(|i| i as f64 / 10.0).collect()
    } else {
        cfg.noise_levels.iter().copied().filter(|&p| p <= 0.8).collect()
    };

    let mut workloads: Vec<Workload> = Vec::new();
    {
        let db =
            cqa_tpch::generate(cqa_tpch::TpchConfig { scale: cfg.scale, seed: rng.next_u64() });
        let qs = cqa_tpch::validation_queries(db.schema())?;
        workloads.push(("tpch".into(), db, qs));
    }
    {
        let db =
            cqa_tpcds::generate(cqa_tpcds::TpcdsConfig { scale: cfg.scale, seed: rng.next_u64() });
        let qs = cqa_tpcds::validation_queries(db.schema())?;
        workloads.push(("tpcds".into(), db, qs));
    }

    let mut figures = Vec::new();
    let mut notes = Vec::new();
    for (bench, base, queries) in &workloads {
        // Prepare all (query, noise level) jobs of this workload, then run
        // them across the worker pool — validation queries dominate a
        // `run_all` sweep, so this parallelism matters.
        let mut usable: Vec<&(String, ConjunctiveQuery)> = Vec::new();
        for pair in queries {
            // Skip queries with no consistent homomorphic images at this
            // scale (the noise generator requires a non-empty result).
            let syn = build_synopses(base, &pair.1, BuildOptions::default())?;
            if syn.hom_size == 0 {
                notes.push(format!("{bench}/{}: empty at scale {}; skipped", pair.0, cfg.scale));
            } else {
                usable.push(pair);
            }
        }
        // Noise databases are built sequentially (they share the master
        // RNG stream); scheme runs are the expensive part and parallelize.
        let mut jobs: Vec<(usize, f64, Database)> = Vec::new();
        let mut failed_queries: Vec<usize> = Vec::new();
        for (qi, (name, q)) in usable.iter().enumerate() {
            for &p in &noise_levels {
                let spec = NoiseSpec { p, lmin: cfg.block_min, umax: cfg.block_max };
                match add_query_aware_noise(base, q, spec, &mut rng) {
                    Ok((noisy, _)) => jobs.push((qi, p, noisy)),
                    Err(_) => {
                        notes.push(format!("{bench}/{name}: noise generation failed at p={p}"));
                        failed_queries.push(qi);
                        break;
                    }
                }
            }
        }
        let outcomes = crate::runner::run_jobs(jobs, cfg.threads, |(qi, p, noisy)| {
            let (name, q) = usable[qi];
            let seed = cfg.seed ^ ((p * 1000.0) as u64) ^ name.len() as u64;
            (qi, p, run_pair(&noisy, q, cfg, seed))
        });

        for (qi, (name, _)) in usable.iter().enumerate() {
            if failed_queries.contains(&qi) {
                continue;
            }
            let mut balance_stats = RunningStats::new();
            let mut points = Vec::new();
            for (_, p, outcome) in outcomes.iter().filter(|(j, _, _)| *j == qi) {
                let cell = match outcome {
                    Ok(out) => {
                        balance_stats.push(out.stats.balance);
                        let mut cell = Cell { avg_secs: [0.0; 4], timeouts: [0; 4], total: 1 };
                        for (k, run) in out.runs.iter().enumerate() {
                            cell.avg_secs[k] = run.secs;
                            cell.timeouts[k] = run.timed_out as usize;
                        }
                        cell
                    }
                    Err(_) => Cell { avg_secs: [cfg.timeout_secs; 4], timeouts: [1; 4], total: 1 },
                };
                points.push((p * 100.0, cell));
            }
            if points.is_empty() {
                continue;
            }
            figures.push(Figure {
                id: format!("validation_{bench}_{}", name.to_lowercase()),
                title: format!(
                    "Validation[{name}] — balance avg/std: {:.2}/{:.2}",
                    balance_stats.mean() * 100.0,
                    balance_stats.std_dev() * 100.0
                ),
                xlabel: "Noise (%)".into(),
                ylabel: "Execution time (s)".into(),
                series: scheme_series(points),
            });
        }
    }
    Ok((figures, notes))
}

/// The per-figure winners: which scheme accumulated the least total time.
/// Used by `run_all` to print the take-home verdict table (§7.2).
pub fn winners(figures: &[Figure]) -> Vec<(String, String)> {
    figures
        .iter()
        .filter_map(|fig| {
            let best = fig
                .series
                .iter()
                .min_by(|a, b| {
                    let ta: f64 = a.points.iter().map(|p| p.y).sum();
                    let tb: f64 = b.points.iter().map(|p| p.y).sum();
                    ta.partial_cmp(&tb).expect("finite")
                })?
                .label
                .clone();
            Some((fig.id.clone(), best))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_pool() -> Pool {
        Pool::build(BenchConfig::smoke()).expect("smoke pool")
    }

    #[test]
    fn fig1_produces_full_series() {
        let pool = smoke_pool();
        let figs = fig1_noise(&pool, &[(0.0, 1), (0.5, 2)]);
        assert_eq!(figs.len(), 2);
        for fig in &figs {
            assert_eq!(fig.series.len(), 4);
            for s in &fig.series {
                assert_eq!(s.points.len(), pool.config.noise_levels.len());
                for p in &s.points {
                    assert!(p.y >= 0.0);
                    assert!(p.timeouts <= p.total);
                }
            }
        }
    }

    #[test]
    fn fig2_spans_balance_grid() {
        let pool = smoke_pool();
        let figs = fig2_balance(&pool, &[(0.3, 1)]);
        assert_eq!(figs.len(), 1);
        assert_eq!(figs[0].series[0].points.len(), pool.config.balance_levels.len());
    }

    #[test]
    fn fig3_histogram_is_a_distribution() {
        let pool = smoke_pool();
        let (fig, summary) = fig3_preprocessing(&pool);
        let total: f64 = fig.series[0].points.iter().map(|p| p.y).sum();
        assert!((total - 1.0).abs() < 1e-9, "histogram sums to {total}");
        assert!(summary.contains("pairs"));
    }

    #[test]
    fn fig4_shares_sum_to_one_hundred() {
        let pool = smoke_pool();
        let figs = fig4_joins(&pool, &[(0.3, 0.5)]);
        for fig in &figs {
            let n_points = fig.series[0].points.len();
            for i in 0..n_points {
                let sum: f64 = fig.series.iter().map(|s| s.points[i].y).sum();
                assert!((sum - 100.0).abs() < 1e-6, "shares sum to {sum}");
            }
        }
    }

    #[test]
    fn winners_picks_smallest_total() {
        let fig = Figure {
            id: "f".into(),
            title: "t".into(),
            xlabel: "x".into(),
            ylabel: "y".into(),
            series: vec![
                Series {
                    label: "A".into(),
                    points: vec![Point { x: 0.0, y: 2.0, timeouts: 0, total: 1 }],
                },
                Series {
                    label: "B".into(),
                    points: vec![Point { x: 0.0, y: 1.0, timeouts: 0, total: 1 }],
                },
            ],
        };
        assert_eq!(winners(&[fig]), vec![("f".to_owned(), "B".to_owned())]);
    }
}
