//! `SelfAdjustingCoverage` (Algorithm 6): the Karp–Luby–Madras coverage
//! algorithm for the union-of-sets problem, adapted to synopses.
//!
//! In contrast to the Monte-Carlo schemes, the iteration budget
//! `N = ⌈8(1+ε)·|H|·ln(3/δ) / ((1−ε²/8)·ε²)⌉` is computed
//! *deterministically* — more predictable, but linear in `|H|` with a
//! large constant, which is exactly why the paper finds `Cover` slow on
//! Boolean queries (large `|H|`) and competitive only when synopses are
//! tiny (§7).
//!
//! The algorithm estimates `|⋃ᵢ I^i|` — the numerator of `R(H,B)` — by
//! repeatedly drawing `(i, I) ∈ S•` and counting how many uniform probes
//! `j` it takes until `I ∈ I^j`. We return the estimate as a *ratio* to
//! `|db(B)|` (using `|S•|/|db(B)| = Σᵢ 1/|db(B_{H_i})|`), so no big-number
//! arithmetic is needed.

#![deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)]

use crate::optest::{budget_exhausted, POLL};
use crate::sampler::SymbolicDraw;
use crate::scheme::Budget;
use cqa_common::{Below, CqaError, Mt64, Result};
use cqa_obs::Span;
use cqa_synopsis::AdmissiblePair;

/// Outcome of the coverage algorithm.
#[derive(Debug, Clone, Copy)]
pub struct CoverageOutcome {
    /// Estimate of `|⋃ᵢ I^i| / |db(B)|`, i.e. of `R(H, B)`.
    pub ratio: f64,
    /// The deterministic step budget `N`.
    pub planned_steps: u64,
    /// Inner-loop steps actually executed.
    pub steps: u64,
    /// Completed outer trials.
    pub trials: u64,
    /// Variance of one trial's contribution to `ratio`: the trial-length
    /// variance scaled by `(|S•|/(|H|·|db(B)|))²`.
    pub var_ratio: f64,
}

/// The deterministic step budget of Algorithm 6.
pub fn coverage_iterations(num_images: usize, eps: f64, delta: f64) -> u64 {
    let h = num_images as f64;
    let n = 8.0 * (1.0 + eps) * h * (3.0 / delta).ln() / ((1.0 - eps * eps / 8.0) * eps * eps);
    cqa_common::checked::f64_to_u64(n.ceil())
}

/// Runs `SelfAdjustingCoverage((H,B), ε, δ)` and converts the union-size
/// estimate into an `R(H,B)` estimate.
pub fn self_adjusting_coverage(
    pair: &AdmissiblePair,
    eps: f64,
    delta: f64,
    budget: &Budget,
    rng: &mut Mt64,
) -> Result<CoverageOutcome> {
    // ε ∈ (0, 1): the protocol's documented accuracy domain. (Algorithm 6
    // only needs ε² < 8, but every admitted request already satisfies the
    // tighter bound, and (0, 1) is what makes the budget formula's divisor
    // (1 − ε²/8)·ε² provably positive.)
    if !(eps > 0.0 && eps < 1.0) {
        return Err(CqaError::InvalidParameter(format!("ε out of range: {eps}")));
    }
    if !(0.0 < delta && delta < 1.0) {
        return Err(CqaError::InvalidParameter(format!("δ must be in (0,1), got {delta}")));
    }
    let h = pair.num_images();
    if h == 0 {
        // An empty image set leaves the estimator 0/0-undefined (and the
        // draw index rng.index(0) degenerate); refuse up front.
        return Err(CqaError::InvalidParameter("admissible pair has no images".into()));
    }
    let n_budget = coverage_iterations(h, eps, delta);
    if n_budget > budget.max_samples {
        return Err(CqaError::TimedOut { phase: "coverage planning", samples: 0 });
    }
    let mut span = cqa_obs::span_args(Span::CoreCoverageLoop, n_budget, 0);
    let mut draw = SymbolicDraw::new(pair);
    let probe = Below::new(h as u64);
    let mut steps: u64 = 0;
    let mut total: u64 = 0;
    let mut trials: u64 = 0;
    let mut prev_steps: u64 = 0;
    let mut len_sum_sq = 0.0f64;
    // `finished` is the goto-finish of Algorithm 6, with one safeguard: we
    // always complete at least one trial, or the estimate below would be
    // 0/0. The (0, 1) domain does reach it, if rarely: the budget is at
    // least 20·|H| steps (8(1+ε)·ln(3/δ)/((1−ε²/8)·ε²) falls to
    // 16·ln 3/(7/8) ≈ 20.1 as ε, δ → 1), and each probe succeeds with
    // probability ≥ 1/|H|, so a first trial outlasts the budget with
    // probability at most (1 − 1/|H|)^(20·|H|) < e⁻²⁰.
    'outer: loop {
        let _i = draw.draw(rng);
        loop {
            steps = steps.saturating_add(1);
            if steps.is_multiple_of(POLL) && budget.deadline.expired() {
                return Err(budget_exhausted(Span::CoreDeadlineExpired, steps, "coverage"));
            }
            if steps > n_budget && trials > 0 {
                break 'outer;
            }
            #[expect(
                clippy::cast_possible_truncation,
                reason = "lossless: `below_with` returns a value below `h`, a `usize`"
            )]
            let j = rng.below_with(&probe) as usize;
            if draw.contains(j) {
                break;
            }
        }
        total = steps;
        trials = trials.saturating_add(1);
        let len = steps.saturating_sub(prev_steps) as f64;
        len_sum_sq += len * len;
        prev_steps = steps;
    }
    // p := total·|S•| / (|H|·trials), reported relative to |db(B)|.
    let (total_f, images_f, trials_f) = (total as f64, h as f64, trials as f64);
    let scale = pair.s_ratio() / images_f;
    let ratio = total_f * scale / trials_f;
    // The estimator is the mean per-trial probe count times `scale`, so the
    // trial-length variance propagates through `scale²`.
    let mean_len = total_f / trials_f;
    let var_len = (len_sum_sq / trials_f - mean_len * mean_len).max(0.0);
    let var_ratio = var_len * scale * scale;
    span.set_args(steps, trials);
    Ok(CoverageOutcome { ratio, planned_steps: n_budget, steps, trials, var_ratio })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqa_synopsis::exact_ratio_enumerate;

    fn overlap_pair() -> AdmissiblePair {
        AdmissiblePair::new(
            vec![vec![(0, 0)], vec![(0, 0), (1, 1)], vec![(1, 1), (2, 2)], vec![(2, 0)]],
            vec![2, 3, 4],
        )
        .unwrap()
    }

    #[test]
    fn coverage_approximates_the_ratio() {
        let pair = overlap_pair();
        let exact = exact_ratio_enumerate(&pair, 100_000).unwrap();
        let mut rng = Mt64::new(31);
        let out =
            self_adjusting_coverage(&pair, 0.1, 0.25, &Budget::unbounded(), &mut rng).unwrap();
        assert!(
            (out.ratio - exact).abs() <= 0.1 * exact * 1.5,
            "coverage {} vs exact {exact}",
            out.ratio
        );
        assert!(out.trials > 0);
        assert!(out.steps >= out.planned_steps);
    }

    #[test]
    fn coverage_on_single_image_pair() {
        // R = 1/|db(B_H)| exactly; the inner loop always succeeds on the
        // first probe (only one image), so steps == trials.
        let pair = AdmissiblePair::new(vec![vec![(0, 1), (1, 2)]], vec![2, 3]).unwrap();
        let exact = 1.0 / 6.0;
        let mut rng = Mt64::new(32);
        let out =
            self_adjusting_coverage(&pair, 0.1, 0.25, &Budget::unbounded(), &mut rng).unwrap();
        // Every trial succeeds on its first probe, so the completed trials
        // equal the step budget and the estimator is exact.
        assert_eq!(out.trials, out.planned_steps);
        assert!((out.ratio - exact).abs() < 1e-9, "got {}", out.ratio);
    }

    #[test]
    fn planned_steps_scale_linearly_in_images() {
        let n1 = coverage_iterations(10, 0.1, 0.25);
        let n2 = coverage_iterations(20, 0.1, 0.25);
        assert!((n2 as f64 / n1 as f64 - 2.0).abs() < 0.01);
    }

    #[test]
    fn planned_steps_match_formula() {
        let eps = 0.1;
        let delta = 0.25;
        let expect = cqa_common::checked::f64_to_u64(
            (8.0 * 1.1 * 5.0 * (3.0f64 / 0.25).ln() / ((1.0 - eps * eps / 8.0) * eps * eps)).ceil(),
        );
        assert_eq!(coverage_iterations(5, eps, delta), expect);
    }

    #[test]
    fn epsilon_guarantee_holds_over_repetitions() {
        let pair = overlap_pair();
        let exact = exact_ratio_enumerate(&pair, 100_000).unwrap();
        let eps = 0.15;
        let mut failures = 0;
        let runs = 30;
        for seed in 0..runs {
            let mut rng = Mt64::new(4000 + seed);
            let out =
                self_adjusting_coverage(&pair, eps, 0.25, &Budget::unbounded(), &mut rng).unwrap();
            if (out.ratio - exact).abs() > eps * exact {
                failures += 1;
            }
        }
        assert!(failures as f64 / runs as f64 <= 0.25, "failures {failures}/{runs}");
    }

    #[test]
    fn sample_budget_is_enforced() {
        let pair = overlap_pair();
        let mut rng = Mt64::new(33);
        let budget = Budget { max_samples: 10, ..Budget::unbounded() };
        // The deterministic budget is refused before any step is drawn.
        assert!(matches!(
            self_adjusting_coverage(&pair, 0.1, 0.25, &budget, &mut rng),
            Err(CqaError::TimedOut { phase: "coverage planning", samples: 0 })
        ));
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let pair = overlap_pair();
        let mut rng = Mt64::new(34);
        let b = Budget::unbounded();
        assert!(self_adjusting_coverage(&pair, 0.0, 0.25, &b, &mut rng).is_err());
        assert!(self_adjusting_coverage(&pair, 0.1, 1.5, &b, &mut rng).is_err());
    }
}
