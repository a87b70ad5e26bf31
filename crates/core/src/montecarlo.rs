//! `MonteCarlo[Sample]` (Algorithm 2): the optimal Monte-Carlo estimator.
//!
//! First `OptEstimate` computes the iteration count `N` (AA steps 1–2,
//! [`crate::optest::plan_iterations`]); then the loop accumulates `N`
//! fresh samples and returns `S/N`. By Lemma 4.2 this is an efficient
//! randomized approximation scheme for `EV[Sample]` whenever the sampler
//! runs in polynomial time and its expectation is polynomially bounded
//! away from zero — which Lemmas 4.3/4.5/4.7 establish for the three
//! samplers.

#![deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)]

use crate::optest::{budgeted_sample, plan_iterations};
use crate::sampler::Sampler;
use crate::scheme::Budget;
use cqa_common::{Mt64, Result};
use cqa_obs::Span;

/// Outcome of `MonteCarlo[Sample]`.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarloOutcome {
    /// The estimate of `E[Sample]` (the raw mean, *not* yet divided by the
    /// sampler's r-factor).
    pub mean: f64,
    /// The iteration count `N` chosen by `OptEstimate`.
    pub planned_n: u64,
    /// Total samples drawn (planning + final loop).
    pub samples: u64,
}

/// Runs Algorithm 2 on a sampler.
pub fn monte_carlo<S: Sampler>(
    sampler: &mut S,
    eps: f64,
    delta: f64,
    budget: &Budget,
    rng: &mut Mt64,
) -> Result<MonteCarloOutcome> {
    let mut count: u64 = 0;
    let plan = plan_iterations(sampler, eps, delta, budget, rng, &mut count)?;
    let mut loop_span = cqa_obs::span_args(Span::CoreMcFinalLoop, plan.n, 0);
    let mut s = 0.0f64;
    let mut ss = 0.0f64;
    // repeat … until ctr = N
    for _ in 0..plan.n {
        let z = budgeted_sample(sampler, rng, budget, &mut count, "monte-carlo loop")?;
        s += z;
        ss += z * z;
    }
    loop_span.set_args(plan.n, count);
    let n_f = plan.n as f64;
    let mean = s / n_f;
    // Convergence export: the final loop's running sample variance and the
    // one-standard-error half-width of its mean.
    let variance = (ss / n_f - mean * mean).max(0.0);
    crate::convergence::export_estimate(variance, (variance / n_f).sqrt());
    Ok(MonteCarloOutcome { mean, planned_n: plan.n, samples: count })
}

// Test counters and seed offsets are tiny and cannot overflow; the
// `deny` above guards the estimator code, not its tests.
#[cfg(test)]
#[allow(clippy::arithmetic_side_effects)]
mod tests {
    use super::*;
    use crate::sampler::{KlSampler, KlmSampler, NaturalSampler};
    use cqa_synopsis::{exact_ratio_enumerate, AdmissiblePair};

    fn overlap_pair() -> AdmissiblePair {
        AdmissiblePair::new(
            vec![vec![(0, 0)], vec![(0, 0), (1, 1)], vec![(1, 1), (2, 2)], vec![(2, 0)]],
            vec![2, 3, 4],
        )
        .unwrap()
    }

    #[test]
    fn monte_carlo_natural_approximates_the_ratio() {
        let pair = overlap_pair();
        let exact = exact_ratio_enumerate(&pair, 100_000).unwrap();
        let mut rng = Mt64::new(21);
        let out =
            monte_carlo(&mut NaturalSampler::new(&pair), 0.1, 0.25, &Budget::unbounded(), &mut rng)
                .unwrap();
        assert!(
            (out.mean - exact).abs() <= 0.1 * exact * 1.5,
            "estimate {} vs exact {exact}",
            out.mean
        );
        assert!(out.planned_n >= 1);
        assert!(out.samples >= out.planned_n);
    }

    #[test]
    fn monte_carlo_symbolic_needs_the_r_factor() {
        let pair = overlap_pair();
        let exact = exact_ratio_enumerate(&pair, 100_000).unwrap();
        let mut rng = Mt64::new(22);
        let mut kl = KlSampler::new(&pair);
        let r = kl.r_factor();
        let out = monte_carlo(&mut kl, 0.1, 0.25, &Budget::unbounded(), &mut rng).unwrap();
        let est = out.mean / r;
        assert!((est - exact).abs() <= 0.1 * exact * 1.5, "KL estimate {est} vs {exact}");

        let mut klm = KlmSampler::new(&pair);
        let r = klm.r_factor();
        let out = monte_carlo(&mut klm, 0.1, 0.25, &Budget::unbounded(), &mut rng).unwrap();
        let est = out.mean / r;
        assert!((est - exact).abs() <= 0.1 * exact * 1.5, "KLM estimate {est} vs {exact}");
    }

    #[test]
    fn epsilon_guarantee_holds_over_repetitions() {
        // With ε=0.15, δ=0.25 the failure rate over repetitions must stay
        // around/below δ.
        let pair = overlap_pair();
        let exact = exact_ratio_enumerate(&pair, 100_000).unwrap();
        let eps = 0.15;
        let mut failures = 0;
        let runs = 40;
        for seed in 0..runs {
            let mut rng = Mt64::new(3000 + seed);
            let out = monte_carlo(
                &mut NaturalSampler::new(&pair),
                eps,
                0.25,
                &Budget::unbounded(),
                &mut rng,
            )
            .unwrap();
            if (out.mean - exact).abs() > eps * exact {
                failures += 1;
            }
        }
        assert!(failures as f64 / runs as f64 <= 0.25, "failure rate {failures}/{runs}");
    }

    #[test]
    fn tighter_epsilon_costs_more_samples() {
        let pair = overlap_pair();
        let mut rng = Mt64::new(23);
        let loose =
            monte_carlo(&mut NaturalSampler::new(&pair), 0.3, 0.25, &Budget::unbounded(), &mut rng)
                .unwrap();
        let tight = monte_carlo(
            &mut NaturalSampler::new(&pair),
            0.05,
            0.25,
            &Budget::unbounded(),
            &mut rng,
        )
        .unwrap();
        assert!(
            tight.samples > loose.samples,
            "tight {} vs loose {}",
            tight.samples,
            loose.samples
        );
    }
}
