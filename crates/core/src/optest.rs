//! `OptEstimate`: the Dagum–Karp–Luby–Ross optimal Monte-Carlo estimator.
//!
//! Reference: P. Dagum, R. M. Karp, M. Luby, S. M. Ross, *An Optimal
//! Algorithm for Monte Carlo Estimation*, SIAM J. Comput. 29(5), 2000 —
//! the paper's citation \[8\]. Given sampling access to a random variable
//! `Z ∈ [0,1]` with unknown mean `µ > 0`, the `AA` algorithm estimates `µ`
//! within relative error `ε` with confidence `1 − δ`, using an expected
//! number of samples that is optimal up to constants: proportional to
//! `max(σ², ε·µ)/ (ε²µ²)`.
//!
//! Per the benchmark paper's Algorithm 2, `OptEstimate` is used to compute
//! the number of iterations `N` that the plain Monte-Carlo loop then runs;
//! our [`plan_iterations`] performs steps 1–2 of `AA` (stopping rule for a
//! rough mean, then variance estimation) and returns the step-3 sample
//! count. The confidence budget `δ` is split evenly across the three
//! steps.

#![deny(clippy::arithmetic_side_effects, clippy::cast_possible_truncation)]

use crate::sampler::Sampler;
use crate::scheme::Budget;
use cqa_common::{CqaError, Mt64, Result};
use cqa_obs::Span;

/// Outcome of the stopping-rule algorithm.
#[derive(Debug, Clone, Copy)]
pub struct StoppingOutcome {
    /// The mean estimate `µ̂ = Υ₁ / N`.
    pub mu: f64,
    /// Samples consumed.
    pub samples: u64,
}

/// Outcome of the planning phase (AA steps 1–2).
#[derive(Debug, Clone, Copy)]
pub struct PlanOutcome {
    /// Iterations the final Monte-Carlo loop should run (AA step 3).
    pub n: u64,
    /// Rough mean estimate from the stopping rule.
    pub mu_hat: f64,
    /// Variance proxy `ρ̂ = max(S/N₂, ε·µ̂)`.
    pub rho_hat: f64,
    /// Samples consumed during planning.
    pub samples: u64,
}

const LAMBDA: f64 = std::f64::consts::E - 2.0;

/// `Υ(ε, δ) = 4λ ln(2/δ) / ε²`.
fn upsilon(eps: f64, delta: f64) -> f64 {
    4.0 * LAMBDA * (2.0 / delta).ln() / (eps * eps)
}

/// Admits `(ε, δ) ∈ (0, 1)²`, the protocol's domain and the one Cover
/// already enforces. The iteration counts below rely on `ε < 1`.
fn check_params(eps: f64, delta: f64) -> Result<()> {
    if !(0.0 < eps && eps < 1.0) {
        return Err(CqaError::InvalidParameter(format!("ε must be in (0,1), got {eps}")));
    }
    if !(0.0 < delta && delta < 1.0) {
        return Err(CqaError::InvalidParameter(format!("δ must be in (0,1), got {delta}")));
    }
    Ok(())
}

/// How often the sample loops poll the deadline.
pub(crate) const POLL: u64 = 4096;

/// Draws one sample while enforcing the budget. `count` is the running
/// sample counter shared across phases. Always inlined, with the sampler's
/// own `sample`, so each phase's loop compiles to one loop with no call
/// per sample.
#[inline(always)]
pub(crate) fn budgeted_sample<S: Sampler>(
    sampler: &mut S,
    rng: &mut Mt64,
    budget: &Budget,
    count: &mut u64,
    phase: &'static str,
) -> Result<f64> {
    *count = count.saturating_add(1);
    if count.is_multiple_of(POLL) && budget.deadline.expired() {
        return Err(budget_exhausted(Span::CoreDeadlineExpired, *count, phase));
    }
    if *count > budget.max_samples {
        return Err(budget_exhausted(Span::CoreSampleCapHit, *count, phase));
    }
    Ok(sampler.sample(rng))
}

/// The error a sampling loop stops with when its budget runs out, after
/// recording `event` at sample `count`. Kept out of line: it runs at most
/// once per scheme run.
#[cold]
#[inline(never)]
pub(crate) fn budget_exhausted(event: Span, count: u64, phase: &'static str) -> CqaError {
    cqa_obs::instant_args(event, count, 0);
    CqaError::TimedOut { phase, samples: count }
}

/// The DKLR *stopping rule*: samples until the running sum reaches
/// `Υ₁ = 1 + (1+ε)Υ` and outputs `µ̂ = Υ₁/N`, an (ε, δ)-approximation of
/// the mean.
pub fn stopping_rule<S: Sampler>(
    sampler: &mut S,
    eps: f64,
    delta: f64,
    budget: &Budget,
    rng: &mut Mt64,
    count: &mut u64,
) -> Result<StoppingOutcome> {
    check_params(eps, delta)?;
    let mut span = cqa_obs::span(Span::DklrStoppingRule);
    // Υ is positive (or +∞ when ε² underflows), never NaN, so Υ₁ > 1: the
    // loop runs at least once, and `n ≥ 1`, `mu > 0` downstream. Samples
    // lie in [0, 1], so the sum reaches Υ₁ no sooner than sample Υ₁ and
    // `mu ≤ 1`.
    let upsilon1 = 1.0 + (1.0 + eps) * upsilon(eps, delta);
    let mut s = 0.0f64;
    let mut n: u64 = 0;
    while s < upsilon1 {
        s += budgeted_sample(sampler, rng, budget, count, "stopping rule")?;
        n = n.saturating_add(1);
    }
    span.set_args(n, 0);
    Ok(StoppingOutcome { mu: upsilon1 / n as f64, samples: n })
}

/// AA steps 1–2: computes the optimal final iteration count `N` for
/// estimating `E[sampler]` within `(ε, δ)`.
///
/// * Step 1 runs the stopping rule with `(min(1/2, √ε), δ/3)` for a rough
///   mean `µ̂`.
/// * Step 2 draws `N₂ = Υ₂·ε/µ̂` sample *pairs* and sets
///   `ρ̂ = max(S/N₂, ε·µ̂)` where `S` accumulates `(Z₂ᵢ₋₁ − Z₂ᵢ)²/2` — an
///   unbiased variance estimate.
/// * The returned `N = Υ₂·ρ̂/µ̂²` is the step-3 count that [`crate::monte_carlo`]
///   runs (with the remaining δ/3 of the confidence budget).
pub fn plan_iterations<S: Sampler>(
    sampler: &mut S,
    eps: f64,
    delta: f64,
    budget: &Budget,
    rng: &mut Mt64,
    count: &mut u64,
) -> Result<PlanOutcome> {
    check_params(eps, delta)?;
    let sqrt_eps = eps.sqrt();
    let eps1 = 0.5f64.min(sqrt_eps);
    let step = stopping_rule(sampler, eps1, delta / 3.0, budget, rng, count)?;
    let mu_hat = step.mu;
    let mut samples = step.samples;

    let upsilon2 = 2.0
        * (1.0 + sqrt_eps)
        * (1.0 + 2.0 * sqrt_eps)
        * (1.0 + (1.5f64).ln() / (2.0 / (delta / 3.0)).ln())
        * upsilon(eps, delta / 3.0);

    // Υ₂ ≥ 2·Υ(ε, δ/3) = 8λ·ln(6/δ)/ε², so with ε < 1 and µ̂ ≤ 1,
    // Υ₂·ε/µ̂ > 8λ·ln 6 > 10: N₂ here and N below are at least 11.
    let n2 = cqa_common::checked::f64_to_u64((upsilon2 * eps / mu_hat).ceil());
    let mut var_span = cqa_obs::span_args(Span::DklrVarianceEstimation, n2, 0);
    let mut s = 0.0f64;
    for _ in 0..n2 {
        let a = budgeted_sample(sampler, rng, budget, &mut samples, "variance estimation")?;
        let b = budgeted_sample(sampler, rng, budget, &mut samples, "variance estimation")?;
        let d = a - b;
        s += d * d / 2.0;
    }
    var_span.set_args(n2, samples.saturating_sub(step.samples));
    drop(var_span);
    let rho_hat = (s / n2 as f64).max(eps * mu_hat);
    // ρ̂ ≥ ε·µ̂, so N ≥ N₂.
    let n = (upsilon2 * rho_hat / (mu_hat * mu_hat)).ceil();
    *count = samples.max(*count);
    if !n.is_finite() || n >= budget.max_samples as f64 {
        return Err(CqaError::TimedOut { phase: "iteration planning", samples: *count });
    }
    let n = cqa_common::checked::f64_to_u64(n);
    cqa_obs::instant_args(Span::DklrPlanned, n, samples);
    Ok(PlanOutcome { n, mu_hat, rho_hat, samples })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheme::Budget;

    /// A deterministic-mean Bernoulli sampler for testing the estimator in
    /// isolation from the CQA machinery.
    struct Bernoulli {
        p: f64,
    }

    impl Sampler for Bernoulli {
        fn sample(&mut self, rng: &mut Mt64) -> f64 {
            if rng.next_f64() < self.p {
                1.0
            } else {
                0.0
            }
        }
        fn r_factor(&self) -> f64 {
            1.0
        }
    }

    /// A low-variance sampler: constant value.
    struct Constant {
        v: f64,
    }

    impl Sampler for Constant {
        fn sample(&mut self, _rng: &mut Mt64) -> f64 {
            self.v
        }
        fn r_factor(&self) -> f64 {
            1.0
        }
    }

    #[test]
    fn stopping_rule_estimates_bernoulli_mean() {
        let mut rng = Mt64::new(1);
        let mut count = 0;
        for &p in &[0.9, 0.5, 0.1] {
            let out = stopping_rule(
                &mut Bernoulli { p },
                0.1,
                0.25,
                &Budget::unbounded(),
                &mut rng,
                &mut count,
            )
            .unwrap();
            assert!((out.mu - p).abs() <= 0.15 * p, "stopping rule gave {} for mean {p}", out.mu);
        }
    }

    #[test]
    fn stopping_rule_sample_count_scales_inversely_with_mean() {
        let mut rng = Mt64::new(2);
        let mut count = 0;
        let budget = Budget::unbounded();
        let hi = stopping_rule(&mut Bernoulli { p: 0.5 }, 0.2, 0.25, &budget, &mut rng, &mut count)
            .unwrap();
        let lo =
            stopping_rule(&mut Bernoulli { p: 0.01 }, 0.2, 0.25, &budget, &mut rng, &mut count)
                .unwrap();
        assert!(
            lo.samples > 10 * hi.samples,
            "expected many more samples for small mean: {} vs {}",
            lo.samples,
            hi.samples
        );
    }

    #[test]
    fn plan_iterations_reflects_variance() {
        // A constant sampler has zero variance → ρ̂ = ε·µ̂ → far fewer final
        // iterations than a fair Bernoulli of the same mean.
        let mut rng = Mt64::new(3);
        let budget = Budget::unbounded();
        let mut count = 0;
        let plan_const =
            plan_iterations(&mut Constant { v: 0.5 }, 0.1, 0.25, &budget, &mut rng, &mut count)
                .unwrap();
        let mut count = 0;
        let plan_bern =
            plan_iterations(&mut Bernoulli { p: 0.5 }, 0.1, 0.25, &budget, &mut rng, &mut count)
                .unwrap();
        assert!(
            plan_bern.n > plan_const.n,
            "variance should increase iterations: {} vs {}",
            plan_bern.n,
            plan_const.n
        );
    }

    #[test]
    fn sample_budget_is_enforced() {
        let mut rng = Mt64::new(4);
        let budget = Budget { max_samples: 500, ..Budget::unbounded() };
        let mut count = 0;
        let res =
            stopping_rule(&mut Bernoulli { p: 0.001 }, 0.05, 0.1, &budget, &mut rng, &mut count);
        assert!(matches!(res, Err(CqaError::TimedOut { samples: 501, .. })), "{res:?}");
    }

    #[test]
    fn deadline_is_enforced() {
        let mut rng = Mt64::new(5);
        let budget =
            Budget { deadline: cqa_common::Deadline::after_secs(0.02), max_samples: u64::MAX };
        let mut count = 0;
        // Mean 1e-9 would need ~1e10 samples; the deadline fires first.
        let res =
            stopping_rule(&mut Bernoulli { p: 1e-9 }, 0.1, 0.25, &budget, &mut rng, &mut count);
        // The deadline is polled every `POLL` samples, so the count it
        // stops at is a multiple of `POLL`.
        assert!(
            matches!(res, Err(CqaError::TimedOut { samples, .. }) if samples % POLL == 0),
            "{res:?}"
        );
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut rng = Mt64::new(6);
        let mut count = 0;
        let b = Budget::unbounded();
        assert!(
            stopping_rule(&mut Constant { v: 0.5 }, 0.0, 0.25, &b, &mut rng, &mut count).is_err()
        );
        assert!(
            stopping_rule(&mut Constant { v: 0.5 }, 0.1, 0.0, &b, &mut rng, &mut count).is_err()
        );
        assert!(
            stopping_rule(&mut Constant { v: 0.5 }, 0.1, 1.0, &b, &mut rng, &mut count).is_err()
        );
        assert!(
            stopping_rule(&mut Constant { v: 0.5 }, 1.0, 0.25, &b, &mut rng, &mut count).is_err()
        );
    }

    #[test]
    fn confidence_holds_empirically() {
        // Repeat the stopping rule many times; the failure rate should stay
        // below δ (the guarantee is conservative in practice).
        let delta = 0.25;
        let eps = 0.2;
        let p = 0.3;
        let mut failures = 0;
        let budget = Budget::unbounded();
        for seed in 0..60 {
            let mut rng = Mt64::new(1000 + seed);
            let mut count = 0;
            let out =
                stopping_rule(&mut Bernoulli { p }, eps, delta, &budget, &mut rng, &mut count)
                    .unwrap();
            if (out.mu - p).abs() > eps * p {
                failures += 1;
            }
        }
        assert!(failures as f64 / 60.0 <= delta, "failure rate {failures}/60 exceeds δ");
    }
}
