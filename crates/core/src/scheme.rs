//! The four approximation schemes for `RelativeFreq` (Algorithms 3–5).
//!
//! Each scheme takes an encoded synopsis and `(ε, δ)` and returns an
//! estimate of `R(H, B)`:
//!
//! * [`Scheme::Natural`] — `MonteCarlo[SampleNatural]`; the estimate is the
//!   raw mean (Theorem 4.4).
//! * [`Scheme::Kl`] — `MonteCarlo[SampleKL] · |S•|/|db(B)|` (Theorem 4.6).
//! * [`Scheme::Klm`] — `MonteCarlo[SampleKLM] · |S•|/|db(B)|` (Theorem 4.8).
//! * [`Scheme::Cover`] — `SelfAdjustingCoverage / |db(B)|` (Theorem 4.9).

use crate::coverage::self_adjusting_coverage;
use crate::montecarlo::monte_carlo;
use crate::sampler::{KlSampler, KlmSampler, NaturalSampler, Sampler};
use crate::telemetry;
use cqa_common::{Deadline, Mt64, Result};
use cqa_obs::Span;
use cqa_synopsis::AdmissiblePair;
use std::fmt;

/// A resource budget for one approximation run (the paper's 1-hour timeout
/// per scenario, scaled to our setting).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Wall-clock deadline.
    pub deadline: Deadline,
    /// Hard cap on the number of samples drawn.
    pub max_samples: u64,
}

impl Budget {
    /// No limits.
    pub fn unbounded() -> Self {
        Budget { deadline: Deadline::none(), max_samples: u64::MAX }
    }

    /// A wall-clock budget of `secs` seconds.
    pub fn with_timeout_secs(secs: f64) -> Self {
        Budget { deadline: Deadline::after_secs(secs), max_samples: u64::MAX }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// The four approximation schemes under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scheme {
    /// Monte Carlo over the natural sampling space (Algorithm 3).
    Natural,
    /// Karp–Luby symbolic-space Monte Carlo (Algorithm 4 with Sampler 2).
    Kl,
    /// Karp–Luby–Madras variation (Algorithm 4 with Sampler 3).
    Klm,
    /// Self-adjusting coverage (Algorithm 5).
    Cover,
}

/// All schemes, in the paper's presentation order.
pub const ALL_SCHEMES: [Scheme; 4] = [Scheme::Natural, Scheme::Kl, Scheme::Klm, Scheme::Cover];

impl Scheme {
    /// The scheme's display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Natural => "Natural",
            Scheme::Kl => "KL",
            Scheme::Klm => "KLM",
            Scheme::Cover => "Cover",
        }
    }

    /// The trace span of one `ApxRelativeFreq` run of this scheme.
    pub fn span_name(self) -> Span {
        match self {
            Scheme::Natural => Span::SchemeNatural,
            Scheme::Kl => Span::SchemeKl,
            Scheme::Klm => Span::SchemeKlm,
            Scheme::Cover => Span::SchemeCover,
        }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Scheme {
    type Err = cqa_common::CqaError;

    /// Parses a scheme name, case-insensitively (CLI flags, wire protocol).
    fn from_str(s: &str) -> Result<Scheme> {
        match s.to_ascii_lowercase().as_str() {
            "natural" => Ok(Scheme::Natural),
            "kl" => Ok(Scheme::Kl),
            "klm" => Ok(Scheme::Klm),
            "cover" => Ok(Scheme::Cover),
            other => Err(cqa_common::CqaError::InvalidParameter(format!(
                "unknown scheme '{other}' (expected natural, kl, klm, or cover)"
            ))),
        }
    }
}

/// Outcome of one `ApxRelativeFreq` run.
#[derive(Debug, Clone, Copy)]
pub struct ApproxOutcome {
    /// The estimate of `R(H, B)`.
    pub estimate: f64,
    /// Samples drawn (Monte-Carlo schemes) or inner steps (Cover).
    pub samples: u64,
    /// The iteration count chosen by the planner (`OptEstimate` or the
    /// deterministic coverage budget).
    pub planned_n: u64,
    /// The estimator's terminal variance on the estimate's scale: the
    /// final Monte-Carlo loop's sample variance divided by `r²` (the
    /// estimate is the loop's mean over `r`), or Cover's per-trial
    /// variance.
    pub variance: f64,
    /// One standard error of the estimate, `√(variance / N)` with `N` the
    /// final loop's iterations or Cover's completed trials. It is not the
    /// `(ε, δ)` interval the caller asked for.
    pub ci_half_width: f64,
}

impl ApproxOutcome {
    /// An outcome whose terminal mean averaged `terms` draws of variance
    /// `variance`; the one place the half-width is computed.
    fn new(estimate: f64, samples: u64, planned_n: u64, variance: f64, terms: u64) -> Self {
        let ci_half_width = (variance / terms as f64).sqrt();
        ApproxOutcome { estimate, samples, planned_n, variance, ci_half_width }
    }
}

/// `ApxRelativeFreq` on an encoded synopsis: approximates `R(H, B)` within
/// relative error `ε` with probability ≥ 1 − δ.
///
/// The caller is responsible for the `H = ∅` case (where the frequency is
/// 0 and no synopsis exists — Lemma 4.1(4)); admissible pairs are non-empty
/// by construction. Estimates are clamped to `[0, 1]`: the symbolic
/// schemes multiply a sample mean by `|S•|/|db(B)|`, which can nudge the
/// raw value past 1, and since the true ratio is at most 1 the clamp can
/// only reduce the error.
pub fn approx_relative_frequency(
    pair: &AdmissiblePair,
    scheme: Scheme,
    eps: f64,
    delta: f64,
    budget: &Budget,
    rng: &mut Mt64,
) -> Result<ApproxOutcome> {
    let mut span = cqa_obs::span(scheme.span_name());
    let out = match scheme {
        Scheme::Natural => {
            let mut s = NaturalSampler::new(pair);
            run_monte_carlo(&mut s, 1.0, eps, delta, budget, rng)
        }
        Scheme::Kl => {
            let mut s = KlSampler::new(pair);
            let r = s.r_factor();
            run_monte_carlo(&mut s, r, eps, delta, budget, rng)
        }
        Scheme::Klm => {
            let mut s = KlmSampler::new(pair);
            let r = s.r_factor();
            run_monte_carlo(&mut s, r, eps, delta, budget, rng)
        }
        Scheme::Cover => {
            let res = self_adjusting_coverage(pair, eps, delta, budget, rng);
            if cqa_obs::enabled() {
                if let Ok(out) = &res {
                    telemetry::samples_total().add(out.steps);
                    telemetry::scheme_runs_total().inc();
                }
            }
            let out = res?;
            Ok(ApproxOutcome::new(
                out.ratio.clamp(0.0, 1.0),
                out.steps,
                out.planned_steps,
                out.var_ratio,
                out.trials,
            ))
        }
    }?;
    span.set_args(out.samples, out.planned_n);
    Ok(out)
}

/// Runs `MonteCarlo[sampler]`, divides by the r-factor, and feeds the
/// observability counters (sample totals, rejections) when tracing is on.
fn run_monte_carlo<S: Sampler>(
    sampler: &mut S,
    r: f64,
    eps: f64,
    delta: f64,
    budget: &Budget,
    rng: &mut Mt64,
) -> Result<ApproxOutcome> {
    let res = monte_carlo(sampler, eps, delta, budget, rng);
    if cqa_obs::enabled() {
        telemetry::samples_rejected_total().add(sampler.rejected());
        if let Ok(out) = &res {
            telemetry::samples_total().add(out.samples);
            telemetry::scheme_runs_total().inc();
        }
    }
    let out = res?;
    // The estimate is `mean / r`, so its variance is the mean's over r².
    Ok(ApproxOutcome::new(
        (out.mean / r).clamp(0.0, 1.0),
        out.samples,
        out.planned_n,
        out.variance / (r * r),
        out.planned_n,
    ))
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
    fn all_schemes_agree_with_the_exact_ratio() {
        let pair = overlap_pair();
        let exact = exact_ratio_enumerate(&pair, 100_000).unwrap();
        for (k, scheme) in ALL_SCHEMES.into_iter().enumerate() {
            let mut rng = Mt64::new(500 + k as u64);
            let out =
                approx_relative_frequency(&pair, scheme, 0.1, 0.25, &Budget::unbounded(), &mut rng)
                    .unwrap();
            assert!(
                (out.estimate - exact).abs() <= 0.1 * exact * 1.5,
                "{scheme}: estimate {} vs exact {exact}",
                out.estimate
            );
        }
    }

    #[test]
    fn all_schemes_handle_high_frequency_pairs() {
        // R = 1: the single block is fully covered.
        let pair = AdmissiblePair::new(vec![vec![(0, 0)], vec![(0, 1)]], vec![2]).unwrap();
        for scheme in ALL_SCHEMES {
            let mut rng = Mt64::new(60);
            let out =
                approx_relative_frequency(&pair, scheme, 0.1, 0.25, &Budget::unbounded(), &mut rng)
                    .unwrap();
            assert!(
                (out.estimate - 1.0).abs() <= 0.12,
                "{scheme}: estimate {} for R=1",
                out.estimate
            );
        }
    }

    #[test]
    fn all_schemes_handle_low_frequency_pairs() {
        // Single image over four blocks of size 4: R = 1/256.
        let pair =
            AdmissiblePair::new(vec![vec![(0, 0), (1, 0), (2, 0), (3, 0)]], vec![4, 4, 4, 4])
                .unwrap();
        let exact = 1.0 / 256.0;
        for scheme in ALL_SCHEMES {
            let mut rng = Mt64::new(61);
            let out =
                approx_relative_frequency(&pair, scheme, 0.2, 0.25, &Budget::unbounded(), &mut rng)
                    .unwrap();
            assert!(
                (out.estimate - exact).abs() <= 0.25 * exact + 1e-6,
                "{scheme}: estimate {} vs {exact}",
                out.estimate
            );
        }
    }

    #[test]
    fn scheme_names_match_the_paper() {
        assert_eq!(Scheme::Natural.name(), "Natural");
        assert_eq!(Scheme::Kl.name(), "KL");
        assert_eq!(Scheme::Klm.name(), "KLM");
        assert_eq!(Scheme::Cover.name(), "Cover");
        assert_eq!(format!("{}", Scheme::Kl), "KL");
        // Core's counters on the process-wide registry are exactly these.
        let counters = [
            telemetry::samples_total,
            telemetry::samples_rejected_total,
            telemetry::scheme_runs_total,
            telemetry::budget_exhausted_total,
        ];
        for register in counters {
            register();
        }
        let metrics = cqa_obs::metrics::global().to_json();
        let cqa_common::Json::Obj(metrics) = &metrics else { panic!("{metrics:?}") };
        assert_eq!(
            metrics.keys().map(String::as_str).collect::<Vec<_>>(),
            [
                "core_budget_exhausted_total",
                "core_samples_rejected_total",
                "core_samples_total",
                "core_scheme_runs_total"
            ]
        );
    }

    #[test]
    fn symbolic_error_bars_are_on_the_estimate_scale() {
        // Four one-fact images in four blocks of two: |S•|/|db(B)| = 2, so
        // r = 1/2 for KL and KLM, and a bar left on the sample-mean scale
        // reads about r times the estimates' spread.
        let pair = AdmissiblePair::new(
            vec![vec![(0, 0)], vec![(1, 0)], vec![(2, 0)], vec![(3, 0)]],
            vec![2, 2, 2, 2],
        )
        .unwrap();
        for (scheme, r) in [
            (Scheme::Kl, KlSampler::new(&pair).r_factor()),
            (Scheme::Klm, KlmSampler::new(&pair).r_factor()),
        ] {
            assert!(r <= 0.7, "{scheme}: r = {r}");
            let runs: Vec<ApproxOutcome> = (0..60)
                .map(|seed| {
                    let mut rng = Mt64::new(9000 + seed);
                    approx_relative_frequency(
                        &pair,
                        scheme,
                        0.1,
                        0.25,
                        &Budget::unbounded(),
                        &mut rng,
                    )
                    .unwrap()
                })
                .collect();
            let n = runs.len() as f64;
            let mean = runs.iter().map(|o| o.estimate).sum::<f64>() / n;
            let sd =
                (runs.iter().map(|o| (o.estimate - mean).powi(2)).sum::<f64>() / (n - 1.0)).sqrt();
            let bar = runs.iter().map(|o| o.ci_half_width).sum::<f64>() / n;
            assert!(
                (0.67 * sd..=1.5 * sd).contains(&bar),
                "{scheme}: mean ci_half_width {bar} vs sd of estimates {sd} (ratio {})",
                bar / sd
            );
        }
    }

    #[test]
    fn symbolic_schemes_are_cheaper_when_frequency_is_low() {
        // The motivating property of the symbolic space (§1): for small R,
        // the natural scheme needs far more samples than KL.
        let pair =
            AdmissiblePair::new(vec![vec![(0, 0), (1, 0), (2, 0), (3, 0)]], vec![4, 4, 4, 4])
                .unwrap();
        let mut rng = Mt64::new(62);
        let nat = approx_relative_frequency(
            &pair,
            Scheme::Natural,
            0.2,
            0.25,
            &Budget::unbounded(),
            &mut rng,
        )
        .unwrap();
        let kl =
            approx_relative_frequency(&pair, Scheme::Kl, 0.2, 0.25, &Budget::unbounded(), &mut rng)
                .unwrap();
        assert!(
            nat.samples > 10 * kl.samples,
            "natural {} samples vs KL {}",
            nat.samples,
            kl.samples
        );
    }
}
