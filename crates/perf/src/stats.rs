//! The measurement core: warmup + repeats + robust summaries.
//!
//! Wall-clock benchmark samples are contaminated by one-sided noise
//! (scheduler preemption, cache cold starts, page faults): the minimum and
//! median are stable, the mean is not. Every suite therefore summarizes
//! its repeats with [`Summary::from_samples`], which rejects gross
//! outliers first, and [`crate::schema::bench_series`] records the
//! **best** surviving repeat (the minimum for latencies, the maximum for
//! throughput) with the **MAD** (median absolute deviation) as the spread.
//!
//! All summary math is deterministic on a fixed sample vector, so it is
//! unit-testable without touching a clock.

use cqa_common::Stopwatch;
use std::time::Duration;

/// Samples whose distance from the median exceeds `OUTLIER_K` MADs are
/// rejected before summarizing. 5 is loose on purpose: with ~10 repeats a
/// legitimate sample is essentially never 5 scaled MADs out, while a
/// preempted run easily is.
pub const OUTLIER_K: f64 = 5.0;

/// Consistency factor making the MAD comparable to a standard deviation
/// under normality (1 / Φ⁻¹(3/4)); used only for outlier scaling.
const MAD_SCALE: f64 = 1.4826;

/// How a suite runs its measurement loop.
#[derive(Debug, Clone, Copy)]
pub struct MeasureOpts {
    /// Untimed warmup batches before the timed repeats.
    pub warmup: u32,
    /// Timed repeats (each contributes one sample).
    pub repeats: u32,
    /// Soft wall-clock budget: once spent, stop early — but never with
    /// fewer than `min_repeats` samples.
    pub budget: Duration,
    /// Lower bound on samples even when over budget.
    pub min_repeats: u32,
}

/// Robust summary of a sample vector: what [`crate::schema::bench_series`]
/// records.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median absolute deviation of the surviving samples (unscaled).
    pub mad: f64,
    /// Minimum surviving sample.
    pub min: f64,
    /// Maximum surviving sample.
    pub max: f64,
    /// Surviving sample count.
    pub count: u64,
}

impl Summary {
    /// Summarizes `samples` with median/MAD outlier rejection. Empty
    /// input yields an all-zero summary (a suite that produced nothing).
    pub fn from_samples(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary { mad: 0.0, min: 0.0, max: 0.0, count: 0 };
        }
        let med = median(samples);
        let spread = mad(samples, med);
        let cutoff = OUTLIER_K * MAD_SCALE * spread;
        let kept: Vec<f64> = if spread > 0.0 {
            samples.iter().copied().filter(|x| (x - med).abs() <= cutoff).collect()
        } else {
            samples.to_vec()
        };
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in &kept {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        Summary { mad: mad(&kept, median(&kept)), min: lo, max: hi, count: kept.len() as u64 }
    }
}

/// Median of an unsorted slice (linear interpolation between the two
/// middle elements for even lengths). Returns 0 on empty input.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation around `center` (unscaled).
pub fn mad(xs: &[f64], center: f64) -> f64 {
    let devs: Vec<f64> = xs.iter().map(|x| (x - center).abs()).collect();
    median(&devs)
}

/// Times up to `opts.repeats` samples of `f`, after `opts.warmup` untimed
/// ones, and returns the per-invocation seconds. Each sample times a
/// calibrated batch of `k` invocations and reports the per-invocation mean
/// for that batch. `k` is chosen so a batch runs at least ~10 ms (clamped
/// to [1, 2²⁰]) — long enough to amortize timer granularity and scheduler
/// blips inside every sample. The budget is a soft cap: checked between
/// samples, never mid-batch, and never before `opts.min_repeats` samples.
pub fn measure_batched<F: FnMut()>(opts: &MeasureOpts, mut f: F) -> Vec<f64> {
    let sw = Stopwatch::start();
    f();
    let once = sw.elapsed_secs().max(1e-9);
    let k = ((1e-2 / once).ceil() as u64).clamp(1, 1 << 20);
    let batch = |f: &mut F| {
        let sw = Stopwatch::start();
        for _ in 0..k {
            f();
        }
        sw.elapsed_secs() / k as f64
    };
    for _ in 0..opts.warmup {
        batch(&mut f);
    }
    let total = Stopwatch::start();
    let mut samples = Vec::with_capacity(opts.repeats as usize);
    for i in 0..opts.repeats {
        samples.push(batch(&mut f));
        if i + 1 >= opts.min_repeats && total.elapsed() >= opts.budget {
            break;
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn summary_is_deterministic_on_fixed_samples() {
        let s = Summary::from_samples(&[10.0, 11.0, 9.0, 10.5, 10.0]);
        assert_eq!(s.mad, 0.5);
        assert_eq!((s.min, s.max), (9.0, 11.0));
        assert_eq!(s.count, 5);
        assert_eq!(s, Summary::from_samples(&[10.0, 11.0, 9.0, 10.5, 10.0]));
    }

    #[test]
    fn gross_outlier_is_rejected() {
        // A preempted run 50× the median must not drag the summary.
        let s = Summary::from_samples(&[10.0, 10.2, 9.8, 10.1, 9.9, 500.0]);
        assert_eq!(s.count, 5);
        assert_eq!(s.max, 10.2, "max {} should ignore the outlier", s.max);
        assert!(s.mad < 1.0, "mad {} should ignore the outlier", s.mad);
    }

    #[test]
    fn zero_mad_keeps_everything() {
        let s = Summary::from_samples(&[5.0, 5.0, 5.0, 5.0]);
        assert_eq!(s.count, 4);
        assert_eq!((s.min, s.max), (5.0, 5.0));
        assert_eq!(s.mad, 0.0);
    }

    #[test]
    fn measure_batched_reports_per_invocation_time() {
        let opts =
            MeasureOpts { warmup: 1, repeats: 5, budget: Duration::from_secs(60), min_repeats: 3 };
        let samples = measure_batched(&opts, || {
            std::hint::black_box((0..32u64).sum::<u64>());
        });
        assert_eq!(samples.len(), 5);
        // Per-invocation time of a 32-element sum is well under a second.
        assert!(samples.iter().all(|&s| s > 0.0 && s < 1.0));

        // A zero budget still yields min_repeats samples.
        let tight = MeasureOpts { budget: Duration::ZERO, ..opts };
        assert_eq!(measure_batched(&tight, || ()).len(), 3);
    }
}
