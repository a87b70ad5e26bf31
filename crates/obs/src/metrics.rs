//! Metric handles: counters, gauges, and log₂ latency histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! around atomics; updating them is lock-free and allocation-free. They
//! carry no names: whoever owns them names and renders them (the server's
//! `stats` command renders its own fixed list).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at 0.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh gauge at 0.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Default)]
struct HistogramCore {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_micros: AtomicU64,
}

/// A fixed-bucket log₂ histogram of microsecond latencies.
///
/// Bucket `i` covers `[2^i, 2^{i+1})` µs (observations of 0 µs land in
/// bucket 0), which spans 1 µs to over an hour in 32 buckets with ≤ 2×
/// relative error on reported percentiles — the same trade
/// Prometheus-style exponential histograms make. The running sum
/// saturates at `u64::MAX` µs instead of wrapping, so the mean degrades
/// gracefully under absurd inputs rather than going backwards.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, latency: Duration) {
        self.record_micros(latency.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Records one observation given directly in microseconds.
    pub fn record_micros(&self, micros: u64) {
        let idx = (micros.max(1).ilog2() as usize).min(BUCKETS - 1);
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        saturating_fetch_add(&self.0.sum_micros, micros);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in microseconds (saturating).
    pub fn sum_micros(&self) -> u64 {
        self.0.sum_micros.load(Ordering::Relaxed)
    }

    /// Mean latency in milliseconds; 0 when empty.
    pub fn mean_ms(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        self.sum_micros() as f64 / count as f64 / 1000.0
    }

    /// Approximate `q`-quantiles (`0 < q ≤ 1`) in milliseconds, all from
    /// **one** relaxed bucket snapshot — the export hook for perf recorders
    /// and the stats renderers. Each value is the upper edge of the bucket
    /// containing the `⌈q·n⌉`-th observation, i.e. an overestimate by at
    /// most 2×. Empty histograms report 0, never NaN. Reading the snapshot
    /// once keeps the quantiles mutually consistent under concurrent
    /// recording: p99 is never below p50.
    pub fn quantiles_ms(&self, qs: &[f64]) -> Vec<f64> {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        qs.iter()
            .map(|&q| {
                if total == 0 {
                    return 0.0;
                }
                let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
                let mut seen = 0;
                for (i, &c) in counts.iter().enumerate() {
                    seen += c;
                    if seen >= rank {
                        return (1u64 << (i + 1)) as f64 / 1000.0;
                    }
                }
                (1u64 << BUCKETS) as f64 / 1000.0
            })
            .collect()
    }

    /// A relaxed snapshot of the per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        for (o, b) in out.iter_mut().zip(self.0.buckets.iter()) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }
}

/// Adds without wrapping: pins at `u64::MAX` on overflow.
fn saturating_fetch_add(cell: &AtomicU64, n: u64) {
    let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_add(n)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        for micros in [1u64, 3, 100, 1000, 100_000] {
            h.record(Duration::from_micros(micros));
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.quantiles_ms(&[1.0, 0.5]), [131.072, 0.128]);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let h = Histogram::new();
        // Duration::MAX is ~5.8e14 µs short of overflowing as_micros, but
        // far beyond u64::MAX µs, so record() clamps it to u64::MAX.
        h.record(Duration::MAX);
        assert_eq!(h.sum_micros(), u64::MAX);
        // A second observation must not wrap the sum back around zero.
        h.record(Duration::from_secs(1));
        assert_eq!(h.sum_micros(), u64::MAX, "sum wrapped on overflow");
        assert_eq!(h.count(), 2);
        assert!(h.mean_ms() > 1e12, "mean went backwards after overflow");
    }

    #[test]
    fn histogram_zero_duration_lands_in_bucket_zero() {
        let h = Histogram::new();
        h.record(Duration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum_micros(), 0);
        assert_eq!(h.bucket_counts()[0], 1);
        // Upper edge of bucket 0 is 2 µs.
        assert_eq!(h.quantiles_ms(&[1.0])[0], 0.002);
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn quantiles_ms_are_monotone_in_q() {
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record_micros(i);
        }
        let qs = [0.50, 0.95, 0.99, 0.999, 1.0];
        let batch = h.quantiles_ms(&qs);
        assert_eq!(batch.len(), qs.len());
        // Quantiles from one snapshot are monotone in q.
        for w in batch.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(Histogram::new().quantiles_ms(&qs).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn empty_histogram_quantiles_are_defined() {
        let h = Histogram::new();
        for q in [0.01, 0.5, 0.95, 0.99, 1.0] {
            let v = h.quantiles_ms(&[q])[0];
            assert!(v.is_finite() && v == 0.0, "q={q} gave {v}");
        }
        assert_eq!(h.mean_ms(), 0.0);
    }

    #[test]
    fn quantiles_within_2x_on_synthetic_distributions() {
        // Uniform 1..=1000 µs.
        let h = Histogram::new();
        for i in 1..=1000u64 {
            h.record_micros(i);
        }
        for (q, exact) in [(0.50, 500.0), (0.95, 950.0), (0.99, 990.0)] {
            let est = h.quantiles_ms(&[q])[0] * 1000.0;
            assert!(
                est >= exact && est <= 2.0 * exact,
                "uniform q={q}: estimate {est} µs vs exact {exact} µs"
            );
        }
        // The mean comes from the exact sum, not the buckets.
        assert!((h.mean_ms() - 0.5005).abs() < 1e-9, "uniform mean {} ms", h.mean_ms());
        // Geometric point masses at powers of two (worst case for log
        // buckets: every estimate sits exactly at an upper edge).
        let g = Histogram::new();
        for k in 0..10u32 {
            for _ in 0..100 {
                g.record_micros(1u64 << k);
            }
        }
        for q in [0.50f64, 0.95, 0.99] {
            let rank = (q * 1000.0).ceil() as u64;
            let exact = (1u64 << ((rank - 1) / 100)) as f64;
            let est = g.quantiles_ms(&[q])[0] * 1000.0;
            assert!(
                est >= exact && est <= 2.0 * exact,
                "geometric q={q}: estimate {est} µs vs exact {exact} µs"
            );
        }
    }
}
