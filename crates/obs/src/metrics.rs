//! A label-free metrics registry: named counters, gauges, and log₂
//! latency histograms, registered once and rendered to JSON or Prometheus
//! text exposition format.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! around atomics; updating them is lock-free and allocation-free. The
//! registry itself is only locked at registration and render time.
//! Registration is idempotent by name: asking for an existing name of the
//! same kind returns a handle to the same underlying metric (so call-site
//! `OnceLock` caching and repeated registration agree), while a kind
//! mismatch panics — that is a programming error, not a runtime condition.

use cqa_common::Json;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Duration;

const BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter (mostly for tests).
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

    /// Overwrites the value — for mirroring a counter maintained elsewhere
    /// (e.g. cache statistics) into the registry just before rendering.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
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
    /// A fresh, unregistered gauge.
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

    /// Folds another histogram's observations into this one — per-worker
    /// histograms aggregate into a global one this way. `other` is read
    /// with relaxed loads; concurrent recording into `other` may or may
    /// not be captured, as with any snapshot.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.0.buckets.iter().zip(other.0.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.0.count.fetch_add(other.0.count.load(Ordering::Relaxed), Ordering::Relaxed);
        saturating_fetch_add(&self.0.sum_micros, other.0.sum_micros.load(Ordering::Relaxed));
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

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    help: String,
    handle: Handle,
}

/// A named collection of metrics, rendered to JSON or Prometheus text.
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_list().entries(entries.iter().map(|e| (&e.name, e.handle.kind()))).finish()
    }
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Registers `fresh` under `name`, or retrieves the existing handle.
    /// (Takes the handle by value — constructing an unused one is two atomic
    /// allocations at startup, and it keeps this call transparent to
    /// cqa-lint's call graph, unlike a `make` closure.)
    fn register(&self, name: &str, help: &str, fresh: Handle) -> Handle {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = entries.iter().find(|e| e.name == name) {
            let handle = e.handle.clone();
            assert!(
                std::mem::discriminant(&handle) == std::mem::discriminant(&fresh),
                "metric '{name}' already registered as a {}, requested as a {}",
                handle.kind(),
                fresh.kind()
            );
            return handle;
        }
        entries.push(Entry { name: name.to_owned(), help: help.to_owned(), handle: fresh.clone() });
        fresh
    }

    /// Registers (or retrieves) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        match self.register(name, help, Handle::Counter(Counter::new())) {
            Handle::Counter(c) => c,
            // cqa-lint: allow(no-panic-in-request-path): register() asserts the stored discriminant matches the requested kind, so this arm is dead
            _ => unreachable!(),
        }
    }

    /// Registers (or retrieves) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, Handle::Gauge(Gauge::new())) {
            Handle::Gauge(g) => g,
            // cqa-lint: allow(no-panic-in-request-path): register() asserts the stored discriminant matches the requested kind, so this arm is dead
            _ => unreachable!(),
        }
    }

    /// Registers (or retrieves) a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        match self.register(name, help, Handle::Histogram(Histogram::new())) {
            Handle::Histogram(h) => h,
            // cqa-lint: allow(no-panic-in-request-path): register() asserts the stored discriminant matches the requested kind, so this arm is dead
            _ => unreachable!(),
        }
    }

    /// Renders every metric as one JSON object. Counters and gauges are
    /// plain numbers; histograms are nested objects with count, sum, mean,
    /// and the standard percentiles.
    pub fn to_json(&self) -> Json {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut obj = std::collections::BTreeMap::new();
        for e in entries.iter() {
            let v = match &e.handle {
                Handle::Counter(c) => Json::from(c.get()),
                Handle::Gauge(g) => Json::Num(g.get() as f64),
                Handle::Histogram(h) => {
                    let qs = h.quantiles_ms(&[0.50, 0.95, 0.99]);
                    Json::obj([
                        ("count", Json::from(h.count())),
                        ("sum_micros", Json::from(h.sum_micros())),
                        ("mean_ms", Json::from(h.mean_ms())),
                        ("p50_ms", Json::from(qs[0])),
                        ("p95_ms", Json::from(qs[1])),
                        ("p99_ms", Json::from(qs[2])),
                    ])
                }
            };
            obj.insert(e.name.clone(), v);
        }
        Json::Obj(obj)
    }

    /// Renders every metric in the Prometheus text exposition format.
    /// Histogram buckets are emitted cumulatively with `le` in seconds.
    pub fn to_prometheus(&self) -> String {
        let entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for e in entries.iter() {
            let name = sanitize(&e.name);
            if !e.help.is_empty() {
                out.push_str(&format!("# HELP {name} {}\n", e.help));
            }
            match &e.handle {
                Handle::Counter(c) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {}\n", c.get()));
                }
                Handle::Gauge(g) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {}\n", g.get()));
                }
                Handle::Histogram(h) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let counts = h.bucket_counts();
                    let mut cumulative = 0u64;
                    for (i, c) in counts.iter().enumerate() {
                        cumulative += c;
                        let le = (1u64 << (i + 1)) as f64 / 1e6;
                        out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count()));
                    out.push_str(&format!("{name}_sum {}\n", h.sum_micros() as f64 / 1e6));
                    out.push_str(&format!("{name}_count {}\n", h.count()));
                }
            }
        }
        out
    }
}

/// Maps a metric name onto the Prometheus charset `[a-zA-Z0-9_:]`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

/// The process-wide registry library crates record into (the scheme and
/// synopsis counters). Servers keep their own [`Registry`] per instance so
/// embedded/test deployments stay isolated.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn merge_preserves_count_sum_and_buckets(
            xs in prop::collection::vec(0u64..2_000_000, 0..40),
            ys in prop::collection::vec(0u64..2_000_000, 0..40),
        ) {
            let a = Histogram::new();
            let b = Histogram::new();
            let combined = Histogram::new();
            for &x in &xs {
                a.record_micros(x);
                combined.record_micros(x);
            }
            for &y in &ys {
                b.record_micros(y);
                combined.record_micros(y);
            }
            a.merge(&b);
            prop_assert_eq!(a.count(), combined.count());
            prop_assert_eq!(a.sum_micros(), combined.sum_micros());
            prop_assert_eq!(a.bucket_counts(), combined.bucket_counts());
        }
    }

    #[test]
    fn registry_is_idempotent_by_name() {
        let r = Registry::new();
        let c1 = r.counter("requests_total", "requests");
        let c2 = r.counter("requests_total", "requests");
        c1.inc();
        c2.add(2);
        assert_eq!(c1.get(), 3, "same name must share the underlying counter");
        let g = r.gauge("depth", "queue depth");
        g.set(-4);
        assert_eq!(g.get(), -4);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        r.counter("m", "");
        r.gauge("m", "");
    }

    #[test]
    fn renders_json_and_prometheus() {
        let r = Registry::new();
        let c = r.counter("requests_total", "Requests accepted.");
        let g = r.gauge("queue.depth", "Live queue depth.");
        let h = r.histogram("latency", "Request latency.");
        c.add(7);
        g.set(3);
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(3000));

        let json = r.to_json();
        assert_eq!(json.get("requests_total").and_then(Json::as_u64), Some(7));
        assert_eq!(json.get("queue.depth").and_then(Json::as_f64), Some(3.0));
        let hist = json.get("latency").unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(2));
        assert!(hist.req_f64("p50_ms").unwrap() > 0.0);

        let prom = r.to_prometheus();
        assert!(prom.contains("# TYPE requests_total counter"), "{prom}");
        assert!(prom.contains("requests_total 7"), "{prom}");
        assert!(prom.contains("# TYPE queue_depth gauge"), "{prom}");
        assert!(prom.contains("queue_depth 3"), "{prom}");
        assert!(prom.contains("# TYPE latency histogram"), "{prom}");
        assert!(prom.contains("latency_bucket{le=\"+Inf\"} 2"), "{prom}");
        assert!(prom.contains("latency_count 2"), "{prom}");
        assert!(prom.contains("latency_sum 0.0031"), "{prom}");
        // Buckets are cumulative: the 100 µs observation is counted again
        // in the bucket holding the 3000 µs one.
        assert!(prom.contains("latency_bucket{le=\"0.004096\"} 2"), "{prom}");
        // Round-trip through the parser used by the integration tests.
        assert!(Json::parse(&json.to_string_compact()).is_ok());
    }
}
