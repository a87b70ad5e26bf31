//! Live server metrics on top of the shared [`cqa_obs`] registry.
//!
//! Everything here is updated with relaxed atomics on the hot path — no
//! locks, no allocation — and read by the `stats` protocol command. Each
//! server instance owns its own [`Registry`] so embedded and test
//! deployments stay isolated from each other and from the process-global
//! registry the library crates record into. The same handles render to
//! both the `stats` JSON (the wire format clients parse back into a
//! [`MetricsSnapshot`]) and Prometheus text exposition.

use cqa_common::Json;
use cqa_obs::{Counter, Gauge, Histogram, Registry};

/// Counters for one server instance, registered in a per-instance
/// [`Registry`].
#[derive(Debug)]
pub struct Metrics {
    registry: Registry,
    /// Protocol requests accepted for processing (all commands).
    pub requests: Counter,
    /// `query` requests answered successfully.
    pub queries_ok: Counter,
    /// Requests rejected because the admission queue was full.
    pub rejected_overloaded: Counter,
    /// Requests that ran out of deadline.
    pub rejected_deadline: Counter,
    /// Malformed requests.
    pub rejected_bad_request: Counter,
    /// Unexpected server-side failures.
    pub errors_internal: Counter,
    /// Connections accepted over the listener's lifetime.
    pub connections: Counter,
    /// Query requests that arrived stamped `attempt > 0` — retries whose
    /// earlier attempts hit a transient fault the client retry layer
    /// absorbed.
    pub retried_requests: Counter,
    /// End-to-end latency of successful `query` requests, admission to
    /// response.
    pub query_latency: Histogram,
    /// Time a `query` request spent in the admission queue before a worker
    /// picked it up.
    pub queue_wait: Histogram,
    /// Requests tail-sampled into the flight recorder's slow/error log.
    pub slow_requests: Counter,
    /// Samples the most recent query drew: its response's `total_samples`,
    /// or the partial count of a budget error.
    pub last_request_samples: Gauge,
    /// The most recent query's terminal CI half-width, parts per million.
    pub last_request_ci_ppm: Gauge,
    /// Flight-recorder digests lost to ring wrap, mirrored from
    /// [`cqa_obs::flight`] at render time.
    flight_dropped: Gauge,
    /// Slow/error-log resident entries, mirrored at render time.
    slowlog_entries: Gauge,
    /// Synopsis-cache counters, mirrored from [`crate::cache::CacheStats`]
    /// at render time (the cache keeps its own atomics).
    cache_hits: Counter,
    cache_misses: Counter,
    cache_canonical_rekeys: Counter,
    cache_entries: Gauge,
    cache_evictions: Counter,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// A `stats` payload parsed on the client side ([`crate::Client::stats`]):
/// the flat wire fields [`Metrics::stats_json`] emits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Protocol requests accepted for processing.
    pub requests: u64,
    /// Successful `query` requests.
    pub queries_ok: u64,
    /// `overloaded` rejections.
    pub rejected_overloaded: u64,
    /// `deadline_exceeded` rejections.
    pub rejected_deadline: u64,
    /// `bad_request` rejections.
    pub rejected_bad_request: u64,
    /// `internal` errors.
    pub errors_internal: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Query requests that arrived stamped as retries (`attempt > 0`).
    pub retried_requests: u64,
    /// Successful-query latency count.
    pub latency_count: u64,
    /// Mean latency, milliseconds.
    pub latency_mean_ms: f64,
    /// Median latency, milliseconds (log-bucket upper edge).
    pub latency_p50_ms: f64,
    /// 95th-percentile latency, milliseconds.
    pub latency_p95_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub latency_p99_ms: f64,
    /// 99.9th-percentile latency, milliseconds.
    pub latency_p999_ms: f64,
    /// Requests tail-sampled into the slow/error log.
    pub slow_requests: u64,
    /// Samples the most recent query drew.
    pub last_request_samples: u64,
    /// The most recent query's terminal CI half-width, parts per million.
    pub last_request_ci_ppm: u64,
    /// Flight-recorder digests lost to ring wrap.
    pub flight_dropped: u64,
    /// Slow/error-log resident entries.
    pub slowlog_entries: u64,
    /// Synopsis-cache hits.
    pub cache_hits: u64,
    /// Synopsis-cache misses.
    pub cache_misses: u64,
    /// Cache hits whose literal query text differed from the inserting
    /// request's — hits only canonicalization made possible.
    pub cache_canonical_rekeys: u64,
    /// Synopsis-cache resident entries.
    pub cache_entries: usize,
    /// Synopsis-cache evictions.
    pub cache_evictions: u64,
}

impl Metrics {
    /// A fresh, zeroed metrics block with its own registry.
    pub fn new() -> Metrics {
        let registry = Registry::new();
        let requests = registry.counter(
            "server_requests_total",
            "Protocol requests accepted for processing (all commands).",
        );
        let queries_ok =
            registry.counter("server_queries_ok_total", "Query requests answered successfully.");
        let rejected_overloaded = registry.counter(
            "server_rejected_overloaded_total",
            "Requests rejected because the admission queue was full.",
        );
        let rejected_deadline = registry
            .counter("server_rejected_deadline_total", "Requests that ran out of deadline.");
        let rejected_bad_request =
            registry.counter("server_rejected_bad_request_total", "Malformed requests.");
        let errors_internal =
            registry.counter("server_errors_internal_total", "Unexpected server-side failures.");
        let connections = registry.counter(
            "server_connections_total",
            "Connections accepted over the listener's lifetime.",
        );
        let retried_requests = registry.counter(
            "server_retried_requests_total",
            "Query requests that arrived stamped as retries (attempt > 0).",
        );
        let query_latency = registry.histogram(
            "server_query_latency",
            "End-to-end latency of successful query requests, admission to response.",
        );
        let queue_wait = registry
            .histogram("server_queue_wait", "Time a query request spent in the admission queue.");
        let slow_requests = registry.counter(
            "server_slow_requests_total",
            "Requests tail-sampled into the flight recorder's slow/error log.",
        );
        let last_request_samples = registry
            .gauge("server_last_request_samples", "Samples the most recent query request drew.");
        let last_request_ci_ppm = registry.gauge(
            "server_last_request_ci_half_width_ppm",
            "The most recent query's terminal CI half-width, parts per million.",
        );
        let flight_dropped =
            registry.gauge("server_flight_dropped", "Flight-recorder digests lost to ring wrap.");
        let slowlog_entries =
            registry.gauge("server_slowlog_entries", "Slow/error-log resident entries.");
        let cache_hits = registry.counter("server_cache_hits_total", "Synopsis-cache hits.");
        let cache_misses = registry.counter("server_cache_misses_total", "Synopsis-cache misses.");
        let cache_canonical_rekeys = registry.counter(
            "server_cache_canonical_rekeys_total",
            "Cache hits under a different literal query text than the inserting request's.",
        );
        let cache_entries =
            registry.gauge("server_cache_entries", "Synopsis-cache resident entries.");
        let cache_evictions =
            registry.counter("server_cache_evictions_total", "Synopsis-cache evictions.");
        Metrics {
            registry,
            requests,
            queries_ok,
            rejected_overloaded,
            rejected_deadline,
            rejected_bad_request,
            errors_internal,
            connections,
            retried_requests,
            query_latency,
            queue_wait,
            slow_requests,
            last_request_samples,
            last_request_ci_ppm,
            flight_dropped,
            slowlog_entries,
            cache_hits,
            cache_misses,
            cache_canonical_rekeys,
            cache_entries,
            cache_evictions,
        }
    }

    /// Mirrors the cache's own counters and the flight recorder's
    /// process-global occupancy into the registry, so a render sees
    /// current values.
    fn sync(&self, cache: &crate::cache::CacheStats) {
        self.cache_hits.set(cache.hits);
        self.cache_misses.set(cache.misses);
        self.cache_canonical_rekeys.set(cache.canonical_rekeys);
        self.cache_entries.set(cache.entries as i64);
        self.cache_evictions.set(cache.evictions);
        self.flight_dropped.set(cqa_obs::flight::dropped_count().min(i64::MAX as u64) as i64);
        self.slowlog_entries.set(cqa_obs::flight::slowlog_len() as i64);
    }

    /// The `stats` JSON payload: the flat wire fields (parsed back by
    /// [`MetricsSnapshot::from_json`]) plus the full registry render under
    /// `"registry"`. Every flat field is read from the same handle the
    /// registry renders, so the two always agree.
    pub fn stats_json(&self, cache: &crate::cache::CacheStats) -> Json {
        // A nested fn (not a closure) so cqa-lint's call graph can see
        // through the call.
        fn gauge(g: &Gauge) -> Json {
            Json::from(g.get().max(0) as u64)
        }
        self.sync(cache);
        // One bucket snapshot for all four quantiles, so they are mutually
        // consistent even while workers keep recording.
        let latency_qs = self.query_latency.quantiles_ms(&[0.50, 0.95, 0.99, 0.999]);
        let fields = [
            ("requests", Json::from(self.requests.get())),
            ("queries_ok", Json::from(self.queries_ok.get())),
            ("rejected_overloaded", Json::from(self.rejected_overloaded.get())),
            ("rejected_deadline", Json::from(self.rejected_deadline.get())),
            ("rejected_bad_request", Json::from(self.rejected_bad_request.get())),
            ("errors_internal", Json::from(self.errors_internal.get())),
            ("connections", Json::from(self.connections.get())),
            ("retried_requests", Json::from(self.retried_requests.get())),
            ("latency_count", Json::from(self.query_latency.count())),
            ("latency_mean_ms", Json::from(self.query_latency.mean_ms())),
            ("latency_p50_ms", Json::from(latency_qs[0])),
            ("latency_p95_ms", Json::from(latency_qs[1])),
            ("latency_p99_ms", Json::from(latency_qs[2])),
            ("latency_p999_ms", Json::from(latency_qs[3])),
            ("slow_requests", Json::from(self.slow_requests.get())),
            ("last_request_samples", gauge(&self.last_request_samples)),
            ("last_request_ci_ppm", gauge(&self.last_request_ci_ppm)),
            ("flight_dropped", gauge(&self.flight_dropped)),
            ("slowlog_entries", gauge(&self.slowlog_entries)),
            ("cache_hits", Json::from(self.cache_hits.get())),
            ("cache_misses", Json::from(self.cache_misses.get())),
            ("cache_canonical_rekeys", Json::from(self.cache_canonical_rekeys.get())),
            ("cache_entries", gauge(&self.cache_entries)),
            ("cache_evictions", Json::from(self.cache_evictions.get())),
            ("registry", self.registry.to_json()),
        ];
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
    }

    /// The full registry in Prometheus text exposition format.
    pub fn to_prometheus(&self, cache: &crate::cache::CacheStats) -> String {
        self.sync(cache);
        self.registry.to_prometheus()
    }
}

impl MetricsSnapshot {
    /// Parses a `stats` payload received from a server. Unknown keys (such
    /// as the nested `registry` object) are ignored.
    pub fn from_json(v: &Json) -> cqa_common::Result<MetricsSnapshot> {
        // A nested fn (not a closure) so cqa-lint's call graph can see
        // through the call.
        fn int(v: &Json, key: &str) -> cqa_common::Result<u64> {
            v.get(key).and_then(Json::as_u64).ok_or_else(|| {
                cqa_common::CqaError::Parse(format!("stats missing integer field '{key}'"))
            })
        }
        Ok(MetricsSnapshot {
            requests: int(v, "requests")?,
            queries_ok: int(v, "queries_ok")?,
            rejected_overloaded: int(v, "rejected_overloaded")?,
            rejected_deadline: int(v, "rejected_deadline")?,
            rejected_bad_request: int(v, "rejected_bad_request")?,
            errors_internal: int(v, "errors_internal")?,
            connections: int(v, "connections")?,
            // Absent in payloads from servers predating the retry layer.
            retried_requests: v.get("retried_requests").and_then(Json::as_u64).unwrap_or(0),
            latency_count: int(v, "latency_count")?,
            latency_mean_ms: v.req_f64("latency_mean_ms")?,
            latency_p50_ms: v.req_f64("latency_p50_ms")?,
            latency_p95_ms: v.req_f64("latency_p95_ms")?,
            latency_p99_ms: v.req_f64("latency_p99_ms")?,
            // Absent in payloads from servers predating the p999 field.
            latency_p999_ms: v.get("latency_p999_ms").and_then(Json::as_f64).unwrap_or(0.0),
            // All five absent in payloads predating the flight recorder.
            slow_requests: v.get("slow_requests").and_then(Json::as_u64).unwrap_or(0),
            last_request_samples: v.get("last_request_samples").and_then(Json::as_u64).unwrap_or(0),
            last_request_ci_ppm: v.get("last_request_ci_ppm").and_then(Json::as_u64).unwrap_or(0),
            flight_dropped: v.get("flight_dropped").and_then(Json::as_u64).unwrap_or(0),
            slowlog_entries: v.get("slowlog_entries").and_then(Json::as_u64).unwrap_or(0),
            cache_hits: int(v, "cache_hits")?,
            cache_misses: int(v, "cache_misses")?,
            // Absent in payloads from servers predating canonicalization.
            cache_canonical_rekeys: v
                .get("cache_canonical_rekeys")
                .and_then(Json::as_u64)
                .unwrap_or(0),
            cache_entries: int(v, "cache_entries")? as usize,
            cache_evictions: int(v, "cache_evictions")?,
        })
    }

    /// Cache hit rate over lookups, 0 when untouched.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use std::time::Duration;

    /// The flat `stats` wire keys: exactly what clients parse.
    const FLAT_KEYS: [&str; 24] = [
        "requests",
        "queries_ok",
        "rejected_overloaded",
        "rejected_deadline",
        "rejected_bad_request",
        "errors_internal",
        "connections",
        "retried_requests",
        "latency_count",
        "latency_mean_ms",
        "latency_p50_ms",
        "latency_p95_ms",
        "latency_p99_ms",
        "latency_p999_ms",
        "slow_requests",
        "last_request_samples",
        "last_request_ci_ppm",
        "flight_dropped",
        "slowlog_entries",
        "cache_hits",
        "cache_misses",
        "cache_canonical_rekeys",
        "cache_entries",
        "cache_evictions",
    ];

    /// Flat fields and the registry metric each one reports.
    const REGISTRY_TWINS: [(&str, &str); 18] = [
        ("requests", "server_requests_total"),
        ("queries_ok", "server_queries_ok_total"),
        ("rejected_overloaded", "server_rejected_overloaded_total"),
        ("rejected_deadline", "server_rejected_deadline_total"),
        ("rejected_bad_request", "server_rejected_bad_request_total"),
        ("errors_internal", "server_errors_internal_total"),
        ("connections", "server_connections_total"),
        ("retried_requests", "server_retried_requests_total"),
        ("slow_requests", "server_slow_requests_total"),
        ("cache_hits", "server_cache_hits_total"),
        ("cache_misses", "server_cache_misses_total"),
        ("cache_canonical_rekeys", "server_cache_canonical_rekeys_total"),
        ("cache_entries", "server_cache_entries"),
        ("cache_evictions", "server_cache_evictions_total"),
        ("flight_dropped", "server_flight_dropped"),
        ("slowlog_entries", "server_slowlog_entries"),
        ("last_request_samples", "server_last_request_samples"),
        ("last_request_ci_ppm", "server_last_request_ci_half_width_ppm"),
    ];

    #[test]
    fn stats_json_roundtrips_through_the_client_parse() {
        let m = Metrics::new();
        // Distinct values, so a field read from the wrong handle shows.
        let counters = [
            &m.requests,
            &m.queries_ok,
            &m.rejected_overloaded,
            &m.rejected_deadline,
            &m.rejected_bad_request,
            &m.errors_internal,
            &m.connections,
            &m.retried_requests,
            &m.slow_requests,
        ];
        for (i, c) in (1u64..).zip(counters) {
            c.add(10 * i);
        }
        m.last_request_samples.set(1800);
        m.last_request_ci_ppm.set(11_000);
        for micros in [100u64, 200, 400, 800, 100_000] {
            m.query_latency.record(Duration::from_micros(micros));
        }
        let cache = CacheStats {
            hits: 4,
            misses: 1,
            canonical_rekeys: 2,
            entries: 3,
            evictions: 6,
            capacity: 8,
        };
        let v = m.stats_json(&cache);

        // The flat key set is pinned, plus the nested registry.
        let Json::Obj(obj) = &v else { panic!("stats payload is not an object: {v:?}") };
        let mut want: Vec<&str> = FLAT_KEYS.into_iter().chain(["registry"]).collect();
        want.sort_unstable();
        assert_eq!(obj.keys().map(String::as_str).collect::<Vec<_>>(), want);

        // Every flat field with a registry counterpart agrees with it.
        let reg = v.get("registry").expect("registry key");
        // The registry holds exactly the pinned names: every flat field's
        // twin plus the two histograms.
        let Json::Obj(reg_obj) = reg else { panic!("registry is not an object: {reg:?}") };
        let mut pinned: Vec<&str> = REGISTRY_TWINS.iter().map(|(_, name)| *name).collect();
        pinned.extend(["server_query_latency", "server_queue_wait"]);
        pinned.sort_unstable();
        assert_eq!(reg_obj.keys().map(String::as_str).collect::<Vec<_>>(), pinned);
        for (flat, name) in REGISTRY_TWINS {
            let got = v.get(flat).and_then(Json::as_f64);
            assert!(got.is_some(), "flat field {flat} missing");
            assert_eq!(got, reg.get(name).and_then(Json::as_f64), "{flat} vs {name}");
        }
        let lat = reg.get("server_query_latency").expect("latency histogram");
        assert_eq!(lat.get("count").and_then(Json::as_u64), Some(5));

        let parsed = MetricsSnapshot::from_json(&v).unwrap();
        let qs = m.query_latency.quantiles_ms(&[0.50, 0.95, 0.99, 0.999]);
        let expected = MetricsSnapshot {
            requests: 10,
            queries_ok: 20,
            rejected_overloaded: 30,
            rejected_deadline: 40,
            rejected_bad_request: 50,
            errors_internal: 60,
            connections: 70,
            retried_requests: 80,
            latency_count: 5,
            latency_mean_ms: m.query_latency.mean_ms(),
            latency_p50_ms: qs[0],
            latency_p95_ms: qs[1],
            latency_p99_ms: qs[2],
            latency_p999_ms: qs[3],
            slow_requests: 90,
            last_request_samples: 1800,
            last_request_ci_ppm: 11_000,
            // Process-global; pinned against the registry above.
            flight_dropped: parsed.flight_dropped,
            slowlog_entries: parsed.slowlog_entries,
            cache_hits: 4,
            cache_misses: 1,
            cache_canonical_rekeys: 2,
            cache_entries: 3,
            cache_evictions: 6,
        };
        assert_eq!(parsed, expected);
        assert_eq!(parsed.cache_hit_rate(), 0.8);
        assert!(parsed.latency_p999_ms >= parsed.latency_p99_ms && parsed.latency_p999_ms > 0.0);

        // Payloads from servers that predate the rekey counter or the
        // p999 field still parse, reading 0.
        let without = |key: &str| {
            let mut legacy = obj.clone();
            legacy.remove(key);
            MetricsSnapshot::from_json(&Json::Obj(legacy)).unwrap()
        };
        assert_eq!(without("cache_canonical_rekeys").cache_canonical_rekeys, 0);
        assert_eq!(without("latency_p999_ms").latency_p999_ms, 0.0);
    }

    #[test]
    fn prometheus_text_reflects_the_counters() {
        let m = Metrics::new();
        m.requests.add(9);
        m.connections.inc();
        m.query_latency.record(Duration::from_micros(100));
        let cache = CacheStats {
            hits: 5,
            misses: 3,
            canonical_rekeys: 2,
            entries: 3,
            evictions: 1,
            capacity: 8,
        };
        let text = m.to_prometheus(&cache);
        assert!(text.contains("# TYPE server_requests_total counter"), "{text}");
        assert!(text.contains("server_requests_total 9"), "{text}");
        assert!(text.contains("server_cache_hits_total 5"), "{text}");
        assert!(text.contains("server_cache_canonical_rekeys_total 2"), "{text}");
        assert!(text.contains("server_cache_entries 3"), "{text}");
        assert!(text.contains("# TYPE server_query_latency histogram"), "{text}");
        assert!(text.contains("server_query_latency_count 1"), "{text}");
        assert!(text.contains("server_query_latency_bucket{le=\"+Inf\"} 1"), "{text}");
    }
}
