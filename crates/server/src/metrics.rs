//! Live server metrics and their one render path.
//!
//! Everything here is updated with relaxed atomics on the hot path — no
//! locks, no allocation — and read by the `stats` protocol command. Each
//! server instance owns its own handles, so embedded and test deployments
//! stay isolated from each other. At render time one fixed row list reads
//! every metric once, from where it lives: the handles below, the cache's
//! own [`CacheStats`], and the process-global flight recorder. Both the
//! `stats` JSON (the wire format clients parse back into a
//! [`MetricsSnapshot`]) and Prometheus text exposition render those rows,
//! each metric under its one Prometheus name.

use crate::cache::CacheStats;
use cqa_common::Json;
use cqa_obs::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write;

/// Counters for one server instance.
#[derive(Debug, Default)]
pub struct Metrics {
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
    /// Time a `query` request waited for an admission permit before it
    /// ran.
    pub queue_wait: Histogram,
    /// Requests tail-sampled into the flight recorder's slow/error log.
    pub slow_requests: Counter,
    /// Samples the most recent query drew: its response's `total_samples`,
    /// or the partial count of a budget error.
    pub last_request_samples: Gauge,
    /// The most recent query's terminal CI half-width, parts per million.
    pub last_request_ci_ppm: Gauge,
}

/// A metric's value, read at render time.
#[derive(Debug)]
enum Reading<'a> {
    Counter(u64),
    Gauge(i64),
    Histogram(&'a Histogram),
}

/// One metric as `stats` renders it.
#[derive(Debug)]
struct Row<'a> {
    /// The Prometheus name, also the metric's `stats` JSON key.
    name: &'static str,
    /// The Prometheus `# HELP` text.
    help: &'static str,
    reading: Reading<'a>,
}

/// A [`Row`]. A plain fn, not a closure, so cqa-lint's call graph can see
/// through the call.
fn row<'a>(name: &'static str, help: &'static str, reading: Reading<'a>) -> Row<'a> {
    Row { name, help, reading }
}

/// A `stats` payload parsed on the client side ([`crate::Client::stats`]):
/// every metric [`Metrics::stats_json`] emits except the queue-wait
/// histogram.
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
    /// Flight-recorder digests evicted past the log's capacity.
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
    /// A fresh, zeroed metrics block.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Every metric, read now, in Prometheus render order.
    fn rows(&self, cache: &CacheStats) -> [Row<'_>; 20] {
        use Reading::{Counter, Gauge, Histogram};
        let dropped = cqa_obs::flight::dropped_count().min(i64::MAX as u64) as i64;
        [
            row(
                "server_requests_total",
                "Protocol requests accepted for processing (all commands).",
                Counter(self.requests.get()),
            ),
            row(
                "server_queries_ok_total",
                "Query requests answered successfully.",
                Counter(self.queries_ok.get()),
            ),
            row(
                "server_rejected_overloaded_total",
                "Requests rejected because the admission queue was full.",
                Counter(self.rejected_overloaded.get()),
            ),
            row(
                "server_rejected_deadline_total",
                "Requests that ran out of deadline.",
                Counter(self.rejected_deadline.get()),
            ),
            row(
                "server_rejected_bad_request_total",
                "Malformed requests.",
                Counter(self.rejected_bad_request.get()),
            ),
            row(
                "server_errors_internal_total",
                "Unexpected server-side failures.",
                Counter(self.errors_internal.get()),
            ),
            row(
                "server_connections_total",
                "Connections accepted over the listener's lifetime.",
                Counter(self.connections.get()),
            ),
            row(
                "server_retried_requests_total",
                "Query requests that arrived stamped as retries (attempt > 0).",
                Counter(self.retried_requests.get()),
            ),
            row(
                "server_query_latency",
                "End-to-end latency of successful query requests, admission to response.",
                Histogram(&self.query_latency),
            ),
            row(
                "server_queue_wait",
                "Time a query request spent in the admission queue.",
                Histogram(&self.queue_wait),
            ),
            row(
                "server_slow_requests_total",
                "Requests tail-sampled into the flight recorder's slow/error log.",
                Counter(self.slow_requests.get()),
            ),
            row(
                "server_last_request_samples",
                "Samples the most recent query request drew.",
                Gauge(self.last_request_samples.get()),
            ),
            row(
                "server_last_request_ci_half_width_ppm",
                "The most recent query's terminal CI half-width, parts per million.",
                Gauge(self.last_request_ci_ppm.get()),
            ),
            row(
                "server_flight_dropped",
                "Flight-recorder digests lost to ring wrap.",
                Gauge(dropped),
            ),
            row(
                "server_slowlog_entries",
                "Slow/error-log resident entries.",
                Gauge(cqa_obs::flight::slowlog_len() as i64),
            ),
            row("server_cache_hits_total", "Synopsis-cache hits.", Counter(cache.hits)),
            row("server_cache_misses_total", "Synopsis-cache misses.", Counter(cache.misses)),
            row(
                "server_cache_canonical_rekeys_total",
                "Cache hits under a different literal query text than the inserting request's.",
                Counter(cache.canonical_rekeys),
            ),
            row(
                "server_cache_entries",
                "Synopsis-cache resident entries.",
                Gauge(cache.entries as i64),
            ),
            row(
                "server_cache_evictions_total",
                "Synopsis-cache evictions.",
                Counter(cache.evictions),
            ),
        ]
    }

    /// The `stats` JSON payload: every metric keyed by its Prometheus
    /// name. A counter or gauge is a number; a histogram is one object
    /// with its count, sum and quantiles.
    pub fn stats_json(&self, cache: &CacheStats) -> Json {
        let mut out = BTreeMap::new();
        for Row { name, reading, .. } in self.rows(cache) {
            let value = match reading {
                Reading::Counter(v) => Json::from(v),
                Reading::Gauge(v) => Json::Num(v as f64),
                Reading::Histogram(h) => {
                    // One bucket snapshot for all four quantiles, so they
                    // are mutually consistent even while queries keep
                    // recording.
                    let [p50, p95, p99, p999] = h.quantiles_ms([0.50, 0.95, 0.99, 0.999]);
                    Json::obj([
                        ("count", Json::from(h.count())),
                        ("sum_micros", Json::from(h.sum_micros())),
                        ("mean_ms", Json::from(h.mean_ms())),
                        ("p50_ms", Json::from(p50)),
                        ("p95_ms", Json::from(p95)),
                        ("p99_ms", Json::from(p99)),
                        ("p999_ms", Json::from(p999)),
                    ])
                }
            };
            out.insert(name.to_owned(), value);
        }
        Json::Obj(out)
    }

    /// Every metric in the Prometheus text exposition format. Histogram
    /// buckets are emitted cumulatively with `le` in seconds.
    pub fn to_prometheus(&self, cache: &CacheStats) -> String {
        let mut out = String::new();
        for Row { name, help, reading, .. } in self.rows(cache) {
            // Writing to a String cannot fail.
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = match reading {
                Reading::Counter(v) => writeln!(out, "# TYPE {name} counter\n{name} {v}"),
                Reading::Gauge(v) => writeln!(out, "# TYPE {name} gauge\n{name} {v}"),
                Reading::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (i, c) in h.bucket_counts().iter().enumerate() {
                        cumulative += c;
                        let le = (1u64 << (i + 1)) as f64 / 1e6;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum_micros() as f64 / 1e6);
                    writeln!(out, "{name}_count {}", h.count())
                }
            };
        }
        out
    }
}

impl MetricsSnapshot {
    /// Parses a `stats` payload received from a server. Every key it
    /// reads is required; unknown keys are ignored.
    pub fn from_json(v: &Json) -> cqa_common::Result<MetricsSnapshot> {
        let latency = v.get("server_query_latency").ok_or_else(|| {
            cqa_common::CqaError::Parse("stats missing histogram 'server_query_latency'".into())
        })?;
        Ok(MetricsSnapshot {
            requests: v.req_u64("server_requests_total")?,
            queries_ok: v.req_u64("server_queries_ok_total")?,
            rejected_overloaded: v.req_u64("server_rejected_overloaded_total")?,
            rejected_deadline: v.req_u64("server_rejected_deadline_total")?,
            rejected_bad_request: v.req_u64("server_rejected_bad_request_total")?,
            errors_internal: v.req_u64("server_errors_internal_total")?,
            connections: v.req_u64("server_connections_total")?,
            retried_requests: v.req_u64("server_retried_requests_total")?,
            latency_count: latency.req_u64("count")?,
            latency_mean_ms: latency.req_f64("mean_ms")?,
            latency_p50_ms: latency.req_f64("p50_ms")?,
            latency_p95_ms: latency.req_f64("p95_ms")?,
            latency_p99_ms: latency.req_f64("p99_ms")?,
            latency_p999_ms: latency.req_f64("p999_ms")?,
            slow_requests: v.req_u64("server_slow_requests_total")?,
            last_request_samples: v.req_u64("server_last_request_samples")?,
            last_request_ci_ppm: v.req_u64("server_last_request_ci_half_width_ppm")?,
            flight_dropped: v.req_u64("server_flight_dropped")?,
            slowlog_entries: v.req_u64("server_slowlog_entries")?,
            cache_hits: v.req_u64("server_cache_hits_total")?,
            cache_misses: v.req_u64("server_cache_misses_total")?,
            cache_canonical_rekeys: v.req_u64("server_cache_canonical_rekeys_total")?,
            cache_entries: v.req_u64("server_cache_entries")? as usize,
            cache_evictions: v.req_u64("server_cache_evictions_total")?,
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
    use std::time::Duration;

    /// Cache counters with distinct values.
    const CACHE: CacheStats = CacheStats {
        hits: 4,
        misses: 1,
        canonical_rekeys: 2,
        entries: 3,
        evictions: 6,
        capacity: 8,
    };

    /// The row list's names are valid, unique Prometheus names with help
    /// text, and the `stats` JSON's top-level keys are exactly those names.
    #[test]
    fn stats_keys_are_the_rows_valid_prometheus_names() {
        let m = Metrics::new();
        let rows = m.rows(&CACHE);
        let mut names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        for r in &rows {
            assert!(!r.name.is_empty() && !r.help.is_empty(), "{r:?}");
            assert!(
                r.name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':'),
                "{} is not in the Prometheus charset [a-zA-Z0-9_:]",
                r.name
            );
        }
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "Prometheus names must be unique");

        let Json::Obj(obj) = m.stats_json(&CACHE) else { panic!("stats payload is not an object") };
        assert_eq!(obj.keys().map(String::as_str).collect::<Vec<_>>(), names);
    }

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
        m.queue_wait.record(Duration::from_micros(50));
        let v = m.stats_json(&CACHE);

        // A histogram is one object: count, sum and quantiles.
        let lat = v.get("server_query_latency").expect("latency histogram");
        let Json::Obj(lat_obj) = lat else { panic!("histogram is not an object: {lat:?}") };
        let summary = ["count", "mean_ms", "p50_ms", "p95_ms", "p999_ms", "p99_ms", "sum_micros"];
        assert_eq!(lat_obj.keys().map(String::as_str).collect::<Vec<_>>(), summary);
        assert_eq!(lat.get("sum_micros").and_then(Json::as_u64), Some(101_500));
        let wait = v.get("server_queue_wait").expect("queue-wait histogram");
        assert_eq!(wait.get("count").and_then(Json::as_u64), Some(1));

        let parsed = MetricsSnapshot::from_json(&v).unwrap();
        let qs = m.query_latency.quantiles_ms([0.50, 0.95, 0.99, 0.999]);
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
            // Process-global, read straight from the recorder.
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

        // Client and server ship from one tree, so every key the client
        // reads is required: a payload missing any one of them is a parse
        // error naming it. The client reads every metric but the queue
        // wait.
        let Json::Obj(obj) = &v else { panic!("stats payload is not an object: {v:?}") };
        for key in obj.keys().filter(|k| *k != "server_queue_wait") {
            let mut partial = obj.clone();
            partial.remove(key);
            let err = MetricsSnapshot::from_json(&Json::Obj(partial)).unwrap_err();
            assert!(err.to_string().contains(key.as_str()), "{key}: {err}");
        }
        for key in summary.into_iter().filter(|k| *k != "sum_micros") {
            let (mut partial, mut lat) = (obj.clone(), lat_obj.clone());
            lat.remove(key);
            partial.insert("server_query_latency".into(), Json::Obj(lat));
            let err = MetricsSnapshot::from_json(&Json::Obj(partial)).unwrap_err();
            assert!(err.to_string().contains(key), "{key}: {err}");
        }
    }

    #[test]
    fn prometheus_text_reflects_the_counters() {
        let m = Metrics::new();
        m.requests.add(9);
        m.connections.inc();
        m.query_latency.record(Duration::from_micros(100));
        m.query_latency.record(Duration::from_micros(3000));
        let text = m.to_prometheus(&CACHE);
        assert!(text.contains("# TYPE server_requests_total counter"), "{text}");
        assert!(text.contains("server_requests_total 9"), "{text}");
        assert!(text.contains("server_cache_hits_total 4"), "{text}");
        assert!(text.contains("server_cache_canonical_rekeys_total 2"), "{text}");
        assert!(
            text.contains("# TYPE server_cache_entries gauge\nserver_cache_entries 3"),
            "{text}"
        );
        assert!(text.contains("# TYPE server_query_latency histogram"), "{text}");
        assert!(text.contains("server_query_latency_count 2"), "{text}");
        assert!(text.contains("server_query_latency_sum 0.0031"), "{text}");
        assert!(text.contains("server_query_latency_bucket{le=\"+Inf\"} 2"), "{text}");
        // Buckets are cumulative: the 100 µs observation is counted again
        // in the bucket holding the 3000 µs one.
        assert!(text.contains("server_query_latency_bucket{le=\"0.004096\"} 2"), "{text}");
    }
}
