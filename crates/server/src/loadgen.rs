//! The closed-loop load generator behind `cqa-cli bench-serve` and the
//! `cqa-perf` server suite.
//!
//! `clients` threads each issue `requests` queries back-to-back against a
//! running server, after one warmup query outside the measured window (so
//! the numbers reflect steady-state serving, not the first preprocessing
//! run). The result is a structured [`LoadReport`] — client-side sorted
//! latencies plus the server's own [`MetricsSnapshot`] — that callers
//! render ([`LoadReport::render`]) or feed into perf recordings.

use crate::client::Client;
use crate::metrics::MetricsSnapshot;
use crate::protocol::{ErrorKind, QueryRequest, Response};
use cqa_common::{percentile, CqaError, Mt64, Result, Stopwatch};
use cqa_core::Scheme;

/// What to run: the target, the query, and the load shape.
#[derive(Debug, Clone)]
pub struct LoadSpec {
    /// Server address (`host:port`).
    pub addr: String,
    /// Query text to issue.
    pub query: String,
    /// Approximation scheme requested.
    pub scheme: Scheme,
    /// ε for every request.
    pub eps: f64,
    /// δ for every request.
    pub delta: f64,
    /// Concurrent closed-loop clients (min 1).
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Root seed; per-request seeds derive from it deterministically.
    pub seed: u64,
    /// Per-request timeout forwarded to the server.
    pub timeout_ms: Option<u64>,
    /// Rewrite every issued request as a fresh α-equivalent spelling
    /// (shuffled atoms, renamed variables): any cache hits are hits the
    /// canonical key earned.
    pub permute: bool,
}

/// Tallies from one client thread.
#[derive(Debug, Default, Clone)]
pub struct ClientTally {
    /// Latencies of successful requests, milliseconds (unsorted).
    pub latencies_ms: Vec<f64>,
    /// Successful requests.
    pub ok: usize,
    /// Successful requests served from the synopsis cache.
    pub cached: usize,
    /// `overloaded` rejections.
    pub overloaded: usize,
    /// `deadline_exceeded` rejections.
    pub deadline: usize,
    /// Any other error response.
    pub other_errors: usize,
}

/// The aggregated result of one load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Clients that ran.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Wall-clock seconds for the measured window.
    pub elapsed_secs: f64,
    /// Merged tallies; `latencies_ms` is sorted ascending.
    pub tally: ClientTally,
    /// The server's own metrics after the run (its latency histogram,
    /// cache hit rate, …).
    pub server: MetricsSnapshot,
}

impl LoadReport {
    /// Total requests issued.
    pub fn total_requests(&self) -> usize {
        self.clients * self.requests
    }

    /// Offered-load throughput over the measured window.
    pub fn throughput_rps(&self) -> f64 {
        self.total_requests() as f64 / self.elapsed_secs.max(1e-9)
    }

    /// Client-observed latency percentile (`q` in 0–100), 0 when no
    /// request succeeded.
    pub fn client_latency_ms(&self, q: f64) -> f64 {
        if self.tally.latencies_ms.is_empty() {
            0.0
        } else {
            percentile(&self.tally.latencies_ms, q)
        }
    }

    /// The human-readable report `cqa-cli bench-serve` prints.
    pub fn render(&self) -> String {
        let mut report = format!(
            "bench-serve: {} requests over {} clients in {:.2}s ({:.0} req/s)\n",
            self.total_requests(),
            self.clients,
            self.elapsed_secs,
            self.throughput_rps(),
        );
        report.push_str(&format!(
            "  ok {} (cached {}), overloaded {}, deadline_exceeded {}, other {}\n",
            self.tally.ok,
            self.tally.cached,
            self.tally.overloaded,
            self.tally.deadline,
            self.tally.other_errors
        ));
        if !self.tally.latencies_ms.is_empty() {
            report.push_str(&format!(
                "  client latency ms: p50 {:.2}, p95 {:.2}, p99 {:.2}\n",
                self.client_latency_ms(50.0),
                self.client_latency_ms(95.0),
                self.client_latency_ms(99.0),
            ));
        }
        report.push_str(&format!(
            "  server: {} queries ok, cache hit rate {:.1}% ({} hits / {} misses, \
             {} canonical rekeys), latency ms p50 {:.2}, p95 {:.2}, p99 {:.2}, p999 {:.2}",
            self.server.queries_ok,
            self.server.cache_hit_rate() * 100.0,
            self.server.cache_hits,
            self.server.cache_misses,
            self.server.cache_canonical_rekeys,
            self.server.latency_p50_ms,
            self.server.latency_p95_ms,
            self.server.latency_p99_ms,
            self.server.latency_p999_ms,
        ));
        report
    }
}

/// Runs the closed-loop load described by `spec` and aggregates the
/// result. Fails fast if the warmup query errors (bad query text never
/// produces a misleading all-errors report).
pub fn run_load(spec: &LoadSpec) -> Result<LoadReport> {
    let clients = spec.clients.max(1);
    let request_for = |text: &str, seed: u64| QueryRequest {
        query: text.to_owned(),
        scheme: spec.scheme,
        eps: spec.eps,
        delta: spec.delta,
        timeout_ms: spec.timeout_ms,
        seed,
        request_id: None,
        attempt: 0,
    };
    let spelled = |req_seed: u64| -> Result<String> {
        if spec.permute {
            cqa_query::permute_query_text(&spec.query, &mut Mt64::new(req_seed))
        } else {
            Ok(spec.query.clone())
        }
    };
    // Warm the synopsis cache outside the measured window.
    let mut warm = Client::connect(spec.addr.as_str())?;
    if let Response::Error { kind, message } = warm.query(request_for(&spec.query, spec.seed))? {
        return Err(CqaError::InvalidParameter(format!(
            "warmup query failed: {} ({message})",
            kind.name()
        )));
    }
    let wall = Stopwatch::start();
    let tallies: Vec<Result<ClientTally>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let request_for = &request_for;
                let spelled = &spelled;
                let addr = spec.addr.as_str();
                let requests = spec.requests;
                let seed = spec.seed;
                scope.spawn(move || -> Result<ClientTally> {
                    let mut client = Client::connect(addr)?;
                    let mut tally = ClientTally::default();
                    for i in 0..requests {
                        let req_seed = seed ^ ((c * requests + i) as u64).wrapping_mul(0x9E37);
                        let text = spelled(req_seed)?;
                        let sw = Stopwatch::start();
                        match client.query(request_for(&text, req_seed))? {
                            Response::Answers { cached, .. } => {
                                tally.latencies_ms.push(sw.elapsed_secs() * 1000.0);
                                tally.ok += 1;
                                tally.cached += cached as usize;
                            }
                            Response::Error { kind: ErrorKind::Overloaded, .. } => {
                                tally.overloaded += 1;
                            }
                            Response::Error { kind: ErrorKind::DeadlineExceeded, .. } => {
                                tally.deadline += 1;
                            }
                            _ => tally.other_errors += 1,
                        }
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    let elapsed_secs = wall.elapsed_secs();
    let mut all = ClientTally::default();
    for tally in tallies {
        let tally = tally?;
        all.latencies_ms.extend(tally.latencies_ms);
        all.ok += tally.ok;
        all.cached += tally.cached;
        all.overloaded += tally.overloaded;
        all.deadline += tally.deadline;
        all.other_errors += tally.other_errors;
    }
    #[expect(clippy::expect_used, reason = "latencies are elapsed times, never NaN")]
    all.latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
    let server = warm.stats()?;
    Ok(LoadReport { clients, requests: spec.requests, elapsed_secs, tally: all, server })
}
