//! The chaos runner behind `cqa-cli chaos`.
//!
//! Spins up an in-process server, computes the offline driver's answers
//! for every request seed, arms a seeded [`cqa_chaos::FaultPlan`], and
//! replays closed-loop load through the retrying client. After the storm
//! it disarms and checks the reliability invariants from
//! `docs/RELIABILITY.md`:
//!
//! 1. **No abort** — the run completes; worker panics are contained by
//!    the pool and connection drops by the client's reconnect logic.
//! 2. **Every request resolves** — each request ends in an answer or a
//!    documented structured error envelope; a transport error that
//!    survives the whole retry budget is a violation.
//! 3. **Answers stay bit-identical** — every answer observed during the
//!    storm, and every post-chaos replay, matches the offline driver for
//!    that seed exactly. Faults may cost cache hits, never correctness.
//! 4. **Failures leave a trace** — when clients saw structured errors,
//!    the flight recorder holds error digests for them.
//!
//! The report is data ([`ChaosReport`]); `cqa-cli chaos` renders it and
//! exits nonzero when [`ChaosReport::passed`] is false.

use crate::client::Client;
use crate::metrics::MetricsSnapshot;
use crate::protocol::{ErrorKind, QueryRequest, Response, WireAnswer};
use crate::retry::{RetryPolicy, RetryingClient};
use crate::server::{Server, ServerConfig};
use cqa_chaos::{FaultPlan, PointCounts};
use cqa_common::{CqaError, Mt64, Result};
use cqa_core::{apx_cqa, Budget, Scheme};
use cqa_storage::{Database, Value};
use std::collections::BTreeMap;

/// What to run and what to inject.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Query text every request issues.
    pub query: String,
    /// Approximation scheme requested.
    pub scheme: Scheme,
    /// ε for every request.
    pub eps: f64,
    /// δ for every request.
    pub delta: f64,
    /// Concurrent closed-loop clients (min 1).
    pub clients: usize,
    /// Requests per client (min 1).
    pub requests: usize,
    /// Root seed: drives per-request seeds and retry jitter; the fault
    /// plan carries its own seed.
    pub seed: u64,
    /// Server worker threads (0 = one per CPU).
    pub workers: usize,
    /// The fault plan to arm for the storm window.
    pub plan: FaultPlan,
    /// Retry policy for the storm clients; the default is deliberately
    /// patient (deep attempt ceiling, long budget) so only a systemic
    /// failure — not an unlucky streak — exhausts it.
    pub retry: RetryPolicy,
}

impl ChaosSpec {
    /// A spec with harness defaults: KLM at ε=0.2 δ=0.25, 2×16 requests,
    /// 2 workers, and the patient retry policy.
    pub fn new(query: &str, plan: FaultPlan) -> ChaosSpec {
        ChaosSpec {
            query: query.to_owned(),
            scheme: Scheme::Klm,
            eps: 0.2,
            delta: 0.25,
            clients: 2,
            requests: 16,
            seed: plan.seed,
            workers: 2,
            plan,
            retry: RetryPolicy {
                max_attempts: 16,
                base_delay_ms: 5,
                cap_delay_ms: 200,
                budget_ms: 60_000,
            },
        }
    }
}

/// What one chaos run observed, plus any invariant violations.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Requests issued during the storm window.
    pub total_requests: usize,
    /// Requests that ended in answers bit-identical to the offline driver.
    pub answers_ok: usize,
    /// Requests that ended in a structured error envelope.
    pub structured_errors: usize,
    /// Final `overloaded` envelopes.
    pub overloaded: usize,
    /// Final `deadline_exceeded` envelopes.
    pub deadline: usize,
    /// Final `internal` envelopes.
    pub internal: usize,
    /// Final `bad_request` envelopes.
    pub bad_request: usize,
    /// Retry sleeps taken across all clients.
    pub retries: u64,
    /// Reconnects after transport failures across all clients.
    pub reconnects: u64,
    /// Flight-recorder digests with a structured error recorded.
    pub flight_error_digests: usize,
    /// Per-point hit and injection counters from the armed plan.
    pub points: Vec<PointCounts>,
    /// The server's metrics after the post-chaos verification pass.
    pub server: MetricsSnapshot,
    /// Reliability-invariant violations; empty means the run passed.
    pub violations: Vec<String>,
}

impl ChaosReport {
    /// Did every invariant hold?
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total faults injected across all points.
    pub fn injections(&self) -> u64 {
        self.points.iter().map(|p| p.injections).sum()
    }

    /// The human-readable report `cqa-cli chaos` prints.
    pub fn render(&self) -> String {
        let mut out = format!(
            "chaos: {} requests, {} answered bit-identical, {} structured errors \
             (overloaded {}, deadline {}, internal {}, bad_request {})\n",
            self.total_requests,
            self.answers_ok,
            self.structured_errors,
            self.overloaded,
            self.deadline,
            self.internal,
            self.bad_request,
        );
        out.push_str(&format!(
            "  client retries {}, reconnects {}; server saw {} retried requests; \
             flight recorded {} error digests\n",
            self.retries, self.reconnects, self.server.retried_requests, self.flight_error_digests,
        ));
        out.push_str("  injections by point:\n");
        for pc in &self.points {
            if pc.hits > 0 || pc.injections > 0 {
                out.push_str(&format!(
                    "    {:<20} {} injected / {} hits\n",
                    pc.point, pc.injections, pc.hits
                ));
            }
        }
        if self.passed() {
            out.push_str("  PASS: all reliability invariants held");
        } else {
            out.push_str(&format!("  FAIL: {} invariant violation(s)\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!("    - {v}\n"));
            }
            out.pop();
        }
        out
    }
}

/// One resolved offline answer: tuple values, frequency, sample count.
type OfflineAnswer = (Vec<Value>, f64, u64);

fn answers_match(got: &[WireAnswer], want: &[OfflineAnswer]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, (tuple, frequency, samples))| {
            &g.tuple == tuple && g.frequency == *frequency && g.samples == *samples
        })
}

/// Disarms the plan when dropped, so a panicking client thread cannot
/// leave the process armed for whatever runs next.
struct DisarmOnDrop;

impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        cqa_chaos::disarm();
    }
}

fn request_for(spec: &ChaosSpec, seed: u64) -> QueryRequest {
    QueryRequest {
        query: spec.query.clone(),
        scheme: spec.scheme,
        eps: spec.eps,
        delta: spec.delta,
        timeout_ms: None,
        seed,
        request_id: None,
        attempt: 0,
    }
}

/// What one storm client tallied.
#[derive(Debug, Default)]
struct ClientOutcome {
    answers_ok: usize,
    overloaded: usize,
    deadline: usize,
    internal: usize,
    bad_request: usize,
    retries: u64,
    reconnects: u64,
    violations: Vec<String>,
}

/// Runs the full chaos experiment: offline baseline, storm, post-chaos
/// verification. `Err` means the harness itself could not run (bad query,
/// bind failure, invalid plan); invariant violations land in the report.
pub fn run_chaos(db: Database, spec: &ChaosSpec) -> Result<ChaosReport> {
    let clients = spec.clients.max(1);
    let requests = spec.requests.max(1);
    let cq = cqa_query::parse(db.schema(), &spec.query)?;

    // The offline baseline: what a local driver run answers per seed.
    // Computed before the database moves into the server, and before any
    // fault is armed.
    let seed_for = |c: usize, i: usize| -> u64 {
        spec.seed ^ ((c * requests + i) as u64).wrapping_mul(0x9E37)
    };
    let mut expected: BTreeMap<u64, Vec<OfflineAnswer>> = BTreeMap::new();
    for c in 0..clients {
        for i in 0..requests {
            let seed = seed_for(c, i);
            if expected.contains_key(&seed) {
                continue;
            }
            let mut rng = Mt64::new(seed);
            let res = apx_cqa(
                &db,
                &cq,
                spec.scheme,
                spec.eps,
                spec.delta,
                &Budget::unbounded(),
                &mut rng,
            )?;
            let resolved = res
                .answers
                .iter()
                .map(|te| {
                    (te.tuple.iter().map(|&d| db.resolve(d)).collect(), te.frequency, te.samples)
                })
                .collect();
            expected.insert(seed, resolved);
        }
    }

    let config = ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: spec.workers,
        ..ServerConfig::default()
    };
    let bind_err = |e: std::io::Error| CqaError::Parse(format!("chaos server: {e}"));
    let mut handle = Server::bind(db, config).map_err(bind_err)?.spawn().map_err(bind_err)?;
    let addr = handle.addr().to_string();

    // Warm up outside the storm so the first preprocessing run (and the
    // dump already loaded by the caller) are not part of the experiment.
    // The warmup connection is not reused: its server thread may still be
    // between writing the reply and the `protocol/flush` probe when the
    // plan arms, and a fault there hangs the connection up.
    let warmup = Client::connect(addr.as_str())?.query(request_for(spec, spec.seed))?;
    if let Response::Error { kind, message } = warmup {
        return Err(CqaError::InvalidParameter(format!(
            "chaos warmup failed: {} ({message})",
            kind.name()
        )));
    }

    cqa_chaos::arm(&spec.plan).map_err(CqaError::InvalidParameter)?;
    let _disarm = DisarmOnDrop;
    let outcomes: Vec<ClientOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let spec = &*spec;
                let expected = &expected;
                let addr = addr.as_str();
                scope.spawn(move || -> ClientOutcome {
                    let mut out = ClientOutcome::default();
                    let jitter_seed = spec.seed ^ 0xC11E ^ c as u64;
                    let mut client =
                        match RetryingClient::connect(addr, spec.retry.clone(), jitter_seed) {
                            Ok(client) => client,
                            Err(e) => {
                                out.violations.push(format!("client {c} failed to connect: {e}"));
                                return out;
                            }
                        };
                    for i in 0..requests {
                        let seed = seed_for(c, i);
                        match client.query(&request_for(spec, seed)) {
                            Ok(Response::Answers { answers, .. }) => {
                                if answers_match(&answers, &expected[&seed]) {
                                    out.answers_ok += 1;
                                } else {
                                    out.violations.push(format!(
                                        "seed {seed:#x}: answers diverged from the offline \
                                         driver during chaos"
                                    ));
                                }
                            }
                            Ok(Response::Error { kind, .. }) => match kind {
                                ErrorKind::Overloaded => out.overloaded += 1,
                                ErrorKind::DeadlineExceeded => out.deadline += 1,
                                ErrorKind::Internal => out.internal += 1,
                                ErrorKind::BadRequest => {
                                    out.bad_request += 1;
                                    out.violations.push(format!(
                                        "seed {seed:#x}: bad_request for a known-good query"
                                    ));
                                }
                            },
                            Ok(other) => out
                                .violations
                                .push(format!("seed {seed:#x}: non-query response {other:?}")),
                            Err(e) => out.violations.push(format!(
                                "seed {seed:#x}: transport error survived the retry budget: {e}"
                            )),
                        }
                    }
                    out.retries = client.retries();
                    out.reconnects = client.reconnects();
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("chaos client thread panicked")).collect()
    });
    drop(_disarm);
    let points = cqa_chaos::counts();

    let mut report = ChaosReport {
        total_requests: clients * requests,
        answers_ok: 0,
        structured_errors: 0,
        overloaded: 0,
        deadline: 0,
        internal: 0,
        bad_request: 0,
        retries: 0,
        reconnects: 0,
        flight_error_digests: 0,
        points,
        server: MetricsSnapshot::default(),
        violations: Vec::new(),
    };
    for out in outcomes {
        report.answers_ok += out.answers_ok;
        report.overloaded += out.overloaded;
        report.deadline += out.deadline;
        report.internal += out.internal;
        report.bad_request += out.bad_request;
        report.retries += out.retries;
        report.reconnects += out.reconnects;
        report.violations.extend(out.violations);
    }
    report.structured_errors =
        report.overloaded + report.deadline + report.internal + report.bad_request;

    // Post-chaos verification, on a connection opened after disarming:
    // with faults off, every seed must answer — and answer
    // bit-identically. This is the cache-coherence check: a fault that
    // corrupted a cached synopsis would show up here.
    let mut observer = Client::connect(addr.as_str())?;
    for (&seed, want) in &expected {
        match observer.query(request_for(spec, seed)) {
            Ok(Response::Answers { answers, .. }) => {
                if !answers_match(&answers, want) {
                    report.violations.push(format!(
                        "seed {seed:#x}: post-chaos answers diverged from the offline driver \
                         (cache incoherent)"
                    ));
                }
            }
            Ok(other) => report
                .violations
                .push(format!("seed {seed:#x}: post-chaos non-answer response {other:?}")),
            Err(e) => {
                report.violations.push(format!("seed {seed:#x}: post-chaos transport error: {e}"))
            }
        }
    }

    let (digests, _dropped) = observer.debug_flight()?;
    report.flight_error_digests = digests.iter().filter(|d| d.error.is_some()).count();
    if report.structured_errors > report.bad_request && report.flight_error_digests == 0 {
        report.violations.push(
            "clients saw structured errors but the flight recorder holds no error digest"
                .to_owned(),
        );
    }
    report.server = observer.stats()?;
    handle.shutdown();
    Ok(report)
}
