//! Chaos-suite integration tests: seeded fault plans replayed against a
//! real in-process server, asserting the reliability invariants from
//! `docs/RELIABILITY.md` — no abort, every request resolves, answers stay
//! bit-identical to the offline driver, failures leave a flight-recorder
//! trace.
//!
//! Fault injection is process-global state, so every test here holds
//! `CHAOS_LOCK` for its full body; other test binaries are other
//! processes and never see these plans.

use cqa::chaos::{FaultKind, FaultPlan, FaultRule, Point, Trigger};
use cqa::prelude::*;
use cqa::server::{run_chaos, ChaosSpec, ErrorKind, Response};
use cqa_noise::{add_query_aware_noise, NoiseSpec};
use std::sync::Mutex;
use std::time::Duration;

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

const QUERY: &str = "Q(rn) :- region(rk, rn)";

/// A small inconsistent TPC-H-like instance; deterministic in `seed`.
fn noisy_db(seed: u64) -> Database {
    let base = cqa_tpch::generate(cqa_tpch::TpchConfig { scale: 0.0003, seed });
    let q = parse(base.schema(), QUERY).unwrap();
    let mut rng = Mt64::new(seed);
    let (noisy, _) =
        add_query_aware_noise(&base, &q, NoiseSpec { p: 1.0, lmin: 2, umax: 3 }, &mut rng).unwrap();
    noisy
}

fn spec(plan: FaultPlan, clients: usize, requests: usize) -> ChaosSpec {
    let mut spec = ChaosSpec::new(QUERY, plan);
    spec.clients = clients;
    spec.requests = requests;
    spec
}

/// The ISSUE's acceptance run: every fault point erroring at once, and
/// every invariant still holding.
#[test]
fn all_points_error_plan_keeps_every_invariant() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = FaultPlan::preset("all-points-error", 42).unwrap();
    let report = run_chaos(noisy_db(7), &spec(plan, 2, 8)).unwrap();
    assert!(report.passed(), "violations: {:#?}", report.violations);
    assert!(report.injections() > 0, "the plan must actually inject: {:#?}", report.points);
    assert_eq!(
        report.answers_ok + report.structured_errors,
        report.total_requests,
        "every request resolves to an answer or a documented structured error"
    );
    // Errors were injected server-side, so the flight recorder must have
    // captured failures even though clients retried them away.
    assert!(report.flight_error_digests > 0, "flight recorder saw no failure");
}

/// The smoke plan's transients (submit rejections, failed writes,
/// cache-lock delays) are all absorbed by the retrying client: no request
/// ends in an error envelope.
#[test]
fn smoke_plan_leaves_no_structured_errors_after_retries() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = FaultPlan::preset("smoke", 42).unwrap();
    let report = run_chaos(noisy_db(7), &spec(plan, 2, 8)).unwrap();
    assert!(report.passed(), "violations: {:#?}", report.violations);
    assert!(report.injections() > 0, "the plan must actually inject: {:#?}", report.points);
    assert_eq!(report.structured_errors, 0, "retries must absorb every injected transient");
}

/// Injected delays slow requests down but never change outcomes.
#[test]
fn all_points_delay_plan_only_costs_latency() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = FaultPlan::preset("all-points-delay", 11).unwrap();
    let report = run_chaos(noisy_db(7), &spec(plan, 2, 6)).unwrap();
    assert!(report.passed(), "violations: {:#?}", report.violations);
    assert!(report.injections() > 0);
    assert_eq!(report.answers_ok, report.total_requests, "delays must not fail requests");
}

/// One permit, one waiter slot. While a query holds the permit (an
/// injected delay at `pool/handoff` keeps it there), of two more
/// concurrent queries one waits and the other is shed `overloaded`; the
/// two that ran answer bit-identically to the offline driver.
#[test]
fn a_held_permit_queues_one_request_and_sheds_the_next() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let db = noisy_db(7);
    let q = parse(db.schema(), QUERY).unwrap();
    let expected: Vec<Vec<(Vec<Value>, f64, u64)>> = (0..3u64)
        .map(|seed| {
            let mut rng = Mt64::new(seed);
            let res = apx_cqa(&db, &q, Scheme::Klm, 0.2, 0.25, &Budget::unbounded(), &mut rng);
            let answers = res.unwrap().answers;
            answers
                .iter()
                .map(|te| {
                    (te.tuple.iter().map(|&d| db.resolve(d)).collect(), te.frequency, te.samples)
                })
                .collect()
        })
        .collect();
    let config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_depth: 1,
        ..ServerConfig::default()
    };
    let handle = Server::bind(db, config).unwrap().spawn().unwrap();
    let mut clients: Vec<Client> =
        (0..3).map(|_| Client::connect(handle.addr()).unwrap()).collect();
    let query = |client: &mut Client, seed: u64| {
        let request = QueryRequest {
            query: QUERY.into(),
            eps: 0.2,
            delta: 0.25,
            seed,
            ..QueryRequest::default()
        };
        client.query(request).unwrap()
    };
    let handoff_delay = FaultPlan {
        seed: 1,
        rules: vec![FaultRule {
            point: Some(Point::PoolHandoff),
            kind: FaultKind::Delay { ms: 1_000 },
            trigger: Trigger::NthHit(1),
        }],
    };
    cqa::chaos::arm(&handoff_delay).unwrap();
    let responses: Vec<Response> = std::thread::scope(|s| {
        let mut clients = clients.iter_mut().zip(0u64..);
        let (holder, seed) = clients.next().unwrap();
        let holder = s.spawn(move || query(holder, seed));
        // The first query reaches `pool/handoff` only once it holds the
        // permit; the delay then parks it there.
        let handoffs = || {
            let counts = cqa::chaos::counts();
            counts.iter().find(|c| c.point == "pool/handoff").map_or(0, |c| c.hits)
        };
        let start = std::time::Instant::now();
        while handoffs() == 0 {
            assert!(start.elapsed() < Duration::from_secs(10), "the first query never ran");
            std::thread::sleep(Duration::from_millis(1));
        }
        let rest: Vec<_> = clients.map(|(c, seed)| s.spawn(move || query(c, seed))).collect();
        std::iter::once(holder).chain(rest).map(|h| h.join().unwrap()).collect()
    });
    cqa::chaos::disarm();
    let mut shed = 0;
    for (seed, response) in responses.iter().enumerate() {
        match response {
            Response::Answers { answers, .. } => {
                let got: Vec<_> =
                    answers.iter().map(|a| (a.tuple.clone(), a.frequency, a.samples)).collect();
                assert_eq!(got, expected[seed], "seed {seed} diverged from the offline driver");
            }
            Response::Error { kind: ErrorKind::Overloaded, message } => {
                assert_eq!(message, "admission queue full (depth 1)");
                assert!(seed > 0, "the permit holder must not be shed");
                shed += 1;
            }
            other => panic!("seed {seed}: unexpected response {other:?}"),
        }
    }
    assert_eq!(shed, 1, "exactly one request finds the wait list full: {responses:#?}");
}

/// A panic while a query runs is contained on its connection thread: the
/// client sees a structured `internal` error (retryable) and the server
/// keeps serving.
#[test]
fn worker_panic_is_contained_and_retried() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = FaultPlan::preset("worker-panic", 42).unwrap();
    // One client: the server sees a deterministic query sequence, so the
    // nth-hit trigger fires on a fixed schedule.
    let report = run_chaos(noisy_db(7), &spec(plan, 1, 12)).unwrap();
    assert!(report.passed(), "violations: {:#?}", report.violations);
    assert!(report.injections() > 0, "nth-hit panics must fire: {:#?}", report.points);
    assert!(report.retries > 0, "panicked requests come back as retryable internal errors");
    assert!(report.server.retried_requests > 0, "the server must see stamped retries");
}

/// Torn writes produce unparseable half-lines; the client reconnects and
/// retries until it gets a whole answer.
#[test]
fn short_writes_force_reconnects_not_failures() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let plan = FaultPlan::preset("short-write", 42).unwrap();
    let report = run_chaos(noisy_db(7), &spec(plan, 1, 12)).unwrap();
    assert!(report.passed(), "violations: {:#?}", report.violations);
    assert!(report.injections() > 0, "short writes must fire: {:#?}", report.points);
    assert!(report.reconnects > 0, "a torn line must tear down the connection");
    assert_eq!(report.answers_ok, report.total_requests, "retries absorb every torn write");
}

/// The one fault point outside the serving path: a dump-load fault
/// surfaces as a structured parse error, and clears with the plan.
#[test]
fn dump_load_fault_is_a_structured_error() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("cqa_chaos_dump_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db.dump");
    cqa_storage::dump_to_file(&noisy_db(3), &path).unwrap();
    let plan = FaultPlan {
        seed: 1,
        rules: vec![FaultRule {
            point: Some(Point::StorageDumpLoad),
            kind: FaultKind::Error,
            trigger: Trigger::NthHit(1),
        }],
    };
    cqa::chaos::arm(&plan).unwrap();
    let err = cqa_storage::load_from_file(&path).unwrap_err();
    cqa::chaos::disarm();
    assert!(
        err.to_string().contains("injected fault at storage/dump_load"),
        "unexpected error: {err}"
    );
    let db = cqa_storage::load_from_file(&path).unwrap();
    assert!(db.fact_count() > 0, "disarmed loads must succeed");
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir(&dir).ok();
}
