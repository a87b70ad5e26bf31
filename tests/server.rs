//! Cross-crate integration tests for the `cqa-server` daemon: a real
//! TCP round-trip on a loopback port, checked against the offline driver.

use cqa::common::Json;
use cqa::prelude::*;
use cqa::server::{ErrorKind, Response};
use cqa_noise::{add_query_aware_noise, NoiseSpec};

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

/// The offline driver's answers for one (scheme, seed), with tuples
/// resolved to concrete values for comparison against the wire format.
fn offline_answers(db: &Database, scheme: Scheme, seed: u64) -> Vec<(Vec<Value>, f64, u64)> {
    let q = parse(db.schema(), QUERY).unwrap();
    let mut rng = Mt64::new(seed);
    let res = apx_cqa(db, &q, scheme, 0.2, 0.25, &Budget::unbounded(), &mut rng).unwrap();
    res.answers
        .iter()
        .map(|te| (te.tuple.iter().map(|&d| db.resolve(d)).collect(), te.frequency, te.samples))
        .collect()
}

fn spawn_server(db: Database, workers: usize) -> cqa::server::ServerHandle {
    Server::bind(
        db,
        ServerConfig { addr: "127.0.0.1:0".into(), workers, ..ServerConfig::default() },
    )
    .unwrap()
    .spawn()
    .unwrap()
}

fn query_with_seed(client: &mut Client, seed: u64) -> Response {
    client
        .query(QueryRequest {
            query: QUERY.into(),
            eps: 0.2,
            delta: 0.25,
            seed,
            ..QueryRequest::default()
        })
        .unwrap()
}

#[test]
fn concurrent_clients_match_the_offline_driver() {
    let db = noisy_db(7);
    let expected: Vec<_> = (0..4u64).map(|s| offline_answers(&db, Scheme::Klm, s)).collect();
    assert!(
        expected[0].iter().any(|(_, f, _)| *f < 0.999),
        "noise should make some answers uncertain"
    );
    let handle = spawn_server(db, 3);
    let addr = handle.addr();
    std::thread::scope(|scope| {
        for (seed, want) in expected.iter().enumerate() {
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                match query_with_seed(&mut client, seed as u64) {
                    Response::Answers { answers, .. } => {
                        assert_eq!(answers.len(), want.len());
                        for (got, (tuple, freq, samples)) in answers.iter().zip(want) {
                            assert_eq!(&got.tuple, tuple);
                            assert_eq!(got.frequency, *freq, "bitwise-equal frequencies");
                            assert_eq!(got.samples, *samples);
                        }
                    }
                    other => panic!("expected answers, got {other:?}"),
                }
            });
        }
    });
}

#[test]
fn answers_are_independent_of_worker_pool_size() {
    let collect = |workers: usize| -> Vec<(Vec<Value>, f64)> {
        let handle = spawn_server(noisy_db(11), workers);
        let mut client = Client::connect(handle.addr()).unwrap();
        match query_with_seed(&mut client, 99) {
            Response::Answers { answers, .. } => {
                answers.into_iter().map(|a| (a.tuple, a.frequency)).collect()
            }
            other => panic!("expected answers, got {other:?}"),
        }
    };
    assert_eq!(collect(1), collect(4));
}

#[test]
fn repeat_query_hits_the_synopsis_cache() {
    let handle = spawn_server(noisy_db(13), 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    match query_with_seed(&mut client, 1) {
        Response::Answers { cached, .. } => assert!(!cached, "first query must build"),
        other => panic!("expected answers, got {other:?}"),
    }
    match query_with_seed(&mut client, 2) {
        Response::Answers { cached, preprocess_ms, .. } => {
            assert!(cached, "second identical query must hit the cache");
            assert_eq!(preprocess_ms, 0.0);
        }
        other => panic!("expected answers, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.cache_canonical_rekeys, 0, "same literal text is not a rekey");
    assert_eq!(stats.cache_entries, 1);
    assert_eq!(stats.queries_ok, 2);
    assert!(stats.latency_p50_ms > 0.0);
}

#[test]
fn alpha_equivalent_spellings_share_one_cache_entry() {
    let handle = spawn_server(noisy_db(23), 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    // Three spellings of QUERY: renamed variables, and (for the third) the
    // same atom written twice — all one canonical form.
    let spellings = [QUERY, "P(name) :- region(key, name)", "Q(b) :- region(a, b), region(a, b)"];
    let mut answers = Vec::new();
    for (i, text) in spellings.iter().enumerate() {
        let response = client
            .query(QueryRequest {
                query: (*text).into(),
                eps: 0.2,
                delta: 0.25,
                seed: 5,
                ..QueryRequest::default()
            })
            .unwrap();
        match response {
            Response::Answers { cached, answers: a, .. } => {
                assert_eq!(cached, i > 0, "only the first spelling builds: {text}");
                answers.push(a.into_iter().map(|w| (w.tuple, w.frequency)).collect::<Vec<_>>());
            }
            other => panic!("expected answers for {text}, got {other:?}"),
        }
    }
    assert_eq!(answers[0], answers[1], "same seed + same canonical query = same answers");
    assert_eq!(answers[0], answers[2]);
    let stats = client.stats().unwrap();
    assert_eq!(stats.cache_misses, 1, "one synopsis build serves all spellings");
    assert_eq!(stats.cache_hits, 2);
    assert_eq!(stats.cache_canonical_rekeys, 2, "both re-spelled hits were rekeys");
    assert_eq!(stats.cache_entries, 1);
}

#[test]
fn tiny_deadline_yields_a_structured_error() {
    let handle = spawn_server(noisy_db(17), 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client
        .query(QueryRequest { query: QUERY.into(), timeout_ms: Some(0), ..QueryRequest::default() })
        .unwrap();
    match response {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::DeadlineExceeded),
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.rejected_deadline, 1);
}

/// A line over the bound gets `bad_request` (here a 2 MiB ping, valid but
/// for its length), and the next request on the same connection is
/// answered.
#[test]
fn an_overlong_request_line_gets_bad_request_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};
    let handle = spawn_server(noisy_db(23), 1);
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let pad = "x".repeat(2 << 20);
    assert!(pad.len() > cqa::server::MAX_REQUEST_LINE_BYTES);
    write!(
        writer,
        "{{\"v\":1,\"cmd\":\"ping\",\"pad\":\"{pad}\"}}\n{{\"v\":1,\"cmd\":\"ping\"}}\n"
    )
    .unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    match Response::from_line(&reply).unwrap() {
        Response::Error { kind, message } => {
            assert_eq!(kind, ErrorKind::BadRequest);
            assert!(message.contains("longer than"), "{message}");
        }
        other => panic!("expected bad_request, got {other:?}"),
    }
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert_eq!(
        Response::from_line(&reply).unwrap(),
        Response::Pong { version: cqa::server::PROTOCOL_VERSION }
    );
}

#[test]
fn malformed_requests_get_bad_request_not_a_hangup() {
    let handle = spawn_server(noisy_db(19), 1);
    let mut client = Client::connect(handle.addr()).unwrap();
    let resp = client
        .query(QueryRequest { query: "Q() :- no_such_relation(x)".into(), ..Default::default() })
        .unwrap();
    match resp {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::BadRequest),
        other => panic!("expected bad_request, got {other:?}"),
    }
    // The connection survives and the server still answers.
    assert_eq!(client.ping().unwrap(), cqa::server::PROTOCOL_VERSION);
}

/// A request stopped by the sample cap keeps the samples it drew: its
/// flight digest reports the partial count, and the error message is the
/// budget error's own. One answer (a Boolean query) at ε = 0.1 needs more
/// than 100 samples in the stopping rule alone, so the cap fires at draw
/// 101.
#[test]
fn a_capped_request_keeps_its_samples_in_the_flight_digest() {
    const MAX_SAMPLES: u64 = 100;
    let handle = Server::bind(
        noisy_db(19),
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            max_samples: MAX_SAMPLES,
            ..ServerConfig::default()
        },
    )
    .unwrap()
    .spawn()
    .unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let response = client
        .query(QueryRequest {
            query: "Q() :- region(rk, rn)".into(),
            scheme: Scheme::Klm,
            seed: 3,
            request_id: Some("it-capped".into()),
            ..QueryRequest::default()
        })
        .unwrap();
    let Response::Error { kind: ErrorKind::DeadlineExceeded, message } = response else {
        panic!("expected deadline_exceeded, got {response:?}")
    };
    assert_eq!(message, "timed out during stopping rule");
    let (digests, _dropped) = client.debug_flight().unwrap();
    let digest = digests
        .iter()
        .find(|d| d.request_id == "it-capped")
        .unwrap_or_else(|| panic!("digest missing; got {digests:?}"));
    assert_eq!(digest.error.as_deref(), Some("deadline_exceeded"));
    assert_eq!(digest.samples, MAX_SAMPLES + 1, "the cap fires at draw {}", MAX_SAMPLES + 1);
    assert_eq!((digest.variance, digest.ci_half_width), (0.0, 0.0), "{digest:?}");
    // Errors are tail-sampled with their span tree, and with tracing off
    // that tree still holds the instant the cap fired at.
    let slowlog = client.debug_slowlog().unwrap();
    let entry = slowlog
        .iter()
        .find(|e| e.request_id == "it-capped")
        .unwrap_or_else(|| panic!("slowlog entry missing; got {slowlog:?}"));
    let Json::Arr(spans) = &entry.spans else { panic!("{entry:?}") };
    let names: Vec<&str> =
        spans.iter().filter_map(|s| s.get("name").and_then(Json::as_str)).collect();
    assert!(names.contains(&"core/sample_cap_hit"), "{names:?}");
}
