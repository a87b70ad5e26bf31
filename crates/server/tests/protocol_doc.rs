//! The wire protocol and `docs/PROTOCOL.md` agree, both ways.
//!
//! One value of every [`Request`] and [`Response`] variant goes through the
//! protocol's own encoder and decoder, so the keys checked against the
//! document are the keys the server writes, and the decoder is shown to
//! read exactly those keys back. The document's error table must list
//! [`ErrorKind::ALL`], no more and no fewer.

use cqa_common::Json;
use cqa_core::Scheme;
use cqa_obs::flight::span_tree_json;
use cqa_obs::{EventKind, FlightDigest, SlowlogEntry, TraceEvent};
use cqa_server::{
    CacheStats, DebugTarget, ErrorKind, Metrics, QueryRequest, Request, Response, StatsFormat,
    WireAnswer, PROTOCOL_VERSION,
};
use cqa_storage::Value;
use std::collections::BTreeSet;

const DOC: &str = include_str!("../../../docs/PROTOCOL.md");

/// A live `stats` payload of a fresh server's metrics.
fn stats_payload() -> Json {
    let cache = CacheStats {
        hits: 1,
        misses: 2,
        canonical_rekeys: 1,
        entries: 1,
        evictions: 0,
        capacity: 8,
    };
    Metrics::new().stats_json(&cache)
}

/// One value of every request variant, every name-enum value and every
/// `Option` field set. Each arm builds the values of the next variant;
/// the match has no wildcard arm, so a new variant does not compile until
/// it has one.
fn requests() -> Vec<Request> {
    let mut out = vec![Request::Ping];
    loop {
        let next: Vec<Request> = match out.last().expect("starts non-empty") {
            Request::Ping => vec![Request::Trace],
            Request::Trace => {
                StatsFormat::ALL.iter().map(|&format| Request::Stats { format }).collect()
            }
            Request::Stats { .. } => {
                DebugTarget::ALL.iter().map(|&target| Request::Debug { target }).collect()
            }
            Request::Debug { .. } => vec![Request::Query(QueryRequest {
                query: "Q(n) :- r(k, n)".into(),
                scheme: Scheme::Cover,
                eps: 0.2,
                delta: 0.125,
                timeout_ms: Some(5000),
                seed: 7,
                request_id: Some("req-1".into()),
                attempt: 2,
            })],
            Request::Query(_) => return out,
        };
        out.extend(next);
    }
}

fn digest(error: Option<&'static str>) -> FlightDigest {
    FlightDigest {
        request_id: "req-1".into(),
        query_fingerprint: 0x9a3c_51b2_e7f0_0d44,
        scheme: "KLM".into(),
        cache_hit: error.is_none(),
        error: error.map(Into::into),
        queue_wait_us: 180,
        samples: 18_000,
        variance: 0.0625,
        ci_half_width: 0.0019,
        preprocess_us: 12_500,
        scheme_us: 3100,
        total_us: 15_900,
        ts_us: 1_723_108_000_000_000,
    }
}

/// One value of every response variant and every error kind, with every
/// list non-empty and an `error` on a digest and a slow-log entry. Built
/// like [`requests`].
fn responses() -> Vec<Response> {
    let mut out = vec![Response::Pong { version: PROTOCOL_VERSION }];
    loop {
        let next: Vec<Response> = match out.last().expect("starts non-empty") {
            Response::Pong { .. } => vec![Response::Stats(stats_payload())],
            Response::Stats(_) => vec![Response::StatsText("# TYPE x counter\nx 3\n".into())],
            Response::StatsText(_) => {
                vec![Response::Trace(Json::Arr(vec![Json::obj([("name", Json::str("x"))])]))]
            }
            Response::Trace(_) => vec![Response::Flight {
                digests: vec![digest(None), digest(Some("deadline_exceeded"))],
                dropped: 3,
            }],
            Response::Flight { .. } => {
                let request = TraceEvent {
                    name: "server/request",
                    kind: EventKind::Span,
                    tid: 1,
                    depth: 0,
                    ts_micros: 100,
                    dur_micros: 2_099_000,
                    self_micros: 4000,
                    a0: 18_000,
                    a1: 0,
                };
                let sampling = TraceEvent {
                    name: "server/sampling",
                    depth: 1,
                    ts_micros: 3000,
                    dur_micros: 2_095_000,
                    self_micros: 2_095_000,
                    ..request
                };
                vec![Response::Slowlog(vec![SlowlogEntry {
                    request_id: "req-9".into(),
                    error: Some("internal".into()),
                    total_us: 2_100_000,
                    ts_us: 1_723_108_000_000_000,
                    spans: span_tree_json(&[request, sampling]),
                }])]
            }
            Response::Slowlog(_) => vec![Response::Answers {
                cached: false,
                preprocess_ms: 12.5,
                scheme_ms: 3.125,
                total_samples: 18_000,
                answers: vec![WireAnswer {
                    tuple: vec![Value::str("Bob"), Value::Int(7)],
                    frequency: 0.5,
                    samples: 9000,
                }],
            }],
            Response::Answers { .. } => ErrorKind::ALL
                .iter()
                .map(|&kind| Response::Error { kind, message: "queue full".into() })
                .collect(),
            Response::Error { .. } => return out,
        };
        out.extend(next);
    }
}

/// Adds the object keys of `v` to `out`, without descending into the
/// opaque `stats` and `trace` payloads.
fn wire_keys(v: &Json, out: &mut BTreeSet<String>) {
    match v {
        Json::Obj(map) => {
            for (key, value) in map {
                out.insert(key.clone());
                if key != "stats" && key != "trace" {
                    wire_keys(value, out);
                }
            }
        }
        Json::Arr(items) => items.iter().for_each(|item| wire_keys(item, out)),
        _ => {}
    }
}

/// Every key the document shows as `"key":`, in examples and prose alike.
fn doc_keys() -> BTreeSet<String> {
    let is_key = |s: &str| {
        !s.is_empty()
            && s.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    let parts: Vec<&str> = DOC.split('"').collect();
    parts
        .windows(2)
        .filter(|w| is_key(w[0]) && w[1].trim_start_matches([' ', '\t']).starts_with(':'))
        .map(|w| w[0].to_owned())
        .collect()
}

#[test]
fn every_variant_roundtrips_through_its_line() {
    for request in requests() {
        let line = request.to_line();
        assert_eq!(Request::from_line(&line).unwrap(), request, "{line}");
    }
    for response in responses() {
        let line = response.to_line();
        assert_eq!(Response::from_line(&line).unwrap(), response, "{line}");
    }
}

#[test]
fn encoded_keys_and_documented_keys_agree() {
    let mut encoded = BTreeSet::new();
    let (requests, responses) = (requests(), responses());
    let lines = requests.iter().map(Request::to_line);
    for line in lines.chain(responses.iter().map(Response::to_line)) {
        wire_keys(&Json::parse(&line).unwrap(), &mut encoded);
    }
    let documented = doc_keys();
    let undocumented: Vec<&String> = encoded.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "keys the encoder writes but PROTOCOL.md never shows as \"key\": {undocumented:?}"
    );

    // The `stats` keys are written by the metrics rows, not the encoder,
    // so a live payload's keys, histogram fields included, count as
    // produced too.
    let mut produced = encoded;
    wire_keys(&stats_payload(), &mut produced);
    let stale: Vec<&String> = documented.difference(&produced).collect();
    assert!(stale.is_empty(), "keys PROTOCOL.md documents but nothing produces: {stale:?}");
}

#[test]
fn error_table_lists_every_error_kind() {
    let section = DOC.split("\n## Error handling\n").nth(1).expect("an Error handling section");
    let section = section.split("\n#").next().unwrap_or(section);
    let documented: BTreeSet<&str> = section
        .lines()
        .filter_map(|row| Some(row.strip_prefix("| `")?.split_once('`')?.0))
        .collect();
    let kinds: BTreeSet<&str> = ErrorKind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(kinds, documented, "ErrorKind::ALL vs the error table's first column");
}
