//! The wire protocol: versioned, line-delimited JSON.
//!
//! Every request and response is one JSON object on one line. Requests
//! carry `"v": 1` (the protocol version) and `"cmd"`; unknown versions and
//! commands are rejected with a structured `bad_request` error rather than
//! a dropped connection. The full grammar:
//!
//! ```text
//! → {"v":1,"cmd":"query","query":"Q(n) :- r(k, n)","scheme":"klm",
//!    "eps":0.1,"delta":0.25,"timeout_ms":5000,"seed":42}
//! ← {"ok":true,"cached":false,"preprocess_ms":12.5,"scheme_ms":3.1,
//!    "total_samples":18000,"answers":[{"tuple":["Bob"],"frequency":0.5,
//!    "samples":9000}]}
//!
//! → {"v":1,"cmd":"stats"}
//! ← {"ok":true,"stats":{...cache/admission/latency counters...}}
//!
//! → {"v":1,"cmd":"stats","format":"prometheus"}
//! ← {"ok":true,"stats_text":"# TYPE server_requests_total counter\n..."}
//!
//! → {"v":1,"cmd":"trace"}
//! ← {"ok":true,"trace":[...Chrome trace_event objects...]}
//!
//! → {"v":1,"cmd":"ping"}
//! ← {"ok":true,"pong":true,"version":1}
//!
//! → {"v":1,"cmd":"debug","target":"flight"}
//! ← {"ok":true,"flight":[...per-request digests...],"dropped":0}
//!
//! → {"v":1,"cmd":"debug","target":"slowlog"}
//! ← {"ok":true,"slowlog":[...slow/error requests with span trees...]}
//!
//! ← {"ok":false,"error":"overloaded","retryable":true,
//!    "message":"admission queue full (depth 64)"}
//! ```
//!
//! Integers ride as JSON strings never — tuples carry ints as numbers and
//! strings as strings, so clients recover typed values without the schema.

use cqa_common::validate::{bounded_str, unit_open};
use cqa_common::{CqaError, Json, Result};
use cqa_core::Scheme;
use cqa_obs::{FlightDigest, SlowlogEntry};
use cqa_storage::Value;

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

/// The longest client-supplied request id, in bytes; a longer one is a
/// `bad_request`.
pub const MAX_REQUEST_ID_BYTES: usize = 32;

/// The longest request line the server reads, in bytes, newline excluded.
/// A longer line is answered with `bad_request` and discarded through its
/// newline without being buffered; the connection stays open. Requests
/// carry a query and a few scalars, so real lines are far shorter; the
/// bound keeps a line with no newline from growing a buffer without end.
/// A client's [`QueryRequest::request_id`] is bounded separately by
/// [`MAX_REQUEST_ID_BYTES`].
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// Parameters of a `query` request.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The conjunctive query, datalog syntax.
    pub query: String,
    /// Which approximation scheme to run.
    pub scheme: Scheme,
    /// Relative error ε.
    pub eps: f64,
    /// Uncertainty δ.
    pub delta: f64,
    /// Per-request deadline; `None` uses the server default.
    pub timeout_ms: Option<u64>,
    /// RNG seed; fixed seeds give identical answers however many queries
    /// the server runs at once.
    pub seed: u64,
    /// Client-supplied request id for the flight recorder, 1 to
    /// [`MAX_REQUEST_ID_BYTES`] bytes; `None` lets the server generate
    /// one.
    pub request_id: Option<String>,
    /// Which delivery attempt this is, 0 for the first. Retrying clients
    /// stamp their retries (1, 2, …) so the server can count absorbed
    /// transient faults (`server_retried_requests_total`); 0 is not
    /// serialized, so first attempts look exactly as before.
    pub attempt: u64,
}

impl Default for QueryRequest {
    fn default() -> Self {
        QueryRequest {
            query: String::new(),
            scheme: Scheme::Klm,
            eps: 0.1,
            delta: 0.25,
            timeout_ms: None,
            seed: 42,
            request_id: None,
            attempt: 0,
        }
    }
}

cqa_common::name_enum! {
    /// How a `stats` response should be rendered, by its wire `format`.
    pub enum StatsFormat {
        /// The structured JSON snapshot (the default).
        Json = "json",
        /// Prometheus text exposition, for scrape-style collection.
        Prometheus = "prometheus",
    }
}

cqa_common::name_enum! {
    /// Which flight-recorder dump a `debug` request asks for, by its wire
    /// `target`.
    pub enum DebugTarget {
        /// The per-request digest log.
        Flight = "flight",
        /// The slow/error log with full span trees.
        Slowlog = "slowlog",
    }
}

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run approximate CQA.
    Query(QueryRequest),
    /// Fetch server metrics.
    Stats {
        /// Rendering of the metrics payload.
        format: StatsFormat,
    },
    /// Dump the server's recorded trace events (Chrome `trace_event`
    /// objects); empty unless the server runs with tracing enabled.
    Trace,
    /// Dump the flight recorder (always on, unlike `trace`).
    Debug {
        /// Which recorder structure to dump.
        target: DebugTarget,
    },
    /// Liveness check.
    Ping,
}

impl Request {
    /// Serializes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Request::Query(q) => {
                let mut pairs = vec![
                    ("v", Json::from(PROTOCOL_VERSION)),
                    ("cmd", Json::str("query")),
                    ("query", Json::str(&q.query)),
                    ("scheme", Json::str(q.scheme.name().to_ascii_lowercase())),
                    ("eps", Json::from(q.eps)),
                    ("delta", Json::from(q.delta)),
                    ("seed", Json::from(q.seed)),
                ];
                if let Some(ms) = q.timeout_ms {
                    pairs.push(("timeout_ms", Json::from(ms)));
                }
                if let Some(id) = &q.request_id {
                    pairs.push(("request_id", Json::str(id)));
                }
                if q.attempt > 0 {
                    pairs.push(("attempt", Json::from(q.attempt)));
                }
                Json::obj(pairs)
            }
            Request::Stats { format } => {
                let mut pairs =
                    vec![("v", Json::from(PROTOCOL_VERSION)), ("cmd", Json::str("stats"))];
                if *format != StatsFormat::Json {
                    pairs.push(("format", Json::str(format.name())));
                }
                Json::obj(pairs)
            }
            Request::Trace => {
                Json::obj([("v", Json::from(PROTOCOL_VERSION)), ("cmd", Json::str("trace"))])
            }
            Request::Debug { target } => Json::obj([
                ("v", Json::from(PROTOCOL_VERSION)),
                ("cmd", Json::str("debug")),
                ("target", Json::str(target.name())),
            ]),
            Request::Ping => {
                Json::obj([("v", Json::from(PROTOCOL_VERSION)), ("cmd", Json::str("ping"))])
            }
        };
        v.to_string_compact()
    }

    /// Parses one protocol line.
    pub fn from_line(line: &str) -> Result<Request> {
        let v = Json::parse(line.trim())?;
        let version = v
            .get("v")
            .and_then(Json::as_u64)
            .ok_or_else(|| CqaError::Parse("missing protocol version 'v'".into()))?;
        if version != PROTOCOL_VERSION {
            return Err(CqaError::Parse(format!(
                "unsupported protocol version {version} (this server speaks {PROTOCOL_VERSION})"
            )));
        }
        match v.req_str("cmd")? {
            "query" => {
                let scheme: Scheme = match v.get("scheme") {
                    Some(s) => s
                        .as_str()
                        .ok_or_else(|| CqaError::Parse("non-string 'scheme'".into()))?
                        .parse()
                        .map_err(|e: CqaError| CqaError::Parse(e.to_string()))?,
                    None => Scheme::Klm,
                };
                // A nested fn (not a closure) so cqa-lint's call graph can
                // see through the call.
                fn num(v: &Json, key: &str, default: f64) -> Result<f64> {
                    match v.get(key) {
                        Some(n) => n
                            .as_f64()
                            .ok_or_else(|| CqaError::Parse(format!("non-numeric '{key}'"))),
                        None => Ok(default),
                    }
                }
                // The wire trust boundary (cqa_common::validate); the
                // `bad_requests_are_rejected` table pins each bound.
                let eps = unit_open("eps", num(&v, "eps", 0.1)?)?;
                let delta = unit_open("delta", num(&v, "delta", 0.25)?)?;
                let timeout_ms = match v.get("timeout_ms") {
                    Some(t) => Some(
                        t.as_u64()
                            .ok_or_else(|| CqaError::Parse("non-integer 'timeout_ms'".into()))?,
                    ),
                    None => None,
                };
                let seed = match v.get("seed") {
                    Some(s) => {
                        s.as_u64().ok_or_else(|| CqaError::Parse("non-integer 'seed'".into()))?
                    }
                    None => 42,
                };
                let request_id = match v.get("request_id") {
                    Some(r) => {
                        let id = r
                            .as_str()
                            .ok_or_else(|| CqaError::Parse("non-string 'request_id'".into()))?;
                        Some(bounded_str("request_id", id, MAX_REQUEST_ID_BYTES)?.to_owned())
                    }
                    None => None,
                };
                // Lenient: requests from clients predating the retry layer
                // simply have no 'attempt' and parse as a first attempt.
                let attempt = v.get("attempt").and_then(Json::as_u64).unwrap_or(0);
                Ok(Request::Query(QueryRequest {
                    query: v.req_str("query")?.to_owned(),
                    scheme,
                    eps,
                    delta,
                    timeout_ms,
                    seed,
                    request_id,
                    attempt,
                }))
            }
            "stats" => {
                let format = match v.get("format") {
                    None => StatsFormat::Json,
                    Some(f) => f.as_str().and_then(StatsFormat::from_name).ok_or_else(|| {
                        CqaError::Parse(format!(
                            "unknown stats format {f:?} (expected json or prometheus)"
                        ))
                    })?,
                };
                Ok(Request::Stats { format })
            }
            "trace" => Ok(Request::Trace),
            "debug" => {
                let name = v.req_str("target")?;
                let target = DebugTarget::from_name(name).ok_or_else(|| {
                    CqaError::Parse(format!(
                        "unknown debug target '{name}' (expected flight or slowlog)"
                    ))
                })?;
                Ok(Request::Debug { target })
            }
            "ping" => Ok(Request::Ping),
            other => Err(CqaError::Parse(format!("unknown command '{other}'"))),
        }
    }
}

cqa_common::name_enum! {
    /// Structured error categories a client can branch on, by their wire
    /// `error` name.
    pub enum ErrorKind {
        /// The admission queue is full; retry later.
        Overloaded = "overloaded",
        /// The request's deadline expired before the answer was ready.
        DeadlineExceeded = "deadline_exceeded",
        /// The request was malformed (bad JSON, unknown query relation, …).
        BadRequest = "bad_request",
        /// Unexpected server-side failure.
        Internal = "internal",
    }
}

impl ErrorKind {
    /// Whether a client may safely retry the same request as-is. Requests
    /// are stateless, so everything transient is retryable: `overloaded`
    /// (the queue will drain) and `internal` (the fault is not the
    /// request's doing). `bad_request` will fail identically forever, and
    /// `deadline_exceeded` means the budget is spent — retrying under the
    /// same deadline would just lose again.
    pub fn retryable(self) -> bool {
        match self {
            ErrorKind::Overloaded | ErrorKind::Internal => true,
            ErrorKind::DeadlineExceeded | ErrorKind::BadRequest => false,
        }
    }
}

/// One estimated answer on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireAnswer {
    /// The candidate tuple, as typed values.
    pub tuple: Vec<Value>,
    /// The approximated relative frequency.
    pub frequency: f64,
    /// Samples spent on this tuple.
    pub samples: u64,
}

/// A flight-recorder digest as a wire object. The query fingerprint rides
/// as 16 hex digits: `Json::Num` is an `f64`, and 64-bit fingerprints would
/// lose precision past 2^53.
fn digest_to_json(d: &FlightDigest) -> Json {
    let mut pairs = vec![
        ("request_id", Json::str(&d.request_id)),
        ("query_fp", Json::str(format!("{:016x}", d.query_fingerprint))),
        ("scheme", Json::str(d.scheme.as_ref())),
        ("cache_hit", Json::from(d.cache_hit)),
        ("queue_wait_us", Json::from(d.queue_wait_us)),
        ("samples", Json::from(d.samples)),
        ("variance", Json::from(d.variance)),
        ("ci_half_width", Json::from(d.ci_half_width)),
        ("preprocess_us", Json::from(d.preprocess_us)),
        ("scheme_us", Json::from(d.scheme_us)),
        ("total_us", Json::from(d.total_us)),
        ("ts_us", Json::from(d.ts_us)),
    ];
    if let Some(e) = &d.error {
        pairs.push(("error", Json::str(e.as_ref())));
    }
    Json::obj(pairs)
}

/// Parses one wire digest object, the inverse of [`digest_to_json`].
fn digest_from_json(v: &Json) -> Result<FlightDigest> {
    let query_fp = v.req_str("query_fp")?;
    Ok(FlightDigest {
        request_id: v.req_str("request_id")?.to_owned(),
        query_fingerprint: u64::from_str_radix(query_fp, 16)
            .map_err(|_| CqaError::Parse(format!("non-hex 'query_fp' {query_fp:?}")))?,
        scheme: v.req_str("scheme")?.to_owned().into(),
        cache_hit: v.req_bool("cache_hit")?,
        error: v.get("error").and_then(Json::as_str).map(|e| e.to_owned().into()),
        queue_wait_us: v.req_u64("queue_wait_us")?,
        samples: v.req_u64("samples")?,
        variance: v.req_f64("variance")?,
        ci_half_width: v.req_f64("ci_half_width")?,
        preprocess_us: v.req_u64("preprocess_us")?,
        scheme_us: v.req_u64("scheme_us")?,
        total_us: v.req_u64("total_us")?,
        ts_us: v.req_u64("ts_us")?,
    })
}

/// A slow/error-log entry as a wire object; its span tree is already
/// rendered JSON.
fn slowlog_to_json(e: &SlowlogEntry) -> Json {
    let mut pairs = vec![
        ("request_id", Json::str(&e.request_id)),
        ("total_us", Json::from(e.total_us)),
        ("ts_us", Json::from(e.ts_us)),
        ("spans", e.spans.clone()),
    ];
    if let Some(err) = &e.error {
        pairs.push(("error", Json::str(err.as_ref())));
    }
    Json::obj(pairs)
}

/// Parses one wire slow/error-log object, the inverse of
/// [`slowlog_to_json`].
fn slowlog_from_json(v: &Json) -> Result<SlowlogEntry> {
    Ok(SlowlogEntry {
        request_id: v.req_str("request_id")?.to_owned(),
        error: v.get("error").and_then(Json::as_str).map(|e| e.to_owned().into()),
        total_us: v.req_u64("total_us")?,
        ts_us: v.req_u64("ts_us")?,
        spans: v
            .get("spans")
            .filter(|s| s.as_arr().is_some())
            .cloned()
            .ok_or_else(|| CqaError::Parse("missing or non-array field 'spans'".into()))?,
    })
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A successful `query`.
    Answers {
        /// Whether the synopsis came from the cache.
        cached: bool,
        /// Preprocessing wall milliseconds (0 on a cache hit).
        preprocess_ms: f64,
        /// Approximation wall milliseconds.
        scheme_ms: f64,
        /// Total samples across all tuples.
        total_samples: u64,
        /// The estimated answers, ordered by tuple.
        answers: Vec<WireAnswer>,
    },
    /// A successful `stats` (an opaque metrics object).
    Stats(Json),
    /// A successful `stats` in a text rendering (Prometheus exposition).
    StatsText(String),
    /// A successful `trace`: an array of Chrome `trace_event` objects.
    Trace(Json),
    /// A successful `debug flight`: the digest log's contents.
    Flight {
        /// Recorded digests, completion-timestamp order.
        digests: Vec<FlightDigest>,
        /// Digests evicted past the log's capacity.
        dropped: u64,
    },
    /// A successful `debug slowlog`: the slow/error log, oldest first.
    Slowlog(Vec<SlowlogEntry>),
    /// A successful `ping`.
    Pong {
        /// The server's protocol version.
        version: u64,
    },
    /// A structured failure.
    Error {
        /// The category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Num(*i as f64),
        Value::Str(s) => Json::Str(s.clone()),
    }
}

fn json_to_value(j: Json) -> Result<Value> {
    match j {
        Json::Num(n) if n.fract() == 0.0 => Ok(Value::Int(n as i64)),
        Json::Str(s) => Ok(Value::Str(s)),
        other => Err(CqaError::Parse(format!("bad tuple cell {other:?}"))),
    }
}

impl Response {
    /// Serializes to one protocol line (no trailing newline).
    pub fn to_line(&self) -> String {
        let v = match self {
            Response::Answers { cached, preprocess_ms, scheme_ms, total_samples, answers } => {
                let rows: Vec<Json> = answers
                    .iter()
                    .map(|a| {
                        Json::obj([
                            ("tuple", Json::Arr(a.tuple.iter().map(value_to_json).collect())),
                            ("frequency", Json::from(a.frequency)),
                            ("samples", Json::from(a.samples)),
                        ])
                    })
                    .collect();
                Json::obj([
                    ("ok", Json::from(true)),
                    ("cached", Json::from(*cached)),
                    ("preprocess_ms", Json::from(*preprocess_ms)),
                    ("scheme_ms", Json::from(*scheme_ms)),
                    ("total_samples", Json::from(*total_samples)),
                    ("answers", Json::Arr(rows)),
                ])
            }
            Response::Stats(stats) => {
                Json::obj([("ok", Json::from(true)), ("stats", stats.clone())])
            }
            Response::StatsText(text) => {
                Json::obj([("ok", Json::from(true)), ("stats_text", Json::str(text.clone()))])
            }
            Response::Trace(events) => {
                Json::obj([("ok", Json::from(true)), ("trace", events.clone())])
            }
            Response::Flight { digests, dropped } => Json::obj([
                ("ok", Json::from(true)),
                ("flight", Json::Arr(digests.iter().map(digest_to_json).collect())),
                ("dropped", Json::from(*dropped)),
            ]),
            Response::Slowlog(entries) => Json::obj([
                ("ok", Json::from(true)),
                ("slowlog", Json::Arr(entries.iter().map(slowlog_to_json).collect())),
            ]),
            Response::Pong { version } => Json::obj([
                ("ok", Json::from(true)),
                ("pong", Json::from(true)),
                ("version", Json::from(*version)),
            ]),
            Response::Error { kind, message } => Json::obj([
                ("ok", Json::from(false)),
                ("error", Json::str(kind.name())),
                ("retryable", Json::from(kind.retryable())),
                ("message", Json::str(message.clone())),
            ]),
        };
        v.to_string_compact()
    }

    /// Parses one protocol line.
    pub fn from_line(line: &str) -> Result<Response> {
        let mut v = Json::parse(line.trim())?;
        if !v.req_bool("ok")? {
            let kind = ErrorKind::from_name(v.req_str("error")?)
                .ok_or_else(|| CqaError::Parse("unknown error kind".into()))?;
            return Ok(Response::Error { kind, message: v.req_str("message")?.to_owned() });
        }
        if v.get("pong").is_some() {
            return Ok(Response::Pong { version: v.req_u64("version")? });
        }
        if let Some(text) = v.get("stats_text") {
            let text =
                text.as_str().ok_or_else(|| CqaError::Parse("non-string 'stats_text'".into()))?;
            return Ok(Response::StatsText(text.to_owned()));
        }
        if let Some(stats) = v.get("stats") {
            return Ok(Response::Stats(stats.clone()));
        }
        if let Some(events) = v.get("trace") {
            return Ok(Response::Trace(events.clone()));
        }
        if let Some(rows) = v.get("flight") {
            let rows = rows.as_arr().ok_or_else(|| CqaError::Parse("non-array 'flight'".into()))?;
            let digests = rows.iter().map(digest_from_json).collect::<Result<Vec<_>>>()?;
            let dropped = v.req_u64("dropped")?;
            return Ok(Response::Flight { digests, dropped });
        }
        if let Some(rows) = v.get("slowlog") {
            let rows =
                rows.as_arr().ok_or_else(|| CqaError::Parse("non-array 'slowlog'".into()))?;
            let entries = rows.iter().map(slowlog_from_json).collect::<Result<Vec<_>>>()?;
            return Ok(Response::Slowlog(entries));
        }
        let cached = v.req_bool("cached")?;
        let preprocess_ms = v.req_f64("preprocess_ms")?;
        let scheme_ms = v.req_f64("scheme_ms")?;
        let total_samples = v.req_u64("total_samples")?;
        // The answers move out of the parsed tree, so no string cell is
        // copied on its way into a `Value`.
        let Some(Json::Arr(rows)) = v.remove("answers") else {
            return Err(CqaError::Parse("response missing 'answers'".into()));
        };
        let mut answers = Vec::with_capacity(rows.len());
        for mut row in rows {
            let frequency = row.req_f64("frequency")?;
            let samples = row.req_u64("samples")?;
            let Some(Json::Arr(cells)) = row.remove("tuple") else {
                return Err(CqaError::Parse("answer missing 'tuple'".into()));
            };
            let tuple = cells.into_iter().map(json_to_value).collect::<Result<Vec<_>>>()?;
            answers.push(WireAnswer { tuple, frequency, samples });
        }
        Ok(Response::Answers { cached, preprocess_ms, scheme_ms, total_samples, answers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_request_roundtrips() {
        let req = Request::Query(QueryRequest {
            query: "Q(n) :- employee(x, n, d)".into(),
            scheme: Scheme::Natural,
            eps: 0.2,
            delta: 0.1,
            timeout_ms: Some(750),
            seed: 7,
            request_id: Some("client-req-9".into()),
            attempt: 2,
        });
        let line = req.to_line();
        assert!(line.contains("\"v\":1"), "{line}");
        assert!(line.contains("\"request_id\":\"client-req-9\""), "{line}");
        assert!(line.contains("\"attempt\":2"), "{line}");
        assert_eq!(Request::from_line(&line).unwrap(), req);
    }

    #[test]
    fn attempt_is_optional_and_lenient() {
        // First attempts (0) are not serialized — the wire line looks
        // exactly as it did before the retry layer existed.
        let first =
            Request::Query(QueryRequest { query: "Q() :- r(x)".into(), ..Default::default() });
        assert!(!first.to_line().contains("attempt"), "{}", first.to_line());
        // And a line without the field parses as a first attempt.
        match Request::from_line(r#"{"v":1,"cmd":"query","query":"Q() :- r(x)"}"#).unwrap() {
            Request::Query(q) => assert_eq!(q.attempt, 0),
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn request_id_length_is_validated() {
        let ok = format!(
            r#"{{"v":1,"cmd":"query","query":"Q() :- r(x)","request_id":"{}"}}"#,
            "a".repeat(MAX_REQUEST_ID_BYTES)
        );
        assert!(Request::from_line(&ok).is_ok());
        for bad in ["".to_owned(), "a".repeat(MAX_REQUEST_ID_BYTES + 1)] {
            let line =
                format!(r#"{{"v":1,"cmd":"query","query":"Q() :- r(x)","request_id":"{bad}"}}"#);
            assert!(Request::from_line(&line).is_err(), "accepted id of {} bytes", bad.len());
        }
    }

    #[test]
    fn debug_requests_roundtrip() {
        for target in [DebugTarget::Flight, DebugTarget::Slowlog] {
            let req = Request::Debug { target };
            let line = req.to_line();
            assert!(line.contains(target.name()), "{line}");
            assert_eq!(Request::from_line(&line).unwrap(), req);
        }
        assert!(Request::from_line(r#"{"v":1,"cmd":"debug","target":"heap"}"#).is_err());
        assert!(Request::from_line(r#"{"v":1,"cmd":"debug"}"#).is_err());
    }

    #[test]
    fn request_defaults_apply() {
        let req = Request::from_line(r#"{"v":1,"cmd":"query","query":"Q() :- r(x)"}"#).unwrap();
        match req {
            Request::Query(q) => {
                assert_eq!(q.scheme, Scheme::Klm);
                assert_eq!(q.eps, 0.1);
                assert_eq!(q.delta, 0.25);
                assert_eq!(q.timeout_ms, None);
                assert_eq!(q.seed, 42);
            }
            other => panic!("wrong request {other:?}"),
        }
    }

    #[test]
    fn stats_ping_and_trace_roundtrip() {
        for req in [
            Request::Stats { format: StatsFormat::Json },
            Request::Stats { format: StatsFormat::Prometheus },
            Request::Trace,
            Request::Ping,
        ] {
            assert_eq!(Request::from_line(&req.to_line()).unwrap(), req);
        }
        // A format-less stats request defaults to JSON.
        assert_eq!(
            Request::from_line(r#"{"v":1,"cmd":"stats"}"#).unwrap(),
            Request::Stats { format: StatsFormat::Json }
        );
        assert!(Request::from_line(r#"{"v":1,"cmd":"stats","format":"xml"}"#).is_err());
    }

    #[test]
    fn bad_requests_are_rejected() {
        for line in [
            "",
            "not json",
            r#"{"cmd":"query"}"#,            // no version
            r#"{"v":2,"cmd":"ping"}"#,       // wrong version
            r#"{"v":1,"cmd":"frobnicate"}"#, // unknown command
            r#"{"v":1,"cmd":"query"}"#,      // no query text
            // One row per validated boundary: eps and delta lie in (0, 1)
            // and request_id is a string (its length bounds are pinned by
            // the request_id test above).
            r#"{"v":1,"cmd":"query","query":"Q() :- r(x)","eps":7}"#,
            r#"{"v":1,"cmd":"query","query":"Q() :- r(x)","eps":0}"#,
            r#"{"v":1,"cmd":"query","query":"Q() :- r(x)","eps":1}"#,
            r#"{"v":1,"cmd":"query","query":"Q() :- r(x)","delta":0}"#,
            r#"{"v":1,"cmd":"query","query":"Q() :- r(x)","delta":1}"#,
            r#"{"v":1,"cmd":"query","query":"Q() :- r(x)","delta":7}"#,
            r#"{"v":1,"cmd":"query","query":"Q() :- r(x)","request_id":7}"#,
            r#"{"v":1,"cmd":"query","query":"Q() :- r(x)","scheme":"fast"}"#,
            r#"{"v":1,"cmd":"query","query":"Q() :- r(x)","timeout_ms":-5}"#,
        ] {
            assert!(Request::from_line(line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn answers_response_roundtrips() {
        let resp = Response::Answers {
            cached: true,
            preprocess_ms: 0.0,
            scheme_ms: 12.25,
            total_samples: 4096,
            answers: vec![
                WireAnswer {
                    tuple: vec![Value::Int(3), Value::str("Bob")],
                    frequency: 0.5,
                    samples: 2048,
                },
                WireAnswer { tuple: vec![], frequency: 1.0, samples: 2048 },
            ],
        };
        assert_eq!(Response::from_line(&resp.to_line()).unwrap(), resp);
    }

    #[test]
    fn error_response_roundtrips() {
        for kind in [
            ErrorKind::Overloaded,
            ErrorKind::DeadlineExceeded,
            ErrorKind::BadRequest,
            ErrorKind::Internal,
        ] {
            let resp = Response::Error { kind, message: "detail".into() };
            let line = resp.to_line();
            assert!(line.contains(kind.name()));
            assert_eq!(Response::from_line(&line).unwrap(), resp);
        }
    }

    /// The `retryable` flag rides on every error envelope and is derived
    /// from the kind, so clients can branch without a kind table — and
    /// old payloads without the flag still parse (it is never required).
    #[test]
    fn error_envelope_carries_retryable() {
        for (kind, expect) in [
            (ErrorKind::Overloaded, true),
            (ErrorKind::Internal, true),
            (ErrorKind::DeadlineExceeded, false),
            (ErrorKind::BadRequest, false),
        ] {
            assert_eq!(kind.retryable(), expect, "{}", kind.name());
            let line = Response::Error { kind, message: "m".into() }.to_line();
            assert!(line.contains(&format!("\"retryable\":{expect}")), "{line}");
        }
        let old = r#"{"ok":false,"error":"overloaded","message":"queue full"}"#;
        match Response::from_line(old).unwrap() {
            Response::Error { kind, .. } => assert!(kind.retryable()),
            other => panic!("wrong response {other:?}"),
        }
    }

    #[test]
    fn pong_and_stats_roundtrip() {
        let pong = Response::Pong { version: PROTOCOL_VERSION };
        assert_eq!(Response::from_line(&pong.to_line()).unwrap(), pong);
        let stats = Response::Stats(Json::obj([("server_requests_total", Json::from(3u64))]));
        assert_eq!(Response::from_line(&stats.to_line()).unwrap(), stats);
    }

    #[test]
    fn stats_text_and_trace_roundtrip() {
        let text = Response::StatsText("# TYPE x counter\nx 3\n".to_owned());
        assert_eq!(Response::from_line(&text.to_line()).unwrap(), text);
        let trace = Response::Trace(Json::Arr(vec![Json::obj([
            ("name", Json::str("synopsis/build")),
            ("ph", Json::str("X")),
        ])]));
        assert_eq!(Response::from_line(&trace.to_line()).unwrap(), trace);
    }

    fn ok_digest() -> FlightDigest {
        FlightDigest {
            request_id: "client-abc".into(),
            query_fingerprint: u64::MAX - 3, // past 2^53: must survive
            scheme: "KLM".into(),
            cache_hit: true,
            error: None,
            queue_wait_us: 41,
            samples: 18_000,
            variance: 0.25,
            ci_half_width: 0.003,
            preprocess_us: 0,
            scheme_us: 1200,
            total_us: 1300,
            ts_us: 99,
        }
    }

    #[test]
    fn flight_response_roundtrips() {
        let ok = ok_digest();
        let failed = FlightDigest {
            request_id: "srv-0000000000000001".into(),
            cache_hit: false,
            error: Some("deadline_exceeded".into()),
            ..ok.clone()
        };
        let resp = Response::Flight { digests: vec![ok, failed], dropped: 7 };
        assert_eq!(Response::from_line(&resp.to_line()).unwrap(), resp);
    }

    #[test]
    fn slowlog_response_roundtrips() {
        let entry = SlowlogEntry {
            request_id: "slow-1".into(),
            error: Some("internal".into()),
            total_us: 2_000_000,
            ts_us: 5,
            spans: cqa_obs::flight::span_tree_json(&[cqa_obs::TraceEvent {
                name: "server/request",
                kind: cqa_obs::EventKind::Span,
                tid: 1,
                depth: 0,
                ts_micros: 1,
                dur_micros: 2_000_000,
                self_micros: 1_500_000,
                a0: 42,
                a1: 0,
            }]),
        };
        let resp = Response::Slowlog(vec![entry]);
        let line = resp.to_line();
        assert!(line.contains("\"spans\":"), "{line}");
        assert!(line.contains("server/request"), "{line}");
        assert_eq!(Response::from_line(&line).unwrap(), resp);
        // An empty slowlog still parses as a Slowlog, not as bad answers.
        let empty = Response::Slowlog(Vec::new());
        assert_eq!(Response::from_line(&empty.to_line()).unwrap(), empty);
    }

    /// Deletes `key` from the reply object, or with `within`, from the
    /// first element of the array under that key.
    fn delete_key(v: &mut Json, within: Option<&str>, key: &str) {
        let Json::Obj(top) = v else { panic!("reply is not an object: {v:?}") };
        let obj = match within {
            None => top,
            Some(arr) => match top.get_mut(arr) {
                Some(Json::Arr(rows)) => match rows.first_mut() {
                    Some(Json::Obj(row)) => row,
                    other => panic!("no object in '{arr}': {other:?}"),
                },
                other => panic!("no array '{arr}': {other:?}"),
            },
        };
        assert!(obj.remove(key).is_some(), "'{key}' was not written");
    }

    /// Client and server ship from one tree, so a field the server always
    /// writes is required on decode: a reply without it is an error that
    /// names the field, never a default.
    #[test]
    fn replies_missing_a_written_field_are_rejected() {
        let answers = Response::Answers {
            cached: true,
            preprocess_ms: 0.5,
            scheme_ms: 1.0,
            total_samples: 9,
            answers: vec![WireAnswer { tuple: vec![Value::Int(1)], frequency: 0.5, samples: 9 }],
        };
        let flight = Response::Flight { digests: vec![ok_digest()], dropped: 2 };
        let slowlog = Response::Slowlog(vec![SlowlogEntry {
            request_id: "slow-1".into(),
            error: None,
            total_us: 7,
            ts_us: 8,
            spans: Json::Arr(Vec::new()),
        }]);
        let error = Response::Error { kind: ErrorKind::Internal, message: "m".into() };
        let pong = Response::Pong { version: PROTOCOL_VERSION };
        for (resp, within, key) in [
            (&answers, None, "cached"),
            (&answers, None, "total_samples"),
            (&answers, Some("answers"), "samples"),
            (&flight, None, "dropped"),
            (&flight, Some("flight"), "cache_hit"),
            (&slowlog, Some("slowlog"), "spans"),
            (&error, None, "message"),
            (&pong, None, "version"),
        ] {
            let line = resp.to_line();
            assert_eq!(&Response::from_line(&line).unwrap(), resp);
            let mut v = Json::parse(&line).unwrap();
            delete_key(&mut v, within, key);
            let err = Response::from_line(&v.to_string_compact())
                .expect_err(&format!("decoded a reply without '{key}'"));
            assert!(err.to_string().contains(&format!("'{key}'")), "{key}: {err}");
        }
    }

    #[test]
    fn tuples_preserve_types() {
        let resp = Response::Answers {
            cached: false,
            preprocess_ms: 1.0,
            scheme_ms: 1.0,
            total_samples: 1,
            answers: vec![WireAnswer {
                tuple: vec![Value::Int(-42), Value::str("42")],
                frequency: 0.25,
                samples: 1,
            }],
        };
        match Response::from_line(&resp.to_line()).unwrap() {
            Response::Answers { answers, .. } => {
                assert_eq!(answers[0].tuple[0], Value::Int(-42));
                assert_eq!(answers[0].tuple[1], Value::str("42"));
            }
            other => panic!("wrong response {other:?}"),
        }
    }
}
