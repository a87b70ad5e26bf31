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
//! ← {"ok":true,"stats":{...cache/pool/latency counters...}}
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
//! ← {"ok":false,"error":"overloaded","message":"queue full (depth 64)"}
//! ```
//!
//! Integers ride as JSON strings never — tuples carry ints as numbers and
//! strings as strings, so clients recover typed values without the schema.

use cqa_common::validate::{bounded_str, unit_open};
use cqa_common::{CqaError, Json, Result};
use cqa_core::Scheme;
use cqa_obs::flight::{FlightDigest, SlowlogEntry, MAX_REQUEST_ID_BYTES};
use cqa_obs::TraceEvent;
use cqa_storage::Value;

/// The protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 1;

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
    /// RNG seed; fixed seeds give identical answers regardless of the
    /// server's worker-pool size.
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

/// How a `stats` response should be rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsFormat {
    /// The structured JSON snapshot (the default).
    #[default]
    Json,
    /// Prometheus text exposition, for scrape-style collection.
    Prometheus,
}

/// Which flight-recorder dump a `debug` request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DebugTarget {
    /// The per-request digest ring.
    Flight,
    /// The slow/error log with full span trees.
    Slowlog,
}

impl DebugTarget {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            DebugTarget::Flight => "flight",
            DebugTarget::Slowlog => "slowlog",
        }
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
                if *format == StatsFormat::Prometheus {
                    pairs.push(("format", Json::str("prometheus")));
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
                    Some(f) => match f.as_str() {
                        Some("json") => StatsFormat::Json,
                        Some("prometheus") => StatsFormat::Prometheus,
                        _ => {
                            return Err(CqaError::Parse(format!(
                                "unknown stats format {f:?} (expected json or prometheus)"
                            )))
                        }
                    },
                };
                Ok(Request::Stats { format })
            }
            "trace" => Ok(Request::Trace),
            "debug" => match v.req_str("target")? {
                "flight" => Ok(Request::Debug { target: DebugTarget::Flight }),
                "slowlog" => Ok(Request::Debug { target: DebugTarget::Slowlog }),
                other => Err(CqaError::Parse(format!(
                    "unknown debug target '{other}' (expected flight or slowlog)"
                ))),
            },
            "ping" => Ok(Request::Ping),
            other => Err(CqaError::Parse(format!("unknown command '{other}'"))),
        }
    }
}

/// Structured error categories a client can branch on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The admission queue is full; retry later.
    Overloaded,
    /// The request's deadline expired before the answer was ready.
    DeadlineExceeded,
    /// The request was malformed (bad JSON, unknown query relation, …).
    BadRequest,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Internal => "internal",
        }
    }

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

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<ErrorKind> {
        match name {
            "overloaded" => Some(ErrorKind::Overloaded),
            "deadline_exceeded" => Some(ErrorKind::DeadlineExceeded),
            "bad_request" => Some(ErrorKind::BadRequest),
            "internal" => Some(ErrorKind::Internal),
            _ => None,
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

/// One flight-recorder digest on the wire. Mirrors
/// [`cqa_obs::FlightDigest`] with owned strings and the query fingerprint as a
/// hex string (`Json::Num` is an `f64`; 64-bit fingerprints would lose
/// precision past 2^53).
#[derive(Debug, Clone, PartialEq)]
pub struct WireDigest {
    /// Client-supplied or server-generated request id.
    pub request_id: String,
    /// Canonical query fingerprint, 16 hex digits (`0000…0` when the
    /// query never parsed).
    pub query_fp: String,
    /// Scheme display name.
    pub scheme: String,
    /// Did the synopsis come from the cache?
    pub cache_hit: bool,
    /// Structured error kind name for failed requests.
    pub error: Option<String>,
    /// Time queued before a worker picked the request up, microseconds.
    pub queue_wait_us: u64,
    /// Samples the scheme drew.
    pub samples: u64,
    /// Running sample variance of the estimator at termination.
    pub variance: f64,
    /// One-standard-error CI half-width of the estimate at termination.
    pub ci_half_width: f64,
    /// Synopsis-build time, microseconds (0 on cache hits).
    pub preprocess_us: u64,
    /// Sampling time, microseconds.
    pub scheme_us: u64,
    /// Admission-to-reply wall time, microseconds.
    pub total_us: u64,
    /// Completion timestamp, microseconds since the trace epoch.
    pub ts_us: u64,
}

impl WireDigest {
    /// Converts a recorder digest to its wire form.
    pub fn from_digest(d: &FlightDigest) -> WireDigest {
        WireDigest {
            request_id: d.request_id.clone(),
            query_fp: format!("{:016x}", d.query_fingerprint),
            scheme: d.scheme.to_string(),
            cache_hit: d.cache_hit,
            error: d.error.as_deref().map(str::to_owned),
            queue_wait_us: d.queue_wait_micros,
            samples: d.samples,
            variance: d.variance,
            ci_half_width: d.ci_half_width,
            preprocess_us: d.preprocess_micros,
            scheme_us: d.scheme_micros,
            total_us: d.total_micros,
            ts_us: d.ts_micros,
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("request_id", Json::str(&self.request_id)),
            ("query_fp", Json::str(&self.query_fp)),
            ("scheme", Json::str(&self.scheme)),
            ("cache_hit", Json::from(self.cache_hit)),
            ("queue_wait_us", Json::from(self.queue_wait_us)),
            ("samples", Json::from(self.samples)),
            ("variance", Json::from(self.variance)),
            ("ci_half_width", Json::from(self.ci_half_width)),
            ("preprocess_us", Json::from(self.preprocess_us)),
            ("scheme_us", Json::from(self.scheme_us)),
            ("total_us", Json::from(self.total_us)),
            ("ts_us", Json::from(self.ts_us)),
        ];
        if let Some(e) = &self.error {
            pairs.push(("error", Json::str(e)));
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<WireDigest> {
        Ok(WireDigest {
            request_id: v.req_str("request_id")?.to_owned(),
            query_fp: v.req_str("query_fp")?.to_owned(),
            scheme: v.req_str("scheme")?.to_owned(),
            cache_hit: v.get("cache_hit").and_then(Json::as_bool).unwrap_or(false),
            error: v.get("error").and_then(Json::as_str).map(str::to_owned),
            queue_wait_us: wire_u64(v, "queue_wait_us")?,
            samples: wire_u64(v, "samples")?,
            variance: v.req_f64("variance")?,
            ci_half_width: v.req_f64("ci_half_width")?,
            preprocess_us: wire_u64(v, "preprocess_us")?,
            scheme_us: wire_u64(v, "scheme_us")?,
            total_us: wire_u64(v, "total_us")?,
            ts_us: wire_u64(v, "ts_us")?,
        })
    }
}

/// One slow/error-log entry on the wire: identity plus the captured span
/// tree. Spans ride as rendered JSON objects (name, depth, timings,
/// args); clients inspect them rather than reconstructing trace state.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSlowlogEntry {
    /// The request's id.
    pub request_id: String,
    /// Structured error kind name, when the request failed.
    pub error: Option<String>,
    /// Admission-to-reply wall time, microseconds.
    pub total_us: u64,
    /// Completion timestamp, microseconds since the trace epoch.
    pub ts_us: u64,
    /// The span tree as a JSON array, timestamp order; `depth`
    /// reconstructs nesting.
    pub spans: Json,
}

/// Renders one captured span for the slow/error log.
fn span_event_json(ev: &TraceEvent) -> Json {
    Json::obj([
        ("name", Json::str(ev.name)),
        ("depth", Json::from(u64::from(ev.depth))),
        ("ts_us", Json::from(ev.ts_micros)),
        ("dur_us", Json::from(ev.dur_micros)),
        ("self_us", Json::from(ev.self_micros)),
        ("a0", Json::from(ev.a0)),
        ("a1", Json::from(ev.a1)),
    ])
}

impl WireSlowlogEntry {
    /// Converts a recorder entry to its wire form.
    pub fn from_entry(e: &SlowlogEntry) -> WireSlowlogEntry {
        WireSlowlogEntry {
            request_id: e.request_id.clone(),
            error: e.error.map(str::to_owned),
            total_us: e.total_micros,
            ts_us: e.ts_micros,
            spans: Json::Arr(e.spans.iter().map(span_event_json).collect()),
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("request_id", Json::str(&self.request_id)),
            ("total_us", Json::from(self.total_us)),
            ("ts_us", Json::from(self.ts_us)),
            ("spans", self.spans.clone()),
        ];
        if let Some(e) = &self.error {
            pairs.push(("error", Json::str(e)));
        }
        Json::obj(pairs)
    }

    fn from_json(v: &Json) -> Result<WireSlowlogEntry> {
        Ok(WireSlowlogEntry {
            request_id: v.req_str("request_id")?.to_owned(),
            error: v.get("error").and_then(Json::as_str).map(str::to_owned),
            total_us: wire_u64(v, "total_us")?,
            ts_us: wire_u64(v, "ts_us")?,
            spans: v.get("spans").cloned().unwrap_or(Json::Arr(Vec::new())),
        })
    }
}

/// A required integer field of a digest or slow-log object. A nested fn
/// (not a closure) so cqa-lint's call graph can see through the call.
fn wire_u64(v: &Json, key: &str) -> Result<u64> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| CqaError::Parse(format!("missing integer field '{key}'")))
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
    /// A successful `debug flight`: the digest ring's contents.
    Flight {
        /// Recorded digests, completion-timestamp order.
        digests: Vec<WireDigest>,
        /// Digests lost to ring wrap.
        dropped: u64,
    },
    /// A successful `debug slowlog`: the slow/error log, oldest first.
    Slowlog(Vec<WireSlowlogEntry>),
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

fn json_to_value(j: &Json) -> Result<Value> {
    match j {
        Json::Num(n) if n.fract() == 0.0 => Ok(Value::Int(*n as i64)),
        Json::Str(s) => Ok(Value::Str(s.clone())),
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
                ("flight", Json::Arr(digests.iter().map(WireDigest::to_json).collect())),
                ("dropped", Json::from(*dropped)),
            ]),
            Response::Slowlog(entries) => Json::obj([
                ("ok", Json::from(true)),
                ("slowlog", Json::Arr(entries.iter().map(WireSlowlogEntry::to_json).collect())),
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
        let v = Json::parse(line.trim())?;
        let ok = v
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or_else(|| CqaError::Parse("response missing 'ok'".into()))?;
        if !ok {
            let kind = ErrorKind::from_name(v.req_str("error")?)
                .ok_or_else(|| CqaError::Parse("unknown error kind".into()))?;
            return Ok(Response::Error {
                kind,
                message: v.req_str("message").unwrap_or("").to_owned(),
            });
        }
        if v.get("pong").is_some() {
            let version = v
                .get("version")
                .and_then(Json::as_u64)
                .ok_or_else(|| CqaError::Parse("pong missing 'version'".into()))?;
            return Ok(Response::Pong { version });
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
            let digests = rows.iter().map(WireDigest::from_json).collect::<Result<Vec<_>>>()?;
            let dropped = v.get("dropped").and_then(Json::as_u64).unwrap_or(0);
            return Ok(Response::Flight { digests, dropped });
        }
        if let Some(rows) = v.get("slowlog") {
            let rows =
                rows.as_arr().ok_or_else(|| CqaError::Parse("non-array 'slowlog'".into()))?;
            let entries =
                rows.iter().map(WireSlowlogEntry::from_json).collect::<Result<Vec<_>>>()?;
            return Ok(Response::Slowlog(entries));
        }
        let rows = v
            .get("answers")
            .and_then(Json::as_arr)
            .ok_or_else(|| CqaError::Parse("response missing 'answers'".into()))?;
        let mut answers = Vec::with_capacity(rows.len());
        for row in rows {
            let cells = row
                .get("tuple")
                .and_then(Json::as_arr)
                .ok_or_else(|| CqaError::Parse("answer missing 'tuple'".into()))?;
            let tuple = cells.iter().map(json_to_value).collect::<Result<Vec<_>>>()?;
            answers.push(WireAnswer {
                tuple,
                frequency: row.req_f64("frequency")?,
                samples: row
                    .get("samples")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| CqaError::Parse("answer missing 'samples'".into()))?,
            });
        }
        Ok(Response::Answers {
            cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
            preprocess_ms: v.req_f64("preprocess_ms")?,
            scheme_ms: v.req_f64("scheme_ms")?,
            total_samples: v
                .get("total_samples")
                .and_then(Json::as_u64)
                .ok_or_else(|| CqaError::Parse("response missing 'total_samples'".into()))?,
            answers,
        })
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
        let stats = Response::Stats(Json::obj([("requests", Json::from(3u64))]));
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

    #[test]
    fn flight_response_roundtrips() {
        let ok = WireDigest {
            request_id: "client-abc".into(),
            query_fp: format!("{:016x}", u64::MAX - 3), // past 2^53: must survive
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
        };
        let failed = WireDigest {
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
        let entry = WireSlowlogEntry::from_entry(&SlowlogEntry {
            request_id: "slow-1".into(),
            error: Some("internal"),
            total_micros: 2_000_000,
            ts_micros: 5,
            spans: vec![TraceEvent {
                name: "server/request",
                kind: cqa_obs::EventKind::Span,
                tid: 1,
                depth: 0,
                ts_micros: 1,
                dur_micros: 2_000_000,
                self_micros: 1_500_000,
                a0: 42,
                a1: 0,
            }],
        });
        let resp = Response::Slowlog(vec![entry]);
        let line = resp.to_line();
        assert!(line.contains("\"spans\":"), "{line}");
        assert!(line.contains("server/request"), "{line}");
        assert_eq!(Response::from_line(&line).unwrap(), resp);
        // An empty slowlog still parses as a Slowlog, not as bad answers.
        let empty = Response::Slowlog(Vec::new());
        assert_eq!(Response::from_line(&empty.to_line()).unwrap(), empty);
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
