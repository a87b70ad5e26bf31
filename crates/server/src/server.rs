//! The TCP daemon.
//!
//! One thread per connection does the line-oriented I/O; `query` requests
//! are handed to the shared [`WorkerPool`] so a slow synopsis build on one
//! connection cannot starve another, and so total concurrent query work is
//! bounded regardless of how many clients connect. `ping` and `stats` are
//! answered inline — they must stay responsive precisely when the pool is
//! saturated.
//!
//! Determinism: each request carries a seed, and exactly one worker runs
//! the whole request with `Mt64::new(seed)` — the same generator the
//! offline driver uses — so answers are byte-identical to a local
//! `apx_cqa` run with that seed, whatever the pool size.

use crate::cache::{CacheKey, SynopsisCache};
use crate::metrics::Metrics;
use crate::pool::{PoolConfig, SubmitError, WorkerPool};
use crate::protocol::{
    DebugTarget, ErrorKind, QueryRequest, Request, Response, StatsFormat, WireAnswer,
    WireSlowlogEntry, MAX_REQUEST_LINE_BYTES, PROTOCOL_VERSION,
};
use cqa_common::{fnv1a64, CqaError, Deadline, Mt64};
use cqa_core::{apx_cqa_on_synopses, ApxCqaResult, Budget, TupleEstimate};
use cqa_obs::flight::{self, FlightDigest, SlowlogEntry};
use cqa_obs::Span;
use cqa_storage::{dump_fingerprint, schema_to_ddl, Database};
use cqa_synopsis::{build_synopses, BuildOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Tunables for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7171` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads for query execution (0 = one per CPU).
    pub workers: usize,
    /// Admission-queue depth before `overloaded` rejections start.
    pub queue_depth: usize,
    /// Maximum cached synopsis sets.
    pub cache_capacity: usize,
    /// Deadline for requests that do not set `timeout_ms` (None = no
    /// default deadline).
    pub default_timeout_ms: Option<u64>,
    /// Sample budget per request.
    pub max_samples: u64,
    /// Queries slower than this (admission to reply) are tail-sampled
    /// into the flight recorder's slow/error log with their full span
    /// tree.
    pub slow_threshold_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7171".to_owned(),
            workers: 0,
            queue_depth: 64,
            cache_capacity: 128,
            default_timeout_ms: Some(30_000),
            max_samples: u64::MAX,
            slow_threshold_ms: 1_000,
        }
    }
}

/// Everything the connection and worker threads share.
struct Shared {
    db: Database,
    /// Fingerprints are computed once at startup; `CacheKey::new` would
    /// stream the whole database through the hasher per request.
    db_fingerprint: u64,
    constraint_fingerprint: u64,
    cache: SynopsisCache,
    metrics: Metrics,
    pool: WorkerPool,
    default_timeout_ms: Option<u64>,
    max_samples: u64,
    slow_threshold_micros: u64,
    /// Source of `srv-…` request ids for clients that supply none: a
    /// monotonic counter, so ids are unique per server without ambient
    /// entropy (the workspace's `rng-flow` lint bans that).
    next_request_id: AtomicU64,
    shutdown: AtomicBool,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and spawns the worker pool. The database is
    /// fingerprinted here, once.
    pub fn bind(db: Database, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let workers = if config.workers == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            config.workers
        };
        let db_fingerprint = dump_fingerprint(&db);
        let constraint_fingerprint = fnv1a64(schema_to_ddl(db.schema()).as_bytes());
        let pool = WorkerPool::new(PoolConfig { workers, queue_depth: config.queue_depth })?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                db,
                db_fingerprint,
                constraint_fingerprint,
                cache: SynopsisCache::with_capacity(config.cache_capacity.max(1)),
                metrics: Metrics::new(),
                pool,
                default_timeout_ms: config.default_timeout_ms,
                max_samples: config.max_samples,
                slow_threshold_micros: config.slow_threshold_ms.saturating_mul(1_000),
                next_request_id: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the accept loop on the calling thread until shut down.
    pub fn run(self) {
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            self.shared.metrics.connections.inc();
            let shared = Arc::clone(&self.shared);
            // Clone the stream first so a failed spawn can still answer.
            let reject_stream = stream.try_clone();
            let spawned = std::thread::Builder::new()
                .name("cqa-conn".to_owned())
                .spawn(move || serve_connection(&shared, stream));
            if spawned.is_err() {
                // Thread exhaustion is load shedding, not a crash: answer
                // with a structured `overloaded` error and hang up.
                self.shared.metrics.rejected_overloaded.inc();
                if let Ok(mut s) = reject_stream {
                    let _ = s.write_all(connection_reject_line().as_bytes());
                }
            }
        }
    }

    /// Runs the accept loop on a background thread; the returned handle
    /// shuts the server down when asked (or when dropped).
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let thread =
            std::thread::Builder::new().name("cqa-accept".to_owned()).spawn(move || self.run())?;
        Ok(ServerHandle { addr, shared, thread: Some(thread) })
    }
}

/// Controls a server running on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept thread. Open
    /// connections are not torn down; they end when their clients hang up.
    pub fn shutdown(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.shared.shutdown.store(true, Ordering::SeqCst);
            // The accept loop only observes the flag on its next
            // iteration; poke it with a throwaway connection.
            let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The one-line answer sent when the accept loop cannot spawn a
/// connection thread (same NDJSON shape every other error uses).
fn connection_reject_line() -> String {
    let response = Response::Error {
        kind: ErrorKind::Overloaded,
        message: "connection thread limit reached".to_owned(),
    };
    let mut line = response.to_line();
    line.push('\n');
    line
}

/// What [`read_request_line`] found on a connection.
#[derive(Debug, PartialEq)]
enum Incoming {
    /// A line of at most [`MAX_REQUEST_LINE_BYTES`] bytes is in the buffer,
    /// its `\n` or `\r\n` stripped.
    Line,
    /// The line was longer than the bound; its bytes were discarded through
    /// the next newline without being buffered.
    TooLong,
    /// The client hung up before sending another byte.
    Closed,
}

/// Reads one request line into `line`, buffering at most
/// [`MAX_REQUEST_LINE_BYTES`] bytes of it, so a client that never sends a
/// newline cannot grow the buffer without bound. A final line cut off by
/// the client's hang-up still counts as a line.
fn read_request_line<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> io::Result<Incoming> {
    line.clear();
    let mut too_long = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            return Ok(match (too_long, line.is_empty()) {
                (true, _) => Incoming::TooLong,
                (false, true) => Incoming::Closed,
                (false, false) => Incoming::Line,
            });
        }
        let newline = available.iter().position(|&b| b == b'\n');
        let chunk = available.get(..newline.unwrap_or(available.len())).unwrap_or_default();
        too_long = too_long || line.len() + chunk.len() > MAX_REQUEST_LINE_BYTES;
        if too_long {
            line.clear();
        } else {
            line.extend_from_slice(chunk);
        }
        let consumed = chunk.len() + usize::from(newline.is_some());
        reader.consume(consumed);
        if newline.is_some() {
            if too_long {
                return Ok(Incoming::TooLong);
            }
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return Ok(Incoming::Line);
        }
    }
}

fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) {
    // The protocol is request/response; Nagle only adds latency.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        let incoming = match read_request_line(&mut reader, &mut line) {
            Ok(Incoming::Closed) | Err(_) => break, // client hung up (mid-line)
            Ok(incoming) => incoming,
        };
        // Chaos: an injected read failure drops the connection before the
        // request is processed, exactly like a client hang-up mid-line.
        if cqa_chaos::fault_point!(ProtocolRead).is_some() {
            break;
        }
        let response = match (incoming, std::str::from_utf8(&line)) {
            (Incoming::Line, Ok(text)) if text.trim().is_empty() => continue,
            (Incoming::Line, Ok(text)) => handle_line(shared, text),
            (Incoming::Line, Err(_)) => reject_line(shared, "request line is not UTF-8".to_owned()),
            (_, _) => reject_line(
                shared,
                format!("request line longer than {MAX_REQUEST_LINE_BYTES} bytes"),
            ),
        };
        let mut payload = response.to_line();
        payload.push('\n');
        // Chaos: a failed write hangs up without answering; a short write
        // sends a truncated line first, so the client must also survive
        // torn NDJSON, not just clean disconnects.
        match cqa_chaos::fault_point!(ProtocolWrite) {
            Some(cqa_chaos::Fault::ShortWrite) => {
                let torn = payload.as_bytes().get(..payload.len() / 2).unwrap_or_default();
                let _ = writer.write_all(torn);
                break;
            }
            Some(_) => break,
            None => {}
        }
        if writer.write_all(payload.as_bytes()).is_err() {
            break;
        }
        // Chaos: a failed flush is a hang-up after the kernel may or may
        // not have pushed the bytes — the ambiguous case clients fear.
        if cqa_chaos::fault_point!(ProtocolFlush).is_some() {
            break;
        }
        let _ = writer.flush();
    }
}

/// The `bad_request` answer to a line that could not be read as a request
/// at all (too long, not UTF-8); counted like any other bad request.
fn reject_line(shared: &Shared, message: String) -> Response {
    shared.metrics.requests.inc();
    shared.metrics.rejected_bad_request.inc();
    Response::Error { kind: ErrorKind::BadRequest, message }
}

fn handle_line(shared: &Arc<Shared>, line: &str) -> Response {
    shared.metrics.requests.inc();
    let request = match Request::from_line(line) {
        Ok(r) => r,
        Err(e) => {
            shared.metrics.rejected_bad_request.inc();
            return Response::Error { kind: ErrorKind::BadRequest, message: e.to_string() };
        }
    };
    match request {
        Request::Ping => Response::Pong { version: PROTOCOL_VERSION },
        Request::Stats { format: StatsFormat::Json } => {
            Response::Stats(shared.metrics.stats_json(&shared.cache.stats()))
        }
        Request::Stats { format: StatsFormat::Prometheus } => {
            Response::StatsText(shared.metrics.to_prometheus(&shared.cache.stats()))
        }
        Request::Trace => {
            let (events, _dropped) = cqa_obs::trace::snapshot();
            Response::Trace(cqa_obs::export::chrome_trace(&events))
        }
        Request::Debug { target: DebugTarget::Flight } => {
            let _g = cqa_obs::span(Span::ServerDebugFlight);
            let (digests, dropped) = flight::snapshot();
            Response::Flight { digests, dropped }
        }
        Request::Debug { target: DebugTarget::Slowlog } => {
            let _g = cqa_obs::span(Span::ServerDebugSlowlog);
            Response::Slowlog(
                flight::slowlog_snapshot().iter().map(WireSlowlogEntry::from_entry).collect(),
            )
        }
        Request::Query(q) => dispatch_query(shared, q),
    }
}

/// Admits a query to the pool and waits for its worker's answer.
fn dispatch_query(shared: &Arc<Shared>, q: QueryRequest) -> Response {
    let admitted_micros = cqa_obs::now_micros();
    // Every request gets an id: the client's, or a generated `srv-…` one.
    let request_id = match &q.request_id {
        Some(id) => id.clone(),
        None => {
            format!("srv-{:016x}", shared.next_request_id.fetch_add(1, Ordering::Relaxed))
        }
    };
    let scheme_name = q.scheme.name();
    // Retries announce themselves so absorbed transient faults are
    // visible in `stats` even though every attempt looks like a fresh
    // request otherwise.
    if q.attempt > 0 {
        shared.metrics.retried_requests.inc();
    }
    // The deadline starts at admission: time spent queued counts.
    let deadline = match q.timeout_ms.or(shared.default_timeout_ms) {
        Some(ms) => Deadline::after(Duration::from_millis(ms)),
        None => Deadline::none(),
    };
    let (reply_tx, reply_rx) = mpsc::sync_channel::<Response>(1);
    let submitted = shared.pool.try_submit({
        let shared = Arc::clone(shared);
        let request_id = request_id.clone();
        move || {
            // Queue wait straddles threads: record it from the explicit
            // admission timestamp rather than a span stack.
            let wait = cqa_obs::now_micros().saturating_sub(admitted_micros);
            shared.metrics.queue_wait.record_micros(wait);
            cqa_obs::record_span(Span::ServerQueueWait, admitted_micros, q.seed, 0);
            // Open the request scope: installs the id and starts the span
            // capture for the slow/error log. Exactly this worker thread
            // runs the whole request.
            flight::begin_request(&request_id);
            let (response, report) = run_query(&shared, &q, deadline);
            flight::end_request();
            let total = cqa_obs::now_micros().saturating_sub(admitted_micros);
            if matches!(response, Response::Answers { .. }) {
                shared.metrics.queries_ok.inc();
                shared.metrics.query_latency.record_micros(total);
            }
            record_flight(&shared, &request_id, scheme_name, &response, wait, report, total);
            let _ = reply_tx.send(response);
        }
    });
    match submitted {
        Ok(()) => {}
        Err(SubmitError::Full { depth }) => {
            shared.metrics.rejected_overloaded.inc();
            let response = Response::Error {
                kind: ErrorKind::Overloaded,
                message: format!("admission queue full (depth {depth})"),
            };
            record_rejection(shared, &request_id, scheme_name, &response, admitted_micros);
            return response;
        }
        Err(SubmitError::Shutdown) => {
            shared.metrics.errors_internal.inc();
            let response = Response::Error {
                kind: ErrorKind::Internal,
                message: "worker pool is shut down".to_owned(),
            };
            record_rejection(shared, &request_id, scheme_name, &response, admitted_micros);
            return response;
        }
    }
    match reply_rx.recv() {
        Ok(response) => {
            match &response {
                Response::Error { kind: ErrorKind::DeadlineExceeded, .. } => {
                    shared.metrics.rejected_deadline.inc();
                }
                Response::Error { kind: ErrorKind::BadRequest, .. } => {
                    shared.metrics.rejected_bad_request.inc();
                }
                Response::Error { kind: ErrorKind::Internal, .. } => {
                    shared.metrics.errors_internal.inc();
                }
                _ => {}
            }
            response
        }
        Err(_) => {
            // The worker discarded the job or panicked mid-request (the
            // pool contains the panic); the client still gets a
            // structured, retryable answer, and the flight recorder still
            // gets a digest — no worker ran, so it is rejection-shaped.
            shared.metrics.errors_internal.inc();
            let response = Response::Error {
                kind: ErrorKind::Internal,
                message: "worker dropped the request".to_owned(),
            };
            record_rejection(shared, &request_id, scheme_name, &response, admitted_micros);
            response
        }
    }
}

/// What a worker learned about a request besides its response: the
/// canonical query fingerprint (0 until the query parses), the flight
/// digest's estimator telemetry, which is the samples drawn (the
/// response's `total_samples`, or a budget error's partial count) and the
/// largest per-answer variance and half-width, and the stage times.
#[derive(Debug, Clone, Copy, Default)]
struct RunReport {
    query_fp: u64,
    samples: u64,
    variance: f64,
    ci_half_width: f64,
    /// Synopsis-build time, microseconds (0 on cache hits).
    preprocess_us: u64,
    /// Sampling time, microseconds.
    scheme_us: u64,
}

impl RunReport {
    /// An answered request. Folding the maxima from 0 with `>` ignores NaN.
    fn answered(query_fp: u64, result: &ApxCqaResult, cached: bool) -> Self {
        let max = |field: fn(&TupleEstimate) -> f64| {
            result.answers.iter().map(field).fold(0.0, |m, v| if v > m { v } else { m })
        };
        let micros = |d: Duration| u64::try_from(d.as_micros()).unwrap_or(u64::MAX);
        RunReport {
            query_fp,
            samples: result.total_samples,
            variance: max(|a| a.variance),
            ci_half_width: max(|a| a.ci_half_width),
            preprocess_us: if cached { 0 } else { micros(result.preprocess_time) },
            scheme_us: micros(result.scheme_time),
        }
    }
}

/// Assembles one request's flight digest from the worker's outcome and
/// records it; requests that erred or overran the slow threshold are also
/// tail-sampled into the slow/error log with the span tree still sitting
/// in this thread's capture buffer (extracting it allocates, so only the
/// slow path pays).
fn record_flight(
    shared: &Shared,
    request_id: &str,
    scheme: &'static str,
    response: &Response,
    queue_wait_us: u64,
    report: RunReport,
    total_us: u64,
) {
    let (cache_hit, error) = match response {
        Response::Answers { cached, .. } => (*cached, None),
        Response::Error { kind, .. } => (false, Some(kind.name())),
        _ => (false, None),
    };
    let ts_us = cqa_obs::now_micros();
    flight::record(&FlightDigest {
        request_id: request_id.to_owned(),
        query_fingerprint: report.query_fp,
        scheme: scheme.into(),
        cache_hit,
        error: error.map(Into::into),
        queue_wait_us,
        samples: report.samples,
        variance: report.variance,
        ci_half_width: report.ci_half_width,
        preprocess_us: report.preprocess_us,
        scheme_us: report.scheme_us,
        total_us,
        ts_us,
    });
    shared.metrics.last_request_samples.set(report.samples.min(i64::MAX as u64) as i64);
    shared.metrics.last_request_ci_ppm.set((report.ci_half_width * 1e6) as i64);
    if error.is_some() || total_us > shared.slow_threshold_micros {
        shared.metrics.slow_requests.inc();
        flight::slowlog_record(SlowlogEntry {
            request_id: request_id.to_owned(),
            error,
            total_micros: total_us,
            ts_micros: ts_us,
            spans: flight::take_request_spans(),
        });
    }
}

/// Digests a request the pool never accepted (queue full, shutdown): no
/// worker ran, so there is no span capture and no estimator telemetry.
fn record_rejection(
    shared: &Shared,
    request_id: &str,
    scheme: &'static str,
    response: &Response,
    admitted_micros: u64,
) {
    let total = cqa_obs::now_micros().saturating_sub(admitted_micros);
    record_flight(shared, request_id, scheme, response, 0, RunReport::default(), total);
}

/// Executes one admitted query on a worker thread, returning the response
/// and what the flight recorder needs to know about the run.
fn run_query(shared: &Shared, q: &QueryRequest, deadline: Deadline) -> (Response, RunReport) {
    let mut req_span = cqa_obs::span_args(Span::ServerRequest, q.seed, 0);
    // Chaos: an injected deadline fault is a premature expiry — the
    // admission-time check fires as if queue wait had eaten the budget.
    if deadline.expired() || cqa_chaos::fault_point!(ServerDeadline).is_some() {
        let response = Response::Error {
            kind: ErrorKind::DeadlineExceeded,
            message: "deadline expired while queued".to_owned(),
        };
        return (response, RunReport::default());
    }
    let cq = match cqa_query::parse(shared.db.schema(), &q.query) {
        Ok(cq) => cq,
        Err(e) => return failed(0, e),
    };
    let query_fp = cq.canonical_fingerprint();
    let key = CacheKey {
        db_fingerprint: shared.db_fingerprint,
        constraint_fingerprint: shared.constraint_fingerprint,
        query_fingerprint: query_fp,
    };
    let literal_fp = CacheKey::literal_fingerprint(&q.query);
    let lookup_span = cqa_obs::span(Span::ServerCacheLookup);
    let looked_up = shared.cache.get(&key, literal_fp);
    drop(lookup_span);
    let (syn, cached) = match looked_up {
        Some(syn) => (syn, true),
        None => {
            let options = BuildOptions { deadline: Some(deadline), max_homs: None };
            let build_span = cqa_obs::span(Span::ServerSynopsisBuild);
            // Chaos: a failed synopsis build (the allocation-heavy phase)
            // surfaces as `internal`, which is retryable — the next
            // attempt rebuilds from scratch.
            let built = if cqa_chaos::fault_point!(SynopsisBuild).is_some() {
                Err(CqaError::InvalidSynopsis("injected fault at synopsis/build".to_owned()))
            } else {
                build_synopses(&shared.db, &cq, options)
            };
            drop(build_span);
            match built {
                Ok(syn) => {
                    let syn = Arc::new(syn);
                    shared.cache.insert(key, literal_fp, Arc::clone(&syn));
                    (syn, false)
                }
                Err(e) => return failed(query_fp, e),
            }
        }
    };
    let budget = Budget { deadline, max_samples: shared.max_samples };
    // Same generator construction as the offline driver: answers for a
    // fixed seed match `apx_cqa` exactly, independent of pool size.
    let mut rng = Mt64::new(q.seed);
    let mut sample_span = cqa_obs::span(Span::ServerSampling);
    let outcome = apx_cqa_on_synopses(&syn, q.scheme, q.eps, q.delta, &budget, &mut rng);
    if let Ok(result) = &outcome {
        sample_span.set_args(result.total_samples, syn.entries.len() as u64);
        req_span.set_args(q.seed, result.total_samples);
    }
    drop(sample_span);
    match outcome {
        Ok(result) => (
            Response::Answers {
                cached,
                preprocess_ms: if cached {
                    0.0
                } else {
                    result.preprocess_time.as_secs_f64() * 1000.0
                },
                scheme_ms: result.scheme_time.as_secs_f64() * 1000.0,
                total_samples: result.total_samples,
                answers: result
                    .answers
                    .iter()
                    .map(|te| WireAnswer {
                        tuple: te.tuple.iter().map(|&d| shared.db.resolve(d)).collect(),
                        frequency: te.frequency,
                        samples: te.samples,
                    })
                    .collect(),
            },
            RunReport::answered(query_fp, &result, cached),
        ),
        Err(e) => failed(query_fp, e),
    }
}

/// The response to a request that failed with `e`, engine errors mapped to
/// protocol error kinds, and its report (`query_fp` is 0 until the query
/// parses). A budget error keeps the samples it drew in the report.
fn failed(query_fp: u64, e: CqaError) -> (Response, RunReport) {
    let mut report = RunReport { query_fp, ..RunReport::default() };
    let kind = match e {
        CqaError::TimedOut { samples, .. } => {
            report.samples = samples;
            ErrorKind::DeadlineExceeded
        }
        CqaError::Parse(_)
        | CqaError::UnknownName(_)
        | CqaError::InvalidParameter(_)
        | CqaError::ArityMismatch { .. }
        | CqaError::TypeMismatch { .. } => ErrorKind::BadRequest,
        CqaError::InvalidSynopsis(_) | CqaError::TooLarge(_) => ErrorKind::Internal,
    };
    (Response::Error { kind, message: e.to_string() }, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Regression for the `.expect("spawn connection thread")` that used
    /// to live in the accept loop: the spawn-failure path sheds the
    /// connection with the same NDJSON error envelope every other
    /// rejection uses, so clients can parse it.
    #[test]
    fn connection_reject_is_a_structured_overloaded_error() {
        let line = connection_reject_line();
        assert!(line.ends_with('\n'), "NDJSON: one response per line");
        let parsed = Response::from_line(line.trim_end()).expect("reject line must parse");
        match parsed {
            Response::Error { kind, message } => {
                assert_eq!(kind, ErrorKind::Overloaded);
                assert!(message.contains("thread"), "message names the resource: {message}");
            }
            other => panic!("expected an error response, got {other:?}"),
        }
    }

    /// Stage times reach the digest as whole microseconds of the result's
    /// durations. Through the response's f64 milliseconds, 21 µs read 20.
    #[test]
    fn stage_times_digest_without_a_float_round_trip() {
        let result = ApxCqaResult {
            answers: Vec::new(),
            preprocess_time: Duration::from_micros(1_234),
            scheme_time: Duration::from_micros(21),
            total_samples: 7,
        };
        let miss = RunReport::answered(1, &result, false);
        assert_eq!((miss.preprocess_us, miss.scheme_us), (1_234, 21));
        let hit = RunReport::answered(1, &result, true);
        assert_eq!((hit.preprocess_us, hit.scheme_us), (0, 21));
    }

    /// The line reader across buffer refills: a line of exactly the bound
    /// is read, one byte more is discarded through its newline, `\r\n` is
    /// stripped, and a final line cut off by a hang-up still counts.
    #[test]
    fn request_lines_are_bounded_and_overlong_ones_skipped() {
        let max = MAX_REQUEST_LINE_BYTES;
        let input = format!("{}\n{}\nping\r\n\n{}", "a".repeat(max), "b".repeat(max + 1), "tail");
        let mut reader = BufReader::with_capacity(4096, input.as_bytes());
        let mut line = Vec::new();
        let mut read = || {
            let incoming = read_request_line(&mut reader, &mut line).unwrap();
            (incoming, String::from_utf8(line.clone()).unwrap())
        };
        assert_eq!(read(), (Incoming::Line, "a".repeat(max)));
        assert_eq!(read(), (Incoming::TooLong, String::new()));
        assert_eq!(read(), (Incoming::Line, "ping".to_owned()));
        assert_eq!(read(), (Incoming::Line, String::new()));
        assert_eq!(read(), (Incoming::Line, "tail".to_owned()));
        assert_eq!(read(), (Incoming::Closed, String::new()));
        let unterminated = "c".repeat(max + 1);
        let mut reader = BufReader::with_capacity(4096, unterminated.as_bytes());
        assert!(matches!(read_request_line(&mut reader, &mut line), Ok(Incoming::TooLong)));
        assert!(matches!(read_request_line(&mut reader, &mut line), Ok(Incoming::Closed)));
    }
}
