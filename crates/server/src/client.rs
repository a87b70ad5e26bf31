//! A blocking client for the line-delimited JSON protocol.
//!
//! One [`Client`] wraps one TCP connection and issues requests strictly in
//! sequence (the protocol has no request IDs — responses arrive in order).
//! The CLI's `serve`-facing subcommands and the integration tests both sit
//! on top of this type; it is deliberately the only place in the workspace
//! that knows how to talk to a socket.

use crate::metrics::MetricsSnapshot;
use crate::protocol::{DebugTarget, QueryRequest, Request, Response, StatsFormat};
use cqa_common::{CqaError, Json, Result};
use cqa_obs::{FlightDigest, SlowlogEntry};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A blocking connection to a `cqa-server`.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn io_err(e: std::io::Error) -> CqaError {
    CqaError::Parse(format!("server connection: {e}"))
}

impl Client {
    /// Connects to a running server.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr).map_err(io_err)?;
        let _ = stream.set_nodelay(true);
        let writer = stream.try_clone().map_err(io_err)?;
        Ok(Client { reader: BufReader::new(stream), writer })
    }

    /// Sends one request and waits for its response.
    pub fn roundtrip(&mut self, request: &Request) -> Result<Response> {
        let mut line = request.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).map_err(io_err)?;
        self.writer.flush().map_err(io_err)?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply).map_err(io_err)?;
        if n == 0 {
            return Err(CqaError::Parse("server closed the connection".into()));
        }
        Response::from_line(&reply)
    }

    /// Runs one approximate-CQA query.
    pub fn query(&mut self, request: QueryRequest) -> Result<Response> {
        self.roundtrip(&Request::Query(request))
    }

    /// Fetches the server's metrics snapshot.
    pub fn stats(&mut self) -> Result<MetricsSnapshot> {
        match self.roundtrip(&Request::Stats { format: StatsFormat::Json })? {
            Response::Stats(v) => MetricsSnapshot::from_json(&v),
            Response::Error { kind, message } => {
                Err(CqaError::Parse(format!("stats failed: {} ({message})", kind.name())))
            }
            other => Err(CqaError::Parse(format!("unexpected stats response {other:?}"))),
        }
    }

    /// Fetches every server metric as raw `stats` JSON, keyed by its
    /// Prometheus name (a histogram is one object of count, sum and
    /// quantiles).
    pub fn stats_json(&mut self) -> Result<Json> {
        match self.roundtrip(&Request::Stats { format: StatsFormat::Json })? {
            Response::Stats(v) => Ok(v),
            Response::Error { kind, message } => {
                Err(CqaError::Parse(format!("stats failed: {} ({message})", kind.name())))
            }
            other => Err(CqaError::Parse(format!("unexpected stats response {other:?}"))),
        }
    }

    /// Fetches the server's metrics in Prometheus text exposition format.
    pub fn stats_prometheus(&mut self) -> Result<String> {
        match self.roundtrip(&Request::Stats { format: StatsFormat::Prometheus })? {
            Response::StatsText(text) => Ok(text),
            Response::Error { kind, message } => {
                Err(CqaError::Parse(format!("stats failed: {} ({message})", kind.name())))
            }
            other => Err(CqaError::Parse(format!("unexpected stats response {other:?}"))),
        }
    }

    /// Fetches the server's recorded trace as a Chrome `trace_event` JSON
    /// array (empty unless the server process has tracing enabled).
    pub fn trace(&mut self) -> Result<Json> {
        match self.roundtrip(&Request::Trace)? {
            Response::Trace(events) => Ok(events),
            Response::Error { kind, message } => {
                Err(CqaError::Parse(format!("trace failed: {} ({message})", kind.name())))
            }
            other => Err(CqaError::Parse(format!("unexpected trace response {other:?}"))),
        }
    }

    /// Fetches the server's flight recorder: per-request digests in
    /// completion order, plus how many older digests were evicted.
    pub fn debug_flight(&mut self) -> Result<(Vec<FlightDigest>, u64)> {
        match self.roundtrip(&Request::Debug { target: DebugTarget::Flight })? {
            Response::Flight { digests, dropped } => Ok((digests, dropped)),
            Response::Error { kind, message } => {
                Err(CqaError::Parse(format!("debug flight failed: {} ({message})", kind.name())))
            }
            other => Err(CqaError::Parse(format!("unexpected debug flight response {other:?}"))),
        }
    }

    /// Fetches the server's slow/error log, oldest first.
    pub fn debug_slowlog(&mut self) -> Result<Vec<SlowlogEntry>> {
        match self.roundtrip(&Request::Debug { target: DebugTarget::Slowlog })? {
            Response::Slowlog(entries) => Ok(entries),
            Response::Error { kind, message } => {
                Err(CqaError::Parse(format!("debug slowlog failed: {} ({message})", kind.name())))
            }
            other => Err(CqaError::Parse(format!("unexpected debug slowlog response {other:?}"))),
        }
    }

    /// Checks liveness; returns the server's protocol version.
    pub fn ping(&mut self) -> Result<u64> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong { version } => Ok(version),
            Response::Error { kind, message } => {
                Err(CqaError::Parse(format!("ping failed: {} ({message})", kind.name())))
            }
            other => Err(CqaError::Parse(format!("unexpected ping response {other:?}"))),
        }
    }
}
