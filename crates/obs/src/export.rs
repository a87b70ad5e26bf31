//! Exporters: Chrome `trace_event` JSON and a human-readable flat profile.
//!
//! The JSON output is the "JSON Array Format" understood by
//! `chrome://tracing` and [Perfetto](https://ui.perfetto.dev): a top-level
//! array of event objects where complete spans use phase `"X"` with `ts` +
//! `dur` in microseconds and instants use phase `"i"`. The flat profile is
//! the text a terminal wants: one line per span name with call count,
//! total, self (total minus child spans), and average wall time, sorted by
//! self time.

use crate::trace::{snapshot, EventKind, TraceEvent};
use cqa_common::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Renders events as a Chrome `trace_event` JSON array.
pub fn chrome_trace(events: &[TraceEvent]) -> Json {
    let rows = events
        .iter()
        .map(|e| {
            let mut pairs = vec![
                ("name", Json::str(e.name)),
                (
                    "ph",
                    Json::str(match e.kind {
                        EventKind::Span => "X",
                        EventKind::Instant => "i",
                    }),
                ),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(u64::from(e.tid))),
                ("ts", Json::from(e.ts_micros)),
            ];
            match e.kind {
                EventKind::Span => {
                    pairs.push(("dur", Json::from(e.dur_micros)));
                }
                EventKind::Instant => {
                    // Thread-scoped instant marker.
                    pairs.push(("s", Json::str("t")));
                }
            }
            pairs.push((
                "args",
                Json::obj([
                    ("a0", Json::from(e.a0)),
                    ("a1", Json::from(e.a1)),
                    ("self_us", Json::from(e.self_micros)),
                ]),
            ));
            Json::obj(pairs)
        })
        .collect();
    Json::Arr(rows)
}

/// Snapshots the trace log and serializes it as Chrome trace JSON.
pub fn chrome_trace_string() -> String {
    let (events, _) = snapshot();
    chrome_trace(&events).to_string_compact()
}

/// Snapshots the trace log and streams Chrome trace JSON to `path`
/// (a full log runs to megabytes, so the text is never materialized).
/// Returns the number of events written.
pub fn write_chrome_trace(path: &Path) -> std::io::Result<usize> {
    let (events, _) = snapshot();
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    chrome_trace(&events).write_compact(&mut f)?;
    f.write_all(b"\n")?;
    f.flush()?;
    Ok(events.len())
}

#[derive(Default)]
struct Row {
    calls: u64,
    total_us: u64,
    self_us: u64,
}

/// Renders a flat profile over span events: per-name call counts with
/// total/self/average wall time, heaviest self time first.
pub fn flat_profile(events: &[TraceEvent], dropped: u64) -> String {
    let mut rows: BTreeMap<&'static str, Row> = BTreeMap::new();
    let mut instants = 0u64;
    for e in events {
        match e.kind {
            EventKind::Span => {
                let row = rows.entry(e.name).or_default();
                row.calls += 1;
                row.total_us = row.total_us.saturating_add(e.dur_micros);
                row.self_us = row.self_us.saturating_add(e.self_micros);
            }
            EventKind::Instant => instants += 1,
        }
    }
    let mut sorted: Vec<(&'static str, Row)> = rows.into_iter().collect();
    sorted.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));

    let mut out = String::new();
    out.push_str(&format!(
        "flat profile: {} span events, {} instants, {} dropped\n",
        events.len() - instants as usize,
        instants,
        dropped
    ));
    out.push_str(&format!(
        "{:>10}  {:>12}  {:>12}  {:>10}  name\n",
        "calls", "total ms", "self ms", "avg µs"
    ));
    for (name, row) in &sorted {
        let avg = row.total_us as f64 / row.calls as f64;
        out.push_str(&format!(
            "{:>10}  {:>12.3}  {:>12.3}  {:>10.1}  {}\n",
            row.calls,
            row.total_us as f64 / 1000.0,
            row.self_us as f64 / 1000.0,
            avg,
            name
        ));
    }
    out
}

/// Snapshots the trace log and renders the flat profile.
pub fn flat_profile_string() -> String {
    let (events, dropped) = snapshot();
    flat_profile(&events, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, kind: EventKind, ts: u64, dur: u64) -> TraceEvent {
        TraceEvent {
            name,
            kind,
            tid: 1,
            depth: 0,
            ts_micros: ts,
            dur_micros: dur,
            self_micros: dur,
            a0: 0,
            a1: 0,
        }
    }

    #[test]
    fn chrome_trace_is_parseable_json_array() {
        let events = vec![ev("a", EventKind::Span, 10, 500), ev("b", EventKind::Instant, 20, 0)];
        let json = chrome_trace(&events).to_string_compact();
        let parsed = Json::parse(&json).unwrap();
        let arr = parsed.as_arr().unwrap();
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].req_str("ph").unwrap(), "X");
        assert_eq!(arr[0].get("dur").and_then(Json::as_u64), Some(500));
        assert_eq!(arr[1].req_str("ph").unwrap(), "i");
        assert_eq!(arr[1].req_str("s").unwrap(), "t");
    }

    #[test]
    fn flat_profile_aggregates_and_sorts() {
        let events = vec![
            ev("light", EventKind::Span, 0, 100),
            ev("heavy", EventKind::Span, 0, 9_000),
            ev("heavy", EventKind::Span, 1, 1_000),
            ev("mark", EventKind::Instant, 2, 0),
        ];
        let text = flat_profile(&events, 3);
        assert!(text.contains("3 span events, 1 instants, 3 dropped"), "{text}");
        let heavy = text.find("heavy").unwrap();
        let light = text.find("light").unwrap();
        assert!(heavy < light, "heaviest self time first:\n{text}");
        assert!(text.contains("10.000"), "total ms for heavy:\n{text}");
    }
}
