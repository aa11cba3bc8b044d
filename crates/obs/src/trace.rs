//! Span tracing over simulated time, written and read as Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! A span is a named, closed interval on one *lane*. Lanes map onto the
//! Chrome trace model as `(pid, tid)` pairs: `pid` groups a subsystem
//! (DES resources, planner, rounds...), `tid` is one timeline within it
//! (a resource, an aggregator). Times are u64 nanoseconds of simulated
//! time, matching `mcio_des::SimTime::as_nanos()`; the file holds the
//! microsecond decimals the trace format expects. This module is the
//! only code that knows the format, in either direction:
//! [`Trace::to_chrome_json`] writes it, [`Trace::from_chrome_json`]
//! reads it back.

use crate::catalogue::LANES;
use crate::doc::as_uint;
use crate::json::{self, JsonValue};
use std::fmt::Write as _;
use std::sync::Mutex;

/// One closed interval on a lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Display name of the slice.
    pub name: String,
    /// Category string (Perfetto lets users filter on it).
    pub cat: String,
    /// Subsystem group (Chrome trace `pid`).
    pub pid: u64,
    /// Timeline within the group (Chrome trace `tid`).
    pub tid: u64,
    /// Start, in simulated nanoseconds.
    pub start_ns: u64,
    /// Duration, in simulated nanoseconds.
    pub dur_ns: u64,
    /// Extra `args` key/value pairs shown in the slice details.
    pub args: Vec<(String, String)>,
}

impl Span {
    /// End of the span, in simulated nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// One trace: every span plus the lane-name metadata, each in recording
/// order. What a [`TraceCollector`] accumulates and what the Chrome
/// trace file holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Every complete span.
    pub spans: Vec<Span>,
    /// `(pid, name)` process-name metadata.
    pub processes: Vec<(u64, String)>,
    /// `(pid, tid, name)` thread-name metadata.
    pub threads: Vec<(u64, u64, String)>,
}

impl Trace {
    /// Serialize everything as a Chrome trace-event JSON array:
    /// metadata events (`ph:"M"`) naming lanes, then one complete event
    /// (`ph:"X"`) per span with `ts`/`dur` in microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("[");
        let mut first = true;
        let mut push = |out: &mut String, ev: String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(&ev);
        };
        for (pid, name) in &self.processes {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    escape_json(name)
                ),
            );
        }
        for (pid, tid, name) in &self.threads {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    escape_json(name)
                ),
            );
        }
        for s in &self.spans {
            let mut args = String::new();
            for (i, (k, v)) in s.args.iter().enumerate() {
                if i > 0 {
                    args.push(',');
                }
                args.push_str(&format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)));
            }
            push(
                &mut out,
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                     \"pid\":{},\"tid\":{},\"args\":{{{args}}}}}",
                    escape_json(&s.name),
                    escape_json(&s.cat),
                    format_us(s.start_ns),
                    format_us(s.dur_ns),
                    s.pid,
                    s.tid,
                ),
            );
        }
        out.push_str("\n]\n");
        out
    }

    /// Parse a Chrome trace-event JSON document (the `--trace` output).
    /// A written trace reads back equal: its timestamps carry at most
    /// three fractional digits, so the nanosecond reconstruction is
    /// exact. `args` come back in key order, and only string values are
    /// kept. Every malformed event is one `event N: …` line.
    pub fn from_chrome_json(input: &str) -> Result<Self, String> {
        let doc = json::parse(input).map_err(|e| format!("trace is not valid JSON: {e}"))?;
        let events = doc
            .as_array()
            .ok_or_else(|| "trace is not a JSON array of events".to_string())?;
        let mut trace = Trace::default();
        for (i, ev) in events.iter().enumerate() {
            let missing = |key: &str| format!("event {i}: missing \"{key}\"");
            let text = |key: &str| ev.get(key).and_then(JsonValue::as_str);
            let uint = |key: &str| {
                as_uint(ev.get(key).ok_or_else(|| missing(key))?)
                    .ok_or_else(|| format!("event {i}: \"{key}\" is not an unsigned integer"))
            };
            let time_ns = |key: &str| {
                let us = ev.get(key).and_then(JsonValue::as_f64);
                parse_us(us.ok_or_else(|| missing(key))?).ok_or_else(|| {
                    format!("event {i}: \"{key}\" is negative or does not fit u64 nanoseconds")
                })
            };
            let ph = text("ph").ok_or_else(|| missing("ph"))?;
            let (pid, tid) = (uint("pid")?, uint("tid")?);
            let name = text("name").ok_or_else(|| missing("name"))?;
            match ph {
                "M" => {
                    let meta_name = ev
                        .get("args")
                        .and_then(|a| a.get("name"))
                        .and_then(JsonValue::as_str)
                        .unwrap_or_default()
                        .to_string();
                    match name {
                        "process_name" => trace.processes.push((pid, meta_name)),
                        "thread_name" => trace.threads.push((pid, tid, meta_name)),
                        _ => {}
                    }
                }
                "X" => {
                    let (start_ns, dur_ns) = (time_ns("ts")?, time_ns("dur")?);
                    if start_ns.checked_add(dur_ns).is_none() {
                        return Err(format!(
                            "event {i}: \"ts\" + \"dur\" does not fit u64 nanoseconds"
                        ));
                    }
                    let args = match ev.get("args") {
                        Some(JsonValue::Object(map)) => map
                            .iter()
                            .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                            .collect(),
                        _ => Vec::new(),
                    };
                    trace.spans.push(Span {
                        name: name.to_string(),
                        cat: text("cat").unwrap_or_default().to_string(),
                        pid,
                        tid,
                        start_ns,
                        dur_ns,
                        args,
                    });
                }
                other => return Err(format!("event {i}: unsupported phase \"{other}\"")),
            }
        }
        Ok(trace)
    }
}

/// Collects spans from every instrumented component and serializes one
/// unified Chrome trace.
#[derive(Debug, Default)]
pub struct TraceCollector {
    inner: Mutex<Trace>,
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// Name a subsystem group (`pid`) in the trace UI.
    pub fn name_process(&self, pid: u64, name: &str) {
        self.lock().processes.push((pid, name.to_string()));
    }

    /// Name the catalogued group `pid` with its process name from
    /// [`LANES`].
    ///
    /// # Panics
    /// Panics if `pid` is not a row of [`LANES`].
    pub fn name_lane(&self, pid: u64) {
        let lane = LANES.iter().find(|lane| lane.pid == pid);
        self.name_process(pid, lane.expect("a catalogued pid").process);
    }

    /// Name one timeline (`pid`, `tid`) in the trace UI.
    pub fn name_thread(&self, pid: u64, tid: u64, name: &str) {
        self.lock().threads.push((pid, tid, name.to_string()));
    }

    /// Record a span with no extra args.
    pub fn span(&self, name: &str, cat: &str, pid: u64, tid: u64, start_ns: u64, dur_ns: u64) {
        self.span_with_args(name, cat, pid, tid, start_ns, dur_ns, &[]);
    }

    /// Record a span with `args` key/value details.
    #[allow(clippy::too_many_arguments)]
    pub fn span_with_args(
        &self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        start_ns: u64,
        dur_ns: u64,
        args: &[(&str, &str)],
    ) {
        self.lock().spans.push(Span {
            name: name.to_string(),
            cat: cat.to_string(),
            pid,
            tid,
            start_ns,
            dur_ns,
            args: args
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        });
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> Trace {
        self.lock().clone()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Everything recorded so far as Chrome trace-event JSON
    /// ([`Trace::to_chrome_json`]).
    pub fn chrome_trace_json(&self) -> String {
        self.lock().to_chrome_json()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Trace> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Nanoseconds rendered as decimal microseconds without float rounding
/// (`1234` ns → `"1.234"`).
fn format_us(ns: u64) -> String {
    let whole = ns / 1000;
    let frac = ns % 1000;
    if frac == 0 {
        whole.to_string()
    } else {
        format!("{whole}.{frac:03}")
    }
}

/// The inverse of [`format_us`] on the parsed number: microseconds to
/// the nearest nanosecond (exact for what `format_us` wrote below
/// 2^52 ns; a foreign trace's sub-nanosecond digits round). `None` for
/// a negative time or one past `u64` nanoseconds.
fn parse_us(us: f64) -> Option<u64> {
    let ns = (us * 1000.0).round();
    // 2^64 is the first f64 past `u64::MAX`.
    (us >= 0.0 && ns < 18_446_744_073_709_551_616.0).then_some(ns as u64)
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_json_into(&mut out, s);
    out
}

/// [`escape_json`] appended to `out` — the form the document writer
/// uses, so escaping a field never allocates.
pub fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn spans_round_trip() {
        let t = TraceCollector::new();
        t.span("shuffle", "exchange", 1, 0, 1000, 500);
        t.span_with_args("io", "pfs", 1, 1, 1500, 2500, &[("ost", "3")]);
        let spans = t.snapshot().spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].end_ns(), 1500);
        assert_eq!(spans[1].args, vec![("ost".to_string(), "3".to_string())]);
    }

    #[test]
    fn chrome_trace_parses_and_preserves_times() {
        let t = TraceCollector::new();
        t.name_process(0, "des");
        t.name_thread(0, 2, "node0.nic_tx");
        t.span("a", "c", 0, 2, 1234, 567);
        let json = t.chrome_trace_json();
        let v = crate::json::parse(&json).expect("valid JSON");
        let events = match v {
            JsonValue::Array(evs) => evs,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(events.len(), 3);
        let x = &events[2];
        assert_eq!(x.get("ph").and_then(JsonValue::as_str), Some("X"));
        assert_eq!(x.get("ts").and_then(JsonValue::as_f64), Some(1.234));
        assert_eq!(x.get("dur").and_then(JsonValue::as_f64), Some(0.567));
        assert_eq!(x.get("tid").and_then(JsonValue::as_f64), Some(2.0));
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        let t = TraceCollector::new();
        t.name_thread(7, 1, "la\tne\u{1}");
        t.span_with_args(
            "quo\"ted",
            "c\\at",
            7,
            1,
            1,
            (1 << 51) + 7,
            &[("k\n", "é→")],
        );
        let written = t.snapshot();
        let read = Trace::from_chrome_json(&written.to_chrome_json());
        assert_eq!(read, Ok(written), "a written trace reads back equal");
    }

    #[test]
    fn empty_collector_is_valid_json() {
        let t = TraceCollector::new();
        assert!(t.is_empty());
        assert!(crate::json::parse(&t.chrome_trace_json()).is_ok());
    }
}
