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
use crate::json::{self, ParseError, Parser};
use std::borrow::Cow;
use std::fmt::Write as _;

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
/// order. What the emitters fill and what the Chrome trace file holds.
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
    /// (`ph:"X"`) per span with `ts`/`dur` in microseconds. Everything
    /// is appended to one buffer, sized up front.
    pub fn to_chrome_json(&self) -> String {
        // The fixed text of an event plus room for its numbers; strings
        // are counted unescaped, so a hostile trace merely regrows.
        const EVENT: usize = 96;
        let text: usize = (self.processes.iter().map(|(_, name)| name.len()))
            .chain(self.threads.iter().map(|(_, _, name)| name.len()))
            .chain(self.spans.iter().map(|s| {
                let args = s.args.iter().map(|(k, v)| k.len() + v.len() + 6);
                s.name.len() + s.cat.len() + args.sum::<usize>()
            }))
            .sum();
        let events = self.processes.len() + self.threads.len() + self.spans.len();
        let mut out = String::with_capacity(events * EVENT + text + 4);
        out.push('[');
        let mut sep = "\n";
        let mut meta = |out: &mut String, what: &str, pid: u64, tid: u64, name: &str| {
            out.push_str(std::mem::replace(&mut sep, ",\n"));
            out.push_str("{\"name\":\"");
            out.push_str(what);
            out.push_str("\",\"ph\":\"M\",\"pid\":");
            push_uint(out, pid);
            out.push_str(",\"tid\":");
            push_uint(out, tid);
            out.push_str(",\"args\":{\"name\":\"");
            escape_json_into(out, name);
            out.push_str("\"}}");
        };
        for (pid, name) in &self.processes {
            meta(&mut out, "process_name", *pid, 0, name);
        }
        for (pid, tid, name) in &self.threads {
            meta(&mut out, "thread_name", *pid, *tid, name);
        }
        for s in &self.spans {
            out.push_str(std::mem::replace(&mut sep, ",\n"));
            out.push_str("{\"name\":\"");
            escape_json_into(&mut out, &s.name);
            out.push_str("\",\"cat\":\"");
            escape_json_into(&mut out, &s.cat);
            out.push_str("\",\"ph\":\"X\",\"ts\":");
            push_us(&mut out, s.start_ns);
            out.push_str(",\"dur\":");
            push_us(&mut out, s.dur_ns);
            out.push_str(",\"pid\":");
            push_uint(&mut out, s.pid);
            out.push_str(",\"tid\":");
            push_uint(&mut out, s.tid);
            out.push_str(",\"args\":{");
            for (i, (k, v)) in s.args.iter().enumerate() {
                out.push_str(if i == 0 { "\"" } else { ",\"" });
                escape_json_into(&mut out, k);
                out.push_str("\":\"");
                escape_json_into(&mut out, v);
                out.push('"');
            }
            out.push_str("}}");
        }
        out.push_str("\n]\n");
        out
    }

    /// Parse a Chrome trace-event JSON document (the `--trace` output).
    /// A written trace reads back equal: its timestamps carry at most
    /// three fractional digits, so the nanosecond reconstruction is
    /// exact. `args` come back in key order, and only string values are
    /// kept. Every malformed event is one `event N: …` line.
    ///
    /// The events are pulled off the tokenizer one at a time, never
    /// held as a tree: of each, the eight members a span is made of are
    /// kept (borrowed from `input` until a [`Span`] owns them), every
    /// other member is validated and skipped. So the first fault in
    /// document order is the one reported: a malformed event wins over
    /// a syntax error further down the file.
    pub fn from_chrome_json(input: &str) -> Result<Self, String> {
        let mut trace = Trace::default();
        let mut args = Vec::new();
        let read = json::document(input, |p| {
            if p.peek() != Some(b'[') {
                return p.skip_value().map(|()| false).map_err(Fault::Json);
            }
            let mut i = 0;
            p.array(|p| {
                let read = trace.read_event(p, i, &mut args);
                i += 1;
                read
            })?;
            Ok(true)
        });
        match read {
            Ok(true) => Ok(trace),
            Ok(false) => Err("trace is not a JSON array of events".to_string()),
            Err(Fault::Json(e)) => Err(format!("trace is not valid JSON: {e}")),
            Err(Fault::Event(line)) => Err(line),
        }
    }

    /// Read event `i` under the cursor and record what it holds.
    /// `args` is scratch space, reused so that an event allocates
    /// nothing a span does not keep.
    fn read_event<'a>(
        &mut self,
        p: &mut Parser<'a>,
        i: usize,
        args: &mut Vec<(Cow<'a, str>, Cow<'a, str>)>,
    ) -> Result<(), Fault> {
        // `ph`, `name` and `cat` count as absent unless strings, `ts`
        // and `dur` unless numbers; `pid` and `tid` remember a value of
        // the wrong type (`Some(None)`), which is its own error.
        let (mut name, mut cat, mut ph) = (None, None, None);
        let (mut ts, mut dur, mut pid, mut tid) = (None, None, None, None);
        args.clear();
        if p.peek() == Some(b'{') {
            p.object(|p, key| {
                match &*key {
                    "name" => name = p.string_or_skip()?,
                    "cat" => cat = p.string_or_skip()?,
                    "ph" => ph = p.string_or_skip()?,
                    "ts" => ts = p.number_or_skip()?,
                    "dur" => dur = p.number_or_skip()?,
                    "pid" => pid = Some(p.number_or_skip()?),
                    "tid" => tid = Some(p.number_or_skip()?),
                    "args" if p.peek() == Some(b'{') => p.object(|p, key| {
                        args.extend(p.string_or_skip()?.map(|value| (key, value)));
                        Ok(())
                    })?,
                    _ => p.skip_value()?,
                }
                Ok::<(), ParseError>(())
            })?;
        } else {
            p.skip_value()?;
        }

        let event = |what: std::fmt::Arguments<'_>| Fault::Event(format!("event {i}: {what}"));
        let missing = |key: &str| event(format_args!("missing \"{key}\""));
        let uint = |key: &str, slot: Option<Option<f64>>| {
            (slot.ok_or_else(|| missing(key))?.and_then(json::exact_u64))
                .ok_or_else(|| event(format_args!("\"{key}\" is not an unsigned integer")))
        };
        let time_ns = |key: &str, slot: Option<f64>| {
            parse_us(slot.ok_or_else(|| missing(key))?).ok_or_else(|| {
                event(format_args!(
                    "\"{key}\" is negative or does not fit u64 nanoseconds"
                ))
            })
        };
        let ph = ph.ok_or_else(|| missing("ph"))?;
        let (pid, tid) = (uint("pid", pid)?, uint("tid", tid)?);
        let name = name.ok_or_else(|| missing("name"))?;
        match &*ph {
            "M" => {
                let meta_name = || {
                    let named = args.iter().find(|(key, _)| key == "name");
                    named
                        .map(|(_, value)| value.to_string())
                        .unwrap_or_default()
                };
                match &*name {
                    "process_name" => self.processes.push((pid, meta_name())),
                    "thread_name" => self.threads.push((pid, tid, meta_name())),
                    _ => {}
                }
            }
            "X" => {
                let (start_ns, dur_ns) = (time_ns("ts", ts)?, time_ns("dur", dur)?);
                if start_ns.checked_add(dur_ns).is_none() {
                    return Err(event(format_args!(
                        "\"ts\" + \"dur\" does not fit u64 nanoseconds"
                    )));
                }
                args.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                self.spans.push(Span {
                    name: name.into_owned(),
                    cat: cat.unwrap_or_default().into_owned(),
                    pid,
                    tid,
                    start_ns,
                    dur_ns,
                    args: (args.drain(..))
                        .map(|(key, value)| (key.into_owned(), value.into_owned()))
                        .collect(),
                });
            }
            other => return Err(event(format_args!("unsupported phase \"{other}\""))),
        }
        Ok(())
    }
}

/// Why a trace was refused: the document is not JSON, or one event is
/// not a trace event (the finished `event N: …` line).
enum Fault {
    Json(ParseError),
    Event(String),
}

impl From<ParseError> for Fault {
    fn from(e: ParseError) -> Self {
        Fault::Json(e)
    }
}

impl Trace {
    /// Name the catalogued group `pid` with its process name from
    /// [`LANES`].
    ///
    /// # Panics
    /// Panics if `pid` is not a row of [`LANES`].
    pub fn name_lane(&mut self, pid: u64) {
        let lane = LANES.iter().find(|lane| lane.pid == pid);
        let name = lane.expect("a catalogued pid").process;
        self.processes.push((pid, name.to_string()));
    }

    /// Name one timeline (`pid`, `tid`) in the trace UI.
    pub fn name_thread(&mut self, pid: u64, tid: u64, name: &str) {
        self.threads.push((pid, tid, name.to_string()));
    }

    /// Record a span with no extra args.
    pub fn span(&mut self, name: &str, cat: &str, pid: u64, tid: u64, start_ns: u64, dur_ns: u64) {
        self.span_with_args(name, cat, pid, tid, start_ns, dur_ns, &[]);
    }

    /// Record a span with `args` key/value details.
    #[allow(clippy::too_many_arguments)]
    pub fn span_with_args(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        start_ns: u64,
        dur_ns: u64,
        args: &[(&str, &str)],
    ) {
        self.spans.push(Span {
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
}

/// Append `v` in decimal. Four numbers per event make this the
/// writer's inner loop: going through `fmt` instead costs it half its
/// time again.
fn push_uint(out: &mut String, mut v: u64) {
    // u64::MAX has 20 digits.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| d as char));
}

/// Append nanoseconds as decimal microseconds without float rounding
/// (`1234` ns → `1.234`, `5000` ns → `5`).
fn push_us(out: &mut String, ns: u64) {
    push_uint(out, ns / 1000);
    let frac = ns % 1000;
    if frac != 0 {
        out.push('.');
        for place in [100, 10, 1] {
            out.push((b'0' + (frac / place % 10) as u8) as char);
        }
    }
}

/// The inverse of [`push_us`] on the parsed number: microseconds to
/// the nearest nanosecond (exact for what `push_us` wrote below
/// 2^52 ns; a foreign trace's sub-nanosecond digits round). `None` for
/// a negative time or one past `u64` nanoseconds.
fn parse_us(us: f64) -> Option<u64> {
    let ns = (us * 1000.0).round();
    // 2^64 is the first f64 past `u64::MAX`.
    (us >= 0.0 && ns < 18_446_744_073_709_551_616.0).then_some(ns as u64)
}

/// Escape a string for embedding in a JSON string literal, appended to
/// `out` — escaping a field never allocates.
pub fn escape_json_into(out: &mut String, s: &str) {
    // Everything that needs an escape is ASCII, so the stretches
    // between two of them are copied whole.
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..at]);
        run = at + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn spans_round_trip() {
        let mut t = Trace::default();
        t.span("shuffle", "exchange", 1, 0, 1000, 500);
        t.span_with_args("io", "pfs", 1, 1, 1500, 2500, &[("ost", "3")]);
        let spans = t.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].end_ns(), 1500);
        assert_eq!(spans[1].args, vec![("ost".to_string(), "3".to_string())]);
    }

    #[test]
    fn chrome_trace_parses_and_preserves_times() {
        let mut t = Trace::default();
        t.processes.push((0, "des".to_string()));
        t.name_thread(0, 2, "node0.nic_tx");
        t.span("a", "c", 0, 2, 1234, 567);
        let json = t.to_chrome_json();
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
        let mut escaped = String::from("[");
        escape_json_into(&mut escaped, "a\"b\\c\nd");
        assert_eq!(escaped, "[a\\\"b\\\\c\\nd");
        let mut written = Trace::default();
        written.name_thread(7, 1, "la\tne\u{1}");
        written.span_with_args(
            "quo\"ted",
            "c\\at",
            7,
            1,
            1,
            (1 << 51) + 7,
            &[("k\n", "é→")],
        );
        let read = Trace::from_chrome_json(&written.to_chrome_json());
        assert_eq!(read, Ok(written), "a written trace reads back equal");
    }

    #[test]
    fn empty_trace_is_valid_json() {
        assert!(crate::json::parse(&Trace::default().to_chrome_json()).is_ok());
    }
}
