//! Span tracing over simulated time, exported as Chrome trace-event
//! JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! A span is a named, closed interval on one *lane*. Lanes map onto the
//! Chrome trace model as `(pid, tid)` pairs: `pid` groups a subsystem
//! (DES resources, planner, rounds...), `tid` is one timeline within it
//! (a resource, an aggregator). Times are u64 nanoseconds of simulated
//! time, matching `mcio_des::SimTime::as_nanos()`; the exporter converts
//! to the microsecond floats the trace format expects.

use crate::catalogue::LANES;
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

    /// Length of the span's intersection with the half-open window
    /// `[lo, hi)`, in nanoseconds. Zero for disjoint windows. This is
    /// the primitive the timeline sweep buckets spans with: summing
    /// `overlap_ns` over a tiling of `[0, end)` reproduces `dur_ns`
    /// exactly (integer arithmetic, no rounding).
    pub fn overlap_ns(&self, lo: u64, hi: u64) -> u64 {
        let a = self.start_ns.max(lo);
        let b = self.end_ns().min(hi);
        b.saturating_sub(a)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    /// `(pid, name)` process-name metadata.
    processes: Vec<(u64, String)>,
    /// `(pid, tid, name)` thread-name metadata.
    threads: Vec<(u64, u64, String)>,
}

/// Collects spans from every instrumented component and serializes one
/// unified Chrome trace.
#[derive(Debug, Default)]
pub struct TraceCollector {
    inner: Mutex<Inner>,
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

    /// All spans recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Run `f` over every span of one subsystem group (`pid`), without
    /// cloning the span store. Timeline sweeps iterate a single pid's
    /// lanes many times; this keeps those passes allocation-free.
    pub fn visit_pid_spans<R>(
        &self,
        pid: u64,
        f: impl FnOnce(&mut dyn Iterator<Item = &Span>) -> R,
    ) -> R {
        let inner = self.lock();
        let mut it = inner.spans.iter().filter(|s| s.pid == pid);
        f(&mut it)
    }

    /// Registered `(pid, name)` process-name metadata, in registration
    /// order.
    pub fn process_names(&self) -> Vec<(u64, String)> {
        self.lock().processes.clone()
    }

    /// Registered `(pid, tid, name)` thread-name metadata, in
    /// registration order.
    pub fn thread_names(&self) -> Vec<(u64, u64, String)> {
        self.lock().threads.clone()
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.lock().spans.len()
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize everything as a Chrome trace-event JSON array:
    /// metadata events (`ph:"M"`) naming lanes, then one complete event
    /// (`ph:"X"`) per span with `ts`/`dur` in microseconds.
    pub fn chrome_trace_json(&self) -> String {
        let inner = self.lock();
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
        for (pid, name) in &inner.processes {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    escape_json(name)
                ),
            );
        }
        for (pid, tid, name) in &inner.threads {
            push(
                &mut out,
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                     \"args\":{{\"name\":\"{}\"}}}}",
                    escape_json(name)
                ),
            );
        }
        for s in &inner.spans {
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

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
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
        let spans = t.spans();
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
        t.span("quo\"ted", "c\\at", 0, 0, 0, 1);
        assert!(crate::json::parse(&t.chrome_trace_json()).is_ok());
    }

    #[test]
    fn overlap_is_exact_under_any_tiling() {
        let s = Span {
            name: "x".into(),
            cat: "c".into(),
            pid: 1,
            tid: 0,
            start_ns: 350,
            dur_ns: 900,
            args: Vec::new(),
        };
        assert_eq!(s.overlap_ns(0, 350), 0, "disjoint left");
        assert_eq!(s.overlap_ns(1250, 2000), 0, "disjoint right");
        assert_eq!(s.overlap_ns(0, 10_000), 900, "containment");
        assert_eq!(s.overlap_ns(400, 500), 100, "interior window");
        // Tiling [0, 1300) with buckets of 400 reproduces dur exactly.
        let total: u64 = (0..4).map(|i| s.overlap_ns(i * 400, (i + 1) * 400)).sum();
        assert_eq!(total, s.dur_ns);
    }

    #[test]
    fn visit_pid_spans_filters_one_group() {
        let t = TraceCollector::new();
        t.span("a", "c", 1, 0, 0, 10);
        t.span("b", "c", 2, 0, 0, 10);
        t.span("c", "c", 1, 1, 20, 5);
        let names: Vec<String> = t.visit_pid_spans(1, |it| it.map(|s| s.name.clone()).collect());
        assert_eq!(names, ["a", "c"]);
        let none: usize = t.visit_pid_spans(9, |it| it.count());
        assert_eq!(none, 0);
    }

    #[test]
    fn empty_collector_is_valid_json() {
        let t = TraceCollector::new();
        assert!(t.is_empty());
        assert!(crate::json::parse(&t.chrome_trace_json()).is_ok());
    }
}
