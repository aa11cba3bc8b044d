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
//!
//! A trace holds each distinct string once. Names, categories, args and
//! lane names are [`Sym`]s into the trace's one string table, so a
//! [`Span`] is a row of numbers, and emitting, writing, reading and
//! dropping a trace touch each distinct string once, not once per span.

use crate::catalogue::LANES;
use crate::json::{self, Key, ParseError, Parser};
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::ops::Range;

/// One string of a [`Trace`]: its row in the trace's string table,
/// resolved by [`Trace::text`]. Symbols of two traces are not
/// comparable; their texts are.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The symbol's row in its table: the index of a side table kept
    /// per symbol.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One closed interval on a lane. Its strings live in the [`Trace`]
/// that holds it, so two spans compare equal field for field only
/// within one trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Display name of the slice.
    pub name: Sym,
    /// Category (Perfetto lets users filter on it).
    pub cat: Sym,
    /// Subsystem group (Chrome trace `pid`).
    pub pid: u64,
    /// Timeline within the group (Chrome trace `tid`).
    pub tid: u64,
    /// Start, in simulated nanoseconds.
    pub start_ns: u64,
    /// Duration, in simulated nanoseconds.
    pub dur_ns: u64,
    /// The span's `args` key/value pairs: a range of [`Trace::args`].
    pub args: Range<u32>,
}

impl Span {
    /// End of the span, in simulated nanoseconds.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

/// One trace: every span plus the lane-name metadata, each in recording
/// order, over one string table. What the emitters fill and what the
/// Chrome trace file holds. Two traces are equal when their files would
/// be: strings compare by text, whatever order they were interned in.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Every complete span.
    pub spans: Vec<Span>,
    /// The `args` pairs of every span, each span's a contiguous range.
    pub args: Vec<(Sym, Sym)>,
    /// `(pid, name)` process-name metadata.
    pub processes: Vec<(u64, Sym)>,
    /// `(pid, tid, name)` thread-name metadata.
    pub threads: Vec<(u64, u64, Sym)>,
    symbols: Symbols,
}

/// What the builder calls take for a string: text to intern, text to
/// format straight into the table, or a symbol of the same trace.
pub trait IntoSym {
    /// The symbol of this string in `trace`, interned if new.
    fn into_sym(self, trace: &mut Trace) -> Sym;
}

impl IntoSym for Sym {
    fn into_sym(self, _: &mut Trace) -> Sym {
        self
    }
}

impl<T: AsRef<str> + ?Sized> IntoSym for &T {
    fn into_sym(self, trace: &mut Trace) -> Sym {
        trace.symbols.intern(self.as_ref())
    }
}

impl IntoSym for fmt::Arguments<'_> {
    fn into_sym(self, trace: &mut Trace) -> Sym {
        trace.symbols.intern_fmt(self)
    }
}

impl Trace {
    /// The text of a symbol of this trace.
    pub fn text(&self, sym: Sym) -> &str {
        self.symbols.get(sym)
    }

    /// The symbol of `text`, interned if new. `format_args!` interns
    /// without building a `String` first.
    pub fn sym(&mut self, text: impl IntoSym) -> Sym {
        text.into_sym(self)
    }

    /// Every symbol with its text, in table order (`index` 0, 1, ...).
    pub fn symbols(&self) -> impl Iterator<Item = (Sym, &str)> {
        (0..self.symbols.ends.len() as u32).map(|i| (Sym(i), self.symbols.get(Sym(i))))
    }

    /// The `args` pairs of one span of this trace.
    pub fn span_args(&self, span: &Span) -> &[(Sym, Sym)] {
        &self.args[span.args.start as usize..span.args.end as usize]
    }

    /// The value of one `args` key of a span, if it has that key.
    pub fn arg(&self, span: &Span, key: &str) -> Option<&str> {
        let args = self.span_args(span).iter();
        args.copied()
            .find(|&(k, _)| self.text(k) == key)
            .map(|(_, v)| self.text(v))
    }

    /// Whether span `a` of this trace and span `b` of trace `other`
    /// would be written as the same event.
    pub fn same_span(&self, a: &Span, other: &Trace, b: &Span) -> bool {
        let (args_a, args_b) = (self.span_args(a), other.span_args(b));
        (a.pid, a.tid, a.start_ns, a.dur_ns) == (b.pid, b.tid, b.start_ns, b.dur_ns)
            && self.text(a.name) == other.text(b.name)
            && self.text(a.cat) == other.text(b.cat)
            && args_a.len() == args_b.len()
            && (args_a.iter().zip(args_b)).all(|(&(ka, va), &(kb, vb))| {
                self.text(ka) == other.text(kb) && self.text(va) == other.text(vb)
            })
    }

    /// Serialize everything as a Chrome trace-event JSON array:
    /// metadata events (`ph:"M"`) naming lanes, then one complete event
    /// (`ph:"X"`) per span with `ts`/`dur` in microseconds. Each string
    /// is escaped once, then copied into the events that name it; every
    /// event is appended to one buffer, sized up front.
    pub fn to_chrome_json(&self) -> String {
        // The fixed text of an event plus room for its numbers.
        const EVENT: usize = 96;
        let table = self.symbols.escaped();
        let len = |sym: Sym| table.get(sym).len();
        let text: usize = (self.processes.iter().map(|&(_, name)| len(name)))
            .chain(self.threads.iter().map(|&(_, _, name)| len(name)))
            .chain(self.spans.iter().map(|s| {
                let args = self.span_args(s).iter().map(|&(k, v)| len(k) + len(v) + 6);
                len(s.name) + len(s.cat) + args.sum::<usize>()
            }))
            .sum();
        let events = self.processes.len() + self.threads.len() + self.spans.len();
        let mut out = String::with_capacity(events * EVENT + text + 4);
        out.push('[');
        let mut sep = "\n";
        let mut line = Line {
            bytes: [0; 192],
            len: 0,
        };
        let lanes = (self
            .processes
            .iter()
            .map(|&(pid, name)| ("process_name", pid, 0, name)))
        .chain((self.threads.iter()).map(|&(pid, tid, name)| ("thread_name", pid, tid, name)));
        for (what, pid, tid, name) in lanes {
            out.push_str(std::mem::replace(&mut sep, ",\n"));
            out.push_str("{\"name\":\"");
            out.push_str(what);
            line.len = 0;
            line.push("\",\"ph\":\"M\",\"pid\":");
            line.push_uint(pid);
            line.push(",\"tid\":");
            line.push_uint(tid);
            line.push(",\"args\":{\"name\":\"");
            out.push_str(line.text());
            out.push_str(table.get(name));
            out.push_str("\"}}");
        }
        for s in &self.spans {
            out.push_str(std::mem::replace(&mut sep, ",\n"));
            out.push_str("{\"name\":\"");
            out.push_str(table.get(s.name));
            out.push_str("\",\"cat\":\"");
            out.push_str(table.get(s.cat));
            // The numbers and the text between them are one copy.
            line.len = 0;
            line.push("\",\"ph\":\"X\",\"ts\":");
            line.push_us(s.start_ns);
            line.push(",\"dur\":");
            line.push_us(s.dur_ns);
            line.push(",\"pid\":");
            line.push_uint(s.pid);
            line.push(",\"tid\":");
            line.push_uint(s.tid);
            line.push(",\"args\":{");
            out.push_str(line.text());
            for (i, &(k, v)) in self.span_args(s).iter().enumerate() {
                out.push_str(if i == 0 { "\"" } else { ",\"" });
                out.push_str(table.get(k));
                out.push_str("\":\"");
                out.push_str(table.get(v));
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
    /// kept (borrowed from `input` until they are interned), every
    /// other member is validated and skipped. So the first fault in
    /// document order is the one reported: a malformed event wins over
    /// a syntax error further down the file. A read allocates for the
    /// string table and the growth of a few vectors, never per event.
    pub fn from_chrome_json(input: &str) -> Result<Self, String> {
        let mut trace = Trace::default();
        // Room for the spans of a trace this writer wrote (an event is
        // over 100 bytes), so that the vector grows once at most.
        trace.spans.reserve(input.len() / 96);
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
    /// nothing.
    fn read_event<'a>(
        &mut self,
        p: &mut Parser<'a>,
        i: usize,
        args: &mut Vec<(Cow<'a, str>, Cow<'a, str>)>,
    ) -> Result<(), Fault> {
        use Member::*;
        // `ph`, `name` and `cat` count as absent unless strings, `ts`
        // and `dur` unless numbers; `pid` and `tid` remember a value of
        // the wrong type (`Some(None)`), which is its own error.
        let (mut name, mut cat, mut ph) = (None, None, None);
        let (mut ts, mut dur, mut pid, mut tid) = (None, None, None, None);
        args.clear();
        if p.peek() == Some(b'{') {
            p.members(&EVENT_MEMBERS, |p, key| {
                match key {
                    Key::Known(Name) => name = p.string_or_skip()?,
                    Key::Known(Cat) => cat = p.string_or_skip()?,
                    Key::Known(Ph) => ph = p.string_or_skip()?,
                    Key::Known(Ts) => ts = p.number_or_skip()?,
                    Key::Known(Dur) => dur = p.number_or_skip()?,
                    Key::Known(Pid) => pid = Some(p.number_or_skip()?),
                    Key::Known(Tid) => tid = Some(p.number_or_skip()?),
                    Key::Known(Args) if p.peek() == Some(b'{') => p.object(|p, key| {
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

        let event = |what: fmt::Arguments<'_>| Fault::Event(format!("event {i}: {what}"));
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
                let named = args.iter().find(|(key, _)| key == "name");
                let meta_name = named.map_or("", |(_, value)| value);
                match &*name {
                    "process_name" => self.name_process(pid, meta_name),
                    "thread_name" => self.name_thread(pid, tid, meta_name),
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
                let (name, cat) = (self.sym(&name), self.sym(cat.as_deref().unwrap_or("")));
                let from = self.args.len();
                for (key, value) in args.iter() {
                    let pair = (self.sym(key), self.sym(value));
                    self.args.push(pair);
                }
                self.spans.push(Span {
                    name,
                    cat,
                    pid,
                    tid,
                    start_ns,
                    dur_ns,
                    args: index32(from)..index32(self.args.len()),
                });
            }
            other => return Err(event(format_args!("unsupported phase \"{other}\""))),
        }
        Ok(())
    }
}

/// The members of an event the reader keeps.
#[derive(Debug, Clone, Copy)]
enum Member {
    Name,
    Cat,
    Ph,
    Ts,
    Dur,
    Pid,
    Tid,
    Args,
}

/// In the order the writer writes them, which is the order the known
/// members are matched in.
const EVENT_MEMBERS: [(&str, Member); 8] = [
    ("name", Member::Name),
    ("cat", Member::Cat),
    ("ph", Member::Ph),
    ("ts", Member::Ts),
    ("dur", Member::Dur),
    ("pid", Member::Pid),
    ("tid", Member::Tid),
    ("args", Member::Args),
];

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
        self.name_process(pid, lane.expect("a catalogued pid").process);
    }

    /// Name one group `pid` in the trace UI.
    pub fn name_process(&mut self, pid: u64, name: impl IntoSym) {
        let name = self.sym(name);
        self.processes.push((pid, name));
    }

    /// Name one timeline (`pid`, `tid`) in the trace UI.
    pub fn name_thread(&mut self, pid: u64, tid: u64, name: impl IntoSym) {
        let name = self.sym(name);
        self.threads.push((pid, tid, name));
    }

    /// Record a span with no extra args.
    pub fn span(
        &mut self,
        name: impl IntoSym,
        cat: impl IntoSym,
        pid: u64,
        tid: u64,
        start_ns: u64,
        dur_ns: u64,
    ) {
        self.span_with_args(name, cat, pid, tid, start_ns, dur_ns, &[] as &[(Sym, Sym)]);
    }

    /// Record a span with `args` key/value details.
    #[allow(clippy::too_many_arguments)]
    pub fn span_with_args<K: IntoSym + Copy, V: IntoSym + Copy>(
        &mut self,
        name: impl IntoSym,
        cat: impl IntoSym,
        pid: u64,
        tid: u64,
        start_ns: u64,
        dur_ns: u64,
        args: &[(K, V)],
    ) {
        let (name, cat) = (self.sym(name), self.sym(cat));
        let from = self.args.len();
        for &(k, v) in args {
            let pair = (self.sym(k), self.sym(v));
            self.args.push(pair);
        }
        self.spans.push(Span {
            name,
            cat,
            pid,
            tid,
            start_ns,
            dur_ns,
            args: index32(from)..index32(self.args.len()),
        });
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.processes.len() == other.processes.len()
            && self.threads.len() == other.threads.len()
            && self.spans.len() == other.spans.len()
            && (self.processes.iter().zip(&other.processes))
                .all(|(&(pa, a), &(pb, b))| pa == pb && self.text(a) == other.text(b))
            && (self.threads.iter().zip(&other.threads)).all(|(&(pa, ta, a), &(pb, tb, b))| {
                (pa, ta) == (pb, tb) && self.text(a) == other.text(b)
            })
            && (self.spans.iter().zip(&other.spans)).all(|(a, b)| self.same_span(a, other, b))
    }
}

impl Eq for Trace {}

fn index32(i: usize) -> u32 {
    u32::try_from(i).expect("a trace holds under 2^32 args and string bytes")
}

/// The string table of one trace: every distinct string once, in one
/// buffer, and an index for interning. It grows fourfold when full, so
/// a table of `n` strings has allocated `O(log n)` times.
#[derive(Debug, Clone, Default)]
struct Symbols {
    text: String,
    /// Symbol `i` is `text[ends[i - 1]..ends[i]]` (from 0 for the
    /// first).
    ends: Vec<u32>,
    /// Open addressing over the symbols: `(hash, symbol)`, [`EMPTY`]
    /// for a free slot. A power of two long and at most half full.
    slots: Vec<(u32, u32)>,
}

/// The symbol of a free slot.
const EMPTY: u32 = u32::MAX;

impl Symbols {
    fn get(&self, sym: Sym) -> &str {
        let i = sym.index();
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.text[start..self.ends[i] as usize]
    }

    /// The symbol of `s` (`Ok`), or the free slot it would take (`Err`;
    /// out of range while the index is empty).
    fn probe(&self, s: &str, h: u32) -> Result<Sym, usize> {
        let mask = self.slots.len().wrapping_sub(1);
        let mut at = h as usize & mask;
        while let Some(&(slot_hash, sym)) = self.slots.get(at) {
            if sym == EMPTY {
                return Err(at);
            }
            if slot_hash == h && self.get(Sym(sym)) == s {
                return Ok(Sym(sym));
            }
            at = (at + 1) & mask;
        }
        Err(at)
    }

    fn intern(&mut self, s: &str) -> Sym {
        self.append(s.len(), |text| text.push_str(s))
    }

    /// Format straight into the table.
    fn intern_fmt(&mut self, args: fmt::Arguments<'_>) -> Sym {
        match args.as_str() {
            Some(s) => self.intern(s),
            None => self.append(64, |text| {
                (text.write_fmt(args)).expect("a Display impl returned an error")
            }),
        }
    }

    /// The symbol of the text `write` appends (of about `len` bytes),
    /// which is kept only if it is new.
    fn append(&mut self, len: usize, write: impl FnOnce(&mut String)) -> Sym {
        let start = self.text.len();
        if self.text.capacity() - start < len {
            self.text.reserve(3 * start.max(4096) + len);
        }
        write(&mut self.text);
        let new = &self.text[start..];
        let h = hash(new);
        match self.probe(new, h) {
            Ok(sym) => {
                self.text.truncate(start);
                sym
            }
            Err(at) => self.add(h, at),
        }
    }

    /// Make the text past the last symbol a new symbol, whose index
    /// slot is `at`.
    fn add(&mut self, h: u32, at: usize) -> Sym {
        let sym = Sym(index32(self.ends.len()));
        if self.ends.len() == self.ends.capacity() {
            self.ends.reserve(3 * self.ends.len().max(1024));
        }
        self.ends.push(index32(self.text.len()));
        if 2 * self.ends.len() <= self.slots.len() {
            self.slots[at] = (h, sym.0);
        } else {
            self.reindex();
        }
        sym
    }

    /// A fourfold index over every symbol.
    fn reindex(&mut self) {
        let len = (4 * self.slots.len()).max(4096);
        self.slots.clear();
        self.slots.resize(len, (0, EMPTY));
        for i in 0..self.ends.len() as u32 {
            let text = self.get(Sym(i));
            let h = hash(text);
            let at = self.probe(text, h).expect_err("each text once");
            self.slots[at] = (h, i);
        }
    }

    /// The table as the writer copies it: escaped for a JSON string
    /// literal, which is the table itself when nothing needs an escape.
    fn escaped(&self) -> Cow<'_, Symbols> {
        if !self.text.bytes().any(needs_escape) {
            return Cow::Borrowed(self);
        }
        let mut text = String::with_capacity(self.text.len() + self.text.len() / 8);
        let ends = (0..self.ends.len() as u32)
            .map(|i| {
                escape_json_into(&mut text, self.get(Sym(i)));
                index32(text.len())
            })
            .collect();
        Cow::Owned(Symbols {
            text,
            ends,
            slots: Vec::new(),
        })
    }
}

/// A multiply-rotate hash over eight bytes at a time: the index's only
/// input is strings of one trace, so speed matters and flooding does
/// not.
fn hash(s: &str) -> u32 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mix = |h: u64, word: u64| (h.rotate_left(5) ^ word).wrapping_mul(K);
    let mut words = s.as_bytes().chunks_exact(8);
    let mut h = (&mut words).fold(s.len() as u64, |h, w| {
        mix(h, u64::from_le_bytes(w.try_into().expect("eight bytes")))
    });
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        h = mix(h, u64::from_le_bytes(last));
    }
    (h >> 32) as u32
}

/// The text of one event between its strings: what the writer builds
/// on the stack and copies once. Four numbers per event
/// make this the writer's inner loop: going through `fmt` instead costs
/// it half its time again.
struct Line {
    bytes: [u8; 192],
    len: usize,
}

impl Line {
    fn push(&mut self, s: &str) {
        self.bytes[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
    }

    /// Append `v` in decimal.
    fn push_uint(&mut self, mut v: u64) {
        let digits = v.checked_ilog10().unwrap_or(0) as usize + 1;
        self.len += digits;
        for at in (self.len - digits..self.len).rev() {
            self.bytes[at] = b'0' + (v % 10) as u8;
            v /= 10;
        }
    }

    /// Append nanoseconds as decimal microseconds without float
    /// rounding (`1234` ns → `1.234`, `5000` ns → `5`).
    fn push_us(&mut self, ns: u64) {
        self.push_uint(ns / 1000);
        let frac = ns % 1000;
        if frac != 0 {
            self.bytes[self.len] = b'.';
            for (i, place) in [100, 10, 1].into_iter().enumerate() {
                self.bytes[self.len + 1 + i] = b'0' + (frac / place % 10) as u8;
            }
            self.len += 4;
        }
    }

    fn text(&self) -> &str {
        std::str::from_utf8(&self.bytes[..self.len]).expect("ASCII")
    }
}

/// The inverse of [`Line::push_us`] on the parsed number: microseconds to
/// the nearest nanosecond (exact for what `push_us` wrote below
/// 2^52 ns; a foreign trace's sub-nanosecond digits round). `None` for
/// a negative time or one past `u64` nanoseconds.
fn parse_us(us: f64) -> Option<u64> {
    let ns = (us * 1000.0).round();
    // 2^64 is the first f64 past `u64::MAX`.
    (us >= 0.0 && ns < 18_446_744_073_709_551_616.0).then_some(ns as u64)
}

/// Whether a byte must be escaped inside a JSON string literal.
fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Escape a string for embedding in a JSON string literal, appended to
/// `out` — escaping a field never allocates.
pub fn escape_json_into(out: &mut String, s: &str) {
    // Everything that needs an escape is ASCII, so the stretches
    // between two of them are copied whole.
    let mut run = 0;
    for (at, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
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
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].end_ns(), 1500);
        assert_eq!(t.arg(&t.spans[1], "ost"), Some("3"));
        assert_eq!(t.arg(&t.spans[0], "ost"), None);
        assert_eq!(std::mem::size_of::<Span>(), 48);
    }

    #[test]
    fn each_string_is_held_once() {
        let mut t = Trace::default();
        t.name_thread(1, 0, "ost0");
        for i in 0..1000u64 {
            t.span(format_args!("io.rank{}", i % 10), "ost0", 1, 0, i, 1);
        }
        // Ten names and one category; the lane name is the category.
        assert_eq!(t.symbols().count(), 11);
        assert_eq!(t.spans[3].name, t.spans[13].name);
        assert_eq!(t.text(t.spans[3].name), "io.rank3");
        assert_eq!(t.sym("io.rank7"), t.spans[7].name);
        assert_eq!(
            t.symbols().count(),
            11,
            "interning a held string adds nothing"
        );
        // Enough symbols to grow the index several times over.
        let syms: Vec<Sym> = (0..5000).map(|i| t.sym(format_args!("s{i}"))).collect();
        for (i, &sym) in syms.iter().enumerate() {
            assert_eq!(t.text(sym), format!("s{i}"));
            assert_eq!(t.sym(&*format!("s{i}")), sym);
        }
    }

    #[test]
    fn chrome_trace_parses_and_preserves_times() {
        let mut t = Trace::default();
        t.name_process(0, "des");
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
