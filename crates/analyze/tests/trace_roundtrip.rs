//! The Chrome-trace codec of `mcio_obs::trace` loses nothing it writes:
//! for arbitrary traces — hostile strings, every sub-microsecond digit,
//! zero-length spans, named and unnamed lanes — reading the written
//! file gives the trace back, so the index built from a file is the
//! index built in process. And the reader, which pulls events off the
//! tokenizer without ever holding the document, reads what the reader
//! it replaced read: [`tree_reader`] keeps that one (the whole document
//! as a `JsonValue` first, then the events) as the oracle, and the two
//! are held together over foreign spellings of written traces and over
//! broken ones. (The properties live in this crate because `mcio-obs`
//! has no dependencies, dev-dependencies included.)

use mcio_analyze::TraceModel;
use mcio_obs::json::{self, JsonValue};
use mcio_obs::Trace;
use proptest::prelude::*;
use proptest::test_runner::TestCaseResult;

/// Strings over the characters JSON has to escape, plus non-ASCII.
fn text() -> impl Strategy<Value = String> {
    let alphabet = "aZ0 .\"\\/\n\r\t\u{0}\u{1f}\u{7f}é→\u{10348}"
        .chars()
        .collect();
    prop::collection::vec(prop::sample::select(alphabet), 0..8)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Nanoseconds of every magnitude below 2^51, zero included, with all
/// three sub-microsecond digits in play.
fn time_ns() -> impl Strategy<Value = u64> {
    (0u32..52, any::<u64>()).prop_map(|(bits, v)| v & ((1 << bits) - 1))
}

/// A span as the strategies draw it: the strings themselves.
#[derive(Debug, Clone)]
struct GenSpan {
    name: String,
    cat: String,
    pid: u64,
    tid: u64,
    start_ns: u64,
    dur_ns: u64,
    args: Vec<(String, String)>,
}

fn span() -> impl Strategy<Value = GenSpan> {
    let lane = (0u64..4, 0u64..4);
    let args = prop::collection::vec((text(), text()), 0..4);
    (text(), text(), lane, time_ns(), time_ns(), args).prop_map(
        |(name, cat, (pid, tid), start_ns, dur_ns, mut args)| {
            // The reader hands args back in key order, one per key.
            args.sort();
            args.dedup_by(|a, b| a.0 == b.0);
            GenSpan {
                name,
                cat,
                pid,
                tid,
                start_ns,
                dur_ns,
                args,
            }
        },
    )
}

/// A trace as the strategies draw it, built into a [`Trace`] by
/// [`GenTrace::build`].
#[derive(Debug, Clone)]
struct GenTrace {
    spans: Vec<GenSpan>,
    processes: Vec<(u64, String)>,
    threads: Vec<(u64, u64, String)>,
}

impl GenTrace {
    /// The trace through the builder calls, with the lane names
    /// recorded (and so interned) before the spans or after them.
    fn build(&self, lanes_first: bool) -> Trace {
        let mut t = Trace::default();
        let lanes = |t: &mut Trace| {
            for (pid, name) in &self.processes {
                t.name_process(*pid, name);
            }
            for (pid, tid, name) in &self.threads {
                t.name_thread(*pid, *tid, name);
            }
        };
        if lanes_first {
            lanes(&mut t);
        }
        for s in &self.spans {
            let args: Vec<(&str, &str)> = (s.args.iter())
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            t.span_with_args(&s.name, &s.cat, s.pid, s.tid, s.start_ns, s.dur_ns, &args);
        }
        if !lanes_first {
            lanes(&mut t);
        }
        t
    }
}

fn gen_trace() -> impl Strategy<Value = GenTrace> {
    (
        prop::collection::vec(span(), 0..12),
        prop::collection::vec((0u64..4, text()), 0..3),
        prop::collection::vec((0u64..4, 0u64..4, text()), 0..6),
    )
        .prop_map(|(spans, processes, threads)| GenTrace {
            spans,
            processes,
            threads,
        })
}

fn trace() -> impl Strategy<Value = Trace> {
    gen_trace().prop_map(|g| g.build(true))
}

/// `Trace::from_chrome_json` as it was while it read a tree: parse the
/// whole document, then walk the events. Same checks in the same
/// order, same wordings; a syntax error anywhere in the file is found
/// before any event is looked at.
fn tree_reader(input: &str) -> Result<Trace, String> {
    const PAST_U64: f64 = 18_446_744_073_709_551_616.0;
    let doc = json::parse(input).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events = doc
        .as_array()
        .ok_or_else(|| "trace is not a JSON array of events".to_string())?;
    let mut trace = Trace::default();
    for (i, ev) in events.iter().enumerate() {
        let missing = |key: &str| format!("event {i}: missing \"{key}\"");
        let text = |key: &str| ev.get(key).and_then(JsonValue::as_str);
        let uint = |key: &str| {
            let f = ev.get(key).ok_or_else(|| missing(key))?.as_f64();
            f.filter(|f| *f >= 0.0 && f.fract() == 0.0 && *f < PAST_U64)
                .map(|f| f as u64)
                .ok_or_else(|| format!("event {i}: \"{key}\" is not an unsigned integer"))
        };
        let time_ns = |key: &str| {
            let us = ev.get(key).and_then(JsonValue::as_f64);
            let us = us.ok_or_else(|| missing(key))?;
            let ns = (us * 1000.0).round();
            (us >= 0.0 && ns < PAST_U64)
                .then_some(ns as u64)
                .ok_or_else(|| {
                    format!("event {i}: \"{key}\" is negative or does not fit u64 nanoseconds")
                })
        };
        let ph = text("ph").ok_or_else(|| missing("ph"))?;
        let (pid, tid) = (uint("pid")?, uint("tid")?);
        let name = text("name").ok_or_else(|| missing("name"))?;
        match ph {
            "M" => {
                let meta_name = ev.get("args").and_then(|a| a.get("name"));
                let meta_name = meta_name.and_then(JsonValue::as_str).unwrap_or_default();
                match name {
                    "process_name" => trace.name_process(pid, meta_name),
                    "thread_name" => trace.name_thread(pid, tid, meta_name),
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
                let args: Vec<(&str, &str)> = match ev.get("args") {
                    Some(JsonValue::Object(map)) => map
                        .iter()
                        .filter_map(|(k, v)| v.as_str().map(|s| (k.as_str(), s)))
                        .collect(),
                    _ => Vec::new(),
                };
                let cat = text("cat").unwrap_or_default();
                trace.span_with_args(name, cat, pid, tid, start_ns, dur_ns, &args);
            }
            other => return Err(format!("event {i}: unsupported phase \"{other}\"")),
        }
    }
    Ok(trace)
}

/// splitmix64: the spelling decisions of one case, from its seed.
struct Dice(u64);

impl Dice {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// Values a foreign exporter hangs on an event, and values of the wrong
/// type for every member the reader looks at.
fn oddments() -> Vec<JsonValue> {
    let docs = [
        "null",
        "true",
        "\"text\"",
        "-1",
        "1.5",
        "1e300",
        "1e16",
        "[]",
        "{}",
        r#"[1,[2,{"name":"x","deep":[[],{}]}],"s"]"#,
        r#"{"name":"inner","ph":"X","args":{"name":7}}"#,
    ];
    docs.iter()
        .map(|d| json::parse(d).expect("valid"))
        .collect()
}

/// What a foreign exporter may do to the events of a written trace
/// without changing what they say: members it alone knows (nested ones
/// too), `args` values that are not strings.
fn decorate(doc: &mut JsonValue, dice: &mut Dice) {
    let JsonValue::Array(events) = doc else {
        unreachable!("a written trace is an array")
    };
    let odd = oddments();
    for ev in events {
        let JsonValue::Object(members) = ev else {
            unreachable!("of objects")
        };
        for key in ["tts", "id", "cname", "sf"] {
            if dice.one_in(3) {
                members.insert(key.to_string(), odd[dice.below(odd.len())].clone());
            }
        }
        if let Some(JsonValue::Object(args)) = members.get_mut("args") {
            // `#` is not in the alphabet of generated keys.
            for key in ["#num", "#obj"] {
                if dice.one_in(3) {
                    let value = &odd[dice.below(odd.len())];
                    if value.as_str().is_none() {
                        args.insert(key.to_string(), value.clone());
                    }
                }
            }
        }
    }
}

/// One fault in one event: a member the reader needs goes missing or
/// takes a value it cannot have.
fn break_one_event(doc: &mut JsonValue, dice: &mut Dice) {
    let JsonValue::Array(events) = doc else {
        unreachable!("a written trace is an array")
    };
    if events.is_empty() {
        return;
    }
    let at = dice.below(events.len());
    let keys = ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"];
    let key = keys[dice.below(keys.len())];
    let odd = oddments();
    if dice.one_in(8) {
        events[at] = odd[dice.below(odd.len())].clone();
    } else if let JsonValue::Object(members) = &mut events[at] {
        if dice.one_in(4) {
            members.remove(key);
        } else {
            members.insert(key.to_string(), odd[dice.below(odd.len())].clone());
        }
    }
}

/// Spell `doc` the way some other writer might: members in any order,
/// whitespace anywhere the grammar allows it, characters of strings and
/// keys behind `\u` escapes (a surrogate pair past the BMP) and `/` as
/// `\/`. `repeat` counts objects down to the one that gets its first
/// member twice.
fn spell(doc: &JsonValue, dice: &mut Dice, repeat: &mut Option<usize>, out: &mut String) {
    fn space(dice: &mut Dice, out: &mut String) {
        while dice.one_in(4) {
            out.push([' ', '\t', '\n', '\r'][dice.below(4)]);
        }
    }
    fn string(s: &str, dice: &mut Dice, out: &mut String) {
        out.push('"');
        for c in s.chars() {
            if c == '/' && dice.one_in(2) {
                out.push_str("\\/");
            } else if dice.one_in(6) {
                for unit in c.encode_utf16(&mut [0; 2]) {
                    out.push_str(&format!("\\u{unit:04x}"));
                }
            } else {
                mcio_obs::trace::escape_json_into(out, c.encode_utf8(&mut [0; 4]));
            }
        }
        out.push('"');
    }
    space(dice, out);
    match doc {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(&b.to_string()),
        JsonValue::Number(n) if dice.one_in(4) => out.push_str(&format!("{n:e}")),
        JsonValue::Number(n) => out.push_str(&n.to_string()),
        JsonValue::String(s) => string(s, dice, out),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                spell(item, dice, repeat, out);
            }
            space(dice, out);
            out.push(']');
        }
        JsonValue::Object(map) => {
            let mut members: Vec<_> = map.iter().collect();
            for i in (1..members.len()).rev() {
                members.swap(i, dice.below(i + 1));
            }
            let ordinal = repeat.map(|n| n.checked_sub(1));
            if let (Some(None), Some(first)) = (ordinal, members.first().copied()) {
                members.push(first);
            }
            *repeat = ordinal.flatten();
            out.push('{');
            for (i, (key, value)) in members.into_iter().enumerate() {
                out.push_str(if i > 0 { "," } else { "" });
                space(dice, out);
                string(key, dice, out);
                space(dice, out);
                out.push(':');
                spell(value, dice, repeat, out);
            }
            space(dice, out);
            out.push('}');
        }
    }
    space(dice, out);
}

/// The written form of `t`, decorated and respelled.
fn foreign(t: &Trace, dice: &mut Dice, broken: bool, mut repeat: Option<usize>) -> String {
    let mut doc = json::parse(&t.to_chrome_json()).expect("the writer writes JSON");
    decorate(&mut doc, dice);
    if broken {
        break_one_event(&mut doc, dice);
    }
    let mut out = String::new();
    spell(&doc, dice, &mut repeat, &mut out);
    out
}

/// `n` characters of `text` replaced by ones that matter to the grammar.
fn garble(text: &str, n: usize, dice: &mut Dice) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    let alphabet: Vec<char> = "\"\\{}[]:,-.0e9 \nXMuatl\u{1}é".chars().collect();
    for _ in 0..n {
        let at = dice.below(chars.len());
        chars[at] = alphabet[dice.below(alphabet.len())];
    }
    chars.into_iter().collect()
}

/// Both readers accept `text` or both refuse it, and what they read is
/// the same trace. A document with one fault is refused with the same
/// line. With more than one, the streaming reader names the first in
/// document order, where the tree reader let a syntax error anywhere in
/// the file win over a malformed event before it: the one intended
/// difference between the two.
fn readers_agree(text: &str, one_fault: bool) -> TestCaseResult {
    let (streamed, tree) = (Trace::from_chrome_json(text), tree_reader(text));
    if let Err(line) = &streamed {
        prop_assert_eq!(line.lines().count(), 1, "{}", line);
    }
    match (&streamed, &tree) {
        (Err(event), Err(syntax)) if !one_fault && event != syntax => {
            prop_assert!(event.starts_with("event "), "{}\n{}", event, text);
            prop_assert!(
                syntax.starts_with("trace is not valid JSON: "),
                "{}",
                syntax
            );
        }
        _ => prop_assert_eq!(&streamed, &tree, "{}", text),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_written_trace_reads_back_equal(t in trace()) {
        let json = t.to_chrome_json();
        prop_assert_eq!(Trace::from_chrome_json(&json), Ok(t.clone()));
        prop_assert_eq!(TraceModel::from_chrome_json(&json), Ok(TraceModel::new(t)));
    }

    #[test]
    fn interning_order_is_invisible(g in gen_trace()) {
        let (first, last) = (g.build(true), g.build(false));
        let json = first.to_chrome_json();
        prop_assert_eq!(&first, &last);
        prop_assert_eq!(&json, &last.to_chrome_json());
        let read = Trace::from_chrome_json(&json);
        prop_assert_eq!(read.as_ref(), Ok(&last));
        prop_assert_eq!(&read.expect("read").to_chrome_json(), &json);
    }

    #[test]
    fn a_foreign_spelling_reads_as_the_written_trace(t in trace(), seed in any::<u64>()) {
        let text = foreign(&t, &mut Dice(seed), false, None);
        prop_assert_eq!(Trace::from_chrome_json(&text), Ok(t), "{}", &text);
        readers_agree(&text, true)?;
    }

    #[test]
    fn one_fault_is_the_same_line_from_both_readers(t in trace(), seed in any::<u64>()) {
        let dice = &mut Dice(seed);
        let text = if dice.one_in(2) {
            foreign(&t, dice, true, None)
        } else {
            let objects = 2 * (t.processes.len() + t.threads.len() + t.spans.len());
            let nth = dice.below(objects.max(1));
            foreign(&t, dice, false, Some(nth))
        };
        readers_agree(&text, true)?;
    }

    // One changed character can already be two faults: a `,` that
    // becomes `}` ends its event early and leaves a syntax error behind.
    #[test]
    fn a_garbled_trace_is_read_or_refused_by_both_readers(t in trace(), seed in any::<u64>()) {
        let dice = &mut Dice(seed);
        let broken = dice.one_in(4);
        let text = foreign(&t, dice, broken, None);
        let n = 1 + dice.below(4);
        readers_agree(&garble(&text, n, dice), false)?;
    }
}
