//! The one writer and the one reader behind every `mcio.*.v1` JSON
//! document and the metrics dump.
//!
//! **Writer.** A document is a *block* object — one `"key": value` per
//! line, two more spaces per nesting level — whose values are scalars,
//! nested blocks, *inline* objects (`{"k": v, "k": v}` on the key's
//! line), *row arrays* (one inline object per line, or one block per
//! element) and *scalar arrays* (`[1,2,3]`). The writer tracks commas
//! and indentation, escapes every key and string straight into the
//! output buffer, and hands rows to a closure over the same buffer, so
//! nothing is allocated per row or per string and there is no path
//! that writes an unescaped string. Bytes are a pure function of the
//! calls: no map iteration, fixed float precision.
//!
//! Two layout facts differ between documents; each is fixed by the
//! constructor a document uses, never by an option: `mcio.prof.v1` puts
//! its top-level keys in column 0 ([`Writer::flush_left`]), and the
//! metrics dump writes its rows as `"k":"v",` without spaces
//! ([`Writer::tight`]).
//!
//! **Reader.** [`Reader`] wraps a parsed [`JsonValue`] object and a
//! context label for error messages. Unknown keys are ignored, so a
//! document can grow without breaking old readers; a known key that is
//! absent or of the wrong type is one line naming the key. Integer
//! fields are read as integers: `-5`, `1.5` and `1e300` are errors, not
//! `0`, `1` and `u64::MAX`.

use crate::json::{exact_u64, JsonValue};
use crate::trace::escape_json_into;
use std::fmt::{Display, Write as _};

/// Deterministic JSON document writer. See the module docs for the
/// layout grammar.
pub struct Writer {
    out: String,
    /// Column of the keys of the current block, or of the line the
    /// current inline object started on.
    indent: usize,
    /// The current object is inline: its keys share one line.
    inline: bool,
    /// The current object has no member yet.
    first: bool,
    /// Inline objects are written `"k":"v",` rather than `"k": "v", `.
    tight: bool,
}

impl Writer {
    fn at(indent: usize, tight: bool) -> Self {
        Writer {
            out: String::from("{"),
            indent,
            inline: false,
            first: true,
            tight,
        }
    }

    /// Start a document in the standard layout.
    pub fn document() -> Self {
        Self::at(2, false)
    }

    /// Start a document whose top-level keys sit in column 0
    /// (`mcio.prof.v1`); nested blocks indent from there.
    pub fn flush_left() -> Self {
        Self::at(0, false)
    }

    /// Start a document whose inline objects carry no spaces (the
    /// metrics dump).
    pub fn tight() -> Self {
        Self::at(2, true)
    }

    /// Close the document: the root's brace and a final newline.
    pub fn finish(mut self) -> String {
        self.out.push_str("\n}\n");
        self.out
    }

    fn newline(&mut self, indent: usize) {
        self.out.push('\n');
        self.out.extend(std::iter::repeat_n(' ', indent));
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        escape_json_into(&mut self.out, s);
        self.out.push('"');
    }

    /// Separator, line break and `"key": ` for the next member.
    fn key(&mut self, key: &str) {
        let (comma, colon) = match (self.inline, self.tight) {
            (true, false) => (", ", ": "),
            (true, true) => (",", ":"),
            (false, _) => (",", ": "),
        };
        if !self.first {
            self.out.push_str(comma);
        }
        self.first = false;
        if !self.inline {
            self.newline(self.indent);
        }
        self.quoted(key);
        self.out.push_str(colon);
    }

    fn plain(&mut self, key: &str, v: impl Display) {
        self.key(key);
        let _ = write!(self.out, "{v}");
    }

    /// `{`, the members `f` writes at `indent`, `}`.
    fn object(&mut self, inline: bool, indent: usize, f: impl FnOnce(&mut Self)) {
        let outer = (self.indent, self.inline);
        self.out.push('{');
        (self.indent, self.inline, self.first) = (indent, inline, true);
        f(self);
        (self.indent, self.inline, self.first) = (outer.0, outer.1, false);
        if !inline {
            self.newline(indent.saturating_sub(2));
        }
        self.out.push('}');
    }

    /// `[`, one object per item, `]`. `lines` puts every element on a
    /// line of its own, two columns in.
    fn array<T>(
        &mut self,
        key: &str,
        items: &[T],
        (lines, inline): (bool, bool),
        mut f: impl FnMut(&mut Self, &T),
    ) {
        self.key(key);
        self.out.push('[');
        let at = self.indent + 2;
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            if lines {
                self.newline(at);
            }
            self.object(inline, if inline { at } else { at + 2 }, |w| f(w, item));
        }
        if lines {
            self.newline(self.indent);
        }
        self.out.push(']');
    }

    /// The `"schema"` stamp.
    pub fn schema(&mut self, schema: &str) {
        self.text("schema", schema);
    }

    /// An unsigned integer.
    pub fn uint(&mut self, key: &str, v: u64) {
        self.plain(key, v);
    }

    /// `true` / `false`.
    pub fn flag(&mut self, key: &str, v: bool) {
        self.plain(key, v);
    }

    /// A float with exactly `places` decimals (documents use 1, 3, 6).
    pub fn float(&mut self, key: &str, v: f64, places: usize) {
        self.key(key);
        let _ = write!(self.out, "{v:.places$}");
    }

    /// The metrics dump's number: integral values bare, anything else
    /// in shortest round-trip form.
    pub fn num(&mut self, key: &str, v: f64) {
        self.key(key);
        self.out.push_str(&crate::export::fmt_num(v));
    }

    /// An escaped string.
    pub fn text(&mut self, key: &str, v: &str) {
        self.key(key);
        self.quoted(v);
    }

    /// `null` for `None`; otherwise whatever `some` (one of the value
    /// methods) writes for the payload.
    pub fn opt<T>(&mut self, key: &str, v: Option<T>, some: impl FnOnce(&mut Self, &str, T)) {
        match v {
            Some(v) => some(self, key, v),
            None => self.plain(key, "null"),
        }
    }

    /// A scalar array of any length: `[1,2,3]`.
    pub fn uints(&mut self, key: &str, vs: &[u64]) {
        self.key(key);
        self.out.push('[');
        for (i, v) in vs.iter().enumerate() {
            let _ = write!(self.out, "{}{v}", if i > 0 { "," } else { "" });
        }
        self.out.push(']');
    }

    /// A fixed two-element tuple, spaced like an inline object:
    /// `[a, b]`.
    pub fn pair(&mut self, key: &str, (a, b): (u64, u64)) {
        self.key(key);
        let _ = write!(self.out, "[{a}, {b}]");
    }

    /// A nested block: one member per line, two columns further in.
    pub fn block(&mut self, key: &str, f: impl FnOnce(&mut Self)) {
        self.key(key);
        self.object(false, self.indent + 2, f);
    }

    /// A nested inline object on the key's own line.
    pub fn inline(&mut self, key: &str, f: impl FnOnce(&mut Self)) {
        self.key(key);
        self.object(true, self.indent, f);
    }

    /// A row array: one inline object per item, one item per line.
    pub fn rows<T>(&mut self, key: &str, items: &[T], f: impl FnMut(&mut Self, &T)) {
        self.array(key, items, (true, true), f);
    }

    /// An array of blocks: each item a block of its own, e.g. the
    /// schedules embedded in `mcio.scheduler_suite.v1`.
    pub fn blocks<T>(&mut self, key: &str, items: &[T], f: impl FnMut(&mut Self, &T)) {
        self.array(key, items, (true, false), f);
    }

    /// A row array that stays on the key's line: `[{…},{…}]`.
    pub fn inline_rows<T>(&mut self, key: &str, items: &[T], f: impl FnMut(&mut Self, &T)) {
        self.array(key, items, (false, true), f);
    }
}

/// Typed access to one object of a parsed document. `what` names the
/// document in error messages (`baseline`, `timeline`, a file path).
#[derive(Clone, Copy)]
pub struct Reader<'a> {
    value: &'a JsonValue,
    what: &'a str,
}

impl<'a> Reader<'a> {
    /// Wrap the root of a parsed document.
    pub fn new(value: &'a JsonValue, what: &'a str) -> Self {
        Reader { value, what }
    }

    fn field<T>(
        &self,
        key: &str,
        kind: &str,
        pick: impl FnOnce(&'a JsonValue) -> Option<T>,
    ) -> Result<T, String> {
        self.value
            .get(key)
            .and_then(pick)
            .ok_or_else(|| format!("{}: `{key}` is missing or not {kind}", self.what))
    }

    /// Require the `schema` stamp to be one of `expected`; returns the
    /// one that matched.
    pub fn schema<'e>(&self, expected: &[&'e str]) -> Result<&'e str, String> {
        let found = self.value.get("schema").and_then(JsonValue::as_str);
        let known = found.and_then(|s| expected.iter().find(|e| **e == s));
        known.copied().ok_or_else(|| {
            let problem = match found {
                Some(s) => format!("unsupported schema `{s}`"),
                None => "carries no `schema` stamp".to_string(),
            };
            format!(
                "{}: {problem} (expected {})",
                self.what,
                expected.join(" or ")
            )
        })
    }

    /// A string member.
    pub fn text(&self, key: &str) -> Result<&'a str, String> {
        self.field(key, "a string", JsonValue::as_str)
    }

    /// A numeric member.
    pub fn float(&self, key: &str) -> Result<f64, String> {
        self.field(key, "a number", JsonValue::as_f64)
    }

    /// A boolean member.
    pub fn flag(&self, key: &str) -> Result<bool, String> {
        self.field(key, "a boolean", |v| match v {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// An unsigned-integer member: negative, fractional and
    /// out-of-range numbers are errors.
    pub fn uint(&self, key: &str) -> Result<u64, String> {
        self.field(key, "an unsigned integer", as_uint)
    }

    /// A member the document may omit: `None` when the key is absent,
    /// otherwise whatever `read` (one of the typed accessors) makes of
    /// it — a present but ill-typed member is still an error.
    pub fn opt<T>(
        &self,
        key: &str,
        read: impl FnOnce(&Self, &str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.value.get(key).map(|_| read(self, key)).transpose()
    }

    /// A scalar array of unsigned integers.
    pub fn uints(&self, key: &str) -> Result<Vec<u64>, String> {
        self.field(key, "an array of unsigned integers", |v| {
            v.as_array()?.iter().map(as_uint).collect()
        })
    }

    /// The objects of an array member, each read by `f`.
    pub fn rows<T>(
        &self,
        key: &str,
        mut f: impl FnMut(Reader<'a>) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let what = self.what;
        let items = self.field(key, "an array", JsonValue::as_array)?;
        // Sized up front: collecting `Result`s would grow the vector.
        let mut rows = Vec::with_capacity(items.len());
        for value in items {
            rows.push(f(Reader { value, what })?);
        }
        Ok(rows)
    }

    /// A nested object.
    pub fn child(&self, key: &str) -> Result<Reader<'a>, String> {
        let what = self.what;
        self.field(key, "an object", |value| {
            matches!(value, JsonValue::Object(_)).then_some(Reader { value, what })
        })
    }

    /// The keys of this object, sorted.
    pub fn keys(&self) -> impl Iterator<Item = &'a str> + 'a {
        let map = match self.value {
            JsonValue::Object(map) => Some(map),
            _ => None,
        };
        map.into_iter().flat_map(|m| m.keys().map(String::as_str))
    }
}

/// The number as a `u64`, if it is one exactly.
fn as_uint(v: &JsonValue) -> Option<u64> {
    exact_u64(v.as_f64()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn layout_grammar_is_byte_exact() {
        let mut w = Writer::document();
        w.schema("mcio.test.v1");
        w.uint("n", 3);
        w.block("cp", |w| {
            w.uint("a", 1);
            w.text("b", "x");
            w.rows("deep", &[7], |r, v| r.uint("v", *v));
        });
        w.inline("totals", |w| {
            w.uint("x", 1);
            w.float("y", 0.5, 3);
        });
        w.rows("rows", &[(1, true), (2, false)], |r, &(i, f)| {
            let upto: Vec<u64> = (0..i).collect();
            r.uint("i", i);
            r.flag("f", f);
            r.opt("o", f.then_some(1.25), |r, k, v| r.float(k, v, 6));
            r.opt("p", f.then_some((4, 2)), Writer::pair);
            r.uints("s", &upto);
            r.inline("args", |a| {
                upto.iter().for_each(|j| a.text(&format!("k{j}"), "v"))
            });
            r.rows("jobs", &upto, |j, v| j.uint("j", *v));
        });
        w.rows("none", &[], |r, v| r.uint("v", *v));
        w.blocks("cells", &[5, 6], |b, v| {
            b.uint("v", *v);
            b.rows("per", &[*v], |r, v| r.float("w", *v as f64, 1));
        });
        assert_eq!(
            w.finish(),
            r#"{
  "schema": "mcio.test.v1",
  "n": 3,
  "cp": {
    "a": 1,
    "b": "x",
    "deep": [
      {"v": 7}
    ]
  },
  "totals": {"x": 1, "y": 0.500},
  "rows": [
    {"i": 1, "f": true, "o": 1.250000, "p": [4, 2], "s": [0], "args": {"k0": "v"}, "jobs": [
      {"j": 0}
    ]},
    {"i": 2, "f": false, "o": null, "p": null, "s": [0,1], "args": {"k0": "v", "k1": "v"}, "jobs": [
      {"j": 0},
      {"j": 1}
    ]}
  ],
  "none": [
  ],
  "cells": [
    {
      "v": 5,
      "per": [
        {"w": 5.0}
      ]
    },
    {
      "v": 6,
      "per": [
        {"w": 6.0}
      ]
    }
  ]
}
"#
        );
    }

    #[test]
    fn the_two_layout_constants() {
        let fill = |mut w: Writer| {
            w.uint("a", 1);
            w.block("b", |w| {
                w.rows("r", &[1, 2], |r, &v| {
                    r.uint("v", v);
                    r.num("n", v as f64 / 2.0);
                    r.inline("l", |l| l.text("k", "x"));
                    r.inline_rows("q", &[0, 1][..v as usize], |q, le| q.uint("le", *le));
                });
            });
            w.finish()
        };
        assert_eq!(
            fill(Writer::flush_left()),
            "{\n\"a\": 1,\n\"b\": {\n  \"r\": [\n    \
             {\"v\": 1, \"n\": 0.5, \"l\": {\"k\": \"x\"}, \"q\": [{\"le\": 0}]},\n    \
             {\"v\": 2, \"n\": 1, \"l\": {\"k\": \"x\"}, \"q\": [{\"le\": 0},{\"le\": 1}]}\n  \
             ]\n}\n}\n"
        );
        assert_eq!(
            fill(Writer::tight()),
            "{\n  \"a\": 1,\n  \"b\": {\n    \"r\": [\n      \
             {\"v\":1,\"n\":0.5,\"l\":{\"k\":\"x\"},\"q\":[{\"le\":0}]},\n      \
             {\"v\":2,\"n\":1,\"l\":{\"k\":\"x\"},\"q\":[{\"le\":0},{\"le\":1}]}\n    \
             ]\n  }\n}\n"
        );
    }

    /// There is no unescaped path: a row whose every text field — and
    /// key — is hostile re-parses to the same strings, in both
    /// separator styles.
    #[test]
    fn every_string_is_escaped_by_construction() {
        let hostile = "a\"b\\c\n\u{1}";
        for mut w in [Writer::document(), Writer::tight()] {
            w.schema(hostile);
            w.rows("rows", &[hostile], |r, s| {
                r.text("text", s);
                r.text(s, s);
                r.opt("opt", Some(*s), Writer::text);
                r.inline("labels", |l| l.text(s, s));
            });
            let doc = parse(&w.finish()).expect("valid JSON");
            let row = Reader::new(&doc, "t").rows("rows", Ok).unwrap()[0];
            assert_eq!(Reader::new(&doc, "t").text("schema"), Ok(hostile));
            for key in ["text", hostile, "opt"] {
                assert_eq!(row.text(key), Ok(hostile), "{key:?}");
            }
            let labels = row.child("labels").unwrap();
            assert_eq!(labels.keys().collect::<Vec<_>>(), [hostile]);
            assert_eq!(labels.text(hostile), Ok(hostile));
        }
    }

    #[test]
    fn reader_types_and_single_wordings() {
        let doc = parse(
            r#"{"schema": "mcio.a.v1", "s": "x", "f": 1.5, "b": true, "n": 7, "big": 1e300,
                "neg": -5, "a": [1, 2], "bad": [1, -2], "o": {"z": 1, "y": 2},
                "rows": [{"n": 1}, {"n": 2}], "unknown": [null]}"#,
        )
        .unwrap();
        let r = Reader::new(&doc, "doc");
        assert_eq!(r.schema(&["mcio.b.v1", "mcio.a.v1"]), Ok("mcio.a.v1"));
        assert_eq!(
            r.schema(&["mcio.b.v1"]).unwrap_err(),
            "doc: unsupported schema `mcio.a.v1` (expected mcio.b.v1)"
        );
        assert_eq!(
            Reader::new(&JsonValue::Null, "doc")
                .schema(&["mcio.a.v1", "mcio.b.v1"])
                .unwrap_err(),
            "doc: carries no `schema` stamp (expected mcio.a.v1 or mcio.b.v1)"
        );
        assert_eq!(r.text("s"), Ok("x"));
        assert_eq!(r.float("f"), Ok(1.5));
        assert_eq!(r.float("n"), Ok(7.0));
        assert_eq!(r.flag("b"), Ok(true));
        assert_eq!(r.uint("n"), Ok(7));
        assert_eq!(r.opt("n", Reader::uint), Ok(Some(7)));
        assert_eq!(r.opt("absent", Reader::uint), Ok(None));
        assert!(r.opt("o", Reader::child).unwrap().is_some());
        assert_eq!(r.uints("a"), Ok(vec![1, 2]));
        assert_eq!(r.rows("rows", |x| x.uint("n")), Ok(vec![1, 2]));
        let o = r.child("o").unwrap();
        assert_eq!(o.keys().collect::<Vec<_>>(), ["y", "z"]);
        assert_eq!(o.uint("z"), Ok(1));
        for (err, want) in [
            (
                r.uint("neg").unwrap_err(),
                "doc: `neg` is missing or not an unsigned integer",
            ),
            (
                r.uint("f").unwrap_err(),
                "doc: `f` is missing or not an unsigned integer",
            ),
            (
                r.uint("big").unwrap_err(),
                "doc: `big` is missing or not an unsigned integer",
            ),
            (
                r.rows("rows", |x| x.uint("s")).unwrap_err(),
                "doc: `s` is missing or not an unsigned integer",
            ),
            (
                r.opt("neg", Reader::uint).unwrap_err(),
                "doc: `neg` is missing or not an unsigned integer",
            ),
            (
                r.uint("absent").unwrap_err(),
                "doc: `absent` is missing or not an unsigned integer",
            ),
            (
                r.uints("bad").unwrap_err(),
                "doc: `bad` is missing or not an array of unsigned integers",
            ),
            (
                r.text("n").unwrap_err(),
                "doc: `n` is missing or not a string",
            ),
            (
                r.float("s").unwrap_err(),
                "doc: `s` is missing or not a number",
            ),
            (
                r.flag("n").unwrap_err(),
                "doc: `n` is missing or not a boolean",
            ),
            (
                r.rows("o", Ok).err().unwrap(),
                "doc: `o` is missing or not an array",
            ),
            (
                r.child("a").err().unwrap(),
                "doc: `a` is missing or not an object",
            ),
        ] {
            assert_eq!(err, want);
        }
    }
}
