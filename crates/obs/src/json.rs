//! The JSON grammar of the workspace: one strict pull tokenizer.
//!
//! `Parser` is the only code that knows the grammar — whitespace,
//! escapes and `\u` surrogate pairs, the number syntax, duplicate-key
//! rejection at every depth, the nesting ceiling — and the only source
//! of `JSON parse error at byte N: …` wordings. Two readers drive it:
//! [`parse`] builds a [`JsonValue`] tree for the small documents
//! (`mcio.*.v1`, the metrics dump, the property tests that validate
//! every exporter), and `Trace::from_chrome_json` pulls tokens straight
//! into spans without a tree, because a trace is megabytes of events
//! that are each read once. Numbers are held as `f64`, which is exact
//! for the integers and millisecond-scale decimals the exporters emit.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::convert::Infallible;
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Number(f64),
    /// A string (escapes resolved).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object. `BTreeMap` because exporters emit unique keys and
    /// deterministic iteration simplifies assertions.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<JsonValue, ParseError> {
    document(input, Parser::value)
}

/// Read one complete document with `root`, which must consume exactly
/// one value: leading and trailing whitespace allowed, trailing garbage
/// rejected.
pub(crate) fn document<'a, T, E: From<ParseError>>(
    input: &'a str,
    root: impl FnOnce(&mut Parser<'a>) -> Result<T, E>,
) -> Result<T, E> {
    let mut p = Parser {
        input,
        pos: 0,
        depth: 0,
        keys: Vec::new(),
    };
    p.skip_ws();
    let value = root(&mut p)?;
    p.skip_ws();
    if p.pos != input.len() {
        return Err(p.error("trailing characters after document").into());
    }
    Ok(value)
}

/// The number as a `u64`, if it is one exactly.
pub(crate) fn exact_u64(f: f64) -> Option<u64> {
    // 2^64 is the first f64 past `u64::MAX`; NaN and ±inf fail `fract`.
    (f >= 0.0 && f.fract() == 0.0 && f < 18_446_744_073_709_551_616.0).then_some(f as u64)
}

/// Arrays and objects may nest this deep; the readers recurse once per
/// level, so the ceiling is what keeps a hostile file off the stack.
const MAX_DEPTH: usize = 128;

/// An object's keys are checked for duplicates by scanning while it has
/// at most this many, through a set past that.
const SCANNED_KEYS: usize = 16;

/// An object member's key, as [`Parser::members`] hands it over.
pub(crate) enum Key<'a, T> {
    /// One of the caller's known member names.
    Known(T),
    /// Any other key, escapes resolved.
    Other(Cow<'a, str>),
}

/// The pull tokenizer. Every method expects the cursor on the first
/// byte of what it reads and leaves it just past the last; [`array`]
/// and [`object`] skip the whitespace around elements and members.
///
/// [`array`]: Parser::array
/// [`object`]: Parser::object
pub(crate) struct Parser<'a> {
    input: &'a str,
    pos: usize,
    depth: usize,
    /// Keys read so far of every object that is open and still small,
    /// innermost last: the duplicate check without a map per object.
    keys: Vec<Cow<'a, str>>,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    /// The byte under the cursor.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.input.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    /// Step into an array or object, unless that is one level too many.
    fn open(&mut self, bracket: u8) -> Result<(), ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.expect(bracket)?;
        self.depth += 1;
        Ok(())
    }

    /// Build the tree of any value.
    fn value(&mut self) -> Result<JsonValue, ParseError> {
        Ok(match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.object::<ParseError>(|p, key| {
                    map.insert(key.into_owned(), p.value()?);
                    Ok(())
                })?;
                JsonValue::Object(map)
            }
            Some(b'[') => {
                let mut items = Vec::new();
                self.array::<ParseError>(|p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                JsonValue::Array(items)
            }
            Some(b'"') => JsonValue::String(self.string()?.into_owned()),
            Some(b't') => self.literal("true").map(|()| JsonValue::Bool(true))?,
            Some(b'f') => self.literal("false").map(|()| JsonValue::Bool(false))?,
            Some(b'n') => self.literal("null").map(|()| JsonValue::Null)?,
            Some(b'-' | b'0'..=b'9') => JsonValue::Number(self.number()?),
            _ => return Err(self.error("expected a JSON value")),
        })
    }

    /// Validate and discard any value: the same grammar as [`parse`],
    /// duplicate keys and nesting ceiling included, and no tree.
    pub(crate) fn skip_value(&mut self) -> Result<(), ParseError> {
        match self.peek() {
            Some(b'{') => self.object(|p, _| p.skip_value()),
            Some(b'[') => self.array(Self::skip_value),
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    /// The string under the cursor; any other value is skipped.
    pub(crate) fn string_or_skip(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        if self.peek() == Some(b'"') {
            self.string().map(Some)
        } else {
            self.skip_value().map(|()| None)
        }
    }

    /// The number under the cursor; any other value is skipped.
    pub(crate) fn number_or_skip(&mut self) -> Result<Option<f64>, ParseError> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number().map(Some),
            _ => self.skip_value().map(|()| None),
        }
    }

    /// Read an array, calling `element` with the cursor on each
    /// element; it must consume exactly that value.
    pub(crate) fn array<E: From<ParseError>>(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), E>,
    ) -> Result<(), E> {
        self.open(b'[')?;
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                self.skip_ws();
                element(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => return Err(self.error("expected ',' or ']'").into()),
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Read an object, calling `member` with each key and the cursor on
    /// its value; it must consume exactly that value. A key spelled
    /// twice, escapes resolved, is an error reported after its second
    /// value.
    pub(crate) fn object<E: From<ParseError>>(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), E>,
    ) -> Result<(), E> {
        self.members(&[], |p, key: Key<'a, Infallible>| match key {
            Key::Known(never) => match never {},
            Key::Other(key) => member(p, key),
        })
    }

    /// [`Parser::object`] for a reader that knows the names of the
    /// members it keeps: `member` gets [`Key::Known`] for those, so
    /// neither side compares them as strings again, and their
    /// duplicates are found with one bit each. Only the other keys are
    /// held for the duplicate check. Grammar, errors and offsets are
    /// [`Parser::object`]'s.
    pub(crate) fn members<T: Copy, E: From<ParseError>>(
        &mut self,
        known: &[(&str, T)],
        mut member: impl FnMut(&mut Self, Key<'a, T>) -> Result<(), E>,
    ) -> Result<(), E> {
        debug_assert!(known.len() <= 64, "one bit per known member");
        self.open(b'{')?;
        let base = self.keys.len();
        let mut many: Option<BTreeSet<Cow<'a, str>>> = None;
        let (mut seen, mut next) = (0u64, 0);
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                // Members usually come in the order `known` lists them:
                // the one after the last found is matched in place when
                // it is spelled without escapes.
                let found = match known.get(next) {
                    Some((name, _)) if self.plain_key(name) => Ok(next),
                    _ => {
                        let key = self.string()?;
                        known.iter().position(|(name, _)| *name == key).ok_or(key)
                    }
                };
                let (duplicate, key) = match found {
                    Ok(i) => {
                        next = i + 1;
                        let bit = 1 << i;
                        let duplicate = seen & bit != 0;
                        seen |= bit;
                        (duplicate, Key::Known(known[i].1))
                    }
                    Err(key) => {
                        let duplicate = match &mut many {
                            Some(set) => !set.insert(key.clone()),
                            None => {
                                let duplicate = self.keys[base..].contains(&key);
                                self.keys.push(key.clone());
                                if self.keys.len() - base > SCANNED_KEYS {
                                    many = Some(self.keys.drain(base..).collect());
                                }
                                duplicate
                            }
                        };
                        (duplicate, Key::Other(key))
                    }
                };
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                member(self, key)?;
                if duplicate {
                    return Err(self.error("duplicate object key").into());
                }
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => return Err(self.error("expected ',' or '}'").into()),
                }
            }
        }
        self.keys.truncate(base);
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Step over the literal `"name"` if the cursor is on it; `name`
    /// holds nothing a literal would escape.
    fn plain_key(&mut self, name: &str) -> bool {
        let rest = &self.input.as_bytes()[self.pos..];
        let plain = rest.len() > name.len() + 1
            && rest[0] == b'"'
            && rest[1..].starts_with(name.as_bytes())
            && rest[name.len() + 1] == b'"';
        if plain {
            self.pos += name.len() + 2;
        }
        plain
    }

    /// Read a string literal: a slice of the input when it has no
    /// escape, an owned string with the escapes resolved otherwise.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.expect(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            // Quotes, backslashes and control bytes are ASCII, so every
            // cut is on a character boundary of the input.
            let rest = &self.input[self.pos..];
            let stretch = (rest.bytes())
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            self.pos += stretch;
            let stretch = &rest[..stretch];
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        Some(out) => Cow::Owned(out + stretch),
                        None => Cow::Borrowed(stretch),
                    });
                }
                Some(b'\\') => {
                    let out = owned.get_or_insert_with(String::new);
                    out.push_str(stretch);
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.error("control character in string")),
            }
        }
    }

    /// The character an escape stands for; the cursor is just past the
    /// backslash and ends just past the escape.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                let mut code = self.hex4(self.pos + 1)?;
                let mut len = 4;
                // Perfetto and chrome://tracing write a character past
                // the BMP as a surrogate pair of two escapes.
                if (0xD800..0xDC00).contains(&code)
                    && self.input.as_bytes()[self.pos + 5..].starts_with(b"\\u")
                {
                    if let low @ 0xDC00..=0xDFFF = self.hex4(self.pos + 7)? {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        len = 10;
                    }
                }
                let c =
                    char::from_u32(code).ok_or_else(|| self.error("\\u escape is not a scalar"))?;
                self.pos += len;
                c
            }
            _ => return Err(self.error("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// The four hex digits at `at` as a number.
    fn hex4(&self, at: usize) -> Result<u32, ParseError> {
        let digits = self.input.as_bytes().get(at..at + 4);
        let digits = digits.ok_or_else(|| self.error("truncated \\u escape"))?;
        digits.iter().try_fold(0, |code, &d| {
            let digit = (d as char).to_digit(16);
            Ok(code * 16 + digit.ok_or_else(|| self.error("bad \\u escape"))?)
        })
    }

    /// Read a number.
    pub(crate) fn number(&mut self) -> Result<f64, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // The digits as one integer, and how many follow the point.
        let (mut mantissa, mut digits, mut scale) = (0u64, 0, 0);
        let mut fraction = false;
        loop {
            match self.peek() {
                Some(d @ b'0'..=b'9') => {
                    mantissa = mantissa.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
                    digits += 1;
                    scale += usize::from(fraction);
                }
                Some(b'.') if !fraction => fraction = true,
                _ => break,
            }
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        } else if (1..=15).contains(&digits) {
            // Below 10^15 the integer and the power of ten are exact
            // doubles, and one IEEE division rounds the quotient the way
            // `parse` rounds the decimal.
            let value = mantissa as f64 / POW10[scale];
            return Ok(if negative { -value } else { value });
        }
        self.input[start..self.pos]
            .parse()
            .map_err(|_| self.error("invalid number"))
    }
}

/// The powers of ten a double holds exactly, up to the fifteen digits
/// [`Parser::number`] reads without `parse`.
const POW10: [f64; 16] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("-12.5e2").unwrap(), JsonValue::Number(-1250.0));
        assert_eq!(
            parse("\"a\\nb\\u0041\"").unwrap(),
            JsonValue::String("a\nbA".to_string())
        );
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "c"}], "d": {}}"#).unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_f64(), Some(1.0));
        assert_eq!(a[2].get("b").and_then(JsonValue::as_str), Some("c"));
        assert_eq!(v.get("d"), Some(&JsonValue::Object(BTreeMap::new())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1,}").is_err());
        assert!(parse("1 2").is_err());
        assert!(
            parse("{\"a\":1,\"a\":2}").is_err(),
            "duplicate keys rejected"
        );
        assert!(parse("\"\\x\"").is_err());
    }

    #[test]
    fn nesting_has_a_ceiling() {
        let nested = |open: &str, depth: usize, close: &str| {
            format!("{}{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nested("[", MAX_DEPTH, "]")).is_ok());
        assert!(parse(&nested("{\"k\":", MAX_DEPTH, "}").replacen("}", "1}", 1)).is_ok());
        // One line, the offset of the bracket that went too deep, and
        // no recursion past it: two million brackets are no harder.
        for (doc, offset) in [
            (nested("[", MAX_DEPTH + 1, "]"), MAX_DEPTH),
            ("[".repeat(2_000_000), MAX_DEPTH),
            (format!("{{\"k\":{}", "[".repeat(2_000_000)), MAX_DEPTH + 4),
            (nested("[{\"k\":", MAX_DEPTH, "}]"), 6 * (MAX_DEPTH / 2)),
        ] {
            let err = parse(&doc).expect_err("too deep");
            assert_eq!(
                err.to_string(),
                format!("JSON parse error at byte {offset}: nesting deeper than 128")
            );
            assert_eq!(document(&doc, Parser::skip_value), Err(err));
        }
    }

    #[test]
    fn surrogate_pairs_decode() {
        let text = |doc: &str| parse(doc).map(|v| v.as_str().map(str::to_string));
        assert_eq!(text(r#""\ud83d\ude00""#), Ok(Some("\u{1f600}".to_string())));
        assert_eq!(
            text(r#""a\uD800\uDC00z\u00e9""#),
            Ok(Some("a\u{10000}zé".to_string()))
        );
        for (lone, offset) in [
            (r#""\ud83d""#, 2),       // high, then the end
            (r#""\ud83dx""#, 2),      // high, then no escape
            (r#""\ud83d\u0041""#, 2), // high, then not a low
            (r#""\ude00\ud83d""#, 2), // reversed
            (r#""ab\ude00""#, 4),     // low alone
        ] {
            let err = parse(lone).expect_err(lone);
            assert_eq!(
                (err.offset, &*err.message),
                (offset, "\\u escape is not a scalar")
            );
        }
        assert!(parse(r#""\ud83d\ude0""#).is_err(), "truncated low half");
        assert!(parse(r#""\u+041""#).is_err(), "hex digits only");
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let read = |doc| document(doc, Parser::string);
        assert!(matches!(
            read("\"plain é→\""),
            Ok(Cow::Borrowed("plain é→"))
        ));
        assert!(matches!(read("\"\""), Ok(Cow::Borrowed(""))));
        assert_eq!(
            read(r#""a\tb\\\/c""#),
            Ok(Cow::Owned("a\tb\\/c".to_string()))
        );
        assert!(read("\"a\nb\"").is_err(), "raw control character");
        assert!(read("\"open").is_err());
    }

    #[test]
    fn skipping_validates_like_parsing() {
        for doc in [
            r#"{"a": [1, 2, {"b": "c"}], "d": {}, "e": null, "f": -1.5e3}"#,
            r#"{"a":1,"a":2}"#,
            r#"{"a":{"k":1,"\u006b":2}}"#,
            r#"[1,]"#,
            r#"[tru]"#,
            r#"{"a" 1}"#,
            r#"["\x"]"#,
            r#"[1] 2"#,
            r#"[-]"#,
        ] {
            let skipped = document(doc, Parser::skip_value);
            assert_eq!(skipped, parse(doc).map(drop), "{doc}");
        }
        // Past the scanned prefix the duplicate check is a set.
        let member = |i: usize| format!("\"k{i}\":{i}");
        let wide: Vec<String> = (0..3 * SCANNED_KEYS).map(member).collect();
        let unique = format!("{{{}}}", wide.join(","));
        assert!(parse(&unique).is_ok());
        for twice in [0, SCANNED_KEYS + 3] {
            let doc = format!("{{{},{}}}", wide.join(","), member(twice));
            let err = parse(&doc).expect_err("duplicate");
            assert_eq!(
                (err.offset, &*err.message),
                (doc.len() - 1, "duplicate object key")
            );
        }
    }

    #[test]
    fn unicode_passthrough() {
        assert_eq!(
            parse("\"héllo → wörld\"").unwrap(),
            JsonValue::String("héllo → wörld".to_string())
        );
    }
}
