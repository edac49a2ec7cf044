//! Shared JSON plumbing for every emitter in the workspace.
//!
//! The workspace builds offline, without `serde_json`: every JSON document
//! it emits (the `planaria-perf-stream-v1` / `planaria-contention-v1`
//! measurement schemas, the telemetry JSONL stream) is written by hand.
//! This module is the single home for that plumbing —
//! `tests/workspace_policy.rs` rejects escape helpers or schema emitters
//! defined anywhere else:
//!
//! * [`escape`] — JSON string-literal escaping;
//! * [`Writer`] — a comma/indent-discipline builder for hand-rolled
//!   documents with a fixed key order (pretty for committed measurement
//!   files, compact for JSONL);
//! * [`parse`] / [`Value`] — a strict RFC 8259 recursive-descent parser
//!   (object key order preserved — no maps, so parsing is deterministic);
//! * [`validate`] — syntax check built on the parser, used by every
//!   `--check` entry point.
//!
//! # Examples
//!
//! ```
//! use planaria_common::json::{self, Writer};
//!
//! let mut w = Writer::pretty();
//! w.begin_object();
//! w.key("schema");
//! w.string("demo-v1");
//! w.key("values");
//! w.begin_array();
//! w.u64(1);
//! w.u64(2);
//! w.end_array();
//! w.end_object();
//! let doc = w.finish();
//! assert!(json::validate(&doc).is_ok());
//! assert_eq!(json::parse(&doc).unwrap().get("schema").unwrap().as_str(), Some("demo-v1"));
//! ```

use core::fmt::Write as _;

/// Escapes a string for embedding in a JSON string literal (without the
/// surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Validates that `text` is exactly one well-formed JSON value.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with
/// its byte offset.
pub fn validate(text: &str) -> Result<(), String> {
    parse(text).map(|_| ())
}

/// Parses `text` as exactly one JSON value.
///
/// Object member order is preserved ([`Value::Object`] is a `Vec`, not a
/// map), so round-tripping and iteration are deterministic.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error, with
/// its byte offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, with escapes resolved.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; members in document order, duplicates preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on an object (first match); `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a [`Value::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is a [`Value::Object`].
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// The number, if this is a [`Value::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true").map(|()| Value::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Value::Bool(false)),
            Some(b'n') => self.literal("null").map(|()| Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut members = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Value::Object(members)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Value::Array(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self.bump().filter(u8::is_ascii_hexdigit);
                            match d {
                                Some(d) => {
                                    code = code * 16 + (d as char).to_digit(16).unwrap_or(0);
                                }
                                None => return Err(self.err("bad \\u escape")),
                            }
                        }
                        // Lone surrogates cannot become chars; map them to
                        // U+FFFD (the validator is strict about syntax, not
                        // about surrogate pairing, matching RFC 8259).
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) => {
                    // Re-assemble multi-byte UTF-8: the input is a &str, so
                    // continuation bytes are guaranteed well-formed.
                    if b.is_ascii() {
                        out.push(b as char);
                    } else {
                        let start = self.pos - 1;
                        while self.peek().is_some_and(|n| n & 0xc0 == 0x80) {
                            self.pos += 1;
                        }
                        out.push_str(
                            core::str::from_utf8(&self.bytes[start..self.pos])
                                .map_err(|_| self.err("invalid UTF-8"))?,
                        );
                    }
                }
            }
        }
    }

    fn digits(&mut self) -> Result<(), String> {
        if !self.peek().is_some_and(|b| b.is_ascii_digit()) {
            return Err(self.err("expected a digit"));
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8"))?;
        text.parse::<f64>().map(Value::Num).map_err(|_| self.err("unrepresentable number"))
    }
}

/// How a [`Writer`] lays out the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Two-space indent, one member per line — for committed files.
    Pretty,
    /// No whitespace at all — for JSONL streams.
    Compact,
}

/// A builder for hand-rolled JSON documents with a fixed key order.
///
/// The writer owns the comma/newline/indent discipline that every emitter
/// previously re-implemented; callers only state structure. Numbers are
/// pushed either typed ([`Writer::u64`], [`Writer::f64`]) or preformatted
/// ([`Writer::raw`]) so emitters keep exact control of precision.
///
/// Calls must nest correctly; [`Writer::finish`] panics on unbalanced
/// documents (emitters are deterministic, so any imbalance is a plain bug
/// caught by the first test that runs the emitter).
#[derive(Debug)]
pub struct Writer {
    buf: String,
    layout: Layout,
    /// One frame per open container: `(is_array, member_count)`.
    stack: Vec<(bool, usize)>,
    /// Set between `key()` and the value that consumes it.
    pending_key: bool,
    /// Nesting depth at which inline (single-line) mode was entered.
    inline_from: Option<usize>,
}

impl Writer {
    /// A writer producing two-space-indented output with a trailing newline.
    pub fn pretty() -> Self {
        Writer {
            buf: String::new(),
            layout: Layout::Pretty,
            stack: Vec::new(),
            pending_key: false,
            inline_from: None,
        }
    }

    /// A writer producing whitespace-free output (one JSONL record).
    pub fn compact() -> Self {
        Writer {
            buf: String::new(),
            layout: Layout::Compact,
            stack: Vec::new(),
            pending_key: false,
            inline_from: None,
        }
    }

    fn multiline(&self) -> bool {
        self.layout == Layout::Pretty && self.inline_from.is_none()
    }

    fn newline_indent(&mut self, depth: usize) {
        self.buf.push('\n');
        for _ in 0..depth {
            self.buf.push_str("  ");
        }
    }

    /// Writes the separator a new member needs, if any.
    fn prepare_value(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some((is_array, count)) = self.stack.last().copied() {
            assert!(is_array, "object values need a key() first");
            if count > 0 {
                self.buf.push(',');
                if self.layout == Layout::Pretty && !self.multiline() {
                    self.buf.push(' ');
                }
            }
            if self.multiline() {
                let depth = self.stack.len();
                self.newline_indent(depth);
            }
            if let Some(last) = self.stack.last_mut() {
                last.1 += 1;
            }
        }
    }

    /// Starts a member of the current object: separator, `"name":`.
    pub fn key(&mut self, name: &str) {
        let (is_array, count) = *self.stack.last().expect("key() outside any object");
        assert!(!is_array, "key() inside an array");
        assert!(!self.pending_key, "two key() calls without a value");
        if count > 0 {
            self.buf.push(',');
            if self.layout == Layout::Pretty && !self.multiline() {
                self.buf.push(' ');
            }
        }
        if self.multiline() {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        let _ = write!(self.buf, "\"{}\":", escape(name));
        if self.layout == Layout::Pretty {
            self.buf.push(' ');
        }
        if let Some(last) = self.stack.last_mut() {
            last.1 += 1;
        }
        self.pending_key = true;
    }

    /// Opens an object (as a value or array element).
    pub fn begin_object(&mut self) {
        self.prepare_value();
        self.buf.push('{');
        self.stack.push((false, 0));
    }

    /// Opens an object rendered on a single line even in pretty layout —
    /// for dense row records inside arrays.
    pub fn begin_inline_object(&mut self) {
        self.prepare_value();
        self.buf.push('{');
        self.stack.push((false, 0));
        if self.inline_from.is_none() {
            self.inline_from = Some(self.stack.len());
        }
    }

    /// Closes the current object.
    pub fn end_object(&mut self) {
        let (is_array, count) = self.stack.pop().expect("end_object() with nothing open");
        assert!(!is_array, "end_object() closes an array");
        assert!(!self.pending_key, "key() without a value");
        if self.inline_from == Some(self.stack.len() + 1) {
            self.inline_from = None;
        } else if self.multiline() && count > 0 {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        self.buf.push('}');
    }

    /// Opens an array (as a value or array element).
    pub fn begin_array(&mut self) {
        self.prepare_value();
        self.buf.push('[');
        self.stack.push((true, 0));
    }

    /// Closes the current array.
    pub fn end_array(&mut self) {
        let (is_array, count) = self.stack.pop().expect("end_array() with nothing open");
        assert!(is_array, "end_array() closes an object");
        if self.multiline() && count > 0 {
            let depth = self.stack.len();
            self.newline_indent(depth);
        }
        self.buf.push(']');
    }

    /// Writes a string value (escaped, quoted).
    pub fn string(&mut self, s: &str) {
        self.prepare_value();
        let _ = write!(self.buf, "\"{}\"", escape(s));
    }

    /// Writes a preformatted value verbatim — the caller guarantees it is
    /// valid JSON (typically a number formatted with explicit precision).
    pub fn raw(&mut self, preformatted: &str) {
        self.prepare_value();
        self.buf.push_str(preformatted);
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, n: u64) {
        self.prepare_value();
        let _ = write!(self.buf, "{n}");
    }

    /// Writes a float with fixed decimal precision.
    pub fn f64(&mut self, v: f64, precision: usize) {
        self.prepare_value();
        let _ = write!(self.buf, "{v:.precision$}");
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, b: bool) {
        self.prepare_value();
        self.buf.push_str(if b { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.prepare_value();
        self.buf.push_str("null");
    }

    /// Finishes the document and returns it (pretty layout gains a
    /// trailing newline, matching the committed measurement files).
    pub fn finish(mut self) -> String {
        assert!(self.stack.is_empty(), "unbalanced JSON document");
        assert!(!self.pending_key, "key() without a value");
        if self.layout == Layout::Pretty {
            self.buf.push('\n');
        }
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_wellformed_documents() {
        for ok in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            r#""a\nbÿ""#,
            r#"{"a": [1, 2.5, true, null], "b": {"c": "d"}}"#,
            "  {\n\"k\": 0\n}\n",
        ] {
            assert_eq!(validate(ok), Ok(()), "rejected valid JSON: {ok}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{]",
            "[1,]",
            r#"{"a" 1}"#,
            r#"{"a": 1,}"#,
            "01",
            "1.",
            "nul",
            r#""unterminated"#,
            "{} extra",
            r#"{"a": }"#,
        ] {
            assert!(validate(bad).is_err(), "accepted malformed JSON: {bad}");
        }
    }

    #[test]
    fn escape_handles_quotes_and_controls() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\u{1}y"), "x\\u0001y");
        assert_eq!(escape("tab\there"), "tab\\there");
    }

    #[test]
    fn parse_preserves_object_order_and_unescapes() {
        let v = parse(r#"{"b": 1, "a": "x\ny", "z": [true, null]}"#).unwrap();
        let members = v.as_object().unwrap();
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["b", "a", "z"]);
        assert_eq!(v.get("a").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().as_f64(), Some(1.0));
        assert_eq!(v.get("z").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn writer_pretty_roundtrips() {
        let mut w = Writer::pretty();
        w.begin_object();
        w.key("schema");
        w.string("t-v1");
        w.key("n");
        w.f64(1.25, 3);
        w.key("rows");
        w.begin_array();
        w.begin_inline_object();
        w.key("a");
        w.u64(1);
        w.key("b");
        w.bool(false);
        w.end_object();
        w.begin_inline_object();
        w.key("a");
        w.null();
        w.end_object();
        w.end_array();
        w.key("empty");
        w.begin_object();
        w.end_object();
        w.end_object();
        let doc = w.finish();
        assert_eq!(validate(&doc), Ok(()), "{doc}");
        assert!(doc.contains("{\"a\": 1, \"b\": false}"), "{doc}");
        assert!(doc.ends_with("}\n"), "{doc}");
        assert!(doc.contains("\"n\": 1.250"), "{doc}");
        assert_eq!(parse(&doc).unwrap().get("schema").unwrap().as_str(), Some("t-v1"));
    }

    #[test]
    fn writer_compact_has_no_whitespace() {
        let mut w = Writer::compact();
        w.begin_object();
        w.key("k");
        w.begin_array();
        w.u64(1);
        w.u64(2);
        w.end_array();
        w.end_object();
        assert_eq!(w.finish(), "{\"k\":[1,2]}");
    }
}
