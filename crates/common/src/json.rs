//! Minimal JSON emission helpers and a bounded, panic-free parser.
//!
//! The workspace builds with no external dependencies (DESIGN.md §5), so
//! every JSON document — the tracked bench baseline, the observability
//! exporters, the JSON-lines progress reporter — is rendered by hand.
//! What must not be re-invented per call site is *escaping*: an event
//! label or error message containing `"` or a control character must not
//! corrupt the document. This module centralizes exactly that.
//!
//! The parser ([`parse_json`]) exists for the one place the workspace
//! *consumes* JSON from an untrusted peer: the `slicc-serve` wire
//! protocol's `SUBMIT` payloads. It is written for that adversarial
//! setting — recursion depth is bounded, every error is a typed
//! [`JsonError`] naming the byte offset, and no input can make it panic
//! (the serve property tests fuzz it with arbitrary bytes).

use std::collections::BTreeMap;
use std::fmt::Write;

/// Appends `s` to `out` as a JSON string literal, including the
/// surrounding quotes, escaping `"`, `\`, and control characters.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Renders `s` as a standalone JSON string literal (quotes included).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// Renders an `f64` the way JSON requires: `NaN` and infinities (which
/// JSON cannot represent) become `null`, everything else uses Rust's
/// shortest round-trippable form.
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A parsed JSON value. Objects use a sorted map so iteration (and any
/// re-rendering) is deterministic regardless of input key order.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, held as `f64` (integers up to 2^53 round-trip).
    Number(f64),
    /// A string literal, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object.
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if this is a number that is
    /// one (rejects fractions, negatives, and values beyond 2^53 where
    /// `f64` stops being exact).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The object map, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Looks up `key` in an object; `None` for non-objects too.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.get(key)
    }
}

/// A typed parse failure: what went wrong and the byte offset where.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Nesting beyond this depth is rejected rather than recursed into: the
/// parser is exposed to untrusted network payloads, and unbounded
/// recursion on `[[[[…` is a stack-overflow denial of service.
pub const MAX_JSON_DEPTH: usize = 64;

/// Parses one JSON document. The whole input must be consumed (trailing
/// whitespace is fine); depth is bounded by [`MAX_JSON_DEPTH`]; every
/// failure is a typed [`JsonError`] — no input panics.
pub fn parse_json(input: &str) -> Result<JsonValue, JsonError> {
    let mut p = Parser { bytes: input.as_bytes(), input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing data after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    input: &'a str,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { message: message.into(), offset: self.pos }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected '{literal}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        if depth >= MAX_JSON_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_JSON_DEPTH}")));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.eat("null", JsonValue::Null),
            Some(b't') => self.eat("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected byte 0x{c:02x}"))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, JsonError> {
        self.pos += 1; // '{'
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.peek() != Some(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.pos += 1;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            // Duplicate keys: last one wins, like every mainstream parser.
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening '"'
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            match c {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by an escaped low surrogate.
                            let ch = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            match ch {
                                Some(ch) => out.push(ch),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        other => return Err(self.err(format!("bad escape '\\{}'", other as char))),
                    }
                }
                0x00..=0x1f => return Err(self.err("raw control character in string")),
                _ => {
                    // Multi-byte UTF-8 comes through `char`-wise so the
                    // output stays valid UTF-8 without re-validation.
                    let rest = &self.input[self.pos..];
                    let ch = rest.chars().next().expect("peek saw a byte");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        // Byte-wise on purpose: a string slice here could split a
        // multi-byte char right after `\u` and panic.
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let mut cp = 0u32;
        for i in 0..4 {
            let d = (self.bytes[self.pos + i] as char)
                .to_digit(16)
                .ok_or_else(|| self.err("bad \\u escape"))?;
            cp = cp * 16 + d;
        }
        self.pos += 4;
        Ok(cp)
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.input[start..self.pos];
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(JsonValue::Number)
            .ok_or_else(|| self.err(format!("bad number '{text}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_strings_pass_through_quoted() {
        assert_eq!(json_str("core 3"), "\"core 3\"");
    }

    #[test]
    fn quotes_backslashes_and_controls_are_escaped() {
        assert_eq!(json_str("a\"b"), "\"a\\\"b\"");
        assert_eq!(json_str("a\\b"), "\"a\\\\b\"");
        assert_eq!(json_str("a\nb\tc"), "\"a\\nb\\tc\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn non_finite_floats_render_null() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json(" true ").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("-2.5e2").unwrap(), JsonValue::Number(-250.0));
        assert_eq!(parse_json("\"hi\"").unwrap(), JsonValue::String("hi".into()));
        let doc = parse_json(r#"{"workload": "tpcc1", "tasks": 64, "flags": [1, 2]}"#).unwrap();
        assert_eq!(doc.get("workload").and_then(JsonValue::as_str), Some("tpcc1"));
        assert_eq!(doc.get("tasks").and_then(JsonValue::as_u64), Some(64));
        assert_eq!(
            doc.get("flags"),
            Some(&JsonValue::Array(vec![JsonValue::Number(1.0), JsonValue::Number(2.0)]))
        );
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn string_escapes_round_trip_through_emit_and_parse() {
        for original in ["a\"b\\c", "line\nbreak\ttab", "unicode \u{1F600} ok", "\u{1}"] {
            let rendered = json_str(original);
            let parsed = parse_json(&rendered).unwrap();
            assert_eq!(parsed.as_str(), Some(original), "via {rendered}");
        }
        // Explicit \u escapes, including a surrogate pair.
        assert_eq!(parse_json("\"A\\ud83d\\ude00\"").unwrap().as_str(), Some("A\u{1F600}"));
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(parse_json("64").unwrap().as_u64(), Some(64));
        assert_eq!(parse_json("6.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("-1").unwrap().as_u64(), None);
        assert_eq!(parse_json("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn malformed_documents_report_typed_errors_with_offsets() {
        for (input, expect) in [
            ("", "unexpected end"),
            ("{", "expected a string key"),
            ("[1,", "unexpected end"),
            ("{\"a\" 1}", "expected ':'"),
            ("\"unterminated", "unterminated string"),
            ("tru", "expected 'true'"),
            ("1 2", "trailing data"),
            ("\"bad \\q escape\"", "bad escape"),
            ("\"\\ud800 lone\"", "lone high surrogate"),
            ("01x", "trailing data"),
            ("\"\u{1}\"", "raw control character"),
            ("\"\\u12", "truncated"),
        ] {
            let err = parse_json(input).unwrap_err();
            assert!(err.message.contains(expect), "{input:?}: got {err}");
            assert!(err.offset <= input.len());
        }
    }

    #[test]
    fn depth_beyond_the_bound_is_rejected_not_recursed() {
        let deep = "[".repeat(MAX_JSON_DEPTH + 1) + &"]".repeat(MAX_JSON_DEPTH + 1);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.message.contains("nesting deeper"), "got {err}");
        let ok = "[".repeat(MAX_JSON_DEPTH) + &"]".repeat(MAX_JSON_DEPTH);
        parse_json(&ok).expect("depth at the bound parses");
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_parser() {
        // A deterministic smoke-fuzz; the serve property tests run the
        // heavier campaign against whole protocol frames.
        let mut rng = crate::SplitMix64::new(0x5EED);
        for _ in 0..5_000 {
            let len = (rng.next_below(64)) as usize;
            let bytes: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
            if let Ok(s) = std::str::from_utf8(&bytes) {
                let _ = parse_json(s);
            }
            // Mutate a valid document too, to reach deeper states.
            let mut doc = br#"{"workload": "tpcc1", "tasks": [1, -2.5e3], "ok": true}"#.to_vec();
            if !doc.is_empty() {
                let at = rng.next_below(doc.len() as u64) as usize;
                doc[at] = rng.next_below(256) as u8;
                if let Ok(s) = std::str::from_utf8(&doc) {
                    let _ = parse_json(s);
                }
            }
        }
    }
}
