//! The workspace's one JSON codec: a small, dependency-free reader and
//! writer.
//!
//! Every record the workspace keeps is JSON: FloatSmith-style interchange
//! documents, the crash-safe journals (one [`compact`] line per record),
//! the campaign service's line protocol, `BENCH_*.json` bench summaries
//! ([`Json::pretty`]) and the `--trace` JSONL records, whose writer in
//! [`crate::trace`] escapes through [`write_string`] and whose reader
//! (`summarize_trace` in the harness) goes through [`parse`]. The grammar
//! and the escaping rules live here and nowhere else.
//!
//! Full JSON value model with strict parsing (trailing garbage, bad
//! escapes, unescaped control characters in strings, malformed numbers
//! and every proper prefix of a document are errors). Writing is
//! deterministic: object keys keep insertion order, floats print via
//! Rust's shortest round-trip formatting, and non-finite floats print as
//! `null`.

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (held as f64, like JavaScript).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Serialises with 2-space indentation.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(0));
        out
    }

    /// Appends the value to `out`: indented at `indent` levels, or on one
    /// line with no whitespace when `indent` is `None`.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            // JSON has no NaN/Inf; encode as null like most writers.
            Json::Number(_) => out.push_str("null"),
            Json::String(s) => write_string(out, s),
            Json::Array(items) => write_seq(
                out,
                indent,
                ('[', ']'),
                items.iter().map(|item| (None, item)),
            ),
            Json::Object(members) => write_seq(
                out,
                indent,
                ('{', '}'),
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

/// Writes the entries of an array (no keys) or an object (keys) between
/// `brackets`.
fn write_seq<'a>(
    out: &mut String,
    indent: Option<usize>,
    brackets: (char, char),
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let empty = entries.len() == 0;
    out.push(brackets.0);
    for (i, (key, value)) in entries.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(level) = indent {
            newline(out, level + 1);
        }
        if let Some(key) = key {
            write_string(out, key);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        value.write(out, indent.map(|level| level + 1));
    }
    if let (Some(level), false) = (indent, empty) {
        newline(out, level);
    }
    out.push(brackets.1);
}

fn newline(out: &mut String, level: usize) {
    out.push('\n');
    for _ in 0..level {
        out.push_str("  ");
    }
}

/// One-line rendering with no whitespace: the form of every JSON-lines
/// record (journals, protocol lines), where the pretty writer's newlines
/// are forbidden.
pub fn compact(doc: &Json) -> String {
    let mut out = String::new();
    doc.write(&mut out, None);
    out
}

/// Appends `s` to `out` as a quoted JSON string. `"` and `\` are
/// backslash-escaped, `\n`/`\r`/`\t` use their short escapes and other
/// control characters `\u00XX`; everything else is copied as is.
pub fn write_string(out: &mut String, s: &str) {
    out.push('"');
    let mut start = 0;
    for (i, byte) in s.bytes().enumerate() {
        if !matches!(byte, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        // Every byte escaped here is ASCII, so `i` is a char boundary.
        out.push_str(&s[start..i]);
        start = i + 1;
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
    }
    out.push_str(&s[start..]);
    out.push('"');
}

/// Error produced on malformed JSON input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, JsonError> {
        Err(JsonError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(format!("expected `{}`", b as char))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            self.err(format!("expected `{word}`"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => self.err(format!("unexpected `{}`", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // character in one step; all are ASCII, so the run ends on a
            // char boundary.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| matches!(b, b'"' | b'\\' | 0..=0x1f));
            let Some(len) = run else {
                self.pos = self.bytes.len();
                return self.err("unterminated string");
            };
            out.push_str(&self.text[self.pos..self.pos + len]);
            self.pos += len;
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => self.pos += 1,
                _ => return self.err("unescaped control character in string"),
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let code = self.hex4(self.pos + 1)?;
                    let c = match code {
                        0xd800..=0xdbff => {
                            // A high surrogate must pair with a low one:
                            // together they encode one non-BMP char.
                            if self.bytes.get(self.pos + 5..self.pos + 7) != Some(b"\\u") {
                                return self.err("unpaired surrogate in \\u escape");
                            }
                            let low = self.hex4(self.pos + 7)?;
                            if !(0xdc00..=0xdfff).contains(&low) {
                                return self.err("unpaired surrogate in \\u escape");
                            }
                            self.pos += 6;
                            0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00)
                        }
                        0xdc00..=0xdfff => return self.err("unpaired surrogate in \\u escape"),
                        _ => code,
                    };
                    out.push(char::from_u32(c).expect("surrogates were handled above"));
                    self.pos += 4;
                }
                _ => return self.err("bad escape"),
            }
            self.pos += 1;
        }
    }

    /// The four hex digits of a `\u` escape starting at byte `at` (no
    /// sign, no shorter form).
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        match self.bytes.get(at..at + 4) {
            Some(hex) if hex.iter().all(u8::is_ascii_hexdigit) => Ok(hex
                .iter()
                .fold(0, |acc, &h| acc * 16 + (h as char).to_digit(16).unwrap())),
            _ => Err(JsonError {
                offset: at,
                message: "bad \\u escape".to_string(),
            }),
        }
    }

    /// Skips a run of ASCII digits, returning how many there were.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos - start
    }

    /// A number by the RFC 8259 grammar
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                self.digits();
            }
            _ => return self.err("expected a digit"),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if self.digits() == 0 {
                return self.err("expected a digit after `.`");
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if self.digits() == 0 {
                return self.err("expected a digit in the exponent");
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        Ok(Json::Number(
            text.parse().expect("the grammar is a subset of f64's"),
        ))
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return self.err("expected `,` or `]`"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return self.err("expected `,` or `}`"),
            }
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed input or trailing garbage.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return p.err("trailing garbage");
    }
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (text, value) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("42", Json::Number(42.0)),
            ("-1.5e3", Json::Number(-1500.0)),
            ("\"hi\"", Json::String("hi".to_string())),
        ] {
            assert_eq!(parse(text).unwrap(), value, "{text}");
        }
    }

    #[test]
    fn nested_document_parses() {
        let doc = r#"{"a": [1, {"b": "x\n"}], "c": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x\n")
        );
        assert_eq!(v.get("c"), Some(&Json::Null));
    }

    #[test]
    fn pretty_output_reparses() {
        let v = Json::Object(vec![
            (
                "name".to_string(),
                Json::String("eos \"quoted\"".to_string()),
            ),
            (
                "vals".to_string(),
                Json::Array(vec![Json::Number(1.5), Json::Bool(false), Json::Null]),
            ),
            ("empty".to_string(), Json::Object(Vec::new())),
        ]);
        assert_eq!(parse(&v.pretty()).unwrap(), v);
    }

    #[test]
    fn errors_are_located() {
        assert!(parse("{\"a\" 1}").unwrap_err().message.contains(":"));
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").unwrap_err().message.contains("trailing"));
        assert!(parse("\"open")
            .unwrap_err()
            .message
            .contains("unterminated"));
        assert!(parse("\"a\nb\"")
            .unwrap_err()
            .message
            .contains("control character"));
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            parse("\"\\u0041\\u00e9\"").unwrap(),
            Json::String("Aé".to_string())
        );
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        assert_eq!(
            parse(r#""a\ud83d\ude00b""#).unwrap(),
            Json::String("a\u{1f600}b".to_string())
        );
        assert_eq!(
            parse(r#""\uD834\uDD1E""#).unwrap(),
            Json::String("\u{1d11e}".to_string())
        );
    }

    #[test]
    fn lone_surrogates_and_signed_hex_are_rejected() {
        for (text, offset) in [
            (r#""\ud83d""#, 2),
            (r#""\ud83dx""#, 2),
            (r#""\ud83d\u0041""#, 2),
            (r#""\ude00""#, 2),
            (r#""\u+041""#, 3),
            (r#""\u-041""#, 3),
            (r#""\u12""#, 3),
            (r#""\ud83d\u+e00""#, 9),
        ] {
            let err = parse(text).unwrap_err();
            assert_eq!(err.offset, offset, "{text}: {err}");
        }
    }

    #[test]
    fn numbers_follow_the_rfc_grammar() {
        for (text, value) in [
            ("0", 0.0),
            ("-0", -0.0),
            ("10", 10.0),
            ("0.5", 0.5),
            ("-12.25e-2", -0.1225),
            ("1E+2", 100.0),
            ("2e0", 2.0),
            ("0e5", 0.0),
        ] {
            assert_eq!(parse(text).unwrap(), Json::Number(value), "{text}");
        }
        for text in [
            "01", "-01", "1.", "-.5", ".5", "1e", "1e+", "1.e3", "+1", "-", "--1", "1.2.3", "0x10",
            "1e2.5", "[01]",
        ] {
            assert!(parse(text).is_err(), "{text} must be rejected");
        }
        let err = parse("[1.]").unwrap_err();
        assert_eq!((err.offset, err.message.contains("after `.`")), (3, true));
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        assert_eq!(Json::Number(f64::NAN).pretty(), "null");
    }

    #[test]
    fn compact_is_one_line_without_whitespace() {
        let v = Json::Object(vec![
            (
                "a".to_string(),
                Json::Array(vec![Json::Number(1.0), Json::Null]),
            ),
            ("b".to_string(), Json::Object(Vec::new())),
            ("c".to_string(), Json::Array(Vec::new())),
            ("d".to_string(), Json::String("x\ny".to_string())),
        ]);
        assert_eq!(compact(&v), r#"{"a":[1,null],"b":{},"c":[],"d":"x\ny"}"#);
        assert_eq!(parse(&compact(&v)).unwrap(), v);
    }

    #[test]
    fn write_string_escapes_quotes_backslashes_and_controls() {
        let mut out = String::from("k=");
        write_string(&mut out, "a\"b\\c\nd\te\r\u{1}é");
        assert_eq!(out, r#"k="a\"b\\c\nd\te\r\u0001é""#);
        assert_eq!(
            parse(&out[2..]).unwrap(),
            Json::String("a\"b\\c\nd\te\r\u{1}é".to_string())
        );
    }

    #[test]
    fn multibyte_strings_parse_whole() {
        let text = "\"héllo — ✓\\n\"";
        assert_eq!(
            parse(text).unwrap(),
            Json::String("héllo — ✓\n".to_string())
        );
    }
}
