//! Trace sinks: where rendered JSONL records go.
//!
//! The file sink is the same append-only, line-per-record, torn-line-
//! tolerant format family as the harness checkpoint journal: every record
//! is one compact JSON object written with a single `write_all` + flush,
//! so a kill mid-campaign can tear at most the final line — and
//! [`parse_trace_line`] simply rejects that line instead of poisoning the
//! whole trace.
//!
//! Write errors are deliberately swallowed after the first report:
//! observability must never take a campaign down.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Destination for rendered trace lines.
pub(crate) enum Sink {
    /// Discard (metrics-only observability).
    Null,
    /// Keep lines in memory — tests and report embedding.
    Memory(Vec<String>),
    /// Append to a JSONL file, one flushed line per record.
    File {
        writer: BufWriter<File>,
        failed: bool,
    },
    /// Hand each rendered line to a callback — the fan-out hook the
    /// campaign service uses to stream a live campaign's records to its
    /// subscribers. The callback runs under the sink lock, so it must be
    /// quick and must never call back into the same `Obs` handle.
    Forward(Box<dyn Fn(&str) + Send>),
}

impl Sink {
    pub(crate) fn file(path: &Path) -> std::io::Result<Sink> {
        let file = File::options().create(true).append(true).open(path)?;
        Ok(Sink::File {
            writer: BufWriter::new(file),
            failed: false,
        })
    }

    /// Writes one record (no trailing newline in `line`).
    pub(crate) fn write_line(&mut self, line: &str) {
        match self {
            Sink::Null => {}
            Sink::Memory(lines) => lines.push(line.to_string()),
            Sink::File { writer, failed } => {
                if *failed {
                    return;
                }
                let mut buf = Vec::with_capacity(line.len() + 1);
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
                let result = writer.write_all(&buf).and_then(|_| writer.flush());
                if let Err(e) = result {
                    *failed = true;
                    eprintln!("warning: trace sink write failed, tracing disabled: {e}");
                }
            }
            Sink::Forward(callback) => callback(line),
        }
    }

    pub(crate) fn lines(&self) -> Vec<String> {
        match self {
            Sink::Memory(lines) => lines.clone(),
            _ => Vec::new(),
        }
    }
}

/// Minimal JSON string escaping for the names and values this crate emits.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A scalar value in a parsed trace record.
#[derive(Debug, Clone, PartialEq)]
pub enum Scalar {
    /// JSON `null` (emitted for non-finite floats).
    Null,
    /// JSON boolean.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A JSON string, unescaped.
    Str(String),
}

/// Lenient parser for one flat trace record. Returns the key/value pairs
/// in document order, or `None` for anything malformed — including the
/// torn final line a killed process can leave behind.
///
/// Trace records are intentionally flat (no nested objects or arrays), so
/// this parser is the complete grammar for the format.
pub fn parse_trace_line(line: &str) -> Option<Vec<(String, Scalar)>> {
    let mut chars = line.trim().char_indices().peekable();
    let text = line.trim();
    let mut fields = Vec::new();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) {
        while matches!(chars.peek(), Some((_, c)) if c.is_whitespace()) {
            chars.next();
        }
    }

    fn parse_string(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) -> Option<String> {
        match chars.next() {
            Some((_, '"')) => {}
            _ => return None,
        }
        let mut out = String::new();
        loop {
            match chars.next()? {
                (_, '"') => return Some(out),
                (_, '\\') => match chars.next()?.1 {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'u' => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            code = code * 16 + chars.next()?.1.to_digit(16)?;
                        }
                        out.push(char::from_u32(code)?);
                    }
                    _ => return None,
                },
                (_, c) => out.push(c),
            }
        }
    }

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        _ => return None,
    }
    skip_ws(&mut chars);
    if matches!(chars.peek(), Some((_, '}'))) {
        chars.next();
        skip_ws(&mut chars);
        return chars.next().is_none().then_some(fields);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            _ => return None,
        }
        skip_ws(&mut chars);
        let value = match chars.peek().copied()? {
            (_, '"') => Scalar::Str(parse_string(&mut chars)?),
            (_, 't') => {
                for expect in "true".chars() {
                    if chars.next()?.1 != expect {
                        return None;
                    }
                }
                Scalar::Bool(true)
            }
            (_, 'f') => {
                for expect in "false".chars() {
                    if chars.next()?.1 != expect {
                        return None;
                    }
                }
                Scalar::Bool(false)
            }
            (_, 'n') => {
                for expect in "null".chars() {
                    if chars.next()?.1 != expect {
                        return None;
                    }
                }
                Scalar::Null
            }
            (start, _) => {
                let mut end = start;
                while matches!(
                    chars.peek(),
                    Some((_, c)) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                ) {
                    let (i, c) = chars.next()?;
                    end = i + c.len_utf8();
                }
                Scalar::Num(text[start..end].parse().ok()?)
            }
        };
        fields.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            _ => return None,
        }
    }
    skip_ws(&mut chars);
    chars.next().is_none().then_some(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get<'a>(fields: &'a [(String, Scalar)], key: &str) -> Option<&'a Scalar> {
        fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    #[test]
    fn parses_a_full_record() {
        let fields =
            parse_trace_line(r#"{"seq":3,"t":"span","id":3,"name":"eval","ok":true,"q":1.5}"#)
                .expect("parses");
        assert_eq!(get(&fields, "seq"), Some(&Scalar::Num(3.0)));
        assert_eq!(get(&fields, "t"), Some(&Scalar::Str("span".to_string())));
        assert_eq!(get(&fields, "ok"), Some(&Scalar::Bool(true)));
        assert_eq!(get(&fields, "q"), Some(&Scalar::Num(1.5)));
    }

    #[test]
    fn torn_lines_are_rejected_not_fatal() {
        // Every truncation prefix of a valid record must parse to None.
        let full = r#"{"seq":12,"t":"event","name":"job.attempt","job":2,"fault":null}"#;
        for cut in 1..full.len() {
            assert_eq!(parse_trace_line(&full[..cut]), None, "prefix len {cut}");
        }
        assert!(parse_trace_line(full).is_some());
    }

    #[test]
    fn trailing_garbage_and_non_objects_are_rejected() {
        assert_eq!(parse_trace_line(r#"{"a":1} extra"#), None);
        assert_eq!(parse_trace_line("[1,2]"), None);
        assert_eq!(parse_trace_line(""), None);
        assert_eq!(parse_trace_line("{}"), Some(Vec::new()));
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd";
        let line = format!(r#"{{"name":"{}"}}"#, escape(nasty));
        let fields = parse_trace_line(&line).expect("parses");
        assert_eq!(get(&fields, "name"), Some(&Scalar::Str(nasty.to_string())));
    }

    #[test]
    fn negative_and_exponent_numbers_parse() {
        let fields = parse_trace_line(r#"{"a":-3,"b":2.5e-3}"#).expect("parses");
        assert_eq!(get(&fields, "a"), Some(&Scalar::Num(-3.0)));
        assert_eq!(get(&fields, "b"), Some(&Scalar::Num(0.0025)));
    }

    #[test]
    fn memory_sink_accumulates_and_null_discards() {
        let mut mem = Sink::Memory(Vec::new());
        mem.write_line("{\"a\":1}");
        mem.write_line("{\"a\":2}");
        assert_eq!(mem.lines().len(), 2);
        let mut null = Sink::Null;
        null.write_line("{\"a\":1}");
        assert!(null.lines().is_empty());
    }
}
