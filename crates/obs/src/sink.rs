//! Trace sinks: where rendered JSONL records go.
//!
//! The file sink is the same append-only, line-per-record, torn-line-
//! tolerant format family as the harness checkpoint journal: every record
//! is one compact JSON object written with a single `write_all` + flush,
//! so a kill mid-campaign can tear at most the final line — and
//! [`crate::json::parse`] rejects every proper prefix of a record, so a
//! reader skips that line instead of poisoning the whole trace.
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
    Forward(ForwardFn),
}

/// The callback behind [`Sink::Forward`].
pub(crate) type ForwardFn = Box<dyn Fn(&str) + Send>;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, write_string, Json};

    #[test]
    fn parses_a_full_record() {
        let record = parse(r#"{"seq":3,"t":"span","id":3,"name":"eval","ok":true,"q":1.5}"#)
            .expect("parses");
        assert_eq!(record.get("seq"), Some(&Json::Number(3.0)));
        assert_eq!(record.get("t"), Some(&Json::String("span".to_string())));
        assert_eq!(record.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(record.get("q"), Some(&Json::Number(1.5)));
    }

    #[test]
    fn torn_lines_are_rejected_not_fatal() {
        // No proper prefix of a record parses, so a torn final line is
        // always recognised as one.
        let full = r#"{"seq":12,"t":"event","name":"job.attempt","job":2,"fault":null}"#;
        for cut in 0..full.len() {
            assert!(parse(&full[..cut]).is_err(), "prefix len {cut}");
        }
        assert!(parse(full).is_ok());
    }

    #[test]
    fn trailing_garbage_and_non_objects_are_rejected() {
        assert!(parse(r#"{"a":1} extra"#).is_err());
        assert!(parse("").is_err());
        // A well-formed non-object is not a record: it has no fields.
        assert_eq!(parse("[1,2]").expect("parses").get("t"), None);
        assert_eq!(parse("{}"), Ok(Json::Object(Vec::new())));
    }

    #[test]
    fn escape_round_trips_through_the_parser() {
        let nasty = "a\"b\\c\nd\u{1}";
        let mut line = String::from(r#"{"name":"#);
        write_string(&mut line, nasty);
        line.push('}');
        let record = parse(&line).expect("parses");
        assert_eq!(record.get("name").and_then(Json::as_str), Some(nasty));
    }

    #[test]
    fn negative_and_exponent_numbers_parse() {
        let record = parse(r#"{"a":-3,"b":2.5e-3}"#).expect("parses");
        assert_eq!(record.get("a"), Some(&Json::Number(-3.0)));
        assert_eq!(record.get("b"), Some(&Json::Number(0.0025)));
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
