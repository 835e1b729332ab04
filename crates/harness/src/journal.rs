//! The crash-safe JSON-lines journal that every durable campaign file uses:
//! the run-state checkpoint ([`crate::checkpoint`]), the shared evaluation
//! cache ([`crate::evalcache`]) and the campaign service's queue journal.
//! Each of those keeps only its record codec; the file format lives here.
//!
//! A journal is one header line followed by one compact JSON document per
//! record, each terminated by `'\n'`:
//!
//! ```text
//! {"version":"mixp-run-state-1","fingerprint":"9a3bd2c41e77f052","jobs":6}
//! {"job":0,"benchmark":"tridiag", ...}
//! ```
//!
//! The rules that make it crash-safe:
//!
//! * **Header.** A file whose first line is not exactly the expected header
//!   (missing, torn, another version or campaign) is restarted: the header
//!   goes to a sibling `<path>.tmp`, is fsynced and renamed over `path`, so
//!   a crash mid-restart leaves either the old file or a complete header.
//! * **Records.** Each record is appended with one `write` of a full line,
//!   so a kill can tear at most the final line. A record counts only once
//!   its `'\n'` is in the file.
//! * **Torn tail.** On open, an unterminated final fragment is cut back to
//!   the last `'\n'` before anything is appended — otherwise the next
//!   record would be glued onto the fragment and lost on the next replay.
//!   Complete lines that fail to parse (garbage in the middle) are kept in
//!   the file and skipped on replay, never cut.
//! * **Durability.** Appends are flushed to the kernel at once and fsynced
//!   every `fsync_every` appends (`0` = never); [`JsonlJournal::sync`]
//!   forces everything appended so far to disk.

use crate::json::{parse, Json};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

pub use crate::json::compact;

/// An open, append-mode JSON-lines journal (see the module docs).
#[derive(Debug)]
pub struct JsonlJournal {
    file: File,
    /// Records appended since open.
    appends: usize,
    /// Fsync cadence: every N appends (`0` = never; see [`JsonlJournal::sync`]).
    fsync_every: usize,
}

impl JsonlJournal {
    /// Opens (or creates) the journal at `path`, reading the file once.
    ///
    /// If its first line is `header`, returns every later complete line
    /// that parses as JSON, in file order, after cutting an unterminated
    /// final fragment. Otherwise the file is restarted with `header`
    /// (temp file, fsync, atomic rename) and no records are returned.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be cut, created
    /// or opened for append.
    pub fn open(
        path: &Path,
        header: &Json,
        fsync_every: usize,
    ) -> std::io::Result<(JsonlJournal, Vec<Json>)> {
        // An unreadable file is treated like a missing one: restarted.
        let bytes = std::fs::read(path).unwrap_or_default();
        let committed = bytes
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |last| last + 1);
        let mut lines = bytes[..committed]
            .split(|&b| b == b'\n')
            .map(|line| std::str::from_utf8(line).ok().and_then(|l| parse(l).ok()));
        let (file, records) = if lines.next().flatten().as_ref() == Some(header) {
            let records = lines.flatten().collect();
            let file = OpenOptions::new().append(true).open(path)?;
            if committed < bytes.len() {
                file.set_len(committed as u64)?;
            }
            (file, records)
        } else {
            (restart(path, header)?, Vec::new())
        };
        let journal = JsonlJournal {
            file,
            appends: 0,
            fsync_every,
        };
        Ok((journal, records))
    }

    /// Appends one record as a single `write` of its compact line plus
    /// `'\n'`, flushes it, and fsyncs on the configured cadence.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed write or fsync.
    pub fn append(&mut self, record: &Json) -> std::io::Result<()> {
        let mut line = compact(record);
        line.push('\n');
        self.file.write_all(line.as_bytes())?;
        self.file.flush()?;
        self.appends += 1;
        if self.fsync_every > 0 && self.appends.is_multiple_of(self.fsync_every) {
            self.file.sync_data()?;
        }
        Ok(())
    }

    /// Forces everything appended so far to disk.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed fsync.
    pub fn sync(&self) -> std::io::Result<()> {
        self.file.sync_data()
    }
}

/// Writes a fresh journal holding only `header`, durably: the line goes to
/// a sibling `<path>.tmp`, is fsynced and renamed over `path`. Returns the
/// new file opened for appending.
fn restart(path: &Path, header: &Json) -> std::io::Result<File> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    {
        let mut file = File::create(&tmp)?;
        writeln!(file, "{}", compact(header))?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    OpenOptions::new().append(true).open(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("mixp-journal-{name}-{}", std::process::id()));
        p
    }

    fn header() -> Json {
        Json::Object(vec![
            ("version".to_string(), Json::String("test-1".to_string())),
            ("fingerprint".to_string(), Json::String("ab".to_string())),
        ])
    }

    fn record(i: usize) -> Json {
        Json::Object(vec![
            ("n".to_string(), Json::Number(i as f64)),
            ("name".to_string(), Json::String(format!("rec-é-{i}"))),
        ])
    }

    #[test]
    fn replay_at_every_crash_point_keeps_complete_records_and_appends() {
        // Header, records, and a garbage line in the middle, as written
        // before a crash that may have cut the file at any byte.
        let head = format!("{}\n", compact(&header()));
        let mut full = head.clone();
        let mut ends = Vec::new(); // (end offset, record) per record line
        for i in 0..4 {
            if i == 2 {
                full.push_str("not json\n");
            }
            full.push_str(&compact(&record(i)));
            full.push('\n');
            ends.push((full.len(), record(i)));
        }
        let path = tmpfile("crash-points");
        let appended = record(99);
        for cut in 0..=full.len() {
            std::fs::write(&path, &full.as_bytes()[..cut]).unwrap();
            let complete: Vec<Json> = ends
                .iter()
                .filter(|(end, _)| cut >= head.len() && *end <= cut)
                .map(|(_, r)| r.clone())
                .collect();
            {
                let (mut journal, records) = JsonlJournal::open(&path, &header(), 1).unwrap();
                assert_eq!(records, complete, "cut at byte {cut}");
                journal.append(&appended).unwrap();
            }
            let (_, records) = JsonlJournal::open(&path, &header(), 0).unwrap();
            let mut expected = complete;
            expected.push(appended.clone());
            assert_eq!(records, expected, "reopen after a cut at byte {cut}");
            // Only the torn tail is cut: every complete line, garbage
            // included, stays byte for byte ahead of the appended record.
            let kept = if cut < head.len() {
                head.len()
            } else {
                full.as_bytes()[..cut]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1)
            };
            let text = std::fs::read_to_string(&path).unwrap();
            assert_eq!(text, format!("{}{}\n", &full[..kept], compact(&appended)));
        }
        std::fs::remove_file(&path).ok();
    }
}
