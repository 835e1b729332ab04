//! A small blocking client for the campaign service — the library the
//! load generator and the integration tests drive the daemon with.
//!
//! One [`Client`] wraps one connection. Every method writes one request
//! line and reads one response line; [`Client::subscribe`] additionally
//! consumes the stream until the terminal trailer. Responses come back as
//! parsed [`Json`] documents — interpreting `{"ok":false,...}` is the
//! caller's business, because tests *want* to see typed rejections.

use crate::protocol::{id_line, list_line, shutdown_line, submit_line, SubmitOptions};
use mixp_harness::json::{parse, Json};
use mixp_harness::Job;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// One connection to a running daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects to the daemon's socket.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the socket is absent or refuses.
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: stream,
        })
    }

    /// Connects, retrying until `timeout` elapses — for racing a daemon
    /// that is still binding its socket (or restarting after a kill).
    ///
    /// # Errors
    ///
    /// Returns the last connection error once the timeout is spent.
    pub fn connect_within(socket: &Path, timeout: Duration) -> std::io::Result<Client> {
        let deadline = Instant::now() + timeout;
        loop {
            match Client::connect(socket) {
                Ok(client) => return Ok(client),
                Err(err) if Instant::now() >= deadline => return Err(err),
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    /// Sends one raw line (no newline) and reads one response line.
    ///
    /// # Errors
    ///
    /// I/O errors from the socket, or `UnexpectedEof` if the daemon hung
    /// up, or `InvalidData` if the response is not one JSON document.
    pub fn request(&mut self, line: &str) -> std::io::Result<Json> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    fn read_response(&mut self) -> std::io::Result<Json> {
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        parse(response.trim_end()).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("unparseable response: {} ({response:?})", e.message),
            )
        })
    }

    /// Submits a campaign. The response is `{"ok":true,"id":N,
    /// "duplicate":bool}` or a typed rejection.
    ///
    /// # Errors
    ///
    /// Socket-level errors only; rejections are in the returned document.
    pub fn submit(
        &mut self,
        tenant: &str,
        key: Option<&str>,
        jobs: &[Job],
        options: &SubmitOptions,
    ) -> std::io::Result<Json> {
        self.request(&submit_line(tenant, key, jobs, options))
    }

    /// Fetches a campaign's state and per-cell outcomes.
    ///
    /// # Errors
    ///
    /// Socket-level errors only.
    pub fn status(&mut self, id: u64) -> std::io::Result<Json> {
        self.request(&id_line("status", id))
    }

    /// Requests cancellation.
    ///
    /// # Errors
    ///
    /// Socket-level errors only.
    pub fn cancel(&mut self, id: u64) -> std::io::Result<Json> {
        self.request(&id_line("cancel", id))
    }

    /// Lists campaigns and tenant ledgers.
    ///
    /// # Errors
    ///
    /// Socket-level errors only.
    pub fn list(&mut self, tenant: Option<&str>) -> std::io::Result<Json> {
        self.request(&list_line(tenant))
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    ///
    /// Socket-level errors only.
    pub fn shutdown(&mut self) -> std::io::Result<Json> {
        self.request(&shutdown_line())
    }

    /// Subscribes to a campaign and consumes its record stream, handing
    /// each streamed observability record to `on_record`, until the
    /// `{"done":true,...}` trailer arrives; returns the trailer. On a
    /// rejection (e.g. unknown campaign) the error document is returned
    /// immediately and nothing streams.
    ///
    /// # Errors
    ///
    /// Socket-level errors only.
    pub fn subscribe(&mut self, id: u64, mut on_record: impl FnMut(&str)) -> std::io::Result<Json> {
        let ack = self.request(&id_line("subscribe", id))?;
        if ack.get("ok") != Some(&Json::Bool(true)) {
            return Ok(ack);
        }
        loop {
            let mut record = String::new();
            if self.reader.read_line(&mut record)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "daemon closed the stream mid-subscription",
                ));
            }
            let trimmed = record.trim_end();
            if let Ok(doc) = parse(trimmed) {
                if doc.get("done") == Some(&Json::Bool(true)) {
                    return Ok(doc);
                }
            }
            on_record(trimmed);
        }
    }
}
