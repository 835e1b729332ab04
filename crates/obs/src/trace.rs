//! The observability handle: spans, events, and the logical clock.
//!
//! Every record carries a `seq` — a process-wide monotonic sequence number
//! that is the *only* clock the deterministic path knows. Wall-clock
//! enrichment (`wall_us`) is opt-in and comes from [`crate::clock`]; this
//! module must never reference `std::time` directly
//! (`scripts/check_hermetic.sh` greps for `Instant`/`SystemTime` here).
//!
//! [`Obs`] is a cheap clone-by-`Arc` handle. The default, [`Obs::noop`],
//! holds `None`: every instrumentation call is one branch and returns
//! immediately, so instrumented code computes bit-identically with
//! observability on or off (property-tested in the harness).

use crate::clock::WallClock;
use crate::json::write_string;
use crate::metrics::{lock_recovering, MetricsSnapshot, Registry};
use crate::sink::{ForwardFn, Sink};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A typed field value attached to a span or event.
#[derive(Debug, Clone)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float; non-finite values render as JSON `null`.
    F64(f64),
    /// Static string (the common case for labels).
    Str(&'static str),
    /// Owned string.
    S(String),
    /// Boolean.
    Bool(bool),
}

/// A named field: `("attempt", Value::U64(2))`.
pub type Field = (&'static str, Value);

struct ObsInner {
    seq: AtomicU64,
    clock: Option<WallClock>,
    metrics: Registry,
    sink: Mutex<Sink>,
}

impl ObsInner {
    /// Allocates the next logical-clock tick and writes one record.
    fn emit(&self, kind: &str, id: Option<u64>, name: &str, fields: &[Field]) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.write_record(seq, kind, id, None, name, fields);
        seq
    }

    /// The span-start form: the record's `id` is its own sequence number
    /// (race-free under concurrent emitters), and an optional `parent`
    /// links it to an enclosing span's id.
    fn emit_span(&self, name: &str, parent: Option<u64>, fields: &[Field]) -> u64 {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.write_record(seq, "span", Some(seq), parent, name, fields);
        seq
    }

    fn write_record(
        &self,
        seq: u64,
        kind: &str,
        id: Option<u64>,
        parent: Option<u64>,
        name: &str,
        fields: &[Field],
    ) {
        // One buffer per record; `write!` into a `String` cannot fail.
        let mut line = String::with_capacity(64 + fields.len() * 16);
        let _ = write!(line, "{{\"seq\":{seq},\"t\":\"{kind}\"");
        if let Some(id) = id {
            let _ = write!(line, ",\"id\":{id}");
        }
        if let Some(parent) = parent {
            let _ = write!(line, ",\"parent\":{parent}");
        }
        line.push_str(",\"name\":");
        write_string(&mut line, name);
        if let Some(clock) = &self.clock {
            let _ = write!(line, ",\"wall_us\":{}", clock.micros());
        }
        for (key, value) in fields {
            line.push(',');
            write_string(&mut line, key);
            line.push(':');
            match value {
                Value::U64(v) => {
                    let _ = write!(line, "{v}");
                }
                Value::I64(v) => {
                    let _ = write!(line, "{v}");
                }
                Value::F64(v) if v.is_finite() => {
                    let _ = write!(line, "{v}");
                }
                Value::F64(_) => line.push_str("null"),
                Value::Str(s) => write_string(&mut line, s),
                Value::S(s) => write_string(&mut line, s),
                Value::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
            }
        }
        line.push('}');
        lock_recovering(&self.sink).write_line(&line);
    }
}

/// The observability handle threaded through evaluator, searches, and the
/// campaign scheduler. Clone freely — clones share one logical clock,
/// metrics registry, and sink.
#[derive(Clone, Default)]
pub struct Obs {
    inner: Option<Arc<ObsInner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.inner.is_some() {
            "Obs(enabled)"
        } else {
            "Obs(noop)"
        })
    }
}

impl Obs {
    /// The disabled handle: every call is a single branch, no allocation,
    /// no lock. This is the default everywhere.
    pub fn noop() -> Obs {
        Obs { inner: None }
    }

    /// Starts building an enabled handle.
    pub fn builder() -> ObsBuilder {
        ObsBuilder::default()
    }

    /// An enabled handle with an in-memory sink and no wall clock — fully
    /// deterministic, used by tests and report embedding.
    pub fn in_memory() -> Obs {
        ObsBuilder::default().memory(true).build_in_memory()
    }

    /// Whether instrumentation calls do anything.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Emits one event record.
    pub fn event(&self, name: &'static str, fields: &[Field]) {
        if let Some(inner) = &self.inner {
            inner.emit("event", None, name, fields);
        }
    }

    /// Opens a span: emits a start record and returns a guard whose drop
    /// (or [`SpanGuard::end_with`]) emits the matching end record carrying
    /// the start's sequence number as `id`.
    pub fn span(&self, name: &'static str, fields: &[Field]) -> SpanGuard {
        self.span_with_parent(name, None, fields)
    }

    /// Opens a span as the child of `parent` — an enclosing span's
    /// [`SpanGuard::id`] — recorded as a `parent` field on the start
    /// record. The explicit link survives task migration between pool
    /// workers, where correlating nested spans by seq-interval containment
    /// breaks down. `parent: None` is exactly [`Obs::span`].
    pub fn span_with_parent(
        &self,
        name: &'static str,
        parent: Option<u64>,
        fields: &[Field],
    ) -> SpanGuard {
        match &self.inner {
            Some(inner) => {
                let id = inner.emit_span(name, parent, fields);
                SpanGuard {
                    inner: Some(Arc::clone(inner)),
                    id,
                    name,
                    ended: false,
                }
            }
            None => SpanGuard {
                inner: None,
                id: 0,
                name,
                ended: true,
            },
        }
    }

    /// Adds to a named counter.
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.counter_add(name, n);
        }
    }

    /// Sets a named gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.gauge_set(name, value);
        }
    }

    /// Records one observation into a named fixed-bucket histogram with
    /// the default bounds (`metrics::BUCKET_BOUNDS`).
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe(name, value);
        }
    }

    /// Records one observation into a histogram whose bucket bounds are
    /// fixed to `bounds` at its first observation (e.g.
    /// `metrics::DURATION_BOUNDS_US` for microsecond durations, which
    /// overflow the small-count defaults immediately). Later observations
    /// fold into the registered buckets whatever bounds they pass.
    pub fn observe_with_bounds(&self, name: &str, value: u64, bounds: &[u64]) {
        if let Some(inner) = &self.inner {
            inner.metrics.observe_with_bounds(name, value, bounds);
        }
    }

    /// A deterministic snapshot of all metrics, or `None` on the noop
    /// handle.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.inner.as_ref().map(|inner| inner.metrics.snapshot())
    }

    /// The lines captured by an in-memory sink (empty for file/null sinks
    /// and the noop handle).
    pub fn trace_lines(&self) -> Vec<String> {
        match &self.inner {
            Some(inner) => lock_recovering(&inner.sink).lines(),
            None => Vec::new(),
        }
    }
}

/// RAII guard for an open span. Dropping it emits the end record; use
/// [`end_with`](Self::end_with) to attach result fields to the end.
pub struct SpanGuard {
    inner: Option<Arc<ObsInner>>,
    id: u64,
    name: &'static str,
    ended: bool,
}

impl SpanGuard {
    /// The span's start sequence number — the value a child passes to
    /// [`Obs::span_with_parent`] to link itself to this span. `None` on
    /// the noop handle (there is no record to link to).
    pub fn id(&self) -> Option<u64> {
        self.inner.is_some().then_some(self.id)
    }

    /// Ends the span now, attaching the given fields to the end record.
    pub fn end_with(mut self, fields: &[Field]) {
        if let Some(inner) = self.inner.take() {
            if !self.ended {
                self.ended = true;
                inner.emit("end", Some(self.id), self.name, fields);
            }
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.ended {
            self.ended = true;
            if let Some(inner) = &self.inner {
                inner.emit("end", Some(self.id), self.name, &[]);
            }
        }
    }
}

/// Configures and builds an enabled [`Obs`] handle.
#[derive(Default)]
pub struct ObsBuilder {
    trace_path: Option<PathBuf>,
    memory: bool,
    wall_clock: bool,
    forward: Option<ForwardFn>,
}

impl std::fmt::Debug for ObsBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsBuilder")
            .field("trace_path", &self.trace_path)
            .field("memory", &self.memory)
            .field("wall_clock", &self.wall_clock)
            .field("forward", &self.forward.is_some())
            .finish()
    }
}

impl ObsBuilder {
    /// Appends trace records to the JSONL file at `path`.
    pub fn trace_path(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_path = Some(path.into());
        self
    }

    /// Buffers trace records in memory (ignored when a trace path is set).
    pub fn memory(mut self, yes: bool) -> Self {
        self.memory = yes;
        self
    }

    /// Adds `wall_us` wall-clock enrichment to every record. Off by
    /// default so traces stay reproducible.
    pub fn wall_clock(mut self, yes: bool) -> Self {
        self.wall_clock = yes;
        self
    }

    /// Hands every rendered record line to `callback` instead of a file or
    /// buffer — the fan-out hook a long-lived service uses to stream a
    /// campaign's records to live subscribers. The callback runs under the
    /// sink lock on whichever thread emitted the record, so it must be
    /// quick, must not block indefinitely, and must never call back into
    /// the same `Obs` handle. Takes precedence over `trace_path`/`memory`.
    pub fn forward(mut self, callback: impl Fn(&str) + Send + 'static) -> Self {
        self.forward = Some(Box::new(callback));
        self
    }

    /// Builds the handle; fails only if the trace file cannot be opened.
    pub fn build(mut self) -> std::io::Result<Obs> {
        let sink = match self.forward.take() {
            Some(callback) => Sink::Forward(callback),
            None => match &self.trace_path {
                Some(path) => Sink::file(path)?,
                None if self.memory => Sink::Memory(Vec::new()),
                None => Sink::Null,
            },
        };
        Ok(self.assemble(sink))
    }

    /// Infallible build for sinks that cannot fail to open.
    fn build_in_memory(self) -> Obs {
        self.assemble(Sink::Memory(Vec::new()))
    }

    fn assemble(self, sink: Sink) -> Obs {
        Obs {
            inner: Some(Arc::new(ObsInner {
                seq: AtomicU64::new(0),
                clock: self.wall_clock.then(WallClock::start),
                metrics: Registry::new(),
                sink: Mutex::new(sink),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};

    #[test]
    fn noop_handle_does_nothing_observable() {
        let obs = Obs::noop();
        assert!(!obs.enabled());
        obs.event("e", &[("x", Value::U64(1))]);
        obs.counter_add("c", 5);
        obs.observe("h", 3);
        let span = obs.span("s", &[]);
        span.end_with(&[("done", Value::Bool(true))]);
        assert!(obs.metrics_snapshot().is_none());
        assert!(obs.trace_lines().is_empty());
    }

    #[test]
    fn span_end_carries_the_start_sequence_as_id() {
        let obs = Obs::in_memory();
        let span = obs.span("eval", &[("cfg", Value::Str("ssd"))]);
        obs.event("inner", &[]);
        span.end_with(&[("passed", Value::Bool(false))]);
        let lines = obs.trace_lines();
        assert_eq!(lines.len(), 3);
        let start = parse(&lines[0]).expect("start parses");
        let end = parse(&lines[2]).expect("end parses");
        assert_eq!(start.get("t"), Some(&Json::String("span".into())));
        assert_eq!(end.get("t"), Some(&Json::String("end".into())));
        assert_eq!(start.get("seq"), start.get("id"));
        assert_eq!(end.get("id"), start.get("seq"));
        assert_eq!(end.get("passed"), Some(&Json::Bool(false)));
    }

    #[test]
    fn child_spans_carry_their_parent_id() {
        let obs = Obs::in_memory();
        let job = obs.span("job", &[]);
        let eval = obs.span_with_parent("eval", job.id(), &[]);
        let child_start = parse(&obs.trace_lines()[1]).expect("parses");
        assert_eq!(
            child_start.get("parent"),
            Some(&Json::Number(
                job.id().expect("enabled span has an id") as f64
            ))
        );
        eval.end_with(&[]);
        job.end_with(&[]);
        // Parentless spans emit no parent field at all.
        let root_start = &obs.trace_lines()[0];
        assert!(!root_start.contains("\"parent\""), "{root_start}");
    }

    #[test]
    fn noop_spans_have_no_id_to_link_to() {
        let obs = Obs::noop();
        let span = obs.span("s", &[]);
        assert_eq!(span.id(), None);
        // Linking to a None parent is the plain span form.
        let child = obs.span_with_parent("c", span.id(), &[]);
        child.end_with(&[]);
        assert!(obs.trace_lines().is_empty());
    }

    #[test]
    fn dropping_a_span_guard_ends_it_exactly_once() {
        let obs = Obs::in_memory();
        {
            let _span = obs.span("scope", &[]);
        }
        let lines = obs.trace_lines();
        assert_eq!(lines.len(), 2);
        let end = parse(&lines[1]).expect("parses");
        assert_eq!(end.get("t"), Some(&Json::String("end".into())));
    }

    #[test]
    fn sequence_numbers_are_strictly_increasing_and_deterministic() {
        let obs = Obs::in_memory();
        for _ in 0..5 {
            obs.event("tick", &[]);
        }
        let seqs: Vec<f64> = obs
            .trace_lines()
            .iter()
            .map(|l| match parse(l).expect("parses").get("seq") {
                Some(Json::Number(n)) => *n,
                other => panic!("bad seq {other:?}"),
            })
            .collect();
        assert_eq!(seqs, [0.0, 1.0, 2.0, 3.0, 4.0]);
        // No wall clock requested → no wall_us field anywhere.
        for line in obs.trace_lines() {
            assert!(!line.contains("wall_us"), "deterministic trace: {line}");
        }
    }

    #[test]
    fn wall_clock_enrichment_is_opt_in() {
        let obs = ObsBuilder::default()
            .memory(true)
            .wall_clock(true)
            .build_in_memory();
        obs.event("tick", &[]);
        let line = &obs.trace_lines()[0];
        let fields = parse(line).expect("parses");
        assert!(matches!(fields.get("wall_us"), Some(Json::Number(_))));
    }

    #[test]
    fn every_value_kind_renders_as_valid_json() {
        let obs = Obs::in_memory();
        obs.event(
            "kinds",
            &[
                ("u", Value::U64(7)),
                ("i", Value::I64(-2)),
                ("f", Value::F64(1.25)),
                ("bad", Value::F64(f64::NAN)),
                ("s", Value::Str("lit\"eral")),
                ("o", Value::S("owned".to_string())),
                ("b", Value::Bool(true)),
            ],
        );
        let fields = parse(&obs.trace_lines()[0]).expect("parses");
        assert_eq!(fields.get("u"), Some(&Json::Number(7.0)));
        assert_eq!(fields.get("i"), Some(&Json::Number(-2.0)));
        assert_eq!(fields.get("f"), Some(&Json::Number(1.25)));
        assert_eq!(fields.get("bad"), Some(&Json::Null));
        assert_eq!(fields.get("s"), Some(&Json::String("lit\"eral".into())));
        assert_eq!(fields.get("o"), Some(&Json::String("owned".into())));
        assert_eq!(fields.get("b"), Some(&Json::Bool(true)));
    }

    #[test]
    fn forward_sink_hands_each_line_to_the_callback() {
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let obs = ObsBuilder::default()
            .forward(move |line| sink.lock().unwrap().push(line.to_string()))
            .build()
            .expect("forward sink cannot fail to open");
        obs.event("tick", &[("n", Value::U64(1))]);
        obs.span("s", &[]).end_with(&[]);
        let lines = seen.lock().unwrap();
        assert_eq!(lines.len(), 3, "event + span start + span end");
        assert!(lines[0].contains("\"tick\""));
        for line in lines.iter() {
            assert!(parse(line).is_ok(), "forwarded line parses");
        }
        // The forward sink buffers nothing itself.
        assert!(obs.trace_lines().is_empty());
    }

    #[test]
    fn clones_share_one_clock_and_registry() {
        let obs = Obs::in_memory();
        let clone = obs.clone();
        obs.counter_add("hits", 1);
        clone.counter_add("hits", 2);
        obs.event("a", &[]);
        clone.event("b", &[]);
        let snap = clone.metrics_snapshot().expect("enabled");
        assert_eq!(snap.counters["hits"], 3);
        assert_eq!(obs.trace_lines().len(), 2);
    }
}
