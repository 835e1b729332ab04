//! `mixp_obs` — zero-dependency observability for the HPC-MixPBench
//! workspace: spans, events, metrics, and JSONL traces.
//!
//! The harness runs fault-tolerant parallel campaigns, yet until this crate
//! the only runtime visibility was the final report footer. `mixp_obs`
//! provides the per-phase attribution the paper's workflow asks of the
//! harness ("plug in analysis tools", §IV):
//!
//! * a **span/event tracer** ([`Obs::span`], [`Obs::event`]) ordered by a
//!   deterministic **logical clock** — a process-wide monotonic sequence
//!   number, so two runs of the same campaign produce the same span
//!   skeleton. Optional wall-clock enrichment (`wall_us` fields) is
//!   strictly additive and lives in [`clock`], the *only* module of this
//!   crate allowed to touch `std::time` — `scripts/check_hermetic.sh`
//!   greps [`trace`] and [`metrics`] to keep it that way;
//! * a **metrics registry** ([`Obs::counter_add`], [`Obs::gauge_set`],
//!   [`Obs::observe`]) of named counters, gauges and fixed-bucket
//!   histograms, lock-sharded like the harness's `SharedEvalCache`;
//! * **sinks**: an append-only JSONL trace writer (same torn-line-tolerant
//!   line-per-record family as the harness checkpoint journal) and an
//!   in-memory buffer for tests and report rendering;
//! * [`json`], the workspace's one JSON codec: the trace writer escapes
//!   through it, and the harness's interchange documents, journals, trace
//!   summariser, the campaign service's protocol and the bench summaries
//!   all read and write through it.
//!
//! The default handle is [`Obs::noop`]: a `None` inside, so every
//! instrumentation call is a single branch and the instrumented code path
//! is byte-for-byte the same computation (property-tested bit-identical in
//! the harness; `bench_obs_overhead` keeps the cost under 2%).
//!
//! This crate intentionally has **zero dependencies** — not even
//! in-workspace ones — so it can sit underneath `mixp-core` without the
//! tracer ever recursing into the code it observes.
//!
//! ```
//! use mixp_obs::{Obs, Value};
//!
//! let obs = Obs::in_memory();
//! let span = obs.span("eval", &[("config", Value::U64(3))]);
//! obs.counter_add("evaluator.runs", 1);
//! span.end_with(&[("passed", Value::Bool(true))]);
//! assert_eq!(obs.trace_lines().len(), 2); // span + end records
//! ```

pub mod clock;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod trace;

pub use metrics::{HistogramSnapshot, MetricsSnapshot, BUCKET_BOUNDS, DURATION_BOUNDS_US};
pub use trace::{Field, Obs, ObsBuilder, SpanGuard, Value};
