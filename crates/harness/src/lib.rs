//! The HPC-MixPBench harness (§III-A.c).
//!
//! The paper's harness deploys and runs benchmark applications, guided by a
//! user-provided YAML configuration file that describes how to build,
//! execute and verify each application, and schedules analyses in parallel
//! across a cluster. This crate is the Rust analogue:
//!
//! * [`yamlish`] — a small, dependency-free parser for the YAML subset the
//!   configuration files use (nested maps, lists, scalars — Listing 4).
//! * [`config`] — typed analysis configurations parsed from YAML.
//! * [`json`]/[`interchange`] — the FloatSmith-style JSON interchange
//!   format for configurations and analysis results.
//! * [`registry`] — benchmark lookup by name at test/paper scale.
//! * [`job`]/[`scheduler`] — analysis jobs (benchmark × algorithm ×
//!   threshold × budget) fanned out over a thread pool, the stand-in for
//!   the paper's SLURM cluster, with panic isolation, per-job deadlines
//!   and bounded retry.
//! * [`evalcache`] — the campaign-wide shared evaluation cache, so sibling
//!   jobs over the same benchmark never re-run a configuration; persisted
//!   next to the run-state journal (`<checkpoint>.cache.jsonl`) so resumed
//!   campaigns start warm.
//! * [`faultplan`] — deterministic fault injection (panics, NaN output,
//!   budget starvation, zero deadlines, hangs, poisoned cost models) for
//!   robustness testing.
//! * [`watchdog`] — preemptive deadlines: a single supervisor thread that
//!   fires each job's [`mixp_core::CancelToken`] when it overruns its
//!   deadline without heartbeats, and quarantines the worker if the job
//!   never unwinds.
//! * [`checkpoint`] — append-only run-state journal so a killed campaign
//!   resumes without re-running finished cells (failed cells are journaled
//!   too and reported on resume).
//! * [`journal`] — the one crash-safe JSON-lines file format behind the
//!   run-state journal, the cache journal and the campaign service's queue
//!   journal: header check, appends on an fsync cadence, torn-tail cut.
//! * [`experiments`] — the data generators behind every table and figure of
//!   the paper's evaluation (Tables I–V, Figures 2–3).
//! * [`report`] — plain-text table rendering.
//!
//! Every layer is wired through the `mixp-obs` observability subsystem
//! (re-exported as [`mixp_core::Obs`]): set [`CampaignOptions::obs`] (or
//! the harness binary's `--trace`/`--metrics` flags) to stream JSONL spans
//! and collect counters; the default noop handle records nothing, and
//! outcomes are bit-identical with tracing on or off.
//!
//! # Example
//!
//! ```
//! use mixp_harness::config::AnalysisConfig;
//!
//! let yaml = "
//! kmeans:
//!   build_dir: 'kmeans'
//!   analysis:
//!     floatsmith:
//!       name: 'floatSmith'
//!       extra_args:
//!         algorithm: 'ddebug'
//!   metric: 'MCR'
//!   threshold: '1e-3'
//! ";
//! let cfg = AnalysisConfig::from_yaml(yaml).unwrap();
//! assert_eq!(cfg.benchmark, "kmeans");
//! assert_eq!(cfg.algorithm, "ddebug");
//! ```

pub mod checkpoint;
pub mod config;
pub mod evalcache;
pub mod experiments;
pub mod faultplan;
pub mod interchange;
pub mod job;
pub mod journal;
pub mod json;
pub mod registry;
pub mod report;
pub mod scheduler;
pub mod tracesum;
pub mod watchdog;
pub mod yamlish;

pub use config::AnalysisConfig;
pub use evalcache::{ScopedEvalCache, ShardStats, SharedEvalCache};
pub use faultplan::{Fault, FaultPlan};
pub use job::{Job, JobError, JobResult};
pub use registry::{benchmark_by_name, benchmark_names, Scale};
pub use tracesum::{render_trace_summary, summarize_trace, TraceSummary};

pub use scheduler::{
    default_workers, run_campaign, run_campaign_with_stats, run_cell, run_jobs, CampaignOptions,
    CampaignStats, JobOutcome, RetryPolicy,
};
pub use watchdog::{WatchGuard, Watchdog};
