//! Core abstractions of the HPC-MixPBench reproduction.
//!
//! This crate ties the substrates together into the interface the search
//! algorithms and the harness consume:
//!
//! * [`Benchmark`] — implemented by every kernel and application. A
//!   benchmark declares its program model (variables, dependence edges,
//!   hierarchy) and runs its computation through an
//!   [`ExecCtx`](mixp_float::ExecCtx) so that storage precision, operation
//!   counts and memory traffic all follow the configuration under test.
//! * [`SearchSpace`] — the units a search manipulates: individual variables
//!   or Typeforge clusters, matching the granularities of the paper's six
//!   algorithms.
//! * [`Evaluator`] — runs one configuration end-to-end: validity check
//!   ("does it compile"), numerical run, quality metric against the
//!   all-double reference, cost-model speedup, budget accounting and
//!   memoisation of repeated configurations.
//!
//! The crates `mixp-kernels` and `mixp-apps` provide the benchmarks,
//! `mixp-search` the algorithms, and `mixp-harness` the YAML-driven driver.

pub mod benchmark;
pub mod evaluate;
pub mod irplan;
pub mod prop;
pub mod space;
pub mod synth;

pub use benchmark::{Benchmark, BenchmarkKind};
pub use evaluate::{
    env_eval_workers, run_config, CachedEval, EvalCache, EvalError, EvalRecord, Evaluator,
    EvaluatorBuilder, ReferenceCache,
};
pub use irplan::{compile_plan, compile_plan_unoptimized, run_plan};
pub use space::{Granularity, SearchSpace, UnitId};

// Re-export the substrate crates so downstream users need only depend on
// `mixp-core`.
pub use mixp_float as float;
pub use mixp_ir as ir;
pub use mixp_obs as obs;
pub use mixp_perf as perf;
pub use mixp_pool as pool;
pub use mixp_runtime as runtime;
pub use mixp_typedeps as typedeps;
pub use mixp_verify as verify;

pub use mixp_float::{
    CancelToken, CancelUnwind, ConfigKey, ExecCtx, OpCounts, Precision, PrecisionConfig, VarId,
};
pub use mixp_obs::{MetricsSnapshot, Obs, ObsBuilder, SpanGuard, Value};
pub use mixp_perf::{CacheParams, CostModel};
pub use mixp_pool::Pool;
pub use mixp_typedeps::{ClusterId, ProgramBuilder, ProgramModel};
pub use mixp_verify::{MetricKind, QualityThreshold};
