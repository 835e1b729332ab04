//! Configuration evaluation: run, verify, price.

use crate::{Benchmark, Granularity, SearchSpace};
use mixp_float::{
    CancelToken, CancelUnwind, ConfigKey, ExecCtx, MemoryTracer, OpCounts, Precision,
    PrecisionConfig, VarId,
};
use mixp_obs::{Obs, Value};
use mixp_perf::{
    CacheParams, CacheStats, CostModel, Hierarchy, StreamFingerprint, StreamFingerprinter, Tee,
};
use mixp_pool::Pool;
use mixp_verify::QualityThreshold;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[cfg(test)]
use std::sync::atomic::{AtomicUsize, Ordering};

/// Why the evaluator refused to run a new configuration.
///
/// A search receiving any of these must stop and report "did not finish";
/// the harness inspects [`Evaluator::stop_reason`] afterwards to classify
/// the cell (DNF versus a typed job failure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// The evaluation budget is used up — the deterministic analogue of the
    /// paper's 24-hour wall-clock limit.
    BudgetExhausted,
    /// The wall-clock deadline passed. Enforced cooperatively: the check
    /// runs at each new (non-memoised) evaluation, so a single evaluation
    /// never gets interrupted mid-run.
    DeadlineExceeded,
    /// The attached [`CancelToken`] fired mid-run and the evaluation was
    /// unwound preemptively — within one bulk operation of the flag
    /// flipping. Raised by a watchdog on deadline overrun; unlike
    /// [`EvalError::DeadlineExceeded`] it interrupts a *running*
    /// evaluation instead of waiting for it to come up for air.
    Cancelled,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::BudgetExhausted => {
                f.write_str("search budget exhausted (the 24-hour limit analogue)")
            }
            EvalError::DeadlineExceeded => f.write_str("wall-clock deadline exceeded"),
            EvalError::Cancelled => f.write_str("evaluation cancelled by the watchdog"),
        }
    }
}

impl std::error::Error for EvalError {}

/// The threshold-independent part of one compiled configuration's outcome,
/// as stored in a shared (cross-evaluator) cache.
///
/// Quality and speedup are deterministic functions of (benchmark, scale,
/// configuration, cost model), so evaluators with *different* thresholds can
/// share these values and recompute `passes` locally. Non-compiling
/// configurations are never cached — their check is a cheap static
/// validation, not a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CachedEval {
    /// Verification error against the all-double reference.
    pub quality: f64,
    /// Estimated speedup over the all-double reference.
    pub speedup: f64,
}

/// A campaign-wide evaluation cache shared between evaluators of the same
/// benchmark (at the same scale and cost model).
///
/// A hit replaces the numerical run but is otherwise indistinguishable from
/// running: it still consumes budget, still counts toward `evaluated`, and
/// yields bit-identical records (the cached floats are exactly what a run
/// would recompute). The cache is therefore a pure wall-clock optimisation
/// with zero effect on search trajectories or reported results.
pub trait EvalCache: Send + Sync {
    /// Looks up a previously computed outcome for `key`.
    fn get(&self, key: &ConfigKey) -> Option<CachedEval>;
    /// Stores the outcome of a freshly run configuration.
    fn put(&self, key: &ConfigKey, value: CachedEval);
}

/// The in-search evaluation worker count implied by the environment:
/// `MIXP_WORKERS` when set to a positive integer, else 1 (sequential).
///
/// Defaulting to 1 — not the machine's parallelism — keeps plain runs
/// bit-identical to the historical sequential evaluator; fan-out is opt-in
/// per process (`MIXP_WORKERS=4 cargo run …`) or per evaluator
/// ([`EvaluatorBuilder::workers`]).
///
/// Parsing is shared with the campaign scheduler through
/// [`mixp_pool::env_workers`], which warns **once per process** on an
/// invalid value (this helper used to swallow them silently while the
/// scheduler warned on every call).
pub fn env_eval_workers() -> usize {
    mixp_pool::env_workers().unwrap_or(1)
}

/// The outcome of evaluating one configuration.
#[derive(Debug, Clone)]
pub struct EvalRecord {
    /// The configuration that was evaluated.
    pub config: PrecisionConfig,
    /// Whether the configuration "compiles": no split cluster, no lowered
    /// literal. Variable-granularity searches can produce configurations
    /// that fail here; they consume budget but never pass.
    pub compiled: bool,
    /// The verification error against the all-double reference (`NaN` if the
    /// configuration did not compile, or if the output was destroyed).
    pub quality: f64,
    /// Estimated speedup over the all-double reference (0 if the
    /// configuration did not compile).
    pub speedup: f64,
    /// Whether the configuration passed verification under the evaluator's
    /// quality threshold.
    pub passes: bool,
}

/// Builds an [`Evaluator`] with non-default cost model, cache geometry or
/// budget.
///
/// # Example
///
/// ```no_run
/// # fn get_benchmark() -> Box<dyn mixp_core::Benchmark> { unimplemented!() }
/// use mixp_core::{EvaluatorBuilder, QualityThreshold};
///
/// let bench = get_benchmark();
/// let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-6))
///     .budget(500)
///     .build(bench.as_ref());
/// ```
#[derive(Clone)]
pub struct EvaluatorBuilder {
    threshold: QualityThreshold,
    budget: usize,
    deadline: Option<Duration>,
    cost_model: CostModel,
    cache: CacheParams,
    workers: usize,
    shared: Option<Arc<dyn EvalCache>>,
    obs: Obs,
    parent_span: Option<u64>,
    cancel: Option<CancelToken>,
    reference: Option<Arc<ReferenceCache>>,
}

impl fmt::Debug for EvaluatorBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvaluatorBuilder")
            .field("threshold", &self.threshold)
            .field("budget", &self.budget)
            .field("deadline", &self.deadline)
            .field("workers", &self.workers)
            .field("shared", &self.shared.is_some())
            .field("obs", &self.obs)
            .finish()
    }
}

impl EvaluatorBuilder {
    /// Starts a builder with the given quality threshold, an unlimited
    /// budget, no deadline, default cost/cache models, and the
    /// environment-derived worker count ([`env_eval_workers`]).
    pub fn new(threshold: QualityThreshold) -> Self {
        EvaluatorBuilder {
            threshold,
            budget: usize::MAX,
            deadline: None,
            cost_model: CostModel::default(),
            cache: CacheParams::default(),
            workers: env_eval_workers(),
            shared: None,
            obs: Obs::noop(),
            parent_span: None,
            cancel: None,
            reference: None,
        }
    }

    /// Limits the number of configurations the search may evaluate.
    pub fn budget(mut self, budget: usize) -> Self {
        self.budget = budget;
        self
    }

    /// Limits the wall-clock time of the search, measured from
    /// [`EvaluatorBuilder::build`]. Enforced cooperatively at each new
    /// evaluation; without it evaluations are purely budget-bounded and
    /// fully deterministic.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Overrides the cost model.
    pub fn cost_model(mut self, model: CostModel) -> Self {
        self.cost_model = model;
        self
    }

    /// Overrides the cache geometry.
    pub fn cache(mut self, cache: CacheParams) -> Self {
        self.cache = cache;
        self
    }

    /// Sets the worker count used by [`Evaluator::evaluate_batch`] to fan
    /// out independent runs. `0` restores the environment default
    /// ([`env_eval_workers`]); `1` forces fully sequential evaluation.
    ///
    /// Results never depend on this value — batches are charged and
    /// committed in submission order regardless of how many threads run
    /// them.
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = if workers == 0 {
            env_eval_workers()
        } else {
            workers
        };
        self
    }

    /// Attaches a shared (campaign-wide) evaluation cache. See
    /// [`EvalCache`] for the exact semantics: hits skip the run but still
    /// consume budget and count as evaluated.
    pub fn shared_cache(mut self, cache: Arc<dyn EvalCache>) -> Self {
        self.shared = Some(cache);
        self
    }

    /// Attaches an observability handle: evaluation spans, admission
    /// events and evaluator counters flow through it. The default is
    /// [`Obs::noop`], whose every call is a single branch — observability
    /// never changes what the evaluator computes, only what it reports.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Links every `eval`/`eval.batch` span this evaluator opens to an
    /// enclosing span (typically the scheduler's `job` span, via
    /// [`mixp_obs::SpanGuard::id`]). Without the explicit link, nested
    /// spans could only be correlated by seq-interval containment, which
    /// breaks once tasks migrate between pool workers.
    pub fn parent_span(mut self, parent: Option<u64>) -> Self {
        self.parent_span = parent;
        self
    }

    /// Shares a memoised all-double reference run with other evaluators of
    /// the same benchmark. The reference is configuration-independent and
    /// every run of it is deterministic, so a caller that builds many
    /// evaluators of one benchmark pays for it once instead of on every
    /// [`EvaluatorBuilder::build`]. The cache is scoped to one benchmark:
    /// sharing it across different benchmarks (or scales) would serve the
    /// wrong reference and must never be done.
    pub fn reference_cache(mut self, reference: Arc<ReferenceCache>) -> Self {
        self.reference = Some(reference);
        self
    }

    /// Attaches a [`CancelToken`]: every numerical run this evaluator
    /// performs polls the token from its load/store accounting hooks and
    /// unwinds within one bulk operation of the token firing, surfacing as
    /// [`EvalError::Cancelled`]. Admission also bumps the token's heartbeat
    /// so a watchdog can observe progress. With no token (the default)
    /// evaluation behavior is bit-identical to the historical path.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Runs the all-double reference and returns the ready evaluator.
    ///
    /// If a [`CancelToken`] is attached and fires during the reference run,
    /// the run unwinds with a [`CancelUnwind`] payload that propagates out
    /// of `build` itself (there is no evaluator yet to report through); the
    /// harness's job-level `catch_unwind` classifies it.
    pub fn build<'b>(self, bench: &'b dyn Benchmark) -> Evaluator<'b> {
        let ref_cfg = bench.program().config_all_double();
        let streams = StreamMemo::default();
        let run_reference = || {
            streams.run(
                bench,
                &ref_cfg,
                self.cache,
                self.cancel.as_ref(),
                &self.obs,
                self.parent_span,
            )
        };
        let (output, counts, stats) = match &self.reference {
            // A cancellation unwind inside `get_or_init` propagates out and
            // leaves the cell unset, so a later build retries the run.
            Some(shared) => shared.slot.get_or_init(run_reference).clone(),
            None => run_reference(),
        };
        let ref_cost = self.cost_model.cost(&counts, Some(&stats));
        // Completing the reference run is progress: beat the token so a
        // heartbeat-watching watchdog does not mistake a long (but moving)
        // build for a wedged job.
        if let Some(token) = &self.cancel {
            token.beat();
        }
        Evaluator {
            bench,
            threshold: self.threshold,
            budget: self.budget,
            deadline: self.deadline,
            started: Instant::now(),
            stop_reason: None,
            cost_model: self.cost_model,
            cache: self.cache,
            workers: self.workers.max(1),
            shared: self.shared,
            obs: self.obs,
            parent_span: self.parent_span,
            cancel: self.cancel,
            pool: None,
            pool_resolved: false,
            reference: output,
            ref_cost,
            evaluated: 0,
            memo: HashMap::new(),
            streams,
            best: None,
        }
    }
}

/// One completed numerical run: verification output, operation counts and
/// cache statistics.
type RunOutput = (Vec<f64>, OpCounts, CacheStats);

/// A memoised all-double reference run, shared across evaluators of one
/// benchmark via [`EvaluatorBuilder::reference_cache`]. The first `build`
/// that reaches an empty cache performs the run; every later build clones
/// the stored output instead of re-running. The reference run is
/// deterministic (same outputs, op counts and cache statistics every
/// time), so a warm cache is observationally identical to re-running —
/// only the wall-clock differs.
#[derive(Debug, Default)]
pub struct ReferenceCache {
    slot: std::sync::OnceLock<RunOutput>,
}

impl ReferenceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a reference run has been stored yet.
    pub fn is_warm(&self) -> bool {
        self.slot.get().is_some()
    }
}

/// Runs `bench` under `cfg` with a fresh cache hierarchy, returning the
/// verification output, operation counts and cache statistics.
///
/// IR-ported benchmarks ([`Benchmark::ir_program`]) execute through a
/// specialized plan, compiled for this run and dropped when it returns.
/// Every call simulates: this is the memo-free oracle the evaluator's
/// stream memo is tested against.
pub fn run_config(bench: &dyn Benchmark, cfg: &PrecisionConfig, cache: CacheParams) -> RunOutput {
    let plan = compile_run_plan(bench, cfg, &Obs::noop(), None);
    simulate(cache, |h| {
        run_traced(cfg, h, None, |ctx| execute(bench, plan.as_ref(), ctx))
    })
}

/// Compiles the execution plan of an IR-ported benchmark for one run
/// (`None` for hand-written benchmarks). Compilation is configuration-only
/// work, done before the run's cache hierarchy is reset.
///
/// Each compile bumps `evaluator.plan_compiles` on `obs` and, when `obs`
/// is enabled, is wrapped in a `plan.compile` span under `parent`.
fn compile_run_plan(
    bench: &dyn Benchmark,
    cfg: &PrecisionConfig,
    obs: &Obs,
    parent: Option<u64>,
) -> Option<mixp_ir::Plan> {
    bench.ir_program().map(|prog| {
        let span = obs
            .enabled()
            .then(|| obs.span_with_parent("plan.compile", parent, &[]));
        let plan = crate::irplan::compile_plan(prog, cfg);
        drop(span);
        obs.counter_add("evaluator.plan_compiles", 1);
        plan
    })
}

/// Executes one run: through `plan` when there is one, else through the
/// hand-written path.
fn execute(bench: &dyn Benchmark, plan: Option<&mixp_ir::Plan>, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
    match plan {
        Some(plan) => crate::irplan::run_plan(plan, ctx),
        None => bench.run(ctx),
    }
}

/// Runs `run` in a fresh context over `cfg` with `tracer` attached (and
/// `token`, if any), returning the output and the operation counts.
fn run_traced(
    cfg: &PrecisionConfig,
    tracer: &mut dyn MemoryTracer,
    token: Option<&CancelToken>,
    run: impl FnOnce(&mut ExecCtx<'_>) -> Vec<f64>,
) -> (Vec<f64>, OpCounts) {
    let mut ctx = ExecCtx::with_tracer(cfg, tracer);
    if let Some(token) = token {
        ctx.set_cancel_token(token.clone());
    }
    let output = run(&mut ctx);
    (output, ctx.counts())
}

/// Runs `run` against this thread's reset cache hierarchy and appends the
/// statistics it accumulated.
fn simulate(
    cache: CacheParams,
    run: impl FnOnce(&mut Hierarchy) -> (Vec<f64>, OpCounts),
) -> RunOutput {
    // One hierarchy per worker thread, reset between evaluations: building
    // a fresh default hierarchy initialises 4608 lines, which costs more
    // than tracing a small benchmark does, and search loops evaluate
    // thousands of configurations per thread. `Hierarchy::reset` is O(1)
    // (epoch-stamped line validity) and bit-identical to a fresh build, so
    // reuse is a pure wall-clock optimisation. A run that unwinds
    // (cancellation, injected panic) may leave the cached simulator
    // mid-flight; the reset on next entry restores it regardless.
    thread_local! {
        static HIERARCHY: std::cell::RefCell<Option<Hierarchy>> =
            const { std::cell::RefCell::new(None) };
    }
    HIERARCHY.with(|slot| {
        let mut slot = slot.borrow_mut();
        let hierarchy = match slot.as_mut() {
            Some(h) if h.params() == cache => {
                h.reset();
                h
            }
            _ => slot.insert(Hierarchy::new(cache)),
        };
        let (output, counts) = run(hierarchy);
        (output, counts, hierarchy.stats())
    })
}

/// An evaluator's private memo of simulated cache statistics, keyed by
/// the fingerprint of the access stream that produced them (DESIGN.md,
/// "Execution fast path").
///
/// A configuration's *array-width signature* is the precisions it gives
/// the variables the first simulated run allocated. Under a signature
/// simulated before, a run carries only a [`StreamFingerprinter`] and
/// takes its statistics from the memo; under a new signature, or on a
/// fingerprint the memo has not seen (a value-dependent stream), the run
/// simulates with the fingerprinter tee'd beside the hierarchy and stores
/// what it found. Outputs and operation counts always come from the run
/// itself; statistics equal a fresh simulation's unless two different
/// streams collide in the 128-bit fingerprint.
///
/// Each run bumps `evaluator.stream_hits` or `evaluator.stream_sims`; a
/// simulation after a fingerprint miss also bumps
/// `evaluator.stream_fallbacks`.
#[derive(Debug, Default)]
struct StreamMemo {
    state: Mutex<StreamMemoState>,
}

#[derive(Debug, Default)]
struct StreamMemoState {
    /// The distinct variables the first simulated run allocated, sorted;
    /// `None` before that run.
    vars: Option<Vec<VarId>>,
    /// Array-width signatures simulated at least once.
    signatures: HashSet<Vec<Precision>>,
    /// Statistics of every simulated stream.
    stats: HashMap<StreamFingerprint, CacheStats>,
}

impl StreamMemoState {
    /// `cfg`'s array-width signature, once the allocated variables are
    /// known.
    fn signature(&self, cfg: &PrecisionConfig) -> Option<Vec<Precision>> {
        let vars = self.vars.as_ref()?;
        Some(vars.iter().map(|&v| cfg.get(v)).collect())
    }
}

impl StreamMemo {
    fn state(&self) -> std::sync::MutexGuard<'_, StreamMemoState> {
        // The lock is never held across a run, so a poisoning panic cannot
        // leave the state half-written.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// One run of `bench` under `cfg`, with cache statistics from the memo
    /// where the stream was simulated before. A fired token unwinds with
    /// [`CancelUnwind`] (see [`Self::run_cancellable`]).
    fn run(
        &self,
        bench: &dyn Benchmark,
        cfg: &PrecisionConfig,
        cache: CacheParams,
        token: Option<&CancelToken>,
        obs: &Obs,
        parent: Option<u64>,
    ) -> RunOutput {
        let plan = compile_run_plan(bench, cfg, obs, parent);
        let known = {
            let state = self.state();
            let signature = state.signature(cfg);
            signature.is_some_and(|s| state.signatures.contains(&s))
        };
        if known {
            let mut fingerprinter = StreamFingerprinter::new();
            let (output, counts) = run_traced(cfg, &mut fingerprinter, token, |ctx| {
                execute(bench, plan.as_ref(), ctx)
            });
            if let Some(&stats) = self.state().stats.get(&fingerprinter.finish()) {
                obs.counter_add("evaluator.stream_hits", 1);
                return (output, counts, stats);
            }
            obs.counter_add("evaluator.stream_fallbacks", 1);
        }
        obs.counter_add("evaluator.stream_sims", 1);
        let mut allocated: Vec<VarId> = Vec::new();
        let mut fingerprinter = StreamFingerprinter::new();
        let run = simulate(cache, |h| {
            run_traced(cfg, &mut Tee::new(h, &mut fingerprinter), token, |ctx| {
                let output = execute(bench, plan.as_ref(), ctx);
                allocated.extend(ctx.allocations().iter().map(|&(v, ..)| v));
                output
            })
        });
        allocated.sort_unstable();
        allocated.dedup();
        let mut state = self.state();
        state.vars.get_or_insert(allocated);
        if let Some(signature) = state.signature(cfg) {
            state.signatures.insert(signature);
        }
        state.stats.insert(fingerprinter.finish(), run.2);
        run
    }

    /// [`Self::run`], converting a cancellation unwind into
    /// [`EvalError::Cancelled`]. Genuine benchmark panics are re-raised
    /// untouched (the job-level `catch_unwind` owns those). With no token
    /// the run is not wrapped at all.
    fn run_cancellable(
        &self,
        bench: &dyn Benchmark,
        cfg: &PrecisionConfig,
        cache: CacheParams,
        token: Option<&CancelToken>,
        obs: &Obs,
        parent: Option<u64>,
    ) -> Result<RunOutput, EvalError> {
        let Some(token) = token else {
            return Ok(self.run(bench, cfg, cache, None, obs, parent));
        };
        if token.is_cancelled() {
            return Err(EvalError::Cancelled);
        }
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.run(bench, cfg, cache, Some(token), obs, parent)
        }));
        match run {
            Ok(run) => Ok(run),
            Err(payload) if CancelUnwind::caused(payload.as_ref()) => Err(EvalError::Cancelled),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
}

/// Evaluates configurations of one benchmark against one quality threshold,
/// within one evaluation budget.
///
/// Repeated evaluations of an identical configuration are served from a memo
/// and do not consume budget — mirroring CRAFT's configuration cache. The
/// evaluator tracks the best *passing* configuration by speedup.
pub struct Evaluator<'b> {
    bench: &'b dyn Benchmark,
    threshold: QualityThreshold,
    budget: usize,
    deadline: Option<Duration>,
    started: Instant,
    stop_reason: Option<EvalError>,
    cost_model: CostModel,
    cache: CacheParams,
    workers: usize,
    shared: Option<Arc<dyn EvalCache>>,
    obs: Obs,
    parent_span: Option<u64>,
    cancel: Option<CancelToken>,
    /// Fan-out arena for `evaluate_batch`, resolved lazily on the first
    /// batch that needs one (see [`Self::batch_pool`]). `None` until then,
    /// and forever for sequential evaluators.
    pool: Option<Pool>,
    pool_resolved: bool,
    reference: Vec<f64>,
    ref_cost: f64,
    evaluated: usize,
    memo: HashMap<ConfigKey, EvalRecord>,
    /// Cache statistics by access-stream fingerprint (see [`StreamMemo`]).
    streams: StreamMemo,
    best: Option<EvalRecord>,
}

impl<'b> fmt::Debug for Evaluator<'b> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Evaluator")
            .field("bench", &self.bench.name())
            .field("threshold", &self.threshold)
            .field("budget", &self.budget)
            .field("evaluated", &self.evaluated)
            .finish()
    }
}

impl<'b> Evaluator<'b> {
    /// Shorthand for `EvaluatorBuilder::new(threshold).build(bench)`.
    pub fn new(bench: &'b dyn Benchmark, threshold: QualityThreshold) -> Self {
        EvaluatorBuilder::new(threshold).build(bench)
    }

    /// The benchmark under evaluation.
    pub fn benchmark(&self) -> &dyn Benchmark {
        self.bench
    }

    /// The benchmark's program model.
    pub fn program(&self) -> &mixp_typedeps::ProgramModel {
        self.bench.program()
    }

    /// The search space of the benchmark at the given granularity.
    pub fn space(&self, granularity: Granularity) -> SearchSpace {
        SearchSpace::new(self.bench.program(), granularity)
    }

    /// The active quality threshold.
    pub fn threshold(&self) -> QualityThreshold {
        self.threshold
    }

    /// Number of distinct configurations evaluated so far (the paper's EV
    /// metric).
    pub fn evaluated(&self) -> usize {
        self.evaluated
    }

    /// Remaining evaluation budget.
    pub fn budget_left(&self) -> usize {
        self.budget - self.evaluated
    }

    /// The all-double reference output.
    pub fn reference_output(&self) -> &[f64] {
        &self.reference
    }

    /// The best passing configuration found so far, by speedup.
    pub fn best(&self) -> Option<&EvalRecord> {
        self.best.as_ref()
    }

    /// The first limit this evaluator hit, if any. Lets the harness tell a
    /// budget DNF apart from a deadline timeout after the search returns.
    pub fn stop_reason(&self) -> Option<EvalError> {
        self.stop_reason
    }

    /// The worker count [`Self::evaluate_batch`] fans runs across. Searches
    /// use this to size speculative lookahead batches: at `1` every batch
    /// degenerates to the historical sequential loop.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A clone of the observability handle this evaluator reports through.
    /// Searches use it to open per-phase spans without borrowing the
    /// evaluator; cloning shares the same logical clock, metrics registry
    /// and trace sink (and is free on the noop handle).
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// Admits one *new* (non-memoised) configuration: cancellation check,
    /// deadline check, budget check, budget charge — in exactly the
    /// historical sequential order (the cancellation check is a no-op
    /// unless a token is attached *and* fired). Admission also bumps the
    /// token's heartbeat, so a watchdog sees one beat per admitted
    /// evaluation and can tell "slow but progressing" from "wedged".
    fn admit(&mut self) -> Result<(), EvalError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                if self.stop_reason.is_none() {
                    self.obs
                        .event("eval.refused", &[("reason", Value::Str("cancelled"))]);
                }
                self.obs.counter_add("evaluator.refused.cancelled", 1);
                self.stop_reason.get_or_insert(EvalError::Cancelled);
                return Err(EvalError::Cancelled);
            }
            token.beat();
        }
        if let Some(deadline) = self.deadline {
            if self.started.elapsed() >= deadline {
                if self.stop_reason.is_none() {
                    self.obs
                        .event("eval.refused", &[("reason", Value::Str("deadline"))]);
                }
                self.obs.counter_add("evaluator.refused.deadline", 1);
                self.stop_reason.get_or_insert(EvalError::DeadlineExceeded);
                return Err(EvalError::DeadlineExceeded);
            }
        }
        if self.evaluated >= self.budget {
            if self.stop_reason.is_none() {
                self.obs
                    .event("eval.refused", &[("reason", Value::Str("budget"))]);
            }
            self.obs.counter_add("evaluator.refused.budget", 1);
            self.stop_reason.get_or_insert(EvalError::BudgetExhausted);
            return Err(EvalError::BudgetExhausted);
        }
        self.evaluated += 1;
        Ok(())
    }

    /// The record for a configuration that failed static validation.
    fn uncompiled_record(cfg: &PrecisionConfig) -> EvalRecord {
        EvalRecord {
            config: cfg.clone(),
            compiled: false,
            quality: f64::NAN,
            speedup: 0.0,
            passes: false,
        }
    }

    /// Scores a completed run (or shared-cache hit) into a record, feeding
    /// the shared cache when the values were freshly computed.
    fn score(
        &self,
        cfg: &PrecisionConfig,
        key: &ConfigKey,
        run: (Vec<f64>, OpCounts, CacheStats),
    ) -> EvalRecord {
        let (output, counts, stats) = run;
        let quality = self.bench.metric().compare(&self.reference, &output);
        let cost = self.cost_model.cost(&counts, Some(&stats));
        let speedup = if cost == 0.0 {
            1.0
        } else {
            self.ref_cost / cost
        };
        if let Some(shared) = &self.shared {
            shared.put(key, CachedEval { quality, speedup });
        }
        EvalRecord {
            config: cfg.clone(),
            compiled: true,
            quality,
            speedup,
            passes: self.threshold.accepts(quality),
        }
    }

    /// Resolves a freshly admitted configuration without running it, if
    /// possible: static validation failure, or a shared-cache hit.
    fn resolve_without_run(&self, cfg: &PrecisionConfig, key: &ConfigKey) -> Option<EvalRecord> {
        if self.bench.program().validate(cfg).is_err() {
            return Some(Self::uncompiled_record(cfg));
        }
        let hit = self.shared.as_ref()?.get(key)?;
        Some(EvalRecord {
            config: cfg.clone(),
            compiled: true,
            quality: hit.quality,
            speedup: hit.speedup,
            passes: self.threshold.accepts(hit.quality),
        })
    }

    /// Updates the running best and the memo with a finished record.
    fn commit(&mut self, key: ConfigKey, record: &EvalRecord) {
        // The identity transformation (everything double) trivially passes
        // but is not a mixed-precision result, so it never becomes "best".
        if record.passes
            && !record.config.is_all_double()
            && self
                .best
                .as_ref()
                .is_none_or(|b| record.speedup > b.speedup)
        {
            self.best = Some(record.clone());
        }
        self.memo.insert(key, record.clone());
    }

    /// Evaluates `cfg`: validity check, numerical run, quality metric,
    /// speedup estimate.
    ///
    /// Identical configurations are memoised and do not consume budget.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::BudgetExhausted`] when a *new* configuration is
    /// submitted after the budget is used up, and
    /// [`EvalError::DeadlineExceeded`] once the wall-clock deadline (if one
    /// was set) has passed.
    pub fn evaluate(&mut self, cfg: &PrecisionConfig) -> Result<EvalRecord, EvalError> {
        let key = cfg.fingerprint();
        if let Some(hit) = self.memo.get(&key) {
            self.obs.counter_add("evaluator.memo_hits", 1);
            return Ok(hit.clone());
        }
        self.admit()?;
        let record = match self.resolve_without_run(cfg, &key) {
            Some(record) => {
                self.obs.counter_add(
                    if record.compiled {
                        "evaluator.shared_hits"
                    } else {
                        "evaluator.uncompiled"
                    },
                    1,
                );
                record
            }
            None => {
                let span = self.obs.span_with_parent(
                    "eval",
                    self.parent_span,
                    &[("lowered", Value::U64(cfg.lowered_count() as u64))],
                );
                let run = match self.streams.run_cancellable(
                    self.bench,
                    cfg,
                    self.cache,
                    self.cancel.as_ref(),
                    &self.obs,
                    span.id(),
                ) {
                    Ok(run) => run,
                    Err(e) => {
                        self.obs.counter_add("evaluator.cancelled", 1);
                        span.end_with(&[("cancelled", Value::Bool(true))]);
                        self.stop_reason.get_or_insert(e);
                        return Err(e);
                    }
                };
                let record = self.score(cfg, &key, run);
                self.obs.counter_add("evaluator.runs", 1);
                span.end_with(&[
                    ("passes", Value::Bool(record.passes)),
                    ("quality", Value::F64(record.quality)),
                    ("speedup", Value::F64(record.speedup)),
                ]);
                record
            }
        };
        self.commit(key, &record);
        Ok(record)
    }

    /// Resolves the fan-out pool for parallel batches, once per evaluator:
    /// the ambient pool when this evaluator lives inside a campaign job
    /// (nested batches then compose on the campaign's arena instead of
    /// spawning a second thread layer), else a private [`Pool`] sized by
    /// [`Self::workers`] that persists across batches (so DD/HR's many
    /// small frontiers stop paying thread-spawn cost each).
    ///
    /// Lazy so that evaluators that never fan out — sequential ones, and
    /// throwaway reference probes — cost no threads at all.
    fn batch_pool(&mut self) -> Option<Pool> {
        if !self.pool_resolved {
            self.pool_resolved = true;
            self.pool = Pool::current()
                .or_else(|| (self.workers > 1).then(|| Pool::new(self.workers, self.obs.clone())));
        }
        self.pool.clone()
    }

    /// Evaluates a batch of configurations, fanning the independent
    /// numerical runs across the work-stealing pool (up to
    /// [`Self::workers`] items in flight; see [`Self::batch_pool`]).
    ///
    /// **Determinism rule:** budget and deadline are charged in submission
    /// order, and records are scored, memoised and best-tracked in
    /// submission order — so for any worker count the returned vector, the
    /// budget accounting, `stop_reason`, `best` and the memo are
    /// bit-identical to calling [`Self::evaluate`] on each configuration in
    /// turn. Threads only change *when* the runs execute, never what they
    /// produce (each run is a pure function of its configuration).
    ///
    /// Duplicates within a batch are served like sequential memo hits: the
    /// first occurrence runs, later ones are free clones of its record.
    pub fn evaluate_batch(
        &mut self,
        cfgs: &[PrecisionConfig],
    ) -> Vec<Result<EvalRecord, EvalError>> {
        /// Phase-1 disposition of one submitted configuration.
        enum Slot {
            /// Served from the memo (or refused): final already.
            Done(Result<EvalRecord, EvalError>),
            /// Admitted and resolved without a run (validation failure or
            /// shared-cache hit); committed in phase 3.
            Resolved(ConfigKey, EvalRecord),
            /// Admitted; needs the numerical run at `pending[i]`.
            Runs(ConfigKey, usize),
            /// Duplicate of the earlier batch slot `i`.
            Alias(usize),
        }

        let span = self.obs.span_with_parent(
            "eval.batch",
            self.parent_span,
            &[("submitted", Value::U64(cfgs.len() as u64))],
        );

        // Phase 1 — sequential admission in submission order. Memo hits are
        // free; everything else passes through the same deadline/budget
        // gate as the sequential path.
        let mut slots: Vec<Slot> = Vec::with_capacity(cfgs.len());
        let mut pending: Vec<usize> = Vec::new(); // indices into `cfgs`
        let mut first_slot_of: HashMap<ConfigKey, usize> = HashMap::new();
        for (i, cfg) in cfgs.iter().enumerate() {
            let key = cfg.fingerprint();
            if let Some(hit) = self.memo.get(&key) {
                self.obs.counter_add("evaluator.memo_hits", 1);
                slots.push(Slot::Done(Ok(hit.clone())));
                continue;
            }
            if let Some(&earlier) = first_slot_of.get(&key) {
                self.obs.counter_add("evaluator.memo_hits", 1);
                slots.push(Slot::Alias(earlier));
                continue;
            }
            if let Err(e) = self.admit() {
                slots.push(Slot::Done(Err(e)));
                continue;
            }
            first_slot_of.insert(key.clone(), i);
            match self.resolve_without_run(cfg, &key) {
                Some(record) => {
                    self.obs.counter_add(
                        if record.compiled {
                            "evaluator.shared_hits"
                        } else {
                            "evaluator.uncompiled"
                        },
                        1,
                    );
                    slots.push(Slot::Resolved(key, record));
                }
                None => {
                    pending.push(i);
                    slots.push(Slot::Runs(key, pending.len() - 1));
                }
            }
        }
        self.obs
            .observe("evaluator.batch_width", pending.len() as u64);
        // Wall time of the fan-out phase, duration-bounded (the default
        // small-count buckets overflow at 1024 µs — one traced kernel run
        // already exceeds that). The clock read is gated on an enabled
        // handle so the pure path stays free of wall-clock calls.
        let batch_started = self.obs.enabled().then(Instant::now);

        // Phase 2 — fan the admitted runs across the work-stealing pool.
        // Items are claimed dynamically; each result lands in its own slot,
        // so the only synchronisation is the claim itself. A panicking run
        // is rethrown by the pool in this caller (the job-level
        // catch_unwind sees it, exactly as with the old scoped threads).
        let workers = self.workers.min(pending.len());
        let pool = if workers > 1 { self.batch_pool() } else { None };
        let mut runs: Vec<Option<Result<RunOutput, EvalError>>> = Vec::new();
        match pool {
            None => runs.extend(pending.iter().map(|&i| {
                Some(self.streams.run_cancellable(
                    self.bench,
                    &cfgs[i],
                    self.cache,
                    self.cancel.as_ref(),
                    &self.obs,
                    span.id(),
                ))
            })),
            Some(pool) => {
                let out: Vec<Mutex<Option<Result<RunOutput, EvalError>>>> =
                    pending.iter().map(|_| Mutex::new(None)).collect();
                let bench = self.bench;
                let cache = self.cache;
                let cancel = self.cancel.clone();
                let obs = &self.obs;
                let streams = &self.streams;
                let batch_span = span.id();
                // Cancellation is caught *inside* each item (a fired token
                // yields Err(Cancelled) in that item's slot), so a cancelled
                // batch never poisons the pool descriptor — every remaining
                // item drains within one bulk op of the flag flipping.
                pool.run_batch(pending.len(), |t| {
                    let run = streams.run_cancellable(
                        bench,
                        &cfgs[pending[t]],
                        cache,
                        cancel.as_ref(),
                        obs,
                        batch_span,
                    );
                    match out[t].lock() {
                        Ok(mut slot) => *slot = Some(run),
                        Err(poisoned) => *poisoned.into_inner() = Some(run),
                    }
                });
                runs.extend(out.into_iter().map(|m| match m.into_inner() {
                    Ok(run) => run,
                    Err(poisoned) => poisoned.into_inner(),
                }));
            }
        }
        if let Some(started) = batch_started {
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            self.obs.observe_with_bounds(
                "evaluator.batch_us",
                micros,
                &mixp_obs::DURATION_BOUNDS_US,
            );
        }

        // Phase 3 — score and commit in submission order, exactly as the
        // sequential loop would have.
        let mut results: Vec<Result<EvalRecord, EvalError>> = Vec::with_capacity(cfgs.len());
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Slot::Done(res) => results.push(res),
                Slot::Resolved(key, record) => {
                    self.commit(key, &record);
                    results.push(Ok(record));
                }
                Slot::Runs(key, p) => {
                    // Slot invariant: phase 2 filled every pending run. The
                    // fallback re-run goes through the cancellable path too,
                    // so a fired token can never send phase 3 into a hung
                    // benchmark sequentially — it returns Err(Cancelled) at
                    // the first poll instead.
                    let run = runs[p].take().unwrap_or_else(|| {
                        self.streams.run_cancellable(
                            self.bench,
                            &cfgs[i],
                            self.cache,
                            self.cancel.as_ref(),
                            &self.obs,
                            span.id(),
                        )
                    });
                    match run {
                        Ok(run) => {
                            let record = self.score(&cfgs[i], &key, run);
                            self.obs.counter_add("evaluator.runs", 1);
                            self.commit(key, &record);
                            results.push(Ok(record));
                        }
                        Err(e) => {
                            self.obs.counter_add("evaluator.cancelled", 1);
                            self.stop_reason.get_or_insert(e);
                            results.push(Err(e));
                        }
                    }
                }
                Slot::Alias(earlier) => {
                    // An alias always points at an earlier record-producing
                    // slot, already committed above.
                    results.push(results[earlier].clone());
                }
            }
        }
        span.end_with(&[
            ("ran", Value::U64(pending.len() as u64)),
            ("workers", Value::U64(workers as u64)),
        ]);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Benchmark, BenchmarkKind};
    use mixp_float::VarId;
    use mixp_typedeps::{ProgramBuilder, ProgramModel};
    use mixp_verify::MetricKind;

    /// A toy benchmark: y[i] = a * x[i] for a small vector, with x and y in
    /// one cluster (bound) and `a` alone.
    struct Axpy {
        program: ProgramModel,
        x: VarId,
        y: VarId,
        a: VarId,
    }

    impl Axpy {
        fn new() -> Self {
            let mut b = ProgramBuilder::new("axpy");
            let m = b.module("main");
            let f = b.function("axpy", m);
            let x = b.array(f, "x");
            let y = b.array(f, "y");
            let a = b.scalar(f, "a");
            b.bind(x, y);
            let program = b.build();
            Axpy { program, x, y, a }
        }
    }

    impl Benchmark for Axpy {
        fn name(&self) -> &str {
            "axpy"
        }
        fn description(&self) -> &str {
            "toy scaled copy"
        }
        fn kind(&self) -> BenchmarkKind {
            BenchmarkKind::Kernel
        }
        fn program(&self) -> &ProgramModel {
            &self.program
        }
        fn metric(&self) -> MetricKind {
            MetricKind::Mae
        }
        fn run(&self, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
            let n = 64;
            let x = mixp_float::MpVec::from_fn(ctx, self.x, n, |i| 0.1 + i as f64 * 0.01);
            let mut y = ctx.alloc_vec(self.y, n);
            let a = mixp_float::MpScalar::new(ctx, self.a, 1.5);
            for i in 0..n {
                let v = a.get() * x.get(ctx, i);
                ctx.flop(self.y, &[self.a, self.x], 1);
                y.set(ctx, i, v);
            }
            y.snapshot()
        }
    }

    #[test]
    fn shared_reference_cache_is_observationally_identical() {
        let b = Axpy::new();
        let cfg = b.program().config_all_single();
        let fresh = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .build(&b)
            .evaluate(&cfg)
            .unwrap();
        let reference = Arc::new(ReferenceCache::new());
        assert!(!reference.is_warm());
        // First build runs the reference and warms the cache; the second
        // serves it from the cache. Both must report exactly the fresh
        // evaluator's record.
        for _ in 0..2 {
            let rec = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
                .reference_cache(Arc::clone(&reference))
                .build(&b)
                .evaluate(&cfg)
                .unwrap();
            assert!(reference.is_warm());
            assert_eq!(rec.quality.to_bits(), fresh.quality.to_bits());
            assert_eq!(rec.speedup.to_bits(), fresh.speedup.to_bits());
            assert_eq!(rec.passes, fresh.passes);
        }
    }

    #[test]
    fn reference_config_has_zero_error_and_unit_speedup() {
        let b = Axpy::new();
        let mut ev = Evaluator::new(&b, QualityThreshold::new(1e-8));
        let rec = ev.evaluate(&b.program().config_all_double()).unwrap();
        assert!(rec.compiled);
        assert_eq!(rec.quality, 0.0);
        assert!((rec.speedup - 1.0).abs() < 1e-12);
        assert!(rec.passes);
    }

    #[test]
    fn all_single_is_faster_but_less_accurate() {
        let b = Axpy::new();
        let mut ev = Evaluator::new(&b, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&b.program().config_all_single()).unwrap();
        assert!(rec.compiled);
        assert!(rec.quality > 0.0, "rounding must be visible");
        assert!(rec.speedup > 1.0, "single must be cheaper");
        assert!(rec.passes);
    }

    #[test]
    fn strict_threshold_rejects_all_single() {
        let b = Axpy::new();
        let mut ev = Evaluator::new(&b, QualityThreshold::new(1e-12));
        let rec = ev.evaluate(&b.program().config_all_single()).unwrap();
        assert!(!rec.passes);
        assert!(ev.best().is_none());
    }

    #[test]
    fn split_cluster_does_not_compile() {
        let b = Axpy::new();
        let mut ev = Evaluator::new(&b, QualityThreshold::new(1e-3));
        let mut cfg = b.program().config_all_double();
        cfg.set(b.x, mixp_float::Precision::Single); // y stays double
        let rec = ev.evaluate(&cfg).unwrap();
        assert!(!rec.compiled);
        assert!(!rec.passes);
        assert!(rec.quality.is_nan());
        assert_eq!(rec.speedup, 0.0);
        assert_eq!(ev.evaluated(), 1, "a failed compile still consumes budget");
    }

    #[test]
    fn memoised_configs_do_not_consume_budget() {
        let b = Axpy::new();
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .budget(1)
            .build(&b);
        let cfg = b.program().config_all_single();
        ev.evaluate(&cfg).unwrap();
        assert_eq!(ev.budget_left(), 0);
        // Same config again: memo hit, no budget error.
        ev.evaluate(&cfg).unwrap();
        // A different config now exhausts the budget.
        let other = b.program().config_all_double();
        assert_eq!(ev.evaluate(&other).unwrap_err(), EvalError::BudgetExhausted);
        assert_eq!(ev.stop_reason(), Some(EvalError::BudgetExhausted));
    }

    #[test]
    fn zero_deadline_stops_before_any_evaluation() {
        let b = Axpy::new();
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .deadline(Duration::ZERO)
            .build(&b);
        let err = ev.evaluate(&b.program().config_all_single()).unwrap_err();
        assert_eq!(err, EvalError::DeadlineExceeded);
        assert_eq!(ev.evaluated(), 0);
        assert_eq!(ev.stop_reason(), Some(EvalError::DeadlineExceeded));
    }

    #[test]
    fn no_deadline_means_no_timeout() {
        let b = Axpy::new();
        let mut ev = Evaluator::new(&b, QualityThreshold::new(1e-3));
        assert!(ev.evaluate(&b.program().config_all_single()).is_ok());
        assert_eq!(ev.stop_reason(), None);
    }

    #[test]
    fn best_tracks_highest_passing_speedup() {
        let b = Axpy::new();
        let mut ev = Evaluator::new(&b, QualityThreshold::new(1e-3));
        // The identity configuration passes but is never a result.
        ev.evaluate(&b.program().config_all_double()).unwrap();
        assert!(ev.best().is_none());
        // Lowering only `a` is a real (if modest) mixed configuration.
        let partial = mixp_float::PrecisionConfig::from_lowered(b.program().var_count(), [b.a]);
        ev.evaluate(&partial).unwrap();
        let first_best = ev.best().unwrap().speedup;
        ev.evaluate(&b.program().config_all_single()).unwrap();
        assert!(ev.best().unwrap().speedup > first_best);
    }

    #[test]
    fn determinism_same_config_same_record() {
        let b = Axpy::new();
        let mut ev1 = Evaluator::new(&b, QualityThreshold::new(1e-3));
        let mut ev2 = Evaluator::new(&b, QualityThreshold::new(1e-3));
        let cfg = b.program().config_all_single();
        let r1 = ev1.evaluate(&cfg).unwrap();
        let r2 = ev2.evaluate(&cfg).unwrap();
        assert_eq!(r1.quality, r2.quality);
        assert_eq!(r1.speedup, r2.speedup);
    }

    /// A toy benchmark whose access stream depends on its values: `x`
    /// is swept a second time only while `s` keeps its excess over 1,
    /// which rounding `s` to single precision erases. `s` and `t` are
    /// scalars (never allocated), so lowering them leaves the array-width
    /// signature unchanged while `s` changes the stream.
    struct Branchy {
        program: ProgramModel,
        x: VarId,
        s: VarId,
        t: VarId,
    }

    impl Branchy {
        fn new() -> Self {
            let mut b = ProgramBuilder::new("branchy");
            let m = b.module("main");
            let f = b.function("branchy", m);
            let x = b.array(f, "x");
            let s = b.scalar(f, "s");
            let t = b.scalar(f, "t");
            let program = b.build();
            Branchy { program, x, s, t }
        }
    }

    impl Benchmark for Branchy {
        fn name(&self) -> &str {
            "branchy"
        }
        fn description(&self) -> &str {
            "toy with a value-dependent access stream"
        }
        fn kind(&self) -> BenchmarkKind {
            BenchmarkKind::Kernel
        }
        fn program(&self) -> &ProgramModel {
            &self.program
        }
        fn metric(&self) -> MetricKind {
            MetricKind::Mae
        }
        fn run(&self, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
            let n = 64;
            let x = mixp_float::MpVec::from_fn(ctx, self.x, n, |i| 1.0 + i as f64 * 0.01);
            let s = mixp_float::MpScalar::new(ctx, self.s, 1.0 + 1e-10);
            let t = mixp_float::MpScalar::new(ctx, self.t, 0.3);
            let mut out: Vec<f64> = (0..n).map(|i| x.get(ctx, i) * t.get()).collect();
            ctx.flop(self.x, &[self.x, self.t], n as u64);
            if s.get() > 1.0 {
                for (i, o) in out.iter_mut().enumerate() {
                    *o += x.get(ctx, i);
                }
                ctx.flop(self.x, &[self.x], n as u64);
            }
            out
        }
    }

    /// `(quality, speedup)` bits of `cfg` from memo-free `run_config`
    /// runs, scored against `ev`'s reference.
    fn fresh_score(ev: &Evaluator<'_>, b: &dyn Benchmark, cfg: &PrecisionConfig) -> (u64, u64) {
        let params = CacheParams::default();
        let model = CostModel::default();
        let (output, counts, stats) = run_config(b, cfg, params);
        let (_, ref_counts, ref_stats) = run_config(b, &b.program().config_all_double(), params);
        let cost = model.cost(&counts, Some(&stats));
        let speedup = if cost == 0.0 {
            1.0
        } else {
            model.cost(&ref_counts, Some(&ref_stats)) / cost
        };
        let quality = b.metric().compare(ev.reference_output(), &output);
        (quality.to_bits(), speedup.to_bits())
    }

    #[test]
    fn stream_memo_falls_back_on_a_value_dependent_stream() {
        let b = Branchy::new();
        let obs = Obs::in_memory();
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .obs(obs.clone())
            .build(&b);
        let n = b.program().var_count();
        let counter = |name: &str| {
            let snap = obs.metrics_snapshot().expect("in-memory obs has metrics");
            snap.counters.get(name).copied().unwrap_or(0)
        };
        // (lowered variables, expected (sims, hits, fallbacks) after it).
        let steps = [
            // Same signature as the reference, other stream: miss, re-run.
            (vec![b.s], (2, 0, 1)),
            // Same signature, the reference's stream: hit.
            (vec![b.t], (2, 1, 1)),
            // Same signature, the first step's stream: hit.
            (vec![b.s, b.t], (2, 2, 1)),
            // New signature: simulated without a fingerprint-only run.
            (vec![b.x], (3, 2, 1)),
        ];
        assert_eq!(counter("evaluator.stream_sims"), 1, "the reference run");
        for (lowered, expected) in steps {
            let cfg = PrecisionConfig::from_lowered(n, lowered.iter().copied());
            let rec = ev.evaluate(&cfg).unwrap();
            assert!(rec.compiled);
            assert_eq!(
                (rec.quality.to_bits(), rec.speedup.to_bits()),
                fresh_score(&ev, &b, &cfg),
                "{lowered:?}"
            );
            let seen = (
                counter("evaluator.stream_sims"),
                counter("evaluator.stream_hits"),
                counter("evaluator.stream_fallbacks"),
            );
            assert_eq!(seen, expected, "{lowered:?}");
        }
    }

    /// Every interesting configuration of the Axpy toy: the two uniforms,
    /// each single-variable lowering (one of which splits the x/y cluster
    /// and fails to compile), and a pair lowering.
    fn axpy_batch(b: &Axpy) -> Vec<PrecisionConfig> {
        let n = b.program().var_count();
        vec![
            b.program().config_all_double(),
            PrecisionConfig::from_lowered(n, [b.a]),
            PrecisionConfig::from_lowered(n, [b.x]), // split cluster: no compile
            PrecisionConfig::from_lowered(n, [b.x, b.y]),
            b.program().config_all_single(),
            PrecisionConfig::from_lowered(n, [b.a]), // duplicate of slot 1
        ]
    }

    fn assert_same_outcome(
        batch: &[Result<EvalRecord, EvalError>],
        seq: &[Result<EvalRecord, EvalError>],
    ) {
        assert_eq!(batch.len(), seq.len());
        for (i, (a, b)) in batch.iter().zip(seq).enumerate() {
            match (a, b) {
                (Ok(ra), Ok(rb)) => {
                    assert_eq!(ra.config, rb.config, "slot {i}");
                    assert_eq!(ra.compiled, rb.compiled, "slot {i}");
                    assert_eq!(ra.quality.to_bits(), rb.quality.to_bits(), "slot {i}");
                    assert_eq!(ra.speedup.to_bits(), rb.speedup.to_bits(), "slot {i}");
                    assert_eq!(ra.passes, rb.passes, "slot {i}");
                }
                (Err(ea), Err(eb)) => assert_eq!(ea, eb, "slot {i}"),
                _ => panic!("slot {i}: batch/sequential disagree on Ok vs Err"),
            }
        }
    }

    #[test]
    fn batch_matches_sequential_for_all_worker_counts() {
        let b = Axpy::new();
        let cfgs = axpy_batch(&b);
        let mut seq_ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .workers(1)
            .build(&b);
        let seq: Vec<_> = cfgs.iter().map(|c| seq_ev.evaluate(c)).collect();
        for workers in [1, 2, 3, 8] {
            let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
                .workers(workers)
                .build(&b);
            let batch = ev.evaluate_batch(&cfgs);
            assert_same_outcome(&batch, &seq);
            assert_eq!(ev.evaluated(), seq_ev.evaluated(), "workers={workers}");
            assert_eq!(
                ev.best().map(|r| r.config.clone()),
                seq_ev.best().map(|r| r.config.clone()),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn batch_duplicates_consume_budget_once() {
        let b = Axpy::new();
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .workers(4)
            .build(&b);
        let cfg = b.program().config_all_single();
        let results = ev.evaluate_batch(&[cfg.clone(), cfg.clone(), cfg]);
        assert!(results.iter().all(|r| r.is_ok()));
        assert_eq!(ev.evaluated(), 1, "duplicates are memo-style hits");
    }

    #[test]
    fn batch_budget_exhaustion_mid_batch_matches_sequential() {
        let b = Axpy::new();
        let n = b.program().var_count();
        let cfgs = vec![
            b.program().config_all_single(),
            PrecisionConfig::from_lowered(n, [b.a]),
            PrecisionConfig::from_lowered(n, [b.x, b.y]),
            b.program().config_all_single(), // memo hit, served after the error
        ];
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .budget(2)
            .workers(4)
            .build(&b);
        let results = ev.evaluate_batch(&cfgs);
        assert!(results[0].is_ok());
        assert!(results[1].is_ok());
        assert_eq!(
            results[2].as_ref().unwrap_err(),
            &EvalError::BudgetExhausted
        );
        assert!(results[3].is_ok(), "memo hits are served past exhaustion");
        assert_eq!(ev.evaluated(), 2);
        assert_eq!(ev.stop_reason(), Some(EvalError::BudgetExhausted));
    }

    #[test]
    fn batch_with_more_workers_than_configs() {
        let b = Axpy::new();
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .workers(16)
            .build(&b);
        let results = ev.evaluate_batch(&[b.program().config_all_single()]);
        assert_eq!(results.len(), 1);
        assert!(results[0].as_ref().unwrap().passes);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let b = Axpy::new();
        let mut ev = Evaluator::new(&b, QualityThreshold::new(1e-3));
        assert!(ev.evaluate_batch(&[]).is_empty());
        assert_eq!(ev.evaluated(), 0);
    }

    /// A shared cache that records its traffic, for asserting the budget
    /// semantics of hits.
    #[derive(Default)]
    struct CountingCache {
        map: Mutex<HashMap<ConfigKey, CachedEval>>,
        hits: AtomicUsize,
        misses: AtomicUsize,
    }

    impl EvalCache for CountingCache {
        fn get(&self, key: &ConfigKey) -> Option<CachedEval> {
            let hit = self.map.lock().unwrap().get(key).copied();
            if hit.is_some() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            hit
        }
        fn put(&self, key: &ConfigKey, value: CachedEval) {
            self.map.lock().unwrap().insert(key.clone(), value);
        }
    }

    #[test]
    fn shared_cache_hits_still_consume_budget_and_match_fresh_runs() {
        let b = Axpy::new();
        let shared: Arc<CountingCache> = Arc::new(CountingCache::default());
        let cfg = b.program().config_all_single();

        let mut ev1 = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .shared_cache(shared.clone())
            .build(&b);
        let fresh = ev1.evaluate(&cfg).unwrap();
        assert_eq!(shared.hits.load(Ordering::Relaxed), 0);

        // A second evaluator over the same benchmark hits the shared cache,
        // still pays budget, and reproduces the record bit-for-bit.
        let mut ev2 = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .shared_cache(shared.clone())
            .build(&b);
        let cached = ev2.evaluate(&cfg).unwrap();
        assert_eq!(shared.hits.load(Ordering::Relaxed), 1);
        assert_eq!(ev2.evaluated(), 1, "shared hits are not budget-free");
        assert_eq!(cached.quality.to_bits(), fresh.quality.to_bits());
        assert_eq!(cached.speedup.to_bits(), fresh.speedup.to_bits());

        // A stricter-threshold evaluator reuses the values but re-derives
        // `passes` locally.
        let mut ev3 = EvaluatorBuilder::new(QualityThreshold::new(1e-12))
            .shared_cache(shared.clone())
            .build(&b);
        let strict = ev3.evaluate(&cfg).unwrap();
        assert_eq!(strict.quality.to_bits(), fresh.quality.to_bits());
        assert!(!strict.passes);
    }

    /// The cancellation contract's quiet half: an attached token that never
    /// fires changes nothing — outcomes, budget accounting and best are
    /// bit-identical to the token-free evaluator, for any worker count.
    #[test]
    fn unfired_token_is_bit_identical_to_no_token() {
        let b = Axpy::new();
        let cfgs = axpy_batch(&b);
        let mut plain = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .workers(1)
            .build(&b);
        let baseline: Vec<_> = cfgs.iter().map(|c| plain.evaluate(c)).collect();
        for workers in [1, 2, 4] {
            let token = CancelToken::new();
            let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
                .workers(workers)
                .cancel_token(token.clone())
                .build(&b);
            let batch = ev.evaluate_batch(&cfgs);
            assert_same_outcome(&batch, &baseline);
            assert_eq!(ev.evaluated(), plain.evaluated(), "workers={workers}");
            assert!(token.heartbeats() > 0, "admission bumps the heartbeat");
            assert_eq!(ev.stop_reason(), None);
        }
    }

    #[test]
    fn prefired_token_refuses_admission_as_cancelled() {
        let b = Axpy::new();
        let token = CancelToken::new();
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .cancel_token(token.clone())
            .build(&b);
        token.fire();
        let err = ev.evaluate(&b.program().config_all_single()).unwrap_err();
        assert_eq!(err, EvalError::Cancelled);
        assert_eq!(ev.stop_reason(), Some(EvalError::Cancelled));
        assert_eq!(ev.evaluated(), 0, "refused before charging budget");
    }

    /// A benchmark that fires its own token at the start of its second run
    /// (the first is the builder's reference run), so the evaluation is
    /// admitted normally and then preempted mid-run at the first
    /// accounting hook.
    struct FiringAxpy {
        inner: Axpy,
        token: CancelToken,
        runs: AtomicUsize,
    }

    impl Benchmark for FiringAxpy {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn description(&self) -> &str {
            self.inner.description()
        }
        fn kind(&self) -> BenchmarkKind {
            self.inner.kind()
        }
        fn program(&self) -> &ProgramModel {
            self.inner.program()
        }
        fn metric(&self) -> MetricKind {
            self.inner.metric()
        }
        fn run(&self, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
            if self.runs.fetch_add(1, Ordering::Relaxed) == 1 {
                self.token.fire();
            }
            self.inner.run(ctx)
        }
    }

    #[test]
    fn mid_run_fire_unwinds_into_a_typed_cancelled_error() {
        let token = CancelToken::new();
        let b = FiringAxpy {
            inner: Axpy::new(),
            token: token.clone(),
            runs: AtomicUsize::new(0),
        };
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .cancel_token(token.clone())
            .build(&b);
        let err = ev
            .evaluate(&b.inner.program.config_all_single())
            .unwrap_err();
        assert_eq!(err, EvalError::Cancelled);
        assert_eq!(ev.stop_reason(), Some(EvalError::Cancelled));
        assert_eq!(ev.evaluated(), 1, "the run was admitted before firing");
    }

    #[test]
    fn mid_batch_fire_cancels_remaining_slots() {
        let token = CancelToken::new();
        let b = FiringAxpy {
            inner: Axpy::new(),
            token: token.clone(),
            runs: AtomicUsize::new(0),
        };
        let n = b.inner.program.var_count();
        let cfgs = vec![
            b.inner.program.config_all_single(),
            PrecisionConfig::from_lowered(n, [b.inner.a]),
        ];
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .workers(1)
            .cancel_token(token.clone())
            .build(&b);
        let results = ev.evaluate_batch(&cfgs);
        assert!(
            results
                .iter()
                .all(|r| matches!(r, Err(EvalError::Cancelled))),
            "the token fired on the first run, so every slot cancels: {results:?}"
        );
        assert_eq!(ev.stop_reason(), Some(EvalError::Cancelled));
    }
}
