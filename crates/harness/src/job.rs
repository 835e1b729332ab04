//! Analysis jobs: one benchmark × one algorithm × one threshold.
//!
//! [`Job::execute`] is the fault-isolated entry point: every failure mode a
//! campaign can meet — unresolved names, panicking variant runs, wall-clock
//! timeouts, budget starvation, non-finite quality — comes back as a typed
//! [`JobError`] instead of unwinding into the scheduler.

use crate::evalcache::SharedEvalCache;
use crate::faultplan::{Fault, FaultyBenchmark};
use crate::registry::{benchmark_by_name, Scale};
use mixp_core::{
    Benchmark, CancelToken, CancelUnwind, CostModel, EvalError, EvaluatorBuilder, Obs,
    QualityThreshold, Value,
};
use mixp_search::{algorithm_by_name, SearchResult};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// One analysis to run: the unit the scheduler fans out, corresponding to
/// one (application, algorithm) cell of the paper's evaluation at one
/// threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Benchmark name (must resolve in the registry).
    pub benchmark: String,
    /// Algorithm name (must resolve via `mixp_search::algorithm_by_name`).
    pub algorithm: String,
    /// Quality threshold.
    pub threshold: f64,
    /// Evaluation budget — the 24-hour wall-clock analogue.
    pub budget: usize,
    /// Problem scale.
    pub scale: Scale,
}

/// Why one job failed. The taxonomy mirrors what the paper's cluster runs
/// actually die of: bad configurations, crashing variants, the 24-hour
/// limit, queue starvation, and numerically destroyed outputs.
#[derive(Debug, Clone, PartialEq)]
pub enum JobError {
    /// The benchmark name does not resolve in the registry.
    UnknownBenchmark(String),
    /// The algorithm name does not resolve.
    UnknownAlgorithm(String),
    /// The search (or a variant run inside it) panicked; the payload
    /// message is preserved.
    Panicked(String),
    /// The wall-clock deadline fired before the search terminated.
    DeadlineExceeded {
        /// The deadline that was exceeded, in milliseconds.
        limit_ms: u128,
    },
    /// The evaluation budget was exhausted before even one configuration
    /// could be evaluated — complete starvation. (A search that evaluates
    /// at least one configuration before running out is reported as a DNF
    /// *result*, like the paper's grey boxes, not as a failure.)
    BudgetExhausted {
        /// The budget the job was starved under.
        budget: usize,
    },
    /// The reference run or the best passing record produced non-finite
    /// quality/speedup, so no meaningful comparison exists.
    NonFiniteQuality,
    /// The output-integrity probe caught the benchmark producing finite but
    /// irreproducible results: two runs of the identical untransformed
    /// program disagreed bit-for-bit. Silent data corruption — nothing
    /// downstream of such a run can be trusted, so the job is failed
    /// deterministically rather than reporting plausible-looking numbers.
    CorruptOutput,
}

impl JobError {
    /// Short stable code used in report cells: `FAILED(code)`.
    pub fn code(&self) -> &'static str {
        match self {
            JobError::UnknownBenchmark(_) => "unknown-benchmark",
            JobError::UnknownAlgorithm(_) => "unknown-algorithm",
            JobError::Panicked(_) => "panic",
            JobError::DeadlineExceeded { .. } => "deadline",
            JobError::BudgetExhausted { .. } => "budget",
            JobError::NonFiniteQuality => "non-finite",
            JobError::CorruptOutput => "corrupt-output",
        }
    }

    /// Whether a retry could plausibly succeed. Name-resolution and
    /// budget/quality failures are deterministic; crashes and timeouts are
    /// environment-shaped, as on a real cluster.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            JobError::Panicked(_) | JobError::DeadlineExceeded { .. }
        )
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::UnknownBenchmark(name) => write!(f, "unknown benchmark `{name}`"),
            JobError::UnknownAlgorithm(name) => write!(f, "unknown algorithm `{name}`"),
            JobError::Panicked(msg) => write!(f, "job panicked: {msg}"),
            JobError::DeadlineExceeded { limit_ms } => {
                write!(f, "wall-clock deadline of {limit_ms} ms exceeded")
            }
            JobError::BudgetExhausted { budget } => {
                write!(f, "budget of {budget} exhausted before any evaluation")
            }
            JobError::NonFiniteQuality => {
                write!(f, "non-finite quality: output destroyed")
            }
            JobError::CorruptOutput => {
                write!(f, "corrupt output: finite but irreproducible results")
            }
        }
    }
}

impl std::error::Error for JobError {}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Job {
    /// Default evaluation budget used when a configuration does not set
    /// one — the deterministic analogue of the paper's 24-hour limit.
    /// Sized so that the exploding searches (compositional closure over
    /// dozens of passing clusters) hit it, while every terminating search
    /// of the paper's tables fits comfortably below it.
    pub const DEFAULT_BUDGET: usize = 512;

    /// Creates a job with the default budget.
    pub fn new(benchmark: &str, algorithm: &str, threshold: f64, scale: Scale) -> Self {
        Job {
            benchmark: benchmark.to_string(),
            algorithm: algorithm.to_string(),
            threshold,
            budget: Self::DEFAULT_BUDGET,
            scale,
        }
    }

    /// Runs this job to completion on the current thread, with full fault
    /// isolation.
    ///
    /// `deadline` bounds the search's wall clock (enforced cooperatively by
    /// the evaluator); `fault` optionally injects a failure mode (used by
    /// the robustness tests — production campaigns pass `None`). Panics
    /// anywhere inside the evaluation pipeline are caught and reported as
    /// [`JobError::Panicked`]; nothing unwinds out of this method.
    ///
    /// # Errors
    ///
    /// Returns a [`JobError`] describing which leg of the taxonomy the job
    /// died on; see the enum docs for the exact semantics of each.
    pub fn execute(
        &self,
        deadline: Option<Duration>,
        fault: Option<Fault>,
    ) -> Result<JobResult, JobError> {
        self.execute_with(deadline, fault, None)
    }

    /// [`Job::execute`] with an optional campaign-wide evaluation cache.
    ///
    /// When `shared` is given and no fault is injected, the evaluator is
    /// built with a [`SharedEvalCache`] handle scoped to this job's
    /// benchmark and scale, so configurations already run by sibling jobs
    /// are served from the cache instead of re-running. A faulted job never
    /// attaches the cache: injected faults corrupt run outputs, which must
    /// not leak into (or be masked by) the cross-job cache.
    ///
    /// # Errors
    ///
    /// Identical to [`Job::execute`] — the cache changes wall-clock only,
    /// never outcomes.
    pub fn execute_with(
        &self,
        deadline: Option<Duration>,
        fault: Option<Fault>,
        shared: Option<&Arc<SharedEvalCache>>,
    ) -> Result<JobResult, JobError> {
        self.execute_observed(deadline, fault, shared, &Obs::noop(), None, 0, None)
    }

    /// [`Job::execute_with`] plus an observability handle: the evaluator is
    /// built with `obs`, so per-evaluation spans and counters flow into the
    /// campaign's tracer. A noop handle (the default) changes nothing —
    /// outcomes are bit-identical with tracing on or off.
    ///
    /// `parent` links the evaluator's spans under the campaign's per-job
    /// span (`None` leaves them as roots), and `eval_workers` sets the
    /// evaluator's batch width (`0` keeps the `MIXP_WORKERS` environment
    /// default). Inside a campaign the evaluator's batches run on the
    /// campaign's own work-stealing pool, so `eval_workers` shapes the
    /// speculative chunk width without spawning additional threads.
    ///
    /// `cancel` preemptively bounds the job: the evaluator polls the token
    /// from every run's load/store hooks, so when the harness watchdog fires
    /// it the search unwinds within one bulk operation and surfaces here as
    /// [`JobError::DeadlineExceeded`]. With `None` the evaluation path is
    /// bit-identical to the historical cooperative-deadline-only path.
    ///
    /// # Errors
    ///
    /// Identical to [`Job::execute`].
    #[allow(clippy::too_many_arguments)]
    pub fn execute_observed(
        &self,
        deadline: Option<Duration>,
        fault: Option<Fault>,
        shared: Option<&Arc<SharedEvalCache>>,
        obs: &Obs,
        parent: Option<u64>,
        eval_workers: usize,
        cancel: Option<&CancelToken>,
    ) -> Result<JobResult, JobError> {
        let shared = if fault.is_none() { shared } else { None };
        let bench = benchmark_by_name(&self.benchmark, self.scale)
            .ok_or_else(|| JobError::UnknownBenchmark(self.benchmark.clone()))?;
        let algo = algorithm_by_name(&self.algorithm)
            .ok_or_else(|| JobError::UnknownAlgorithm(self.algorithm.clone()))?;

        let mut budget = self.budget;
        let mut deadline = deadline;
        let mut nan_cost_model = false;
        let bench: Box<dyn Benchmark> = match fault {
            Some(Fault::StarveBudget) => {
                budget = 0;
                bench
            }
            Some(Fault::ZeroDeadline) => {
                deadline = Some(Duration::ZERO);
                bench
            }
            Some(Fault::CostModelNan) => {
                // The benchmark itself stays healthy; the evaluator is
                // built with a NaN-weighted cost model below, so every
                // speedup it derives is non-finite.
                nan_cost_model = true;
                bench
            }
            Some(
                f @ (Fault::Panic { .. }
                | Fault::NanOutput { .. }
                | Fault::CorruptOutput { .. }
                | Fault::SlowMs(_)
                | Fault::HangMs(_)),
            ) => Box::new(FaultyBenchmark::new(bench, f)),
            None => bench,
        };

        let run = catch_unwind(AssertUnwindSafe(|| {
            let mut builder = EvaluatorBuilder::new(QualityThreshold::new(self.threshold))
                .budget(budget)
                .workers(eval_workers)
                .parent_span(parent)
                .obs(obs.clone());
            if let Some(d) = deadline {
                builder = builder.deadline(d);
            }
            if nan_cost_model {
                builder = builder.cost_model(CostModel {
                    f64_flop: f64::NAN,
                    ..CostModel::default()
                });
            }
            if let Some(token) = cancel {
                builder = builder.cancel_token(token.clone());
            }
            if let Some(cache) = shared {
                builder = builder.shared_cache(cache.scoped(&self.benchmark, self.scale));
            }
            let mut ev = builder.build(bench.as_ref());
            if !ev.reference_output().iter().all(|v| v.is_finite()) {
                return Err(JobError::NonFiniteQuality);
            }
            // Output-integrity probe: run the untransformed program a second
            // time (through a throwaway evaluator, so no budget is charged)
            // and compare bit-for-bit against the reference. A deterministic
            // benchmark reproduces exactly; finite-but-differing output means
            // silent corruption, which would otherwise flow into every
            // quality number this job reports.
            let mut probe_builder = EvaluatorBuilder::new(QualityThreshold::new(self.threshold));
            if let Some(token) = cancel {
                probe_builder = probe_builder.cancel_token(token.clone());
            }
            let probe = probe_builder.build(bench.as_ref());
            let probe_out = probe.reference_output();
            if probe_out.iter().all(|v| v.is_finite())
                && probe_out
                    .iter()
                    .zip(ev.reference_output())
                    .any(|(a, b)| a.to_bits() != b.to_bits())
            {
                obs.event(
                    "job.corrupt",
                    &[("outputs", Value::U64(probe_out.len() as u64))],
                );
                return Err(JobError::CorruptOutput);
            }
            drop(probe);
            let result = algo.search(&mut ev);
            if matches!(
                ev.stop_reason(),
                Some(EvalError::DeadlineExceeded | EvalError::Cancelled)
            ) {
                return Err(JobError::DeadlineExceeded {
                    limit_ms: deadline.map_or(0, |d| d.as_millis()),
                });
            }
            if result.dnf && result.evaluated == 0 {
                return Err(JobError::BudgetExhausted { budget });
            }
            if let Some(best) = &result.best {
                if !best.quality.is_finite() || !best.speedup.is_finite() {
                    return Err(JobError::NonFiniteQuality);
                }
            }
            Ok(JobResult {
                benchmark: self.benchmark.clone(),
                algorithm: algo.name().to_string(),
                threshold: self.threshold,
                clusters: bench.program().total_clusters(),
                variables: bench.program().total_variables(),
                result,
            })
        }));
        match run {
            Ok(outcome) => outcome,
            // A fired cancel token unwinds from wherever the run was — the
            // reference build, the probe, or mid-search. It is a preemptive
            // deadline, not a crash.
            Err(payload) if CancelUnwind::caused(payload.as_ref()) => {
                Err(JobError::DeadlineExceeded {
                    limit_ms: deadline.map_or(0, |d| d.as_millis()),
                })
            }
            Err(payload) => Err(JobError::Panicked(panic_message(payload))),
        }
    }
}

/// The outcome of one job.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Benchmark name.
    pub benchmark: String,
    /// Algorithm short name (CB/CM/DD/HR/HC/GA).
    pub algorithm: String,
    /// Threshold the search ran under.
    pub threshold: f64,
    /// The benchmark's cluster count (TC).
    pub clusters: usize,
    /// The benchmark's tunable-variable count (TV).
    pub variables: usize,
    /// The search outcome.
    pub result: SearchResult,
}

impl fmt::Display for JobResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} × {} @ {:.0e}: {}",
            self.benchmark, self.algorithm, self.threshold, self.result
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_runs_end_to_end() {
        let job = Job::new("tridiag", "DD", 1e-3, Scale::Small);
        let res = job.execute(None, None).unwrap();
        assert_eq!(res.benchmark, "tridiag");
        assert_eq!(res.algorithm, "DD");
        assert!(!res.result.dnf);
        assert!(res.result.best.is_some());
        assert_eq!(res.clusters, 1);
        assert_eq!(res.variables, 3);
    }

    #[test]
    fn display_mentions_all_parts() {
        let job = Job::new("innerprod", "GA", 1e-3, Scale::Small);
        let s = job.execute(None, None).unwrap().to_string();
        assert!(s.contains("innerprod") && s.contains("GA"));
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let err = Job::new("nope", "DD", 1e-3, Scale::Small)
            .execute(None, None)
            .unwrap_err();
        assert_eq!(err, JobError::UnknownBenchmark("nope".to_string()));
        assert_eq!(err.code(), "unknown-benchmark");
        assert!(!err.is_transient());

        let err = Job::new("tridiag", "nope", 1e-3, Scale::Small)
            .execute(None, None)
            .unwrap_err();
        assert_eq!(err, JobError::UnknownAlgorithm("nope".to_string()));
    }

    #[test]
    fn injected_panic_is_isolated() {
        let job = Job::new("tridiag", "DD", 1e-3, Scale::Small);
        let err = job
            .execute(None, Some(Fault::Panic { at_eval: 0 }))
            .unwrap_err();
        match &err {
            JobError::Panicked(msg) => assert!(msg.contains("injected fault")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        assert!(err.is_transient());
    }

    #[test]
    fn zero_deadline_is_a_deadline_error() {
        let job = Job::new("tridiag", "DD", 1e-3, Scale::Small);
        let err = job.execute(None, Some(Fault::ZeroDeadline)).unwrap_err();
        assert_eq!(err, JobError::DeadlineExceeded { limit_ms: 0 });
        assert!(err.is_transient());
    }

    #[test]
    fn starved_budget_is_a_budget_error() {
        let job = Job::new("tridiag", "DD", 1e-3, Scale::Small);
        let err = job.execute(None, Some(Fault::StarveBudget)).unwrap_err();
        assert_eq!(err, JobError::BudgetExhausted { budget: 0 });
        assert!(!err.is_transient());
    }

    #[test]
    fn nan_reference_is_non_finite_quality() {
        let job = Job::new("tridiag", "DD", 1e-3, Scale::Small);
        let err = job
            .execute(None, Some(Fault::NanOutput { from_eval: 0 }))
            .unwrap_err();
        assert_eq!(err, JobError::NonFiniteQuality);
    }

    #[test]
    fn corrupt_output_is_caught_by_the_integrity_probe() {
        let job = Job::new("tridiag", "DD", 1e-3, Scale::Small);
        let err = job
            .execute(None, Some(Fault::CorruptOutput { from_eval: 0 }))
            .unwrap_err();
        assert_eq!(err, JobError::CorruptOutput);
        assert_eq!(err.code(), "corrupt-output");
        assert!(!err.is_transient(), "silent corruption is permanent");
        // Corruption starting after the reference is caught too: the probe
        // run disagrees with the clean reference.
        let err = job
            .execute(None, Some(Fault::CorruptOutput { from_eval: 1 }))
            .unwrap_err();
        assert_eq!(err, JobError::CorruptOutput);
    }

    #[test]
    fn slow_fault_still_completes_without_deadline() {
        let job = Job::new("tridiag", "DD", 1e-3, Scale::Small);
        let res = job.execute(None, Some(Fault::SlowMs(1))).unwrap();
        assert!(!res.result.dnf);
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let job = Job::new("tridiag", "DD", 1e-3, Scale::Small);
        let res = job.execute(Some(Duration::from_secs(3600)), None).unwrap();
        assert!(!res.result.dnf);
    }

    #[test]
    fn error_displays_are_informative() {
        for (err, needle) in [
            (JobError::UnknownBenchmark("x".into()), "unknown benchmark"),
            (JobError::Panicked("boom".into()), "boom"),
            (JobError::DeadlineExceeded { limit_ms: 7 }, "7 ms"),
            (JobError::BudgetExhausted { budget: 0 }, "budget"),
            (JobError::NonFiniteQuality, "non-finite"),
            (JobError::CorruptOutput, "corrupt"),
        ] {
            assert!(err.to_string().contains(needle), "{err}");
        }
    }
}
