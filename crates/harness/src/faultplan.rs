//! Deterministic fault injection for campaign robustness testing.
//!
//! Real mixed-precision pipelines routinely see candidate runs that crash,
//! diverge to NaN, or blow their time budget (the paper runs every search
//! as a cluster job under a 24-hour limit precisely because of this). This
//! module makes those failure modes *injectable and reproducible* so the
//! harness's graceful degradation is testable: a [`FaultPlan`] assigns a
//! [`Fault`] to chosen job indices, optionally only for the first N
//! attempts (so bounded retry can be exercised end-to-end), and
//! [`FaultyBenchmark`] wraps a real benchmark to realise the fault inside
//! the evaluation loop.
//!
//! Plans can be built explicitly ([`FaultPlan::inject`]) or drawn from the
//! workspace's deterministic SplitMix64 stream ([`FaultPlan::seeded`]) for
//! property tests.

use mixp_core::synth::SplitMix64;
use mixp_core::{Benchmark, BenchmarkKind, ExecCtx, MetricKind, ProgramModel};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One injectable failure mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic inside the benchmark's `run` on the n-th execution of the
    /// faulted attempt (0-based; the all-double reference run is execution
    /// 0). Models a crashing candidate variant.
    Panic {
        /// Which execution panics.
        at_eval: usize,
    },
    /// Replace the benchmark output with NaNs from the n-th execution
    /// onward. `from_eval: 0` poisons the reference run itself, which the
    /// job classifies as a non-finite-quality failure. Models numerical
    /// divergence.
    NanOutput {
        /// First execution whose output is destroyed.
        from_eval: usize,
    },
    /// Collapse the evaluation budget to zero, so the search is starved
    /// before its first evaluation. Models a queue that never schedules
    /// the job's work.
    StarveBudget,
    /// Collapse the wall-clock deadline to zero, forcing an immediate
    /// cooperative timeout. Models the 24-hour limit firing.
    ZeroDeadline,
    /// Perturb the benchmark output by a small *finite* factor from the
    /// n-th execution onward — the output stays plausible (no NaN, no Inf)
    /// but is wrong. The factor depends on the execution index, so no two
    /// runs of the same configuration agree, which is exactly what the
    /// job's output-integrity probe detects. Models silent data corruption
    /// (bad node memory, a miscompiled kernel).
    CorruptOutput {
        /// First execution whose output is perturbed.
        from_eval: usize,
    },
    /// Sleep the given number of milliseconds inside every benchmark run,
    /// consuming real wall-clock per evaluation. Unlike [`Fault::ZeroDeadline`]
    /// this lets a search make *partial* progress before a campaign
    /// deadline expires mid-search. Models a slow or oversubscribed node.
    SlowMs(u64),
    /// Hang inside every benchmark run for up to the given number of
    /// milliseconds, sleeping in short slices and polling the run's
    /// [`mixp_core::CancelToken`] between slices. Without a watchdog this
    /// blocks the worker for the full duration, exactly like a wedged
    /// evaluation; with one, the hang unwinds within one slice of the
    /// token firing. Models an evaluation stuck in a convergence loop.
    HangMs(u64),
    /// Poison the job's cost model with NaN weights, so every speedup the
    /// evaluator computes is non-finite while outputs and quality stay
    /// clean. Applied by the job (the model lives outside the benchmark),
    /// like the budget/deadline faults. Models a broken performance model
    /// rather than a broken program.
    CostModelNan,
}

impl Fault {
    /// Short stable label used in reports and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Fault::Panic { .. } => "panic",
            Fault::NanOutput { .. } => "nan-output",
            Fault::StarveBudget => "starve-budget",
            Fault::ZeroDeadline => "zero-deadline",
            Fault::CorruptOutput { .. } => "corrupt-output",
            Fault::SlowMs(_) => "slow",
            Fault::HangMs(_) => "hang",
            Fault::CostModelNan => "cost-model-nan",
        }
    }
}

/// A fault assigned to one job, active only for its first `attempts`
/// attempts (1-based). `attempts == u32::MAX` means the fault is permanent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// The failure mode to inject.
    pub fault: Fault,
    /// How many attempts of that job see the fault.
    pub attempts: u32,
}

/// A deterministic assignment of faults to campaign job indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    by_job: BTreeMap<usize, Injection>,
}

impl FaultPlan {
    /// An empty plan: no faults anywhere.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.by_job.is_empty()
    }

    /// Number of jobs with an assigned fault.
    pub fn len(&self) -> usize {
        self.by_job.len()
    }

    /// Assigns `fault` to job index `job` for its first `attempts`
    /// attempts. Later assignments to the same index replace earlier ones.
    #[must_use]
    pub fn inject(mut self, job: usize, fault: Fault, attempts: u32) -> Self {
        self.by_job.insert(job, Injection { fault, attempts });
        self
    }

    /// Draws a plan from the deterministic SplitMix64 stream: each of
    /// `jobs` indices is faulted with probability `rate_percent`/100, with
    /// the failure mode itself also drawn from the stream. Identical seeds
    /// produce identical plans on every platform.
    pub fn seeded(seed: u64, jobs: usize, rate_percent: u32) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut plan = FaultPlan::new();
        for job in 0..jobs {
            if rng.next_range(100) >= u64::from(rate_percent.min(100)) {
                continue;
            }
            let fault = match rng.next_range(8) {
                0 => Fault::Panic {
                    at_eval: rng.next_range(3) as usize,
                },
                1 => Fault::NanOutput {
                    from_eval: rng.next_range(2) as usize,
                },
                2 => Fault::StarveBudget,
                3 => Fault::ZeroDeadline,
                4 => Fault::CorruptOutput {
                    from_eval: rng.next_range(2) as usize,
                },
                5 => Fault::SlowMs(1 + rng.next_range(10)),
                6 => Fault::HangMs(1 + rng.next_range(10)),
                _ => Fault::CostModelNan,
            };
            let attempts = 1 + rng.next_range(2) as u32;
            plan = plan.inject(job, fault, attempts);
        }
        plan
    }

    /// The fault to apply to `job` on its `attempt`-th try (1-based), if
    /// any is still active.
    pub fn fault_for(&self, job: usize, attempt: u32) -> Option<Fault> {
        self.by_job
            .get(&job)
            .filter(|inj| attempt <= inj.attempts)
            .map(|inj| inj.fault)
    }
}

/// Wraps a benchmark so that a [`Fault::Panic`] or [`Fault::NanOutput`]
/// fires inside its `run` method, exactly where a real crashing or
/// diverging variant would fail. Budget/deadline faults are applied by the
/// job instead, since they live outside the benchmark.
pub struct FaultyBenchmark {
    inner: Box<dyn Benchmark>,
    fault: Fault,
    runs: AtomicUsize,
}

impl FaultyBenchmark {
    /// Wraps `inner` with `fault`.
    pub fn new(inner: Box<dyn Benchmark>, fault: Fault) -> Self {
        FaultyBenchmark {
            inner,
            fault,
            runs: AtomicUsize::new(0),
        }
    }
}

impl Benchmark for FaultyBenchmark {
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
        let n = self.runs.fetch_add(1, Ordering::Relaxed);
        match self.fault {
            Fault::Panic { at_eval } if n == at_eval => {
                panic!("injected fault: panic at evaluation {n}")
            }
            Fault::NanOutput { from_eval } if n >= from_eval => {
                let out = self.inner.run(ctx);
                vec![f64::NAN; out.len()]
            }
            Fault::CorruptOutput { from_eval } if n >= from_eval => {
                // Finite but wrong: scale by a tiny factor that depends on
                // the execution index, so two runs of the same configuration
                // can never agree — the detectability the integrity probe
                // relies on.
                let factor = 1.0 + (n as f64 + 1.0) * 1e-6;
                self.inner
                    .run(ctx)
                    .into_iter()
                    .map(|v| v * factor)
                    .collect()
            }
            Fault::SlowMs(ms) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                self.inner.run(ctx)
            }
            Fault::HangMs(ms) => {
                // Wedge the worker, but poll the cancel token between short
                // slices so a watchdog can reclaim it: the poll unwinds via
                // `cancel_point` within one slice of the token firing. With
                // no token attached this blocks for the full duration.
                let total = std::time::Duration::from_millis(ms);
                let slice = std::time::Duration::from_millis(5);
                let start = std::time::Instant::now();
                loop {
                    ctx.cancel_point();
                    let elapsed = start.elapsed();
                    if elapsed >= total {
                        break;
                    }
                    std::thread::sleep(slice.min(total - elapsed));
                }
                self.inner.run(ctx)
            }
            _ => self.inner.run(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{benchmark_by_name, Scale};
    use mixp_core::{EvaluatorBuilder, QualityThreshold};

    #[test]
    fn plan_expires_after_configured_attempts() {
        let plan = FaultPlan::new().inject(2, Fault::Panic { at_eval: 0 }, 2);
        assert_eq!(plan.fault_for(2, 1), Some(Fault::Panic { at_eval: 0 }));
        assert_eq!(plan.fault_for(2, 2), Some(Fault::Panic { at_eval: 0 }));
        assert_eq!(plan.fault_for(2, 3), None);
        assert_eq!(plan.fault_for(0, 1), None);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(42, 20, 50);
        let b = FaultPlan::seeded(42, 20, 50);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "50% over 20 jobs should fault something");
        assert!(a.len() <= 20);
        assert!(FaultPlan::seeded(42, 20, 0).is_empty());
    }

    #[test]
    fn nan_fault_destroys_output_from_given_eval() {
        let bench = benchmark_by_name("tridiag", Scale::Small).unwrap();
        let faulty = FaultyBenchmark::new(bench, Fault::NanOutput { from_eval: 1 });
        // Execution 0 (the reference) is clean, execution 1 is destroyed.
        let ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3)).build(&faulty);
        assert!(ev.reference_output().iter().all(|v| v.is_finite()));
        drop(ev);
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3)).build(&faulty);
        // The wrapper's run counter has advanced past from_eval by now, so
        // this evaluation sees NaNs and can never pass.
        let rec = ev.evaluate(&faulty.program().config_all_single()).unwrap();
        assert!(rec.quality.is_nan());
        assert!(!rec.passes);
    }

    #[test]
    fn corrupt_fault_is_finite_but_execution_dependent() {
        let bench = benchmark_by_name("tridiag", Scale::Small).unwrap();
        let clean = benchmark_by_name("tridiag", Scale::Small).unwrap();
        let faulty = FaultyBenchmark::new(bench, Fault::CorruptOutput { from_eval: 0 });
        // Both the reference run and a later run are finite, wrong, and
        // disagree with each other (the factor depends on the run index).
        let ev_f = EvaluatorBuilder::new(QualityThreshold::new(1e-3)).build(&faulty);
        let ev_c = EvaluatorBuilder::new(QualityThreshold::new(1e-3)).build(clean.as_ref());
        let first = ev_f.reference_output().to_vec();
        drop(ev_f);
        let second = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .build(&faulty)
            .reference_output()
            .to_vec();
        assert!(first.iter().chain(&second).all(|v| v.is_finite()));
        assert_ne!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            ev_c.reference_output()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "corrupt output must differ from the clean run"
        );
        assert_ne!(
            first.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            second.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "two corrupt executions must disagree"
        );
    }

    #[test]
    fn slow_fault_consumes_wall_clock() {
        let bench = benchmark_by_name("tridiag", Scale::Small).unwrap();
        let faulty = FaultyBenchmark::new(bench, Fault::SlowMs(20));
        let start = std::time::Instant::now();
        let _ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3)).build(&faulty);
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(20),
            "the reference run alone must sleep the injected delay"
        );
    }

    #[test]
    fn panic_fault_fires_on_schedule() {
        let bench = benchmark_by_name("innerprod", Scale::Small).unwrap();
        let faulty = FaultyBenchmark::new(bench, Fault::Panic { at_eval: 1 });
        // Reference run (execution 0) survives...
        let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3)).build(&faulty);
        // ...the first candidate evaluation panics.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ev.evaluate(&faulty.program().config_all_single())
        }));
        assert!(result.is_err(), "injected panic must fire");
    }
}
