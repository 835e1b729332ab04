//! The benchmark interface.

use mixp_float::ExecCtx;
use mixp_typedeps::ProgramModel;
use mixp_verify::MetricKind;
use std::fmt;

/// Whether a benchmark is one of the 10 kernels or one of the 7 proxy
/// applications.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkKind {
    /// A small, I/O-free kernel with randomly initialised inputs
    /// (Table I of the paper).
    Kernel,
    /// An HPC proxy / mini application.
    Application,
}

impl fmt::Display for BenchmarkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BenchmarkKind::Kernel => "kernel",
            BenchmarkKind::Application => "application",
        })
    }
}

/// A tunable benchmark program.
///
/// Implementations are immutable once constructed: the same benchmark value
/// must produce the same output for the same configuration, so that the
/// evaluator's reference comparison and memoisation are sound. Inputs are
/// generated from a fixed seed at construction time.
pub trait Benchmark: Send + Sync {
    /// Short machine-friendly name (e.g. `"hydro-1d"`, `"lavamd"`).
    fn name(&self) -> &str;

    /// One-line human description (Table I / §III-B).
    fn description(&self) -> &str;

    /// Kernel or application.
    fn kind(&self) -> BenchmarkKind;

    /// The program model: variables, type-dependence clusters, hierarchy.
    fn program(&self) -> &ProgramModel;

    /// The quality metric used to verify this benchmark's output
    /// (MAE for all benchmarks except K-means, which uses MCR).
    fn metric(&self) -> MetricKind;

    /// Executes the benchmark under the configuration carried by `ctx` and
    /// returns its verification output (the values the metric compares).
    ///
    /// The default compiles [`Benchmark::ir_program`] for the context's
    /// configuration and interprets the plan, so an IR-ported benchmark
    /// is defined by its program alone. Benchmarks without a program
    /// override `run`: they must route all tunable storage through
    /// [`mixp_float::MpVec`] / [`mixp_float::MpScalar`] and report their
    /// arithmetic via [`ExecCtx::flop`] / [`ExecCtx::heavy`] so that both
    /// the numerics and the cost accounting reflect the configuration.
    ///
    /// # Panics
    ///
    /// The default panics if the benchmark has no IR program.
    fn run(&self, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
        let prog = self
            .ir_program()
            .expect("a benchmark without an IR program must implement `run`");
        let plan = crate::irplan::compile_plan(prog, ctx.config());
        crate::irplan::run_plan(&plan, ctx)
    }

    /// The benchmark expressed as a [`mixp_ir::Program`], if it has been
    /// ported to the IR.
    ///
    /// When present, the program is the benchmark's one definition: the
    /// evaluator compiles `(program, configuration)` pairs into
    /// specialized execution plans (one per run, dropped when the run
    /// returns) and interprets those. The optimized plan is
    /// property-tested bit for bit (outputs, operation counts, access
    /// stream) against the unoptimized plan of
    /// [`crate::irplan::compile_plan_unoptimized`].
    fn ir_program(&self) -> Option<&mixp_ir::Program> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_display() {
        assert_eq!(BenchmarkKind::Kernel.to_string(), "kernel");
        assert_eq!(BenchmarkKind::Application.to_string(), "application");
    }
}
