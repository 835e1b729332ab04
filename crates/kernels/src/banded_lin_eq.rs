//! Banded linear systems solution.

use crate::common::{init_data, vid};
use mixp_core::{Benchmark, BenchmarkKind, MetricKind, ProgramBuilder, ProgramModel};
use mixp_ir::{Expr, Sweep};

/// Banded linear systems solution (Table I) — forward substitution over a
/// *batch* of independent banded systems stored system-major, swept in
/// lock-step (row `i` of every system before row `i+1`).
///
/// The lock-step sweep makes every access stride one whole system apart, so
/// each access touches its own cache line and the active line window exceeds
/// the simulated L1 at either precision. What differs is the *capacity*
/// level that serves the misses: the double-precision arrays spill the L2
/// and stream from memory, while the single-precision arrays fit in L2.
/// That is the mechanism behind this kernel's outsized Table III speedup
/// (≈4.5×, by far the largest of the ten).
///
/// Program model (Table II): TV = 2, TC = 1 — `x` and `y` are bound through
/// the solver's pointer parameters.
#[derive(Debug, Clone)]
pub struct BandedLinEq {
    program: ProgramModel,
    ir: mixp_ir::Program,
}

impl BandedLinEq {
    /// Paper-scale instance: 384 systems × 64 rows. Two arrays of 24 576
    /// doubles = 384 KiB (spills the 256 KiB L2); single precision halves
    /// that into L2, and the 2 × 384-line access window exceeds L1 either
    /// way.
    pub fn new() -> Self {
        Self::with_params(384, 64, 5)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(16, 16, 2)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `nsys == 0`, `n < 2` or `sweeps == 0`.
    pub fn with_params(nsys: usize, n: usize, sweeps: usize) -> Self {
        assert!(nsys > 0 && n >= 2 && sweeps > 0);
        let mut b = ProgramBuilder::new("banded-lin-eq");
        let m = b.module("banded");
        let solve = b.function("band_solve", m);
        let x = b.array(solve, "x");
        let y = b.array(solve, "y");
        b.bind(x, y); // both flow through the same double* parameters
        let program = b.build();

        // Lock-step forward substitution: one strided sweep per row (the
        // inner j-loop strides across systems, step n elements), unrolled
        // across rows inside a counted repeat over the outer sweeps.
        let mut p = mixp_ir::Program::new("banded-lin-eq");
        let ya = p.array_init(vid(y), init_data("banded-lin-eq", 0, nsys * n, 0.01, 0.11));
        let xa = p.array(vid(x), nsys * n);
        // 3 flops per row update, entirely within the {x, y} cluster.
        let iters = (sweeps * (n - 1) * nsys) as u64;
        p.flop(vid(x), &[vid(y)], 3 * iters);
        let step = n as i64;
        p.begin_repeat(sweeps);
        for i in 1..n {
            let mut s = Sweep::new(nsys);
            s.load_strided(ya, i, step)
                .load_strided(xa, i - 1, step)
                .load_strided(ya, i - 1, step)
                .store_strided(xa, i, step);
            s.set_strided(
                xa,
                i,
                step,
                Expr::load(ya, i, step) - Expr::load(xa, i - 1, step) * Expr::load(ya, i - 1, step),
            );
            p.sweep(s);
        }
        p.end_repeat();
        p.output(xa);

        BandedLinEq { program, ir: p }
    }
}

impl Default for BandedLinEq {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for BandedLinEq {
    fn name(&self) -> &str {
        "banded-lin-eq"
    }

    fn description(&self) -> &str {
        "Banded linear systems solution"
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

    fn ir_program(&self) -> Option<&mixp_ir::Program> {
        Some(&self.ir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::{Evaluator, ExecCtx, QualityThreshold};

    #[test]
    fn deterministic_reference_output() {
        let k = BandedLinEq::small();
        let cfg = k.program().config_all_double();
        let mut c1 = ExecCtx::new(&cfg);
        let mut c2 = ExecCtx::new(&cfg);
        assert_eq!(k.run(&mut c1), k.run(&mut c2));
    }

    #[test]
    fn output_is_finite_and_sized() {
        let k = BandedLinEq::small();
        let cfg = k.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = k.run(&mut ctx);
        assert_eq!(out.len(), 16 * 16);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forward_substitution_matches_direct_computation() {
        let k = BandedLinEq::with_params(2, 8, 1);
        let cfg = k.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = k.run(&mut ctx);
        let y = init_data("banded-lin-eq", 0, 2 * 8, 0.01, 0.11);
        for j in 0..2 {
            let mut expect = [0.0f64; 8];
            for i in 1..8 {
                expect[i] = y[j * 8 + i] - expect[i - 1] * y[j * 8 + i - 1];
            }
            for i in 0..8 {
                assert!((out[j * 8 + i] - expect[i]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn single_precision_error_is_small_but_nonzero() {
        let k = BandedLinEq::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&k.program().config_all_single()).unwrap();
        assert!(rec.quality > 0.0);
        assert!(rec.quality < 1e-6, "error too large: {}", rec.quality);
    }

    #[test]
    fn paper_scale_speedup_is_the_largest_of_the_kernels() {
        let k = BandedLinEq::new();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&k.program().config_all_single()).unwrap();
        assert!(
            rec.speedup > 2.5,
            "Table III says ~4.5 (memory-bound), got {}",
            rec.speedup
        );
    }
}
