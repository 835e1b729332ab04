//! Tridiagonal linear systems solution.

use crate::common::{init_data, vid};
use mixp_core::{Benchmark, BenchmarkKind, MetricKind, ProgramBuilder, ProgramModel};
use mixp_ir::{Expr, Sweep};

/// Tridiagonal linear systems solution (Table I) — the Livermore loop 5
/// shape: `x[i] = z[i] * (y[i] - x[i-1])`, a strict forward elimination.
///
/// Program model (Table II): TV = 3, TC = 1 — all three arrays flow through
/// the solver's pointer parameters.
///
/// Like [`crate::GenLinRecur`], the loop is a serial dependence chain:
/// latency-bound at either precision, so Table III shows ≈1.0×.
#[derive(Debug, Clone)]
pub struct Tridiag {
    program: ProgramModel,
    ir: mixp_ir::Program,
}

impl Tridiag {
    /// Paper-scale instance.
    pub fn new() -> Self {
        Self::with_params(4096, 10)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(128, 2)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `passes == 0`.
    pub fn with_params(n: usize, passes: usize) -> Self {
        assert!(n >= 2 && passes > 0);
        let mut b = ProgramBuilder::new("tridiag");
        let m = b.module("tridiag");
        let f = b.function("tridiag_solve", m);
        let x = b.array(f, "x");
        let y = b.array(f, "y");
        let z = b.array(f, "z");
        b.bind(x, y);
        b.bind(x, z);
        let program = b.build();

        let mut p = mixp_ir::Program::new("tridiag");
        let ya = p.array_init(vid(y), init_data("tridiag", 0, n, 0.01, 0.11));
        let za = p.array_init(vid(z), init_data("tridiag", 1, n, 0.1, 0.9));
        let xa = p.array(vid(x), n);
        // Serial chain: each element waits on x[i-1].
        let iters = (passes * (n - 1)) as u64;
        p.heavy(vid(x), &[vid(z), vid(y)], 2 * iters);
        p.begin_repeat(passes);
        let mut s = Sweep::new(n - 1);
        s.load(za, 1).load(ya, 1).load(xa, 0).store(xa, 1);
        s.set(xa, 1, Expr::at(za, 1) * (Expr::at(ya, 1) - Expr::at(xa, 0)));
        p.sweep(s);
        p.end_repeat();
        p.output(xa);

        Tridiag { program, ir: p }
    }
}

impl Default for Tridiag {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for Tridiag {
    fn name(&self) -> &str {
        "tridiag"
    }

    fn description(&self) -> &str {
        "Tridiagonal linear systems solution"
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
    fn model_matches_table2() {
        let k = Tridiag::small();
        assert_eq!(k.program().total_variables(), 3);
        assert_eq!(k.program().total_clusters(), 1);
    }

    #[test]
    fn forward_elimination_matches_direct_computation() {
        let k = Tridiag::with_params(16, 1);
        let cfg = k.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = k.run(&mut ctx);
        let y = init_data("tridiag", 0, 16, 0.01, 0.11);
        let z = init_data("tridiag", 1, 16, 0.1, 0.9);
        let mut expect = vec![0.0f64; 16];
        for i in 1..16 {
            expect[i] = z[i] * (y[i] - expect[i - 1]);
        }
        for (o, e) in out.iter().zip(&expect) {
            assert!((o - e).abs() < 1e-15);
        }
    }

    #[test]
    fn serial_chain_gains_little() {
        let k = Tridiag::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&k.program().config_all_single()).unwrap();
        assert!(
            rec.speedup > 0.9 && rec.speedup < 1.4,
            "serial solve should be ~1.0, got {}",
            rec.speedup
        );
    }
}
