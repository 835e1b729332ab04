//! Planckian distribution.

use crate::common::{init_data, vid};
use mixp_core::{Benchmark, BenchmarkKind, MetricKind, ProgramBuilder, ProgramModel};
use mixp_ir::{Expr, Sweep};

/// Planckian distribution (Table I) — the Livermore loop 22 shape:
/// `w[k] = x[k] / (exp(y[k] / v[k]) - 1)`.
///
/// Program model (Table II): TV = 6, TC = 2 — four arrays share a cluster;
/// the two range scalars (`expmax` and the normalisation `u`), passed by
/// pointer, form the second.
///
/// The loop is dominated by `exp` and divide — transcendental latency that
/// does not shrink at single precision — so Table III shows ≈1.0×.
#[derive(Debug, Clone)]
pub struct Planckian {
    program: ProgramModel,
    ir: mixp_ir::Program,
}

impl Planckian {
    /// Paper-scale instance.
    pub fn new() -> Self {
        Self::with_params(4096, 8)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(128, 2)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `passes == 0`.
    pub fn with_params(n: usize, passes: usize) -> Self {
        assert!(n > 0 && passes > 0);
        let mut b = ProgramBuilder::new("planckian");
        let m = b.module("planckian");
        let f = b.function("planck", m);
        let w = b.array(f, "w");
        let x = b.array(f, "x");
        let y = b.array(f, "y");
        let v = b.array(f, "v");
        for a in [x, y, v] {
            b.bind(w, a);
        }
        let expmax = b.scalar(f, "expmax");
        let u = b.scalar(f, "u");
        b.bind(expmax, u);
        let program = b.build();

        let mut p = mixp_ir::Program::new("planckian");
        let xa = p.array_init(vid(x), init_data("planckian", 0, n, 0.01, 0.11));
        let ya = p.array_init(vid(y), init_data("planckian", 1, n, 0.5, 1.5));
        let va = p.array_init(vid(v), init_data("planckian", 2, n, 0.5, 1.5));
        let wa = p.array(vid(w), n);
        let ems = p.scalar(vid(expmax), 20.0);
        let us = p.scalar(vid(u), 0.990);
        let iters = (passes * n) as u64;
        p.heavy(vid(w), &[vid(y), vid(v), vid(expmax)], iters);
        p.heavy(vid(w), &[vid(u)], iters);
        p.heavy(vid(w), &[vid(x)], iters);
        p.begin_repeat(passes);
        let mut s = Sweep::new(n);
        s.load(ya, 0).load(va, 0).load(xa, 0).store(wa, 0);
        let ratio = s.bind((Expr::at(ya, 0) / Expr::at(va, 0)).min(Expr::scal(ems)));
        s.set(wa, 0, Expr::at(xa, 0) / (ratio.exp() - Expr::scal(us)));
        p.sweep(s);
        p.end_repeat();
        p.output(wa);

        Planckian { program, ir: p }
    }
}

impl Default for Planckian {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for Planckian {
    fn name(&self) -> &str {
        "planckian"
    }

    fn description(&self) -> &str {
        "Planckian distribution"
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
        let k = Planckian::small();
        assert_eq!(k.program().total_variables(), 6);
        assert_eq!(k.program().total_clusters(), 2);
    }

    #[test]
    fn reference_is_finite_positive() {
        let k = Planckian::small();
        let cfg = k.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = k.run(&mut ctx);
        assert!(out.iter().all(|v| v.is_finite() && *v > 0.0));
    }

    #[test]
    fn transcendental_loop_gains_little() {
        let k = Planckian::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&k.program().config_all_single()).unwrap();
        assert!(
            rec.speedup > 0.9 && rec.speedup < 1.4,
            "exp-bound loop should be ~1.0, got {}",
            rec.speedup
        );
    }
}
