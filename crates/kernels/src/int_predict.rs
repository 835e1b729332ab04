//! Integrate predictors.

use crate::common::{init_data, vid};
use mixp_core::{Benchmark, BenchmarkKind, MetricKind, ProgramBuilder, ProgramModel};
use mixp_ir::{Expr, Sweep};

/// Integrate predictors (Table I) — the Livermore loop 24-style predictor
/// integration: each point is advanced by a 7-coefficient combination of its
/// history.
///
/// Program model (Table II): TV = 9, TC = 2 — the state array `px` and the
/// history array `cx` share a cluster (both are rows of the predictor
/// table), and the seven integration coefficients, passed through a common
/// `double*` coefficients pointer, form the second cluster.
///
/// Flop-dense and vectorisable: Table III shows ≈1.5×.
#[derive(Debug, Clone)]
pub struct IntPredict {
    program: ProgramModel,
    ir: mixp_ir::Program,
}

impl IntPredict {
    /// Paper-scale instance.
    pub fn new() -> Self {
        Self::with_params(2048, 12)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(128, 2)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n < 8` or `passes == 0`.
    pub fn with_params(n: usize, passes: usize) -> Self {
        assert!(n >= 8 && passes > 0);
        let mut b = ProgramBuilder::new("int-predict");
        let m = b.module("predictor");
        let f = b.function("int_predict", m);
        let px = b.array(f, "px");
        let cx = b.array(f, "cx");
        b.bind(px, cx);
        let names = ["c0", "c1", "c2", "c3", "c4", "c5", "c6"];
        let mut coeffs = [px; 7];
        for (slot, name) in coeffs.iter_mut().zip(names) {
            *slot = b.scalar(f, name);
        }
        for i in 1..7 {
            b.bind(coeffs[0], coeffs[i]);
        }
        let program = b.build();

        let mut p = mixp_ir::Program::new("int-predict");
        let cxa = p.array_init(vid(cx), init_data("int-predict", 0, n, 0.01, 0.11));
        let pxa = p.array(vid(px), n);
        // Small, damping coefficient values keep the integration stable.
        let cvals = [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625, 0.0078125];
        let cs: Vec<_> = coeffs
            .iter()
            .zip(cvals)
            .map(|(&v, c)| p.scalar(vid(v), c))
            .collect();
        let iters = (passes * (n - 7)) as u64;
        for &c in &coeffs {
            p.flop(vid(px), &[vid(c), vid(cx)], 2 * iters);
        }
        p.flop(vid(px), &[], 2 * iters);
        // Per point: seven taps cx[i], cx[i-1], ..., cx[i-6] (one stream
        // per tap, in tap order), then px[i-1], then the px[i] store.
        p.begin_repeat(passes);
        let mut s = Sweep::new(n - 7);
        for j in 0..7 {
            s.load(cxa, 7 - j);
        }
        s.load(pxa, 6).store(pxa, 7);
        let mut acc = Expr::k(0.0);
        for (j, &c) in cs.iter().enumerate() {
            acc = acc + Expr::scal(c) * Expr::at(cxa, 7 - j);
        }
        s.set(pxa, 7, Expr::k(0.5) * (acc + Expr::at(pxa, 6)));
        p.sweep(s);
        p.end_repeat();
        p.output(pxa);

        IntPredict { program, ir: p }
    }
}

impl Default for IntPredict {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for IntPredict {
    fn name(&self) -> &str {
        "int-predict"
    }

    fn description(&self) -> &str {
        "Integrate predictors"
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
    use crate::common::var;
    use mixp_core::{Evaluator, ExecCtx, QualityThreshold};

    #[test]
    fn model_matches_table2() {
        let k = IntPredict::small();
        assert_eq!(k.program().total_variables(), 9);
        assert_eq!(k.program().total_clusters(), 2);
    }

    #[test]
    fn reference_is_finite_and_bounded() {
        let k = IntPredict::small();
        let cfg = k.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = k.run(&mut ctx);
        assert!(out.iter().all(|v| v.is_finite() && v.abs() < 1.0));
    }

    #[test]
    fn all_single_moderate_speedup() {
        let k = IntPredict::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&k.program().config_all_single()).unwrap();
        assert!(rec.speedup > 1.2, "speedup {}", rec.speedup);
        assert!(rec.quality < 1e-6);
    }

    #[test]
    fn coefficient_cluster_alone_is_no_win() {
        let k = IntPredict::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let coeffs = ["c0", "c1", "c2", "c3", "c4", "c5", "c6"].map(|name| var(&k, name));
        let cfg = mixp_core::PrecisionConfig::from_lowered(k.program().var_count(), coeffs);
        let rec = ev.evaluate(&cfg).unwrap();
        assert!(rec.compiled);
        assert!(rec.speedup < 1.1, "speedup {}", rec.speedup);
    }
}
