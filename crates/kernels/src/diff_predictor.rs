//! Difference predictor.

use crate::common::{init_data, vid};
use mixp_core::{Benchmark, BenchmarkKind, MetricKind, ProgramBuilder, ProgramModel};
use mixp_ir::{Expr, Sweep};

/// Difference predictor (Table I) — the Livermore-style chained difference
/// table: each predictor level is the running difference of the previous
/// one, and the prediction combines all levels.
///
/// The five arrays (`cx` and four predictor levels `px0..px3`) flow through
/// a common `double**` table parameter, so they form a single cluster
/// (Table II: TV = 5, TC = 1). The loop is flop-dense over an L1-resident
/// working set, giving the moderate (≈1.6×) all-single speedup of
/// Table III.
#[derive(Debug, Clone)]
pub struct DiffPredictor {
    program: ProgramModel,
    ir: mixp_ir::Program,
}

impl DiffPredictor {
    /// Paper-scale instance.
    pub fn new() -> Self {
        Self::with_params(512, 40)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(64, 4)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `passes == 0`.
    pub fn with_params(n: usize, passes: usize) -> Self {
        assert!(n >= 2 && passes > 0);
        let mut b = ProgramBuilder::new("diff-predictor");
        let m = b.module("predictor");
        let f = b.function("diff_predict", m);
        let cx = b.array(f, "cx");
        let px = [
            b.array(f, "px0"),
            b.array(f, "px1"),
            b.array(f, "px2"),
            b.array(f, "px3"),
        ];
        // All five arrays are rows of one double** predictor table.
        for p in px {
            b.bind(cx, p);
        }
        let program = b.build();

        let mut p = mixp_ir::Program::new("diff-predictor");
        let cxa = p.array_init(vid(cx), init_data("diff-predictor", 0, n, 0.01, 0.11));
        let pxa: Vec<_> = px.iter().map(|&v| p.array(vid(v), n)).collect();
        let iters = (passes * (n - 1)) as u64;
        for &level in &px {
            p.flop(vid(level), &[vid(cx)], 3 * iters);
            p.flop(vid(cx), &[vid(level)], 4 * iters);
        }
        p.flop(vid(cx), &[], iters);
        // Each difference level reads its source at i and i-1 and stores
        // level[i]; the predict combine then reads cx and all four levels
        // before storing cx.
        p.begin_repeat(passes);
        for level in 0..4 {
            let (src, dst) = if level == 0 {
                (cxa, pxa[0])
            } else {
                (pxa[level - 1], pxa[level])
            };
            let mut s = Sweep::new(n - 1);
            s.load(src, 1).load(src, 0).store(dst, 1);
            s.set(dst, 1, Expr::at(src, 1) - Expr::at(src, 0));
            p.sweep(s);
        }
        let mut s = Sweep::new(n - 1);
        s.load(cxa, 1);
        for &level in &pxa {
            s.load(level, 1);
        }
        s.store(cxa, 1);
        // Small, halving weights keep the predictor contractive: the
        // worst-case gain of the difference operator stays below one, so
        // storage rounding cannot be amplified.
        let mut acc = Expr::at(cxa, 1);
        let mut w = 0.01;
        for &level in &pxa {
            acc = acc + Expr::k(w) * Expr::at(level, 1);
            w *= 0.5;
        }
        s.set(cxa, 1, acc * Expr::k(0.5));
        p.sweep(s);
        p.end_repeat();
        p.output(cxa);

        DiffPredictor { program, ir: p }
    }
}

impl Default for DiffPredictor {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for DiffPredictor {
    fn name(&self) -> &str {
        "diff-predictor"
    }

    fn description(&self) -> &str {
        "Difference predictor"
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
    fn reference_is_finite() {
        let k = DiffPredictor::small();
        let cfg = k.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = k.run(&mut ctx);
        assert_eq!(out.len(), 64);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn five_arrays_one_cluster() {
        let k = DiffPredictor::small();
        assert_eq!(k.program().total_variables(), 5);
        assert_eq!(k.program().total_clusters(), 1);
    }

    #[test]
    fn all_single_is_faster_with_small_error() {
        let k = DiffPredictor::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&k.program().config_all_single()).unwrap();
        assert!(rec.speedup > 1.2, "speedup {}", rec.speedup);
        assert!(rec.quality < 1e-6, "error {}", rec.quality);
    }
}
