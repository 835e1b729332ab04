//! Difference predictor.

use crate::common::{init_data, vid};
use mixp_core::{
    Benchmark, BenchmarkKind, ExecCtx, MetricKind, ProgramBuilder, ProgramModel, VarId,
};
use mixp_float::MpVec;
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
    cx: VarId,
    px: [VarId; 4],
    n: usize,
    passes: usize,
    cx_init: Vec<f64>,
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
        let cx_init = init_data("diff-predictor", 0, n, 0.01, 0.11);

        let mut p = mixp_ir::Program::new("diff-predictor");
        let cxa = p.array_init(vid(cx), cx_init.clone());
        let pxa: Vec<_> = px.iter().map(|&v| p.array(vid(v), n)).collect();
        let iters = (passes * (n - 1)) as u64;
        for level in 0..4 {
            p.flop(vid(px[level]), &[vid(cx)], 3 * iters);
            p.flop(vid(cx), &[vid(px[level])], 4 * iters);
        }
        p.flop(vid(cx), &[], iters);
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

        DiffPredictor {
            program,
            cx,
            px,
            n,
            passes,
            cx_init,
            ir: p,
        }
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

    fn run(&self, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
        let mut cx = MpVec::from_values(ctx, self.cx, &self.cx_init);
        let mut px: Vec<MpVec> = self.px.iter().map(|&v| ctx.alloc_vec(v, self.n)).collect();
        let iters = (self.passes * (self.n - 1)) as u64;
        for level in 0..4 {
            ctx.flop(self.px[level], &[self.cx], 3 * iters);
            ctx.flop(self.cx, &[self.px[level]], 4 * iters);
        }
        ctx.flop(self.cx, &[], iters);
        // Each difference level reads its source at i and i-1 and stores
        // level[i]; the predict combine then reads cx and all four levels
        // before storing cx — exactly the element-wise evaluation order.
        let mut diff = mixp_float::StreamGroup::new();
        diff.load(&cx, 1).load(&cx, 0).store(&px[0], 1);
        let mut predict = mixp_float::StreamGroup::new();
        predict.load(&cx, 1);
        for level in &px {
            predict.load(level, 1);
        }
        predict.store(&cx, 1);
        for _ in 0..self.passes {
            for level in 0..4 {
                if level == 0 {
                    diff.rebase(0, &cx, 1)
                        .rebase(1, &cx, 0)
                        .rebase(2, &px[0], 1);
                    diff.commit(ctx, self.n - 1);
                    for i in 1..self.n {
                        let d = cx.raw()[i] - cx.raw()[i - 1];
                        px[0].write_rounded(i, d);
                    }
                } else {
                    diff.rebase(0, &px[level - 1], 1)
                        .rebase(1, &px[level - 1], 0)
                        .rebase(2, &px[level], 1);
                    diff.commit(ctx, self.n - 1);
                    let (lower, upper) = px.split_at_mut(level);
                    let prev = lower[level - 1].raw();
                    for i in 1..self.n {
                        upper[0].write_rounded(i, prev[i] - prev[i - 1]);
                    }
                }
            }
            predict.commit(ctx, self.n - 1);
            for i in 1..self.n {
                let mut acc = cx.raw()[i];
                // Small, halving weights keep the predictor contractive:
                // the worst-case gain of the difference operator stays
                // below one, so storage rounding cannot be amplified.
                let mut w = 0.01;
                for level in 0..4 {
                    acc += w * px[level].raw()[i];
                    w *= 0.5;
                }
                cx.write_rounded(i, acc * 0.5);
            }
        }
        cx.snapshot()
    }

    fn ir_program(&self) -> Option<&mixp_ir::Program> {
        Some(&self.ir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::{Evaluator, QualityThreshold};

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
