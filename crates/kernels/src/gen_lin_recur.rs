//! General linear recurrence equation.

use crate::common::{init_data, vid};
use mixp_core::{Benchmark, BenchmarkKind, MetricKind, ProgramBuilder, ProgramModel};
use mixp_ir::{Expr, Sweep};

/// General linear recurrence equation (Table I) — the Livermore loop 6
/// shape: a forward recurrence where every element depends on the previous
/// partial result.
///
/// Program model (Table II): TV = 4, TC = 1 — all four arrays flow through
/// the recurrence's pointer parameters.
///
/// The dependent chain cannot be vectorised, so its operations are
/// latency-bound ([`mixp_core::ExecCtx::heavy`]) and the kernel gains essentially
/// nothing from single precision (Table III: ≈1.0, and slightly *below*
/// 1.0 for the suboptimal hierarchical configurations).
#[derive(Debug, Clone)]
pub struct GenLinRecur {
    program: ProgramModel,
    ir: mixp_ir::Program,
}

impl GenLinRecur {
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
        let mut b = ProgramBuilder::new("gen-lin-recur");
        let m = b.module("recurrence");
        let f = b.function("gen_lin_recur", m);
        let sa = b.array(f, "sa");
        let sb = b.array(f, "sb");
        let stb = b.array(f, "stb");
        let sx = b.array(f, "sx");
        for a in [sb, stb, sx] {
            b.bind(sa, a);
        }
        let program = b.build();

        let mut p = mixp_ir::Program::new("gen-lin-recur");
        let saa = p.array_init(vid(sa), init_data("gen-lin-recur", 0, n, 0.01, 0.11));
        let sba = p.array_init(vid(sb), init_data("gen-lin-recur", 1, n, 0.01, 0.11));
        let stba = p.array(vid(stb), n);
        let sxa = p.array(vid(sx), n);
        let iters = (passes * (n - 1)) as u64;
        p.heavy(vid(stb), &[vid(sb), vid(sa)], 2 * iters);
        p.heavy(vid(sx), &[vid(stb), vid(sa)], 2 * iters);
        p.begin_repeat(passes);
        // stb[i] = sb[i] - stb[i-1]*sa[i]: strict forward dependence.
        let mut fwd = Sweep::new(n - 1);
        fwd.load(sba, 1).load(stba, 0).load(saa, 1).store(stba, 1);
        fwd.set(
            stba,
            1,
            Expr::at(sba, 1) - Expr::at(stba, 0) * Expr::at(saa, 1),
        );
        p.sweep(fwd);
        // Backward accumulation, equally dependence-bound: a descending
        // sweep, expressed as negative-stride streams anchored at i = n-2.
        let mut bwd = Sweep::new(n - 1);
        bwd.load_strided(stba, n - 2, -1)
            .load_strided(sxa, n - 1, -1)
            .load_strided(saa, n - 2, -1)
            .store_strided(sxa, n - 2, -1);
        bwd.set_strided(
            sxa,
            n - 2,
            -1,
            Expr::load(stba, n - 2, -1) + Expr::load(sxa, n - 1, -1) * Expr::load(saa, n - 2, -1),
        );
        p.sweep(bwd);
        p.end_repeat();
        p.output(sxa);

        GenLinRecur { program, ir: p }
    }
}

impl Default for GenLinRecur {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for GenLinRecur {
    fn name(&self) -> &str {
        "gen-lin-recur"
    }

    fn description(&self) -> &str {
        "General linear recurrence equation"
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
        let k = GenLinRecur::small();
        assert_eq!(k.program().total_variables(), 4);
        assert_eq!(k.program().total_clusters(), 1);
    }

    #[test]
    fn reference_is_finite() {
        let k = GenLinRecur::small();
        let cfg = k.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        assert!(k.run(&mut ctx).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn all_single_gains_little() {
        let k = GenLinRecur::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&k.program().config_all_single()).unwrap();
        assert!(
            rec.speedup > 0.85 && rec.speedup < 1.35,
            "latency-bound recurrence should be ~1.0, got {}",
            rec.speedup
        );
    }
}
