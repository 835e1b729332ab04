//! Incomplete Cholesky conjugate gradient fragment.

use crate::common::{init_data, vid};
use mixp_core::{Benchmark, BenchmarkKind, MetricKind, ProgramBuilder, ProgramModel};
use mixp_ir::{Expr, Sweep};

/// Incomplete Cholesky conjugate gradient fragment (Table I) — the
/// Livermore loop 2 shape: a butterfly-style reduction with halving strides,
/// `x[ipnt+i] = x[ipnt+i] - v[i]*x[ipnt+i+1]`.
///
/// Program model (Table II): TV = 2, TC = 1 — `x` and `v` flow through the
/// same solver pointer parameters.
///
/// The inner loop is independent at each level and flop-dense over a small
/// working set, giving the ≈1.9× all-single speedup of Table III.
#[derive(Debug, Clone)]
pub struct Iccg {
    program: ProgramModel,
    ir: mixp_ir::Program,
}

impl Iccg {
    /// Paper-scale instance (`n` must be a power of two).
    pub fn new() -> Self {
        Self::with_params(4096, 16)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(128, 2)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`, `n` is not a power of two, or `passes == 0`.
    pub fn with_params(n: usize, passes: usize) -> Self {
        assert!(n >= 4 && n.is_power_of_two() && passes > 0);
        let mut b = ProgramBuilder::new("iccg");
        let m = b.module("iccg");
        let f = b.function("iccg_frag", m);
        let x = b.array(f, "x");
        let v = b.array(f, "v");
        b.bind(x, v);
        let program = b.build();

        // The butterfly's level structure is static given `n`, so the IR
        // unrolls one sweep per level inside a counted repeat over the
        // passes.
        let mut p = mixp_ir::Program::new("iccg");
        let xa = p.array_init(vid(x), init_data("iccg", 0, 2 * n, 0.01, 0.11));
        let va = p.array_init(vid(v), init_data("iccg", 1, 2 * n, 0.001, 0.011));
        // Count the butterfly's update sites up front (integer-only dry
        // walk) so flop accounting can be charged in bulk.
        let per_pass = {
            let mut count = 0u64;
            let mut ii = n;
            let mut ipntp = 0;
            while ii > 1 {
                let ipnt = ipntp;
                ipntp += ii;
                ii /= 2;
                count += ((ipnt + 1)..(ipntp - 1)).step_by(2).len() as u64;
            }
            count
        };
        p.flop(vid(x), &[vid(v)], 9 * per_pass * passes as u64);
        // Butterfly reduction: level sizes n/2, n/4, ..., 1. Within a
        // level k steps by two, so each level's five load streams stride 2
        // elements while the store stream (compacting into the next level
        // at ipntp) strides 1.
        p.begin_repeat(passes);
        let mut ii = n;
        let mut ipntp = 0;
        while ii > 1 {
            let ipnt = ipntp;
            ipntp += ii;
            ii /= 2;
            let k0 = ipnt + 1;
            let klen = ((ipnt + 1)..(ipntp - 1)).step_by(2).len();
            let mut s = Sweep::new(klen);
            s.load_strided(xa, k0, 2)
                .load_strided(va, k0, 2)
                .load_strided(xa, k0 - 1, 2)
                .load_strided(va, k0 + 1, 2)
                .load_strided(xa, k0 + 1, 2)
                .store(xa, ipntp);
            s.set(
                xa,
                ipntp,
                Expr::load(xa, k0, 2) - Expr::load(va, k0, 2) * Expr::load(xa, k0 - 1, 2)
                    + Expr::load(va, k0 + 1, 2) * Expr::load(xa, k0 + 1, 2),
            );
            p.sweep(s);
        }
        p.end_repeat();
        p.output(xa);

        Iccg { program, ir: p }
    }
}

impl Default for Iccg {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for Iccg {
    fn name(&self) -> &str {
        "iccg"
    }

    fn description(&self) -> &str {
        "Incomplete Cholesky conjugate gradient"
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
        let k = Iccg::small();
        assert_eq!(k.program().total_variables(), 2);
        assert_eq!(k.program().total_clusters(), 1);
    }

    #[test]
    fn reference_is_finite() {
        let k = Iccg::small();
        let cfg = k.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        assert!(k.run(&mut ctx).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn all_single_is_clearly_faster() {
        let k = Iccg::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&k.program().config_all_single()).unwrap();
        assert!(rec.speedup > 1.3, "speedup {}", rec.speedup);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_rejected() {
        Iccg::with_params(100, 1);
    }
}
