//! Equation of state fragment.

use crate::common::{init_data, vid};
use mixp_core::{Benchmark, BenchmarkKind, MetricKind, ProgramBuilder, ProgramModel};
use mixp_ir::{Expr, Sweep};

/// Equation of state fragment (Table I) — the Livermore loop 7 shape:
/// a polynomial combination of several state arrays.
///
/// Program model (Table II): TV = 7, TC = 2. The five state arrays share a
/// cluster (they flow through the fragment's `double*` parameters), the two
/// rate scalars `q`/`r` share a second cluster (passed by pointer), and the
/// time-step coefficient `t` is a *literal*, which Typeforge cannot
/// transform. The literal keeps part of the arithmetic in double and inserts
/// conversions in every lowered configuration, which is why the paper's
/// Table III shows ≈1.0 speedup for this kernel.
#[derive(Debug, Clone)]
pub struct Eos {
    program: ProgramModel,
    ir: mixp_ir::Program,
}

impl Eos {
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
    /// Panics if `n < 8` or `passes == 0`.
    pub fn with_params(n: usize, passes: usize) -> Self {
        assert!(n >= 8 && passes > 0);
        let mut b = ProgramBuilder::new("eos");
        let m = b.module("eos");
        let f = b.function("state_frag", m);
        let x = b.array(f, "x");
        let y = b.array(f, "y");
        let z = b.array(f, "z");
        let u = b.array(f, "u");
        let w = b.array(f, "w");
        for a in [y, z, u, w] {
            b.bind(x, a);
        }
        let q = b.scalar(f, "q");
        let r = b.scalar(f, "r");
        b.bind(q, r); // both passed through one `double*` rates pointer
        let t_lit = b.literal(f, "t");
        let program = b.build();

        let mut p = mixp_ir::Program::new("eos");
        let ya = p.array_init(vid(y), init_data("eos", 0, n, 0.01, 0.11));
        let za = p.array_init(vid(z), init_data("eos", 1, n, 0.01, 0.11));
        let ua = p.array_init(vid(u), init_data("eos", 2, n, 0.01, 0.11));
        let xa = p.array(vid(x), n);
        let wa = p.array(vid(w), n);
        let qs = p.scalar(vid(q), 0.0625);
        let rs = p.scalar(vid(r), 0.03125);
        let t = 0.015625; // literal: always double
        let iters = (passes * (n - 6)) as u64;
        p.flop(vid(x), &[vid(u), vid(r), vid(z), vid(y)], 4 * iters);
        p.flop(vid(x), &[vid(u), vid(q)], 4 * iters);
        // The literal time step participates in the final combine: this op
        // is always double and casts lowered operands.
        p.flop(vid(x), &[vid(t_lit)], 2 * iters);
        p.flop(vid(w), &[vid(x), vid(t_lit), vid(u)], 2 * iters);
        // One stream group per pass, declared in the element-wise
        // evaluation order, including the x[i] read-back between the two
        // stores.
        p.begin_repeat(passes);
        let mut s = Sweep::new(n - 6);
        s.load(ua, 0)
            .load(za, 0)
            .load(ya, 0)
            .load(ua, 3)
            .load(ua, 2)
            .load(ua, 1)
            .store(xa, 0)
            .load(xa, 0)
            .load(ua, 0)
            .store(wa, 0);
        let inner = s.bind(
            Expr::at(ua, 0) + Expr::scal(rs) * (Expr::at(za, 0) + Expr::scal(rs) * Expr::at(ya, 0)),
        );
        let hist = s.bind(
            Expr::at(ua, 3) + Expr::scal(qs) * (Expr::at(ua, 2) + Expr::scal(qs) * Expr::at(ua, 1)),
        );
        let stored = s.store_bind(xa, 0, inner + Expr::k(t) * hist);
        s.set(wa, 0, stored * Expr::k(t) + Expr::at(ua, 0));
        p.sweep(s);
        p.end_repeat();
        p.output(xa);
        p.output(wa);

        Eos { program, ir: p }
    }
}

impl Default for Eos {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for Eos {
    fn name(&self) -> &str {
        "eos"
    }

    fn description(&self) -> &str {
        "Equation of state fragment"
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
    use mixp_core::{Evaluator, Precision, QualityThreshold};

    #[test]
    fn model_matches_table2() {
        let k = Eos::small();
        assert_eq!(k.program().total_variables(), 7);
        assert_eq!(k.program().total_clusters(), 2);
    }

    #[test]
    fn literal_stays_double_in_all_single() {
        let k = Eos::small();
        let cfg = k.program().config_all_single();
        assert_eq!(cfg.get(var(&k, "t")), Precision::Double);
    }

    #[test]
    fn all_single_speedup_is_marginal() {
        // The literal-induced casts erase most of the gain (Table III: ~1.0).
        let k = Eos::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&k.program().config_all_single()).unwrap();
        assert!(
            rec.speedup > 0.8 && rec.speedup < 1.4,
            "expected near-1.0 speedup, got {}",
            rec.speedup
        );
    }

    #[test]
    fn error_stays_tiny() {
        let k = Eos::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&k.program().config_all_single()).unwrap();
        assert!(rec.quality < 1e-7, "error {}", rec.quality);
    }
}
