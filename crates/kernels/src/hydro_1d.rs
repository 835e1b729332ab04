//! Hydrodynamics fragment.

use crate::common::{init_data, vid};
use mixp_core::{Benchmark, BenchmarkKind, MetricKind, ProgramBuilder, ProgramModel};
use mixp_ir::{Expr, Sweep};

/// 1-D hydrodynamics fragment (Table I) — the Livermore loop 1 shape:
/// `x[k] = q + y[k] * (r * z[k+10] + t * z[k+11])`.
///
/// Program model (Table II): TV = 6, TC = 2 — the three state arrays form
/// one cluster, the three coefficient scalars (passed through a common
/// `double*` coefficients pointer) form the second.
///
/// The loop is independent across `k` (fully vectorisable) and flop-dense,
/// producing the moderate ≈1.7× all-single speedup of Table III.
#[derive(Debug, Clone)]
pub struct Hydro1d {
    program: ProgramModel,
    ir: mixp_ir::Program,
}

impl Hydro1d {
    /// Paper-scale instance.
    pub fn new() -> Self {
        Self::with_params(4096, 12)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(128, 2)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n <= 11` or `passes == 0`.
    pub fn with_params(n: usize, passes: usize) -> Self {
        assert!(n > 11 && passes > 0);
        let mut b = ProgramBuilder::new("hydro-1d");
        let m = b.module("hydro");
        let f = b.function("hydro_frag", m);
        let x = b.array(f, "x");
        let y = b.array(f, "y");
        let z = b.array(f, "z");
        b.bind(x, y);
        b.bind(x, z);
        let q = b.scalar(f, "q");
        let r = b.scalar(f, "r");
        let t = b.scalar(f, "t");
        b.bind(q, r);
        b.bind(q, t);
        let program = b.build();

        let mut p = mixp_ir::Program::new("hydro-1d");
        let ya = p.array_init(vid(y), init_data("hydro-1d", 0, n, 0.01, 0.11));
        let za = p.array_init(vid(z), init_data("hydro-1d", 1, n, 0.01, 0.11));
        let xa = p.array(vid(x), n);
        let qs = p.scalar(vid(q), 0.05);
        let rs = p.scalar(vid(r), 0.02);
        let ts = p.scalar(vid(t), 0.01);
        // 3 muls + 2 adds per point, all inside the two clusters.
        let iters = (passes * (n - 11)) as u64;
        p.flop(vid(x), &[vid(q), vid(y), vid(r), vid(z), vid(t)], 7 * iters);
        p.begin_repeat(passes);
        let mut s = Sweep::new(n - 11);
        s.load(ya, 0).load(za, 10).load(za, 11).store(xa, 0);
        s.set(
            xa,
            0,
            Expr::scal(qs)
                + Expr::at(ya, 0)
                    * (Expr::scal(rs) * Expr::at(za, 10) + Expr::scal(ts) * Expr::at(za, 11)),
        );
        p.sweep(s);
        p.end_repeat();
        p.output(xa);

        Hydro1d { program, ir: p }
    }
}

impl Default for Hydro1d {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for Hydro1d {
    fn name(&self) -> &str {
        "hydro-1d"
    }

    fn description(&self) -> &str {
        "Hydrodynamics fragment"
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
    use mixp_core::{Evaluator, QualityThreshold};

    #[test]
    fn model_matches_table2() {
        let k = Hydro1d::small();
        assert_eq!(k.program().total_variables(), 6);
        assert_eq!(k.program().total_clusters(), 2);
    }

    #[test]
    fn all_single_speedup_is_moderate() {
        let k = Hydro1d::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&k.program().config_all_single()).unwrap();
        assert!(rec.speedup > 1.3, "speedup {}", rec.speedup);
        assert!(rec.quality < 1e-6);
    }

    #[test]
    fn lowering_only_the_scalars_changes_little() {
        let k = Hydro1d::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        // Lower the scalar cluster only: arrays stay double, ops stay f64,
        // and each op casts the narrow scalar inputs.
        let scalars = ["q", "r", "t"].map(|name| var(&k, name));
        let cfg = mixp_core::PrecisionConfig::from_lowered(k.program().var_count(), scalars);
        let rec = ev.evaluate(&cfg).unwrap();
        assert!(rec.compiled);
        assert!(rec.speedup < 1.05, "speedup {}", rec.speedup);
    }
}
