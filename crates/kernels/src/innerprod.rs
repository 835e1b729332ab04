//! Inner product.

use crate::common::{init_data, vid};
use mixp_core::{Benchmark, BenchmarkKind, MetricKind, ProgramBuilder, ProgramModel};
use mixp_ir::Reduce;

/// Inner product (Table I) — the Livermore loop 3 shape:
/// `q += z[k] * x[k]`.
///
/// Program model (Table II): TV = 3, TC = 2 — the two streamed arrays share
/// a cluster; the accumulator `q` is its own cluster.
///
/// The multiply is vectorisable, but the accumulation is a strict dependence
/// chain whose latency is identical at either precision, and the arrays are
/// streamed once per pass (cold misses at both widths). The result is the
/// ≈1.0× speedup of Table III — lowering an inner product buys almost
/// nothing.
#[derive(Debug, Clone)]
pub struct InnerProd {
    program: ProgramModel,
    ir: mixp_ir::Program,
}

impl InnerProd {
    /// Paper-scale instance.
    pub fn new() -> Self {
        Self::with_params(8192, 8)
    }

    /// Reduced instance for unit tests.
    pub fn small() -> Self {
        Self::with_params(256, 2)
    }

    /// Fully parameterised constructor.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `passes == 0`.
    pub fn with_params(n: usize, passes: usize) -> Self {
        assert!(n > 0 && passes > 0);
        let mut b = ProgramBuilder::new("innerprod");
        let m = b.module("innerprod");
        let f = b.function("inner_prod", m);
        let z = b.array(f, "z");
        let x = b.array(f, "x");
        b.bind(z, x);
        let q = b.scalar(f, "q");
        let program = b.build();

        // Passes are unrolled (each uses a distinct weight); the fresh
        // per-pass accumulator is one scalar reset via `set_scalar`. The
        // accumulation stays a serial dependence chain whose latency does
        // not shrink at single precision.
        let mut p = mixp_ir::Program::new("innerprod");
        let za = p.array_init(vid(z), init_data("innerprod", 0, n, 0.001, 0.011));
        let xa = p.array_init(vid(x), init_data("innerprod", 1, n, 0.001, 0.011));
        let qs = p.scalar(vid(q), 0.0);
        for pass in 0..passes {
            p.set_scalar(qs);
            p.reduce(Reduce::dot(qs, za, xa, n, 1.0 + pass as f64 * 1e-6));
            p.flop(vid(q), &[vid(z), vid(x)], n as u64);
            p.heavy(vid(q), &[], 2 * n as u64);
            p.emit_scalar(qs);
        }

        InnerProd { program, ir: p }
    }
}

impl Default for InnerProd {
    fn default() -> Self {
        Self::new()
    }
}

impl Benchmark for InnerProd {
    fn name(&self) -> &str {
        "innerprod"
    }

    fn description(&self) -> &str {
        "Inner product"
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
        let k = InnerProd::small();
        assert_eq!(k.program().total_variables(), 3);
        assert_eq!(k.program().total_clusters(), 2);
    }

    #[test]
    fn reference_matches_direct_dot_product() {
        let k = InnerProd::with_params(64, 1);
        let cfg = k.program().config_all_double();
        let mut ctx = ExecCtx::new(&cfg);
        let out = k.run(&mut ctx);
        let z = init_data("innerprod", 0, 64, 0.001, 0.011);
        let x = init_data("innerprod", 1, 64, 0.001, 0.011);
        let expect: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
        assert!((out[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn all_single_speedup_is_marginal() {
        let k = InnerProd::small();
        let mut ev = Evaluator::new(&k, QualityThreshold::new(1e-3));
        let rec = ev.evaluate(&k.program().config_all_single()).unwrap();
        assert!(
            rec.speedup > 0.9 && rec.speedup < 1.4,
            "dot product should gain little, got {}",
            rec.speedup
        );
    }
}
