//! The 10 HPC kernels of HPC-MixPBench (Table I).
//!
//! Kernels are small, I/O-free building blocks of HPC codes with randomly
//! (but deterministically) initialised inputs. They are the paper's starting
//! point for debugging mixed-precision tools: their search spaces are tiny
//! (1–2 clusters, 2–9 variables — Table II), so even exhaustive search is
//! feasible and every algorithm can be validated against the optimum.
//!
//! Each kernel declares a program model whose *TV* (total variables) and
//! *TC* (total clusters) match Table II of the paper, and a computation
//! whose operation mix reproduces the qualitative speedup of Table III:
//! memory-bound sweeps gain from the halved footprint (banded-lin-eq),
//! flop-bound loops gain from double-width SIMD (iccg, hydro-1d,
//! diff-predictor, int-predict), and latency- or transcendental-bound loops
//! gain almost nothing (eos, gen-lin-recur, innerprod, planckian, tridiag).
//!
//! # Example
//!
//! ```
//! use mixp_core::{Benchmark, Evaluator, QualityThreshold};
//! use mixp_kernels::InnerProd;
//!
//! let kernel = InnerProd::small();
//! let mut ev = Evaluator::new(&kernel, QualityThreshold::new(1e-3));
//! let rec = ev.evaluate(&kernel.program().config_all_single()).unwrap();
//! assert!(rec.compiled);
//! ```

mod banded_lin_eq;
mod common;
mod diff_predictor;
mod eos;
mod gen_lin_recur;
mod hydro_1d;
mod iccg;
mod innerprod;
mod int_predict;
mod planckian;
mod tridiag;

pub use banded_lin_eq::BandedLinEq;
pub use diff_predictor::DiffPredictor;
pub use eos::Eos;
pub use gen_lin_recur::GenLinRecur;
pub use hydro_1d::Hydro1d;
pub use iccg::Iccg;
pub use innerprod::InnerProd;
pub use int_predict::IntPredict;
pub use planckian::Planckian;
pub use tridiag::Tridiag;

use mixp_core::Benchmark;

/// All ten kernels at their paper-scale sizes, in Table I order.
pub fn all_kernels() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(BandedLinEq::new()),
        Box::new(DiffPredictor::new()),
        Box::new(Eos::new()),
        Box::new(GenLinRecur::new()),
        Box::new(Hydro1d::new()),
        Box::new(Iccg::new()),
        Box::new(InnerProd::new()),
        Box::new(IntPredict::new()),
        Box::new(Planckian::new()),
        Box::new(Tridiag::new()),
    ]
}

/// All ten kernels at reduced sizes suitable for unit tests.
pub fn all_kernels_small() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(BandedLinEq::small()),
        Box::new(DiffPredictor::small()),
        Box::new(Eos::small()),
        Box::new(GenLinRecur::small()),
        Box::new(Hydro1d::small()),
        Box::new(Iccg::small()),
        Box::new(InnerProd::small()),
        Box::new(IntPredict::small()),
        Box::new(Planckian::small()),
        Box::new(Tridiag::small()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table II of the paper: (name, TV, TC) for every kernel.
    const TABLE2: [(&str, usize, usize); 10] = [
        ("banded-lin-eq", 2, 1),
        ("diff-predictor", 5, 1),
        ("eos", 7, 2),
        ("gen-lin-recur", 4, 1),
        ("hydro-1d", 6, 2),
        ("iccg", 2, 1),
        ("innerprod", 3, 2),
        ("int-predict", 9, 2),
        ("planckian", 6, 2),
        ("tridiag", 3, 1),
    ];

    #[test]
    fn table2_kernel_inventory_matches_paper() {
        let kernels = all_kernels_small();
        assert_eq!(kernels.len(), 10);
        for (bench, (name, tv, tc)) in kernels.iter().zip(TABLE2) {
            assert_eq!(bench.name(), name);
            assert_eq!(bench.program().total_variables(), tv, "{name}: TV mismatch");
            assert_eq!(bench.program().total_clusters(), tc, "{name}: TC mismatch");
        }
    }

    #[test]
    fn every_kernel_is_a_kernel() {
        for bench in all_kernels_small() {
            assert_eq!(bench.kind(), mixp_core::BenchmarkKind::Kernel);
            assert!(!bench.description().is_empty());
        }
    }

    #[test]
    fn all_single_configs_validate_for_every_kernel() {
        for bench in all_kernels_small() {
            let cfg = bench.program().config_all_single();
            assert!(
                bench.program().validate(&cfg).is_ok(),
                "{} all-single must compile",
                bench.name()
            );
        }
    }
}
