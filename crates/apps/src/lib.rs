//! The 7 HPC proxy applications of HPC-MixPBench (§III-B).
//!
//! The paper selects applications from PARSEC and Rodinia plus HPCCG —
//! codes that perform floating-point computation and are representative of
//! large HPC applications — and merges each into a single source file for
//! automated analysis. This crate reimplements each application against the
//! mixed-precision program model:
//!
//! | Application    | Origin  | Output verified (metric) |
//! |----------------|---------|--------------------------|
//! | [`Blackscholes`] | PARSEC | option prices (MAE) |
//! | [`Cfd`]        | Rodinia | density, momentum, energy (MAE) |
//! | [`Hotspot`]    | Rodinia | final grid temperatures (MAE) |
//! | [`Hpccg`]      | Mantevo | solver residual history (MAE) |
//! | [`Kmeans`]     | Rodinia | cluster assignments (MCR) |
//! | [`LavaMd`]     | Rodinia | particle forces (MAE) |
//! | [`Srad`]       | Rodinia | corrected image (MAE) |
//!
//! Each application's program model matches the Total Variables / Total
//! Clusters of the paper's Table II, and inputs are synthetic but fixed
//! (loaded through the `mixp-runtime` mp I/O library, so the precision
//! conversion path of §III-A.a is exercised on every run).

mod blackscholes;
mod cfd;
mod common;
mod hotspot;
mod hpccg;
mod kmeans;
mod lavamd;
mod srad;

pub use blackscholes::Blackscholes;
pub use cfd::Cfd;
pub use hotspot::Hotspot;
pub use hpccg::Hpccg;
pub use kmeans::Kmeans;
pub use lavamd::LavaMd;
pub use srad::Srad;

use mixp_core::Benchmark;

/// All seven applications at their paper-scale sizes, in Table II order.
pub fn all_applications() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Blackscholes::new()),
        Box::new(Cfd::new()),
        Box::new(Hotspot::new()),
        Box::new(Hpccg::new()),
        Box::new(Kmeans::new()),
        Box::new(LavaMd::new()),
        Box::new(Srad::new()),
    ]
}

/// All seven applications at reduced sizes suitable for unit tests.
pub fn all_applications_small() -> Vec<Box<dyn Benchmark>> {
    vec![
        Box::new(Blackscholes::small()),
        Box::new(Cfd::small()),
        Box::new(Hotspot::small()),
        Box::new(Hpccg::small()),
        Box::new(Kmeans::small()),
        Box::new(LavaMd::small()),
        Box::new(Srad::small()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table II of the paper: (name, TV, TC) for every application.
    const TABLE2: [(&str, usize, usize); 7] = [
        ("blackscholes", 59, 50),
        ("cfd", 195, 25),
        ("hotspot", 36, 22),
        ("hpccg", 54, 27),
        ("kmeans", 26, 15),
        ("lavamd", 47, 11),
        ("srad", 29, 14),
    ];

    #[test]
    fn table2_application_inventory_matches_paper() {
        let apps = all_applications_small();
        assert_eq!(apps.len(), 7);
        for (bench, (name, tv, tc)) in apps.iter().zip(TABLE2) {
            assert_eq!(bench.name(), name);
            assert_eq!(bench.program().total_variables(), tv, "{name}: TV mismatch");
            assert_eq!(bench.program().total_clusters(), tc, "{name}: TC mismatch");
        }
    }

    #[test]
    fn every_application_is_an_application() {
        for bench in all_applications_small() {
            assert_eq!(bench.kind(), mixp_core::BenchmarkKind::Application);
            assert!(!bench.description().is_empty());
        }
    }

    #[test]
    fn all_single_configs_validate_for_every_application() {
        for bench in all_applications_small() {
            let cfg = bench.program().config_all_single();
            assert!(
                bench.program().validate(&cfg).is_ok(),
                "{} all-single must compile",
                bench.name()
            );
        }
    }
}
