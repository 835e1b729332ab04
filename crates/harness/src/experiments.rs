//! Data generators for every table and figure of the paper's evaluation.
//!
//! | Paper artefact | Generator |
//! |----------------|-----------|
//! | Table I (kernel inventory) | [`table1`] |
//! | Table II (TV/TC per benchmark) | [`table2`] |
//! | Table III (kernels × 6 algorithms at 1e-8) | [`table3`] |
//! | Table IV (single- vs double-precision per application) | [`table4`] |
//! | Table V (applications × 5 algorithms × 3 thresholds) | [`table5`] |
//! | Figures 2a/2b and 3 (DD vs GA series; speedup vs evaluated configs) | [`table5`]'s cells, as the `evalsuite` binary prints them |

use crate::job::Job;
use crate::registry::{benchmark_by_name, benchmark_names, Scale};
use crate::scheduler::{run_jobs, JobOutcome};
use mixp_core::{run_config, BenchmarkKind, CacheParams, CostModel};

/// The names of the 10 kernels, in Table I order.
pub fn kernel_names() -> Vec<&'static str> {
    benchmark_names()[..10].to_vec()
}

/// The names of the 7 applications, in Table II order.
pub fn application_names() -> Vec<&'static str> {
    benchmark_names()[10..].to_vec()
}

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Kernel name.
    pub name: String,
    /// Short description.
    pub description: String,
}

/// Regenerates Table I: the kernel inventory.
pub fn table1() -> Vec<Table1Row> {
    kernel_names()
        .into_iter()
        .map(|name| {
            let b = benchmark_by_name(name, Scale::Small).expect("registry covers kernels");
            Table1Row {
                name: b.name().to_string(),
                description: b.description().to_string(),
            }
        })
        .collect()
}

/// One row of Table II.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// Kernel or application.
    pub kind: BenchmarkKind,
    /// Total tunable variables.
    pub total_variables: usize,
    /// Total type-dependence clusters.
    pub total_clusters: usize,
}

/// Regenerates Table II: TV and TC for every benchmark.
pub fn table2() -> Vec<Table2Row> {
    benchmark_names()
        .into_iter()
        .map(|name| {
            let b = benchmark_by_name(name, Scale::Small).expect("registry covers all");
            Table2Row {
                name: b.name().to_string(),
                kind: b.kind(),
                total_variables: b.program().total_variables(),
                total_clusters: b.program().total_clusters(),
            }
        })
        .collect()
}

/// The paper's algorithm order for the kernel table.
pub const TABLE3_ALGOS: [&str; 6] = ["CB", "CM", "DD", "HR", "HC", "GA"];
/// The paper's algorithm order for the application table (CB is infeasible
/// on application-sized search spaces and is omitted, as in the paper).
pub const TABLE5_ALGOS: [&str; 5] = ["CM", "DD", "HR", "HC", "GA"];
/// The application-evaluation thresholds of Table V.
pub const TABLE5_THRESHOLDS: [f64; 3] = [1e-3, 1e-6, 1e-8];
/// The kernel-evaluation threshold of Table III.
pub const TABLE3_THRESHOLD: f64 = 1e-8;

/// Regenerates Table III: every kernel × all six algorithms at the 1e-8
/// threshold. Results are grouped per kernel, algorithms in
/// [`TABLE3_ALGOS`] order. Failed cells carry their typed error in the
/// outcome instead of aborting the table.
pub fn table3(scale: Scale, workers: usize) -> Vec<Vec<JobOutcome>> {
    let jobs: Vec<Job> = kernel_names()
        .iter()
        .flat_map(|k| {
            TABLE3_ALGOS
                .iter()
                .map(|a| Job::new(k, a, TABLE3_THRESHOLD, scale))
        })
        .collect();
    let results = run_jobs(&jobs, workers);
    results
        .chunks(TABLE3_ALGOS.len())
        .map(<[JobOutcome]>::to_vec)
        .collect()
}

/// One row of Table IV.
#[derive(Debug, Clone)]
pub struct Table4Row {
    /// Application name.
    pub name: String,
    /// Speedup of the all-single version over the original.
    pub speedup: f64,
    /// Quality metric name.
    pub metric: String,
    /// Quality loss of the all-single version (NaN when the output is
    /// destroyed, as for SRAD).
    pub quality_loss: f64,
}

/// Regenerates Table IV: manually converting each application entirely to
/// single precision and comparing execution cost and quality with the
/// original double-precision version.
pub fn table4(scale: Scale) -> Vec<Table4Row> {
    let model = CostModel::default();
    application_names()
        .into_iter()
        .map(|name| {
            let b = benchmark_by_name(name, scale).expect("registry covers apps");
            let cache = CacheParams::default();
            let reference = b.program().config_all_double();
            let (ref_out, ref_counts, ref_stats) = run_config(b.as_ref(), &reference, cache);
            let single = b.program().config_all_single();
            let (out, counts, stats) = run_config(b.as_ref(), &single, cache);
            Table4Row {
                name: b.name().to_string(),
                speedup: model.speedup((&ref_counts, Some(&ref_stats)), (&counts, Some(&stats))),
                metric: b.metric().name().to_string(),
                quality_loss: b.metric().compare(&ref_out, &out),
            }
        })
        .collect()
}

/// Regenerates Table V: every application × the five algorithms of
/// [`TABLE5_ALGOS`] at one threshold. Results are grouped per application;
/// failed cells carry their typed error in the outcome instead of
/// aborting the table.
pub fn table5(threshold: f64, scale: Scale, workers: usize) -> Vec<Vec<JobOutcome>> {
    let jobs: Vec<Job> = application_names()
        .iter()
        .flat_map(|b| {
            TABLE5_ALGOS
                .iter()
                .map(|a| Job::new(b, a, threshold, scale))
        })
        .collect();
    let results = run_jobs(&jobs, workers);
    results
        .chunks(TABLE5_ALGOS.len())
        .map(<[JobOutcome]>::to_vec)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_lists_ten_kernels() {
        let rows = table1();
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].name, "banded-lin-eq");
        assert!(rows.iter().all(|r| !r.description.is_empty()));
    }

    #[test]
    fn table2_matches_paper_counts() {
        let rows = table2();
        assert_eq!(rows.len(), 17);
        let cfd = rows.iter().find(|r| r.name == "cfd").unwrap();
        assert_eq!((cfd.total_variables, cfd.total_clusters), (195, 25));
        let bs = rows.iter().find(|r| r.name == "blackscholes").unwrap();
        assert_eq!((bs.total_variables, bs.total_clusters), (59, 50));
    }

    #[test]
    fn table4_small_scale_has_all_apps() {
        let rows = table4(Scale::Small);
        assert_eq!(rows.len(), 7);
        let srad = rows.iter().find(|r| r.name == "srad").unwrap();
        assert!(srad.quality_loss.is_nan(), "SRAD single must be destroyed");
        let kmeans = rows.iter().find(|r| r.name == "kmeans").unwrap();
        assert_eq!(kmeans.metric, "MCR");
        assert_eq!(kmeans.quality_loss, 0.0);
    }

    #[test]
    fn table3_shape() {
        // Only two kernels' worth of compute in unit tests: run the full
        // grid at small scale but with one worker to keep it predictable.
        let rows = table3(Scale::Small, 4);
        assert_eq!(rows.len(), 10);
        for row in &rows {
            assert_eq!(row.len(), 6);
            // CB at kernel scale always terminates.
            let cb = row[0].result().expect("kernel cells succeed");
            assert!(!cb.result.dnf, "{}", cb.benchmark);
        }
    }
}
