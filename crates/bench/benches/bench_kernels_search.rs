//! Table III bench: a full search per (kernel, algorithm) cell at the
//! paper's kernel threshold.

use mixp_core::perf::bench::{black_box, BenchGroup};
use mixp_core::{Evaluator, QualityThreshold};
use mixp_harness::experiments::{kernel_names, TABLE3_ALGOS, TABLE3_THRESHOLD};
use mixp_harness::{benchmark_by_name, Scale};
use mixp_search::algorithm_by_name;
use std::time::Duration;

fn main() {
    let mut group = BenchGroup::new("table3_kernel_search");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    for kernel in kernel_names() {
        for algo_name in TABLE3_ALGOS {
            let algo = algorithm_by_name(algo_name).unwrap();
            group.bench_function(format!("{kernel}/{algo_name}"), |b| {
                b.iter(|| {
                    let bench = benchmark_by_name(kernel, Scale::Small).unwrap();
                    let mut ev =
                        Evaluator::new(bench.as_ref(), QualityThreshold::new(TABLE3_THRESHOLD));
                    black_box(algo.search(&mut ev).evaluated)
                })
            });
        }
    }
    group.finish();
}
