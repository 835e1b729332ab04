//! Observability overhead bench: the `bench_evaluator_batch` eos workload
//! repeated with the three `Obs` states a campaign can run under — the
//! default noop handle, in-memory metrics+trace collection, and a JSONL
//! file sink. The acceptance bar is that `off-noop` stays within ~2% of
//! the obs-free `evaluator_batch` baseline (same frontier, same worker
//! count): a disabled tracer must be indistinguishable from no tracer.

use mixp_core::perf::bench::{black_box, BenchGroup};
use mixp_core::{Benchmark, EvaluatorBuilder, Obs, PrecisionConfig, QualityThreshold};
use mixp_harness::{benchmark_by_name, Scale};
use std::time::Duration;

const THRESHOLD: f64 = 1e-3;

/// The same CB-style candidate frontier `bench_evaluator_batch` submits:
/// every cluster lowered alone, plus every adjacent pair of clusters.
fn frontier(bench: &dyn Benchmark) -> Vec<PrecisionConfig> {
    let pm = bench.program();
    let clusters: Vec<_> = pm.clustering().ids().collect();
    let mut cfgs: Vec<PrecisionConfig> = clusters
        .iter()
        .map(|&c| pm.config_from_clusters([c]))
        .collect();
    for pair in clusters.windows(2) {
        cfgs.push(pm.config_from_clusters(pair.iter().copied()));
    }
    cfgs
}

fn run_frontier(bench: &dyn Benchmark, cfgs: &[PrecisionConfig], obs: &Obs) -> usize {
    // Fresh evaluator per iteration so the per-config memo never serves a
    // hit and every config really runs, exactly like the baseline bench.
    let mut ev = EvaluatorBuilder::new(QualityThreshold::new(THRESHOLD))
        .workers(4)
        .obs(obs.clone())
        .build(bench);
    ev.evaluate_batch(cfgs).iter().filter(|r| r.is_ok()).count()
}

fn main() {
    let trace_path =
        std::env::temp_dir().join(format!("mixp-bench-obs-{}.jsonl", std::process::id()));
    // Built once, outside the timed loop: iterations time the evaluator.
    let bench = benchmark_by_name("eos", Scale::Paper).unwrap();
    let bench = bench.as_ref();
    let cfgs = frontier(bench);
    let mut group = BenchGroup::new("obs_overhead");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    group.bench_function("eos/off-noop", |b| {
        let obs = Obs::noop();
        b.iter(|| black_box(run_frontier(bench, &cfgs, &obs)))
    });
    group.bench_function("eos/on-memory", |b| {
        let obs = Obs::in_memory();
        b.iter(|| black_box(run_frontier(bench, &cfgs, &obs)))
    });
    group.bench_function("eos/on-jsonl", |b| {
        let obs = Obs::builder()
            .trace_path(trace_path.clone())
            .build()
            .expect("temp trace file");
        b.iter(|| black_box(run_frontier(bench, &cfgs, &obs)))
    });
    group.finish();
    std::fs::remove_file(&trace_path).ok();
}
