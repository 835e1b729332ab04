//! Evaluator fan-out bench: the same candidate frontier evaluated
//! sequentially (`workers = 1`) vs fanned out across 4 workers with
//! `evaluate_batch`. Guards the parallel-speedup acceptance bar (the
//! 4-worker batch should be at least ~2x faster than the sequential
//! loop); the committed baseline lives in `BENCH_evaluator.json`.
//!
//! Each benchmark and its frontier are built once, outside the timed
//! loop, so an iteration times the evaluator alone: a fresh evaluator
//! (empty configuration memo and stream memo) and its evaluations. The
//! kernels are IR-ported, so every evaluation compiles a
//! config-specialized execution plan, runs it and drops it; `hpccg` runs
//! hand-written code, where the stream memo skips the cache simulation of
//! every frontier run whose access stream an earlier run of the same
//! evaluator already simulated. The `sequential-1w` and `batch-4w` arms
//! share one `ReferenceCache` per benchmark across iterations, so they
//! time the frontier's evaluations alone. The `sequential-1w-cold` arm
//! builds its evaluator without one, so each iteration also pays the
//! all-double reference run, as every campaign cell does (`run_cell`
//! attaches no `ReferenceCache`); the spread between the two is the
//! reference cost. Neither shape is a search campaign's: campaigns share
//! neither benchmarks nor references between cells.

use mixp_core::perf::bench::{black_box, BenchGroup};
use mixp_core::{Benchmark, EvaluatorBuilder, PrecisionConfig, QualityThreshold, ReferenceCache};
use mixp_harness::{benchmark_by_name, Scale};
use std::sync::Arc;
use std::time::Duration;

const THRESHOLD: f64 = 1e-3;

/// The CB-style candidate frontier the searches actually submit: every
/// cluster lowered alone, plus every adjacent pair of clusters.
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

fn main() {
    let mut group = BenchGroup::new("evaluator_batch");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3))
        .sample_size(10);
    for name in ["eos", "hydro-1d", "iccg", "hpccg"] {
        let bench = benchmark_by_name(name, Scale::Paper).unwrap();
        let bench = bench.as_ref();
        let cfgs = frontier(bench);
        // One reference cache per benchmark: the reference is
        // benchmark-specific, so it may never be shared across programs.
        let reference = Arc::new(ReferenceCache::new());
        group.bench_function(format!("{name}/sequential-1w"), |b| {
            b.iter(|| {
                // Fresh evaluator per iteration so the per-config memo
                // never serves a hit and every config really runs.
                let mut ev = EvaluatorBuilder::new(QualityThreshold::new(THRESHOLD))
                    .workers(1)
                    .reference_cache(Arc::clone(&reference))
                    .build(bench);
                black_box(cfgs.iter().filter(|c| ev.evaluate(c).is_ok()).count())
            })
        });
        group.bench_function(format!("{name}/sequential-1w-cold"), |b| {
            b.iter(|| {
                // Default builder: no reference cache, so every
                // iteration runs the all-double reference again.
                let mut ev = EvaluatorBuilder::new(QualityThreshold::new(THRESHOLD))
                    .workers(1)
                    .build(bench);
                black_box(cfgs.iter().filter(|c| ev.evaluate(c).is_ok()).count())
            })
        });
        group.bench_function(format!("{name}/batch-4w"), |b| {
            b.iter(|| {
                let mut ev = EvaluatorBuilder::new(QualityThreshold::new(THRESHOLD))
                    .workers(4)
                    .reference_cache(Arc::clone(&reference))
                    .build(bench);
                black_box(
                    ev.evaluate_batch(&cfgs)
                        .iter()
                        .filter(|r| r.is_ok())
                        .count(),
                )
            })
        });
    }
    group.finish();
}
