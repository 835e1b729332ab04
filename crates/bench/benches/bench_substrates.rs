//! Ablation benches for the substrates DESIGN.md calls out: the cache
//! simulator, the cost model and the mp I/O runtime.

use mixp_core::float::MemoryTracer;
use mixp_core::perf::bench::{black_box, BenchGroup};
use mixp_core::perf::Hierarchy;
use mixp_core::runtime::{mp_fread, mp_fwrite};
use mixp_core::synth::SplitMix64;
use mixp_core::CacheParams;
use mixp_core::{CostModel, OpCounts, Precision};
use std::io::Cursor;
use std::time::Duration;

fn cache_sim() {
    let mut group = BenchGroup::new("substrate_cache_sim");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    // Sequential sweep: the best case for the line-granularity fast path.
    group.bench_function("sequential_64k", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(CacheParams::default());
            for i in 0..65_536u64 {
                h.access(i * 8, 8, i % 4 == 0);
            }
            black_box(h.stats().misses)
        })
    });
    // Random access: worst case for the replacement logic.
    group.bench_function("random_64k", |b| {
        b.iter(|| {
            let mut h = Hierarchy::new(CacheParams::default());
            let mut rng = SplitMix64::new(7);
            for _ in 0..65_536 {
                h.access(rng.next_u64() % (1 << 24), 8, false);
            }
            black_box(h.stats().misses)
        })
    });
    group.finish();
}

fn cost_model() {
    let mut group = BenchGroup::new("substrate_cost_model");
    let model = CostModel::default();
    let counts = OpCounts {
        flops_f32: 1_000,
        flops_f64: 2_000,
        heavy_f32: 50,
        heavy_f64: 70,
        casts: 300,
        loads_f32: 4_000,
        loads_f64: 4_000,
        stores_f32: 1_000,
        stores_f64: 1_000,
        ..OpCounts::default()
    };
    group.bench_function("cost", |b| b.iter(|| black_box(model.cost(&counts, None))));
    group.finish();
}

fn mp_io() {
    let mut group = BenchGroup::new("substrate_mp_io");
    let values: Vec<f64> = (0..16_384).map(|i| i as f64 * 0.5).collect();
    group.bench_function("round_trip", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(values.len() * 8);
            mp_fwrite(&mut buf, Precision::Single, &values).unwrap();
            let back = mp_fread(Cursor::new(&buf), Precision::Single, values.len()).unwrap();
            black_box(back.len())
        })
    });
    group.finish();
}

fn main() {
    cache_sim();
    cost_model();
    mp_io();
}
