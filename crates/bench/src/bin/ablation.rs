//! Ablation study for the cost-model design choices DESIGN.md calls out.
//!
//! Re-prices the all-single speedup of selected benchmarks under variants
//! of the cost model, isolating which mechanism produces each paper shape:
//!
//! * `no-cache`   — memory priced flat (no cache simulation): LavaMD's and
//!   banded-lin-eq's outsized speedups collapse, demonstrating the paper's
//!   §V claim that the cache effect is invisible to models that ignore the
//!   memory system.
//! * `free-casts` — conversions cost nothing: Hotspot, eos and K-means
//!   regain the gains that untransformable literals eat.
//! * `fast-heavy` — f32 divides/transcendentals at half cost: the
//!   "compute-bound kernels don't speed up" shape disappears.

use mixp_bench::options_from_env;
use mixp_core::{run_config, CacheParams, CostModel};
use mixp_harness::benchmark_by_name;
use mixp_harness::report::render_table;

const TARGETS: [&str; 8] = [
    "banded-lin-eq",
    "eos",
    "planckian",
    "blackscholes",
    "hotspot",
    "hpccg",
    "kmeans",
    "lavamd",
];

fn main() {
    let opts = options_from_env();
    let default = CostModel::default();
    let free_casts = CostModel {
        cast: 0.0,
        ..default
    };
    let fast_heavy = CostModel {
        heavy_f32: default.heavy_f64 / 2.0,
        ..default
    };
    let variants: [(&str, CostModel, bool); 4] = [
        ("default", default, true),
        ("no-cache", default, false),
        ("free-casts", free_casts, true),
        ("fast-heavy", fast_heavy, true),
    ];

    let mut rows = Vec::new();
    for name in TARGETS {
        let bench = benchmark_by_name(name, opts.scale).expect("registry");
        let cache = CacheParams::default();
        let (_, rc, rs) = run_config(bench.as_ref(), &bench.program().config_all_double(), cache);
        let (_, sc, ss) = run_config(bench.as_ref(), &bench.program().config_all_single(), cache);
        let mut row = vec![name.to_string()];
        for (_, model, with_cache) in &variants {
            let speedup = if *with_cache {
                model.speedup((&rc, Some(&rs)), (&sc, Some(&ss)))
            } else {
                model.speedup((&rc, None), (&sc, None))
            };
            row.push(format!("{speedup:.2}"));
        }
        rows.push(row);
    }

    println!(
        "Ablation: all-single speedup under cost-model variants (scale {:?})\n",
        opts.scale
    );
    print!(
        "{}",
        render_table(
            &[
                "Benchmark",
                "default",
                "no-cache",
                "free-casts",
                "fast-heavy"
            ],
            &rows
        )
    );
    println!();
    println!("Reading guide: the cache simulator drives banded-lin-eq/lavamd;");
    println!("cast costs drive eos/kmeans/hotspot; heavy-op parity drives");
    println!("planckian/blackscholes/hpccg.");
}
