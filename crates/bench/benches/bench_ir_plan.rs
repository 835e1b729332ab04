//! Plan-optimizer A/B bench: each IR-ported kernel run through its
//! unoptimized plan (`unoptimized`: serial bytecode for every sweep, loops
//! run pass by pass, no dot superinstruction) vs a run that compiles the
//! optimized plan, interprets it and drops it (`plan-cold`, the path every
//! evaluation takes), plus `compile_plan` alone (`compile`). Both timed
//! run arms compile their plan and simulate the cache hierarchy.
//!
//! `unoptimized` and `plan-cold` produce bit-identical outputs, op counts
//! and cache statistics (property-tested in
//! `tests/integration_properties.rs`); what differs is what the optimizer
//! buys: vectorized sweeps and closed-form accounting for hoisted loops.
//! The `compile` arm keeps the compile share of `plan-cold` visible.

use mixp_core::perf::bench::{black_box, BenchGroup};
use mixp_core::perf::Hierarchy;
use mixp_core::{
    compile_plan, compile_plan_unoptimized, run_config, run_plan, CacheParams, ExecCtx,
};
use mixp_harness::{benchmark_by_name, Scale};
use std::time::Duration;

fn main() {
    let mut group = BenchGroup::new("ir_plan");
    group
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
        .sample_size(10);
    let params = CacheParams::default();
    for name in ["eos", "hydro-1d", "iccg", "banded-lin-eq", "innerprod"] {
        let bench = benchmark_by_name(name, Scale::Paper).unwrap();
        assert!(
            bench.ir_program().is_some(),
            "{name} must be IR-ported for this bench"
        );
        // A mixed configuration (first cluster lowered) so the plan path
        // exercises real precision specialization, not the all-double
        // fast case.
        let pm = bench.program();
        let first = pm.clustering().ids().next().unwrap();
        let cfg = pm.config_from_clusters([first]);
        let prog = bench.ir_program().unwrap();
        group.bench_function(format!("{name}/unoptimized"), |b| {
            b.iter(|| {
                let plan = compile_plan_unoptimized(prog, &cfg);
                let mut h = Hierarchy::new(params);
                let out = run_plan(&plan, &mut ExecCtx::with_tracer(&cfg, &mut h));
                black_box((out, h.stats()))
            })
        });
        group.bench_function(format!("{name}/plan-cold"), |b| {
            b.iter(|| black_box(run_config(bench.as_ref(), &cfg, params)))
        });
        group.bench_function(format!("{name}/compile"), |b| {
            b.iter(|| black_box(compile_plan(prog, &cfg)))
        });
    }
    group.finish();
}
