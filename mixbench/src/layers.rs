//! Per-layer measurements of a traced run: probes that time each layer's
//! public entry point on the workload's benchmarks, and metrics read off
//! the spans and counters the program already emits.

use crate::stats::{fnv1a, median, FNV_OFFSET};
use crate::Run;
use mixp_core::float::{MemoryTracer, StreamSpec};
use mixp_core::perf::Hierarchy;
use mixp_core::synth::SplitMix64;
use mixp_core::{
    compile_plan, run_plan, CacheParams, EvaluatorBuilder, ExecCtx, Granularity, Obs,
    PrecisionConfig, QualityThreshold, SearchSpace, Value,
};
use mixp_harness::{benchmark_by_name, summarize_trace, Scale};
use std::hint::black_box;
use std::time::Instant;

/// An in-memory, wall-clocked trace when `enabled`, else the noop handle.
pub fn trace_obs(enabled: bool) -> Obs {
    if enabled {
        Obs::builder()
            .memory(true)
            .wall_clock(true)
            .build()
            .expect("an in-memory trace sink cannot fail to open")
    } else {
        Obs::noop()
    }
}

/// Runs `f` inside a `name` span in `obs`; returns its result and its
/// wall time in seconds.
fn timed<T>(obs: &Obs, name: &'static str, benchmark: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = obs.span(name, &[("benchmark", Value::S(benchmark.to_string()))]);
    let started = Instant::now();
    let out = black_box(f());
    let took = started.elapsed().as_secs_f64();
    drop(span);
    (out, took)
}

/// Forwards to the cache simulator, counting the batched access groups
/// it receives.
struct CountingTracer<'a> {
    inner: &'a mut Hierarchy,
    groups: u64,
}

impl MemoryTracer for CountingTracer<'_> {
    fn access(&mut self, addr: u64, bytes: u8, write: bool) {
        self.inner.access(addr, bytes, write);
    }

    fn access_group(&mut self, streams: &[StreamSpec], count: usize) {
        self.groups += 1;
        self.inner.access_group(streams, count);
    }
}

/// Number of seeded cluster masks probed per benchmark, besides
/// all-double and all-single.
const PROBE_MASKS: usize = 4;

/// The probe configurations of one benchmark: all-double, all-single and
/// seeded cluster masks.
fn probe_configs(bench: &dyn mixp_core::Benchmark, seed: u64) -> Vec<PrecisionConfig> {
    let program = bench.program();
    let space = SearchSpace::new(program, Granularity::Clusters);
    let mut rng = SplitMix64::new(seed ^ fnv1a(FNV_OFFSET, bench.name().as_bytes()));
    let mut configs = vec![program.config_all_double(), program.config_all_single()];
    for _ in 0..PROBE_MASKS {
        let mask: Vec<bool> = (0..space.len()).map(|_| rng.next_range(2) == 1).collect();
        configs.push(space.config_from_mask(program, &mask));
    }
    configs
}

/// Times every layer's public call on each distinct benchmark under the
/// probe configurations, recording one span per call in `obs`. Each
/// metric is the sum over all (benchmark, configuration) probes:
///
/// * `apps.build_ms` — `benchmark_by_name`;
/// * `core.reference_ms` — `EvaluatorBuilder::build` (the all-double
///   reference run, fresh caches); `core.eval_ms` — `Evaluator::evaluate`;
/// * `apps.run_ms` — the hand-written `Benchmark::run`, no tracer;
/// * `ir.compile_us`, `ir.interp_ms` — `compile_plan` and untraced
///   `run_plan`, for benchmarks with an IR port;
/// * `perf.sim_ms` — the same run with the cache simulator attached minus
///   without it; `perf.accesses`, `perf.group_calls`,
///   `perf.l1_hit_ratio` from the simulator's statistics;
/// * `verify.compare_us` — `MetricKind::compare` against the reference.
pub fn probes(benchmarks: &[(String, Scale)], seed: u64, obs: &Obs, run: &mut Run) {
    let mut hierarchy = Hierarchy::new(CacheParams::default());
    let (mut build, mut reference, mut eval, mut hand) = (0.0, 0.0, 0.0, 0.0);
    let (mut compile, mut interp, mut sim, mut compare) = (0.0, 0.0, 0.0, 0.0);
    let (mut accesses, mut l1_hits, mut groups) = (0u64, 0u64, 0u64);
    for (name, scale) in benchmarks {
        let (bench, t) = timed(obs, "probe.build", name, || {
            benchmark_by_name(name, *scale).expect("workloads name registered benchmarks")
        });
        build += t;
        let bench = bench.as_ref();
        let (mut evaluator, t) = timed(obs, "probe.reference", name, || {
            EvaluatorBuilder::new(QualityThreshold::new(1e-3))
                .workers(1)
                .build(bench)
        });
        reference += t;
        let reference_output = evaluator.reference_output().to_vec();
        for cfg in probe_configs(bench, seed) {
            let (output, t) = timed(obs, "probe.run", name, || {
                bench.run(&mut ExecCtx::new(&cfg))
            });
            hand += t;
            let (plan, untraced) = match bench.ir_program() {
                Some(program) => {
                    let (plan, t) = timed(obs, "probe.compile_plan", name, || {
                        compile_plan(program, &cfg)
                    });
                    compile += t;
                    let (_, t) = timed(obs, "probe.run_plan", name, || {
                        run_plan(&plan, &mut ExecCtx::new(&cfg))
                    });
                    interp += t;
                    (Some(plan), t)
                }
                None => (None, t),
            };
            hierarchy.reset();
            let mut tracer = CountingTracer {
                inner: &mut hierarchy,
                groups: 0,
            };
            let (_, traced) = timed(obs, "probe.traced_run", name, || {
                let mut ctx = ExecCtx::with_tracer(&cfg, &mut tracer);
                match &plan {
                    Some(plan) => run_plan(plan, &mut ctx),
                    None => bench.run(&mut ctx),
                }
            });
            groups += tracer.groups;
            let stats = hierarchy.stats();
            accesses += stats.accesses;
            l1_hits += stats.l1_hits;
            sim += traced - untraced;
            let (_, t) = timed(obs, "probe.evaluate", name, || evaluator.evaluate(&cfg));
            eval += t;
            let (_, t) = timed(obs, "probe.compare", name, || {
                bench.metric().compare(&reference_output, &output)
            });
            compare += t;
        }
    }
    run.put("apps.build_ms", build * 1e3);
    run.put("core.reference_ms", reference * 1e3);
    run.put("core.eval_ms", eval * 1e3);
    run.put("apps.run_ms", hand * 1e3);
    run.put("ir.compile_us", compile * 1e6);
    run.put("ir.interp_ms", interp * 1e3);
    run.put("perf.sim_ms", sim * 1e3);
    run.put("perf.accesses", accesses as f64);
    run.put("perf.group_calls", groups as f64);
    run.put("perf.ns_per_access", sim * 1e9 / accesses.max(1) as f64);
    run.put("perf.l1_hit_ratio", l1_hits as f64 / accesses.max(1) as f64);
    run.put("verify.compare_us", compare * 1e6);
}

/// Scheduler, evaluator and pool metrics from a campaign trace: `job`,
/// `eval` and `eval.batch` spans and the `evaluator.*`/`pool.*` counters.
/// `evaluated` is the traced campaigns' total of evaluated
/// configurations.
pub fn obs_metrics(obs: &Obs, evaluated: f64, run: &mut Run) {
    let summary = summarize_trace(&obs.trace_lines().join("\n"));
    let span = |name: &str| {
        summary
            .spans
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.clone())
            .unwrap_or_default()
    };
    let (job, eval, batch) = (span("job"), span("eval"), span("eval.batch"));
    let job_ms: Vec<f64> = job.durations_us.iter().map(|us| us / 1e3).collect();
    run.put("harness.cell_p50_ms", median(&job_ms));
    run.put_tail("harness.cell_tail_ms", &job_ms);
    run.put(
        "harness.outside_eval_frac",
        1.0 - (eval.total_us + batch.total_us) / job.total_us,
    );
    run.put("core.batch_p50_us", median(&batch.durations_us));
    run.put_tail("core.batch_tail_us", &batch.durations_us);

    let snapshot = obs.metrics_snapshot().unwrap_or_default();
    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    run.put("core.fresh_runs", counter("evaluator.runs"));
    run.put("core.memo_hits", counter("evaluator.memo_hits"));
    run.put("core.shared_hits", counter("evaluator.shared_hits"));
    run.put("core.fresh_ratio", counter("evaluator.runs") / evaluated);
    let width = snapshot.histograms.get("evaluator.batch_width");
    run.put(
        "core.batch_width_mean",
        width.map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64),
    );
    run.put("pool.steals", counter("pool.steals"));
    run.put("pool.batches", counter("pool.batches"));
    run.put(
        "pool.peak_threads",
        snapshot
            .gauges
            .get("pool.peak_threads")
            .copied()
            .unwrap_or(0.0),
    );
}

/// Shared-cache hits over lookups.
pub fn hit_ratio(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}
