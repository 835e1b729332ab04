//! Generative property tests: random synthetic tunable programs are thrown
//! at every search algorithm, and the core invariants must hold for all of
//! them — not just for the 17 shipped benchmarks.

use mixp_core::prop::{bools, u64s, usizes, vecs};
use mixp_core::synth::SplitMix64;
use mixp_core::{
    prop_assert, prop_assert_eq, prop_check, Benchmark, BenchmarkKind, Evaluator, EvaluatorBuilder,
    ExecCtx, MetricKind, PrecisionConfig, ProgramBuilder, ProgramModel, QualityThreshold, VarId,
};
use mixp_float::{MpScalar, MpVec};
use mixp_search::all_algorithms;

/// A randomly-shaped but deterministic benchmark: `nvars` variables split
/// over two functions, random dependence edges, and a computation in which
/// every variable participates (arrays via element updates, scalars as
/// coefficients).
#[derive(Debug)]
struct RandomBench {
    program: ProgramModel,
    arrays: Vec<VarId>,
    scalars: Vec<VarId>,
    n: usize,
    seed: u64,
}

impl RandomBench {
    fn new(nvars: usize, edges: &[(usize, usize)], seed: u64) -> Self {
        let mut b = ProgramBuilder::new("random-bench");
        let m = b.module("random.c");
        let f1 = b.function("phase1", m);
        let f2 = b.function("phase2", m);
        let mut arrays = Vec::new();
        let mut scalars = Vec::new();
        let mut ids = Vec::new();
        for i in 0..nvars {
            let f = if i % 2 == 0 { f1 } else { f2 };
            let id = if i % 3 == 0 {
                let id = b.array(f, &format!("arr{i}"));
                arrays.push(id);
                id
            } else {
                let id = b.scalar(f, &format!("s{i}"));
                scalars.push(id);
                id
            };
            ids.push(id);
        }
        if arrays.is_empty() {
            let id = b.array(f1, "arr_last");
            arrays.push(id);
            ids.push(id);
        }
        for &(a, e) in edges {
            b.bind(ids[a % ids.len()], ids[e % ids.len()]);
        }
        let program = b.build();
        RandomBench {
            program,
            arrays,
            scalars,
            n: 48,
            seed,
        }
    }
}

impl Benchmark for RandomBench {
    fn name(&self) -> &str {
        "random-bench"
    }
    fn description(&self) -> &str {
        "generated property-test program"
    }
    fn kind(&self) -> BenchmarkKind {
        BenchmarkKind::Kernel
    }
    fn program(&self) -> &ProgramModel {
        &self.program
    }
    fn metric(&self) -> MetricKind {
        MetricKind::Rmse
    }
    fn run(&self, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
        let mut rng = SplitMix64::new(self.seed);
        let scalars: Vec<MpScalar> = self
            .scalars
            .iter()
            .map(|&v| MpScalar::new(ctx, v, rng.uniform(0.01, 0.2)))
            .collect();
        let mut arrays: Vec<MpVec> = self
            .arrays
            .iter()
            .map(|&v| {
                let init: Vec<f64> = (0..self.n).map(|_| rng.uniform(0.01, 0.11)).collect();
                MpVec::from_values(ctx, v, &init)
            })
            .collect();
        // Every array is updated from its predecessor with every scalar
        // contributing as a coefficient somewhere.
        for pass in 0..2 {
            for ai in 0..arrays.len() {
                let src = if ai == 0 { arrays.len() - 1 } else { ai - 1 };
                for i in 1..self.n {
                    let coeff = if scalars.is_empty() {
                        0.125
                    } else {
                        scalars[(ai + i + pass) % scalars.len()].get()
                    };
                    let v = arrays[src].get(ctx, i - 1) * coeff + arrays[ai].get(ctx, i) * 0.5;
                    let srcs: Vec<VarId> = if scalars.is_empty() {
                        vec![self.arrays[src]]
                    } else {
                        vec![
                            self.arrays[src],
                            self.scalars[(ai + i + pass) % self.scalars.len()],
                        ]
                    };
                    ctx.flop(self.arrays[ai], &srcs, 3);
                    arrays[ai].set(ctx, i, v);
                }
            }
        }
        arrays.iter().flat_map(MpVec::snapshot).collect()
    }
}

/// On arbitrary programs, every algorithm terminates, and whatever it
/// reports as best (a) compiles, (b) is not the identity, (c) meets the
/// threshold, and (d) reproduces its metrics when re-evaluated.
#[test]
fn all_algorithms_uphold_invariants_on_random_programs() {
    prop_check!((
        nvars in usizes(2..9),
        edges in vecs((usizes(0..9), usizes(0..9)), 0..6),
        seed in u64s(0..1000),
    ) => {
        let bench = RandomBench::new(nvars, &edges, seed);
        let threshold = 1e-5;
        for algo in all_algorithms() {
            let mut ev = Evaluator::new(&bench, QualityThreshold::new(threshold));
            let result = algo.search(&mut ev);
            prop_assert!(!result.dnf, "{} must terminate", algo.name());
            if let Some(best) = &result.best {
                prop_assert!(best.compiled, "{}: best must compile", algo.name());
                prop_assert!(
                    bench.program.validate(&best.config).is_ok(),
                    "{}: best must validate",
                    algo.name()
                );
                prop_assert!(!best.config.is_all_double());
                prop_assert!(best.quality <= threshold);
                let mut ev2 = Evaluator::new(&bench, QualityThreshold::new(threshold));
                let re = ev2.evaluate(&best.config).unwrap();
                prop_assert_eq!(re.quality, best.quality);
                prop_assert_eq!(re.speedup, best.speedup);
            }
        }
    });
}

/// Cluster counts never exceed variable counts, and expanding any
/// cluster subset of a random program yields a valid configuration.
#[test]
fn random_programs_have_sound_clusterings() {
    prop_check!((
        nvars in usizes(2..12),
        edges in vecs((usizes(0..12), usizes(0..12)), 0..10),
        mask in vecs(bools(), 12..13),
    ) => {
        let bench = RandomBench::new(nvars, &edges, 7);
        let pm = bench.program();
        prop_assert!(pm.total_clusters() <= pm.total_variables());
        prop_assert!(pm.total_clusters() >= 1);
        let lowered: Vec<_> = pm
            .clustering()
            .ids()
            .filter(|c| mask[c.index() % mask.len()])
            .collect();
        let cfg = pm.config_from_clusters(lowered);
        prop_assert!(pm.validate(&cfg).is_ok());
    });
}

/// Batch evaluation is bit-identical to the sequential path for *any*
/// worker count, batch shape, and budget: same per-configuration records
/// (including duplicates and non-compiling cluster-splitting configs), same
/// budget accounting, same stop reason, same best configuration. This is
/// the submission-order determinism contract of `evaluate_batch`.
#[test]
fn evaluate_batch_is_bit_identical_to_sequential() {
    prop_check!((
        nvars in usizes(2..9),
        edges in vecs((usizes(0..9), usizes(0..9)), 0..6),
        mix in u64s(0..55_000),
        masks in vecs(usizes(0..64), 1..10),
    ) => {
        // One u64 packs the remaining dimensions (the prop harness caps
        // tuple arity at 4): benchmark seed, worker count, and budget.
        let seed = mix % 1000;
        let workers = 2 + ((mix / 1000) % 5) as usize;
        let budget = 1 + ((mix / 5000) % 11) as usize;
        let bench = RandomBench::new(nvars, &edges, seed);
        let pm = bench.program().clone();
        // Random variable subsets: some split clusters (don't compile),
        // some repeat — both must behave identically in either path.
        let cfgs: Vec<PrecisionConfig> = masks
            .iter()
            .map(|&mask| {
                let lowered = pm
                    .tunable_vars()
                    .into_iter()
                    .filter(|v| (mask >> (v.index() % 6)) & 1 == 1);
                PrecisionConfig::from_lowered(pm.var_count(), lowered)
            })
            .collect();

        let mut seq = EvaluatorBuilder::new(QualityThreshold::new(1e-5))
            .budget(budget)
            .workers(1)
            .build(&bench);
        let seq_results: Vec<_> = cfgs.iter().map(|c| seq.evaluate(c)).collect();

        let mut batch = EvaluatorBuilder::new(QualityThreshold::new(1e-5))
            .budget(budget)
            .workers(workers)
            .build(&bench);
        let batch_results = batch.evaluate_batch(&cfgs);

        prop_assert_eq!(seq_results.len(), batch_results.len());
        for (s, b) in seq_results.iter().zip(&batch_results) {
            match (s, b) {
                (Ok(sr), Ok(br)) => {
                    prop_assert_eq!(sr.compiled, br.compiled);
                    prop_assert_eq!(sr.passes, br.passes);
                    prop_assert_eq!(sr.quality.to_bits(), br.quality.to_bits());
                    prop_assert_eq!(sr.speedup.to_bits(), br.speedup.to_bits());
                    prop_assert_eq!(sr.config.key(), br.config.key());
                }
                (Err(se), Err(be)) => prop_assert_eq!(se, be),
                other => prop_assert!(false, "paths diverge: {:?}", other),
            }
        }
        prop_assert_eq!(seq.evaluated(), batch.evaluated());
        prop_assert_eq!(seq.stop_reason(), batch.stop_reason());
        match (seq.best(), batch.best()) {
            (None, None) => {}
            (Some(sb), Some(bb)) => {
                prop_assert_eq!(sb.config.key(), bb.config.key());
                prop_assert_eq!(sb.speedup.to_bits(), bb.speedup.to_bits());
            }
            other => prop_assert!(false, "best diverges: {:?}", other),
        }
    });
}

/// Every shipped benchmark must produce bit-identical output values and op
/// counts with and without a tracer attached, for arbitrary precision
/// configurations: the untraced fast paths introduced by the bulk `MpVec`
/// layer can never drift from the traced reference loops. (The traced
/// access *streams* themselves are pinned separately: each bulk primitive
/// is checked against its canonical element-wise loop in `mixp_float`'s
/// unit tests, and the benchmarks' cache-fed speedup assertions would move
/// if a stream changed.)
#[test]
fn traced_and_untraced_benchmark_runs_are_bit_identical() {
    struct Fingerprint {
        hash: u64,
        accesses: u64,
    }
    impl mixp_float::MemoryTracer for Fingerprint {
        fn access(&mut self, addr: u64, bytes: u8, write: bool) {
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3)
                ^ addr
                ^ (u64::from(bytes) << 48)
                ^ (u64::from(write) << 63);
            self.accesses += 1;
        }
    }
    prop_check!((pick in usizes(0..17), seed in u64s(0..1_000_000)) => {
        let bench: Box<dyn Benchmark> = {
            let mut all = mixp_kernels::all_kernels_small();
            all.extend(mixp_apps::all_applications_small());
            all.swap_remove(pick % all.len())
        };
        let pm = bench.program();
        let mut cfg = pm.config_all_double();
        let mut rng = SplitMix64::new(seed.wrapping_mul(2).wrapping_add(1));
        for v in pm.tunable_vars() {
            match rng.next_range(4) {
                0 | 1 => {}
                2 => cfg.set(v, mixp_float::Precision::Single),
                _ => cfg.set(v, mixp_float::Precision::Half),
            }
        }

        let mut tracer = Fingerprint { hash: 0xcbf2_9ce4_8422_2325, accesses: 0 };
        let (traced_out, traced_counts) = {
            let mut ctx = ExecCtx::with_tracer(&cfg, &mut tracer);
            let out = bench.run(&mut ctx);
            (out, ctx.counts())
        };
        let (plain_out, plain_counts) = {
            let mut ctx = ExecCtx::new(&cfg);
            let out = bench.run(&mut ctx);
            (out, ctx.counts())
        };

        prop_assert_eq!(traced_out.len(), plain_out.len());
        for (t, p) in traced_out.iter().zip(&plain_out) {
            prop_assert_eq!(t.to_bits(), p.to_bits(), "{} values diverge", bench.name());
        }
        prop_assert_eq!(traced_counts, plain_counts, "{} counts diverge", bench.name());
        prop_assert!(
            tracer.accesses >= traced_counts.total_mem_ops(),
            "{}: tracer saw fewer accesses than were counted",
            bench.name()
        );
    });
}

/// The cache simulators' grouped fast paths must be *bit-identical* to the
/// default element-wise replay on the real access streams of every shipped
/// benchmark, under arbitrary precision configurations. `ScalarReplay`
/// forwards only `access`, so the wrapped simulator is driven through
/// `MemoryTracer::access_group`'s default per-element loop — the legacy
/// path — while the bare simulator takes the memoized group path.
#[test]
fn traced_group_is_bit_identical_to_elementwise() {
    use mixp_core::perf::{CacheParams, CacheSim, Hierarchy};

    struct ScalarReplay<T>(T);
    impl<T: mixp_float::MemoryTracer> mixp_float::MemoryTracer for ScalarReplay<T> {
        fn access(&mut self, addr: u64, bytes: u8, write: bool) {
            self.0.access(addr, bytes, write);
        }
    }

    prop_check!((pick in usizes(0..17), seed in u64s(0..1_000_000), two_level in bools()) => {
        let bench: Box<dyn Benchmark> = {
            let mut all = mixp_kernels::all_kernels_small();
            all.extend(mixp_apps::all_applications_small());
            all.swap_remove(pick % all.len())
        };
        let pm = bench.program();
        let mut cfg = pm.config_all_double();
        let mut rng = SplitMix64::new(seed.wrapping_mul(2).wrapping_add(1));
        for v in pm.tunable_vars() {
            match rng.next_range(4) {
                0 | 1 => {}
                2 => cfg.set(v, mixp_float::Precision::Single),
                _ => cfg.set(v, mixp_float::Precision::Half),
            }
        }

        let params = CacheParams::default();
        if two_level {
            let mut fast = Hierarchy::new(params);
            {
                let mut ctx = ExecCtx::with_tracer(&cfg, &mut fast);
                bench.run(&mut ctx);
            }
            let mut slow = ScalarReplay(Hierarchy::new(params));
            {
                let mut ctx = ExecCtx::with_tracer(&cfg, &mut slow);
                bench.run(&mut ctx);
            }
            prop_assert_eq!(
                fast.stats(),
                slow.0.stats(),
                "{}: hierarchy stats diverge between group and element-wise paths",
                bench.name()
            );
        } else {
            let mut fast = CacheSim::new(params.l1);
            {
                let mut ctx = ExecCtx::with_tracer(&cfg, &mut fast);
                bench.run(&mut ctx);
            }
            let mut slow = ScalarReplay(CacheSim::new(params.l1));
            {
                let mut ctx = ExecCtx::with_tracer(&cfg, &mut slow);
                bench.run(&mut ctx);
            }
            prop_assert_eq!(
                (fast.hits(), fast.misses(), fast.writebacks()),
                (slow.0.hits(), slow.0.misses(), slow.0.writebacks()),
                "{}: L1 stats diverge between group and element-wise paths",
                bench.name()
            );
        }
    });
}

/// Observability is strictly passive: an arbitrary campaign (random
/// benchmark subset, algorithm rotation, worker count) produces
/// bit-identical outcomes — qualities, speedups, evaluation counts, cache
/// statistics, failure codes — whether it runs under the default noop
/// handle or with full in-memory tracing and metrics enabled. This is the
/// contract that lets `--trace`/`--metrics` be switched on in production
/// campaigns without invalidating any reported number.
#[test]
fn obs_noop_is_bit_identical() {
    use mixp_core::Obs;
    use mixp_harness::{run_campaign_with_stats, CampaignOptions, Job, Scale};
    let names = mixp_harness::benchmark_names();
    let algos = ["CB", "CB3", "CM", "DD", "DDV", "GA", "HC", "HR", "HR+"];
    prop_check!((
        picks in vecs(usizes(0..17), 1..4),
        algo_pick in usizes(0..9),
        workers in usizes(1..4),
    ) => {
        let jobs: Vec<Job> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                Job::new(
                    names[p % names.len()],
                    algos[(algo_pick + i) % algos.len()],
                    1e-3,
                    Scale::Small,
                )
            })
            .collect();
        let opts = |obs: Obs| CampaignOptions {
            workers,
            obs,
            ..CampaignOptions::default()
        };
        let (plain, plain_stats) = run_campaign_with_stats(&jobs, &opts(Obs::noop()));
        let obs = Obs::in_memory();
        let (traced, traced_stats) = run_campaign_with_stats(&jobs, &opts(obs.clone()));

        prop_assert!(
            !obs.trace_lines().is_empty(),
            "the traced run must actually record something"
        );
        // Total lookups are deterministic (each job's search path depends
        // only on evaluation results, which are bit-identical), but the
        // hit/miss *split* is not: two workers evaluating the same config
        // concurrently race the lookup→insert window and may both miss.
        // Sharing is documented as a pure wall-clock optimisation, so only
        // the total is part of the contract.
        prop_assert_eq!(
            plain_stats.shared_cache_hits + plain_stats.shared_cache_misses,
            traced_stats.shared_cache_hits + traced_stats.shared_cache_misses
        );
        prop_assert_eq!(plain.len(), traced.len());
        for (p, t) in plain.iter().zip(&traced) {
            prop_assert_eq!(p.attempts, t.attempts);
            match (&p.outcome, &t.outcome) {
                (Ok(pr), Ok(tr)) => {
                    prop_assert_eq!(pr.result.evaluated, tr.result.evaluated);
                    prop_assert_eq!(pr.result.dnf, tr.result.dnf);
                    match (&pr.result.best, &tr.result.best) {
                        (None, None) => {}
                        (Some(pb), Some(tb)) => {
                            prop_assert_eq!(pb.config.key(), tb.config.key());
                            prop_assert_eq!(pb.quality.to_bits(), tb.quality.to_bits());
                            prop_assert_eq!(pb.speedup.to_bits(), tb.speedup.to_bits());
                        }
                        other => prop_assert!(false, "best diverges: {:?}", other),
                    }
                }
                (Err(pe), Err(te)) => prop_assert_eq!(pe, te),
                other => prop_assert!(false, "outcomes diverge: {:?}", other),
            }
        }
    });
}

/// One case of the optimizer's bit-identity contract: for `bench` under a
/// mixed-precision configuration drawn from `seed`, the optimized plan
/// (vectorized sweeps, hoisted loops, dot superinstruction) is
/// bit-identical to the unoptimized plan of the same program, the literal
/// loop-by-loop lowering that replaced the hand-written `run` as the
/// oracle: same output bits, same operation counts, same cache statistics.
/// The traced arm runs the full `run_config` pipeline against the
/// unoptimized plan traced through a fresh `Hierarchy`; the untraced arm
/// runs bare contexts around both plans.
fn plan_matches_unoptimized(bench: &dyn Benchmark, seed: u64, traced: bool) -> Result<(), String> {
    use mixp_core::perf::{CacheParams, Hierarchy};
    use mixp_core::{compile_plan, compile_plan_unoptimized, run_config, run_plan};

    let prog = bench
        .ir_program()
        .expect("the ten kernels and hotspot are IR-ported");
    let pm = bench.program();
    let mut cfg = pm.config_all_double();
    let mut rng = SplitMix64::new(seed.wrapping_mul(2).wrapping_add(1));
    for v in pm.tunable_vars() {
        match rng.next_range(4) {
            0 | 1 => {}
            2 => cfg.set(v, mixp_float::Precision::Single),
            _ => cfg.set(v, mixp_float::Precision::Half),
        }
    }

    let oracle = compile_plan_unoptimized(prog, &cfg);
    let (u_out, u_counts, p_out, p_counts) = if traced {
        let params = CacheParams::default();
        let mut h = Hierarchy::new(params);
        let (u_out, u_counts) = {
            let mut ctx = ExecCtx::with_tracer(&cfg, &mut h);
            (run_plan(&oracle, &mut ctx), ctx.counts())
        };
        let (p_out, p_counts, p_stats) = run_config(bench, &cfg, params);
        prop_assert_eq!(h.stats(), p_stats, "{} cache stats diverge", bench.name());
        (u_out, u_counts, p_out, p_counts)
    } else {
        let plan = compile_plan(prog, &cfg);
        let (u_out, u_counts) = {
            let mut ctx = ExecCtx::new(&cfg);
            (run_plan(&oracle, &mut ctx), ctx.counts())
        };
        let (p_out, p_counts) = {
            let mut ctx = ExecCtx::new(&cfg);
            (run_plan(&plan, &mut ctx), ctx.counts())
        };
        (u_out, u_counts, p_out, p_counts)
    };
    prop_assert_eq!(u_out.len(), p_out.len());
    for (u, p) in u_out.iter().zip(&p_out) {
        prop_assert_eq!(u.to_bits(), p.to_bits(), "{} outputs diverge", bench.name());
    }
    prop_assert_eq!(u_counts, p_counts, "{} op counts diverge", bench.name());
    Ok(())
}

/// Every IR-ported kernel's optimized plan is bit-identical to the
/// unoptimized plan that stands in for its deleted hand-written `run`,
/// for arbitrary mixed-precision configurations, on both the traced and
/// untraced arms (see `plan_matches_unoptimized`).
#[test]
fn ir_plans_are_bit_identical_to_handwritten_kernels() {
    prop_check!((pick in usizes(0..10), seed in u64s(0..1_000_000), traced in bools()) => {
        let bench: Box<dyn Benchmark> = {
            let mut all = mixp_kernels::all_kernels_small();
            all.swap_remove(pick % all.len())
        };
        plan_matches_unoptimized(bench.as_ref(), seed, traced)?;
    });
}

/// Hotspot satisfies the same contract as the 10 kernels: its optimized
/// stencil plan — per-iteration charges, three row segments with boundary
/// streams, the `tc`/`delta` scratch-scalar roundings (`LetScal`), and the
/// grid ping-pong — reproduces the unoptimized plan that stands in for its
/// deleted hand-written `run`, for arbitrary mixed configurations, on both
/// the traced and untraced arms.
#[test]
fn ir_plan_is_bit_identical_to_handwritten_hotspot() {
    prop_check!((seed in u64s(0..1_000_000), traced in bools()) => {
        plan_matches_unoptimized(&mixp_apps::Hotspot::small(), seed, traced)?;
    });
}

/// The evaluator's plan path (a plan compiled per run, any worker count,
/// batch or sequential submission) reports the same records as an evaluator
/// forced onto each kernel's unoptimized plan — including non-compiling
/// cluster-splitting configurations and the all-double reference run.
#[test]
fn evaluator_plan_path_matches_direct_for_kernels() {
    /// Forwards a benchmark but hides its IR port, pinning the evaluator
    /// to a `run` that interprets the unoptimized plan.
    struct DirectOnly<'a>(&'a dyn Benchmark);
    impl Benchmark for DirectOnly<'_> {
        fn name(&self) -> &str {
            self.0.name()
        }
        fn description(&self) -> &str {
            self.0.description()
        }
        fn kind(&self) -> BenchmarkKind {
            self.0.kind()
        }
        fn program(&self) -> &ProgramModel {
            self.0.program()
        }
        fn metric(&self) -> MetricKind {
            self.0.metric()
        }
        fn run(&self, ctx: &mut ExecCtx<'_>) -> Vec<f64> {
            let prog = self.0.ir_program().expect("every kernel is IR-ported");
            let plan = mixp_core::compile_plan_unoptimized(prog, ctx.config());
            mixp_core::run_plan(&plan, ctx)
        }
    }

    prop_check!((
        pick in usizes(0..10),
        mix in u64s(0..8_000),
        masks in vecs(usizes(0..64), 1..6),
    ) => {
        let workers = 1 + (mix % 4) as usize;
        let bench: Box<dyn Benchmark> = {
            let mut all = mixp_kernels::all_kernels_small();
            all.swap_remove(pick % all.len())
        };
        let pm = bench.program().clone();
        // Alternate single-lowered variable subsets (some split clusters
        // and must not compile) with random three-way precision draws.
        let cfgs: Vec<PrecisionConfig> = masks
            .iter()
            .enumerate()
            .map(|(i, &mask)| {
                if i % 2 == 0 {
                    let lowered = pm
                        .tunable_vars()
                        .into_iter()
                        .filter(|v| (mask >> (v.index() % 6)) & 1 == 1);
                    PrecisionConfig::from_lowered(pm.var_count(), lowered)
                } else {
                    let mut cfg = pm.config_all_double();
                    let mut rng = SplitMix64::new(mask as u64 ^ (mix << 8));
                    for v in pm.tunable_vars() {
                        match rng.next_range(4) {
                            0 | 1 => {}
                            2 => cfg.set(v, mixp_float::Precision::Single),
                            _ => cfg.set(v, mixp_float::Precision::Half),
                        }
                    }
                    cfg
                }
            })
            .collect();

        let direct_bench = DirectOnly(bench.as_ref());
        let mut direct = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .workers(workers)
            .build(&direct_bench);
        let direct_results = direct.evaluate_batch(&cfgs);

        let mut planned = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
            .workers(workers)
            .build(bench.as_ref());
        let planned_results = planned.evaluate_batch(&cfgs);

        prop_assert_eq!(direct_results.len(), planned_results.len());
        for (d, p) in direct_results.iter().zip(&planned_results) {
            match (d, p) {
                (Ok(dr), Ok(pr)) => {
                    prop_assert_eq!(dr.compiled, pr.compiled);
                    prop_assert_eq!(dr.passes, pr.passes);
                    prop_assert_eq!(dr.quality.to_bits(), pr.quality.to_bits());
                    prop_assert_eq!(dr.speedup.to_bits(), pr.speedup.to_bits());
                }
                (Err(de), Err(pe)) => prop_assert_eq!(de, pe),
                other => prop_assert!(false, "paths diverge: {:?}", other),
            }
        }
    });
}

/// The evaluator's speedup and quality are invariant under evaluation
/// order (no hidden state leaks between evaluations).
#[test]
fn evaluation_order_does_not_matter() {
    prop_check!((seed in u64s(0..500)) => {
        let bench = RandomBench::new(6, &[(0, 1), (2, 3)], seed);
        let pm = bench.program();
        let clusters: Vec<_> = pm.clustering().ids().collect();
        let cfg_a = pm.config_from_clusters([clusters[0]]);
        let cfg_b = pm.config_from_clusters(clusters.iter().copied());
        let mut ev1 = Evaluator::new(&bench, QualityThreshold::new(1e-3));
        let a1 = ev1.evaluate(&cfg_a).unwrap();
        let b1 = ev1.evaluate(&cfg_b).unwrap();
        let mut ev2 = Evaluator::new(&bench, QualityThreshold::new(1e-3));
        let b2 = ev2.evaluate(&cfg_b).unwrap();
        let a2 = ev2.evaluate(&cfg_a).unwrap();
        prop_assert_eq!(a1.quality, a2.quality);
        prop_assert_eq!(b1.quality, b2.quality);
        prop_assert_eq!(a1.speedup, a2.speedup);
        prop_assert_eq!(b1.speedup, b2.speedup);
    });
}

/// The evaluator's stream memo changes no reported number. For every
/// small-scale benchmark, one long-lived evaluator scores a run of random
/// cluster-legal configurations (sequentially, then the rest as one
/// batch) bit-identically to memo-free `run_config` runs scored against
/// the same reference; and every run is accounted to exactly one of a
/// simulation or a memo hit.
#[test]
fn stream_memo_is_bit_identical_to_run_config() {
    use mixp_core::perf::{CacheParams, CostModel};
    use mixp_core::{run_config, Granularity, Obs, SearchSpace};

    let benches: Vec<Box<dyn Benchmark>> = {
        let mut all = mixp_kernels::all_kernels_small();
        all.extend(mixp_apps::all_applications_small());
        all
    };
    assert_eq!(benches.len(), 17);
    let params = CacheParams::default();
    let model = CostModel::default();
    prop_check!(cases = 8, (seed in u64s(0..1_000_000), workers in usizes(1..3)) => {
        for (b, bench) in benches.iter().enumerate() {
            let pm = bench.program();
            let space = SearchSpace::new(pm, Granularity::Clusters);
            let mut rng = SplitMix64::new(seed ^ (b as u64) << 32);
            let cfgs: Vec<PrecisionConfig> = (0..10)
                .map(|_| {
                    let mask: Vec<bool> = (0..space.len()).map(|_| rng.next_range(2) == 0).collect();
                    space.config_from_mask(pm, &mask)
                })
                .collect();

            let obs = Obs::in_memory();
            let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
                .workers(workers)
                .obs(obs.clone())
                .build(bench.as_ref());
            let (half, rest) = cfgs.split_at(cfgs.len() / 2);
            let mut records: Vec<_> = half.iter().map(|c| ev.evaluate(c)).collect();
            records.extend(ev.evaluate_batch(rest));

            let (ref_out, ref_counts, ref_stats) = run_config(bench.as_ref(), &pm.config_all_double(), params);
            prop_assert!(
                ref_out.iter().map(|v| v.to_bits()).eq(ev.reference_output().iter().map(|v| v.to_bits())),
                "{}: reference outputs diverge", bench.name()
            );
            let ref_cost = model.cost(&ref_counts, Some(&ref_stats));
            for (cfg, rec) in cfgs.iter().zip(&records) {
                let rec = rec.as_ref().expect("no budget, deadline or token");
                prop_assert!(rec.compiled, "{}: cluster configs compile", bench.name());
                let (out, counts, stats) = run_config(bench.as_ref(), cfg, params);
                let cost = model.cost(&counts, Some(&stats));
                let speedup = if cost == 0.0 { 1.0 } else { ref_cost / cost };
                let quality = bench.metric().compare(&ref_out, &out);
                prop_assert_eq!(rec.quality.to_bits(), quality.to_bits(), "{} quality", bench.name());
                prop_assert_eq!(rec.speedup.to_bits(), speedup.to_bits(), "{} speedup", bench.name());
            }

            let snap = obs.metrics_snapshot().expect("in-memory obs has metrics");
            let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
            prop_assert_eq!(
                counter("evaluator.stream_sims") + counter("evaluator.stream_hits"),
                counter("evaluator.runs") + 1,
                "{}: every run, the reference included, simulates or hits", bench.name()
            );
            prop_assert!(counter("evaluator.stream_fallbacks") <= counter("evaluator.stream_sims"));
        }
    });
}

/// FNV-1a over the little-endian bytes of `words`, continuing from `h`.
fn fnv1a(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The semantic pin of every benchmark's one definition: output bits,
/// operation counts and cache statistics from `run_config`, under
/// all-double, all-single, all-half and three seeded three-way mixes,
/// folded into one FNV-1a digest per (benchmark, scale). All 17
/// benchmarks run at small scale; the 11 IR-ported ones also run at
/// paper scale. Any change to a benchmark's numerics, accounting or
/// access stream changes its digest.
#[test]
fn benchmark_outputs_match_golden_digests() {
    use mixp_core::perf::CacheParams;
    use mixp_core::perf::CacheStats;
    use mixp_core::{run_config, OpCounts, Precision};

    const GOLDEN: &[(&str, &str, u64)] = &[
        ("banded-lin-eq", "small", 0x9be0fbd4e8288038),
        ("diff-predictor", "small", 0xc74d60215b6306d8),
        ("eos", "small", 0xcab37cb2a9b1d600),
        ("gen-lin-recur", "small", 0xbbc44b8143fe2062),
        ("hydro-1d", "small", 0x1db24dc428ff7143),
        ("iccg", "small", 0xf798bdc67eb21630),
        ("innerprod", "small", 0x79f04c3eaa2e5106),
        ("int-predict", "small", 0x99dbb03ab7c4bee5),
        ("planckian", "small", 0x3be14fb23ca1c03a),
        ("tridiag", "small", 0x54bf163d4dc11590),
        ("blackscholes", "small", 0x62013b513a6bbe05),
        ("cfd", "small", 0x6f8f9d2195d64539),
        ("hotspot", "small", 0xa71811d704ace317),
        ("hpccg", "small", 0x364f2a1e93f276ad),
        ("kmeans", "small", 0x91e02aea13dffc60),
        ("lavamd", "small", 0x40da5ff71d3484fa),
        ("srad", "small", 0xc707beb1dc81a9a4),
        ("banded-lin-eq", "paper", 0x5f764e9290167d6c),
        ("diff-predictor", "paper", 0x10425e2439747ab8),
        ("eos", "paper", 0x4e556aefcfc9c28d),
        ("gen-lin-recur", "paper", 0xc0cd063493e72c52),
        ("hydro-1d", "paper", 0x6fd10d6cc2b8aac5),
        ("iccg", "paper", 0x07d9d464d0938e51),
        ("innerprod", "paper", 0xee5bcd95142ade8f),
        ("int-predict", "paper", 0xeaebe0f6a0be12d2),
        ("planckian", "paper", 0x2759e2bd5518ded8),
        ("tridiag", "paper", 0x2c5c4e376cbe5ed4),
        ("hotspot", "paper", 0x8f81b25299e81acb),
    ];

    fn configs(pm: &ProgramModel) -> Vec<PrecisionConfig> {
        let mut half = pm.config_all_double();
        for v in pm.tunable_vars() {
            half.set(v, Precision::Half);
        }
        let mut cfgs = vec![pm.config_all_double(), pm.config_all_single(), half];
        for seed in [1u64, 7, 1234] {
            let mut cfg = pm.config_all_double();
            let mut rng = SplitMix64::new(seed);
            for v in pm.tunable_vars() {
                match rng.next_range(3) {
                    0 => {}
                    1 => cfg.set(v, Precision::Single),
                    _ => cfg.set(v, Precision::Half),
                }
            }
            cfgs.push(cfg);
        }
        cfgs
    }

    fn digest(bench: &dyn Benchmark) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for cfg in configs(bench.program()) {
            let (out, counts, stats) = run_config(bench, &cfg, CacheParams::default());
            let OpCounts {
                flops_f16,
                flops_f32,
                flops_f64,
                heavy_f16,
                heavy_f32,
                heavy_f64,
                casts,
                loads_f16,
                loads_f32,
                loads_f64,
                stores_f16,
                stores_f32,
                stores_f64,
            } = counts;
            let CacheStats {
                accesses,
                l1_hits,
                l2_hits,
                misses,
                writebacks,
                poisoned,
            } = stats;
            h = fnv1a(h, [out.len() as u64]);
            // Every NaN folds as one pattern: Rust leaves a NaN's sign and
            // payload unspecified, and srad's half-precision NaNs differ
            // in sign between debug and release builds.
            h = fnv1a(
                h,
                out.iter().map(|v| {
                    if v.is_nan() {
                        f64::NAN.to_bits()
                    } else {
                        v.to_bits()
                    }
                }),
            );
            h = fnv1a(
                h,
                [
                    flops_f16, flops_f32, flops_f64, heavy_f16, heavy_f32, heavy_f64, casts,
                    loads_f16, loads_f32, loads_f64, stores_f16, stores_f32, stores_f64,
                ],
            );
            h = fnv1a(
                h,
                [
                    accesses,
                    l1_hits,
                    l2_hits,
                    misses,
                    writebacks,
                    poisoned as u64,
                ],
            );
        }
        h
    }

    let mut benches: Vec<(&str, Box<dyn Benchmark>)> = Vec::new();
    for b in mixp_kernels::all_kernels_small() {
        benches.push(("small", b));
    }
    for b in mixp_apps::all_applications_small() {
        benches.push(("small", b));
    }
    for b in mixp_kernels::all_kernels() {
        benches.push(("paper", b));
    }
    benches.push(("paper", Box::new(mixp_apps::Hotspot::new())));

    let got: Vec<(String, &str, u64)> = benches
        .iter()
        .map(|(scale, b)| (b.name().to_string(), *scale, digest(b.as_ref())))
        .collect();
    let table: String = got
        .iter()
        .map(|(name, scale, d)| format!("        (\"{name}\", \"{scale}\", {d:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), GOLDEN.len(), "digest table:\n{table}");
    for ((name, scale, d), &(gname, gscale, gd)) in got.iter().zip(GOLDEN) {
        assert_eq!(
            (name.as_str(), *scale),
            (gname, gscale),
            "digest table:\n{table}"
        );
        assert_eq!(*d, gd, "{name} ({scale}) digest changed; table:\n{table}");
    }
}
