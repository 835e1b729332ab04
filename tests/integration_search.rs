//! End-to-end integration tests: full searches through the public API,
//! spanning kernels, applications and all six algorithms.

use mixp_core::{Evaluator, EvaluatorBuilder, Obs, QualityThreshold};
use mixp_harness::{benchmark_by_name, Scale};
use mixp_search::{algorithm_by_name, all_algorithms, DeltaDebug, SearchAlgorithm};

/// Every algorithm terminates on every kernel and returns a configuration
/// that genuinely passes its threshold.
#[test]
fn all_algorithms_terminate_on_all_kernels() {
    for bench in mixp_kernels::all_kernels_small() {
        for algo in all_algorithms() {
            let mut ev = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-3));
            let result = algo.search(&mut ev);
            assert!(
                !result.dnf,
                "{} on {} must terminate without budget pressure",
                algo.name(),
                bench.name()
            );
            if let Some(best) = &result.best {
                assert!(best.passes);
                assert!(best.compiled);
                assert!(
                    !best.config.is_all_double(),
                    "the identity configuration is not a result"
                );
            }
        }
    }
}

/// Search results are deterministic: running the same algorithm twice on a
/// fresh evaluator yields identical metrics.
#[test]
fn searches_are_deterministic() {
    for algo_name in ["CB", "CM", "DD", "HR", "HC", "GA"] {
        let algo = algorithm_by_name(algo_name).unwrap();
        let run = || {
            let bench = benchmark_by_name("eos", Scale::Small).unwrap();
            let mut ev = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-8));
            let r = algo.search(&mut ev);
            (r.evaluated, r.speedup(), r.quality())
        };
        assert_eq!(run(), run(), "{algo_name} must be deterministic");
    }
}

/// The best configuration a search reports can be re-evaluated and
/// reproduces exactly the recorded quality and speedup.
#[test]
fn reported_best_is_reproducible() {
    let bench = benchmark_by_name("hydro-1d", Scale::Small).unwrap();
    let mut ev = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-3));
    let result = DeltaDebug::new().search(&mut ev);
    let best = result.best.expect("hydro-1d passes at 1e-3");

    let mut ev2 = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-3));
    let re = ev2.evaluate(&best.config).unwrap();
    assert_eq!(re.quality, best.quality);
    assert_eq!(re.speedup, best.speedup);
    assert!(re.passes);
}

/// Tightening the threshold can only shrink (or keep) the set of passing
/// configurations: a config accepted at 1e-8 is accepted at 1e-3.
#[test]
fn threshold_monotonicity_across_searches() {
    let bench = benchmark_by_name("int-predict", Scale::Small).unwrap();
    let mut strict = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-8));
    let strict_result = DeltaDebug::new().search(&mut strict);
    if let Some(best) = strict_result.best {
        let mut loose = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-3));
        let re = loose.evaluate(&best.config).unwrap();
        assert!(re.passes, "strict-passing config must pass loosely");
    }
}

/// The budget mechanism really is the only source of DNF: with an ample
/// budget nothing DNFs on the kernels, with budget 1 everything beyond one
/// evaluation does.
#[test]
fn dnf_comes_only_from_budget() {
    let bench = benchmark_by_name("eos", Scale::Small).unwrap();
    // eos has 2 clusters: CB needs 3 evaluations.
    let algo = algorithm_by_name("CB").unwrap();
    let mut ample = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
        .budget(100)
        .build(bench.as_ref());
    assert!(!algo.search(&mut ample).dnf);
    let mut tiny = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
        .budget(1)
        .build(bench.as_ref());
    assert!(algo.search(&mut tiny).dnf);
}

/// Cluster-granularity searches never produce configurations that fail to
/// compile; variable-granularity ones can, but such configurations never
/// pass.
#[test]
fn compile_validity_by_granularity() {
    let bench = benchmark_by_name("innerprod", Scale::Small).unwrap();
    let program = bench.program();
    // The {z, x} cluster cannot be split.
    let z = program.registry().find("z").unwrap();
    let mut cfg = program.config_all_double();
    cfg.set(z, mixp_core::Precision::Single);
    let mut ev = Evaluator::new(bench.as_ref(), QualityThreshold::new(1.0));
    let rec = ev.evaluate(&cfg).unwrap();
    assert!(!rec.compiled);
    assert!(!rec.passes, "uncompilable configs never pass any threshold");
}

/// SRAD end-to-end: no algorithm at any threshold ever returns a
/// configuration with destroyed output.
#[test]
fn srad_never_returns_nan_configs() {
    let bench = benchmark_by_name("srad", Scale::Small).unwrap();
    for threshold in [1e-3, 1e-6] {
        for algo_name in ["DD", "GA"] {
            let bench2 = benchmark_by_name("srad", Scale::Small).unwrap();
            let algo = algorithm_by_name(algo_name).unwrap();
            let mut ev = Evaluator::new(bench2.as_ref(), QualityThreshold::new(threshold));
            let result = algo.search(&mut ev);
            if let Some(best) = result.best {
                assert!(
                    best.quality.is_finite(),
                    "{algo_name}@{threshold:e} returned a destroyed config"
                );
            }
        }
    }
    let _ = bench;
}

/// A genetic search on small-scale hpccg revisits a few access streams
/// across its evaluations, so the evaluator's stream memo serves runs
/// from a fingerprint instead of simulating them.
#[test]
fn ga_cell_on_hpccg_records_stream_memo_hits() {
    let bench = benchmark_by_name("hpccg", Scale::Small).unwrap();
    let obs = Obs::in_memory();
    let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-6))
        .obs(obs.clone())
        .build(bench.as_ref());
    let result = algorithm_by_name("GA").unwrap().search(&mut ev);
    assert!(result.evaluated > 0);
    let snap = obs.metrics_snapshot().expect("in-memory obs has metrics");
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    assert!(
        counter("evaluator.stream_hits") > 0,
        "no fingerprint hits: {:?}",
        snap.counters
    );
    assert_eq!(
        counter("evaluator.stream_sims") + counter("evaluator.stream_hits"),
        counter("evaluator.runs") + 1,
        "every run, the reference included, simulates or hits"
    );
}
