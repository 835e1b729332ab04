//! Checks the paper's §V insights against fresh runs of this reproduction
//! and prints a PASS/FAIL scoreboard.
//!
//! ```sh
//! cargo run --release --bin insights [--scale small|paper]
//! ```
//!
//! Each check re-derives one §V bullet from live searches rather than
//! trusting recorded numbers, so it doubles as an end-to-end regression of
//! the reproduction's qualitative claims.

use mixp_bench::options_from_env;
use mixp_core::{run_config, CacheParams, CostModel, Evaluator, QualityThreshold};
use mixp_harness::benchmark_by_name;
use mixp_harness::Scale;
use mixp_search::{DeltaDebug, Genetic, GeneticParams, SearchAlgorithm, VariableDeltaDebug};

struct Scoreboard {
    failures: usize,
}

impl Scoreboard {
    fn check(&mut self, name: &str, detail: String, ok: bool) {
        println!("[{}] {name}", if ok { "PASS" } else { "FAIL" });
        println!("       {detail}");
        if !ok {
            self.failures += 1;
        }
    }
}

fn single_speedup(name: &str, scale: Scale) -> (f64, f64) {
    let b = benchmark_by_name(name, scale).expect("registry");
    let model = CostModel::default();
    let cache = CacheParams::default();
    let (ref_out, rc, rs) = run_config(b.as_ref(), &b.program().config_all_double(), cache);
    let (out, c, s) = run_config(b.as_ref(), &b.program().config_all_single(), cache);
    (
        model.speedup((&rc, Some(&rs)), (&c, Some(&s))),
        b.metric().compare(&ref_out, &out),
    )
}

fn main() {
    let opts = options_from_env();
    let scale = opts.scale;
    let mut board = Scoreboard { failures: 0 };
    println!("§V insights, re-derived at scale {scale:?}:\n");

    // Insight 1: variable-level search without cluster information wastes
    // effort and can fail to converge.
    {
        let bench = benchmark_by_name("innerprod", scale).unwrap();
        let mut ev_v = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-8));
        let ddv = VariableDeltaDebug::new().search(&mut ev_v);
        let mut ev_c = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-8));
        let dd = DeltaDebug::new().search(&mut ev_c);
        board.check(
            "cluster information makes configurations viable",
            format!(
                "innerprod@1e-8: variable-level DD evaluated {} (found: {}), cluster DD evaluated {} (found: {})",
                ddv.evaluated,
                ddv.best.is_some(),
                dd.evaluated,
                dd.best.is_some()
            ),
            dd.best.is_some() && (ddv.evaluated >= dd.evaluated),
        );
    }

    // Insight 2: LavaMD's speedup is a cache effect, invisible without the
    // memory system.
    {
        let bench = benchmark_by_name("lavamd", scale).unwrap();
        let model = CostModel::default();
        let cache = CacheParams::default();
        let (_, rc, rs) = run_config(bench.as_ref(), &bench.program().config_all_double(), cache);
        let (_, sc, ss) = run_config(bench.as_ref(), &bench.program().config_all_single(), cache);
        let with_cache = model.speedup((&rc, Some(&rs)), (&sc, Some(&ss)));
        let without = model.speedup((&rc, None), (&sc, None));
        board.check(
            "LavaMD's gain comes from cache behaviour",
            format!(
                "speedup {with_cache:.2} with the cache simulator vs {without:.2} with flat memory"
            ),
            with_cache > without + 0.15,
        );
    }

    // Insight 3: GA's analysis effort is the most predictable (bounded by
    // its generation cap) but its result is randomness-dependent.
    {
        let params = GeneticParams::default();
        let cap = params.population * params.max_generations;
        let mut max_ev = 0;
        let mut keys = std::collections::BTreeSet::new();
        for seed in [1, 2, 3] {
            let bench = benchmark_by_name("cfd", scale).unwrap();
            let mut ev = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-3));
            let r = Genetic::new(GeneticParams { seed, ..params }).search(&mut ev);
            max_ev = max_ev.max(r.evaluated);
            keys.insert(r.best.map(|b| b.config.key()));
        }
        board.check(
            "GA effort is bounded; GA results vary with the seed",
            format!(
                "max evaluated {max_ev} ≤ cap {cap}; {} distinct outcomes over 3 seeds",
                keys.len()
            ),
            max_ev <= cap && keys.len() > 1,
        );
    }

    // Insight 4: delta debugging finds the most performant configurations,
    // at growing cost as thresholds tighten.
    {
        let mut ok = true;
        let mut detail = String::new();
        let bench = benchmark_by_name("hotspot", scale).unwrap();
        let mut ev_dd = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-6));
        let dd = DeltaDebug::new().search(&mut ev_dd);
        let mut ev_ga = Evaluator::new(bench.as_ref(), QualityThreshold::new(1e-6));
        let ga = Genetic::new(GeneticParams::default()).search(&mut ev_ga);
        if let (Some(d), Some(g)) = (dd.speedup(), ga.speedup()) {
            detail = format!("hotspot@1e-6: DD {d:.2} vs GA {g:.2}");
            ok &= d >= g;
        }
        board.check("DD finds the most performant configurations", detail, ok);
    }

    // Insight 5: lowering precision does not always improve execution time.
    {
        let (speedup, quality) = single_speedup("kmeans", scale);
        board.check(
            "reducing precision does not guarantee speedup (K-means)",
            format!("all-single K-means: speedup {speedup:.2}, MCR {quality}"),
            speedup < 1.05 && quality == 0.0,
        );
    }

    // Bonus: SRAD shows why auto-tuning must *run* the configuration —
    // a model would never predict NaN.
    {
        let (_, quality) = single_speedup("srad", scale);
        board.check(
            "verification by execution catches destroyed outputs (SRAD)",
            format!("all-single SRAD quality: {quality}"),
            quality.is_nan(),
        );
    }

    println!();
    if board.failures == 0 {
        println!("all insights reproduced");
    } else {
        println!("{} insight(s) failed to reproduce", board.failures);
        std::process::exit(1);
    }
}
