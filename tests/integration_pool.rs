//! Integration tests for the unified work-stealing pool: a campaign with
//! parallel jobs *and* parallel evaluator batches inside them must stay
//! bit-identical to the sequential run, keep total pool threads bounded by
//! the single `workers` knob (no more W×W oversubscription), and thread
//! its evaluator and plan-compile spans under the campaign's per-job
//! spans.

use mixp_core::{
    EvaluatorBuilder, Granularity, Obs, PrecisionConfig, QualityThreshold, SearchSpace,
};
use mixp_harness::scheduler::{run_campaign, CampaignOptions};
use mixp_harness::{benchmark_by_name, Job, Scale};

fn jobs() -> Vec<Job> {
    vec![
        Job::new("tridiag", "DD", 1e-3, Scale::Small),
        Job::new("eos", "CB", 1e-3, Scale::Small),
        Job::new("innerprod", "DD", 1e-3, Scale::Small),
    ]
}

fn opts(workers: usize, eval_workers: usize, obs: Obs) -> CampaignOptions {
    CampaignOptions {
        workers,
        eval_workers,
        obs,
        ..CampaignOptions::default()
    }
}

/// The acceptance property of the pool work: nesting parallel evaluator
/// batches (eval_workers > 1) inside a parallel campaign must not change a
/// single bit of any outcome, for every campaign width.
#[test]
fn nested_campaign_is_bit_identical_across_worker_counts() {
    let jobs = jobs();
    let baseline = run_campaign(&jobs, &opts(1, 4, Obs::noop()));
    for workers in [2, 4, 7] {
        let outcomes = run_campaign(&jobs, &opts(workers, 4, Obs::noop()));
        assert_eq!(baseline.len(), outcomes.len());
        for (b, o) in baseline.iter().zip(&outcomes) {
            let (b, o) = (
                b.result().expect("baseline job succeeds"),
                o.result().expect("parallel job succeeds"),
            );
            assert_eq!(b.result.evaluated, o.result.evaluated, "workers={workers}");
            assert_eq!(b.result.dnf, o.result.dnf, "workers={workers}");
            match (&b.result.best, &o.result.best) {
                (None, None) => {}
                (Some(bb), Some(ob)) => {
                    assert_eq!(bb.config.key(), ob.config.key(), "workers={workers}");
                    assert_eq!(
                        bb.quality.to_bits(),
                        ob.quality.to_bits(),
                        "workers={workers}"
                    );
                    assert_eq!(
                        bb.speedup.to_bits(),
                        ob.speedup.to_bits(),
                        "workers={workers}"
                    );
                }
                other => panic!("best diverges at workers={workers}: {other:?}"),
            }
        }
    }
}

/// The oversubscription fix itself, gauge-verified: a nested campaign
/// (4 campaign workers × 4 evaluator workers) creates exactly one pool and
/// never holds more than `workers` threads — 3 spawned plus the caller —
/// where the old nested `thread::scope` layers ran up to 16.
#[test]
fn nested_campaign_holds_the_configured_thread_bound() {
    let obs = Obs::in_memory();
    let outcomes = run_campaign(&jobs(), &opts(4, 4, obs.clone()));
    assert!(outcomes.iter().all(|o| o.outcome.is_ok()));
    let snap = obs.metrics_snapshot().expect("in-memory obs has metrics");
    assert_eq!(
        snap.counters["pool.created"], 1,
        "nested evaluators must join the campaign pool, not build their own"
    );
    assert!(
        snap.gauges["pool.peak_threads"] <= 3.0,
        "4 workers = caller + at most 3 pool threads, got {}",
        snap.gauges["pool.peak_threads"]
    );
    assert_eq!(
        snap.gauges["pool.live_threads"], 0.0,
        "pool threads are joined when the campaign ends"
    );
}

/// A standalone evaluator (no enclosing campaign) lazily builds one
/// private pool on its first parallel batch and reuses it for every batch
/// after — no per-batch spawn cost, no extra pools.
#[test]
fn standalone_evaluator_reuses_one_private_pool() {
    let obs = Obs::in_memory();
    let bench = benchmark_by_name("blackscholes", Scale::Small).expect("blackscholes exists");
    let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
        .budget(1000)
        .workers(4)
        .obs(obs.clone())
        .build(bench.as_ref());
    // Whole-cluster configurations always compile, so every one reaches
    // the parallel run phase instead of being resolved during validation.
    let space = SearchSpace::new(bench.program(), Granularity::Clusters);
    let cfgs: Vec<PrecisionConfig> = (0..space.len().min(8))
        .map(|u| {
            let mut mask = vec![false; space.len()];
            mask[u] = true;
            space.config_from_mask(bench.program(), &mask)
        })
        .collect();
    assert!(cfgs.len() >= 4, "blackscholes has many clusters");
    for chunk in cfgs.chunks(2) {
        for r in ev.evaluate_batch(chunk) {
            r.expect("budgeted batch evaluation succeeds");
        }
    }
    drop(ev);
    let snap = obs.metrics_snapshot().expect("in-memory obs has metrics");
    assert_eq!(
        snap.counters["pool.created"], 1,
        "all batches share one lazily-created pool"
    );
    assert!(snap.counters["pool.batches"] >= 2);
    assert!(snap.gauges["pool.peak_threads"] <= 3.0);
    assert_eq!(
        snap.gauges["pool.live_threads"], 0.0,
        "the private pool is joined when the evaluator drops"
    );
}

fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = line.find(&needle)? + needle.len();
    let digits: String = line[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Evaluator spans opened inside a campaign carry the campaign's per-job
/// span id as their `parent`, so a trace viewer can hang every evaluation
/// under the cell that ran it even when jobs interleave across workers.
#[test]
fn evaluator_spans_nest_under_campaign_job_spans() {
    let obs = Obs::in_memory();
    let outcomes = run_campaign(&jobs(), &opts(2, 2, obs.clone()));
    assert!(outcomes.iter().all(|o| o.outcome.is_ok()));
    let lines = obs.trace_lines();
    let job_ids: Vec<u64> = lines
        .iter()
        .filter(|l| l.contains("\"t\":\"span\"") && l.contains("\"name\":\"job\""))
        .map(|l| field_u64(l, "id").expect("span starts carry an id"))
        .collect();
    assert_eq!(job_ids.len(), 3, "one job span per cell");
    let eval_parents: Vec<u64> = lines
        .iter()
        .filter(|l| {
            l.contains("\"t\":\"span\"")
                && (l.contains("\"name\":\"eval\"") || l.contains("\"name\":\"eval.batch\""))
        })
        .map(|l| field_u64(l, "parent").expect("evaluator spans are parented"))
        .collect();
    assert!(!eval_parents.is_empty(), "the jobs evaluated something");
    for parent in eval_parents {
        assert!(
            job_ids.contains(&parent),
            "eval span parent {parent} is not a job span id {job_ids:?}"
        );
    }
}

/// Every plan compile is counted, and traced as a `plan.compile` span
/// under the span that asked for the run: `eval` or `eval.batch` for a
/// search's evaluations, the job span for the evaluator's reference run.
#[test]
fn plan_compiles_are_counted_and_nest_under_their_runs() {
    let obs = Obs::in_memory();
    let jobs = jobs();
    let outcomes = run_campaign(&jobs, &opts(2, 2, obs.clone()));
    assert!(outcomes.iter().all(|o| o.outcome.is_ok()));
    let lines = obs.trace_lines();
    let starts = |name: &str| -> Vec<&String> {
        let needle = format!("\"name\":\"{name}\"");
        lines
            .iter()
            .filter(|l| l.contains("\"t\":\"span\"") && l.contains(&needle))
            .collect()
    };
    let run_ids: Vec<u64> = ["job", "eval", "eval.batch"]
        .iter()
        .flat_map(|name| starts(name))
        .map(|l| field_u64(l, "id").expect("span starts carry an id"))
        .collect();
    let compiles = starts("plan.compile");
    for line in &compiles {
        let parent = field_u64(line, "parent").expect("plan.compile spans are parented");
        assert!(
            run_ids.contains(&parent),
            "plan.compile parent {parent} is not a job or evaluator span"
        );
    }
    let snap = obs.metrics_snapshot().expect("in-memory obs has metrics");
    let counted = snap.counters["evaluator.plan_compiles"];
    assert_eq!(counted, compiles.len() as u64);
    // All three kernels are IR-ported: one compile per fresh run, plus
    // one per job for the reference run.
    assert_eq!(counted, snap.counters["evaluator.runs"] + jobs.len() as u64);
}
