//! The campaign workloads (`apps-paper`, `kernels-paper`, `sweep-small`):
//! seeded rounds of cells through `run_campaign_with_stats`, back to back,
//! until the run's time is up. Each round is one campaign, submitted when
//! the previous one returned — a closed loop with one user.

use crate::gen::{self, Workload};
use crate::layers;
use crate::oracle::{self, Oracle};
use crate::serve::{self, WORKERS};
use crate::stats::{cpu_seconds, median, peak_rss_mb};
use crate::{Run, Setting};
use mixp_harness::{benchmark_by_name, run_campaign_with_stats, CampaignOptions, JobOutcome};
use std::time::Instant;

/// Set-up repetitions after the last round; with one before every
/// round, `setup_s` is the median of these.
const EXTRA_SETUPS: usize = 4;

fn evaluated(outcomes: &[JobOutcome]) -> f64 {
    outcomes
        .iter()
        .filter_map(JobOutcome::result)
        .map(|r| r.result.evaluated as f64)
        .sum()
}

/// Runs one campaign workload for `seconds`. Untraced, it measures the
/// end-to-end metrics; traced, each round runs twice — untraced, then
/// with tracing on — and the per-layer probes and the service probe run
/// after the rounds.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    setting: &Setting,
) -> std::io::Result<Run> {
    let mut run = Run::default();
    let first = gen::round_jobs(workload, setting.size, seed, 0);
    let benchmarks = gen::distinct(&first);

    // Set-up: instantiating every benchmark the campaign uses (input
    // generation and the type-dependence model). Timed before every round,
    // so that its median samples the whole run.
    let setup = || {
        let started = Instant::now();
        for (name, scale) in &benchmarks {
            drop(benchmark_by_name(name, *scale));
        }
        started.elapsed().as_secs_f64()
    };
    let mut setups = Vec::new();

    let opts = CampaignOptions {
        workers: WORKERS,
        eval_workers: WORKERS,
        ..CampaignOptions::default()
    };
    let campaign_obs = layers::trace_obs(traced);
    let traced_opts = CampaignOptions {
        obs: campaign_obs.clone(),
        ..opts.clone()
    };
    let pid = std::process::id();
    let (mut walls, mut rates, mut overheads) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cpu, mut hits, mut misses) = (0.0, 0, 0);
    let mut rounds: Vec<Vec<JobOutcome>> = Vec::new();
    let started = Instant::now();
    while rounds.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let round = rounds.len() as u64;
        let jobs = if round == 0 {
            first.clone()
        } else {
            gen::round_jobs(workload, setting.size, seed, round)
        };
        setups.push(setup());
        let cpu0 = cpu_seconds(pid).unwrap_or(0.0);
        let t = Instant::now();
        let (outcomes, stats) = run_campaign_with_stats(&jobs, &opts);
        let wall = t.elapsed().as_secs_f64();
        cpu += cpu_seconds(pid).unwrap_or(0.0) - cpu0;
        if traced {
            let t = Instant::now();
            run_campaign_with_stats(&jobs, &traced_opts);
            overheads.push(t.elapsed().as_secs_f64() / wall - 1.0);
        }
        walls.push(wall);
        rates.push(evaluated(&outcomes) / wall);
        hits += stats.shared_cache_hits;
        misses += stats.shared_cache_misses;
        run.attempted += jobs.len() as u64;
        run.failed += outcomes.iter().filter(|o| o.outcome.is_err()).count() as u64;
        rounds.push(outcomes);
    }
    run.put("rss_peak_mb", peak_rss_mb(pid).unwrap_or(0.0));
    setups.extend((0..EXTRA_SETUPS).map(|_| setup()));
    run.put("setup_s", median(&setups));
    run.put("latency_ms", median(&walls) * 1e3);
    run.put("evals_per_s", median(&rates));
    run.digest = oracle::digest(&oracle::result_docs(&rounds[0]));

    if traced {
        let wall: f64 = walls.iter().sum();
        let evals: f64 = rounds.iter().map(|r| evaluated(r)).sum();
        run.put("pool.cpu_util", cpu / (wall * WORKERS as f64));
        run.put("harness.cache_hit_ratio", layers::hit_ratio(hits, misses));
        run.put("obs.overhead_frac", median(&overheads));
        run.put("search.evaluated", evaluated(&rounds[0]));
        run.put(
            "search.dnf_cells",
            rounds[0]
                .iter()
                .filter_map(JobOutcome::result)
                .filter(|r| r.result.dnf)
                .count() as f64,
        );
        layers::obs_metrics(&campaign_obs, evals, &mut run);
        let probe_obs = layers::trace_obs(true);
        layers::probes(&benchmarks, seed, &probe_obs, &mut run);
        serve::probe(&first, seed, setting, &probe_obs, &mut run)?;
        run.traces = vec![campaign_obs, probe_obs];
    }

    let mut oracle = Oracle::new();
    for outcomes in &rounds {
        let mismatches = oracle.check_all(outcomes);
        run.mismatch(mismatches);
    }
    Ok(run)
}
