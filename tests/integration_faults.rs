//! Integration tests for fault-tolerant campaign execution: a campaign
//! containing jobs that panic, return NaN quality, silently corrupt their
//! output, burn wall-clock, starve their budget and exceed their deadline
//! completes with typed per-cell failures, renders as FAILED(reason) rows,
//! and a killed-then-resumed run re-executes only the unfinished cells.

use mixp_harness::faultplan::Fault;
use mixp_harness::job::JobError;
use mixp_harness::report::render_grouped;
use mixp_harness::scheduler::{
    run_campaign, run_campaign_with_stats, CampaignOptions, RetryPolicy,
};
use mixp_harness::{interchange, FaultPlan, Job, Scale};

fn jobs(names: &[&str]) -> Vec<Job> {
    names
        .iter()
        .map(|b| Job::new(b, "DD", 1e-3, Scale::Small))
        .collect()
}

fn temp_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("mixp-itest-{tag}-{}", std::process::id()));
    std::fs::remove_file(&p).ok();
    p
}

/// The acceptance scenario of the fault-tolerance work: one campaign with
/// a panicking cell, a NaN-quality cell, a starved cell and a
/// deadline-exceeded cell still completes, reporting each failure with its
/// typed reason while healthy cells produce normal results.
#[test]
fn mixed_fault_campaign_completes_with_typed_reasons() {
    let jobs = jobs(&["tridiag", "innerprod", "eos", "hydro-1d", "iccg"]);
    let opts = CampaignOptions {
        workers: 2,
        faults: FaultPlan::new()
            .inject(1, Fault::Panic { at_eval: 0 }, u32::MAX)
            .inject(2, Fault::NanOutput { from_eval: 0 }, u32::MAX)
            .inject(3, Fault::StarveBudget, u32::MAX)
            .inject(4, Fault::ZeroDeadline, u32::MAX),
        ..CampaignOptions::default()
    };
    let outcomes = run_campaign(&jobs, &opts);
    assert_eq!(outcomes.len(), 5);
    assert!(outcomes[0].outcome.is_ok(), "healthy cell unaffected");
    assert!(matches!(outcomes[1].outcome, Err(JobError::Panicked(_))));
    assert!(matches!(
        outcomes[2].outcome,
        Err(JobError::NonFiniteQuality)
    ));
    assert!(matches!(
        outcomes[3].outcome,
        Err(JobError::BudgetExhausted { .. })
    ));
    assert!(matches!(
        outcomes[4].outcome,
        Err(JobError::DeadlineExceeded { .. })
    ));

    // The report renders the failures instead of aborting.
    let groups: Vec<Vec<_>> = outcomes.chunks(1).map(<[_]>::to_vec).collect();
    let table = render_grouped(&groups, &["DD"]);
    assert!(table.contains("FAILED(panic)"), "{table}");
    assert!(table.contains("FAILED(non-finite)"), "{table}");
    assert!(table.contains("FAILED(budget)"), "{table}");
    assert!(table.contains("FAILED(deadline)"), "{table}");
}

/// A transient fault that clears after the first attempt is healed by the
/// retry policy; a permanent one still fails after exhausting attempts.
#[test]
fn retry_heals_transient_faults_only() {
    let jobs = jobs(&["tridiag", "innerprod"]);
    let opts = CampaignOptions {
        workers: 1,
        retry: RetryPolicy::attempts(3),
        faults: FaultPlan::new()
            .inject(0, Fault::Panic { at_eval: 0 }, 2) // clears on attempt 3
            .inject(1, Fault::Panic { at_eval: 0 }, u32::MAX),
        ..CampaignOptions::default()
    };
    let outcomes = run_campaign(&jobs, &opts);
    assert_eq!(outcomes[0].attempts, 3);
    assert!(outcomes[0].outcome.is_ok(), "fault cleared within budget");
    assert_eq!(outcomes[1].attempts, 3, "permanent fault exhausts retries");
    assert!(outcomes[1].outcome.is_err());
}

/// Checkpoint/resume across "kills": the first (faulty) run checkpoints
/// its successes; the resumed run restores them without re-execution and
/// re-runs only the previously failed cells.
#[test]
fn killed_campaign_resumes_without_rerunning_finished_cells() {
    let path = temp_path("resume");
    let jobs = jobs(&["tridiag", "innerprod", "eos"]);

    // First run: the middle cell panics, the others complete and are
    // journaled. This stands in for a campaign killed partway through.
    let first = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 1,
            faults: FaultPlan::new().inject(1, Fault::Panic { at_eval: 0 }, u32::MAX),
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        },
    );
    assert!(first[0].outcome.is_ok());
    assert!(first[1].outcome.is_err());
    assert!(first[2].outcome.is_ok());

    // Resume without the fault: finished cells come back from the journal
    // (attempts == 0), only the failed cell is executed.
    let second = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 2,
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        },
    );
    assert!(second[0].from_checkpoint && second[0].attempts == 0);
    assert!(second[2].from_checkpoint && second[2].attempts == 0);
    assert!(!second[1].from_checkpoint);
    assert!(second[1].outcome.is_ok(), "failed cell re-ran clean");

    // Restored results are bit-identical in the metrics that matter.
    for i in [0usize, 2] {
        let (a, b) = (first[i].result().unwrap(), second[i].result().unwrap());
        assert_eq!(a.result.evaluated, b.result.evaluated);
        assert_eq!(a.result.speedup(), b.result.speedup());
        assert_eq!(a.result.quality(), b.result.quality());
    }

    // A third run finds everything checkpointed.
    let third = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 2,
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        },
    );
    assert!(third.iter().all(|o| o.from_checkpoint));
    std::fs::remove_file(&path).ok();
}

/// Permanent failures are journaled: a resumed campaign reports the
/// historical FAILED cell (attempts == 0, from_checkpoint) instead of
/// re-running a deterministic failure, while transient failures still
/// re-run.
#[test]
fn resumed_campaign_reports_historical_permanent_failures() {
    let path = temp_path("perm-fail");
    let jobs = vec![
        Job::new("tridiag", "DD", 1e-3, Scale::Small),
        Job::new("no-such-bench", "DD", 1e-3, Scale::Small), // permanent
        Job::new("eos", "DD", 1e-3, Scale::Small),
    ];
    let opts = CampaignOptions {
        workers: 2,
        // The *transient* fault on cell 2 must not be journaled.
        faults: FaultPlan::new().inject(2, Fault::Panic { at_eval: 0 }, u32::MAX),
        checkpoint: Some(path.clone()),
        ..CampaignOptions::default()
    };
    let first = run_campaign(&jobs, &opts);
    assert!(first[0].outcome.is_ok());
    assert!(matches!(
        first[1].outcome,
        Err(JobError::UnknownBenchmark(_))
    ));
    assert!(matches!(first[2].outcome, Err(JobError::Panicked(_))));

    // Resume without the fault plan: the success and the permanent failure
    // both restore; only the transiently-failed cell re-runs.
    let second = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 2,
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        },
    );
    assert!(second[0].from_checkpoint && second[0].attempts == 0);
    assert!(second[1].from_checkpoint && second[1].attempts == 0);
    assert!(matches!(
        second[1].outcome,
        Err(JobError::UnknownBenchmark(_))
    ));
    assert!(!second[2].from_checkpoint, "transient failure re-runs");
    assert!(second[2].outcome.is_ok());

    // The restored failure renders as a FAILED cell like a fresh one.
    let groups: Vec<Vec<_>> = second.chunks(1).map(<[_]>::to_vec).collect();
    let table = render_grouped(&groups, &["DD"]);
    assert!(table.contains("FAILED(unknown-benchmark)"), "{table}");
    std::fs::remove_file(&path).ok();
}

/// The campaign-wide shared cache produces hits across a multi-algorithm
/// campaign and surfaces them in the interchange JSON; faulted cells never
/// touch the cache.
#[test]
fn campaign_shared_cache_hits_surface_in_the_report() {
    let jobs: Vec<Job> = ["CB", "CM", "DD", "HR", "HC", "GA"]
        .iter()
        .map(|a| Job::new("innerprod", a, 1e-3, Scale::Small))
        .collect();
    let (outcomes, stats) = run_campaign_with_stats(
        &jobs,
        &CampaignOptions {
            workers: 3,
            ..CampaignOptions::default()
        },
    );
    assert!(outcomes.iter().all(|o| o.outcome.is_ok()));
    assert!(
        stats.shared_cache_hits > 0,
        "six algorithms over one benchmark must share configurations"
    );
    let json = interchange::outcomes_to_json_with_stats(&outcomes, &stats);
    assert!(json.contains("\"shared_cache\""), "{json}");
    assert!(json.contains("\"hits\""), "{json}");

    // A faulted campaign keeps its cache cold for the faulted cell but
    // still completes; the injected NaN output must not poison results of
    // the healthy sibling cells.
    let (faulted, _) = run_campaign_with_stats(
        &jobs,
        &CampaignOptions {
            workers: 3,
            faults: FaultPlan::new().inject(0, Fault::NanOutput { from_eval: 0 }, u32::MAX),
            ..CampaignOptions::default()
        },
    );
    assert!(matches!(
        faulted[0].outcome,
        Err(JobError::NonFiniteQuality)
    ));
    for (h, f) in outcomes.iter().zip(&faulted).skip(1) {
        let (h, f) = (h.result().unwrap(), f.result().unwrap());
        assert_eq!(h.result.evaluated, f.result.evaluated);
        assert_eq!(h.result.speedup(), f.result.speedup());
    }
}

/// Silently corrupted output — finite but irreproducible values — is
/// caught by the job's integrity probe before any search runs, reported
/// with its own typed reason, and journaled as *permanent*: a resumed
/// campaign restores the historical failure instead of re-running it.
#[test]
fn corrupt_output_is_detected_and_journaled_as_permanent() {
    let path = temp_path("corrupt");
    let jobs = jobs(&["tridiag", "innerprod"]);
    let first = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 2,
            faults: FaultPlan::new().inject(1, Fault::CorruptOutput { from_eval: 0 }, u32::MAX),
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        },
    );
    assert!(first[0].outcome.is_ok(), "healthy sibling unaffected");
    assert!(matches!(first[1].outcome, Err(JobError::CorruptOutput)));

    // Resume without the fault plan: the corruption verdict is restored
    // from the journal (attempts == 0) rather than re-executed — a benchmark
    // that produced irreproducible numbers once cannot be trusted on retry.
    let second = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 2,
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        },
    );
    assert!(second[1].from_checkpoint && second[1].attempts == 0);
    assert!(matches!(second[1].outcome, Err(JobError::CorruptOutput)));

    let groups: Vec<Vec<_>> = second.chunks(1).map(<[_]>::to_vec).collect();
    let table = render_grouped(&groups, &["DD"]);
    assert!(table.contains("FAILED(corrupt-output)"), "{table}");
    let mut cache = path.clone().into_os_string();
    cache.push(".cache.jsonl");
    std::fs::remove_file(cache).ok();
    std::fs::remove_file(&path).ok();
}

/// A benchmark that consumes real wall-clock time inside each evaluation
/// exhausts the campaign deadline *mid-search*: the cell fails with
/// `DeadlineExceeded` after making measurable partial progress (candidate
/// evaluations ran before the cooperative deadline check tripped), unlike
/// the up-front expiry exercised by `Fault::ZeroDeadline`.
#[test]
fn slow_benchmark_exhausts_the_campaign_deadline_mid_search() {
    use mixp_core::Obs;
    // DDV narrows over eos's seven variables round by round, and every
    // round submits configurations it has never seen — so some later
    // round's admission check must observe the expired deadline (an
    // algorithm whose tail is all memo hits would never re-check it).
    // The threshold is tight enough that the all-lowered probe fails,
    // forcing the multi-round narrowing rather than instant success.
    let jobs = vec![Job::new("eos", "DDV", 1e-10, Scale::Small)];
    let obs = Obs::in_memory();
    let outcomes = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 1,
            deadline: Some(std::time::Duration::from_millis(100)),
            // Each execution burns 60ms. The deadline clock starts after the
            // reference run, so the integrity probe (~60ms) leaves room for
            // the first admission wave, but that wave's own sleep pushes the
            // clock past 100ms before the next wave asks — even though the
            // evaluator parallelises the executions *within* a wave.
            faults: FaultPlan::new().inject(0, Fault::SlowMs(60), u32::MAX),
            obs: obs.clone(),
            ..CampaignOptions::default()
        },
    );
    assert!(
        matches!(
            outcomes[0].outcome,
            Err(JobError::DeadlineExceeded { limit_ms: 100 })
        ),
        "{:?}",
        outcomes[0].outcome
    );
    // Partial progress: at least one whole candidate ran before the
    // deadline tripped (the counter excludes the reference run).
    let snap = obs.metrics_snapshot().unwrap();
    let runs = snap.counters.get("evaluator.runs").copied().unwrap_or(0);
    assert!(runs >= 1, "expected candidate evaluations before expiry");
}

/// Deadlines propagate from the campaign options into the evaluator: a
/// zero deadline times every cell out, a generous one lets them finish.
#[test]
fn campaign_deadline_is_enforced_per_job() {
    let jobs = jobs(&["tridiag", "eos"]);
    let strict = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 2,
            deadline: Some(std::time::Duration::ZERO),
            ..CampaignOptions::default()
        },
    );
    assert!(strict
        .iter()
        .all(|o| matches!(o.outcome, Err(JobError::DeadlineExceeded { .. }))));

    let generous = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 2,
            deadline: Some(std::time::Duration::from_secs(3600)),
            ..CampaignOptions::default()
        },
    );
    assert!(generous.iter().all(|o| o.outcome.is_ok()));
}

/// A cost model that prices every operation as NaN — the "model returns
/// garbage" failure mode — surfaces as a typed permanent failure. The
/// benchmark itself is healthy, so the integrity probe passes and the
/// search completes; only the speedups are non-finite, which the job
/// refuses to report as a result. Permanent: the retry policy must not
/// re-run a deterministic model defect.
#[test]
fn nan_cost_model_is_a_typed_permanent_failure() {
    let jobs = jobs(&["tridiag", "innerprod"]);
    let outcomes = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 2,
            retry: RetryPolicy::attempts(3),
            faults: FaultPlan::new().inject(0, Fault::CostModelNan, u32::MAX),
            ..CampaignOptions::default()
        },
    );
    assert!(
        matches!(outcomes[0].outcome, Err(JobError::NonFiniteQuality)),
        "{:?}",
        outcomes[0].outcome
    );
    assert_eq!(
        outcomes[0].attempts, 1,
        "a non-finite model verdict is permanent, not retried"
    );
    assert!(outcomes[1].outcome.is_ok(), "healthy sibling unaffected");

    let groups: Vec<Vec<_>> = outcomes.chunks(1).map(<[_]>::to_vec).collect();
    let table = render_grouped(&groups, &["DD"]);
    assert!(table.contains("FAILED(non-finite)"), "{table}");
}

/// The cache-simulator fault hook at the evaluator level: poisoned cache
/// statistics price every configuration at NaN, so records carry a NaN
/// speedup — but evaluation never panics and quality (which does not go
/// through the cost model) stays finite.
#[test]
fn poisoned_cache_stats_price_evaluations_as_nan_without_panicking() {
    use mixp_core::{CacheParams, EvaluatorBuilder, QualityThreshold};
    use mixp_harness::benchmark_by_name;

    let bench = benchmark_by_name("innerprod", Scale::Small).unwrap();
    let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
        .cache(CacheParams {
            poison_stats: true,
            ..CacheParams::default()
        })
        .build(bench.as_ref());
    let rec = ev
        .evaluate(&bench.program().config_all_single())
        .expect("poisoned pricing must not abort the evaluation");
    assert!(rec.speedup.is_nan(), "cost model must price as NaN");
    assert!(
        rec.quality.is_finite(),
        "quality bypasses the cost model and stays finite"
    );
}

/// Seeded fault plans drive a whole campaign deterministically: the same
/// seed yields the same set of failed cells on every run.
#[test]
fn seeded_fault_campaigns_are_reproducible() {
    let jobs = jobs(&[
        "tridiag",
        "innerprod",
        "eos",
        "hydro-1d",
        "iccg",
        "planckian",
    ]);
    let fates = |seed: u64| -> Vec<Option<&'static str>> {
        let opts = CampaignOptions {
            workers: 2,
            faults: FaultPlan::seeded(seed, jobs.len(), 50),
            ..CampaignOptions::default()
        };
        run_campaign(&jobs, &opts)
            .iter()
            .map(|o| o.outcome.as_ref().err().map(JobError::code))
            .collect()
    };
    assert_eq!(fates(7), fates(7), "same seed, same fates");
    assert!(
        fates(7).iter().any(Option::is_some),
        "50% fault rate over 6 jobs should fail something"
    );
}
