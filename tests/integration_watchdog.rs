//! Integration tests for preemptive deadlines: the campaign watchdog
//! cancels hung jobs (which the cooperative deadline can never reach),
//! quarantines workers that are wedged beyond recall, and — when no token
//! ever fires — leaves campaign results bit-identical to a watchdog-less
//! run for any worker count.

use mixp_core::Obs;
use mixp_harness::faultplan::Fault;
use mixp_harness::job::JobError;
use mixp_harness::scheduler::{run_campaign, CampaignOptions, RetryPolicy};
use mixp_harness::{FaultPlan, Job, Scale};
use std::time::Duration;

fn jobs(names: &[&str]) -> Vec<Job> {
    names
        .iter()
        .map(|b| Job::new(b, "DD", 1e-3, Scale::Small))
        .collect()
}

/// The acceptance scenario: one cell hangs for 60 s inside its evaluations,
/// the campaign deadline is 200 ms. The cooperative deadline never gets a
/// chance (the job is stuck inside a single run), so the watchdog fires the
/// job's cancel token; the run unwinds at its next cancellation point, the
/// cell is retried per the RetryPolicy and finally reported as
/// FAILED(deadline) — while every healthy cell completes normally and the
/// thread count never exceeds the configured workers plus one quarantine
/// replacement.
#[test]
fn hung_job_is_cancelled_retried_and_reported_without_sinking_the_campaign() {
    let jobs = jobs(&["tridiag", "innerprod", "eos"]);
    let obs = Obs::in_memory();
    let outcomes = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 2,
            deadline: Some(Duration::from_millis(200)),
            retry: RetryPolicy::attempts(2),
            faults: FaultPlan::new().inject(0, Fault::HangMs(60_000), u32::MAX),
            obs: obs.clone(),
            ..CampaignOptions::default()
        },
    );
    assert!(
        matches!(
            outcomes[0].outcome,
            Err(JobError::DeadlineExceeded { limit_ms: 200 })
        ),
        "{:?}",
        outcomes[0].outcome
    );
    assert_eq!(outcomes[0].attempts, 2, "transient timeout is retried");
    assert!(outcomes[1].outcome.is_ok(), "healthy sibling unaffected");
    assert!(outcomes[2].outcome.is_ok(), "healthy sibling unaffected");

    let snap = obs.metrics_snapshot().unwrap();
    assert!(
        snap.counters.get("watchdog.fired").copied().unwrap_or(0) >= 1,
        "the watchdog must have fired the hung job's token"
    );
    // The hang polls its token, so it unwinds within the grace period —
    // no quarantine, no extra threads beyond the configured pool.
    assert_eq!(
        snap.counters.get("pool.quarantined").copied().unwrap_or(0),
        0
    );
    assert!(
        snap.gauges.get("pool.peak_threads").copied().unwrap_or(0.0) <= 2.0,
        "2 workers must never need more than 1 pool thread + 1 replacement"
    );
}

/// A worker wedged beyond recall — stuck in a blocking sleep with no
/// cancellation point — is quarantined: the watchdog fires the token, waits
/// out the grace period, and hands the worker's deque to a fresh
/// replacement so the pool regains its capacity. Gauge-verified:
/// `pool.quarantined == 1` and peak threads stay within workers + 1.
#[test]
fn wedged_worker_is_quarantined_and_replaced() {
    // Both cells block in one uncancellable 400 ms sleep. One runs on the
    // pool's worker thread (quarantined), one on the batch caller (nothing
    // to quarantine) — so exactly one quarantine, whichever thread claims
    // which cell.
    let jobs = jobs(&["tridiag", "innerprod"]);
    let obs = Obs::in_memory();
    let outcomes = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 2,
            deadline: Some(Duration::from_millis(50)),
            grace: Duration::from_millis(5),
            faults: FaultPlan::new()
                .inject(0, Fault::SlowMs(400), u32::MAX)
                .inject(1, Fault::SlowMs(400), u32::MAX),
            obs: obs.clone(),
            ..CampaignOptions::default()
        },
    );
    for outcome in &outcomes {
        assert!(
            matches!(
                outcome.outcome,
                Err(JobError::DeadlineExceeded { limit_ms: 50 })
            ),
            "{:?}",
            outcome.outcome
        );
    }

    // The abandoned worker exits on its own schedule once its sleep ends;
    // wait for the live-thread gauge to settle before asserting.
    let mut snap = obs.metrics_snapshot().unwrap();
    for _ in 0..2000 {
        if snap.gauges.get("pool.live_threads").copied() == Some(0.0) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        snap = obs.metrics_snapshot().unwrap();
    }
    assert_eq!(
        snap.counters.get("pool.quarantined").copied().unwrap_or(0),
        1,
        "exactly one worker slot is handed to a replacement"
    );
    assert_eq!(
        snap.counters
            .get("watchdog.quarantined")
            .copied()
            .unwrap_or(0),
        1
    );
    assert!(snap.counters.get("watchdog.fired").copied().unwrap_or(0) >= 1);
    assert!(
        snap.gauges.get("pool.peak_threads").copied().unwrap_or(0.0) <= 2.0,
        "1 configured pool thread + 1 quarantine replacement, got {:?}",
        snap.gauges.get("pool.peak_threads")
    );
    assert_eq!(
        snap.gauges.get("pool.live_threads").copied(),
        Some(0.0),
        "all threads, including the replacement, exit with the campaign"
    );
}

/// A quarantined worker's cell must not be retried: the thread is detached
/// (its deque slot belongs to a replacement), so a retry would burn
/// abandoned CPU for another full deadline with a token generation the
/// stale fire cannot reach. The caller-thread cell — never quarantined —
/// keeps its full retry budget. Gauge-verified: exactly one suppressed
/// retry, one quarantine, and an attempt split of 1 + 2 across the cells.
#[test]
fn quarantined_cell_is_not_retried_on_the_detached_thread() {
    let jobs = jobs(&["tridiag", "innerprod"]);
    let obs = Obs::in_memory();
    let outcomes = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 2,
            deadline: Some(Duration::from_millis(50)),
            grace: Duration::from_millis(5),
            retry: RetryPolicy::attempts(2),
            faults: FaultPlan::new()
                .inject(0, Fault::SlowMs(400), u32::MAX)
                .inject(1, Fault::SlowMs(400), u32::MAX),
            obs: obs.clone(),
            ..CampaignOptions::default()
        },
    );
    for outcome in &outcomes {
        assert!(
            matches!(
                outcome.outcome,
                Err(JobError::DeadlineExceeded { limit_ms: 50 })
            ),
            "{:?}",
            outcome.outcome
        );
    }
    // One cell ran on the pool worker (quarantined, retry suppressed:
    // 1 attempt), the other on the batch caller (full budget: 2
    // attempts). Which cell got which thread is scheduling-dependent.
    let mut attempts: Vec<u32> = outcomes.iter().map(|o| o.attempts).collect();
    attempts.sort_unstable();
    assert_eq!(
        attempts,
        vec![1, 2],
        "quarantined cell stops at 1 attempt, caller cell retries"
    );

    let mut snap = obs.metrics_snapshot().unwrap();
    for _ in 0..2000 {
        if snap.gauges.get("pool.live_threads").copied() == Some(0.0) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
        snap = obs.metrics_snapshot().unwrap();
    }
    assert_eq!(
        snap.counters
            .get("watchdog.quarantined")
            .copied()
            .unwrap_or(0),
        1
    );
    assert_eq!(
        snap.counters
            .get("campaign.retry_detached")
            .copied()
            .unwrap_or(0),
        1,
        "exactly the quarantined cell's retry is suppressed"
    );
    assert_eq!(
        snap.counters.get("campaign.retries").copied().unwrap_or(0),
        1,
        "exactly the caller cell retries"
    );
    // By the time a slot is quarantined its token has long been fired, so
    // the quarantine-time sweep is a no-op here; it exists for attempts
    // that race onto a slot between fire and quarantine.
    assert_eq!(
        snap.counters
            .get("watchdog.quarantine_fired")
            .copied()
            .unwrap_or(0),
        0
    );
    assert!(
        snap.gauges.get("pool.peak_threads").copied().unwrap_or(0.0) <= 2.0,
        "1 configured pool thread + 1 quarantine replacement, got {:?}",
        snap.gauges.get("pool.peak_threads")
    );
}

/// When the token never fires, the watchdog is pure observation: campaigns
/// run with a generous deadline produce bit-identical results to a
/// deadline-less (watchdog-less) campaign, for any worker count.
#[test]
fn unfired_watchdog_keeps_campaigns_bit_identical_across_worker_counts() {
    let jobs: Vec<Job> = [("eos", "DD"), ("tridiag", "CB"), ("innerprod", "GA")]
        .iter()
        .map(|(b, a)| Job::new(b, a, 1e-3, Scale::Small))
        .collect();
    let baseline = run_campaign(
        &jobs,
        &CampaignOptions {
            workers: 1,
            ..CampaignOptions::default()
        },
    );
    assert!(baseline.iter().all(|o| o.outcome.is_ok()));
    for workers in [1usize, 2, 4] {
        let watched = run_campaign(
            &jobs,
            &CampaignOptions {
                workers,
                deadline: Some(Duration::from_secs(3600)),
                ..CampaignOptions::default()
            },
        );
        for (base, outcome) in baseline.iter().zip(&watched) {
            let (base, watched) = (base.result().unwrap(), outcome.result().unwrap());
            assert_eq!(
                base.result.evaluated, watched.result.evaluated,
                "workers={workers}"
            );
            assert_eq!(base.result.dnf, watched.result.dnf);
            match (&base.result.best, &watched.result.best) {
                (None, None) => {}
                (Some(b), Some(w)) => {
                    assert_eq!(b.config.key(), w.config.key(), "workers={workers}");
                    assert_eq!(b.quality.to_bits(), w.quality.to_bits());
                    assert_eq!(b.speedup.to_bits(), w.speedup.to_bits());
                }
                other => panic!("best mismatch at workers={workers}: {other:?}"),
            }
        }
    }
}
