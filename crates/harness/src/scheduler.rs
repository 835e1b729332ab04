//! Fault-tolerant parallel campaign execution — the stand-in for the
//! paper's SLURM cluster.
//!
//! The paper offloads each (application, algorithm) search to a separate
//! cluster node; here the jobs fan out over a thread pool via work
//! stealing from a shared queue. One crashed cell must never take down
//! the campaign, so every job runs behind panic isolation
//! ([`Job::execute`]), transient failures are retried under a bounded
//! [`RetryPolicy`], and completed cells can be journaled to a run-state
//! file ([`crate::checkpoint`]) so a killed campaign resumes where it
//! stopped. Results are returned in the submission order of the jobs
//! regardless of completion order.

use crate::checkpoint::Journal;
use crate::evalcache::SharedEvalCache;
use crate::faultplan::FaultPlan;
use crate::job::{Job, JobError, JobResult};
use crate::watchdog::Watchdog;
use mixp_core::{CancelToken, Obs, Value};
use mixp_pool::Pool;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Bounded retry for transient job failures (panics and deadline
/// timeouts; see [`JobError::is_transient`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (so `1` = no retry).
    pub max_attempts: u32,
    /// Base backoff slept before attempt n+1, doubled per retry
    /// (deterministic exponential backoff).
    pub backoff: Duration,
    /// Seed for deterministic backoff jitter; `0` disables jitter. With a
    /// non-zero seed the exponential delay is scaled by a pseudo-random
    /// factor in `[0.5, 1.5)` derived purely from `(seed, job index,
    /// attempt)`, so concurrent retries de-synchronise (no thundering
    /// herd against a shared journal or cache) while any campaign replay
    /// with the same seed sleeps exactly the same schedule.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts with no backoff.
    pub fn attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// The delay slept after failed attempt `attempt` (1-based) of job
    /// `index` before the next try: `backoff * 2^(attempt-1)`, optionally
    /// jittered (see [`RetryPolicy::jitter_seed`]). Pure — two calls with
    /// the same policy and arguments always return the same duration.
    pub fn delay_for(&self, index: usize, attempt: u32) -> Duration {
        if self.backoff.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << (attempt.saturating_sub(1)).min(16);
        let base = self.backoff * factor;
        if self.jitter_seed == 0 {
            return base;
        }
        // Decorrelate the per-(job, attempt) streams with an odd
        // multiplier so neighbouring indices don't share a prefix.
        let stream = self
            .jitter_seed
            .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(u64::from(attempt).wrapping_mul(0xD134_2543_DE82_EF95));
        let frac = mixp_core::synth::SplitMix64::new(stream).next_f64();
        base.mul_f64(0.5 + frac)
    }
}

/// Everything that shapes a campaign run beyond the job list itself.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads; `0` means [`default_workers`]. This one knob sizes
    /// the campaign's single work-stealing pool ([`mixp_pool::Pool`]):
    /// job cells *and* any evaluator batches nested inside them share
    /// these workers, so total campaign threads never exceed this count.
    pub workers: usize,
    /// Batch width for each job's inner evaluator; `0` keeps the
    /// evaluator's environment default (`MIXP_WORKERS`, falling back
    /// to 1). Nested evaluator batches execute on the campaign pool —
    /// this value shapes the searches' speculative chunk width (and
    /// therefore which configurations are evaluated), not the thread
    /// count.
    pub eval_workers: usize,
    /// Per-job wall-clock deadline (the analogue of the paper's 24-hour
    /// cluster limit). Enforced twice over: cooperatively by the evaluator
    /// at its own check points, and preemptively by the campaign
    /// [`Watchdog`], which fires the job's cancel token once the job is
    /// past the deadline *and* heartbeat-silent for [`Self::grace`].
    pub deadline: Option<Duration>,
    /// Watchdog grace period. A job past its deadline is only cancelled
    /// after its heartbeats have been silent this long (so a slow but
    /// moving job is left to the cooperative deadline), and a cancelled
    /// job that *still* has not unwound this long after the fire has its
    /// worker thread quarantined ([`mixp_pool::Pool::quarantine_worker`]).
    /// Ignored without a deadline. Default 100 ms.
    pub grace: Duration,
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Deterministic fault injections, for robustness testing.
    pub faults: FaultPlan,
    /// Run-state journal path; when set, completed cells are checkpointed
    /// there and a matching existing journal is resumed.
    pub checkpoint: Option<PathBuf>,
    /// Crash-durability knob for the run-state and cache journals: every
    /// N appended records the journal file is fsynced (both are always
    /// fsynced once more when the campaign completes). `0` disables the
    /// periodic fsync. Default 32.
    pub fsync_every: usize,
    /// Whether jobs share a campaign-wide evaluation cache
    /// ([`SharedEvalCache`]), so configurations already run by one cell are
    /// not re-run by another. On by default — hits are bit-identical to
    /// fresh runs and still consume budget, so this changes wall-clock
    /// only, never results.
    pub shared_cache: bool,
    /// Observability handle ([`mixp_core::Obs`]): spans, events and
    /// counters for the whole campaign — job lifecycle, retries, cache
    /// shards, and (through the evaluator) every evaluation. The default
    /// noop handle records nothing and costs one branch per call site;
    /// outcomes are bit-identical with tracing on or off.
    pub obs: Obs,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            workers: 0,
            eval_workers: 0,
            deadline: None,
            grace: Duration::from_millis(100),
            retry: RetryPolicy::default(),
            faults: FaultPlan::default(),
            checkpoint: None,
            fsync_every: 32,
            shared_cache: true,
            obs: Obs::noop(),
        }
    }
}

/// Campaign-wide counters reported alongside the outcomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CampaignStats {
    /// Evaluations served from the shared cache instead of being re-run.
    pub shared_cache_hits: u64,
    /// Shared-cache lookups that missed (each typically followed by a
    /// fresh run that then populates the cache).
    pub shared_cache_misses: u64,
}

/// The final fate of one campaign cell.
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// The job as submitted.
    pub job: Job,
    /// How many attempts were spent (0 when restored from a checkpoint).
    pub attempts: u32,
    /// Whether the result was restored from the run-state journal instead
    /// of being executed.
    pub from_checkpoint: bool,
    /// The result, or the typed error of the *last* attempt.
    pub outcome: Result<JobResult, JobError>,
}

impl JobOutcome {
    /// Convenience accessor for the successful result, if any.
    pub fn result(&self) -> Option<&JobResult> {
        self.outcome.as_ref().ok()
    }
}

/// Locks a mutex, recovering the data if a previous holder panicked. The
/// slot values are plain `Option`s written in one step, so a poisoned
/// lock cannot hold a torn value.
fn lock_recovering<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs one job to completion under the campaign's retry policy.
/// `parent` is the campaign's per-job span id, threaded through so the
/// evaluator's spans nest under it in the trace.
fn run_with_retry(
    index: usize,
    job: &Job,
    opts: &CampaignOptions,
    shared: Option<&Arc<SharedEvalCache>>,
    parent: Option<u64>,
    watchdog: Option<&Watchdog>,
    pool: Option<&Pool>,
) -> (u32, Result<JobResult, JobError>) {
    let obs = &opts.obs;
    let max = opts.retry.max_attempts.max(1);
    // One token per job, reset per attempt: the reset bumps the token's
    // generation, so a watchdog fire aimed at a finished attempt can never
    // cancel the retry that reuses the token.
    let token = watchdog.map(|_| CancelToken::new());
    let mut attempt = 0;
    loop {
        attempt += 1;
        let fault = opts.faults.fault_for(index, attempt);
        obs.event(
            "job.attempt",
            &[
                ("job", Value::U64(index as u64)),
                ("attempt", Value::U64(u64::from(attempt))),
                (
                    "fault",
                    fault.map_or(Value::Str("none"), |f| Value::Str(f.label())),
                ),
            ],
        );
        let watch = match (watchdog, &token) {
            (Some(watchdog), Some(token)) => {
                token.reset();
                Some(watchdog.watch(index, attempt, token))
            }
            _ => None,
        };
        let outcome = job.execute_observed(
            opts.deadline,
            fault,
            shared,
            obs,
            parent,
            opts.eval_workers,
            token.as_ref(),
        );
        // Deregister before classifying: once the attempt's fate is known
        // the watchdog must not fire at (or quarantine for) it.
        drop(watch);
        if let Err(e) = &outcome {
            obs.event(
                "job.error",
                &[
                    ("job", Value::U64(index as u64)),
                    ("attempt", Value::U64(u64::from(attempt))),
                    ("code", Value::Str(e.code())),
                ],
            );
        }
        let retry = match &outcome {
            Ok(_) => false,
            Err(e) => e.is_transient() && attempt < max,
        };
        if !retry {
            return (attempt, outcome);
        }
        // A retry would run right here, on this thread — but if the
        // watchdog handed this worker's deque slot to a replacement while
        // the attempt was in flight, the thread is abandoned: a retry
        // would burn a detached thread's CPU for another full deadline
        // (its fresh token generation is out of the stale fire's reach)
        // and hold the batch open the whole time. The transient failure
        // becomes the job's final outcome instead.
        if pool.is_some_and(Pool::detach_current) {
            obs.counter_add("campaign.retry_detached", 1);
            obs.event(
                "job.retry_detached",
                &[
                    ("job", Value::U64(index as u64)),
                    ("attempt", Value::U64(u64::from(attempt))),
                ],
            );
            return (attempt, outcome);
        }
        obs.counter_add("campaign.retries", 1);
        let delay = opts.retry.delay_for(index, attempt);
        if !delay.is_zero() {
            obs.event(
                "job.backoff",
                &[
                    ("job", Value::U64(index as u64)),
                    ("delay_ms", Value::U64(delay.as_millis() as u64)),
                ],
            );
            std::thread::sleep(delay);
        }
    }
}

/// Runs one campaign cell to completion on the current thread: retry
/// policy, fault injection, deadline, shared cache and watchdog
/// registration exactly as inside [`run_campaign`]. This is the
/// entry point the long-lived campaign service uses to interleave cells
/// from *different* campaigns (each with its own options, cache and
/// watchdog) on one shared pool — the outcome for a given `(job, opts)`
/// pair is bit-identical to the one [`run_campaign`] would report for the
/// same cell.
///
/// `index` is the cell's index within its own campaign (it selects the
/// fault from `opts.faults` and seeds retry jitter); `parent` optionally
/// nests the evaluator's spans under a caller-opened span; `pool` is the
/// pool the caller is running on, used only to suppress retries on a
/// quarantined (detached) worker thread. Returns `(attempts, outcome)`.
pub fn run_cell(
    index: usize,
    job: &Job,
    opts: &CampaignOptions,
    cache: Option<&Arc<SharedEvalCache>>,
    parent: Option<u64>,
    watchdog: Option<&Watchdog>,
    pool: Option<&Pool>,
) -> (u32, Result<JobResult, JobError>) {
    run_with_retry(index, job, opts, cache, parent, watchdog, pool)
}

/// Runs a campaign: `jobs` fanned out over a thread pool with panic
/// isolation, deadlines, retry, optional fault injection and optional
/// checkpoint/resume. Returns one [`JobOutcome`] per job, in submission
/// order — failed cells are reported, never dropped, and a failure in one
/// cell never aborts the rest of the campaign.
pub fn run_campaign(jobs: &[Job], opts: &CampaignOptions) -> Vec<JobOutcome> {
    run_campaign_with_stats(jobs, opts).0
}

/// [`run_campaign`] plus campaign-wide counters: shared-cache hit/miss
/// totals for the report. The outcomes are identical to [`run_campaign`]'s.
pub fn run_campaign_with_stats(
    jobs: &[Job],
    opts: &CampaignOptions,
) -> (Vec<JobOutcome>, CampaignStats) {
    if jobs.is_empty() {
        return (Vec::new(), CampaignStats::default());
    }
    let mut restored: Vec<Option<Result<JobResult, JobError>>> = vec![None; jobs.len()];
    let journal = match &opts.checkpoint {
        None => None,
        Some(path) => match Journal::open(path, jobs, opts.fsync_every) {
            Ok((journal, state)) => {
                for (index, result) in state.completed {
                    restored[index] = Some(Ok(result));
                }
                // Permanent failures are restored too: a resumed campaign
                // reports the historical FAILED cell instead of burning a
                // cluster slot on a deterministic failure. (Transient
                // failures are never journaled and re-run.)
                for (index, error) in state.failed {
                    if restored[index].is_none() {
                        restored[index] = Some(Err(error));
                    }
                }
                Some(Mutex::new(journal))
            }
            Err(err) => {
                eprintln!(
                    "warning: cannot open run-state journal {}: {err}; continuing without checkpointing",
                    path.display()
                );
                None
            }
        },
    };

    let cache = if opts.shared_cache {
        // With a checkpoint journal in play, the cache persists next to it
        // (`<checkpoint>.cache.jsonl`, same job-list fingerprint), so a
        // resumed campaign starts warm. Hits still consume budget, so the
        // reported numbers never depend on the journal's existence.
        Some(Arc::new(match &opts.checkpoint {
            Some(path) => {
                let mut cache_path = path.as_os_str().to_os_string();
                cache_path.push(".cache.jsonl");
                SharedEvalCache::with_persistence(
                    std::path::Path::new(&cache_path),
                    &crate::checkpoint::fingerprint(jobs),
                    opts.fsync_every,
                )
            }
            None => SharedEvalCache::new(),
        }))
    } else {
        None
    };

    // The pool is deliberately NOT capped at `jobs.len()`: a two-job
    // campaign with eight workers wants the six "spare" workers stealing
    // the jobs' inner evaluator batches, which run on this same pool.
    let workers = if opts.workers == 0 {
        default_workers()
    } else {
        opts.workers
    }
    .max(1);

    let obs = &opts.obs;
    obs.event(
        "campaign.start",
        &[
            ("jobs", Value::U64(jobs.len() as u64)),
            ("workers", Value::U64(workers as u64)),
        ],
    );
    // One pool for the whole campaign (see run_batch below); created up
    // front so the watchdog can quarantine its workers.
    let pool = (workers > 1).then(|| Pool::new(workers, opts.obs.clone()));
    let watchdog = opts
        .deadline
        .map(|deadline| Watchdog::new(deadline, opts.grace, pool.clone(), opts.obs.clone()));
    let slots: Vec<Mutex<Option<(u32, Result<JobResult, JobError>)>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let restored = &restored;
    let journal = journal.as_ref();
    let cache = cache.as_ref();
    let watchdog_ref = watchdog.as_ref();
    let pool_ref = pool.as_ref();
    let run_job = |i: usize| {
        if restored[i].is_some() {
            obs.event("job.restored", &[("job", Value::U64(i as u64))]);
            return; // already completed in a previous run
        }
        let span = obs.span(
            "job",
            &[
                ("job", Value::U64(i as u64)),
                ("benchmark", Value::S(jobs[i].benchmark.clone())),
                ("algorithm", Value::S(jobs[i].algorithm.clone())),
            ],
        );
        let (attempts, outcome) =
            run_with_retry(i, &jobs[i], opts, cache, span.id(), watchdog_ref, pool_ref);
        obs.observe("campaign.attempts", u64::from(attempts));
        obs.counter_add(
            if outcome.is_ok() {
                "campaign.completed"
            } else {
                "campaign.failures"
            },
            1,
        );
        span.end_with(&[
            ("attempts", Value::U64(u64::from(attempts))),
            ("ok", Value::Bool(outcome.is_ok())),
        ]);
        if let Some(journal) = journal {
            let written = match &outcome {
                Ok(result) => lock_recovering(journal).record(i, &jobs[i], result),
                // Only permanent failures are journaled — a
                // transient crash or timeout deserves a fresh try
                // on resume.
                Err(e) if !e.is_transient() => {
                    lock_recovering(journal).record_failure(i, &jobs[i], e)
                }
                Err(_) => Ok(()),
            };
            if let Err(err) = written {
                eprintln!("warning: run-state journal write failed: {err}");
            }
        }
        *lock_recovering(&slots[i]) = Some((attempts, outcome));
    };
    match &pool {
        // One pool for the whole campaign: cells fan out here, and every
        // evaluator batch nested inside a cell joins this pool through the
        // ambient [`Pool::current`] context instead of spawning its own
        // threads — the fix for the old W×W oversubscription.
        Some(pool) => pool.run_batch(jobs.len(), run_job),
        None => (0..jobs.len()).for_each(run_job),
    }
    // Supervision first (joins the watchdog thread, which holds a pool
    // handle), then the pool itself.
    drop(watchdog);
    drop(pool);

    // Campaign-completion durability point: whatever the periodic fsync
    // cadence left unsynced reaches disk before the results are reported.
    if let Some(journal) = journal {
        if let Err(err) = lock_recovering(journal).sync() {
            eprintln!("warning: run-state journal fsync failed: {err}");
        }
    }
    if let Some(cache) = cache {
        cache.sync();
    }

    let stats = CampaignStats {
        shared_cache_hits: cache.map_or(0, |c| c.hits()),
        shared_cache_misses: cache.map_or(0, |c| c.misses()),
    };
    if let Some(cache) = cache {
        obs.counter_add("cache.hits", cache.hits());
        obs.counter_add("cache.misses", cache.misses());
        for (i, shard) in cache.shard_stats().iter().enumerate() {
            if shard.hits == 0 && shard.misses == 0 && shard.inserts == 0 {
                continue;
            }
            obs.event(
                "cache.shard",
                &[
                    ("shard", Value::U64(i as u64)),
                    ("hits", Value::U64(shard.hits)),
                    ("misses", Value::U64(shard.misses)),
                    ("inserts", Value::U64(shard.inserts)),
                ],
            );
        }
    }
    obs.event(
        "campaign.end",
        &[
            ("jobs", Value::U64(jobs.len() as u64)),
            ("cache_hits", Value::U64(stats.shared_cache_hits)),
        ],
    );
    let outcomes = jobs
        .iter()
        .enumerate()
        .map(|(i, job)| {
            if let Some(outcome) = restored[i].clone() {
                return JobOutcome {
                    job: job.clone(),
                    attempts: 0,
                    from_checkpoint: true,
                    outcome,
                };
            }
            let slot = lock_recovering(&slots[i]).take();
            // A missing slot means the worker thread died between claiming
            // the index and storing the outcome — degrade to a typed error
            // rather than bringing the campaign down.
            let (attempts, outcome) = slot.unwrap_or_else(|| {
                (
                    0,
                    Err(JobError::Panicked(
                        "worker thread lost before storing a result".to_string(),
                    )),
                )
            });
            JobOutcome {
                job: job.clone(),
                attempts,
                from_checkpoint: false,
                outcome,
            }
        })
        .collect();
    (outcomes, stats)
}

/// Runs `jobs` on up to `workers` threads with default campaign options
/// (no deadline, no retry, no faults, no checkpoint) and returns their
/// outcomes in submission order. `workers == 0` picks
/// [`default_workers`].
pub fn run_jobs(jobs: &[Job], workers: usize) -> Vec<JobOutcome> {
    run_campaign(
        jobs,
        &CampaignOptions {
            workers,
            ..CampaignOptions::default()
        },
    )
}

/// A sensible worker count for the current machine: the `MIXP_WORKERS`
/// environment variable when set to a positive integer, otherwise the
/// machine's available parallelism. Parsing (and the warn-once on an
/// invalid value) is shared with the evaluator via
/// [`mixp_pool::env_workers`], so one knob sizes one pool everywhere.
pub fn default_workers() -> usize {
    mixp_pool::env_workers().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultplan::Fault;
    use crate::registry::Scale;

    fn small_jobs(names: &[&str], algo: &str) -> Vec<Job> {
        names
            .iter()
            .map(|b| Job::new(b, algo, 1e-3, Scale::Small))
            .collect()
    }

    #[test]
    fn results_preserve_submission_order() {
        let jobs = small_jobs(&["tridiag", "innerprod", "eos", "hydro-1d"], "DD");
        let results = run_jobs(&jobs, 3);
        let names: Vec<&str> = results.iter().map(|r| r.job.benchmark.as_str()).collect();
        assert_eq!(names, vec!["tridiag", "innerprod", "eos", "hydro-1d"]);
        assert!(results.iter().all(|o| o.outcome.is_ok()));
        assert!(results.iter().all(|o| o.attempts == 1));
    }

    #[test]
    fn parallel_matches_serial() {
        let jobs = small_jobs(&["tridiag", "eos"], "CB");
        let serial = run_jobs(&jobs, 1);
        let parallel = run_jobs(&jobs, 2);
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.result().unwrap(), p.result().unwrap());
            assert_eq!(s.result.evaluated, p.result.evaluated);
            assert_eq!(s.result.speedup(), p.result.speedup());
        }
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(run_jobs(&[], 4).is_empty());
        assert!(run_campaign(&[], &CampaignOptions::default()).is_empty());
    }

    #[test]
    fn zero_workers_falls_back_to_default() {
        let jobs = small_jobs(&["tridiag"], "CM");
        let results = run_jobs(&jobs, 0);
        assert_eq!(results.len(), 1);
        assert!(results[0].outcome.is_ok());
    }

    #[test]
    fn default_workers_positive() {
        assert!(default_workers() > 0);
    }

    #[test]
    fn backoff_jitter_is_reproducible_and_bounded() {
        let policy = RetryPolicy {
            max_attempts: 4,
            backoff: Duration::from_millis(10),
            jitter_seed: 0xDEAD_BEEF,
        };
        for index in 0..8 {
            for attempt in 1..4u32 {
                let a = policy.delay_for(index, attempt);
                let b = policy.delay_for(index, attempt);
                assert_eq!(a, b, "same (seed, index, attempt) must sleep the same");
                let base = Duration::from_millis(10) * (1u32 << (attempt - 1));
                assert!(a >= base.mul_f64(0.5), "jitter below half the base: {a:?}");
                assert!(a < base.mul_f64(1.5), "jitter at or above 1.5x base: {a:?}");
            }
        }
        // Different seeds must actually change the schedule somewhere.
        let other = RetryPolicy {
            jitter_seed: 0xBADC_0FFE,
            ..policy
        };
        assert!(
            (0..8).any(|i| policy.delay_for(i, 1) != other.delay_for(i, 1)),
            "distinct seeds produced an identical schedule"
        );
        // Seed 0 keeps the historical deterministic exponential backoff.
        let plain = RetryPolicy {
            jitter_seed: 0,
            ..policy
        };
        assert_eq!(plain.delay_for(3, 1), Duration::from_millis(10));
        assert_eq!(plain.delay_for(3, 3), Duration::from_millis(40));
        // And zero backoff never sleeps, jittered or not.
        assert_eq!(RetryPolicy::attempts(5).delay_for(0, 2), Duration::ZERO);
    }

    #[test]
    fn faulted_job_fails_without_sinking_campaign() {
        let jobs = small_jobs(&["tridiag", "innerprod", "eos"], "DD");
        let opts = CampaignOptions {
            workers: 2,
            faults: FaultPlan::new().inject(1, Fault::Panic { at_eval: 0 }, u32::MAX),
            ..CampaignOptions::default()
        };
        let results = run_campaign(&jobs, &opts);
        assert!(results[0].outcome.is_ok());
        assert!(matches!(results[1].outcome, Err(JobError::Panicked(_))));
        assert!(results[2].outcome.is_ok());
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        let jobs = small_jobs(&["tridiag"], "DD");
        // Fault fires on attempt 1 only; retry budget allows a second try.
        let opts = CampaignOptions {
            workers: 1,
            retry: RetryPolicy::attempts(2),
            faults: FaultPlan::new().inject(0, Fault::Panic { at_eval: 0 }, 1),
            ..CampaignOptions::default()
        };
        let results = run_campaign(&jobs, &opts);
        assert_eq!(results[0].attempts, 2);
        assert!(results[0].outcome.is_ok(), "second attempt must succeed");
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let jobs = vec![Job::new("no-such-bench", "DD", 1e-3, Scale::Small)];
        let opts = CampaignOptions {
            workers: 1,
            retry: RetryPolicy::attempts(5),
            ..CampaignOptions::default()
        };
        let results = run_campaign(&jobs, &opts);
        assert_eq!(results[0].attempts, 1, "unknown benchmark is permanent");
        assert!(matches!(
            results[0].outcome,
            Err(JobError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn starved_budget_is_typed_not_retried() {
        let jobs = small_jobs(&["tridiag"], "DD");
        let opts = CampaignOptions {
            workers: 1,
            retry: RetryPolicy::attempts(3),
            faults: FaultPlan::new().inject(0, Fault::StarveBudget, u32::MAX),
            ..CampaignOptions::default()
        };
        let results = run_campaign(&jobs, &opts);
        assert_eq!(results[0].attempts, 1);
        assert!(matches!(
            results[0].outcome,
            Err(JobError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn checkpoint_resume_skips_completed_cells() {
        let mut path = std::env::temp_dir();
        path.push(format!("mixp-sched-ckpt-{}", std::process::id()));
        std::fs::remove_file(&path).ok();
        let jobs = small_jobs(&["tridiag", "innerprod"], "DD");
        let first = run_campaign(
            &jobs,
            &CampaignOptions {
                workers: 2,
                checkpoint: Some(path.clone()),
                ..CampaignOptions::default()
            },
        );
        assert!(first.iter().all(|o| o.outcome.is_ok()));
        assert!(first.iter().all(|o| !o.from_checkpoint));
        let second = run_campaign(
            &jobs,
            &CampaignOptions {
                workers: 2,
                checkpoint: Some(path.clone()),
                ..CampaignOptions::default()
            },
        );
        assert!(second.iter().all(|o| o.from_checkpoint));
        assert!(second.iter().all(|o| o.attempts == 0));
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(
                a.result().unwrap().result.evaluated,
                b.result().unwrap().result.evaluated
            );
        }
        // The shared cache persists next to the journal.
        let mut cache_path = path.as_os_str().to_os_string();
        cache_path.push(".cache.jsonl");
        assert!(
            std::path::Path::new(&cache_path).exists(),
            "cache journal must sit next to the checkpoint"
        );
        std::fs::remove_file(&cache_path).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn shared_cache_hits_across_algorithms_without_changing_results() {
        // Six algorithms over one benchmark probe overlapping configs; the
        // campaign cache must convert those overlaps into hits while the
        // reported results stay bit-identical to a cache-less campaign.
        let jobs: Vec<Job> = ["CB", "CM", "DD", "HR", "HC", "GA"]
            .iter()
            .map(|a| Job::new("eos", a, 1e-3, Scale::Small))
            .collect();
        let (cached, stats) = run_campaign_with_stats(
            &jobs,
            &CampaignOptions {
                workers: 2,
                ..CampaignOptions::default()
            },
        );
        assert!(
            stats.shared_cache_hits > 0,
            "expected cross-algorithm hits, got {stats:?}"
        );
        let (plain, off_stats) = run_campaign_with_stats(
            &jobs,
            &CampaignOptions {
                workers: 2,
                shared_cache: false,
                ..CampaignOptions::default()
            },
        );
        assert_eq!(off_stats, CampaignStats::default());
        for (a, b) in cached.iter().zip(&plain) {
            let (a, b) = (a.result().unwrap(), b.result().unwrap());
            assert_eq!(a.result.evaluated, b.result.evaluated);
            assert_eq!(
                a.result.speedup().map(f64::to_bits),
                b.result.speedup().map(f64::to_bits)
            );
            assert_eq!(
                a.result.quality().map(f64::to_bits),
                b.result.quality().map(f64::to_bits)
            );
        }
    }

    #[test]
    fn permanent_failures_are_journaled_and_restored_on_resume() {
        let mut path = std::env::temp_dir();
        path.push(format!("mixp-sched-ckpt-perm-{}", std::process::id()));
        std::fs::remove_file(&path).ok();
        let jobs = vec![
            Job::new("tridiag", "DD", 1e-3, Scale::Small),
            Job::new("no-such-bench", "DD", 1e-3, Scale::Small),
        ];
        let opts = CampaignOptions {
            workers: 1,
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        };
        let first = run_campaign(&jobs, &opts);
        assert!(first[0].outcome.is_ok());
        assert!(matches!(
            first[1].outcome,
            Err(JobError::UnknownBenchmark(_))
        ));
        // Resume: both cells restore from the journal — the deterministic
        // failure is reported, not re-run.
        let second = run_campaign(&jobs, &opts);
        assert!(second.iter().all(|o| o.from_checkpoint));
        assert!(second.iter().all(|o| o.attempts == 0));
        assert!(second[0].outcome.is_ok());
        match &second[1].outcome {
            Err(JobError::UnknownBenchmark(name)) => assert_eq!(name, "no-such-bench"),
            other => panic!("expected restored UnknownBenchmark, got {other:?}"),
        }
        let mut cache_path = path.as_os_str().to_os_string();
        cache_path.push(".cache.jsonl");
        std::fs::remove_file(&cache_path).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_cells_are_not_checkpointed_and_rerun_on_resume() {
        let mut path = std::env::temp_dir();
        path.push(format!("mixp-sched-ckpt-fail-{}", std::process::id()));
        std::fs::remove_file(&path).ok();
        let jobs = small_jobs(&["tridiag", "innerprod"], "DD");
        let faulty = CampaignOptions {
            workers: 1,
            faults: FaultPlan::new().inject(1, Fault::Panic { at_eval: 0 }, u32::MAX),
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        };
        let first = run_campaign(&jobs, &faulty);
        assert!(first[0].outcome.is_ok());
        assert!(first[1].outcome.is_err());
        // Resume without the fault: cell 0 restores, cell 1 re-runs clean.
        let clean = CampaignOptions {
            workers: 1,
            checkpoint: Some(path.clone()),
            ..CampaignOptions::default()
        };
        let second = run_campaign(&jobs, &clean);
        assert!(second[0].from_checkpoint);
        assert!(!second[1].from_checkpoint);
        assert!(second[1].outcome.is_ok());
        let mut cache_path = path.as_os_str().to_os_string();
        cache_path.push(".cache.jsonl");
        std::fs::remove_file(&cache_path).ok();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn campaign_trace_covers_jobs_retries_and_cache() {
        let obs = Obs::in_memory();
        let jobs = small_jobs(&["tridiag", "innerprod", "eos"], "DD");
        let opts = CampaignOptions {
            workers: 2,
            retry: RetryPolicy::attempts(2),
            faults: FaultPlan::new().inject(1, Fault::Panic { at_eval: 0 }, 1),
            obs: obs.clone(),
            ..CampaignOptions::default()
        };
        let results = run_campaign(&jobs, &opts);
        assert!(results.iter().all(|o| o.outcome.is_ok()));
        let lines = obs.trace_lines();
        let text = lines.join("\n");
        for needle in [
            "campaign.start",
            "\"job\"",
            "job.attempt",
            "job.error",
            "eval",
            "cache.shard",
            "campaign.end",
        ] {
            assert!(text.contains(needle), "trace missing {needle}");
        }
        let snap = obs.metrics_snapshot().expect("enabled obs has metrics");
        assert_eq!(snap.counters.get("campaign.retries"), Some(&1));
        assert_eq!(snap.counters.get("campaign.completed"), Some(&3));
        assert!(snap.counters.get("evaluator.runs").copied().unwrap_or(0) > 0);
        assert!(snap.histograms.contains_key("campaign.attempts"));
    }

    #[test]
    fn tracing_does_not_change_campaign_results() {
        let jobs = small_jobs(&["eos", "hydro-1d"], "GA");
        let plain = run_campaign(&jobs, &CampaignOptions::default());
        let traced = run_campaign(
            &jobs,
            &CampaignOptions {
                obs: Obs::in_memory(),
                ..CampaignOptions::default()
            },
        );
        for (a, b) in plain.iter().zip(&traced) {
            let (a, b) = (a.result().unwrap(), b.result().unwrap());
            assert_eq!(a.result.evaluated, b.result.evaluated);
            assert_eq!(
                a.result.speedup().map(f64::to_bits),
                b.result.speedup().map(f64::to_bits)
            );
        }
    }
}
