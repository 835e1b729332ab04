//! The campaign watchdog: preemptive deadlines with worker quarantine.
//!
//! The evaluator's cooperative deadline only helps when the job keeps
//! reaching a check point; a wedged variant run (infinite loop, blocking
//! sleep) never does. The watchdog closes that gap from outside the job:
//! each attempt registers its [`CancelToken`] here, the watchdog thread
//! observes the token's heartbeat counter, and when a job is both past its
//! deadline *and* heartbeat-silent for a grace period the token is fired —
//! the run unwinds at its next cancellation point and surfaces as
//! `JobError::DeadlineExceeded`. If the job *still* has not deregistered a
//! further grace period after the fire (it never reached a cancellation
//! point — truly wedged), the worker thread it registered from is
//! quarantined: [`Pool::quarantine_worker`] hands its deque to a fresh
//! replacement and the wedged thread is abandoned.
//!
//! This module hosts the **only** `thread::spawn` outside `crates/pool`
//! (enforced by `scripts/check_hermetic.sh`): exactly one watchdog thread
//! per campaign, joined on drop.
//!
//! Determinism: the watchdog observes and fires tokens, nothing else. A
//! campaign whose jobs all finish inside their deadline never has a token
//! fired, so its results are bit-identical to a watchdog-less run —
//! property-tested in `tests/integration_watchdog.rs`.

use mixp_core::{CancelToken, Obs, Value};
use mixp_pool::Pool;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering the data if a previous holder panicked — the
/// watchdog state is updated in single steps, so it cannot hold torn data.
fn lock_recovering<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One watched job attempt.
struct Registration {
    /// Campaign job index, for events.
    job: usize,
    /// 1-based attempt number, for events.
    attempt: u32,
    /// The attempt's cancel token; fired via [`CancelToken::fire_if`] so a
    /// stale fire can never hit the *next* attempt's fresh generation.
    token: CancelToken,
    /// Token generation captured at registration.
    generation: u64,
    /// When the attempt was registered.
    started: Instant,
    /// Heartbeat counter at the last observation.
    last_beats: u64,
    /// When the heartbeat counter last changed (registration counts).
    last_change: Instant,
    /// When the token was fired, if it was.
    fired_at: Option<Instant>,
    /// Whether quarantine was already decided for this registration.
    quarantined: bool,
    /// The pool worker slot the attempt registered from, if it runs on a
    /// current (non-detached) pool worker. `None` for the batch caller,
    /// sequential campaigns, and retries running on a detached thread.
    worker: Option<usize>,
}

struct State {
    regs: HashMap<u64, Registration>,
    /// Slots already handed to a replacement — each deque slot is
    /// quarantined at most once per campaign, bounding extra threads at
    /// one replacement per configured worker.
    quarantined_slots: HashSet<usize>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the watchdog thread for new registrations and shutdown.
    wake: Condvar,
    deadline: Duration,
    grace: Duration,
    /// The campaign pool, for quarantining; `None` on sequential
    /// campaigns (tokens still fire, there is just no worker to replace).
    pool: Option<Pool>,
    obs: Obs,
}

/// Deregisters its job attempt when dropped, so a completed (or unwound)
/// attempt can never be fired at or quarantined afterwards.
pub struct WatchGuard {
    shared: Arc<Shared>,
    id: u64,
}

impl Drop for WatchGuard {
    fn drop(&mut self) {
        let mut state = lock_recovering(&self.shared.state);
        state.regs.remove(&self.id);
    }
}

/// One watchdog thread supervising every in-flight job attempt of a
/// campaign. Created by the scheduler when a campaign has a deadline;
/// dropping it shuts the thread down and joins it.
pub struct Watchdog {
    shared: Arc<Shared>,
    next_id: AtomicU64,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    /// Starts the watchdog thread. `deadline` is the per-job wall-clock
    /// limit after which a heartbeat-silent job is cancelled; `grace` is
    /// both the required silence before firing and the post-fire wait
    /// before the worker is quarantined. `pool` is the campaign pool, if
    /// the campaign runs one.
    ///
    /// Thread-spawn failure degrades rather than dies: a warning is
    /// printed and the watchdog becomes inert (jobs still honour their
    /// cooperative deadline).
    pub fn new(deadline: Duration, grace: Duration, pool: Option<Pool>, obs: Obs) -> Watchdog {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                regs: HashMap::new(),
                quarantined_slots: HashSet::new(),
                shutdown: false,
            }),
            wake: Condvar::new(),
            deadline,
            grace: grace.max(Duration::from_millis(1)),
            pool,
            obs,
        });
        let thread_shared = Arc::clone(&shared);
        let spawned = std::thread::Builder::new()
            .name("mixp-watchdog".to_string())
            .spawn(move || supervise(&thread_shared));
        let handle = match spawned {
            Ok(handle) => Some(handle),
            Err(err) => {
                eprintln!(
                    "warning: watchdog thread failed to spawn ({err}); \
                     preemptive deadlines degrade to cooperative only"
                );
                None
            }
        };
        Watchdog {
            shared,
            next_id: AtomicU64::new(0),
            handle,
        }
    }

    /// Registers one job attempt. The token's *current* generation is
    /// captured, so the caller must [`CancelToken::reset`] before watching
    /// a retry. The returned guard deregisters on drop — keep it alive for
    /// exactly the duration of the attempt.
    pub fn watch(&self, job: usize, attempt: u32, token: &CancelToken) -> WatchGuard {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let now = Instant::now();
        let worker = self.shared.pool.as_ref().and_then(Pool::active_worker);
        let registration = Registration {
            job,
            attempt,
            token: token.clone(),
            generation: token.generation(),
            started: now,
            last_beats: token.heartbeats(),
            last_change: now,
            fired_at: None,
            quarantined: false,
            worker,
        };
        {
            let mut state = lock_recovering(&self.shared.state);
            state.regs.insert(id, registration);
        }
        self.shared.wake.notify_all();
        WatchGuard {
            shared: Arc::clone(&self.shared),
            id,
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        {
            let mut state = lock_recovering(&self.shared.state);
            state.shutdown = true;
        }
        self.shared.wake.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The watchdog thread body: sleep-check loop over every registration.
fn supervise(shared: &Shared) {
    // Tick fast enough to resolve the grace period but never busier than
    // once a millisecond; idle (no registrations) parks on the condvar.
    let tick = (shared.grace / 4).clamp(Duration::from_millis(1), Duration::from_millis(25));
    let mut state = lock_recovering(&shared.state);
    loop {
        if state.shutdown {
            return;
        }
        if state.regs.is_empty() {
            state = shared
                .wake
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            continue;
        }
        let now = Instant::now();
        let mut to_quarantine: Vec<(usize, u32, usize)> = Vec::new();
        for registration in state.regs.values_mut() {
            let beats = registration.token.heartbeats();
            if beats != registration.last_beats {
                // The job is making progress; a long attempt that keeps
                // beating is the cooperative deadline's business, not ours.
                registration.last_beats = beats;
                registration.last_change = now;
                continue;
            }
            match registration.fired_at {
                None => {
                    if now.duration_since(registration.started) >= shared.deadline
                        && now.duration_since(registration.last_change) >= shared.grace
                    {
                        if registration.token.fire_if(registration.generation) {
                            shared.obs.counter_add("watchdog.fired", 1);
                            shared.obs.event(
                                "watchdog.fire",
                                &[
                                    ("job", Value::U64(registration.job as u64)),
                                    ("attempt", Value::U64(u64::from(registration.attempt))),
                                ],
                            );
                        }
                        registration.fired_at = Some(now);
                    }
                }
                Some(fired) => {
                    if !registration.quarantined && now.duration_since(fired) >= shared.grace {
                        registration.quarantined = true;
                        if let Some(worker) = registration.worker {
                            to_quarantine.push((registration.job, registration.attempt, worker));
                        }
                    }
                }
            }
        }
        for (job, attempt, worker) in to_quarantine {
            // Each slot is replaced at most once per campaign, even if
            // several wedged attempts registered from it over time.
            if !state.quarantined_slots.insert(worker) {
                continue;
            }
            let quarantined = shared
                .pool
                .as_ref()
                .is_some_and(|pool| pool.quarantine_worker(worker));
            if quarantined {
                shared.obs.counter_add("watchdog.quarantined", 1);
                shared.obs.event(
                    "watchdog.quarantine",
                    &[
                        ("job", Value::U64(job as u64)),
                        ("attempt", Value::U64(u64::from(attempt))),
                        ("worker", Value::U64(worker as u64)),
                    ],
                );
                // The slot's thread is abandoned from here on: nothing
                // joins it and the replacement re-runs nothing. Fire every
                // attempt still registered from the slot — normally a
                // no-op re-fire of the wedged attempt, but it pins the
                // invariant that a quarantined worker never carries a live
                // un-fired token, so cancellable computation the abandoned
                // thread reaches next unwinds at its first check instead
                // of running to completion unobserved.
                for registration in state.regs.values_mut() {
                    if registration.worker == Some(worker)
                        && registration.fired_at.is_none()
                        && registration.token.fire_if(registration.generation)
                    {
                        registration.fired_at = Some(Instant::now());
                        shared.obs.counter_add("watchdog.quarantine_fired", 1);
                        shared.obs.event(
                            "watchdog.quarantine_fire",
                            &[
                                ("job", Value::U64(registration.job as u64)),
                                ("attempt", Value::U64(u64::from(registration.attempt))),
                                ("worker", Value::U64(worker as u64)),
                            ],
                        );
                    }
                }
            }
        }
        let (guard, _timeout) = shared
            .wake
            .wait_timeout(state, tick)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state = guard;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_dog(deadline_ms: u64, grace_ms: u64) -> Watchdog {
        Watchdog::new(
            Duration::from_millis(deadline_ms),
            Duration::from_millis(grace_ms),
            None,
            Obs::noop(),
        )
    }

    #[test]
    fn silent_job_past_deadline_is_fired() {
        let dog = quick_dog(10, 5);
        let token = CancelToken::new();
        let _guard = dog.watch(0, 1, &token);
        let start = Instant::now();
        while !token.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(token.is_cancelled(), "watchdog never fired");
    }

    #[test]
    fn beating_job_is_never_fired() {
        // Wide margins on purpose: the whole workspace's test binaries run
        // concurrently, and this thread being descheduled for longer than
        // deadline+grace would fire the watchdog spuriously.
        let dog = quick_dog(50, 50);
        let token = CancelToken::new();
        let _guard = dog.watch(0, 1, &token);
        let start = Instant::now();
        while start.elapsed() < Duration::from_millis(200) {
            token.beat();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(
            !token.is_cancelled(),
            "heartbeats must hold the watchdog off"
        );
    }

    #[test]
    fn deregistered_job_is_left_alone() {
        let dog = quick_dog(5, 2);
        let token = CancelToken::new();
        let guard = dog.watch(0, 1, &token);
        drop(guard);
        std::thread::sleep(Duration::from_millis(40));
        assert!(!token.is_cancelled(), "dropped guard must deregister");
    }

    #[test]
    fn reset_token_on_retry_is_not_hit_by_a_stale_fire() {
        let dog = quick_dog(10, 5);
        let token = CancelToken::new();
        let guard = dog.watch(0, 1, &token);
        let start = Instant::now();
        while !token.is_cancelled() && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(guard);
        // The retry resets the token; the old generation's fire is spent.
        token.reset();
        assert!(!token.is_cancelled(), "reset must clear the fired flag");
    }

    #[test]
    fn watchdog_thread_shuts_down_on_drop() {
        let dog = quick_dog(1000, 100);
        let token = CancelToken::new();
        let guard = dog.watch(0, 1, &token);
        drop(guard);
        drop(dog); // must join promptly, not hang on the tick sleep
    }
}
