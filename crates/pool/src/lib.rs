//! `mixp_pool` — the hermetic work-stealing worker pool shared by the
//! campaign scheduler and the evaluator.
//!
//! # Why one pool
//!
//! The workspace has two parallel layers: `run_campaign` fans jobs out, and
//! every `Evaluator::evaluate_batch` inside a search fans configuration
//! runs out. Historically each layer spawned its own `MIXP_WORKERS` scoped
//! threads, so a nested campaign ran up to W×W live threads and DD/HR paid
//! thread-spawn cost on every small frontier. This crate replaces both with
//! one arena: campaign jobs and batch items are tasks in the same pool, so
//! one knob sizes one pool, nested parallelism composes without
//! oversubscription, and idle campaign workers steal batch items instead of
//! sitting blocked.
//!
//! # Shape
//!
//! A [`Pool`] of parallelism `p` spawns `p - 1` worker threads; the caller
//! of [`Pool::run_batch`] is the `p`-th participant. Each worker owns a
//! bounded Chase–Lev deque (owner pushes/pops LIFO at the bottom, thieves
//! steal FIFO at the top); a mutex-and-condvar **injector** accepts tasks
//! from threads that are not pool workers and is where idle workers park.
//! A batch enqueues up to `p - 1` *claimer* tasks over one shared claim
//! cursor ([`batch`] module), so distribution is per-item while queue
//! traffic is per-worker.
//!
//! A thread-local ambient handle ([`Pool::current`]) lets nested code —
//! an evaluator built inside a campaign job — join the pool it is already
//! running on instead of creating a second one.
//!
//! # Determinism
//!
//! The pool executes closures; it never reorders observable effects. Both
//! call sites keep their sequential admission/commit phases (the evaluator
//! charges budget and commits records in submission order; the scheduler
//! stores results by job index), so outcomes are bit-identical for any
//! worker count and any steal schedule — property-tested in the harness.
//!
//! Item panics are caught per item, the first payload is rethrown in the
//! batch caller (`resume_unwind`), and neither the pool nor its workers die
//! with it: job-level panic isolation keeps working unchanged.
//!
//! Zero dependencies outside the workspace; `mixp-obs` (itself
//! dependency-free) provides the gauges and counters that make the thread
//! accounting observable: `pool.live_threads`, `pool.peak_threads`,
//! `pool.created`, `pool.steals`, `pool.batches`,
//! `pool.injector_depth`.

mod batch;
mod deque;

use batch::{execute_claimer, lock_recovering, BatchShared};
use deque::Deque;
use mixp_obs::{Obs, Value};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Parses a `MIXP_WORKERS` value: `Ok(Some(n))` for a positive integer,
/// `Ok(None)` for unset/empty (caller picks its default), `Err(message)`
/// for anything else. Pure — the process-wide warn-once lives in
/// [`env_workers`].
pub fn parse_workers(raw: &str) -> Result<Option<usize>, String> {
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    match trimmed.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "ignoring invalid MIXP_WORKERS value {raw:?} (want a positive integer)"
        )),
    }
}

/// Prints `warning: {message}` to stderr unless `warned` was already set;
/// returns whether this call printed. Factored out so tests can drive a
/// local flag instead of the process-wide one.
fn warn_once_with(warned: &AtomicBool, message: &str) -> bool {
    if warned.swap(true, Ordering::Relaxed) {
        return false;
    }
    eprintln!("warning: {message}");
    true
}

/// The worker count implied by the `MIXP_WORKERS` environment variable:
/// `Some(n)` for a positive integer, `None` when unset — or invalid, in
/// which case a warning is printed **once per process** (the evaluator and
/// the scheduler historically disagreed here: one swallowed bad values
/// silently, the other warned on every call).
///
/// Callers pick their own `None` default: the evaluator falls back to `1`
/// (sequential, bit-identical to the historical evaluator), the scheduler
/// to the machine's available parallelism.
pub fn env_workers() -> Option<usize> {
    static WARNED: AtomicBool = AtomicBool::new(false);
    match std::env::var("MIXP_WORKERS") {
        Err(_) => None,
        Ok(raw) => match parse_workers(&raw) {
            Ok(n) => n,
            Err(message) => {
                warn_once_with(&WARNED, &message);
                None
            }
        },
    }
}

/// A task pointer travelling through the injector queue. Points at a
/// caller-stack `BatchShared` kept alive by the claimer latch.
#[derive(Clone, Copy, PartialEq, Eq)]
struct TaskPtr(*const BatchShared);
// Safety: BatchShared is designed for shared cross-thread access (atomics,
// mutex, condvar; the closure is `Fn + Sync`), and the pool protocol keeps
// the pointee alive until the task is consumed.
unsafe impl Send for TaskPtr {}

struct Injector {
    queue: VecDeque<TaskPtr>,
    shutdown: bool,
}

/// A worker thread's claim on one deque slot: the slot index plus the
/// ownership epoch the thread was spawned under. A quarantine bumps the
/// slot's epoch, so the wedged thread's claim goes stale and every owner-side
/// deque operation it attempts afterwards is refused (see
/// [`PoolInner::with_ownership`]).
#[derive(Clone, Copy, PartialEq, Eq)]
struct WorkerSlot {
    index: usize,
    epoch: usize,
}

struct PoolInner {
    deques: Vec<Deque>,
    /// Per-slot ownership epoch. Chase–Lev owner operations (push/pop at
    /// the bottom) are single-owner by contract; handing a deque from a
    /// wedged worker to its replacement is only sound if the old owner can
    /// never touch it again. Owner operations therefore run under this
    /// lock with an epoch check ([`PoolInner::with_ownership`]) and
    /// [`Pool::quarantine_worker`] bumps the epoch under the same lock —
    /// after the bump, the wedged thread's next attempt is refused
    /// atomically, with no check-then-touch window. The lock is
    /// uncontended in steady state and taken once per *task claim* (not
    /// per item), so it costs nothing measurable.
    owners: Vec<Mutex<usize>>,
    injector: Mutex<Injector>,
    work_available: Condvar,
    /// External `Pool` handles; the last drop shuts the workers down.
    handles: AtomicUsize,
    /// One join slot per worker index. A quarantine *drops* the wedged
    /// thread's handle (it may never exit; joining it would hang shutdown
    /// forever) and stores the replacement's handle in its place.
    join: Mutex<Vec<Option<std::thread::JoinHandle<()>>>>,
    live: AtomicUsize,
    peak: AtomicUsize,
    obs: Obs,
}

impl PoolInner {
    /// Pushes tasks into the injector and wakes parked workers. Always
    /// called — even when every task went to a worker's own deque — because
    /// the notification must be issued under the injector lock for parked
    /// workers' recheck-then-wait to be race-free.
    fn inject_and_notify(&self, tasks: &[TaskPtr]) {
        let mut injector = lock_recovering(&self.injector);
        injector.queue.extend(tasks.iter().copied());
        self.obs
            .gauge_set("pool.injector_depth", injector.queue.len() as f64);
        drop(injector);
        self.work_available.notify_all();
    }

    /// Runs an owner-side deque operation on `slot`'s deque, refusing it
    /// (returning `None`) if the slot's ownership epoch has moved on — i.e.
    /// the calling thread was quarantined and a replacement owns the deque
    /// now. The epoch check and the operation are atomic under the slot's
    /// owner lock, so a quarantined thread can never race the replacement
    /// on the single-owner bottom of the Chase–Lev deque.
    fn with_ownership<T>(&self, slot: WorkerSlot, op: impl FnOnce(&Deque) -> T) -> Option<T> {
        let owner = lock_recovering(&self.owners[slot.index]);
        if *owner != slot.epoch {
            return None;
        }
        Some(op(&self.deques[slot.index]))
    }

    /// The current ownership epoch of a deque slot.
    fn slot_epoch(&self, index: usize) -> usize {
        *lock_recovering(&self.owners[index])
    }

    /// One task for a worker: own deque first (LIFO — finish the newest
    /// batch), then the injector (coarse work from non-worker callers),
    /// then stealing the oldest task of a sibling.
    ///
    /// `Err(())` means the worker has been quarantined — its slot belongs
    /// to a replacement now and it must exit without touching the deque.
    fn find_task(&self, slot: WorkerSlot) -> Result<Option<*const BatchShared>, ()> {
        match self.with_ownership(slot, Deque::pop) {
            None => return Err(()),
            Some(Some(task)) => return Ok(Some(task)),
            Some(None) => {}
        }
        {
            let mut injector = lock_recovering(&self.injector);
            if let Some(task) = injector.queue.pop_front() {
                self.obs
                    .gauge_set("pool.injector_depth", injector.queue.len() as f64);
                return Ok(Some(task.0));
            }
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (slot.index + offset) % n;
            if let Some(task) = self.deques[victim].steal() {
                self.obs.counter_add("pool.steals", 1);
                return Ok(Some(task));
            }
        }
        Ok(None)
    }
}

/// Ambient pool context of the current thread: set for a worker thread's
/// whole life, and temporarily for an external caller while it participates
/// in one of its own batches.
struct Ctx {
    inner: Arc<PoolInner>,
    /// `Some(slot)` on pool worker threads, `None` for participants.
    worker: Option<WorkerSlot>,
}

thread_local! {
    static CURRENT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

/// Restores the previous ambient context when a participant leaves
/// `run_batch`.
struct ParticipantGuard {
    previous: Option<Option<Ctx>>,
}

impl ParticipantGuard {
    /// Makes `inner` the ambient pool for this thread unless it already is
    /// (worker thread, or re-entrant batch on the same pool). Returns the
    /// guard and this thread's worker slot on the pool, if any.
    fn enter(inner: &Arc<PoolInner>) -> (ParticipantGuard, Option<WorkerSlot>) {
        CURRENT.with(|current| {
            let mut slot = current.borrow_mut();
            if let Some(ctx) = slot.as_ref() {
                if Arc::ptr_eq(&ctx.inner, inner) {
                    return (ParticipantGuard { previous: None }, ctx.worker);
                }
            }
            let previous = slot.take();
            *slot = Some(Ctx {
                inner: Arc::clone(inner),
                worker: None,
            });
            (
                ParticipantGuard {
                    previous: Some(previous),
                },
                None,
            )
        })
    }
}

impl Drop for ParticipantGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            CURRENT.with(|current| *current.borrow_mut() = previous);
        }
    }
}

/// A work-stealing worker pool. Cheap to clone (handles share the workers);
/// dropping the last handle shuts the workers down and joins them.
pub struct Pool {
    inner: Arc<PoolInner>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("parallelism", &self.parallelism())
            .finish()
    }
}

impl Pool {
    /// Creates a pool of the given parallelism, reporting through `obs`.
    ///
    /// `parallelism` counts the batch **caller** as a participant, matching
    /// the meaning of `MIXP_WORKERS`: `p` spawns `p - 1` worker threads, so
    /// a nested campaign under `MIXP_WORKERS=4` holds at most 3 pool
    /// threads plus the calling thread. `parallelism <= 1` spawns no
    /// threads at all — `run_batch` degenerates to the sequential loop.
    pub fn new(parallelism: usize, obs: Obs) -> Pool {
        let threads = parallelism.saturating_sub(1);
        let inner = Arc::new(PoolInner {
            deques: (0..threads).map(|_| Deque::new()).collect(),
            owners: (0..threads).map(|_| Mutex::new(0)).collect(),
            injector: Mutex::new(Injector {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            work_available: Condvar::new(),
            handles: AtomicUsize::new(1),
            join: Mutex::new(Vec::new()),
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
            obs,
        });
        inner.obs.counter_add("pool.created", 1);
        let join = (0..threads)
            .map(|index| spawn_worker(&inner, index, 0))
            .collect();
        *lock_recovering(&inner.join) = join;
        Pool { inner }
    }

    /// A pool with no observability attached.
    pub fn sized(parallelism: usize) -> Pool {
        Pool::new(parallelism, Obs::noop())
    }

    /// The pool the current thread is running on, if any: its own pool for
    /// a worker thread, the batch's pool for a thread participating in one
    /// of its own batches. This is how a nested layer (the evaluator inside
    /// a campaign job) joins the campaign's arena instead of creating a
    /// second pool.
    pub fn current() -> Option<Pool> {
        CURRENT.with(|current| {
            current.borrow().as_ref().map(|ctx| {
                ctx.inner.handles.fetch_add(1, Ordering::Relaxed);
                Pool {
                    inner: Arc::clone(&ctx.inner),
                }
            })
        })
    }

    /// The configured parallelism: worker threads plus the caller.
    pub fn parallelism(&self) -> usize {
        self.inner.deques.len() + 1
    }

    /// The worker index of the calling thread on *some* pool, if it is a
    /// pool worker (participants and external threads get `None`). The
    /// harness's watchdog records this at job registration so it knows
    /// which worker to quarantine if the job wedges.
    pub fn current_worker() -> Option<usize> {
        CURRENT.with(|current| {
            current
                .borrow()
                .as_ref()
                .and_then(|ctx| ctx.worker.map(|slot| slot.index))
        })
    }

    /// The calling thread's worker index on **this** pool, provided its
    /// deque-slot claim is still current. Participants, external threads,
    /// workers of other pools, and — crucially — quarantined (detached)
    /// workers all get `None`. The harness watchdog records this at job
    /// registration: the epoch check keeps a retry attempt that happens to
    /// still be running on a detached thread from re-registering the
    /// already-quarantined slot and triggering a second quarantine.
    pub fn active_worker(&self) -> Option<usize> {
        CURRENT.with(|current| {
            current.borrow().as_ref().and_then(|ctx| {
                if !Arc::ptr_eq(&ctx.inner, &self.inner) {
                    return None;
                }
                ctx.worker
                    .filter(|slot| self.inner.slot_epoch(slot.index) == slot.epoch)
                    .map(|slot| slot.index)
            })
        })
    }

    /// Whether the calling thread is a pool worker whose deque slot has
    /// been handed to a replacement by [`Pool::quarantine_worker`]. A
    /// `true` return means the thread no longer owns its deque and will
    /// exit its worker loop at the next iteration; long-running item code
    /// can poll this to stop cooperating early.
    pub fn detach_current(&self) -> bool {
        CURRENT.with(|current| {
            current.borrow().as_ref().is_some_and(|ctx| {
                Arc::ptr_eq(&ctx.inner, &self.inner)
                    && ctx
                        .worker
                        .is_some_and(|slot| self.inner.slot_epoch(slot.index) != slot.epoch)
            })
        })
    }

    /// Abandons a wedged worker thread and spawns a replacement that takes
    /// over its deque slot. Called by the harness watchdog after a fired
    /// cancel token and a grace period both failed to bring the worker
    /// back.
    ///
    /// The handoff is race-free: the slot's ownership epoch is bumped
    /// under the owner lock, so the wedged thread's next owner-side deque
    /// operation is refused atomically and it exits its loop ("detaches")
    /// whenever — if ever — it returns from the wedged item. Its join
    /// handle is dropped (never joined; a truly wedged thread would hang
    /// shutdown), and any in-flight batch still waits for the wedged item
    /// itself: quarantine restores the pool's *capacity*, it cannot
    /// forcibly retire work whose state lives on caller stacks.
    ///
    /// Returns `false` for an out-of-range index (e.g. a sequential pool
    /// with no workers). Reported as the `pool.quarantined` counter and a
    /// `pool.quarantine` event.
    pub fn quarantine_worker(&self, index: usize) -> bool {
        let inner = &self.inner;
        if index >= inner.deques.len() {
            return false;
        }
        let epoch = {
            let mut owner = lock_recovering(&inner.owners[index]);
            *owner += 1;
            *owner
        };
        inner.obs.counter_add("pool.quarantined", 1);
        inner.obs.event(
            "pool.quarantine",
            &[
                ("worker", Value::U64(index as u64)),
                ("epoch", Value::U64(epoch as u64)),
            ],
        );
        let replacement = spawn_worker(inner, index, epoch);
        let mut join = lock_recovering(&inner.join);
        if let Some(slot) = join.get_mut(index) {
            // Dropping the old handle detaches the wedged thread; the OS
            // reclaims it at process exit if it never wakes.
            *slot = replacement;
        }
        true
    }

    /// Runs `f(0..len)` across the pool, returning when every item has
    /// finished. The caller participates (so parallelism `p` uses `p`
    /// threads total, not `p + 1`), items are claimed dynamically, and idle
    /// workers steal from busy ones.
    ///
    /// If any item panics, the first payload is rethrown here after the
    /// batch settles — matching what `std::thread::scope` did at the two
    /// historical call sites. Effect ordering across items is unspecified;
    /// both call sites commit observable state in submission order
    /// *outside* the batch, which is what keeps results bit-identical for
    /// any worker count.
    pub fn run_batch<F: Fn(usize) + Sync>(&self, len: usize, f: F) {
        if len == 0 {
            return;
        }
        let inner = &self.inner;
        if inner.deques.is_empty() {
            // Sequential pool: no threads, no ambient context — identical
            // to the historical workers == 1 loop, panics propagate as-is.
            for index in 0..len {
                f(index);
            }
            return;
        }
        // Even a single-item batch runs under the participant context so a
        // nested layer discovers this pool instead of spawning its own.
        let (_guard, my_worker) = ParticipantGuard::enter(inner);
        if len == 1 {
            f(0);
            return;
        }

        let claimers = inner.deques.len().min(len - 1);
        let shared = BatchShared::new(&f, len, claimers);
        let task = &shared as *const BatchShared;
        inner.obs.counter_add("pool.batches", 1);
        inner.obs.observe("pool.batch_items", len as u64);

        // Enqueue claimers: a worker-caller keeps them on its own deque
        // (thieves migrate them), an external caller routes them through
        // the injector. Either way the notify goes through the injector
        // lock so parked workers cannot miss it. A worker whose slot was
        // quarantined mid-batch has lost deque ownership and falls back to
        // the injector like an external caller.
        let mut overflow = 0usize;
        let owner = my_worker.filter(|&slot| {
            inner
                .with_ownership(slot, |deque| {
                    for _ in 0..claimers {
                        if deque.push(task).is_err() {
                            overflow += 1;
                        }
                    }
                })
                .is_some()
        });
        if owner.is_none() {
            overflow = claimers;
        }
        inner.inject_and_notify(&vec![TaskPtr(task); overflow]);

        // Participate until the cursor runs dry...
        shared.run_items();

        // ...then take back the claimers nobody picked up. A worker-caller
        // pops its own deque: our claimers are the newest entries, so the
        // first foreign task marks the end of ours — push it back and stop.
        // (If ownership was lost to a quarantine replacement, the drain is
        // skipped: the replacement executes the leftover claimers, which
        // retire themselves against the exhausted cursor.)
        if let Some(slot) = owner {
            inner.with_ownership(slot, |deque| {
                while let Some(popped) = deque.pop() {
                    if popped == task {
                        shared.retire();
                    } else {
                        let _ = deque.push(popped);
                        break;
                    }
                }
            });
        } else {
            // External caller — or a quarantined worker-caller, whose
            // claimers also went through the injector above.
            let drained = {
                let mut injector = lock_recovering(&inner.injector);
                let before = injector.queue.len();
                injector.queue.retain(|queued| queued.0 != task);
                inner
                    .obs
                    .gauge_set("pool.injector_depth", injector.queue.len() as f64);
                before - injector.queue.len()
            };
            for _ in 0..drained {
                shared.retire();
            }
        }

        // Wait for claimers still held by workers (they exit promptly: the
        // cursor is exhausted once run_items above returned), then rethrow
        // any item panic in the caller, as thread::scope used to.
        shared.wait_retired();
        if let Some(payload) = shared.take_panic() {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Clone for Pool {
    fn clone(&self) -> Pool {
        self.inner.handles.fetch_add(1, Ordering::Relaxed);
        Pool {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if self.inner.handles.fetch_sub(1, Ordering::AcqRel) != 1 {
            return;
        }
        // Last handle: no batch can be in flight (run_batch callers hold a
        // handle), so the queues are empty and the workers just exit.
        {
            let mut injector = lock_recovering(&self.inner.injector);
            injector.shutdown = true;
        }
        self.inner.work_available.notify_all();
        let handles = std::mem::take(&mut *lock_recovering(&self.inner.join));
        let me = std::thread::current().id();
        for handle in handles.into_iter().flatten() {
            // Joining from a worker thread would self-deadlock; detaching
            // is safe — the worker only touches its own Arc on the way out.
            if handle.thread().id() != me {
                let _ = handle.join();
            }
        }
    }
}

/// Spawns one worker thread for `index` under ownership `epoch`, returning
/// `None` on spawn failure — degrade rather than die: the batch protocol
/// only relies on the caller itself making progress, never on worker count.
fn spawn_worker(
    inner: &Arc<PoolInner>,
    index: usize,
    epoch: usize,
) -> Option<std::thread::JoinHandle<()>> {
    let worker_inner = Arc::clone(inner);
    let spawned = std::thread::Builder::new()
        .name(format!("mixp-pool-{index}"))
        .spawn(move || worker_main(worker_inner, index, epoch));
    match spawned {
        Ok(handle) => Some(handle),
        Err(err) => {
            eprintln!(
                "warning: pool worker {index} failed to spawn ({err}); continuing with fewer workers"
            );
            None
        }
    }
}

fn worker_main(inner: Arc<PoolInner>, index: usize, epoch: usize) {
    let slot = WorkerSlot { index, epoch };
    CURRENT.with(|current| {
        *current.borrow_mut() = Some(Ctx {
            inner: Arc::clone(&inner),
            worker: Some(slot),
        });
    });
    let live = inner.live.fetch_add(1, Ordering::Relaxed) + 1;
    inner.peak.fetch_max(live, Ordering::Relaxed);
    inner.obs.gauge_set("pool.live_threads", live as f64);
    inner.obs.gauge_set(
        "pool.peak_threads",
        inner.peak.load(Ordering::Relaxed) as f64,
    );
    loop {
        match inner.find_task(slot) {
            // Quarantined: a replacement owns the deque now. Exit without
            // touching it again.
            Err(()) => break,
            Ok(Some(task)) => {
                unsafe { execute_claimer(task) };
                continue;
            }
            Ok(None) => {}
        }
        // Park. The pre-wait recheck under the injector lock pairs with
        // inject_and_notify's locked notification: any enqueue either
        // becomes visible to this recheck or its notify lands after the
        // wait starts — a wake-up cannot be missed.
        let mut injector = lock_recovering(&inner.injector);
        if !injector.queue.is_empty() || inner.deques.iter().any(Deque::has_work) {
            continue;
        }
        if injector.shutdown {
            break;
        }
        injector = inner
            .work_available
            .wait(injector)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        drop(injector);
    }
    let live = inner.live.fetch_sub(1, Ordering::Relaxed) - 1;
    inner.obs.gauge_set("pool.live_threads", live as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn run_batch_runs_each_index_exactly_once() {
        for parallelism in [1, 2, 4, 7] {
            let pool = Pool::sized(parallelism);
            let hits: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
            pool.run_batch(hits.len(), |i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, hit) in hits.iter().enumerate() {
                assert_eq!(hit.load(Ordering::Relaxed), 1, "p={parallelism} item {i}");
            }
        }
    }

    #[test]
    fn empty_and_single_item_batches_work() {
        let pool = Pool::sized(4);
        pool.run_batch(0, |_| panic!("no items to run"));
        let ran = AtomicUsize::new(0);
        pool.run_batch(1, |i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn batches_reuse_the_pool_across_calls() {
        let obs = Obs::in_memory();
        let pool = Pool::new(4, obs.clone());
        for _ in 0..10 {
            let total = AtomicUsize::new(0);
            pool.run_batch(16, |_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(total.load(Ordering::Relaxed), 16);
        }
        let snap = obs.metrics_snapshot().expect("enabled");
        assert_eq!(snap.counters["pool.created"], 1, "one pool, many batches");
        assert_eq!(snap.counters["pool.batches"], 10);
    }

    #[test]
    fn nested_batches_share_the_arena() {
        let obs = Obs::in_memory();
        let pool = Pool::new(3, obs.clone());
        let hits: Vec<Vec<AtomicUsize>> = (0..4)
            .map(|_| (0..8).map(|_| AtomicUsize::new(0)).collect())
            .collect();
        pool.run_batch(4, |outer| {
            let ambient = Pool::current().expect("batch items see the ambient pool");
            ambient.run_batch(8, |inner| {
                hits[outer][inner].fetch_add(1, Ordering::Relaxed);
            });
        });
        for (o, row) in hits.iter().enumerate() {
            for (i, hit) in row.iter().enumerate() {
                assert_eq!(hit.load(Ordering::Relaxed), 1, "outer {o} inner {i}");
            }
        }
        // Workers publish `pool.peak_threads` when they start; dropping the
        // last handle joins them, so every spawned worker has published.
        drop(pool);
        let snap = obs.metrics_snapshot().expect("enabled");
        assert_eq!(
            snap.counters["pool.created"], 1,
            "nesting must not create extra pools"
        );
        // 2 spawned threads for parallelism 3, regardless of nesting depth.
        assert!(snap.gauges["pool.peak_threads"] <= 2.0);
    }

    #[test]
    fn current_is_ambient_only_inside_batches() {
        assert!(Pool::current().is_none(), "no ambient pool outside batches");
        let pool = Pool::sized(2);
        let seen = AtomicUsize::new(0);
        pool.run_batch(4, |_| {
            if Pool::current().is_some() {
                seen.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(seen.load(Ordering::Relaxed), 4);
        assert!(Pool::current().is_none(), "participant context is restored");
    }

    #[test]
    fn item_panic_propagates_with_its_payload_and_pool_survives() {
        let pool = Pool::sized(3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run_batch(8, |i| {
                if i == 3 {
                    panic!("injected fault at {i}");
                }
            });
        }));
        let payload = caught.expect_err("panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.contains("injected fault"), "payload: {message:?}");
        // The pool is still functional afterwards.
        let total = AtomicUsize::new(0);
        pool.run_batch(5, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn caller_and_worker_run_items_concurrently() {
        // Barrier(2) can only be passed if two distinct threads hold the
        // batch's two items at once: the caller plus the one pool worker.
        let pool = Pool::sized(2);
        let barrier = Barrier::new(2);
        pool.run_batch(2, |_| {
            barrier.wait();
        });
    }

    #[test]
    fn worker_threads_are_joined_on_last_drop() {
        let obs = Obs::in_memory();
        let pool = Pool::new(4, obs.clone());
        pool.run_batch(8, |_| {});
        let clone = pool.clone();
        drop(pool);
        drop(clone);
        let snap = obs.metrics_snapshot().expect("enabled");
        assert_eq!(snap.gauges["pool.live_threads"], 0.0, "workers exited");
        assert!(snap.gauges["pool.peak_threads"] <= 3.0, "p=4 spawns 3");
    }

    #[test]
    fn quarantine_hands_a_wedged_workers_deque_to_a_replacement() {
        let obs = Obs::in_memory();
        let pool = Pool::new(2, obs.clone());
        let wedged = AtomicBool::new(false);
        let barrier = Barrier::new(2);
        pool.run_batch(2, |_| {
            // The barrier guarantees one item runs on the worker thread and
            // one on the caller; roles are picked by thread, not by index.
            barrier.wait();
            if Pool::current_worker().is_some() {
                // Worker role: wedge until the quarantine hands our slot
                // away — detach_current flipping is the release signal.
                wedged.store(true, Ordering::Release);
                while !pool.detach_current() {
                    std::thread::yield_now();
                }
            } else {
                // Caller role: wait for the wedge, then quarantine it.
                while !wedged.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                assert!(pool.quarantine_worker(0));
            }
        });
        // The replacement owns deque 0 now; the pool keeps working.
        let total = AtomicUsize::new(0);
        pool.run_batch(8, |_| {
            total.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 8);
        drop(pool);
        // The quarantined worker exits on its own schedule (it is detached,
        // not joined); give it a moment before reading the final gauges.
        let mut snap = obs.metrics_snapshot().expect("enabled");
        for _ in 0..2000 {
            if snap.gauges["pool.live_threads"] == 0.0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
            snap = obs.metrics_snapshot().expect("enabled");
        }
        assert_eq!(snap.counters["pool.quarantined"], 1);
        assert!(
            snap.gauges["pool.peak_threads"] <= 2.0,
            "1 configured worker + 1 quarantine replacement, got {}",
            snap.gauges["pool.peak_threads"]
        );
        assert_eq!(snap.gauges["pool.live_threads"], 0.0, "all workers exited");
    }

    #[test]
    fn active_worker_is_pool_scoped_and_epoch_checked() {
        let pool = Pool::sized(2);
        assert!(
            pool.active_worker().is_none(),
            "external threads are not workers"
        );
        let other = Pool::sized(2);
        let worker_saw = AtomicUsize::new(usize::MAX);
        let barrier = Barrier::new(2);
        pool.run_batch(2, |_| {
            barrier.wait();
            if let Some(index) = pool.active_worker() {
                assert!(other.active_worker().is_none(), "wrong pool must not match");
                worker_saw.store(index, Ordering::Relaxed);
            } else {
                // Caller role: a participant, not a worker.
                assert!(Pool::current().is_some());
            }
        });
        assert_eq!(worker_saw.load(Ordering::Relaxed), 0, "one worker, slot 0");
        // After a quarantine bumps the epoch, a hypothetical stale thread's
        // claim would be refused; simulate by checking the epoch moved.
        assert!(pool.quarantine_worker(0));
        assert_eq!(pool.inner.slot_epoch(0), 1);
    }

    #[test]
    fn quarantine_out_of_range_is_refused() {
        let pool = Pool::sized(1);
        assert!(!pool.quarantine_worker(0), "sequential pool has no workers");
    }

    #[test]
    fn detach_current_is_false_off_pool_and_for_healthy_workers() {
        let pool = Pool::sized(2);
        assert!(!pool.detach_current(), "external threads never detach");
        let saw_detach = AtomicUsize::new(0);
        pool.run_batch(4, |_| {
            if pool.detach_current() {
                saw_detach.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(saw_detach.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn parse_workers_accepts_positive_integers_only() {
        assert_eq!(parse_workers("4"), Ok(Some(4)));
        assert_eq!(parse_workers("  7 "), Ok(Some(7)));
        assert_eq!(parse_workers(""), Ok(None));
        assert_eq!(parse_workers("   "), Ok(None));
        for bad in ["0", "-3", "four", "4.5", "1e2"] {
            let err = parse_workers(bad).expect_err(bad);
            assert!(err.contains("MIXP_WORKERS"), "{err}");
            assert!(err.contains(bad), "{err}");
        }
    }

    #[test]
    fn warn_once_prints_exactly_once_per_flag() {
        let flag = AtomicBool::new(false);
        assert!(warn_once_with(&flag, "first"));
        assert!(!warn_once_with(&flag, "second"));
        assert!(!warn_once_with(&flag, "third"));
    }

    // The env-reading tests mutate process-global variables: they serialise
    // on one mutex and restore the prior value.
    fn with_env<T>(name: &str, value: Option<&str>, run: impl FnOnce() -> T) -> T {
        static ENV_LOCK: Mutex<()> = Mutex::new(());
        let _guard = lock_recovering(&ENV_LOCK);
        let previous = std::env::var(name).ok();
        match value {
            Some(v) => std::env::set_var(name, v),
            None => std::env::remove_var(name),
        }
        let result = run();
        match previous {
            Some(v) => std::env::set_var(name, v),
            None => std::env::remove_var(name),
        }
        result
    }

    #[test]
    fn env_workers_reads_parses_and_falls_back() {
        let var = "MIXP_WORKERS";
        with_env(var, None, || assert_eq!(env_workers(), None));
        with_env(var, Some("6"), || assert_eq!(env_workers(), Some(6)));
        // Invalid values fall back to None (the warning is printed at most
        // once per process; warn_once_prints_exactly_once_per_flag covers
        // the once-ness deterministically).
        with_env(var, Some("banana"), || assert_eq!(env_workers(), None));
        with_env(var, Some("0"), || assert_eq!(env_workers(), None));
    }
}
