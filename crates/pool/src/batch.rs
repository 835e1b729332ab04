//! The shared state of one in-flight `run_batch` call.
//!
//! A batch is *not* a queue of items: it is a single claim cursor over
//! `0..len`. The caller enqueues up to `workers - 1` **claimer tasks** (all
//! pointing at the same [`BatchShared`]) and then claims items itself.
//! Whoever holds a claimer — a pool worker that dequeued it, a thief that
//! stole it, or the caller draining its own leftovers — loops the cursor
//! until the batch is exhausted. Work distribution is therefore as fine as
//! items, while queue traffic is bounded by the worker count.
//!
//! The struct lives on the **caller's stack** for the duration of
//! `run_batch`; the claimer protocol (the `outstanding` latch) guarantees no
//! task pointer outlives it.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Locks a mutex, recovering the data from a poisoned lock. Every value
/// guarded this way is updated in one step, so a panicking holder cannot
/// leave a torn value behind.
pub(crate) fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Type-erased batch state shared between the caller and its claimers.
pub(crate) struct BatchShared {
    /// Calls the caller's closure with one item index. Safety contract:
    /// `ctx` is the `&F` the batch was built from, alive for the whole
    /// batch.
    run_item: unsafe fn(*const (), usize),
    ctx: *const (),
    /// Next unclaimed item; claiming is the only cross-thread coordination
    /// on the items themselves.
    cursor: AtomicUsize,
    len: usize,
    /// Set once an item panics: remaining items are skipped so the caller
    /// can rethrow promptly.
    poisoned: AtomicBool,
    /// First panic payload, rethrown by the caller via `resume_unwind`.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Enqueued claimer tasks not yet retired. The caller blocks on this
    /// latch before returning, which is what makes the stack storage sound.
    outstanding: Mutex<usize>,
    done: Condvar,
}

impl BatchShared {
    /// Builds the batch over `f`, expecting exactly `claimers` enqueued
    /// claimer tasks to retire (set *before* any task becomes visible).
    pub(crate) fn new<F: Fn(usize) + Sync>(f: &F, len: usize, claimers: usize) -> Self {
        unsafe fn call<F: Fn(usize) + Sync>(ctx: *const (), index: usize) {
            unsafe { (*ctx.cast::<F>())(index) }
        }
        BatchShared {
            run_item: call::<F>,
            ctx: (f as *const F).cast(),
            cursor: AtomicUsize::new(0),
            len,
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            outstanding: Mutex::new(claimers),
            done: Condvar::new(),
        }
    }

    /// Claims and runs items until the cursor is exhausted. Item panics are
    /// caught here — the first payload is kept for the caller to rethrow,
    /// and the batch is poisoned so later claims skip their items.
    pub(crate) fn run_items(&self) {
        loop {
            let index = self.cursor.fetch_add(1, Ordering::Relaxed);
            if index >= self.len {
                return;
            }
            if self.poisoned.load(Ordering::Relaxed) {
                continue;
            }
            let run = catch_unwind(AssertUnwindSafe(|| unsafe {
                (self.run_item)(self.ctx, index)
            }));
            if let Err(payload) = run {
                self.poisoned.store(true, Ordering::Relaxed);
                let mut slot = lock_recovering(&self.panic);
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
        }
    }

    /// Consumes one claimer: called exactly once per enqueued task, whether
    /// it ran (a worker executed it) or was drained unrun by the caller.
    pub(crate) fn retire(&self) {
        let mut outstanding = lock_recovering(&self.outstanding);
        *outstanding = outstanding.saturating_sub(1);
        if *outstanding == 0 {
            self.done.notify_all();
        }
    }

    /// Blocks until every enqueued claimer has retired. The timeout is a
    /// liveness backstop only; the normal wake-up is `retire`'s notify.
    pub(crate) fn wait_retired(&self) {
        let mut outstanding = lock_recovering(&self.outstanding);
        while *outstanding > 0 {
            let (guard, _) = self
                .done
                .wait_timeout(outstanding, Duration::from_millis(5))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            outstanding = guard;
        }
    }

    /// The recorded panic payload, if any item panicked.
    pub(crate) fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        lock_recovering(&self.panic).take()
    }
}

/// Runs one claimer task taken from a queue.
///
/// # Safety
///
/// `task` must point at a live [`BatchShared`] — guaranteed by the pool
/// protocol: the owning `run_batch` does not return until this claimer (and
/// every other one) has retired.
pub(crate) unsafe fn execute_claimer(task: *const BatchShared) {
    let batch = unsafe { &*task };
    batch.run_items();
    batch.retire();
}
