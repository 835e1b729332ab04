//! A bounded Chase–Lev work-stealing deque over claimer-task pointers.
//!
//! One deque belongs to one pool worker (its *owner*). The owner pushes and
//! pops at the **bottom** (LIFO — newest batch first, so a worker finishes
//! the batch it just opened before returning to older work), while any other
//! thread steals from the **top** (FIFO — the oldest enqueued batch, which
//! is the coarsest outstanding work). This is the classic dynamic-circular
//! deque of Chase & Lev with the C11 orderings of Lê et al., specialised two
//! ways for this workspace:
//!
//! * **bounded**: the buffer never grows. Tasks here are batch *claimers*
//!   (at most `workers - 1` per in-flight batch), so a fixed power-of-two
//!   capacity is plenty; on overflow the caller routes the task through the
//!   pool's global injector instead.
//! * **POD tasks**: a task is a raw `*const BatchShared`. Slots are
//!   `AtomicPtr`, so the racy speculative read in `steal` is a defined
//!   atomic load, and a thief that loses the top CAS simply discards the
//!   value it read.
//!
//! Memory safety of the pointee is the pool's contract, not the deque's:
//! `run_batch` keeps its `BatchShared` alive until every enqueued claimer
//! has been consumed (executed or drained) and retired.

use crate::batch::BatchShared;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};

/// Fixed slot count; must be a power of two. At most `workers - 1` claimers
/// exist per in-flight batch and nesting is shallow (campaign → search), so
/// 256 is far above any reachable depth.
pub(crate) const DEQUE_CAP: usize = 256;

pub(crate) struct Deque {
    /// Steal end; monotonically increasing. `isize` so the transient
    /// `bottom = -1` state of a pop-on-empty compares correctly.
    top: AtomicIsize,
    /// Owner end; only the owner writes it (except the restore in `pop`).
    bottom: AtomicIsize,
    slots: Box<[AtomicPtr<BatchShared>]>,
}

impl Deque {
    pub(crate) fn new() -> Self {
        Deque {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            slots: (0..DEQUE_CAP)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
        }
    }

    fn slot(&self, index: isize) -> &AtomicPtr<BatchShared> {
        &self.slots[(index as usize) & (DEQUE_CAP - 1)]
    }

    /// Owner-only: pushes a task at the bottom. `Err(task)` when the buffer
    /// is full (route through the injector).
    ///
    /// The full check uses an `Acquire` load of `top`, which can only
    /// under-estimate how much room exists — so a push never overwrites a
    /// slot a thief may still read: reusing the slot of top index `t`
    /// requires `bottom = t + CAP`, which this check refuses until `top`
    /// itself has moved past `t`.
    pub(crate) fn push(&self, task: *const BatchShared) -> Result<(), *const BatchShared> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        if b - t >= DEQUE_CAP as isize {
            return Err(task);
        }
        self.slot(b).store(task.cast_mut(), Ordering::Relaxed);
        // Release: a thief that observes the new bottom also observes the
        // slot write above and the caller's initialisation of the pointee.
        self.bottom.store(b + 1, Ordering::Release);
        Ok(())
    }

    /// Owner-only: pops the most recently pushed task.
    ///
    /// The single-element race against thieves is resolved by competing on
    /// the same `top` CAS the thieves use: whoever advances `top` owns the
    /// element, the loser backs off empty-handed.
    pub(crate) fn pop(&self) -> Option<*const BatchShared> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        // Order the bottom reservation before reading top, pairing with the
        // fence in `steal` — exactly one side wins the last element.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t < b {
            // More than one element: the reservation alone is enough.
            return Some(self.slot(b).load(Ordering::Relaxed).cast_const());
        }
        let result = if t == b {
            // Last element: race the thieves for it on the top CAS.
            self.top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
                .then(|| self.slot(b).load(Ordering::Relaxed).cast_const())
        } else {
            None // already empty
        };
        self.bottom.store(b + 1, Ordering::Relaxed);
        result
    }

    /// Thief: steals the oldest task. Retries internally on CAS contention
    /// and returns `None` only when the deque is (transiently) empty.
    pub(crate) fn steal(&self) -> Option<*const BatchShared> {
        loop {
            let t = self.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::Acquire);
            if t >= b {
                return None;
            }
            // Speculative read: may be concurrently overwritten only after
            // `top` passes `t` (see `push`), in which case the CAS below
            // fails and the value is discarded.
            let task = self.slot(t).load(Ordering::Relaxed);
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return Some(task.cast_const());
            }
        }
    }

    /// Whether the deque currently looks non-empty. Advisory — used only
    /// for the workers' sleep/retry decision, never for correctness.
    pub(crate) fn has_work(&self) -> bool {
        self.bottom.load(Ordering::Acquire) > self.top.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ptr(tag: usize) -> *const BatchShared {
        // Deque operations never dereference tasks, so tagged addresses are
        // enough to track identity through push/pop/steal.
        (tag * 8 + 0x1000) as *const BatchShared
    }

    #[test]
    fn owner_pop_is_lifo_and_steal_is_fifo() {
        let d = Deque::new();
        for i in 0..4 {
            d.push(ptr(i)).unwrap();
        }
        assert_eq!(d.steal(), Some(ptr(0)), "thief takes the oldest");
        assert_eq!(d.pop(), Some(ptr(3)), "owner takes the newest");
        assert_eq!(d.steal(), Some(ptr(1)));
        assert_eq!(d.pop(), Some(ptr(2)));
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), None);
    }

    #[test]
    fn push_fails_only_when_full() {
        let d = Deque::new();
        for i in 0..DEQUE_CAP {
            assert!(d.push(ptr(i)).is_ok(), "slot {i}");
        }
        assert_eq!(d.push(ptr(999)), Err(ptr(999)));
        assert_eq!(d.steal(), Some(ptr(0)));
        assert!(d.push(ptr(999)).is_ok(), "stealing frees a slot");
    }

    #[test]
    fn empty_pop_leaves_the_deque_usable() {
        let d = Deque::new();
        assert_eq!(d.pop(), None);
        assert_eq!(d.steal(), None);
        d.push(ptr(7)).unwrap();
        assert!(d.has_work());
        assert_eq!(d.pop(), Some(ptr(7)));
        assert!(!d.has_work());
    }

    #[test]
    fn concurrent_thieves_and_owner_lose_nothing() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{Arc, Mutex};

        const PUSHES: usize = 2000;
        let deque = Arc::new(Deque::new());
        let taken: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(AtomicBool::new(false));

        let thieves: Vec<_> = (0..3)
            .map(|_| {
                let deque = Arc::clone(&deque);
                let taken = Arc::clone(&taken);
                let done = Arc::clone(&done);
                std::thread::spawn(move || loop {
                    match deque.steal() {
                        Some(task) => taken.lock().unwrap().push(task as usize),
                        None if done.load(Ordering::Acquire) => break,
                        None => std::hint::spin_loop(),
                    }
                })
            })
            .collect();

        let mut owner_got = Vec::new();
        let mut next = 0;
        while next < PUSHES {
            // Keep the deque shallow so owner pops and steals constantly
            // contend on the last-element CAS.
            for _ in 0..3 {
                if next < PUSHES && deque.push(ptr(next)).is_ok() {
                    next += 1;
                }
            }
            if let Some(task) = deque.pop() {
                owner_got.push(task as usize);
            }
        }
        while let Some(task) = deque.pop() {
            owner_got.push(task as usize);
        }
        done.store(true, Ordering::Release);
        for t in thieves {
            t.join().unwrap();
        }

        let mut all: Vec<usize> = taken.lock().unwrap().clone();
        all.extend(owner_got);
        all.sort_unstable();
        let expected: Vec<usize> = (0..PUSHES).map(|i| ptr(i) as usize).collect();
        assert_eq!(all, expected, "every task claimed exactly once");
    }
}
