//! Evaluation memory ends with the evaluation: a live evaluator does not
//! hold the compiled plans of configurations it has already run.
//!
//! A counting global allocator tracks live heap bytes across every
//! thread. This file holds a single test so that no other test's
//! allocations land in the count.

use mixp_core::{EvaluatorBuilder, Precision, PrecisionConfig, QualityThreshold};
use mixp_harness::{benchmark_by_name, Scale};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// Forwards to the system allocator and keeps a running total of live
/// heap bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract, and returns its result
// unchanged; the counter is a statistic that no allocation depends on.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

/// The `n`-th three-level cluster assignment (base-3 digits of `n + 1`
/// over the clusters), so every index gives a distinct configuration
/// that is not all-double.
fn config(
    levels: usize,
    n: usize,
    expand: impl Fn(&[Precision]) -> PrecisionConfig,
) -> PrecisionConfig {
    let mut digits = n + 1;
    let assignment: Vec<Precision> = (0..levels)
        .map(|_| {
            let p = [Precision::Double, Precision::Single, Precision::Half][digits % 3];
            digits /= 3;
            p
        })
        .collect();
    expand(&assignment)
}

/// One small-scale hotspot plan is about 200 KB, so an evaluator that
/// kept the plans of 128 runs would grow by about 26 MB. The bound
/// leaves room for the memo and for the pool thread's reusable scratch.
#[test]
fn evaluator_holds_no_plans_after_their_runs() {
    const BOUND: isize = 1 << 20;
    let bench = benchmark_by_name("hotspot", Scale::Small).unwrap();
    assert!(
        bench.ir_program().is_some(),
        "hotspot runs through IR plans"
    );
    let pm = bench.program();
    let clusters = pm.total_clusters();
    assert!(
        3usize.pow(clusters as u32) > 129,
        "enough distinct configurations"
    );
    let expand = |levels: &[Precision]| pm.config_from_cluster_levels(levels);

    let mut ev = EvaluatorBuilder::new(QualityThreshold::new(1e-3))
        .workers(2)
        .build(bench.as_ref());
    let base = live();

    for n in 0..64 {
        let record = ev.evaluate(&config(clusters, n, expand)).unwrap();
        assert!(record.compiled);
    }
    let after_sequential = live() - base;
    assert!(
        after_sequential < BOUND,
        "64 sequential evaluations left {after_sequential} bytes live"
    );

    let batch: Vec<PrecisionConfig> = (64..128).map(|n| config(clusters, n, expand)).collect();
    assert!(ev.evaluate_batch(&batch).iter().all(|r| r.is_ok()));
    let after_batch = live() - base;
    assert_eq!(ev.evaluated(), 128);
    assert!(
        after_batch < BOUND,
        "64 sequential and 64 batched evaluations left {after_batch} bytes live"
    );
    // The evaluator stays alive up to here: the bound is on what it holds.
    drop(ev);
}
