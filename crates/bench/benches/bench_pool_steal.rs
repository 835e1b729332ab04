//! The pool's steal path under its most steal-heavy shape: DD-style
//! campaigns that issue many tiny batches back to back, so claimer tasks
//! are constantly being raided from whichever worker opened the latest
//! batch. Measures how much scheduler traffic a burst of tiny batches costs.

use mixp_core::perf::bench::{black_box, BenchGroup};
use mixp_core::pool::Pool;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One DD-ish frontier: a burst of tiny batches, each item doing a small
/// amount of real work (enough that claims overlap, little enough that
/// queue traffic stays a visible fraction of the total).
fn tiny_batch_burst(pool: &Pool, batches: usize, items: usize) -> u64 {
    let total = AtomicU64::new(0);
    for _ in 0..batches {
        pool.run_batch(items, |i| {
            let mut acc = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            for _ in 0..64 {
                acc = acc.rotate_left(13).wrapping_add(0xb5ad_4ece_da1c_e2a9);
            }
            total.fetch_add(acc | 1, Ordering::Relaxed);
        });
    }
    total.load(Ordering::Relaxed)
}

fn main() {
    let mut group = BenchGroup::new("pool_steal");
    group
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    let pool = Pool::new(4, mixp_core::Obs::noop());
    group.bench_function("dd_tiny_batches", move |b| {
        b.iter(|| black_box(tiny_batch_burst(&pool, 64, 6)))
    });
    group.finish();
}
