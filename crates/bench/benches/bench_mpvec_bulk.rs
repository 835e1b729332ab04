//! Bulk-vs-scalar MpVec bench: the same axpy + dot workload run through
//! the element-wise `get`/`set` loops the benchmarks used to carry in
//! their hot paths, and through the bulk primitives (`MpVec::axpy`,
//! `MpVec::dot`) that replaced them — each measured untraced (the
//! speedup-model fast path) and traced (the cache-model path, where each
//! bulk primitive emits one `access_group` batch instead of per-element
//! tracer calls).
//!
//! Two acceptance pairs:
//! - `bulk/untraced` vs `scalar/untraced`: bulk should be ≥~1.5x faster
//!   (lower median) on the same host.
//! - `cache-group` vs `cache-elementwise`: the same bulk workload driving
//!   a real cache `Hierarchy` through the grouped fast path vs through a
//!   wrapper that hides `access_group` (forcing the legacy per-element
//!   replay). The group arm should be ≥~1.5x faster; the property suite
//!   pins the two paths to identical statistics.

use mixp_core::perf::bench::{black_box, BenchGroup};
use mixp_core::perf::{CacheParams, Hierarchy};
use mixp_float::{ExecCtx, MemoryTracer, MpScalar, MpVec, Precision, PrecisionConfig, VarRegistry};
use std::time::Duration;

const N: usize = 1 << 16;

/// Cheapest possible tracer: the cost measured in the traced arms is the
/// per-access dispatch, not any model behind it.
struct Sink(u64);

impl MemoryTracer for Sink {
    fn access(&mut self, addr: u64, bytes: u8, write: bool) {
        self.0 = self
            .0
            .wrapping_add(addr ^ u64::from(bytes) ^ u64::from(write));
    }
}

/// Forwards only `access`, hiding the simulator's `access_group` override:
/// the wrapped hierarchy is driven exactly like the pre-batching code
/// drove it, one tracer call per element.
struct ScalarReplay(Hierarchy);

impl MemoryTracer for ScalarReplay {
    fn access(&mut self, addr: u64, bytes: u8, write: bool) {
        self.0.access(addr, bytes, write);
    }
}

/// One round of the workload through the element-wise loops: y += a*x,
/// then acc = x . y.
fn scalar_round(ctx: &mut ExecCtx<'_>, x: &MpVec, y: &mut MpVec, acc: &mut MpScalar) -> f64 {
    for i in 0..N {
        let yi = y.get(ctx, i);
        let xi = x.get(ctx, i);
        y.set(ctx, i, yi + 0.5 * xi);
    }
    acc.set(ctx, 0.0);
    for i in 0..N {
        let t = x.get(ctx, i) * y.get(ctx, i);
        acc.set(ctx, acc.get() + t);
    }
    acc.get()
}

/// The same round through the bulk primitives.
fn bulk_round(ctx: &mut ExecCtx<'_>, x: &MpVec, y: &mut MpVec, acc: &mut MpScalar) -> f64 {
    y.axpy(ctx, 0.5, x);
    acc.set(ctx, 0.0);
    x.dot(ctx, y, acc);
    acc.get()
}

fn main() {
    let mut reg = VarRegistry::new();
    let vx = reg.fresh("x");
    let vy = reg.fresh("y");
    let vacc = reg.fresh("acc");
    let mut cfg = PrecisionConfig::all_double(reg.len());
    // Lower one operand so the rounding path is exercised, as in a real
    // mixed configuration.
    cfg.set(vy, Precision::Single);

    let values: Vec<f64> = (0..N).map(|i| (i as f64).mul_add(1e-7, 0.25)).collect();

    let mut group = BenchGroup::new("mpvec_bulk");
    group
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2))
        .sample_size(20);

    group.bench_function("axpy_dot/scalar-untraced", |b| {
        let mut ctx = ExecCtx::new(&cfg);
        let x = MpVec::from_values(&mut ctx, vx, &values);
        let mut y = MpVec::from_values(&mut ctx, vy, &values);
        let mut acc = MpScalar::new(&ctx, vacc, 0.0);
        b.iter(|| black_box(scalar_round(&mut ctx, &x, &mut y, &mut acc)))
    });
    group.bench_function("axpy_dot/bulk-untraced", |b| {
        let mut ctx = ExecCtx::new(&cfg);
        let x = MpVec::from_values(&mut ctx, vx, &values);
        let mut y = MpVec::from_values(&mut ctx, vy, &values);
        let mut acc = MpScalar::new(&ctx, vacc, 0.0);
        b.iter(|| black_box(bulk_round(&mut ctx, &x, &mut y, &mut acc)))
    });
    group.bench_function("axpy_dot/scalar-traced", |b| {
        let mut sink = Sink(0);
        let mut ctx = ExecCtx::with_tracer(&cfg, &mut sink);
        let x = MpVec::from_values(&mut ctx, vx, &values);
        let mut y = MpVec::from_values(&mut ctx, vy, &values);
        let mut acc = MpScalar::new(&ctx, vacc, 0.0);
        b.iter(|| black_box(scalar_round(&mut ctx, &x, &mut y, &mut acc)))
    });
    group.bench_function("axpy_dot/bulk-traced", |b| {
        let mut sink = Sink(0);
        let mut ctx = ExecCtx::with_tracer(&cfg, &mut sink);
        let x = MpVec::from_values(&mut ctx, vx, &values);
        let mut y = MpVec::from_values(&mut ctx, vy, &values);
        let mut acc = MpScalar::new(&ctx, vacc, 0.0);
        b.iter(|| black_box(bulk_round(&mut ctx, &x, &mut y, &mut acc)))
    });
    group.bench_function("axpy_dot/cache-group", |b| {
        let mut sim = Hierarchy::new(CacheParams::default());
        let mut ctx = ExecCtx::with_tracer(&cfg, &mut sim);
        let x = MpVec::from_values(&mut ctx, vx, &values);
        let mut y = MpVec::from_values(&mut ctx, vy, &values);
        let mut acc = MpScalar::new(&ctx, vacc, 0.0);
        b.iter(|| black_box(bulk_round(&mut ctx, &x, &mut y, &mut acc)))
    });
    group.bench_function("axpy_dot/cache-elementwise", |b| {
        let mut sim = ScalarReplay(Hierarchy::new(CacheParams::default()));
        let mut ctx = ExecCtx::with_tracer(&cfg, &mut sim);
        let x = MpVec::from_values(&mut ctx, vx, &values);
        let mut y = MpVec::from_values(&mut ctx, vy, &values);
        let mut acc = MpScalar::new(&ctx, vacc, 0.0);
        b.iter(|| black_box(bulk_round(&mut ctx, &x, &mut y, &mut acc)))
    });
    group.finish();
}
