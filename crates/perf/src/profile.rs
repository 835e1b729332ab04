//! Per-variable memory profiling.
//!
//! The paper's runtime library serves "instrumentation and profiling"
//! (§III-A): before searching, a user wants to know *which* variables carry
//! the traffic, because lowering a cold variable buys nothing while
//! lowering the hot arrays can change cache behaviour outright (the LavaMD
//! observation of §V).
//!
//! [`AccessProfiler`] is a [`MemoryTracer`] that tallies reads/writes per
//! cache line; [`attribute`] joins those tallies with the execution
//! context's allocation log to produce per-variable traffic reports. Use
//! [`Tee`] to profile and simulate the cache in the same run.

use mixp_float::{MemoryTracer, StreamSpec, VarId};
use std::collections::HashMap;

/// Line-granular access tally.
#[derive(Debug, Clone, Default)]
pub struct AccessProfiler {
    /// 64-byte line address → (reads, writes).
    lines: HashMap<u64, (u64, u64)>,
}

impl AccessProfiler {
    /// Creates an empty profiler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct cache lines touched.
    pub fn lines_touched(&self) -> usize {
        self.lines.len()
    }

    /// Total accesses recorded.
    pub fn total_accesses(&self) -> u64 {
        self.lines.values().map(|(r, w)| r + w).sum()
    }
}

impl MemoryTracer for AccessProfiler {
    fn access(&mut self, addr: u64, _bytes: u8, write: bool) {
        let entry = self.lines.entry(addr >> 6).or_insert((0, 0));
        if write {
            entry.1 += 1;
        } else {
            entry.0 += 1;
        }
    }
}

/// Forwards every access to two tracers (e.g. profile + cache-simulate in
/// one run). Groups are forwarded as groups, so a [`crate::Hierarchy`]
/// behind a `Tee` keeps its closed-form fast path.
pub struct Tee<'a> {
    a: &'a mut dyn MemoryTracer,
    b: &'a mut dyn MemoryTracer,
}

impl<'a> std::fmt::Debug for Tee<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tee").finish_non_exhaustive()
    }
}

impl<'a> Tee<'a> {
    /// Combines two tracers.
    pub fn new(a: &'a mut dyn MemoryTracer, b: &'a mut dyn MemoryTracer) -> Self {
        Tee { a, b }
    }
}

impl<'a> MemoryTracer for Tee<'a> {
    fn access(&mut self, addr: u64, bytes: u8, write: bool) {
        self.a.access(addr, bytes, write);
        self.b.access(addr, bytes, write);
    }

    fn access_group(&mut self, streams: &[StreamSpec], count: usize) {
        self.a.access_group(streams, count);
        self.b.access_group(streams, count);
    }
}

/// Traffic attributed to one program variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarTraffic {
    /// The variable.
    pub var: VarId,
    /// Bytes reserved for it (sums over repeated allocations, e.g. per
    /// iteration).
    pub bytes_reserved: u64,
    /// Distinct cache lines of its ranges that were touched.
    pub lines_touched: u64,
    /// Element reads observed in its ranges.
    pub reads: u64,
    /// Element writes observed in its ranges.
    pub writes: u64,
}

impl VarTraffic {
    /// Total accesses (reads + writes).
    pub fn total(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Joins a line tally with an allocation log (`ExecCtx::allocations()`),
/// producing per-variable traffic sorted by total accesses, hottest first.
///
/// Allocations are 64-byte aligned by construction, so a line belongs to at
/// most one allocation. Accesses outside any allocation (untyped index
/// arrays) are ignored here — they are not tunable.
pub fn attribute(profiler: &AccessProfiler, allocations: &[(VarId, u64, u64)]) -> Vec<VarTraffic> {
    // line → allocation owner.
    let mut owner: HashMap<u64, VarId> = HashMap::new();
    let mut traffic: HashMap<VarId, VarTraffic> = HashMap::new();
    for &(var, base, bytes) in allocations {
        let t = traffic.entry(var).or_insert(VarTraffic {
            var,
            bytes_reserved: 0,
            lines_touched: 0,
            reads: 0,
            writes: 0,
        });
        t.bytes_reserved += bytes;
        if bytes == 0 {
            continue;
        }
        let first = base >> 6;
        let last = (base + bytes - 1) >> 6;
        for line in first..=last {
            owner.insert(line, var);
        }
    }
    for (&line, &(reads, writes)) in &profiler.lines {
        if let Some(&var) = owner.get(&line) {
            let t = traffic.get_mut(&var).expect("owner implies entry");
            t.lines_touched += 1;
            t.reads += reads;
            t.writes += writes;
        }
    }
    let mut out: Vec<VarTraffic> = traffic.into_values().collect();
    out.sort_by(|a, b| b.total().cmp(&a.total()).then(a.var.cmp(&b.var)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_float::{ExecCtx, Precision, PrecisionConfig, StreamGroup, VarRegistry};

    #[test]
    fn profiler_tallies_lines() {
        let mut p = AccessProfiler::new();
        p.access(0, 8, false);
        p.access(8, 8, false); // same line
        p.access(64, 8, true); // next line
        assert_eq!(p.lines_touched(), 2);
        assert_eq!(p.total_accesses(), 3);
    }

    #[test]
    fn attribution_assigns_traffic_to_the_right_variable() {
        let mut reg = VarRegistry::new();
        let a = reg.fresh("a");
        let b = reg.fresh("b");
        let cfg = PrecisionConfig::all_double(reg.len());
        let mut prof = AccessProfiler::new();
        let mut ctx = ExecCtx::with_tracer(&cfg, &mut prof);
        let mut va = ctx.alloc_vec(a, 16);
        let vb = ctx.alloc_vec(b, 16);
        for i in 0..16 {
            va.set(&mut ctx, i, 1.0);
        }
        let _ = vb.get(&mut ctx, 3);
        let allocs = ctx.allocations().to_vec();
        drop(ctx);
        let report = attribute(&prof, &allocs);
        assert_eq!(report[0].var, a, "a is hottest");
        assert_eq!(report[0].writes, 16);
        assert_eq!(report[0].reads, 0);
        assert_eq!(report[0].lines_touched, 2); // 16 doubles = 2 lines
        let tb = report.iter().find(|t| t.var == b).unwrap();
        assert_eq!(tb.reads, 1);
        assert_eq!(tb.bytes_reserved, 128);
    }

    #[test]
    fn tee_forwards_to_both() {
        let mut p1 = AccessProfiler::new();
        let mut p2 = AccessProfiler::new();
        {
            let mut tee = Tee::new(&mut p1, &mut p2);
            tee.access(128, 8, false);
        }
        assert_eq!(p1.total_accesses(), 1);
        assert_eq!(p2.total_accesses(), 1);
    }

    /// A group-heavy run: sweeps committed as stream groups (unit,
    /// negative, zero and wide strides, at two element widths) with a few
    /// element-wise accesses between them.
    fn group_heavy_run(tracer: &mut dyn MemoryTracer) {
        let mut reg = VarRegistry::new();
        let (a, b, c) = (reg.fresh("a"), reg.fresh("b"), reg.fresh("c"));
        let mut cfg = PrecisionConfig::all_double(reg.len());
        cfg.set(b, Precision::Single);
        let mut ctx = ExecCtx::with_tracer(&cfg, tracer);
        let va = ctx.alloc_vec(a, 4096);
        let vb = ctx.alloc_vec(b, 4096);
        let vc = ctx.alloc_vec(c, 4096);
        let mut group = StreamGroup::new();
        for sweep in 0..4 {
            group
                .clear()
                .load(&va, 0)
                .load_strided(&vb, 4095, -1)
                .store(&vc, 0);
            group.commit(&mut ctx, 4096);
            group
                .clear()
                .load_strided(&va, sweep, 0)
                .load_strided(&vb, 1, 2)
                .store(&vc, 1);
            group.commit(&mut ctx, 2000);
            let _ = va.get(&mut ctx, sweep * 7);
        }
    }

    #[test]
    fn tee_forwards_groups_without_changing_either_side() {
        let params = crate::CacheParams::default();
        let mut alone = crate::Hierarchy::new(params);
        group_heavy_run(&mut alone);
        let mut prof_alone = AccessProfiler::new();
        group_heavy_run(&mut prof_alone);

        let mut prof = AccessProfiler::new();
        let mut hier = crate::Hierarchy::new(params);
        group_heavy_run(&mut Tee::new(&mut prof, &mut hier));
        assert_eq!(hier.stats(), alone.stats());
        assert_eq!(prof.lines, prof_alone.lines);
        assert_eq!(prof.total_accesses(), hier.stats().accesses);

        // A fingerprint digests groups as groups, so it only matches the
        // stand-alone one if the Tee forwarded every group whole.
        let mut fp_alone = crate::StreamFingerprinter::new();
        group_heavy_run(&mut fp_alone);
        let mut fp = crate::StreamFingerprinter::new();
        let mut hier = crate::Hierarchy::new(params);
        group_heavy_run(&mut Tee::new(&mut fp, &mut hier));
        assert_eq!(fp.finish(), fp_alone.finish());
        assert_eq!(hier.stats(), alone.stats());
    }

    #[test]
    fn untouched_variables_report_zero() {
        let mut reg = VarRegistry::new();
        let a = reg.fresh("a");
        let cfg = PrecisionConfig::all_double(reg.len());
        let mut prof = AccessProfiler::new();
        let mut ctx = ExecCtx::with_tracer(&cfg, &mut prof);
        let _v = ctx.alloc_vec(a, 8);
        let allocs = ctx.allocations().to_vec();
        drop(ctx);
        let report = attribute(&prof, &allocs);
        assert_eq!(report[0].total(), 0);
        assert_eq!(report[0].bytes_reserved, 64);
    }
}
