//! Execution context: the bridge between a benchmark's arithmetic and the
//! active [`PrecisionConfig`].

use crate::{CancelToken, OpCounts, Precision, PrecisionConfig, VarId};

/// One strided access stream inside a batched trace group.
///
/// A stream describes a family of accesses `base + i * stride` for
/// `i in 0..count` (the count lives on the group, not the stream). The
/// stride is a *byte* offset and may be negative — two's-complement
/// wrapping arithmetic expresses descending sweeps such as a backward
/// recurrence — or zero for a location re-touched every iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamSpec {
    /// Address of the stream's element 0.
    pub base: u64,
    /// Bytes per access (the element width as stored).
    pub elem_bytes: u8,
    /// Byte offset between consecutive group iterations (may be negative
    /// or zero).
    pub stride: i64,
    /// Whether the stream's accesses are writes.
    pub write: bool,
}

impl StreamSpec {
    /// The address of the stream's `i`-th access.
    #[inline]
    pub fn addr(&self, i: usize) -> u64 {
        self.base
            .wrapping_add((i as i64).wrapping_mul(self.stride) as u64)
    }
}

/// Receives the synthetic memory-access stream of a benchmark run.
///
/// Implemented by the cache simulator in `mixp-perf`; a run without a tracer
/// still counts loads/stores in [`OpCounts`] but produces no cache
/// statistics.
pub trait MemoryTracer {
    /// Records one access of `bytes` bytes at synthetic address `addr`.
    fn access(&mut self, addr: u64, bytes: u8, write: bool);

    /// Records a batched group of interleaved streams: for `i` in
    /// `0..count`, each stream's `i`-th access is emitted in declared
    /// order. The default implementation replays the group element-wise
    /// through [`MemoryTracer::access`], so recording or profiling tracers
    /// observe exactly the sequence a per-element loop would have produced;
    /// the cache simulators override it with a same-line fast path whose
    /// statistics are bit-identical to this replay by construction.
    fn access_group(&mut self, streams: &[StreamSpec], count: usize) {
        for i in 0..count {
            for s in streams {
                self.access(s.addr(i), s.elem_bytes, s.write);
            }
        }
    }
}

/// Per-run execution context.
///
/// A benchmark run borrows the configuration under test, allocates its arrays
/// through [`ExecCtx::alloc_vec`] (which assigns synthetic base addresses
/// packed by the *configured* element width, so lowering an array genuinely
/// halves its footprint), and reports arithmetic through [`ExecCtx::flop`].
///
/// # Example
///
/// ```
/// use mixp_float::{ExecCtx, Precision, PrecisionConfig, VarRegistry};
///
/// let mut reg = VarRegistry::new();
/// let a = reg.fresh("a");
/// let b = reg.fresh("b");
/// let mut cfg = PrecisionConfig::all_double(reg.len());
/// cfg.set(b, Precision::Single);
///
/// let mut ctx = ExecCtx::new(&cfg);
/// // One op mixing a double and a single operand: performed in double,
/// // with one conversion for the single operand.
/// ctx.flop(a, &[b], 1);
/// assert_eq!(ctx.counts().flops_f64, 1);
/// assert_eq!(ctx.counts().casts, 1);
/// ```
pub struct ExecCtx<'a> {
    cfg: &'a PrecisionConfig,
    counts: OpCounts,
    tracer: Option<&'a mut dyn MemoryTracer>,
    next_base: u64,
    allocations: Vec<(VarId, u64, u64)>,
    cancel: Option<CancelToken>,
}

impl<'a> std::fmt::Debug for ExecCtx<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExecCtx")
            .field("counts", &self.counts)
            .field("traced", &self.tracer.is_some())
            .field("next_base", &self.next_base)
            .finish()
    }
}

impl<'a> ExecCtx<'a> {
    /// Creates a context with operation counting only (no memory tracing).
    pub fn new(cfg: &'a PrecisionConfig) -> Self {
        ExecCtx {
            cfg,
            counts: OpCounts::new(),
            tracer: None,
            next_base: 0x1000,
            allocations: Vec::new(),
            cancel: None,
        }
    }

    /// Creates a context that additionally streams array accesses to
    /// `tracer`.
    pub fn with_tracer(cfg: &'a PrecisionConfig, tracer: &'a mut dyn MemoryTracer) -> Self {
        ExecCtx {
            cfg,
            counts: OpCounts::new(),
            tracer: Some(tracer),
            next_base: 0x1000,
            allocations: Vec::new(),
            cancel: None,
        }
    }

    /// Attaches a [`CancelToken`] to this run. Once attached, every
    /// load/store accounting hook polls the token and unwinds with
    /// [`crate::CancelUnwind`] if it has fired — once per bulk operation in
    /// both modes, since batched tracing (see [`ExecCtx::trace_group`])
    /// charges and traces at run granularity. With no token attached the
    /// poll is a single `Option` branch.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// Polls the attached [`CancelToken`] (no-op when none is attached):
    /// returns normally while the token is unfired, unwinds with
    /// [`crate::CancelUnwind`] once it fires. Long-running code that makes
    /// no memory accesses (e.g. an injected hang) can call this directly to
    /// stay cancellable.
    #[inline]
    pub fn cancel_point(&self) {
        if let Some(tok) = &self.cancel {
            tok.check();
        }
    }

    /// The configuration this run executes under.
    #[inline]
    pub fn config(&self) -> &PrecisionConfig {
        self.cfg
    }

    /// The storage precision of `var` under the active configuration.
    #[inline]
    pub fn precision_of(&self, var: VarId) -> Precision {
        self.cfg.get(var)
    }

    /// Operation counters accumulated so far.
    #[inline]
    pub fn counts(&self) -> OpCounts {
        self.counts
    }

    /// Reserves a synthetic address range of `len` elements for `var` at its
    /// configured width and returns the 64-byte-aligned base address.
    ///
    /// Used by [`crate::MpVec`]; exposed for substrates that lay out their
    /// own structures.
    pub fn reserve(&mut self, var: VarId, len: usize) -> u64 {
        let base = self.next_base;
        let bytes = len as u64 * self.precision_of(var).bytes();
        // Round the next base up to a cache line so arrays never share lines.
        self.next_base = (base + bytes + 63) & !63;
        self.allocations.push((var, base, bytes));
        base
    }

    /// The synthetic allocations made so far: `(variable, base, bytes)`.
    /// Consumed by the profiling substrate to attribute memory traffic to
    /// program variables.
    pub fn allocations(&self) -> &[(VarId, u64, u64)] {
        &self.allocations
    }

    /// Allocates an `len`-element array for `var`, zero-initialised.
    pub fn alloc_vec(&mut self, var: VarId, len: usize) -> crate::MpVec {
        crate::MpVec::zeroed(self, var, len)
    }

    /// Precomputes the accounting signature of an operation shape: the
    /// precision it executes at and the conversions each occurrence costs.
    ///
    /// Precisions are immutable for the lifetime of the context, so a hot
    /// loop can resolve its `flop`/`heavy` calls once up front and charge
    /// per iteration through [`ExecCtx::flop_sig`]/[`ExecCtx::heavy_sig`]
    /// without re-walking the configuration. `flop(d, s, n)` and
    /// `flop_sig(op_sig(d, s), n)` are interchangeable by construction.
    pub fn op_sig(&self, dst: VarId, srcs: &[VarId]) -> OpSig {
        let mut op_prec = self.precision_of(dst);
        for &s in srcs {
            op_prec = op_prec.widest(self.precision_of(s));
        }
        let mut narrow = 0u64;
        if self.precision_of(dst) != op_prec {
            narrow += 1;
        }
        for &s in srcs {
            if self.precision_of(s) != op_prec {
                narrow += 1;
            }
        }
        OpSig {
            prec: op_prec,
            casts_per_op: narrow,
        }
    }

    /// Records `count` floating-point operations whose destination is `dst`
    /// and whose floating-point source variables are `srcs`.
    ///
    /// The operation executes at the widest precision among destination and
    /// sources (the usual arithmetic conversions); every involved variable
    /// stored at a narrower precision costs one conversion per operation.
    #[inline]
    pub fn flop(&mut self, dst: VarId, srcs: &[VarId], count: u64) {
        let sig = self.op_sig(dst, srcs);
        self.flop_sig(sig, count);
    }

    /// Records `count` flops under a precomputed [`OpSig`].
    #[inline]
    pub fn flop_sig(&mut self, sig: OpSig, count: u64) {
        match sig.prec {
            Precision::Half => self.counts.flops_f16 += count,
            Precision::Single => self.counts.flops_f32 += count,
            Precision::Double => self.counts.flops_f64 += count,
        }
        self.counts.casts += sig.casts_per_op * count;
    }

    /// Records `count` *heavy* operations (divide, sqrt, exp, log, pow, …)
    /// whose destination is `dst` and floating-point sources are `srcs`.
    ///
    /// Conversion accounting follows [`ExecCtx::flop`]; the counts land in
    /// the `heavy_*` counters, which the cost model charges (almost) equally
    /// at both precisions.
    #[inline]
    pub fn heavy(&mut self, dst: VarId, srcs: &[VarId], count: u64) {
        let sig = self.op_sig(dst, srcs);
        self.heavy_sig(sig, count);
    }

    /// Records `count` heavy operations under a precomputed [`OpSig`].
    #[inline]
    pub fn heavy_sig(&mut self, sig: OpSig, count: u64) {
        match sig.prec {
            Precision::Half => self.counts.heavy_f16 += count,
            Precision::Single => self.counts.heavy_f32 += count,
            Precision::Double => self.counts.heavy_f64 += count,
        }
        self.counts.casts += sig.casts_per_op * count;
    }

    /// Reserves a synthetic address range of `bytes` bytes for non-float
    /// data (index arrays, neighbour lists) whose size does not depend on
    /// the precision configuration.
    pub fn reserve_untyped(&mut self, bytes: u64) -> u64 {
        let base = self.next_base;
        self.next_base = (base + bytes + 63) & !63;
        base
    }

    /// Streams one access to non-float data to the tracer. Not counted in
    /// [`OpCounts`] (those track floating-point traffic only), but it does
    /// occupy cache — int index arrays compete with the float working set.
    #[inline]
    pub fn trace_untyped(&mut self, addr: u64, bytes: u8, write: bool) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.access(addr, bytes, write);
        }
    }

    /// Streams a batched group of interleaved access streams to the tracer
    /// (no counting; a no-op when untraced). Group semantics are those of
    /// [`MemoryTracer::access_group`]: for `i` in `0..count`, each stream's
    /// `i`-th access in declared order — so declaring the streams in a
    /// loop's per-iteration evaluation order reproduces exactly the access
    /// sequence the element-wise loop would have emitted.
    #[inline]
    pub fn trace_group(&mut self, streams: &[StreamSpec], count: usize) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.access_group(streams, count);
        }
    }

    /// Commits `count` iterations of an interleaved stream group: charges
    /// every float stream's loads/stores to the op counters (polling
    /// cancellation once per stream) and emits one batched trace call.
    /// `precs[i]` is `Some` for float streams (charged at that width) and
    /// `None` for index streams (traced but never op-counted). A no-op
    /// when `count` is zero.
    ///
    /// This is the accounting primitive behind both
    /// [`crate::StreamGroup::commit`] and compiled execution plans, so a
    /// plan-interpreted sweep is indistinguishable — counters and access
    /// stream alike — from the hand-written grouped loop.
    pub fn commit_streams(
        &mut self,
        specs: &[StreamSpec],
        precs: &[Option<Precision>],
        count: usize,
    ) {
        if count == 0 {
            return;
        }
        for (spec, prec) in specs.iter().zip(precs) {
            if let Some(p) = *prec {
                if spec.write {
                    self.count_stores(p, count as u64);
                } else {
                    self.count_loads(p, count as u64);
                }
            }
        }
        self.trace_group(specs, count);
    }

    /// Bumps the load counter for `n` elements at `prec` without touching
    /// the tracer. Callers that may be traced are responsible for emitting
    /// the matching access stream via [`ExecCtx::trace_group`] (or a
    /// per-element escape hatch such as [`ExecCtx::trace_untyped`] for
    /// data-dependent patterns).
    #[inline]
    pub fn count_loads(&mut self, prec: Precision, n: u64) {
        self.cancel_point();
        match prec {
            Precision::Half => self.counts.loads_f16 += n,
            Precision::Single => self.counts.loads_f32 += n,
            Precision::Double => self.counts.loads_f64 += n,
        }
    }

    /// Bumps the store counter for `n` elements at `prec` without touching
    /// the tracer.
    #[inline]
    pub fn count_stores(&mut self, prec: Precision, n: u64) {
        self.cancel_point();
        match prec {
            Precision::Half => self.counts.stores_f16 += n,
            Precision::Single => self.counts.stores_f32 += n,
            Precision::Double => self.counts.stores_f64 += n,
        }
    }

    /// Streams one float-element access to the tracer (no counting).
    #[inline]
    pub(crate) fn trace_float(&mut self, prec: Precision, base: u64, index: usize, write: bool) {
        if let Some(tr) = self.tracer.as_deref_mut() {
            let b = prec.bytes();
            tr.access(base + index as u64 * b, b as u8, write);
        }
    }

    #[inline]
    pub(crate) fn record_load(&mut self, prec: Precision, base: u64, index: usize) {
        self.count_loads(prec, 1);
        self.trace_float(prec, base, index, false);
    }

    #[inline]
    pub(crate) fn record_store(&mut self, prec: Precision, base: u64, index: usize) {
        self.count_stores(prec, 1);
        self.trace_float(prec, base, index, true);
    }

    /// Records a contiguous sweep of `n` loads of elements
    /// `start .. start + n` at `prec`: the op counter is bumped once, and
    /// the access stream is emitted as a single one-stream group — in
    /// ascending index order, exactly as `n` individual `get` calls would
    /// emit it.
    #[inline]
    pub fn record_loads(&mut self, prec: Precision, base: u64, start: usize, n: usize) {
        self.count_loads(prec, n as u64);
        if self.tracer.is_some() {
            let b = prec.bytes();
            let spec = StreamSpec {
                base: base + start as u64 * b,
                elem_bytes: b as u8,
                stride: b as i64,
                write: false,
            };
            self.trace_group(&[spec], n);
        }
    }

    /// Records a contiguous sweep of `n` stores of elements
    /// `start .. start + n` at `prec`; the slice-granularity counterpart
    /// of per-element `set` accounting (see [`ExecCtx::record_loads`]).
    #[inline]
    pub fn record_stores(&mut self, prec: Precision, base: u64, start: usize, n: usize) {
        self.count_stores(prec, n as u64);
        if self.tracer.is_some() {
            let b = prec.bytes();
            let spec = StreamSpec {
                base: base + start as u64 * b,
                elem_bytes: b as u8,
                stride: b as i64,
                write: true,
            };
            self.trace_group(&[spec], n);
        }
    }
}

/// A precomputed operation signature: the precision a `flop`/`heavy` call
/// with a given destination and source set executes at, plus the
/// conversions each occurrence costs. Built by [`ExecCtx::op_sig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpSig {
    prec: Precision,
    casts_per_op: u64,
}

impl OpSig {
    /// The precision operations with this signature execute at.
    #[inline]
    pub fn prec(self) -> Precision {
        self.prec
    }

    /// Conversions charged per operation occurrence.
    #[inline]
    pub fn casts_per_op(self) -> u64 {
        self.casts_per_op
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VarRegistry;

    struct Recorder(Vec<(u64, u8, bool)>);
    impl MemoryTracer for Recorder {
        fn access(&mut self, addr: u64, bytes: u8, write: bool) {
            self.0.push((addr, bytes, write));
        }
    }

    fn two_vars() -> (VarId, VarId) {
        let mut reg = VarRegistry::new();
        (reg.fresh("a"), reg.fresh("b"))
    }

    #[test]
    fn flop_all_double() {
        let (a, b) = two_vars();
        let cfg = PrecisionConfig::all_double(2);
        let mut ctx = ExecCtx::new(&cfg);
        ctx.flop(a, &[b], 10);
        assert_eq!(ctx.counts().flops_f64, 10);
        assert_eq!(ctx.counts().flops_f32, 0);
        assert_eq!(ctx.counts().casts, 0);
    }

    #[test]
    fn flop_all_single() {
        let (a, b) = two_vars();
        let cfg = PrecisionConfig::all_single(2);
        let mut ctx = ExecCtx::new(&cfg);
        ctx.flop(a, &[b], 10);
        assert_eq!(ctx.counts().flops_f32, 10);
        assert_eq!(ctx.counts().casts, 0);
    }

    #[test]
    fn flop_mixed_counts_casts() {
        let (a, b) = two_vars();
        let mut cfg = PrecisionConfig::all_double(2);
        cfg.set(a, Precision::Single);
        let mut ctx = ExecCtx::new(&cfg);
        // dst single, src double: op in double, dst converts.
        ctx.flop(a, &[b], 5);
        assert_eq!(ctx.counts().flops_f64, 5);
        assert_eq!(ctx.counts().casts, 5);
    }

    #[test]
    fn reserve_packs_by_configured_width() {
        let (a, b) = two_vars();
        let mut cfg = PrecisionConfig::all_double(2);
        cfg.set(a, Precision::Single);
        let mut ctx = ExecCtx::new(&cfg);
        let base_a = ctx.reserve(a, 16); // 16 * 4 = 64 bytes
        let base_b = ctx.reserve(b, 16); // 16 * 8 = 128 bytes
        assert_eq!(base_b - base_a, 64);
        let after = ctx.reserve(a, 1);
        assert_eq!(after - base_b, 128);
    }

    #[test]
    fn reserve_aligns_to_cache_lines() {
        let (a, b) = two_vars();
        let cfg = PrecisionConfig::all_double(2);
        let mut ctx = ExecCtx::new(&cfg);
        let base_a = ctx.reserve(a, 1); // 8 bytes, rounds to 64
        let base_b = ctx.reserve(b, 1);
        assert_eq!(base_a % 64, 0);
        assert_eq!(base_b % 64, 0);
        assert_eq!(base_b - base_a, 64);
    }

    #[test]
    fn tracer_sees_loads_and_stores() {
        let (a, _) = two_vars();
        let cfg = PrecisionConfig::all_double(2);
        let mut rec = Recorder(Vec::new());
        let mut ctx = ExecCtx::with_tracer(&cfg, &mut rec);
        let mut v = ctx.alloc_vec(a, 4);
        v.set(&mut ctx, 2, 1.0);
        let _ = v.get(&mut ctx, 2);
        drop(ctx);
        assert_eq!(rec.0.len(), 2);
        assert!(rec.0[0].2, "first access is a write");
        assert!(!rec.0[1].2, "second access is a read");
        assert_eq!(rec.0[0].0, rec.0[1].0, "same element, same address");
        assert_eq!(rec.0[0].1, 8);
    }

    #[test]
    fn default_access_group_replays_element_wise() {
        let streams = [
            StreamSpec {
                base: 0x1000,
                elem_bytes: 8,
                stride: 8,
                write: false,
            },
            StreamSpec {
                base: 0x2000,
                elem_bytes: 4,
                stride: 4,
                write: true,
            },
        ];
        let mut rec = Recorder(Vec::new());
        rec.access_group(&streams, 3);
        assert_eq!(
            rec.0,
            vec![
                (0x1000, 8, false),
                (0x2000, 4, true),
                (0x1008, 8, false),
                (0x2004, 4, true),
                (0x1010, 8, false),
                (0x2008, 4, true),
            ]
        );
    }

    #[test]
    fn negative_stride_walks_backwards() {
        let s = StreamSpec {
            base: 0x1010,
            elem_bytes: 8,
            stride: -8,
            write: false,
        };
        assert_eq!(s.addr(0), 0x1010);
        assert_eq!(s.addr(1), 0x1008);
        assert_eq!(s.addr(2), 0x1000);
    }

    #[test]
    fn record_loads_emits_same_stream_as_gets() {
        let (a, _) = two_vars();
        let cfg = PrecisionConfig::all_double(2);
        let mut rec_bulk = Recorder(Vec::new());
        {
            let mut ctx = ExecCtx::with_tracer(&cfg, &mut rec_bulk);
            let v = ctx.alloc_vec(a, 8);
            ctx.record_loads(Precision::Double, v.base(), 2, 5);
        }
        let mut rec_elem = Recorder(Vec::new());
        {
            let mut ctx = ExecCtx::with_tracer(&cfg, &mut rec_elem);
            let v = ctx.alloc_vec(a, 8);
            for i in 2..7 {
                let _ = v.get(&mut ctx, i);
            }
        }
        assert_eq!(rec_bulk.0, rec_elem.0);
    }

    #[test]
    fn single_precision_addresses_are_packed() {
        let (a, _) = two_vars();
        let cfg = PrecisionConfig::all_single(2);
        let mut rec = Recorder(Vec::new());
        let mut ctx = ExecCtx::with_tracer(&cfg, &mut rec);
        let mut v = ctx.alloc_vec(a, 4);
        v.set(&mut ctx, 0, 1.0);
        v.set(&mut ctx, 1, 1.0);
        drop(ctx);
        assert_eq!(rec.0[1].0 - rec.0[0].0, 4, "4-byte stride when single");
    }
}
