//! Precision-switchable arrays and scalars, plus the bulk-operation layer
//! that makes benchmark hot loops cheap to execute.
//!
//! Every handle caches its [`Precision`] and rounding function at
//! allocation time — precisions are immutable for the lifetime of an
//! [`ExecCtx`] — so per-access configuration lookups never happen on the
//! hot path. The bulk primitives ([`MpVec::fill`], [`MpVec::copy_from`],
//! [`MpVec::axpy`], [`MpVec::xpby`], [`MpVec::dot`],
//! [`MpVec::sum_with_squares`]) are the ones
//! benchmark code calls; each documents the canonical element-wise loop
//! it replaces and are *bit-identical* to it in output
//! values, op counts, and traced access sequence. There is a single path
//! for both tracer modes: counts are charged once per sweep, the access
//! stream is emitted as one batched [`crate::StreamSpec`] group (a no-op
//! untraced, a same-line fast path inside the cache simulator when
//! traced), and compute runs monomorphized over the raw slices.

use crate::{round_to, rounder, ExecCtx, Precision, StreamSpec, VarId};

/// Expands `$body` once per storage precision with `$r` bound to an
/// inlineable rounding closure, so the `Double` arm compiles to a loop with
/// no rounding at all (and can autovectorize) instead of a branch or an
/// opaque fn-pointer call per element.
macro_rules! per_prec {
    ($prec:expr, $r:ident, $body:block) => {
        match $prec {
            Precision::Double => {
                let $r = |v: f64| v;
                $body
            }
            Precision::Single => {
                let $r = |v: f64| v as f32 as f64;
                $body
            }
            Precision::Half => {
                let $r = |v: f64| crate::half::round_f64_to_f16(v);
                $body
            }
        }
    };
}

/// An array whose storage precision is dictated by the active
/// [`crate::PrecisionConfig`].
///
/// Values are held as `f64` but every write rounds through the configured
/// storage precision, so a `Single`-configured array behaves numerically
/// exactly like a C `float*`. Every element access is counted and traced via
/// the [`ExecCtx`].
///
/// # Example
///
/// ```
/// use mixp_float::{ExecCtx, PrecisionConfig, VarRegistry};
///
/// let mut reg = VarRegistry::new();
/// let a = reg.fresh("a");
/// let cfg = PrecisionConfig::all_single(reg.len());
/// let mut ctx = ExecCtx::new(&cfg);
/// let mut v = ctx.alloc_vec(a, 2);
/// v.set(&mut ctx, 0, 1.0 / 3.0);
/// assert_eq!(v.get(&mut ctx, 0), (1.0f64 / 3.0) as f32 as f64);
/// ```
#[derive(Debug, Clone)]
pub struct MpVec {
    var: VarId,
    base: u64,
    prec: Precision,
    round: fn(f64) -> f64,
    data: Vec<f64>,
}

impl MpVec {
    /// Allocates a zero-initialised array for `var`.
    pub fn zeroed(ctx: &mut ExecCtx<'_>, var: VarId, len: usize) -> Self {
        let base = ctx.reserve(var, len);
        let prec = ctx.precision_of(var);
        MpVec {
            var,
            base,
            prec,
            round: rounder(prec),
            data: vec![0.0; len],
        }
    }

    /// Allocates an array initialised from `values`, rounding each element
    /// into the configured storage precision (as `mp_fread` does when the
    /// file holds doubles but the destination is configured single).
    ///
    /// Initialisation models input loading, so it is neither counted as
    /// kernel stores nor traced.
    pub fn from_values(ctx: &mut ExecCtx<'_>, var: VarId, values: &[f64]) -> Self {
        let base = ctx.reserve(var, values.len());
        let prec = ctx.precision_of(var);
        MpVec {
            var,
            base,
            prec,
            round: rounder(prec),
            data: values.iter().map(|&v| round_to(prec, v)).collect(),
        }
    }

    /// Allocates an array initialised by `f(i)`, rounded into storage.
    pub fn from_fn(
        ctx: &mut ExecCtx<'_>,
        var: VarId,
        len: usize,
        mut f: impl FnMut(usize) -> f64,
    ) -> Self {
        let base = ctx.reserve(var, len);
        let prec = ctx.precision_of(var);
        MpVec {
            var,
            base,
            prec,
            round: rounder(prec),
            data: (0..len).map(|i| round_to(prec, f(i))).collect(),
        }
    }

    /// Allocates an array of `len` elements gathered from `src` at indices
    /// `f(i)`, rounded into `var`'s storage precision.
    ///
    /// This models unpacking a loaded input buffer into working arrays
    /// (strided option fields, initial centroids, …): like the other
    /// constructors it is initialisation, so nothing is counted or traced.
    pub fn from_gather(
        ctx: &mut ExecCtx<'_>,
        var: VarId,
        src: &MpVec,
        len: usize,
        mut f: impl FnMut(usize) -> usize,
    ) -> Self {
        Self::from_fn(ctx, var, len, |i| src.data[f(i)])
    }

    /// The variable this array belongs to.
    pub fn var(&self) -> VarId {
        self.var
    }

    /// The storage precision cached at allocation time.
    #[inline]
    pub fn precision(&self) -> Precision {
        self.prec
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The synthetic base address assigned at allocation.
    #[inline]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Bytes per element as stored (the configured width).
    #[inline]
    pub fn elem_bytes(&self) -> u64 {
        self.prec.bytes()
    }

    /// The synthetic address of element `i`.
    #[inline]
    pub fn elem_addr(&self, i: usize) -> u64 {
        self.base + i as u64 * self.prec.bytes()
    }

    /// A load stream whose `i`-th access is element `start + i *
    /// step_elems` (step in elements, may be negative or zero), for use in
    /// a trace group.
    #[inline]
    pub fn stream_load(&self, start: usize, step_elems: i64) -> StreamSpec {
        let b = self.prec.bytes();
        StreamSpec {
            base: self.elem_addr(start),
            elem_bytes: b as u8,
            stride: step_elems.wrapping_mul(b as i64),
            write: false,
        }
    }

    /// The store counterpart of [`MpVec::stream_load`].
    #[inline]
    pub fn stream_store(&self, start: usize, step_elems: i64) -> StreamSpec {
        let b = self.prec.bytes();
        StreamSpec {
            base: self.elem_addr(start),
            elem_bytes: b as u8,
            stride: step_elems.wrapping_mul(b as i64),
            write: true,
        }
    }

    /// Streams one element access to the tracer without counting: the
    /// per-element escape hatch for data-dependent patterns (gathers
    /// through runtime indices) whose loads/stores are charged in bulk via
    /// [`MpVec::bulk_loads`]. A no-op when untraced.
    #[inline]
    pub fn trace_element(&self, ctx: &mut ExecCtx<'_>, i: usize, write: bool) {
        ctx.trace_untyped(self.elem_addr(i), self.prec.bytes() as u8, write);
    }

    /// Reads element `i`, counting and tracing the load.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, ctx: &mut ExecCtx<'_>, i: usize) -> f64 {
        ctx.record_load(self.prec, self.base, i);
        self.data[i]
    }

    /// Writes element `i`, rounding `v` into storage precision and counting
    /// and tracing the store. Returns the value as stored, so callers can
    /// reuse the rounded result without a second (counted) load.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, ctx: &mut ExecCtx<'_>, i: usize, v: f64) -> f64 {
        ctx.record_store(self.prec, self.base, i);
        let r = (self.round)(v);
        self.data[i] = r;
        r
    }

    /// Reads element `i` without accounting (for verification/output
    /// extraction after the timed region).
    #[inline]
    pub fn peek(&self, i: usize) -> f64 {
        self.data[i]
    }

    /// Copies the current contents out as plain `f64`s (for verification).
    pub fn snapshot(&self) -> Vec<f64> {
        self.data.clone()
    }

    // ------------------------------------------------------------------
    // Bulk primitives. Each is bit-identical to its canonical loop in
    // values, counts, and traced stream; untraced it runs count-only.
    // ------------------------------------------------------------------

    /// Stores `v` into every element. Canonical loop:
    /// `for i in 0..len { self.set(ctx, i, v) }`.
    pub fn fill(&mut self, ctx: &mut ExecCtx<'_>, v: f64) {
        let n = self.data.len();
        ctx.record_stores(self.prec, self.base, 0, n);
        // Rounding is a pure function of the input, so rounding once is
        // exactly rounding per element.
        self.data.fill((self.round)(v));
    }

    /// Copies `src` into `self`, re-rounding into `self`'s storage
    /// precision. Canonical loop:
    /// `for i { let t = src.get(ctx, i); self.set(ctx, i, t) }`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn copy_from(&mut self, ctx: &mut ExecCtx<'_>, src: &MpVec) {
        let n = self.data.len();
        assert_eq!(n, src.data.len(), "copy_from: length mismatch");
        ctx.count_loads(src.prec, n as u64);
        ctx.count_stores(self.prec, n as u64);
        ctx.trace_group(&[src.stream_load(0, 1), self.stream_store(0, 1)], n);
        if self.prec >= src.prec {
            // Destination at least as wide as the source: every incoming
            // value is already representable, rounding is the identity.
            self.data.copy_from_slice(&src.data);
        } else {
            per_prec!(self.prec, r, {
                for (d, &s) in self.data.iter_mut().zip(&src.data) {
                    *d = r(s);
                }
            });
        }
    }

    /// `self[i] = self[i] + a * x[i]`. Canonical loop:
    /// `for i { let t = self.get(ctx, i) + a * x.get(ctx, i);
    ///  self.set(ctx, i, t) }` — note the load order: `self`, then `x`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn axpy(&mut self, ctx: &mut ExecCtx<'_>, a: f64, x: &MpVec) {
        let n = self.data.len();
        assert_eq!(n, x.data.len(), "axpy: length mismatch");
        ctx.count_loads(self.prec, n as u64);
        ctx.count_loads(x.prec, n as u64);
        ctx.count_stores(self.prec, n as u64);
        ctx.trace_group(
            &[
                self.stream_load(0, 1),
                x.stream_load(0, 1),
                self.stream_store(0, 1),
            ],
            n,
        );
        per_prec!(self.prec, r, {
            for (d, &s) in self.data.iter_mut().zip(&x.data) {
                *d = r(*d + a * s);
            }
        });
    }

    /// `self[i] = x[i] + b * self[i]`. Canonical loop:
    /// `for i { let t = x.get(ctx, i) + b * self.get(ctx, i);
    ///  self.set(ctx, i, t) }` — note the load order: `x`, then `self`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xpby(&mut self, ctx: &mut ExecCtx<'_>, x: &MpVec, b: f64) {
        let n = self.data.len();
        assert_eq!(n, x.data.len(), "xpby: length mismatch");
        ctx.count_loads(x.prec, n as u64);
        ctx.count_loads(self.prec, n as u64);
        ctx.count_stores(self.prec, n as u64);
        ctx.trace_group(
            &[
                x.stream_load(0, 1),
                self.stream_load(0, 1),
                self.stream_store(0, 1),
            ],
            n,
        );
        per_prec!(self.prec, r, {
            for (d, &s) in self.data.iter_mut().zip(&x.data) {
                *d = r(s + b * *d);
            }
        });
    }

    /// Accumulates `self · other` into `acc`, rounding the running sum
    /// through `acc`'s storage precision at every step. Canonical loop:
    /// `for i { let t = self.get(ctx, i) * other.get(ctx, i);
    ///  acc.set(ctx, acc.get() + t) }`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, ctx: &mut ExecCtx<'_>, other: &MpVec, acc: &mut MpScalar) {
        let n = self.data.len();
        assert_eq!(n, other.data.len(), "dot: length mismatch");
        ctx.count_loads(self.prec, n as u64);
        ctx.count_loads(other.prec, n as u64);
        ctx.trace_group(&[self.stream_load(0, 1), other.stream_load(0, 1)], n);
        per_prec!(acc.precision(), r, {
            let mut a = acc.get();
            for (&x, &y) in self.data.iter().zip(&other.data) {
                a = r(a + x * y);
            }
            acc.assign_prerounded(a);
        });
    }

    /// Accumulates the element sum into `acc` and the sum of squares into
    /// `acc2` off a *single* load per element. Canonical loop:
    /// `for i { let v = self.get(ctx, i); acc.set(ctx, acc.get() + v);
    ///  acc2.set(ctx, acc2.get() + v * v) }`.
    pub fn sum_with_squares(&self, ctx: &mut ExecCtx<'_>, acc: &mut MpScalar, acc2: &mut MpScalar) {
        let n = self.data.len();
        ctx.count_loads(self.prec, n as u64);
        ctx.trace_group(&[self.stream_load(0, 1)], n);
        // The two accumulators may sit at different precisions, so the
        // cached per-handle rounders are used instead of a (quadratic)
        // per-precision-pair expansion.
        let r1 = acc.round;
        let r2 = acc2.round;
        let mut a = acc.get();
        let mut b = acc2.get();
        for &v in &self.data {
            a = r1(a + v);
            b = r2(b + v * v);
        }
        acc.assign_prerounded(a);
        acc2.assign_prerounded(b);
    }

    // ------------------------------------------------------------------
    // Raw fast-path tools, for benchmark loops whose access pattern fits
    // no named primitive. The single hot loop computes over `raw()`/
    // `write_rounded` and declares its access streams once as a
    // `crate::StreamGroup` (whose `commit` both counts and traces), with
    // `bulk_loads` + `trace_element` covering the data-dependent accesses
    // a static stream cannot express.
    // ------------------------------------------------------------------

    /// Uncounted, untracked view of the stored (already rounded) values.
    /// Pair with a committed [`crate::StreamGroup`] (or
    /// [`MpVec::bulk_loads`]) so the op counters still see every logical
    /// load.
    #[inline]
    pub fn raw(&self) -> &[f64] {
        &self.data
    }

    /// Rounds `v` into storage and writes element `i` without accounting.
    /// Pair with a committed store stream.
    /// Returns the value as stored.
    #[inline]
    pub fn write_rounded(&mut self, i: usize, v: f64) -> f64 {
        let r = (self.round)(v);
        self.data[i] = r;
        r
    }

    /// Charges `n` element loads of this array to the op counters in one
    /// step, with no per-element walk and no tracing. Traced callers pair
    /// this with the matching access stream — [`MpVec::trace_element`]
    /// for data-dependent gathers (static patterns belong in a
    /// [`crate::StreamGroup`], whose `commit` already counts).
    #[inline]
    pub fn bulk_loads(&self, ctx: &mut ExecCtx<'_>, n: u64) {
        ctx.count_loads(self.prec, n);
    }
}

/// A scalar variable whose storage precision is dictated by the active
/// configuration.
///
/// Scalars model register-resident locals: writes round into storage but are
/// not traced as memory traffic. The precision and rounding function are
/// cached at construction, so assignments never consult the configuration.
#[derive(Debug, Clone, Copy)]
pub struct MpScalar {
    var: VarId,
    prec: Precision,
    round: fn(f64) -> f64,
    val: f64,
}

impl MpScalar {
    /// Creates the scalar with an initial value rounded into storage.
    #[inline]
    pub fn new(ctx: &ExecCtx<'_>, var: VarId, v: f64) -> Self {
        let prec = ctx.precision_of(var);
        let round = rounder(prec);
        MpScalar {
            var,
            prec,
            round,
            val: round(v),
        }
    }

    /// The variable this scalar belongs to.
    pub fn var(&self) -> VarId {
        self.var
    }

    /// The storage precision cached at construction time.
    #[inline]
    pub fn precision(&self) -> Precision {
        self.prec
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        self.val
    }

    /// Assigns `v`, rounding into the configured storage precision.
    /// Returns the value as stored.
    #[inline]
    pub fn set(&mut self, _ctx: &ExecCtx<'_>, v: f64) -> f64 {
        self.assign(v)
    }

    /// Context-free assignment through the cached rounder (the bulk
    /// primitives hold the context mutably while updating accumulators).
    #[inline]
    pub(crate) fn assign(&mut self, v: f64) -> f64 {
        self.val = (self.round)(v);
        self.val
    }

    /// Stores a value that is already rounded to this scalar's precision.
    #[inline]
    pub(crate) fn assign_prerounded(&mut self, v: f64) {
        debug_assert_eq!(v.to_bits(), (self.round)(v).to_bits());
        self.val = v;
    }
}

/// An integer index array (neighbour lists, cluster assignments, sparse
/// column indices).
///
/// Index data is not tunable — its element width never changes with the
/// precision configuration — but it *does* occupy cache, so reads and writes
/// are traced as 4-byte accesses. This models the `int` arrays of the
/// Rodinia/HPCCG applications that compete with the floating-point working
/// set.
#[derive(Debug, Clone)]
pub struct IndexVec {
    base: u64,
    data: Vec<i64>,
}

impl IndexVec {
    /// Allocates the index array with the given contents.
    pub fn new(ctx: &mut ExecCtx<'_>, values: Vec<i64>) -> Self {
        let base = ctx.reserve_untyped(values.len() as u64 * 4);
        IndexVec { base, data: values }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads element `i`, tracing the access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, ctx: &mut ExecCtx<'_>, i: usize) -> i64 {
        ctx.trace_untyped(self.base + i as u64 * 4, 4, false);
        self.data[i]
    }

    /// Writes element `i`, tracing the access.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn set(&mut self, ctx: &mut ExecCtx<'_>, i: usize, v: i64) {
        ctx.trace_untyped(self.base + i as u64 * 4, 4, true);
        self.data[i] = v;
    }

    /// Reads element `i` without tracing (output extraction).
    #[inline]
    pub fn peek(&self, i: usize) -> i64 {
        self.data[i]
    }

    /// The synthetic address of element `i` (4 bytes per element).
    #[inline]
    pub fn elem_addr(&self, i: usize) -> u64 {
        self.base + i as u64 * 4
    }

    /// A 4-byte load stream whose `i`-th access is element `start + i *
    /// step_elems`, for use in a trace group. Index traffic is traced but
    /// never op-counted.
    #[inline]
    pub fn stream_load(&self, start: usize, step_elems: i64) -> StreamSpec {
        StreamSpec {
            base: self.elem_addr(start),
            elem_bytes: 4,
            stride: step_elems.wrapping_mul(4),
            write: false,
        }
    }

    /// Untracked view of the contents, for untraced fast paths. Index
    /// accesses are never op-counted, so no accounting pairs with this —
    /// but traced runs must keep using [`IndexVec::get`]/[`IndexVec::set`]
    /// so the cache simulator sees the index traffic.
    #[inline]
    pub fn raw(&self) -> &[i64] {
        &self.data
    }

    /// Copies the contents out as `f64` labels for metric comparison.
    pub fn snapshot_f64(&self) -> Vec<f64> {
        self.data.iter().map(|&v| v as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Precision, PrecisionConfig, VarRegistry};

    fn setup(prec: Precision) -> (VarId, PrecisionConfig) {
        let mut reg = VarRegistry::new();
        let a = reg.fresh("a");
        (a, PrecisionConfig::uniform(reg.len(), prec))
    }

    #[test]
    fn double_storage_is_exact() {
        let (a, cfg) = setup(Precision::Double);
        let mut ctx = ExecCtx::new(&cfg);
        let mut v = ctx.alloc_vec(a, 1);
        v.set(&mut ctx, 0, 0.1);
        assert_eq!(v.get(&mut ctx, 0), 0.1);
    }

    #[test]
    fn single_storage_rounds() {
        let (a, cfg) = setup(Precision::Single);
        let mut ctx = ExecCtx::new(&cfg);
        let mut v = ctx.alloc_vec(a, 1);
        v.set(&mut ctx, 0, 0.1);
        assert_eq!(v.get(&mut ctx, 0), 0.1f32 as f64);
    }

    #[test]
    fn set_returns_the_stored_value() {
        let (a, cfg) = setup(Precision::Single);
        let mut ctx = ExecCtx::new(&cfg);
        let mut v = ctx.alloc_vec(a, 1);
        let stored = v.set(&mut ctx, 0, 0.1);
        assert_eq!(stored, 0.1f32 as f64);
        assert_eq!(stored, v.peek(0));
    }

    #[test]
    fn from_values_rounds_on_input() {
        let (a, cfg) = setup(Precision::Single);
        let mut ctx = ExecCtx::new(&cfg);
        let v = MpVec::from_values(&mut ctx, a, &[0.1, 0.2]);
        assert_eq!(v.peek(0), 0.1f32 as f64);
        assert_eq!(v.peek(1), 0.2f32 as f64);
        // Initialisation is not counted as kernel traffic.
        assert_eq!(ctx.counts().total_mem_ops(), 0);
    }

    #[test]
    fn from_fn_initialises_in_order() {
        let (a, cfg) = setup(Precision::Double);
        let mut ctx = ExecCtx::new(&cfg);
        let v = MpVec::from_fn(&mut ctx, a, 4, |i| i as f64 * 2.0);
        assert_eq!(v.snapshot(), vec![0.0, 2.0, 4.0, 6.0]);
    }

    #[test]
    fn from_gather_matches_peek_based_init() {
        let mut reg = VarRegistry::new();
        let a = reg.fresh("a");
        let b = reg.fresh("b");
        let mut cfg = PrecisionConfig::all_double(reg.len());
        cfg.set(b, Precision::Single);
        let mut ctx = ExecCtx::new(&cfg);
        let src = MpVec::from_values(&mut ctx, a, &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let g = MpVec::from_gather(&mut ctx, b, &src, 3, |i| i * 2);
        let reference = MpVec::from_fn(&mut ctx, b, 3, |i| src.peek(i * 2));
        assert_eq!(g.snapshot(), reference.snapshot());
        assert_eq!(ctx.counts().total_mem_ops(), 0, "init is never counted");
    }

    #[test]
    fn accesses_are_counted_at_configured_width() {
        let (a, cfg) = setup(Precision::Single);
        let mut ctx = ExecCtx::new(&cfg);
        let mut v = ctx.alloc_vec(a, 8);
        for i in 0..8 {
            v.set(&mut ctx, i, i as f64);
        }
        for i in 0..8 {
            let _ = v.get(&mut ctx, i);
        }
        let c = ctx.counts();
        assert_eq!(c.stores_f32, 8);
        assert_eq!(c.loads_f32, 8);
        assert_eq!(c.stores_f64, 0);
        assert_eq!(c.loads_f64, 0);
    }

    #[test]
    fn scalar_rounds_on_set() {
        let (a, cfg) = setup(Precision::Single);
        let ctx = ExecCtx::new(&cfg);
        let mut s = MpScalar::new(&ctx, a, 0.0);
        s.set(&ctx, 1.0 / 3.0);
        assert_eq!(s.get(), (1.0f64 / 3.0) as f32 as f64);
    }

    #[test]
    fn scalar_initial_value_rounds() {
        let (a, cfg) = setup(Precision::Single);
        let ctx = ExecCtx::new(&cfg);
        let s = MpScalar::new(&ctx, a, 0.1);
        assert_eq!(s.get(), 0.1f32 as f64);
    }

    #[test]
    fn scalar_caches_precision() {
        let (a, cfg) = setup(Precision::Half);
        let ctx = ExecCtx::new(&cfg);
        let s = MpScalar::new(&ctx, a, 0.0);
        assert_eq!(s.precision(), Precision::Half);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_get_panics() {
        let (a, cfg) = setup(Precision::Double);
        let mut ctx = ExecCtx::new(&cfg);
        let v = ctx.alloc_vec(a, 1);
        let _ = v.get(&mut ctx, 1);
    }

    #[test]
    fn trace_element_matches_get_address_and_width() {
        struct Rec(Vec<(u64, u8, bool)>);
        impl crate::MemoryTracer for Rec {
            fn access(&mut self, addr: u64, bytes: u8, write: bool) {
                self.0.push((addr, bytes, write));
            }
        }
        let (a, cfg) = setup(Precision::Single);
        let mut rec = Rec(Vec::new());
        let mut ctx = ExecCtx::with_tracer(&cfg, &mut rec);
        let v = ctx.alloc_vec(a, 8);
        let _ = v.get(&mut ctx, 5);
        v.bulk_loads(&mut ctx, 1);
        v.trace_element(&mut ctx, 5, false);
        let c = ctx.counts();
        drop(ctx);
        assert_eq!(rec.0[0], rec.0[1], "same element, same access record");
        assert_eq!(c.loads_f32, 2);
    }
}

/// Every bulk primitive against its canonical element-wise loop: output
/// values, op counts, and the traced access stream must agree bit for bit,
/// with and without a tracer, across mixed precision assignments.
#[cfg(test)]
mod bulk_equivalence_tests {
    use super::*;
    use crate::{MemoryTracer, OpCounts, Precision, PrecisionConfig, VarRegistry};

    #[derive(Default)]
    struct Rec(Vec<(u64, u8, bool)>);
    impl MemoryTracer for Rec {
        fn access(&mut self, addr: u64, bytes: u8, write: bool) {
            self.0.push((addr, bytes, write));
        }
    }

    struct Run {
        out: Vec<u64>,
        counts: OpCounts,
        stream: Vec<(u64, u8, bool)>,
    }

    /// Runs `f` under a three-variable config, traced or not, and captures
    /// outputs (as bits), counts, and the access stream.
    fn run_case(
        precs: [Precision; 3],
        traced: bool,
        f: impl FnOnce(&mut ExecCtx<'_>, [VarId; 3]) -> Vec<f64>,
    ) -> Run {
        let mut reg = VarRegistry::new();
        let vars = [reg.fresh("a"), reg.fresh("b"), reg.fresh("c")];
        let mut cfg = PrecisionConfig::all_double(reg.len());
        for (v, p) in vars.iter().zip(precs) {
            cfg.set(*v, p);
        }
        let mut rec = Rec::default();
        let (out, counts) = if traced {
            let mut ctx = ExecCtx::with_tracer(&cfg, &mut rec);
            let o = f(&mut ctx, vars);
            let c = ctx.counts();
            (o, c)
        } else {
            let mut ctx = ExecCtx::new(&cfg);
            let o = f(&mut ctx, vars);
            (o, ctx.counts())
        };
        Run {
            out: out.iter().map(|v| v.to_bits()).collect(),
            counts,
            stream: rec.0,
        }
    }

    /// Asserts primitive ≡ reference for every precision combo of the
    /// first two variables (the third stays Double) and both tracer modes.
    fn check_equivalence(
        bulk: impl Fn(&mut ExecCtx<'_>, [VarId; 3]) -> Vec<f64> + Copy,
        reference: impl Fn(&mut ExecCtx<'_>, [VarId; 3]) -> Vec<f64> + Copy,
    ) {
        let precs = [Precision::Double, Precision::Single, Precision::Half];
        for &pa in &precs {
            for &pb in &precs {
                for traced in [false, true] {
                    let combo = [pa, pb, Precision::Double];
                    let b = run_case(combo, traced, bulk);
                    let r = run_case(combo, traced, reference);
                    assert_eq!(b.out, r.out, "values ({pa:?},{pb:?},traced={traced})");
                    assert_eq!(b.counts, r.counts, "counts ({pa:?},{pb:?},traced={traced})");
                    assert_eq!(b.stream, r.stream, "stream ({pa:?},{pb:?},traced={traced})");
                }
            }
        }
    }

    fn seeded(len: usize, salt: u64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as u64 * 2654435761 + salt * 40503) % 1000) as f64 * 0.003 - 1.1)
            .collect()
    }

    const N: usize = 17;

    #[test]
    fn fill_matches_scalar_loop() {
        check_equivalence(
            |ctx, [a, _, _]| {
                let mut v = MpVec::from_values(ctx, a, &seeded(N, 1));
                v.fill(ctx, 0.1234567890123);
                v.snapshot()
            },
            |ctx, [a, _, _]| {
                let mut v = MpVec::from_values(ctx, a, &seeded(N, 1));
                for i in 0..v.len() {
                    v.set(ctx, i, 0.1234567890123);
                }
                v.snapshot()
            },
        );
    }

    #[test]
    fn copy_from_matches_scalar_loop() {
        check_equivalence(
            |ctx, [a, b, _]| {
                let src = MpVec::from_values(ctx, b, &seeded(N, 2));
                let mut dst = MpVec::from_values(ctx, a, &seeded(N, 3));
                dst.copy_from(ctx, &src);
                dst.snapshot()
            },
            |ctx, [a, b, _]| {
                let src = MpVec::from_values(ctx, b, &seeded(N, 2));
                let mut dst = MpVec::from_values(ctx, a, &seeded(N, 3));
                for i in 0..dst.len() {
                    let t = src.get(ctx, i);
                    dst.set(ctx, i, t);
                }
                dst.snapshot()
            },
        );
    }

    #[test]
    fn axpy_matches_scalar_loop() {
        check_equivalence(
            |ctx, [a, b, _]| {
                let x = MpVec::from_values(ctx, b, &seeded(N, 5));
                let mut y = MpVec::from_values(ctx, a, &seeded(N, 6));
                y.axpy(ctx, -0.7, &x);
                y.snapshot()
            },
            |ctx, [a, b, _]| {
                let x = MpVec::from_values(ctx, b, &seeded(N, 5));
                let mut y = MpVec::from_values(ctx, a, &seeded(N, 6));
                for i in 0..y.len() {
                    let t = y.get(ctx, i) + -0.7 * x.get(ctx, i);
                    y.set(ctx, i, t);
                }
                y.snapshot()
            },
        );
    }

    #[test]
    fn xpby_matches_scalar_loop() {
        check_equivalence(
            |ctx, [a, b, _]| {
                let x = MpVec::from_values(ctx, b, &seeded(N, 7));
                let mut y = MpVec::from_values(ctx, a, &seeded(N, 8));
                y.xpby(ctx, &x, 0.3);
                y.snapshot()
            },
            |ctx, [a, b, _]| {
                let x = MpVec::from_values(ctx, b, &seeded(N, 7));
                let mut y = MpVec::from_values(ctx, a, &seeded(N, 8));
                for i in 0..y.len() {
                    let t = x.get(ctx, i) + 0.3 * y.get(ctx, i);
                    y.set(ctx, i, t);
                }
                y.snapshot()
            },
        );
    }

    #[test]
    fn dot_matches_scalar_loop() {
        check_equivalence(
            |ctx, [a, b, c]| {
                let x = MpVec::from_values(ctx, a, &seeded(N, 9));
                let y = MpVec::from_values(ctx, b, &seeded(N, 10));
                let mut acc = MpScalar::new(ctx, c, 0.25);
                x.dot(ctx, &y, &mut acc);
                vec![acc.get()]
            },
            |ctx, [a, b, c]| {
                let x = MpVec::from_values(ctx, a, &seeded(N, 9));
                let y = MpVec::from_values(ctx, b, &seeded(N, 10));
                let mut acc = MpScalar::new(ctx, c, 0.25);
                for i in 0..x.len() {
                    let t = x.get(ctx, i) * y.get(ctx, i);
                    acc.set(ctx, acc.get() + t);
                }
                vec![acc.get()]
            },
        );
    }

    #[test]
    fn sum_with_squares_matches_scalar_loop() {
        check_equivalence(
            |ctx, [a, b, _]| {
                let x = MpVec::from_values(ctx, a, &seeded(N, 14));
                let mut s = MpScalar::new(ctx, b, 0.0);
                let mut s2 = MpScalar::new(ctx, b, 0.0);
                x.sum_with_squares(ctx, &mut s, &mut s2);
                vec![s.get(), s2.get()]
            },
            |ctx, [a, b, _]| {
                let x = MpVec::from_values(ctx, a, &seeded(N, 14));
                let mut s = MpScalar::new(ctx, b, 0.0);
                let mut s2 = MpScalar::new(ctx, b, 0.0);
                for i in 0..x.len() {
                    let v = x.get(ctx, i);
                    s.set(ctx, s.get() + v);
                    s2.set(ctx, s2.get() + v * v);
                }
                vec![s.get(), s2.get()]
            },
        );
    }

    #[test]
    fn raw_and_write_rounded_match_untraced_get_set_values() {
        // The raw fast-path tools must round exactly like set/get; counts
        // are charged separately via bulk_loads/count_stores.
        for prec in [Precision::Double, Precision::Single, Precision::Half] {
            let run = run_case([prec, prec, Precision::Double], false, |ctx, [a, _, _]| {
                let mut v = MpVec::from_values(ctx, a, &seeded(N, 16));
                let mut out = Vec::new();
                v.bulk_loads(ctx, N as u64);
                ctx.count_stores(prec, N as u64);
                for i in 0..N {
                    let t = v.raw()[i];
                    out.push(v.write_rounded(i, t * 1.7 + 0.01));
                }
                out.extend(v.snapshot());
                out
            });
            let reference = run_case([prec, prec, Precision::Double], false, |ctx, [a, _, _]| {
                let mut v = MpVec::from_values(ctx, a, &seeded(N, 16));
                let mut out = Vec::new();
                for i in 0..N {
                    let t = v.get(ctx, i);
                    out.push(v.set(ctx, i, t * 1.7 + 0.01));
                }
                out.extend(v.snapshot());
                out
            });
            assert_eq!(run.out, reference.out, "values at {prec:?}");
            assert_eq!(run.counts, reference.counts, "counts at {prec:?}");
        }
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;
    use crate::{PrecisionConfig, VarRegistry};

    #[test]
    fn index_vec_round_trips() {
        let mut reg = VarRegistry::new();
        let _ = reg.fresh("pad");
        let cfg = PrecisionConfig::all_double(reg.len());
        let mut ctx = ExecCtx::new(&cfg);
        let mut iv = IndexVec::new(&mut ctx, vec![3, 1, 4]);
        assert_eq!(iv.get(&mut ctx, 0), 3);
        iv.set(&mut ctx, 1, 9);
        assert_eq!(iv.peek(1), 9);
        assert_eq!(iv.raw(), &[3, 9, 4]);
        assert_eq!(iv.snapshot_f64(), vec![3.0, 9.0, 4.0]);
        assert_eq!(iv.len(), 3);
    }

    #[test]
    fn index_vec_traces_four_byte_accesses() {
        struct Rec(Vec<(u64, u8, bool)>);
        impl crate::MemoryTracer for Rec {
            fn access(&mut self, addr: u64, bytes: u8, write: bool) {
                self.0.push((addr, bytes, write));
            }
        }
        let mut reg = VarRegistry::new();
        let _ = reg.fresh("pad");
        let cfg = PrecisionConfig::all_double(reg.len());
        let mut rec = Rec(Vec::new());
        let mut ctx = ExecCtx::with_tracer(&cfg, &mut rec);
        let iv = IndexVec::new(&mut ctx, vec![1, 2]);
        let _ = iv.get(&mut ctx, 1);
        drop(ctx);
        assert_eq!(rec.0.len(), 1);
        assert_eq!(rec.0[0].1, 4);
        assert!(!rec.0[0].2);
    }
}
