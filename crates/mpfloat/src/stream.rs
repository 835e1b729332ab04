//! Reusable builder for batched access-stream groups.
//!
//! Benchmark loops whose access pattern fits no named [`crate::MpVec`]
//! primitive declare their per-iteration accesses once as a
//! [`StreamGroup`] — in the exact order the element-wise loop would
//! evaluate them — and then [`StreamGroup::commit`] both charges the op
//! counters and emits a single [`crate::MemoryTracer::access_group`]
//! call covering the whole sweep. Data-dependent bases (gathers through
//! an index array) are handled either by [`StreamGroup::rebase`] between
//! commits (no reallocation) or by a per-element
//! [`crate::MpVec::trace_element`] escape hatch.

use crate::{ExecCtx, IndexVec, MpVec, Precision, StreamSpec};

/// An ordered set of access streams plus the accounting needed to commit
/// them: float streams carry their storage precision so `commit` can
/// charge loads/stores at the right width, index streams are traced but
/// never op-counted (see [`IndexVec`]).
#[derive(Debug, Clone, Default)]
pub struct StreamGroup {
    specs: Vec<StreamSpec>,
    precs: Vec<Option<Precision>>,
}

impl StreamGroup {
    /// Creates an empty group.
    pub fn new() -> Self {
        StreamGroup {
            specs: Vec::new(),
            precs: Vec::new(),
        }
    }

    /// Number of streams declared so far.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether no streams are declared.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Drops all declared streams, keeping the allocation for reuse.
    pub fn clear(&mut self) -> &mut Self {
        self.specs.clear();
        self.precs.clear();
        self
    }

    /// Declares a unit-stride load stream over `v` starting at element
    /// `start`.
    pub fn load(&mut self, v: &MpVec, start: usize) -> &mut Self {
        self.load_strided(v, start, 1)
    }

    /// Declares a load stream over `v` whose `i`-th access is element
    /// `start + i * step_elems` (the step may be negative or zero).
    pub fn load_strided(&mut self, v: &MpVec, start: usize, step_elems: i64) -> &mut Self {
        self.specs.push(v.stream_load(start, step_elems));
        self.precs.push(Some(v.precision()));
        self
    }

    /// Declares a unit-stride store stream over `v` starting at element
    /// `start`.
    pub fn store(&mut self, v: &MpVec, start: usize) -> &mut Self {
        self.specs.push(v.stream_store(start, 1));
        self.precs.push(Some(v.precision()));
        self
    }

    /// Declares a unit-stride load stream over the index array `iv`
    /// starting at element `start` (traced as 4-byte accesses, never
    /// op-counted).
    pub fn load_index(&mut self, iv: &IndexVec, start: usize) -> &mut Self {
        self.specs.push(iv.stream_load(start, 1));
        self.precs.push(None);
        self
    }

    /// Re-anchors stream `stream` (0-based declaration order) to element
    /// `start` of `v`, keeping its element step and direction. The access
    /// width (and the op-count precision) follows `v`, so a group may be
    /// rebased across arrays stored at different precisions — e.g. a
    /// difference-table level chosen per pass, or a centroid row chosen
    /// per point.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range; debug-asserts that the stream
    /// was declared over a float array (use [`StreamGroup::rebase_index`]
    /// for index streams).
    pub fn rebase(&mut self, stream: usize, v: &MpVec, start: usize) -> &mut Self {
        debug_assert!(
            self.precs[stream].is_some(),
            "rebase must target a float stream"
        );
        let old = self.specs[stream];
        // Element widths are powers of two and strides are exact element
        // multiples, so the arithmetic shift recovers the step exactly —
        // `rebase` sits on per-row/per-point hot paths, where a division
        // per call is measurable.
        let step_elems = old.stride >> old.elem_bytes.trailing_zeros();
        self.specs[stream] = if old.write {
            v.stream_store(start, step_elems)
        } else {
            v.stream_load(start, step_elems)
        };
        self.precs[stream] = Some(v.precision());
        self
    }

    /// [`StreamGroup::rebase`] for an index stream.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is out of range; debug-asserts that the stream
    /// was declared over an index array.
    pub fn rebase_index(&mut self, stream: usize, iv: &IndexVec, start: usize) -> &mut Self {
        debug_assert_eq!(
            self.precs[stream], None,
            "rebase_index must target an index stream"
        );
        self.specs[stream].base = iv.elem_addr(start);
        self
    }

    /// Commits `count` iterations of the group: charges every float
    /// stream's loads/stores to the op counters (polling cancellation
    /// once per stream) and emits one batched trace call. A no-op when
    /// `count` is zero.
    pub fn commit(&self, ctx: &mut ExecCtx<'_>, count: usize) {
        ctx.commit_streams(&self.specs, &self.precs, count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryTracer, PrecisionConfig, VarRegistry};

    struct Rec(Vec<(u64, u8, bool)>);
    impl MemoryTracer for Rec {
        fn access(&mut self, addr: u64, bytes: u8, write: bool) {
            self.0.push((addr, bytes, write));
        }
    }

    #[test]
    fn commit_matches_element_wise_loop() {
        let mut reg = VarRegistry::new();
        let a = reg.fresh("a");
        let b = reg.fresh("b");
        let mut cfg = PrecisionConfig::all_double(reg.len());
        cfg.set(b, crate::Precision::Single);

        let run = |grouped: bool| -> (Vec<(u64, u8, bool)>, crate::OpCounts) {
            let mut rec = Rec(Vec::new());
            let counts;
            {
                let mut ctx = ExecCtx::with_tracer(&cfg, &mut rec);
                let mut x = ctx.alloc_vec(a, 8);
                let y = ctx.alloc_vec(b, 8);
                if grouped {
                    let mut g = StreamGroup::new();
                    g.load(&x, 0).load(&y, 0).store(&x, 0);
                    g.commit(&mut ctx, 8);
                    // Values untouched: the group carries accounting only.
                } else {
                    for i in 0..8 {
                        let t = x.get(&mut ctx, i) + y.get(&mut ctx, i);
                        x.set(&mut ctx, i, t);
                    }
                }
                counts = ctx.counts();
            }
            (rec.0, counts)
        };

        let (gs, gc) = run(true);
        let (es, ec) = run(false);
        assert_eq!(gs, es, "access stream");
        assert_eq!(gc, ec, "op counts");
    }

    #[test]
    fn rebase_moves_only_the_base() {
        let mut reg = VarRegistry::new();
        let a = reg.fresh("a");
        let cfg = PrecisionConfig::all_double(reg.len());
        let mut rec = Rec(Vec::new());
        {
            let mut ctx = ExecCtx::with_tracer(&cfg, &mut rec);
            let v = ctx.alloc_vec(a, 16);
            let mut g = StreamGroup::new();
            g.load(&v, 0);
            g.commit(&mut ctx, 2);
            g.rebase(0, &v, 8);
            g.commit(&mut ctx, 2);
        }
        let addrs: Vec<u64> = rec.0.iter().map(|r| r.0).collect();
        assert_eq!(addrs[1] - addrs[0], 8);
        assert_eq!(addrs[2] - addrs[0], 64);
        assert_eq!(addrs[3] - addrs[2], 8);
    }

    #[test]
    fn rebase_adopts_the_new_arrays_width() {
        let mut reg = VarRegistry::new();
        let a = reg.fresh("a");
        let b = reg.fresh("b");
        let mut cfg = PrecisionConfig::all_double(reg.len());
        cfg.set(b, crate::Precision::Single);
        let mut rec = Rec(Vec::new());
        let counts;
        {
            let mut ctx = ExecCtx::with_tracer(&cfg, &mut rec);
            let va = ctx.alloc_vec(a, 4);
            let vb = ctx.alloc_vec(b, 4);
            let mut g = StreamGroup::new();
            g.load(&va, 0);
            g.commit(&mut ctx, 2);
            g.rebase(0, &vb, 0);
            g.commit(&mut ctx, 2);
            counts = ctx.counts();
        }
        let widths: Vec<u8> = rec.0.iter().map(|r| r.1).collect();
        assert_eq!(widths, [8, 8, 4, 4]);
        assert_eq!(counts.loads_f64, 2);
        assert_eq!(counts.loads_f32, 2);
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let mut reg = VarRegistry::new();
        let a = reg.fresh("a");
        let cfg = PrecisionConfig::all_double(reg.len());
        let mut ctx = ExecCtx::new(&cfg);
        let v = ctx.alloc_vec(a, 4);
        let mut g = StreamGroup::new();
        g.load(&v, 0);
        g.commit(&mut ctx, 0);
        assert_eq!(ctx.counts().total_mem_ops(), 0);
    }
}
