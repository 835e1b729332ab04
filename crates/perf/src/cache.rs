//! Set-associative cache simulation.

use mixp_float::{MemoryTracer, StreamSpec};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelParams {
    /// Number of sets (must be a power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Line size in bytes (must be a power of two).
    pub line: usize,
}

impl LevelParams {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways * self.line
    }
}

/// Geometry of the simulated memory hierarchy (L1 + L2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// First-level cache.
    pub l1: LevelParams,
    /// Second-level cache.
    pub l2: LevelParams,
    /// Fault-injection hook: build the hierarchy pre-poisoned (see
    /// [`CacheSim::poison`]), so every [`CacheStats`] it reports carries the
    /// poison marker and the cost model prices the run as NaN. Used by
    /// robustness tests to prove a broken *model* surfaces as a typed error
    /// rather than a plausible number or a panic. Never set in production.
    pub poison_stats: bool,
}

impl Default for CacheParams {
    /// A small Xeon-like hierarchy: 32 KiB 8-way L1, 256 KiB 8-way L2,
    /// 64-byte lines. Small enough that the benchmarks' working sets
    /// straddle the capacities, which is where precision-dependent
    /// footprints matter.
    fn default() -> Self {
        CacheParams {
            l1: LevelParams {
                sets: 64,
                ways: 8,
                line: 64,
            },
            l2: LevelParams {
                sets: 512,
                ways: 8,
                line: 64,
            },
            poison_stats: false,
        }
    }
}

/// Counters produced by a simulated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Total accesses observed.
    pub accesses: u64,
    /// Accesses that hit in L1.
    pub l1_hits: u64,
    /// Accesses that missed L1 but hit L2.
    pub l2_hits: u64,
    /// Accesses that missed both levels (served from memory).
    pub misses: u64,
    /// Dirty lines written back to the next level / memory.
    pub writebacks: u64,
    /// Whether the simulator that produced these counters was poisoned by
    /// the fault-injection hook ([`CacheSim::poison`]). A poisoned run's
    /// counters are untrustworthy; [`crate::CostModel::cost`] prices them
    /// as NaN so the corruption becomes a typed non-finite-quality failure
    /// downstream instead of a silently wrong speedup.
    pub poisoned: bool,
}

impl CacheStats {
    /// Fraction of accesses that missed all levels. Zero when no accesses
    /// were observed.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Tag value that marks a way as empty. Unreachable as a real tag: it
/// would require an address within one line of `u64::MAX`, far above the
/// synthetic allocation range (`ExecCtx` bases grow upward from 0x1000).
const EMPTY_TAG: u64 = u64::MAX;

/// Per-stream memo for the batched `access_group` fast path: the address
/// the stream's next access will touch, where the line it last resolved
/// to sits (`way`, an absolute index into the tag/stamp/dirty arrays —
/// `set * ways + way_in_set`), and `cross_in` — the
/// number of upcoming accesses still on that line. While `valid` holds
/// and `cross_in > 0`, an access is a guaranteed hit at exactly that way,
/// so both the set scan and the address decomposition are skipped.
///
/// Validity is eviction-driven rather than re-checked per access: every
/// miss fill scans the (small) stream list and clears `valid` on any memo
/// pointing at the refilled way. Line state only changes through misses
/// (hits touch stamp/dirty, never tag), so between fills a valid memo
/// stays correct by construction. `cross_in` is pure address arithmetic —
/// decremented as iterations advance, recomputed (one division) only when
/// the stream actually crosses a line boundary or loses its memo.
#[derive(Debug, Clone, Copy, Default)]
struct StreamState {
    addr: u64,
    cross_in: usize,
    way: usize,
    valid: bool,
}

/// Accesses a stream still on its memoised line has left, given that its
/// *previous* access touched `prev` and the next will touch `next`.
/// `usize::MAX` for a zero stride (never crosses); the caller treats the
/// value only as a countdown, so the sentinel just means "unbounded".
#[inline]
fn cross_in_after(prev: u64, next: u64, stride: i64, line_shift: u32) -> usize {
    if next >> line_shift != prev >> line_shift {
        return 0;
    }
    let line_mask = (1u64 << line_shift) - 1;
    if stride > 0 {
        let remaining = (line_mask + 1) - (next & line_mask);
        remaining.div_ceil(stride as u64) as usize
    } else if stride < 0 {
        ((next & line_mask) / stride.unsigned_abs()) as usize + 1
    } else {
        usize::MAX
    }
}

/// One level of set-associative, write-back, write-allocate cache with
/// true-LRU replacement.
#[derive(Debug, Clone)]
pub struct CacheSim {
    params: LevelParams,
    // Address-decomposition constants, hoisted out of the per-access hot
    // path: `touch` runs once per traced load/store, so recomputing these
    // shift/mask values from the geometry on every call is measurable.
    line_shift: u32,
    set_mask: usize,
    tag_shift: u32,
    // Line state in structure-of-arrays layout, indexed by absolute way
    // (`set * ways + w`). The hit scan compares `ways` contiguous u64
    // tags — one cache line for an 8-way set — instead of striding
    // through an array of line structs, and the LRU victim scan reads
    // `stamps` the same way. Empty ways hold `EMPTY_TAG` / stamp 0 /
    // clean, so neither scan needs a validity branch: the sentinel never
    // matches a real tag, and stamp 0 sorts before every live stamp
    // (the clock starts at 1).
    tags: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    // Lazy epoch-stamped invalidation, per *set* rather than per line: a
    // set whose `set_epoch` entry differs from `epoch` is wiped (all
    // ways emptied) on first touch after a reset. Keeps `reset` O(1)
    // without a per-access epoch check in the scans. Construction leaves
    // every set current (`set_epoch == epoch`) over already-empty ways.
    set_epoch: Vec<u64>,
    epoch: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
    poisoned: bool,
    // Reused per-stream state for `access_group`, kept on the simulator so
    // a group commit allocates nothing.
    scratch: Vec<StreamState>,
}

/// Outcome of one access against a single level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Hit,
    /// Missed; `true` if a dirty victim was evicted.
    Miss {
        dirty_evict: bool,
    },
}

impl CacheSim {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line` are not powers of two, or `ways == 0`.
    pub fn new(params: LevelParams) -> Self {
        assert!(params.sets.is_power_of_two(), "sets must be a power of two");
        assert!(params.line.is_power_of_two(), "line must be a power of two");
        assert!(params.ways > 0, "ways must be positive");
        CacheSim {
            params,
            line_shift: params.line.trailing_zeros(),
            set_mask: params.sets - 1,
            tag_shift: params.sets.trailing_zeros(),
            tags: vec![EMPTY_TAG; params.sets * params.ways],
            stamps: vec![0; params.sets * params.ways],
            dirty: vec![false; params.sets * params.ways],
            set_epoch: vec![1; params.sets],
            epoch: 1,
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
            poisoned: false,
            scratch: Vec::new(),
        }
    }

    /// The cache geometry.
    pub fn params(&self) -> LevelParams {
        self.params
    }

    /// Hits observed so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Fault-injection hook: marks this level's counters as untrustworthy.
    /// The poison propagates into every [`CacheStats`] reported by a
    /// hierarchy containing this level, and from there into a NaN cost
    /// ([`crate::CostModel::cost`]). Models a corrupted performance-counter
    /// readout; exists so robustness tests can prove model faults surface
    /// as typed errors, never panics or plausible-looking numbers.
    pub fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Whether the fault hook has fired on this level.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Returns the level to its as-new state in O(1): bumping the epoch
    /// invalidates every line without touching the line array, and the
    /// counters, clock and poison marker are cleared. Behaviour after a
    /// reset is bit-identical to a freshly built simulator (stale tags,
    /// stamps and dirty bits are unreachable behind the epoch check).
    pub fn reset(&mut self) {
        self.epoch += 1;
        self.clock = 0;
        self.hits = 0;
        self.misses = 0;
        self.writebacks = 0;
        self.poisoned = false;
    }

    #[inline]
    fn touch(&mut self, addr: u64, write: bool) -> Access {
        self.touch_way(addr, write).0
    }

    /// The full access path, additionally returning the absolute index of
    /// the line the access resolved to (hit way, or the way the miss
    /// filled) so `access_group` can memoise it.
    #[inline]
    fn touch_way(&mut self, addr: u64, write: bool) -> (Access, usize) {
        self.clock += 1;
        let block = addr >> self.line_shift;
        let set = (block as usize) & self.set_mask;
        let tag = block >> self.tag_shift;
        let ways = self.params.ways;
        let base = set * ways;
        if self.set_epoch[set] != self.epoch {
            // First touch of this set since the last reset: wipe it.
            self.set_epoch[set] = self.epoch;
            self.tags[base..base + ways].fill(EMPTY_TAG);
            self.stamps[base..base + ways].fill(0);
            self.dirty[base..base + ways].fill(false);
        }

        if let Some(w) = self.tags[base..base + ways].iter().position(|&t| t == tag) {
            let aw = base + w;
            self.stamps[aw] = self.clock;
            self.dirty[aw] |= write;
            self.hits += 1;
            return (Access::Hit, aw);
        }

        // Miss: fill into an empty way (stamp 0, always least) or evict
        // the LRU way — first minimal stamp, scanning ways in order.
        self.misses += 1;
        let mut vw = base;
        let mut vs = self.stamps[base];
        for w in base + 1..base + ways {
            if self.stamps[w] < vs {
                vs = self.stamps[w];
                vw = w;
            }
        }
        let dirty_evict = self.dirty[vw];
        if dirty_evict {
            self.writebacks += 1;
        }
        self.tags[vw] = tag;
        self.stamps[vw] = self.clock;
        self.dirty[vw] = write;
        (Access::Miss { dirty_evict }, vw)
    }
}

impl MemoryTracer for CacheSim {
    #[inline]
    fn access(&mut self, addr: u64, _bytes: u8, write: bool) {
        let _ = self.touch(addr, write);
    }

    /// Batched fast path, run-granular. Equivalence with the element-wise
    /// replay is by construction, in two layers:
    ///
    /// - *Run batching*: when every stream sits on its memoised resident
    ///   line, the next `run` iterations are provably all hits (hits never
    ///   evict, so residency cannot be lost mid-run), and their combined
    ///   effect is computed in closed form — the LRU clock advances by
    ///   `run * streams`, each line's stamp lands on the clock value its
    ///   *last* scalar touch would have written (streams are stamped in
    ///   declaration order, so a line shared by several streams keeps the
    ///   highest), dirty bits are OR-ed, hits are bulk-counted.
    /// - *Scalar fallback*: any iteration not covered by a run — first
    ///   touch, block crossing, memoised way evicted by another stream —
    ///   goes through the same [`CacheSim::touch_way`] the element-wise
    ///   path uses, then re-memoises.
    fn access_group(&mut self, streams: &[StreamSpec], count: usize) {
        // Tiny commits — short data-dependent inner loops rebased per
        // point (a feature row, a particle quad) — are dominated by the
        // batching machinery, not by the accesses: replay them directly.
        if count * streams.len() <= 32 {
            for i in 0..count {
                for spec in streams {
                    let _ = self.touch(spec.addr(i), spec.write);
                }
            }
            return;
        }
        let line_shift = self.line_shift;
        let line_mask = (1u64 << line_shift) - 1;
        // A stream whose stride spans at least a whole line changes block
        // on every iteration, so the memo/run machinery can never fire —
        // when the entire group is like that (the lock-step batched-system
        // sweeps), skip straight to the plain scalar walk.
        if streams.iter().all(|s| s.stride.unsigned_abs() > line_mask) {
            let mut addrs = std::mem::take(&mut self.scratch);
            addrs.clear();
            addrs.extend(streams.iter().map(|s| StreamState {
                addr: s.base,
                ..StreamState::default()
            }));
            for _ in 0..count {
                for (k, spec) in streams.iter().enumerate() {
                    let st = &mut addrs[k];
                    let addr = st.addr;
                    st.addr = addr.wrapping_add(spec.stride as u64);
                    let _ = self.touch(addr, spec.write);
                }
            }
            self.scratch = addrs;
            return;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(streams.iter().map(|s| StreamState {
            addr: s.base,
            ..StreamState::default()
        }));
        let nstreams = streams.len() as u64;
        let mut i = 0;
        while i < count {
            // Longest run of guaranteed hits starting at iteration `i`:
            // the smallest per-stream countdown, zero as soon as any memo
            // is missing. No divisions and no line loads here — `cross_in`
            // is maintained incrementally and validity is eviction-driven.
            let mut run = count - i;
            for st in &scratch {
                if !st.valid || st.cross_in == 0 {
                    run = 0;
                    break;
                }
                run = run.min(st.cross_in);
            }
            if run > 0 {
                let r = run as u64;
                let base_clock = self.clock;
                self.clock += r * nstreams;
                self.hits += r * nstreams;
                for (k, spec) in streams.iter().enumerate() {
                    let st = &mut scratch[k];
                    self.stamps[st.way] = base_clock + (r - 1) * nstreams + k as u64 + 1;
                    self.dirty[st.way] |= spec.write;
                    st.addr = st.addr.wrapping_add((spec.stride as u64).wrapping_mul(r));
                    st.cross_in -= run;
                }
                i += run;
                continue;
            }
            for (k, spec) in streams.iter().enumerate() {
                let (addr, next) = {
                    let st = &mut scratch[k];
                    let addr = st.addr;
                    st.addr = addr.wrapping_add(spec.stride as u64);
                    if st.valid && st.cross_in > 0 {
                        self.clock += 1;
                        self.stamps[st.way] = self.clock;
                        self.dirty[st.way] |= spec.write;
                        self.hits += 1;
                        st.cross_in -= 1;
                        continue;
                    }
                    (addr, st.addr)
                };
                let (outcome, way) = self.touch_way(addr, spec.write);
                if let Access::Miss { .. } = outcome {
                    // The fill gave `way` a new tag: any memo pointing at
                    // it is stale now (including overlapping streams).
                    for st in scratch.iter_mut() {
                        if st.valid && st.way == way {
                            st.valid = false;
                        }
                    }
                }
                let st = &mut scratch[k];
                st.way = way;
                st.valid = true;
                st.cross_in = cross_in_after(addr, next, spec.stride, line_shift);
            }
            i += 1;
        }
        self.scratch = scratch;
    }
}

/// A two-level hierarchy: accesses filter through L1 into L2; L1 dirty
/// evictions write into L2.
///
/// Implements [`MemoryTracer`], so it can be plugged directly into an
/// [`mixp_float::ExecCtx`].
#[derive(Debug, Clone)]
pub struct Hierarchy {
    params: CacheParams,
    l1: CacheSim,
    l2: CacheSim,
    stats: CacheStats,
    // Reused per-stream L1 state for `access_group` (see `StreamState`).
    scratch: Vec<StreamState>,
}

impl Hierarchy {
    /// Creates an empty two-level hierarchy. `params.poison_stats` carries
    /// the fault-injection hook through: a poisoned hierarchy simulates
    /// normally but flags every stats snapshot it reports.
    pub fn new(params: CacheParams) -> Self {
        let mut l1 = CacheSim::new(params.l1);
        if params.poison_stats {
            l1.poison();
        }
        Hierarchy {
            params,
            l1,
            l2: CacheSim::new(params.l2),
            stats: CacheStats::default(),
            scratch: Vec::new(),
        }
    }

    /// The geometry (and fault hook) this hierarchy was built with.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    /// Returns the hierarchy to its as-new state in O(1) (see
    /// [`CacheSim::reset`]): both levels' lines are epoch-invalidated,
    /// stats are cleared, and the construction-time poison hook is
    /// re-applied. A reset hierarchy is behaviourally bit-identical to
    /// `Hierarchy::new(self.params())`, which lets callers that evaluate
    /// in a tight loop reuse one simulator instead of re-initialising
    /// `sets * ways` lines per evaluation.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        if self.params.poison_stats {
            self.l1.poison();
        }
        self.stats = CacheStats::default();
    }

    /// Fault-injection hook: poisons the hierarchy (see [`CacheSim::poison`]).
    pub fn poison(&mut self) {
        self.l1.poison();
    }

    /// Statistics accumulated so far. Carries the poison marker when the
    /// fault hook has fired on either level.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            poisoned: self.l1.poisoned() || self.l2.poisoned(),
            ..self.stats
        }
    }
}

impl MemoryTracer for Hierarchy {
    #[inline]
    fn access(&mut self, addr: u64, _bytes: u8, write: bool) {
        self.stats.accesses += 1;
        match self.l1.touch(addr, write) {
            Access::Hit => self.stats.l1_hits += 1,
            Access::Miss { dirty_evict } => {
                if dirty_evict {
                    // L1 victim writes back into L2 (modelled as a write
                    // touch; its address is unknown here, so we charge the
                    // writeback cost without disturbing L2 contents).
                    self.stats.writebacks += 1;
                }
                match self.l2.touch(addr, write) {
                    Access::Hit => self.stats.l2_hits += 1,
                    Access::Miss { dirty_evict } => {
                        if dirty_evict {
                            self.stats.writebacks += 1;
                        }
                        self.stats.misses += 1;
                    }
                }
            }
        }
    }

    /// Batched fast path over the L1 front, run-granular (the same
    /// two-layer construction as [`CacheSim::access_group`]): a run of
    /// iterations in which every stream sits on its memoised resident L1
    /// line is all L1 hits — which the scalar path never forwards to L2 —
    /// so its combined L1 bookkeeping is applied in closed form. Any other
    /// iteration takes the exact scalar two-level path and re-memoises
    /// where L1 placed the line.
    fn access_group(&mut self, streams: &[StreamSpec], count: usize) {
        // Tiny commits: replay directly (see [`CacheSim::access_group`]).
        if count * streams.len() <= 32 {
            for i in 0..count {
                for spec in streams {
                    self.access(spec.addr(i), spec.elem_bytes, spec.write);
                }
            }
            return;
        }
        let line_shift = self.l1.line_shift;
        let line_mask = (1u64 << line_shift) - 1;
        // All-far-strided groups change block every iteration; see
        // [`CacheSim::access_group`].
        if streams.iter().all(|s| s.stride.unsigned_abs() > line_mask) {
            let mut addrs = std::mem::take(&mut self.scratch);
            addrs.clear();
            addrs.extend(streams.iter().map(|s| StreamState {
                addr: s.base,
                ..StreamState::default()
            }));
            for _ in 0..count {
                for (k, spec) in streams.iter().enumerate() {
                    let st = &mut addrs[k];
                    let addr = st.addr;
                    st.addr = addr.wrapping_add(spec.stride as u64);
                    self.access(addr, spec.elem_bytes, spec.write);
                }
            }
            self.scratch = addrs;
            return;
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.extend(streams.iter().map(|s| StreamState {
            addr: s.base,
            ..StreamState::default()
        }));
        let nstreams = streams.len() as u64;
        let mut i = 0;
        while i < count {
            // Division- and load-free run computation (see
            // [`CacheSim::access_group`]): countdowns are maintained,
            // validity is eviction-driven.
            let mut run = count - i;
            for st in &scratch {
                if !st.valid || st.cross_in == 0 {
                    run = 0;
                    break;
                }
                run = run.min(st.cross_in);
            }
            if run > 0 {
                let r = run as u64;
                let base_clock = self.l1.clock;
                self.l1.clock += r * nstreams;
                self.l1.hits += r * nstreams;
                self.stats.accesses += r * nstreams;
                self.stats.l1_hits += r * nstreams;
                for (k, spec) in streams.iter().enumerate() {
                    let st = &mut scratch[k];
                    self.l1.stamps[st.way] = base_clock + (r - 1) * nstreams + k as u64 + 1;
                    self.l1.dirty[st.way] |= spec.write;
                    st.addr = st.addr.wrapping_add((spec.stride as u64).wrapping_mul(r));
                    st.cross_in -= run;
                }
                i += run;
                continue;
            }
            for (k, spec) in streams.iter().enumerate() {
                self.stats.accesses += 1;
                let (addr, next) = {
                    let st = &mut scratch[k];
                    let addr = st.addr;
                    st.addr = addr.wrapping_add(spec.stride as u64);
                    if st.valid && st.cross_in > 0 {
                        self.l1.clock += 1;
                        self.l1.stamps[st.way] = self.l1.clock;
                        self.l1.dirty[st.way] |= spec.write;
                        self.l1.hits += 1;
                        self.stats.l1_hits += 1;
                        st.cross_in -= 1;
                        continue;
                    }
                    (addr, st.addr)
                };
                let (outcome, way) = self.l1.touch_way(addr, spec.write);
                match outcome {
                    Access::Hit => self.stats.l1_hits += 1,
                    Access::Miss { dirty_evict } => {
                        if dirty_evict {
                            self.stats.writebacks += 1;
                        }
                        match self.l2.touch(addr, spec.write) {
                            Access::Hit => self.stats.l2_hits += 1,
                            Access::Miss { dirty_evict } => {
                                if dirty_evict {
                                    self.stats.writebacks += 1;
                                }
                                self.stats.misses += 1;
                            }
                        }
                        // The L1 fill gave `way` a new tag: stale memos
                        // pointing at it must drop out of the fast path.
                        for st in scratch.iter_mut() {
                            if st.valid && st.way == way {
                                st.valid = false;
                            }
                        }
                    }
                }
                let st = &mut scratch[k];
                st.way = way;
                st.valid = true;
                st.cross_in = cross_in_after(addr, next, spec.stride, line_shift);
            }
            i += 1;
        }
        self.scratch = scratch;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixp_core::prop::{bools, u64s, usizes, vecs};
    use mixp_core::{prop_assert_eq, prop_check};

    fn tiny() -> LevelParams {
        // 2 sets x 2 ways x 64B = 256 B
        LevelParams {
            sets: 2,
            ways: 2,
            line: 64,
        }
    }

    #[test]
    fn capacity() {
        assert_eq!(tiny().capacity(), 256);
        assert_eq!(CacheParams::default().l1.capacity(), 32 * 1024);
        assert_eq!(CacheParams::default().l2.capacity(), 256 * 1024);
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = CacheSim::new(tiny());
        assert_eq!(c.touch(0, false), Access::Miss { dirty_evict: false });
        assert_eq!(c.touch(0, false), Access::Hit);
        assert_eq!(c.touch(8, false), Access::Hit, "same line");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = CacheSim::new(tiny());
        // Set 0 holds lines with block % 2 == 0: addresses 0, 128, 256, ...
        c.touch(0, false); // A miss
        c.touch(128, false); // B miss (set 0 now full)
        c.touch(0, false); // A hit, B becomes LRU
        c.touch(256, false); // C miss, evicts B
        assert_eq!(c.touch(0, false), Access::Hit, "A survived");
        assert_eq!(
            c.touch(128, false),
            Access::Miss { dirty_evict: false },
            "B was evicted"
        );
    }

    #[test]
    fn dirty_eviction_counts_writeback() {
        let mut c = CacheSim::new(tiny());
        c.touch(0, true); // dirty A
        c.touch(128, false); // B
        c.touch(256, false); // evicts A (LRU, dirty)
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = CacheSim::new(tiny());
        c.touch(0, false);
        c.touch(128, false);
        c.touch(256, false);
        assert_eq!(c.writebacks(), 0);
    }

    #[test]
    fn hierarchy_l2_catches_l1_misses() {
        let params = CacheParams {
            l1: tiny(),
            l2: LevelParams {
                sets: 16,
                ways: 4,
                line: 64,
            },
            ..CacheParams::default()
        };
        let mut h = Hierarchy::new(params);
        // Touch 8 distinct lines mapping to L1 set 0 (stride 128): L1 can
        // hold 2; L2 holds all 8.
        for i in 0..8u64 {
            h.access(i * 128, 8, false);
        }
        // Second sweep: all miss L1 (capacity 2 ways), all hit L2.
        for i in 0..8u64 {
            h.access(i * 128, 8, false);
        }
        let s = h.stats();
        assert_eq!(s.accesses, 16);
        assert_eq!(s.misses, 8, "first sweep misses memory");
        assert_eq!(s.l2_hits, 8, "second sweep hits L2");
        assert_eq!(s.l1_hits, 0);
    }

    #[test]
    fn sequential_sweep_hit_rate_reflects_line_size() {
        let mut h = Hierarchy::new(CacheParams::default());
        // 64-byte lines, 8-byte elements: 1 miss + 7 hits per line.
        for i in 0..4096u64 {
            h.access(i * 8, 8, false);
        }
        let s = h.stats();
        assert_eq!(s.misses, 4096 / 8);
        assert_eq!(s.l1_hits, 4096 - 4096 / 8);
    }

    #[test]
    fn halved_element_width_halves_sweep_misses() {
        // The core footprint effect: the same element count at 4 bytes
        // touches half as many lines.
        let mut h8 = Hierarchy::new(CacheParams::default());
        let mut h4 = Hierarchy::new(CacheParams::default());
        for i in 0..4096u64 {
            h8.access(i * 8, 8, false);
            h4.access(i * 4, 4, false);
        }
        assert_eq!(h4.stats().misses * 2, h8.stats().misses);
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_sets_panic() {
        CacheSim::new(LevelParams {
            sets: 3,
            ways: 1,
            line: 64,
        });
    }

    #[test]
    fn miss_rate_zero_when_no_accesses() {
        assert_eq!(CacheStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn poison_hook_marks_stats_without_disturbing_counters() {
        let params = CacheParams::default();
        let mut clean = Hierarchy::new(params);
        let mut poisoned = Hierarchy::new(CacheParams {
            poison_stats: true,
            ..params
        });
        for i in 0..256u64 {
            clean.access(i * 8, 8, i % 3 == 0);
            poisoned.access(i * 8, 8, i % 3 == 0);
        }
        let (c, p) = (clean.stats(), poisoned.stats());
        assert!(!c.poisoned && p.poisoned);
        // The poison is a marker, not a perturbation: the simulation itself
        // is untouched.
        assert_eq!(
            (c.accesses, c.l1_hits, c.misses),
            (p.accesses, p.l1_hits, p.misses)
        );
        // And the late hook poisons an already-running hierarchy too.
        clean.poison();
        assert!(clean.stats().poisoned);
    }

    /// Accounting invariant: every access is exactly one of
    /// l1-hit / l2-hit / miss.
    #[test]
    fn access_classes_partition() {
        prop_check!((
            addrs in vecs(u64s(0..1_000_000), 1..500),
            writes in vecs(bools(), 500..501),
        ) => {
            let mut h = Hierarchy::new(CacheParams {
                l1: LevelParams { sets: 4, ways: 2, line: 64 },
                l2: LevelParams { sets: 16, ways: 2, line: 64 },
                ..CacheParams::default()
            });
            for (i, &a) in addrs.iter().enumerate() {
                h.access(a, 8, writes[i % writes.len()]);
            }
            let s = h.stats();
            prop_assert_eq!(s.accesses as usize, addrs.len());
            prop_assert_eq!(s.l1_hits + s.l2_hits + s.misses, s.accesses);
        });
    }

    /// Replays a group element-wise through the scalar `access` path.
    fn scalar_replay(sim: &mut dyn MemoryTracer, streams: &[StreamSpec], count: usize) {
        for i in 0..count {
            for s in streams {
                sim.access(s.addr(i), s.elem_bytes, s.write);
            }
        }
    }

    fn arbitrary_streams(bases: &[u64], strides: &[i64], writes: &[bool]) -> Vec<StreamSpec> {
        bases
            .iter()
            .zip(strides)
            .zip(writes)
            .map(|((&b, &s), &w)| StreamSpec {
                base: b,
                elem_bytes: 8,
                stride: s,
                write: w,
            })
            .collect()
    }

    /// The batched fast path must be bit-identical to the element-wise
    /// replay for arbitrary stream groups — including overlapping streams,
    /// zero and negative strides, and line-thrashing conflict patterns.
    #[test]
    fn group_fast_path_matches_scalar_replay_on_cachesim() {
        prop_check!((
            bases in vecs(u64s(0..4096), 1..6),
            strides in vecs(mixp_core::prop::i64s(-130..130), 6..7),
            writes in vecs(bools(), 6..7),
            count in usizes(0..300),
        ) => {
            let streams = arbitrary_streams(&bases, &strides, &writes);
            let geom = LevelParams { sets: 4, ways: 2, line: 64 };
            let mut fast = CacheSim::new(geom);
            let mut slow = CacheSim::new(geom);
            fast.access_group(&streams, count);
            scalar_replay(&mut slow, &streams, count);
            prop_assert_eq!(fast.hits(), slow.hits());
            prop_assert_eq!(fast.misses(), slow.misses());
            prop_assert_eq!(fast.writebacks(), slow.writebacks());
            prop_assert_eq!(fast.clock, slow.clock);
        });
    }

    #[test]
    fn group_fast_path_matches_scalar_replay_on_hierarchy() {
        prop_check!((
            bases in vecs(u64s(0..4096), 1..6),
            strides in vecs(mixp_core::prop::i64s(-130..130), 6..7),
            writes in vecs(bools(), 6..7),
            count in usizes(0..300),
        ) => {
            let streams = arbitrary_streams(&bases, &strides, &writes);
            let params = CacheParams {
                l1: LevelParams { sets: 4, ways: 2, line: 64 },
                l2: LevelParams { sets: 16, ways: 2, line: 64 },
                ..CacheParams::default()
            };
            let mut fast = Hierarchy::new(params);
            let mut slow = Hierarchy::new(params);
            fast.access_group(&streams, count);
            scalar_replay(&mut slow, &streams, count);
            prop_assert_eq!(fast.stats(), slow.stats());
        });
    }

    /// Consecutive groups share simulator state: the memo must not leak
    /// stale hits across group boundaries after unrelated traffic.
    #[test]
    fn group_memo_does_not_survive_interleaved_scalar_traffic() {
        let geom = LevelParams {
            sets: 2,
            ways: 1,
            line: 64,
        };
        let streams = [StreamSpec {
            base: 0,
            elem_bytes: 8,
            stride: 0,
            write: false,
        }];
        let mut fast = CacheSim::new(geom);
        let mut slow = CacheSim::new(geom);
        fast.access_group(&streams, 4);
        // Conflicting line evicts block 0 (1-way set 0).
        fast.access(128, 8, true);
        fast.access_group(&streams, 4);
        scalar_replay(&mut slow, &streams, 4);
        slow.access(128, 8, true);
        scalar_replay(&mut slow, &streams, 4);
        assert_eq!(fast.hits(), slow.hits());
        assert_eq!(fast.misses(), slow.misses());
        assert_eq!(fast.writebacks(), slow.writebacks());
    }

    /// A reset simulator must be bit-identical to a freshly built one on
    /// any subsequent traffic — stale lines from before the reset (tags,
    /// stamps, dirty bits) must be unreachable behind the epoch check.
    #[test]
    fn reset_is_bit_identical_to_fresh() {
        prop_check!((
            before in vecs(u64s(0..2048), 0..200),
            after in vecs(u64s(0..2048), 1..200),
            writes in vecs(bools(), 400..401),
        ) => {
            let params = CacheParams {
                l1: LevelParams { sets: 4, ways: 2, line: 64 },
                l2: LevelParams { sets: 16, ways: 2, line: 64 },
                poison_stats: true,
            };
            let mut reused = Hierarchy::new(params);
            for (i, &a) in before.iter().enumerate() {
                reused.access(a, 8, writes[i % writes.len()]);
            }
            reused.reset();
            let mut fresh = Hierarchy::new(params);
            for (i, &a) in after.iter().enumerate() {
                reused.access(a, 8, writes[i % writes.len()]);
                fresh.access(a, 8, writes[i % writes.len()]);
            }
            prop_assert_eq!(reused.stats(), fresh.stats());
            prop_assert_eq!(reused.l1.clock, fresh.l1.clock);
            prop_assert_eq!(reused.l2.clock, fresh.l2.clock);
        });
    }

    /// Repeating a working set that fits in L1 produces only hits after
    /// the first sweep.
    #[test]
    fn resident_set_hits_after_warmup() {
        prop_check!((lines in usizes(1..8)) => {
            let mut c = CacheSim::new(LevelParams { sets: 4, ways: 2, line: 64 });
            // `lines` distinct lines spread across sets: at most 2 per set.
            let addrs: Vec<u64> = (0..lines as u64).map(|i| i * 64).collect();
            for &a in &addrs { c.touch(a, false); }
            let miss_before = c.misses();
            for &a in &addrs { c.touch(a, false); }
            prop_assert_eq!(c.misses(), miss_before, "second sweep all hits");
        });
    }
}
