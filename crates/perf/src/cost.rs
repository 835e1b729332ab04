//! The execution-cost model that substitutes for wall-clock time.

use crate::CacheStats;
use mixp_float::OpCounts;

/// Converts an operation mix and cache statistics into a scalar cost.
///
/// All constants are in abstract cycles. The ratios — not the absolute
/// values — produce the paper's qualitative shapes:
///
/// * `f32_flop < f64_flop`: packed single-precision arithmetic retires twice
///   as many lanes per cycle, the primary source of mixed-precision speedup.
/// * `heavy_*` nearly equal: divides/sqrts/transcendentals are latency-bound
///   and gain little from narrower operands, so compute kernels dominated by
///   them (eos, planckian) show ≈1.0 speedup, as in Table III.
/// * `cast` is significant: configurations that mix precisions across hot
///   dataflow (or against untransformable literals, as in Hotspot) pay for
///   every boundary crossing.
/// * Memory costs come from the simulated hierarchy, so halving an array's
///   footprint can convert misses into hits (LavaMD).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Cost of one binary64 arithmetic operation.
    pub f64_flop: f64,
    /// Cost of one binary32 arithmetic operation.
    pub f32_flop: f64,
    /// Cost of one binary16 arithmetic operation (4× SIMD width vs f64).
    pub f16_flop: f64,
    /// Cost of one binary64 heavy operation (div/sqrt/exp/…).
    pub heavy_f64: f64,
    /// Cost of one binary32 heavy operation.
    pub heavy_f32: f64,
    /// Cost of one binary16 heavy operation.
    pub heavy_f16: f64,
    /// Cost of one float↔double conversion.
    pub cast: f64,
    /// Cost of an access that hits L1.
    pub l1_hit: f64,
    /// Cost of an access that hits L2.
    pub l2_hit: f64,
    /// Cost of an access served from memory.
    pub mem: f64,
    /// Cost of one dirty writeback.
    pub writeback: f64,
    /// Fallback per-access cost when no cache statistics are available.
    pub untraced_mem_op: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            f64_flop: 1.0,
            f32_flop: 0.5,
            f16_flop: 0.25,
            heavy_f64: 10.0,
            heavy_f32: 9.7,
            heavy_f16: 9.5,
            cast: 1.25,
            l1_hit: 1.0,
            l2_hit: 8.0,
            mem: 40.0,
            writeback: 10.0,
            untraced_mem_op: 1.5,
        }
    }
}

impl CostModel {
    /// Estimates the execution cost of a run.
    ///
    /// When `cache` is `Some`, memory cost comes from the simulated
    /// hierarchy; otherwise each counted load/store is charged
    /// [`CostModel::untraced_mem_op`]. Poisoned cache statistics (the
    /// fault-injection hook, [`CacheStats::poisoned`]) price as NaN: a
    /// corrupted model must surface as a non-finite value the harness can
    /// classify, never as a plausible-looking cost.
    pub fn cost(&self, counts: &OpCounts, cache: Option<&CacheStats>) -> f64 {
        if cache.map_or(false, |s| s.poisoned) {
            return f64::NAN;
        }
        let compute = counts.flops_f64 as f64 * self.f64_flop
            + counts.flops_f32 as f64 * self.f32_flop
            + counts.flops_f16 as f64 * self.f16_flop
            + counts.heavy_f64 as f64 * self.heavy_f64
            + counts.heavy_f32 as f64 * self.heavy_f32
            + counts.heavy_f16 as f64 * self.heavy_f16
            + counts.casts as f64 * self.cast;
        let memory = match cache {
            Some(s) => {
                s.l1_hits as f64 * self.l1_hit
                    + s.l2_hits as f64 * self.l2_hit
                    + s.misses as f64 * self.mem
                    + s.writebacks as f64 * self.writeback
            }
            None => counts.total_mem_ops() as f64 * self.untraced_mem_op,
        };
        compute + memory
    }

    /// Speedup of a candidate run over the reference run
    /// (`cost_ref / cost_candidate`).
    ///
    /// Returns 1.0 when the candidate cost is zero (degenerate empty runs).
    pub fn speedup(
        &self,
        reference: (&OpCounts, Option<&CacheStats>),
        candidate: (&OpCounts, Option<&CacheStats>),
    ) -> f64 {
        let c_ref = self.cost(reference.0, reference.1);
        let c_new = self.cost(candidate.0, candidate.1);
        if c_new == 0.0 {
            1.0
        } else {
            c_ref / c_new
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(f32_: u64, f64_: u64, casts: u64) -> OpCounts {
        OpCounts {
            flops_f32: f32_,
            flops_f64: f64_,
            casts,
            ..OpCounts::default()
        }
    }

    #[test]
    fn pure_f32_is_cheaper_than_pure_f64() {
        let m = CostModel::default();
        let single = m.cost(&counts(100, 0, 0), None);
        let double = m.cost(&counts(0, 100, 0), None);
        assert!(single < double);
        assert_eq!(double / single, 2.0);
    }

    #[test]
    fn casts_erode_the_gain() {
        let m = CostModel::default();
        let clean = m.cost(&counts(100, 0, 0), None);
        let casty = m.cost(&counts(100, 0, 100), None);
        let double = m.cost(&counts(0, 100, 0), None);
        assert!(casty > double, "a cast per op makes single slower");
        assert!(casty > clean);
    }

    #[test]
    fn heavy_ops_barely_improve() {
        let m = CostModel::default();
        let h32 = OpCounts {
            heavy_f32: 100,
            ..OpCounts::default()
        };
        let h64 = OpCounts {
            heavy_f64: 100,
            ..OpCounts::default()
        };
        let ratio = m.cost(&h64, None) / m.cost(&h32, None);
        assert!(ratio < 1.1, "heavy speedup should be small, got {ratio}");
        assert!(ratio > 1.0);
    }

    #[test]
    fn cache_misses_dominate_when_present() {
        let m = CostModel::default();
        let c = counts(0, 10, 0);
        let cold = CacheStats {
            accesses: 100,
            l1_hits: 0,
            l2_hits: 0,
            misses: 100,
            ..CacheStats::default()
        };
        let warm = CacheStats {
            accesses: 100,
            l1_hits: 100,
            l2_hits: 0,
            misses: 0,
            ..CacheStats::default()
        };
        assert!(m.cost(&c, Some(&cold)) > 10.0 * m.cost(&c, Some(&warm)));
    }

    #[test]
    fn poisoned_stats_price_as_nan() {
        let m = CostModel::default();
        let c = counts(10, 10, 1);
        let poisoned = CacheStats {
            accesses: 100,
            l1_hits: 100,
            poisoned: true,
            ..CacheStats::default()
        };
        assert!(m.cost(&c, Some(&poisoned)).is_nan());
        let clean = CacheStats {
            poisoned: false,
            ..poisoned
        };
        assert!(m.cost(&c, Some(&clean)).is_finite());
        // And the speedup built on a poisoned side is non-finite too —
        // nothing downstream can mistake it for a real number.
        assert!(m
            .speedup((&c, Some(&clean)), (&c, Some(&poisoned)))
            .is_nan());
    }

    #[test]
    fn speedup_of_identity_is_one() {
        let m = CostModel::default();
        let c = counts(5, 5, 1);
        assert_eq!(m.speedup((&c, None), (&c, None)), 1.0);
    }

    #[test]
    fn speedup_handles_zero_candidate() {
        let m = CostModel::default();
        let z = OpCounts::default();
        let c = counts(0, 10, 0);
        assert_eq!(m.speedup((&c, None), (&z, None)), 1.0);
    }

    #[test]
    fn untraced_runs_charge_flat_memory() {
        let m = CostModel::default();
        let c = OpCounts {
            loads_f64: 10,
            stores_f64: 10,
            ..OpCounts::default()
        };
        assert_eq!(m.cost(&c, None), 20.0 * m.untraced_mem_op);
    }
}
