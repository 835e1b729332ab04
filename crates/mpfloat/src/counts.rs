//! Operation accounting.

use std::ops::{Add, AddAssign};

/// Counters for the dynamic operation mix of one benchmark run.
///
/// The cost model in `mixp-perf` converts these (plus the cache simulator's
/// hit/miss counts) into an execution-cost estimate, replacing the paper's
/// wall-clock measurements with a deterministic substitute.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Floating-point operations executed at binary16.
    pub flops_f16: u64,
    /// Floating-point operations executed at binary32.
    pub flops_f32: u64,
    /// Floating-point operations executed at binary64.
    pub flops_f64: u64,
    /// Heavy operations at binary16.
    pub heavy_f16: u64,
    /// Heavy operations (transcendentals, divides, square roots) at binary32.
    /// Separated from plain flops because their latency is dominated by the
    /// polynomial/iteration cost and barely improves at lower precision.
    pub heavy_f32: u64,
    /// Heavy operations at binary64.
    pub heavy_f64: u64,
    /// Precision conversions (`float`↔`double` casts) executed.
    pub casts: u64,
    /// Array-element loads of binary16 values.
    pub loads_f16: u64,
    /// Array-element loads of binary32 values.
    pub loads_f32: u64,
    /// Array-element loads of binary64 values.
    pub loads_f64: u64,
    /// Array-element stores of binary16 values.
    pub stores_f16: u64,
    /// Array-element stores of binary32 values.
    pub stores_f32: u64,
    /// Array-element stores of binary64 values.
    pub stores_f64: u64,
}

impl OpCounts {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total floating-point operations at any precision (plain + heavy).
    pub fn total_flops(&self) -> u64 {
        self.flops_f16
            + self.flops_f32
            + self.flops_f64
            + self.heavy_f16
            + self.heavy_f32
            + self.heavy_f64
    }

    /// Total array-element memory operations at any precision.
    pub fn total_mem_ops(&self) -> u64 {
        self.loads_f16
            + self.loads_f32
            + self.loads_f64
            + self.stores_f16
            + self.stores_f32
            + self.stores_f64
    }

    /// Total bytes moved to/from arrays.
    pub fn total_bytes(&self) -> u64 {
        2 * (self.loads_f16 + self.stores_f16)
            + 4 * (self.loads_f32 + self.stores_f32)
            + 8 * (self.loads_f64 + self.stores_f64)
    }
}

impl Add for OpCounts {
    type Output = OpCounts;

    fn add(mut self, rhs: OpCounts) -> OpCounts {
        self += rhs;
        self
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        self.flops_f16 += rhs.flops_f16;
        self.flops_f32 += rhs.flops_f32;
        self.flops_f64 += rhs.flops_f64;
        self.heavy_f16 += rhs.heavy_f16;
        self.heavy_f32 += rhs.heavy_f32;
        self.heavy_f64 += rhs.heavy_f64;
        self.casts += rhs.casts;
        self.loads_f16 += rhs.loads_f16;
        self.loads_f32 += rhs.loads_f32;
        self.loads_f64 += rhs.loads_f64;
        self.stores_f16 += rhs.stores_f16;
        self.stores_f32 += rhs.stores_f32;
        self.stores_f64 += rhs.stores_f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OpCounts {
        OpCounts {
            flops_f16: 1,
            flops_f32: 1,
            flops_f64: 2,
            heavy_f16: 0,
            heavy_f32: 1,
            heavy_f64: 1,
            casts: 3,
            loads_f16: 2,
            loads_f32: 4,
            loads_f64: 5,
            stores_f16: 1,
            stores_f32: 6,
            stores_f64: 7,
        }
    }

    #[test]
    fn totals() {
        let c = sample();
        assert_eq!(c.total_flops(), 6);
        assert_eq!(c.total_mem_ops(), 25);
        assert_eq!(c.total_bytes(), 2 * 3 + 4 * 10 + 8 * 12);
    }

    #[test]
    fn add_is_fieldwise() {
        let c = sample() + sample();
        assert_eq!(c.flops_f32, 2);
        assert_eq!(c.stores_f64, 14);
    }

    #[test]
    fn default_is_zero() {
        let c = OpCounts::new();
        assert_eq!(c.total_flops(), 0);
        assert_eq!(c.total_bytes(), 0);
        assert_eq!(c.casts, 0);
    }
}
