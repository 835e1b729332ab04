//! Mixed-precision storage primitives for HPC-MixPBench.
//!
//! This crate provides the low-level machinery that makes a benchmark
//! *tunable*: every floating-point variable or array in a benchmark is
//! identified by a [`VarId`] and holds its values in a storage precision
//! dictated by a [`PrecisionConfig`]. Reads and writes go through
//! [`MpVec`]/[`MpScalar`] handles which
//!
//! * round stored values to the configured precision (the numerical effect of
//!   a source-level `double` → `float` transformation),
//! * account floating-point operations, loads, stores and casts in
//!   [`OpCounts`], and
//! * stream memory accesses to an optional [`MemoryTracer`] (implemented by
//!   the cache simulator in `mixp-perf`).
//!
//! # Example
//!
//! ```
//! use mixp_float::{ExecCtx, Precision, PrecisionConfig, VarRegistry};
//!
//! let mut reg = VarRegistry::new();
//! let x = reg.fresh("x");
//! let cfg = PrecisionConfig::uniform(reg.len(), Precision::Single);
//! let mut ctx = ExecCtx::new(&cfg);
//! let mut v = ctx.alloc_vec(x, 4);
//! v.set(&mut ctx, 0, 0.1);
//! // 0.1 is not representable in binary32, so storage rounding is visible:
//! assert_ne!(v.get(&mut ctx, 0), 0.1);
//! assert_eq!(v.get(&mut ctx, 0), 0.1f32 as f64);
//! ```

mod cancel;
mod config;
mod counts;
mod ctx;
pub mod half;
mod mpvec;
mod precision;
mod stream;
mod var;

pub use cancel::{unwind_cancelled, CancelToken, CancelUnwind};
pub use config::{ConfigKey, PrecisionConfig};
pub use counts::OpCounts;
pub use ctx::{ExecCtx, MemoryTracer, OpSig, StreamSpec};
pub use mpvec::{IndexVec, MpScalar, MpVec};
pub use precision::Precision;
pub use stream::StreamGroup;
pub use var::{VarId, VarRegistry};

/// Rounds `v` to the storage precision `prec`.
///
/// `Double` is the working precision of all benchmarks, so it is the
/// identity; `Single` round-trips through `f32`, exactly what storing into a
/// `float` variable does in the transformed C source.
#[inline]
pub fn round_to(prec: Precision, v: f64) -> f64 {
    match prec {
        Precision::Double => v,
        Precision::Single => v as f32 as f64,
        Precision::Half => half::round_f64_to_f16(v),
    }
}

/// The rounding function for `prec` as a cachable fn pointer, so handles
/// resolve their precision once at allocation and never branch on it per
/// store. Each returned function agrees with [`round_to`] bit for bit.
pub(crate) fn rounder(prec: Precision) -> fn(f64) -> f64 {
    match prec {
        Precision::Double => |v| v,
        Precision::Single => |v| v as f32 as f64,
        Precision::Half => half::round_f64_to_f16,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_to_double_is_identity() {
        for v in [0.0, -1.5, 1.0e300, f64::MIN_POSITIVE, f64::INFINITY] {
            assert_eq!(round_to(Precision::Double, v), v);
        }
    }

    #[test]
    fn round_to_single_loses_precision() {
        let v = 0.1_f64;
        assert_eq!(round_to(Precision::Single, v), 0.1f32 as f64);
        assert_ne!(round_to(Precision::Single, v), v);
    }

    #[test]
    fn round_to_single_overflows_to_infinity() {
        assert!(round_to(Precision::Single, 1.0e300).is_infinite());
    }

    #[test]
    fn round_to_single_underflows_to_zero() {
        assert_eq!(round_to(Precision::Single, 1.0e-300), 0.0);
    }

    #[test]
    fn round_to_preserves_nan() {
        assert!(round_to(Precision::Single, f64::NAN).is_nan());
        assert!(round_to(Precision::Half, f64::NAN).is_nan());
    }

    #[test]
    fn round_to_half_loses_more_than_single() {
        let v = 0.1_f64;
        let s = (round_to(Precision::Single, v) - v).abs();
        let h = (round_to(Precision::Half, v) - v).abs();
        assert!(h > s && s > 0.0);
    }
}
