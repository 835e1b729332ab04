//! The sanctioned rounding module: the **only** place in this crate
//! where a narrow float type appears.
//!
//! Plan compilation resolves every store/reduction to a [`RoundMode`]
//! exactly once (constant precision propagation), and dead-cast
//! elimination is simply [`RoundMode::Id`]: a double-precision cluster
//! stores with a plain copy, no fn-pointer call per element.
//! `scripts/check_hermetic.sh` greps the rest of `crates/ir/src` for
//! `f32` / `round_to(` to keep rounding from leaking into plan
//! interpretation.

/// Rounds a value to the extended narrow format (IEEE binary16 in the
/// runtime). Injected by the embedder so this crate stays
/// dependency-free and bit-identical to the runtime's own rounding.
pub type HalfFn = fn(f64) -> f64;

/// A store's fully-resolved rounding behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoundMode {
    /// Double-precision storage: the identity (a dead cast, eliminated).
    Id,
    /// Single-precision storage: round through `f32`.
    F32,
    /// Extended narrow storage: round through the injected [`HalfFn`].
    Ext,
}

impl RoundMode {
    /// Rounds one value.
    #[inline]
    pub fn apply(self, half: HalfFn, v: f64) -> f64 {
        match self {
            RoundMode::Id => v,
            RoundMode::F32 => v as f32 as f64,
            RoundMode::Ext => half(v),
        }
    }

    /// Rounds a slice into a (non-overlapping) destination, with the
    /// mode dispatched once outside the loop.
    pub fn apply_slice(self, half: HalfFn, src: &[f64], dst: &mut [f64]) {
        debug_assert_eq!(src.len(), dst.len());
        match self {
            RoundMode::Id => dst.copy_from_slice(src),
            RoundMode::F32 => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = *s as f32 as f64;
                }
            }
            RoundMode::Ext => {
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = half(*s);
                }
            }
        }
    }

    /// Rounds a freshly-built vector in place and returns it (used when
    /// pre-rounding array init data at compile time).
    pub fn apply_vec(self, half: HalfFn, mut v: Vec<f64>) -> Vec<f64> {
        match self {
            RoundMode::Id => {}
            RoundMode::F32 => {
                for x in &mut v {
                    *x = *x as f32 as f64;
                }
            }
            RoundMode::Ext => {
                for x in &mut v {
                    *x = half(*x);
                }
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trunc_half(v: f64) -> f64 {
        // A stand-in "narrow format" for tests: keep 1 fractional bit.
        (v * 2.0).floor() / 2.0
    }

    #[test]
    fn id_is_identity() {
        assert_eq!(
            RoundMode::Id.apply(trunc_half, 1.2345678901234567),
            1.2345678901234567
        );
    }

    #[test]
    fn f32_round_trips_through_single() {
        let v = 0.1f64;
        assert_eq!(RoundMode::F32.apply(trunc_half, v), 0.1f32 as f64);
    }

    #[test]
    fn ext_uses_injected_fn() {
        assert_eq!(RoundMode::Ext.apply(trunc_half, 1.75), 1.5);
    }

    #[test]
    fn slice_matches_scalar() {
        let src = [0.1, 1.75, -2.3, 4.0];
        for mode in [RoundMode::Id, RoundMode::F32, RoundMode::Ext] {
            let mut dst = [0.0; 4];
            mode.apply_slice(trunc_half, &src, &mut dst);
            for (d, s) in dst.iter().zip(&src) {
                assert_eq!(*d, mode.apply(trunc_half, *s));
            }
            let v = mode.apply_vec(trunc_half, src.to_vec());
            assert_eq!(&v[..], &dst[..]);
        }
    }
}
