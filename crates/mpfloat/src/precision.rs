//! Floating-point precision levels.

use std::fmt;

/// A floating-point storage precision.
///
/// The paper's evaluation (and Typeforge's transformations) consider two
/// levels: IEEE-754 binary64 (`Double`) and binary32 (`Single`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Precision {
    /// IEEE-754 binary16, 2 bytes of storage. Supported for the paper's
    /// `p = 3` search spaces (half/single/double accelerators); the shipped
    /// evaluation uses two levels, as the paper's does.
    Half,
    /// IEEE-754 binary32, 4 bytes of storage.
    Single,
    /// IEEE-754 binary64, 8 bytes of storage. This is the working precision
    /// of every benchmark before any transformation.
    Double,
}

impl Precision {
    /// Storage size in bytes of one element at this precision.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            Precision::Half => 2,
            Precision::Single => 4,
            Precision::Double => 8,
        }
    }

    /// The wider of two precisions, i.e. the precision a mixed binary
    /// operation is performed in after the usual arithmetic conversions.
    #[inline]
    pub fn widest(self, other: Precision) -> Precision {
        self.max(other)
    }

    /// Short lowercase name (`"single"` / `"double"`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::Half => "half",
            Precision::Single => "single",
            Precision::Double => "double",
        }
    }
}

impl Default for Precision {
    /// Benchmarks start life in full `Double` precision.
    fn default() -> Self {
        Precision::Double
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_match_ieee_widths() {
        assert_eq!(Precision::Half.bytes(), 2);
        assert_eq!(Precision::Single.bytes(), 4);
        assert_eq!(Precision::Double.bytes(), 8);
    }

    #[test]
    fn widest_prefers_double() {
        assert_eq!(
            Precision::Single.widest(Precision::Double),
            Precision::Double
        );
        assert_eq!(
            Precision::Double.widest(Precision::Single),
            Precision::Double
        );
        assert_eq!(
            Precision::Single.widest(Precision::Single),
            Precision::Single
        );
        assert_eq!(
            Precision::Double.widest(Precision::Double),
            Precision::Double
        );
    }

    #[test]
    fn default_is_double() {
        assert_eq!(Precision::default(), Precision::Double);
    }

    #[test]
    fn display_names() {
        assert_eq!(Precision::Single.to_string(), "single");
        assert_eq!(Precision::Double.to_string(), "double");
    }

    #[test]
    fn ordering_half_below_single_below_double() {
        assert!(Precision::Half < Precision::Single);
        assert!(Precision::Single < Precision::Double);
    }

    #[test]
    fn widest_with_half() {
        assert_eq!(Precision::Half.widest(Precision::Single), Precision::Single);
        assert_eq!(Precision::Half.widest(Precision::Half), Precision::Half);
        assert_eq!(Precision::Double.widest(Precision::Half), Precision::Double);
    }
}
