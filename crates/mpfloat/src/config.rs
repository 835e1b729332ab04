//! Precision configurations — the points of the mixed-precision search space.

use crate::{Precision, VarId};
use std::fmt;

/// Assigns a storage precision to every tunable variable of a benchmark.
///
/// A configuration is the unit the search algorithms manipulate: the original
/// program is [`PrecisionConfig::all_double`], the fully transformed program
/// is [`PrecisionConfig::all_single`], and the search explores the lattice in
/// between.
///
/// # Example
///
/// ```
/// use mixp_float::{Precision, PrecisionConfig, VarId};
///
/// let mut cfg = PrecisionConfig::all_double(3);
/// cfg.set(VarId::from_index(1), Precision::Single);
/// assert_eq!(cfg.lowered_count(), 1);
/// assert_eq!(cfg.get(VarId::from_index(0)), Precision::Double);
/// assert_eq!(cfg.get(VarId::from_index(1)), Precision::Single);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct PrecisionConfig {
    prec: Vec<Precision>,
}

impl PrecisionConfig {
    /// A configuration with every variable at the given precision.
    pub fn uniform(len: usize, prec: Precision) -> Self {
        PrecisionConfig {
            prec: vec![prec; len],
        }
    }

    /// The original, untransformed program: everything `Double`.
    pub fn all_double(len: usize) -> Self {
        Self::uniform(len, Precision::Double)
    }

    /// The fully transformed program: everything `Single`.
    pub fn all_single(len: usize) -> Self {
        Self::uniform(len, Precision::Single)
    }

    /// Builds a configuration from the set of variables lowered to single
    /// precision; all others stay double.
    pub fn from_lowered(len: usize, lowered: impl IntoIterator<Item = VarId>) -> Self {
        let mut cfg = Self::all_double(len);
        for v in lowered {
            cfg.set(v, Precision::Single);
        }
        cfg
    }

    /// The precision of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this configuration.
    #[inline]
    pub fn get(&self, v: VarId) -> Precision {
        self.prec[v.index()]
    }

    /// Sets the precision of variable `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this configuration.
    #[inline]
    pub fn set(&mut self, v: VarId, prec: Precision) {
        self.prec[v.index()] = prec;
    }

    /// Number of variables covered by this configuration.
    pub fn len(&self) -> usize {
        self.prec.len()
    }

    /// Whether the configuration covers zero variables.
    pub fn is_empty(&self) -> bool {
        self.prec.is_empty()
    }

    /// How many variables are lowered below double precision.
    pub fn lowered_count(&self) -> usize {
        self.prec
            .iter()
            .filter(|p| **p != Precision::Double)
            .count()
    }

    /// Ids of all variables currently lowered below double precision.
    pub fn lowered_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.prec
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != Precision::Double)
            .map(|(i, _)| VarId::from_index(i))
    }

    /// Iterates over `(var, precision)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, Precision)> + '_ {
        self.prec
            .iter()
            .enumerate()
            .map(|(i, p)| (VarId::from_index(i), *p))
    }

    /// Whether every variable is double (the identity transformation).
    pub fn is_all_double(&self) -> bool {
        self.prec.iter().all(|p| *p == Precision::Double)
    }

    /// Whether every variable is single.
    pub fn is_all_single(&self) -> bool {
        self.prec.iter().all(|p| *p == Precision::Single)
    }

    /// A compact bitstring key (`'s'`/`'d'` per variable) usable for
    /// memoising evaluations of identical configurations.
    pub fn key(&self) -> String {
        self.prec
            .iter()
            .map(|p| match p {
                Precision::Half => 'h',
                Precision::Single => 's',
                Precision::Double => 'd',
            })
            .collect()
    }

    /// The packed [`ConfigKey`] fingerprint of this configuration: two bits
    /// per variable, 32 variables per `u64` word. Unlike [`Self::key`] it
    /// allocates one word per 32 variables instead of one byte per variable,
    /// which makes it the preferred memo/cache key on hot paths.
    pub fn fingerprint(&self) -> ConfigKey {
        let mut words = vec![0u64; self.prec.len().div_ceil(ConfigKey::VARS_PER_WORD)];
        for (i, p) in self.prec.iter().enumerate() {
            let code = match p {
                Precision::Double => 0u64,
                Precision::Single => 1u64,
                Precision::Half => 2u64,
            };
            words[i / ConfigKey::VARS_PER_WORD] |= code << (2 * (i % ConfigKey::VARS_PER_WORD));
        }
        ConfigKey {
            len: self.prec.len() as u32,
            words,
        }
    }
}

/// A packed fingerprint of a [`PrecisionConfig`]: two bits per variable
/// (`00` double, `01` single, `10` half), 32 variables per `u64` word.
///
/// Two configurations compare equal iff their fingerprints do, so the key is
/// safe for memoisation and cross-evaluator caches. It is ~4× smaller than
/// the `String` key and hashes word-at-a-time.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigKey {
    len: u32,
    words: Vec<u64>,
}

impl ConfigKey {
    /// Variables packed into each `u64` word (2 bits per variable).
    pub const VARS_PER_WORD: usize = 32;

    /// Rebuilds a key from its packed representation, as persisted by the
    /// harness's cache journal. Returns `None` unless the word count matches
    /// `len` exactly, every 2-bit code is a valid precision, and the padding
    /// bits beyond `len` are zero — so a corrupted or hand-edited journal
    /// line can never materialise a key that no configuration produces.
    pub fn from_raw(len: usize, words: Vec<u64>) -> Option<Self> {
        if u32::try_from(len).is_err() || words.len() != len.div_ceil(Self::VARS_PER_WORD) {
            return None;
        }
        for i in 0..len {
            let code = (words[i / Self::VARS_PER_WORD] >> (2 * (i % Self::VARS_PER_WORD))) & 0b11;
            if code == 0b11 {
                return None;
            }
        }
        if let Some(last) = words.last() {
            let used = len - (words.len() - 1) * Self::VARS_PER_WORD;
            if used < Self::VARS_PER_WORD && last >> (2 * used) != 0 {
                return None;
            }
        }
        Some(ConfigKey {
            len: len as u32,
            words,
        })
    }

    /// Number of variables the fingerprinted configuration covered.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the fingerprinted configuration covered zero variables.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words, low variable indices in low bits of `words[0]`.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reconstructs the per-variable precisions (mainly for debugging).
    pub fn unpack(&self) -> Vec<Precision> {
        (0..self.len())
            .map(|i| {
                let code =
                    (self.words[i / Self::VARS_PER_WORD] >> (2 * (i % Self::VARS_PER_WORD))) & 0b11;
                match code {
                    0 => Precision::Double,
                    1 => Precision::Single,
                    _ => Precision::Half,
                }
            })
            .collect()
    }
}

impl fmt::Debug for ConfigKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ConfigKey(len={}, ", self.len)?;
        for w in &self.words {
            write!(f, "{w:016x}")?;
        }
        f.write_str(")")
    }
}

impl fmt::Debug for PrecisionConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PrecisionConfig({})", self.key())
    }
}

impl fmt::Display for PrecisionConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_double_has_no_lowered() {
        let cfg = PrecisionConfig::all_double(5);
        assert_eq!(cfg.lowered_count(), 0);
        assert!(cfg.is_all_double());
        assert!(!cfg.is_all_single());
    }

    #[test]
    fn all_single_lowers_everything() {
        let cfg = PrecisionConfig::all_single(5);
        assert_eq!(cfg.lowered_count(), 5);
        assert!(cfg.is_all_single());
    }

    #[test]
    fn from_lowered_sets_exactly_those() {
        let cfg = PrecisionConfig::from_lowered(4, [VarId::from_index(0), VarId::from_index(3)]);
        assert_eq!(cfg.get(VarId::from_index(0)), Precision::Single);
        assert_eq!(cfg.get(VarId::from_index(1)), Precision::Double);
        assert_eq!(cfg.get(VarId::from_index(2)), Precision::Double);
        assert_eq!(cfg.get(VarId::from_index(3)), Precision::Single);
        let lowered: Vec<VarId> = cfg.lowered_vars().collect();
        assert_eq!(lowered, vec![VarId::from_index(0), VarId::from_index(3)]);
    }

    #[test]
    fn key_is_unique_per_assignment() {
        let a = PrecisionConfig::from_lowered(3, [VarId::from_index(0)]);
        let b = PrecisionConfig::from_lowered(3, [VarId::from_index(1)]);
        assert_ne!(a.key(), b.key());
        assert_eq!(a.key(), "sdd");
        assert_eq!(b.key(), "dsd");
    }

    #[test]
    fn empty_config_is_both_extremes() {
        let cfg = PrecisionConfig::all_double(0);
        assert!(cfg.is_empty());
        assert!(cfg.is_all_double());
        assert!(cfg.is_all_single());
    }

    #[test]
    fn debug_contains_key() {
        let cfg = PrecisionConfig::all_single(2);
        assert_eq!(format!("{cfg:?}"), "PrecisionConfig(ss)");
        assert_eq!(cfg.to_string(), "ss");
    }

    #[test]
    fn fingerprint_distinguishes_assignments() {
        let a = PrecisionConfig::from_lowered(3, [VarId::from_index(0)]);
        let b = PrecisionConfig::from_lowered(3, [VarId::from_index(1)]);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
    }

    #[test]
    fn fingerprint_roundtrips_across_word_boundary() {
        // 70 variables spans three packed words.
        let mut cfg = PrecisionConfig::all_double(70);
        cfg.set(VarId::from_index(0), Precision::Single);
        cfg.set(VarId::from_index(31), Precision::Half);
        cfg.set(VarId::from_index(32), Precision::Single);
        cfg.set(VarId::from_index(69), Precision::Half);
        let key = cfg.fingerprint();
        assert_eq!(key.len(), 70);
        assert_eq!(key.words().len(), 3);
        let unpacked = key.unpack();
        for (i, &prec) in unpacked.iter().enumerate() {
            assert_eq!(prec, cfg.get(VarId::from_index(i)), "var {i}");
        }
    }

    #[test]
    fn from_raw_round_trips_and_rejects_garbage() {
        let mut cfg = PrecisionConfig::all_double(70);
        cfg.set(VarId::from_index(31), Precision::Half);
        cfg.set(VarId::from_index(69), Precision::Single);
        let key = cfg.fingerprint();
        let rebuilt = ConfigKey::from_raw(key.len(), key.words().to_vec()).expect("valid words");
        assert_eq!(rebuilt, key);
        // Wrong word count.
        assert!(ConfigKey::from_raw(70, vec![0u64; 2]).is_none());
        // Invalid 2-bit code (0b11).
        assert!(ConfigKey::from_raw(2, vec![0b1100]).is_none());
        // Non-zero padding beyond the declared length.
        assert!(ConfigKey::from_raw(1, vec![1u64 << 2]).is_none());
        // Empty is fine.
        assert!(ConfigKey::from_raw(0, Vec::new()).is_some());
    }

    #[test]
    fn fingerprint_length_disambiguates_padding() {
        // "d" and "dd" pack to identical words; the stored length must
        // keep them distinct.
        let one = PrecisionConfig::all_double(1).fingerprint();
        let two = PrecisionConfig::all_double(2).fingerprint();
        assert_ne!(one, two);
        assert!(PrecisionConfig::all_double(0).fingerprint().is_empty());
    }
}
