//! Access-stream fingerprints.
//!
//! [`CacheStats`](crate::CacheStats) are a pure function of the cache
//! geometry and the access stream a run emits. [`StreamFingerprinter`] is
//! a [`MemoryTracer`] that digests that stream into a [`StreamFingerprint`]
//! (two 64-bit hash lanes plus the access count) at a fraction of a
//! simulation's cost, so a caller that has already simulated a stream can
//! recognise it again and reuse the statistics instead of re-simulating.
//!
//! Every trace call is absorbed as a self-delimiting word sequence — the
//! first word's top byte tells a one-word access from a tagged two-word
//! access or a group (which carries its stream count), and the operands
//! follow — so two different call sequences never encode to the same
//! words. A group is absorbed from its [`StreamSpec`]s and count,
//! O(streams) rather than O(accesses); a group and the element-wise
//! accesses it expands to therefore fingerprint *differently*, which only
//! costs a lookup miss, never a wrong hit. Each word updates each lane
//! through a bijection of the lane, so sequences differing in a single
//! word never collide; otherwise two different streams share a
//! fingerprint only by a 128-bit hash collision.

use mixp_float::{MemoryTracer, StreamSpec};

/// The digest of one run's access stream. Equal fingerprints mean equal
/// streams unless two different streams collide in the 128-bit hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamFingerprint {
    lanes: [u64; 2],
    accesses: u64,
}

impl StreamFingerprint {
    /// Number of element accesses the stream expands to.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }
}

/// Opening words of the two-word access form and of a group: their top
/// byte is at least 0x80, which no one-word access's top byte (its
/// element width, below 128) can be. A group's stream count sits in the
/// low bits.
const TAG_LONG_ACCESS: u64 = 0xA5 << 56;
const TAG_GROUP: u64 = 0xE6 << 56;
/// Addresses below this bound fit the one-word access form.
const SHORT_ADDR_LIMIT: u64 = 1 << 55;

/// Lane seeds and multipliers (odd, so every multiply is a bijection).
const SEEDS: [u64; 2] = [0x243F_6A88_85A3_08D3, 0x1319_8A2E_0370_7344];
const MUL: [[u64; 2]; 2] = [
    [0xFF51_AFD7_ED55_8CCD, 0xC4CE_B9FE_1A85_EC53],
    [0x9E37_79B9_7F4A_7C15, 0xBF58_476D_1CE4_E5B9],
];

/// A [`MemoryTracer`] that digests the access stream into a
/// [`StreamFingerprint`] without simulating it.
#[derive(Debug, Clone)]
pub struct StreamFingerprinter {
    lanes: [u64; 2],
    accesses: u64,
}

impl Default for StreamFingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamFingerprinter {
    /// A fingerprinter that has seen no access yet.
    pub fn new() -> Self {
        StreamFingerprinter {
            lanes: SEEDS,
            accesses: 0,
        }
    }

    /// The fingerprint of everything absorbed so far.
    pub fn finish(&self) -> StreamFingerprint {
        StreamFingerprint {
            lanes: self.lanes,
            accesses: self.accesses,
        }
    }

    /// Folds one word into both lanes, each through a bijection of the
    /// lane for a fixed word.
    #[inline]
    fn absorb(&mut self, word: u64) {
        self.lanes[0] = mix(self.lanes[0] ^ word, MUL[0]);
        self.lanes[1] = mix(self.lanes[1].wrapping_add(word), MUL[1]);
    }
}

/// A bijective 64-bit mixer (multiply / xor-shift rounds).
#[inline]
fn mix(mut x: u64, mul: [u64; 2]) -> u64 {
    x = x.wrapping_mul(mul[0]);
    x ^= x >> 32;
    x = x.wrapping_mul(mul[1]);
    x ^ (x >> 29)
}

impl MemoryTracer for StreamFingerprinter {
    /// One word `bytes | write | addr` (top byte, bit 55, low 55 bits)
    /// when the address and width fit it, else a tagged two-word form.
    #[inline]
    fn access(&mut self, addr: u64, bytes: u8, write: bool) {
        if addr < SHORT_ADDR_LIMIT && bytes < 0x80 {
            self.absorb((bytes as u64) << 56 | (write as u64) << 55 | addr);
        } else {
            self.absorb(TAG_LONG_ACCESS | (bytes as u64) << 1 | write as u64);
            self.absorb(addr);
        }
        self.accesses += 1;
    }

    fn access_group(&mut self, streams: &[StreamSpec], count: usize) {
        self.absorb(TAG_GROUP | streams.len() as u64);
        self.absorb(count as u64);
        for s in streams {
            self.absorb((s.elem_bytes as u64) << 1 | s.write as u64);
            self.absorb(s.base);
            self.absorb(s.stride as u64);
        }
        self.accesses += (count as u64) * streams.len() as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(base: u64, stride: i64, write: bool) -> StreamSpec {
        StreamSpec {
            base,
            elem_bytes: 8,
            stride,
            write,
        }
    }

    fn digest(run: impl FnOnce(&mut StreamFingerprinter)) -> StreamFingerprint {
        let mut fp = StreamFingerprinter::new();
        run(&mut fp);
        fp.finish()
    }

    #[test]
    fn equal_streams_have_equal_fingerprints() {
        let run = |fp: &mut StreamFingerprinter| {
            fp.access(64, 8, false);
            fp.access_group(&[spec(0, 8, false), spec(4096, 8, true)], 100);
        };
        assert_eq!(digest(run), digest(run));
        assert_eq!(digest(run).accesses(), 201);
    }

    #[test]
    fn any_field_of_any_call_changes_the_fingerprint() {
        let base = digest(|fp| {
            fp.access(64, 8, false);
            fp.access_group(&[spec(0, 8, false)], 10);
        });
        let variants: [&dyn Fn(&mut StreamFingerprinter); 8] = [
            &|fp| {
                fp.access(128, 8, false);
                fp.access_group(&[spec(0, 8, false)], 10);
            },
            &|fp| {
                fp.access(64, 4, false);
                fp.access_group(&[spec(0, 8, false)], 10);
            },
            &|fp| {
                fp.access(64, 8, true);
                fp.access_group(&[spec(0, 8, false)], 10);
            },
            &|fp| {
                fp.access(64, 8, false);
                fp.access_group(&[spec(8, 8, false)], 10);
            },
            &|fp| {
                fp.access(64, 8, false);
                fp.access_group(&[spec(0, -8, false)], 10);
            },
            &|fp| {
                fp.access(64, 8, false);
                fp.access_group(&[spec(0, 8, true)], 10);
            },
            &|fp| {
                fp.access(64, 8, false);
                fp.access_group(&[spec(0, 8, false)], 11);
            },
            // Same calls, other order.
            &|fp| {
                fp.access_group(&[spec(0, 8, false)], 10);
                fp.access(64, 8, false);
            },
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(digest(|fp| v(fp)), base, "variant {i}");
        }
    }

    #[test]
    fn wide_addresses_and_widths_take_the_long_form() {
        // Packed naively into one word, each pair below would alias.
        let high = digest(|fp| fp.access(1 << 55, 8, false));
        assert_ne!(high, digest(|fp| fp.access(0, 8, true)));
        let wide = digest(|fp| fp.access(0, 0x80, false));
        assert_ne!(wide, digest(|fp| fp.access(0, 0, false)));
        assert_eq!(high, digest(|fp| fp.access(1 << 55, 8, false)));
    }

    #[test]
    fn group_boundaries_are_part_of_the_stream_encoding() {
        // One two-stream group versus two one-stream groups over the same
        // specs: the encodings must differ even though the words overlap.
        let a = spec(0, 8, false);
        let b = spec(4096, 8, true);
        let joined = digest(|fp| fp.access_group(&[a, b], 1));
        let split = digest(|fp| {
            fp.access_group(&[a], 1);
            fp.access_group(&[b], 1);
        });
        assert_ne!(joined, split);
        assert_eq!(joined.accesses(), split.accesses());
    }
}
