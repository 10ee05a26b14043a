//! A fixed hasher for keys the simulator mints itself.
//!
//! Logical page ids, node ids, frames, `(asid, vpn)` pairs and object
//! page numbers are small integers handed out by this program, so the
//! collision resistance `RandomState` pays SipHash for protects nothing.
//! The rule for host data structures is: a map that is *iterated* on a
//! path that can reach a clock, counter, event or report is an ordered
//! container; a map that is only *point-queried* keeps `HashMap` with
//! this hasher. Never use it for keys that arrive from outside the
//! program.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` over simulator-minted ids.
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// `HashSet` over simulator-minted ids.
pub type IdHashSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate hasher: one rotate, xor and multiply per word fed,
/// no seed.
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
    /// The multiply leaves its entropy in the high bits and the table
    /// indexes with the low ones, so fold the halves together.
    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Frame;
    use crate::types::NodeId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn dense_and_strided_ids_spread_over_the_low_bits() {
        // What the table indexes with: 4 096 ids, consecutive and at
        // page-table strides, must fill about as many of 4 096 buckets
        // as a random function does (63 %).
        for stride in [1u64, 16, 256] {
            let buckets: IdHashSet<u64> =
                (0..4096u64).map(|i| hash_of((1u32, i * stride)) & 4095).collect();
            assert!(buckets.len() > 2200, "stride {stride}: {} buckets", buckets.len());
        }
        let frames: IdHashSet<u64> = (0..4u16)
            .flat_map(|n| (0..1024u32).map(move |i| hash_of(Frame::local(NodeId(n), i)) & 4095))
            .collect();
        assert!(frames.len() > 2200, "{} buckets", frames.len());
    }
}
