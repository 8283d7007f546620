//! Fast, deterministic hashing for dictionary-encoded rows.
//!
//! All grouping in this workspace (projection deduplication, marginal
//! counting for entropies, hash joins) hashes very short sequences of `u32`
//! codes.  The standard library's SipHash is designed for DoS resistance on
//! untrusted inputs and is several times slower than necessary for this
//! workload.  We therefore ship a tiny Fx-style multiplicative hasher (the
//! same construction used by rustc's `FxHashMap`), implemented locally to
//! avoid an extra dependency.
//!
//! Determinism matters: experiment outputs and canonical relation orderings
//! must not depend on a randomly seeded hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplicative constant used by the Fx hash construction.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Rotation applied between words.
const ROTATE: u32 = 5;
/// Rotation applied by [`FxHasher::finish`]: a multiply mixes each bit
/// only into the bits above it, so the raw product's low bits — the ones a
/// hash table's bucket index and [`crate::context`]'s stripe take — see only
/// the key's low bits.  Rotating left by 20 moves product bits 44..64,
/// which see all key bits below them, to the bottom, and keeps bits 37..44
/// in the top seven a hash table compares as tags.
const FINISH_ROTATE: u32 = 20;

/// A fast, non-cryptographic, deterministic 64-bit hasher.
///
/// Suitable for short integer keys (attribute ids, dictionary codes, row
/// prefixes).  Not suitable for untrusted adversarial input.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        // ajd: allow(silent-arithmetic, "hash mixing is arithmetic mod 2^64 by design; wrapping here is the algorithm, not a lost count")
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(FINISH_ROTATE)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast deterministic hasher.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the fast deterministic hasher.
pub type FxHashSet<K> = HashSet<K, FxBuildHasher>;

/// Creates an empty [`FxHashMap`] with the given capacity.
pub fn map_with_capacity<K, V>(cap: usize) -> FxHashMap<K, V> {
    FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

/// Creates an empty [`FxHashSet`] with the given capacity.
pub fn set_with_capacity<K>(cap: usize) -> FxHashSet<K> {
    FxHashSet::with_capacity_and_hasher(cap, FxBuildHasher::default())
}

/// Hashes a row of dictionary codes to a single `u64`.
///
/// Used when a 64-bit fingerprint of a row (rather than an owned key) is
/// sufficient, e.g. for probabilistic sanity checks in benches.
#[inline]
pub fn hash_row(row: &[u32]) -> u64 {
    let mut h = FxHasher::default();
    for &v in row {
        h.write_u32(v);
    }
    h.write_usize(row.len());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic() {
        let a = hash_row(&[1, 2, 3]);
        let b = hash_row(&[1, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_rows_usually_differ() {
        let a = hash_row(&[1, 2, 3]);
        let b = hash_row(&[3, 2, 1]);
        let c = hash_row(&[1, 2]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn length_is_mixed_in() {
        // [0] and [0,0] must not collide trivially.
        assert_ne!(hash_row(&[0]), hash_row(&[0, 0]));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<Vec<u32>, u64> = map_with_capacity(4);
        *m.entry(vec![1, 2]).or_insert(0) += 1;
        *m.entry(vec![1, 2]).or_insert(0) += 1;
        assert_eq!(m[&vec![1, 2]], 2);

        let mut s: FxHashSet<u32> = set_with_capacity(4);
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    /// Keys that differ only in high bits still spread over the low bits
    /// a table or stripe index takes (the raw product maps all 64 to 0).
    #[test]
    fn low_bits_see_high_key_bits() {
        let stripes: FxHashSet<u64> = (0..64u64)
            .map(|i| {
                let mut h = FxHasher::default();
                h.write_u64(i << 40);
                h.finish() & 15
            })
            .collect();
        assert!(stripes.len() >= 8, "{} distinct low nibbles", stripes.len());
    }

    #[test]
    fn write_bytes_path_consistent() {
        use std::hash::Hash;
        // Hashing the same value through the generic `Hash` impl twice gives
        // the same result.
        let mut h1 = FxHasher::default();
        let mut h2 = FxHasher::default();
        "hello world, this is a longer string".hash(&mut h1);
        "hello world, this is a longer string".hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }
}
