//! K-minimum-values (KMV) distinct-count sketches.
//!
//! The estimation tier sometimes needs *how many distinct groups* an
//! attribute set has — the active-domain sizes that instantiate the paper's
//! Theorem 5.1, the support sizes behind plug-in bias terms — without ever
//! building the full group table.  A KMV sketch answers that in `O(k)`
//! memory: hash every row's projection to a 64-bit value with a seeded,
//! deterministic mixer and keep only the `k` smallest hashes.  If fewer
//! than `k` distinct hashes were ever seen the count is exact; otherwise
//! the `k`-th smallest hash `v₍k₎` estimates the distinct count as
//! `(k − 1) / U₍k₎` where `U₍k₎ = (v₍k₎ + 1) / 2⁶⁴` (Bar-Yossef et al.,
//! "Counting distinct elements in a data stream").
//!
//! Two properties make the sketch safe inside this workspace's
//! determinism contract:
//!
//! * **Seeded hashing** — the mixer is a SplitMix64 chain over the row's
//!   *decoded* values, keyed by an explicit caller-provided seed.  No
//!   ambient entropy, so the same `(rows, attrs, k, seed)` always produces
//!   the same sketch (the `nondeterminism-source` lint enforces the
//!   no-ambient-entropy half of this).
//! * **Order-independent merge** — "keep the k smallest of a set" does not
//!   depend on insertion order, and [`KmvSketch::merge`] unions two
//!   sketches' hash sets.  A sharded relation can therefore sketch each
//!   shard independently and merge in any order, and the result is
//!   **identical** to sketching the flat relation row by row.  (Hashing
//!   decoded values — not per-shard dictionary codes — is what makes the
//!   shard layout invisible.)
//!
//! The estimator's guarantee is distributional, not worst-case: its
//! relative standard error is `≈ 1/√(k − 2)`, and
//! [`KmvSketch::relative_epsilon`] converts a confidence `δ` into a
//! Chebyshev-style relative error bound `1/√(δ·(k − 2))`.

use crate::relation::Value;
use std::collections::BTreeSet;

/// SplitMix64 finalising step: a well-mixed 64-bit permutation.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    // ajd: allow(silent-arithmetic, "hash mixing is arithmetic mod 2^64 by design; wrapping here is the algorithm, not a lost count")
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    // ajd: allow(silent-arithmetic, "hash mixing is arithmetic mod 2^64 by design")
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    // ajd: allow(silent-arithmetic, "hash mixing is arithmetic mod 2^64 by design")
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded, deterministic 64-bit hash of a sequence of decoded values.
///
/// The chain mixes each value (and finally the length) through
/// `splitmix64`, so permutations and prefixes do not collide trivially.
#[inline]
pub fn seeded_row_hash(seed: u64, values: &[Value]) -> u64 {
    let mut h = splitmix64(seed ^ 0x5851_f42d_4c95_7f2d);
    for &v in values {
        h = splitmix64(h ^ v as u64);
    }
    splitmix64(h ^ values.len() as u64)
}

/// A k-minimum-values distinct-count sketch over seeded row hashes.
///
/// ```
/// use ajd_relation::sketch::KmvSketch;
///
/// let mut sk = KmvSketch::new(64, 7);
/// for v in 0u32..1000 {
///     sk.observe(&[v]);
/// }
/// let est = sk.estimate();
/// assert!((est - 1000.0).abs() / 1000.0 < 0.5, "estimate {est} far from 1000");
///
/// // Merging shard-local sketches equals sketching the concatenation.
/// let (mut a, mut b) = (KmvSketch::new(64, 7), KmvSketch::new(64, 7));
/// for v in 0u32..500 { a.observe(&[v]); }
/// for v in 500u32..1000 { b.observe(&[v]); }
/// a.merge(&b);
/// assert_eq!(a.estimate().to_bits(), sk.estimate().to_bits());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmvSketch {
    /// Number of minimum hash values retained.
    k: usize,
    /// Seed of the row hasher (two sketches must share it to be mergeable).
    seed: u64,
    /// The at-most-`k` smallest distinct hashes seen (sorted set, so the
    /// maximum — the eviction candidate — is `last()`).
    mins: BTreeSet<u64>,
    /// `true` once more than `k` distinct hashes have been seen (the
    /// estimate is then probabilistic rather than an exact count).
    saturated: bool,
}

impl KmvSketch {
    /// An empty sketch retaining the `k` smallest hashes (`k ≥ 2`) under
    /// the given hash seed.
    pub fn new(k: usize, seed: u64) -> Self {
        KmvSketch {
            k: k.max(2),
            seed,
            mins: BTreeSet::new(),
            saturated: false,
        }
    }

    /// The sketch's `k` parameter.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The sketch's hash seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of hashes currently retained (`min(k, distinct seen)`).
    pub fn len(&self) -> usize {
        self.mins.len()
    }

    /// `true` if nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.mins.is_empty()
    }

    /// `true` once the distinct count can only be estimated, not counted.
    pub fn is_saturated(&self) -> bool {
        self.saturated
    }

    /// Observes one row projection (decoded values).
    pub fn observe(&mut self, values: &[Value]) {
        self.insert_hash(seeded_row_hash(self.seed, values));
    }

    /// Inserts a pre-computed hash (the merge path).
    fn insert_hash(&mut self, h: u64) {
        if self.mins.len() < self.k {
            self.mins.insert(h);
            return;
        }
        let max = *self.mins.last().expect("k >= 2 entries present");
        if h < max && self.mins.insert(h) {
            self.mins.pop_last();
            self.saturated = true;
        } else if h >= max {
            // Beyond (or equal to) the current k-th minimum: evidence that
            // more than k distinct hashes exist, even though nothing is
            // retained for it.
            self.saturated = self.saturated || !self.mins.contains(&h);
        }
    }

    /// Unions another sketch into this one.  Both must share `k` and the
    /// seed; the merge is order-independent, so shard-local sketches merged
    /// in any order equal the flat-relation sketch.
    ///
    /// # Panics
    ///
    /// Panics if `k` or the seed differ — merging incompatible sketches is
    /// a programming error, not a data condition.
    pub fn merge(&mut self, other: &KmvSketch) {
        assert_eq!(self.k, other.k, "KMV merge requires equal k");
        assert_eq!(self.seed, other.seed, "KMV merge requires equal seeds");
        self.saturated = self.saturated || other.saturated;
        for &h in &other.mins {
            self.insert_hash(h);
        }
    }

    /// The distinct-count estimate.
    ///
    /// Exact (the retained count) while fewer than `k` distinct hashes have
    /// been seen; otherwise the KMV estimator `(k − 1) / U₍k₎` with
    /// `U₍k₎ = (v₍k₎ + 1) / 2⁶⁴`.
    pub fn estimate(&self) -> f64 {
        if !self.saturated || self.mins.len() < self.k {
            return self.mins.len() as f64;
        }
        let kth = *self.mins.last().expect("saturated sketch holds k hashes");
        let u_k = (kth as f64 + 1.0) / 2.0f64.powi(64);
        (self.k as f64 - 1.0) / u_k
    }

    /// `true` if [`KmvSketch::estimate`] is an exact distinct count rather
    /// than a probabilistic estimate.
    pub fn is_exact(&self) -> bool {
        !self.saturated
    }

    /// Chebyshev-style relative error bound at confidence `1 − δ`:
    /// `Var[D̂] ≤ D²/(k−2)`, so `P(|D̂ − D| ≥ εD) ≤ 1/(ε²(k−2))`, giving
    /// `ε = 1/√(δ·(k−2))`.  Returns `0` while the sketch is still exact.
    pub fn relative_epsilon(&self, delta: f64) -> f64 {
        if self.is_exact() {
            return 0.0;
        }
        let k = (self.k as f64 - 2.0).max(1.0);
        1.0 / (delta.clamp(f64::MIN_POSITIVE, 1.0) * k).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_k() {
        let mut sk = KmvSketch::new(16, 0);
        for v in 0u32..10 {
            sk.observe(&[v, v + 1]);
        }
        assert!(sk.is_exact());
        assert_eq!(sk.estimate(), 10.0);
        // Duplicates do not inflate the count.
        for v in 0u32..10 {
            sk.observe(&[v, v + 1]);
        }
        assert_eq!(sk.estimate(), 10.0);
        assert_eq!(sk.relative_epsilon(0.05), 0.0);
    }

    #[test]
    fn estimates_within_chebyshev_bound() {
        for (n, k) in [(1_000u32, 256usize), (20_000, 512)] {
            let mut sk = KmvSketch::new(k, 42);
            for v in 0..n {
                sk.observe(&[v]);
            }
            assert!(sk.is_saturated());
            let est = sk.estimate();
            let eps = sk.relative_epsilon(0.05);
            let rel = (est - n as f64).abs() / n as f64;
            assert!(
                rel <= eps,
                "n={n} k={k}: relative error {rel:.4} exceeds bound {eps:.4}"
            );
        }
    }

    #[test]
    fn merge_is_order_independent_and_equals_flat() {
        let seed = 9;
        let k = 64;
        let mut flat = KmvSketch::new(k, seed);
        for v in 0u32..3000 {
            flat.observe(&[v % 700, v % 11]);
        }
        // Shard the same stream three ways, merge in two different orders.
        let mut parts: Vec<KmvSketch> = (0..3).map(|_| KmvSketch::new(k, seed)).collect();
        for v in 0u32..3000 {
            parts[(v % 3) as usize].observe(&[v % 700, v % 11]);
        }
        let mut fwd = parts[0].clone();
        fwd.merge(&parts[1]);
        fwd.merge(&parts[2]);
        let mut rev = parts[2].clone();
        rev.merge(&parts[1]);
        rev.merge(&parts[0]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd, flat);
        assert_eq!(fwd.estimate().to_bits(), flat.estimate().to_bits());
    }

    #[test]
    fn different_seeds_produce_different_but_deterministic_sketches() {
        let build = |seed: u64| {
            let mut sk = KmvSketch::new(32, seed);
            for v in 0u32..500 {
                sk.observe(&[v]);
            }
            sk
        };
        assert_eq!(build(1), build(1));
        assert_ne!(build(1), build(2));
    }

    #[test]
    #[should_panic(expected = "equal seeds")]
    fn merging_mismatched_seeds_panics() {
        let mut a = KmvSketch::new(8, 1);
        let b = KmvSketch::new(8, 2);
        a.merge(&b);
    }
}
