//! Entropies of the empirical distribution of a relation.
//!
//! For a relation instance `R` with `N` tuples over attributes `Ω`, the
//! empirical distribution assigns probability `K/N` to every tuple with
//! multiplicity `K` (Section 2.2).  The entropy of an attribute subset
//! `Y ⊆ Ω` is the Shannon entropy of the marginal of that distribution on
//! `Y`; for counts `c₁,…,c_g` of the distinct `Y`-projections it equals
//!
//! ```text
//! H(Y) = ln N − (1/N) Σᵢ cᵢ ln cᵢ      (in nats)
//! ```
//!
//! which is the numerically stable form used here (no divisions inside
//! the loop).  The sum takes at most one logarithm per distinct count value
//! rather than per group: a count of 0 or 1 adds exactly nothing and is
//! skipped, and the term `c ln c` of every count below [`TERM_TABLE_LEN`]
//! is computed once per call and looked up after that.  Both keep the sum
//! bit-identical to one `c ln c` per group, added in group order.
//!
//! Every function is generic over [`GroupSource`]: pass `&Relation` to
//! compute marginals from scratch, or any shared source (an
//! `AnalysisContext`, via `ajd_core::Analyzer`) to answer them from a
//! memoized cache — one code path, bit-identical results.

use ajd_relation::{AttrSet, GroupCounts, GroupSource, Relation, Result};

/// Entropy (in nats) of the marginal empirical distribution of `src`'s
/// relation on the attribute set `attrs`.
///
/// `H(∅) = 0` by convention (all tuples project to the same empty tuple).
/// A memoizing source answers from its entropy tier (see
/// [`GroupSource::memo_entropy`]), whose miss path applies the same sum to
/// the same multiplicities.
pub fn entropy<S: GroupSource>(src: &S, attrs: &AttrSet) -> Result<f64> {
    src.memo_entropy(attrs, |counts, total| {
        entropy_of_count_values(counts.iter().copied(), total)
    })
}

/// Entropy (in nats) computed from pre-grouped counts.
pub fn entropy_from_counts(counts: &GroupCounts) -> f64 {
    entropy_of_count_values(counts.counts().iter().copied(), counts.total)
}

/// Entropy (in nats) of the full empirical distribution of `r` (i.e. over
/// all of its attributes).  For a *set* relation this is exactly `ln N`.
pub fn entropy_of_relation(r: &Relation) -> Result<f64> {
    entropy(r, &r.attrs())
}

/// Conditional entropy `H(A | B) = H(A ∪ B) − H(B)` (in nats).
pub fn conditional_entropy<S: GroupSource>(src: &S, a: &AttrSet, b: &AttrSet) -> Result<f64> {
    let hab = entropy(src, &a.union(b))?;
    let hb = entropy(src, b)?;
    Ok(hab - hb)
}

/// Entropy from an iterator of positive counts with the given total.
///
/// Exposed for the statistics of the random relation model (where counts
/// may come from histograms rather than relations).  `total` is `u128` to
/// match [`GroupCounts::total`], which never saturates.
///
/// The result is bit-identical to adding `c ln c` for every positive count,
/// in iteration order: counts of 0 and 1 are skipped (their term is `+0.0`,
/// and the sum, which starts at `+0.0` and only adds terms `≥ +0.0`, is left
/// unchanged by it), and the term of a count below [`TERM_TABLE_LEN`] comes
/// from a table filled on first use with that same expression.
pub fn entropy_of_count_values<I: IntoIterator<Item = u64>>(counts: I, total: u128) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let n = total as f64;
    // No count of a table with this total exceeds it, so a small total
    // needs a small table.  0.0 marks a term not yet computed: the term of
    // every count ≥ 2 is positive.
    let len = total.min(TERM_TABLE_LEN as u128 - 1) as usize + 1;
    let mut terms = vec![0.0f64; len];
    let mut acc = 0.0f64;
    let mut add = |counts: &[u64]| {
        for &c in counts {
            acc += if c < len as u64 {
                let term = &mut terms[c as usize];
                if *term == 0.0 {
                    *term = c_ln_c(c);
                }
                *term
            } else {
                c_ln_c(c)
            };
        }
    };
    // Counts of 0 and 1 are dropped without a branch: every count is
    // written to `kept`, and only a count ≥ 2 advances past its slot.  Most
    // groups of a large set are singletons, in an order no branch
    // predictor learns.
    let mut kept = [0u64; KEPT_BLOCK];
    let mut k = 0;
    for c in counts {
        kept[k] = c;
        k += usize::from(c > 1);
        if k == KEPT_BLOCK {
            add(&kept);
            k = 0;
        }
    }
    add(&kept[..k]);
    n.ln() - acc / n
}

/// One past the largest count whose term `c ln c`
/// [`entropy_of_count_values`] tables per call; larger counts are rare
/// (a group that large is one of at most `N / TERM_TABLE_LEN`), so their
/// terms are computed directly.
pub const TERM_TABLE_LEN: usize = 4096;

/// Counts [`entropy_of_count_values`] gathers before it adds their terms.
const KEPT_BLOCK: usize = 256;

/// The term `c ln c` of one count.
fn c_ln_c(c: u64) -> f64 {
    let cf = c as f64;
    cf * cf.ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajd_relation::{AnalysisContext, AttrId, Relation, ShardedStore, ThreadBudget};

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        let s: Vec<AttrId> = schema.iter().map(|&i| AttrId(i)).collect();
        Relation::from_rows(s, rows).unwrap()
    }

    fn bag(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn entropy_of_uniform_marginal_is_log_of_support() {
        // Attribute 0 takes 4 values, each twice.
        let rows: Vec<Vec<u32>> = (0..8u32).map(|i| vec![i % 4, i]).collect();
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let h = entropy(&r, &bag(&[0])).unwrap();
        assert!((h - (4.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_full_set_relation_is_ln_n() {
        let rows: Vec<Vec<u32>> = (0..10u32).map(|i| vec![i, 2 * i]).collect();
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let h = entropy_of_relation(&r).unwrap();
        assert!((h - (10.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn entropy_of_constant_attribute_is_zero() {
        let rows: Vec<Vec<u32>> = (0..5u32).map(|i| vec![7, i]).collect();
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert!(entropy(&r, &bag(&[0])).unwrap().abs() < 1e-12);
    }

    #[test]
    fn entropy_of_empty_attribute_set_is_zero() {
        let rows: Vec<Vec<u32>> = (0..5u32).map(|i| vec![i, i]).collect();
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        assert!(entropy(&r, &AttrSet::empty()).unwrap().abs() < 1e-12);
    }

    #[test]
    fn entropy_is_monotone_under_adding_attributes() {
        let r = rel(
            &[0, 1, 2],
            &[&[0, 0, 0], &[0, 1, 0], &[1, 0, 1], &[1, 1, 0], &[2, 0, 1]],
        );
        let h0 = entropy(&r, &bag(&[0])).unwrap();
        let h01 = entropy(&r, &bag(&[0, 1])).unwrap();
        let h012 = entropy(&r, &bag(&[0, 1, 2])).unwrap();
        assert!(h0 <= h01 + 1e-12);
        assert!(h01 <= h012 + 1e-12);
    }

    #[test]
    fn entropy_bounded_by_log_of_active_domain() {
        let r = rel(&[0, 1], &[&[0, 0], &[0, 1], &[1, 0], &[3, 3], &[3, 0]]);
        let h = entropy(&r, &bag(&[0])).unwrap();
        let d = r.active_domain_size(AttrId(0)).unwrap() as f64;
        assert!(h <= d.ln() + 1e-12);
    }

    #[test]
    fn skewed_distribution_has_lower_entropy_than_uniform() {
        // 6 tuples: value 0 appears 5 times, value 1 once.
        let rows: Vec<Vec<u32>> = vec![
            vec![0, 0],
            vec![0, 1],
            vec![0, 2],
            vec![0, 3],
            vec![0, 4],
            vec![1, 5],
        ];
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let h = entropy(&r, &bag(&[0])).unwrap();
        // Uniform over 2 values would be ln 2.
        assert!(h > 0.0);
        assert!(h < (2.0f64).ln());
        // Exact: H = ln 6 - (5 ln 5)/6
        let expected = (6.0f64).ln() - 5.0 * (5.0f64).ln() / 6.0;
        assert!((h - expected).abs() < 1e-12);
    }

    #[test]
    fn conditional_entropy_basic_identities() {
        let r = rel(&[0, 1], &[&[0, 0], &[0, 1], &[1, 0], &[1, 1]]);
        // A and B independent and uniform: H(A|B) = H(A) = ln 2.
        let hab = conditional_entropy(&r, &bag(&[0]), &bag(&[1])).unwrap();
        assert!((hab - (2.0f64).ln()).abs() < 1e-12);
        // H(A|A) = 0.
        let haa = conditional_entropy(&r, &bag(&[0]), &bag(&[0])).unwrap();
        assert!(haa.abs() < 1e-12);
    }

    #[test]
    fn functional_dependency_gives_zero_conditional_entropy() {
        // B = A + 1 (mod 3): B is a function of A, so H(B|A) = 0.
        let rows: Vec<Vec<u32>> = (0..9u32).map(|i| vec![i % 3, (i % 3 + 1) % 3]).collect();
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let h = conditional_entropy(&r, &bag(&[1]), &bag(&[0])).unwrap();
        assert!(h.abs() < 1e-12);
    }

    #[test]
    fn entropy_handles_multiset_relations() {
        // Duplicated tuples: empirical distribution is no longer uniform over
        // distinct tuples.
        let r = rel(&[0], &[&[0], &[0], &[0], &[1]]);
        let h = entropy_of_relation(&r).unwrap();
        let expected = (4.0f64).ln() - (3.0 * (3.0f64).ln()) / 4.0;
        assert!((h - expected).abs() < 1e-12);
    }

    #[test]
    fn context_and_relation_sources_are_bit_identical() {
        let r = rel(
            &[0, 1, 2],
            &[&[0, 0, 0], &[0, 1, 0], &[1, 0, 1], &[1, 1, 0], &[2, 0, 1]],
        );
        let ctx = AnalysisContext::new(&r);
        for attrs in [bag(&[0]), bag(&[0, 2]), bag(&[0, 1, 2]), AttrSet::empty()] {
            let fresh = entropy(&r, &attrs).unwrap();
            let cached = entropy(&ctx, &attrs).unwrap();
            let cached_again = entropy(&ctx, &attrs).unwrap();
            assert_eq!(fresh.to_bits(), cached.to_bits());
            assert_eq!(fresh.to_bits(), cached_again.to_bits());
        }
        assert!(ctx.stats().hits > 0);
    }

    /// An entropy fill reads an id table, resident or seeded, without
    /// decoding a count table, and gives the bits of the count table's sum.
    #[test]
    fn entropy_over_an_id_table_creates_no_count_table() {
        let rows: Vec<[u32; 3]> = (0..40u32).map(|i| [i % 3, i % 7, i / 9]).collect();
        let r = rel(&[0, 1, 2], &rows.iter().map(|r| &r[..]).collect::<Vec<_>>());
        let sets = [bag(&[0]), bag(&[0, 1]), bag(&[0, 1, 2])];
        let ctx = AnalysisContext::new(&r);
        for y in &sets {
            ctx.group_ids_with(y, ThreadBudget::serial()).unwrap();
            let h = entropy(&ctx, y).unwrap();
            let expected = entropy_from_counts(&r.group_counts(y).unwrap());
            assert_eq!(h.to_bits(), expected.to_bits(), "{y:?}");
        }
        assert_eq!(ctx.stats().group_count_entries, 0);

        // Over a live relation: epoch 2's context holds epoch 1's id
        // tables as seeds, which the fill extends, and then holds the
        // extended tables resident.
        let (first, second) = rows.split_at(25);
        let shard =
            |rows: &[[u32; 3]]| rel(&[0, 1, 2], &rows.iter().map(|r| &r[..]).collect::<Vec<_>>());
        let store = ShardedStore::from_initial_shard(shard(first)).unwrap();
        for y in &sets {
            store
                .context()
                .group_ids_with(y, ThreadBudget::serial())
                .unwrap();
        }
        store.append_shard(shard(second)).unwrap();
        let ctx = store.context();
        let (seeded, resident) = sets.split_at(2);
        for y in seeded {
            let h = entropy(&ctx, y).unwrap();
            assert_eq!(
                h.to_bits(),
                entropy_from_counts(&r.group_counts(y).unwrap()).to_bits()
            );
        }
        for y in resident {
            ctx.group_ids_with(y, ThreadBudget::serial()).unwrap();
            let h = entropy(&ctx, y).unwrap();
            assert_eq!(
                h.to_bits(),
                entropy_from_counts(&r.group_counts(y).unwrap()).to_bits()
            );
        }
        let stats = ctx.stats();
        assert_eq!(stats.extended, sets.len() as u64, "{stats:?}");
        assert_eq!(
            (stats.misses, stats.group_count_entries),
            (0, 0),
            "{stats:?}"
        );
    }

    #[test]
    fn entropy_of_counts_helper_edge_cases() {
        assert_eq!(entropy_of_count_values([], 0), 0.0);
        assert!(entropy_of_count_values([5], 5).abs() < 1e-12);
        let h = entropy_of_count_values([1, 1, 1, 1], 4);
        assert!((h - (4.0f64).ln()).abs() < 1e-12);
        // Zero counts are ignored.
        let h2 = entropy_of_count_values([2, 0, 2], 4);
        assert!((h2 - (2.0f64).ln()).abs() < 1e-12);
    }

    /// The reference sum: one `c ln c` per positive count, added in order.
    fn per_group_sum(counts: &[u64], total: u128) -> f64 {
        if total == 0 {
            return 0.0;
        }
        let n = total as f64;
        let mut acc = 0.0f64;
        for &c in counts {
            if c > 0 {
                let cf = c as f64;
                acc += cf * cf.ln();
            }
        }
        n.ln() - acc / n
    }

    fn assert_bit_identical(counts: &[u64], total: u128) {
        assert_eq!(
            entropy_of_count_values(counts.iter().copied(), total).to_bits(),
            per_group_sum(counts, total).to_bits(),
            "counts {counts:?}, total {total}"
        );
    }

    #[test]
    fn every_single_count_matches_the_per_group_sum() {
        let end = TERM_TABLE_LEN as u64;
        for c in 0..end + 64 {
            // With a table that just holds the count, and with a full one.
            assert_bit_identical(&[c], c as u128);
            assert_bit_identical(&[c], c as u128 + 5_000);
        }
    }

    #[test]
    fn counts_straddling_the_table_end_match_the_per_group_sum() {
        let end = TERM_TABLE_LEN as u64;
        let around: Vec<u64> = (end - 3..end + 3).collect();
        let mut mixed = Vec::new();
        for (i, &c) in around.iter().enumerate() {
            // Repeats exercise the filled entries; 0s and 1s the skip.
            mixed.extend([c, 1, 0, c, 2 + i as u64, end + 1_000 * i as u64, 1, c]);
        }
        let total: u128 = mixed.iter().map(|&c| c as u128).sum();
        assert_bit_identical(&around, around.iter().map(|&c| c as u128).sum());
        assert_bit_identical(&mixed, total);
        // Longer than the block of kept counts, so blocks are added in turn.
        let long: Vec<u64> = mixed
            .iter()
            .copied()
            .cycle()
            .take(3 * KEPT_BLOCK + 7)
            .collect();
        assert_bit_identical(&long, long.iter().map(|&c| c as u128).sum());
        // A total below the table's end, with counts above the total.
        assert_bit_identical(&[3, 9, end, 3], 10);
        assert_bit_identical(&[1, 1, 1], 1);
        assert_bit_identical(&[u64::MAX, 7, u64::MAX], u128::MAX);
    }

    #[test]
    fn unknown_attribute_errors() {
        let r = rel(&[0], &[&[0]]);
        assert!(entropy(&r, &bag(&[5])).is_err());
    }
}
