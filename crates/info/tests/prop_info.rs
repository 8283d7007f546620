//! Property-based tests of the Shannon-information inequalities the paper's
//! arguments rest on, evaluated on empirical distributions of random
//! relations.

use ajd_info::entropy::{entropy_of_count_values, TERM_TABLE_LEN};
use ajd_info::{
    conditional_entropy, conditional_mutual_information, entropy, j_measure, kl_divergence_to_tree,
    kl_report, mutual_information, TreeFactoredDistribution,
};
use ajd_jointree::JoinTree;
use ajd_relation::{AttrId, AttrSet, Relation, Value};
use proptest::prelude::*;

fn relation_strategy(
    arity: usize,
    domain: Value,
    max_rows: usize,
) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0..domain, arity), 1..max_rows).prop_map(
        move |rows| {
            let schema: Vec<AttrId> = (0..arity).map(AttrId::from).collect();
            Relation::from_rows(schema, &rows).expect("generated rows have the right arity")
        },
    )
}

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

/// Count vectors that mix 0s and 1s, small counts, counts around the end
/// of the term table and counts past it, often with more counts ≥ 2 than
/// one block of the sum holds (256).
fn counts_strategy() -> impl Strategy<Value = Vec<u64>> {
    let end = TERM_TABLE_LEN as u64;
    prop::collection::vec(0..4 * end, 0..700).prop_map(move |raw| {
        raw.into_iter()
            .map(|x| match x % 4 {
                0 => x / 4 % 2,
                1 => x % 16,
                2 => end - 8 + x % 16,
                _ => x,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// 0 ≤ H(Y) ≤ log(number of distinct Y-values) ≤ log N.
    #[test]
    fn entropy_bounds(r in relation_strategy(3, 5, 50)) {
        for attrs in [bag(&[0]), bag(&[0, 1]), bag(&[0, 1, 2])] {
            let h = entropy(&r, &attrs).unwrap();
            let groups = r.group_counts(&attrs).unwrap().num_groups() as f64;
            prop_assert!(h >= -1e-12);
            prop_assert!(h <= groups.ln() + 1e-9);
            prop_assert!(h <= (r.len() as f64).ln() + 1e-9);
        }
    }

    /// The entropy sum, with its skipped 0/1 counts and its per-call term
    /// table, carries exactly the bits of one `c ln c` per positive count,
    /// added in order.
    #[test]
    fn entropy_sum_is_bit_identical_to_the_per_group_loop(counts in counts_strategy()) {
        let total: u128 = counts.iter().map(|&c| c as u128).sum();
        let expected = if total == 0 {
            0.0
        } else {
            let n = total as f64;
            let mut acc = 0.0f64;
            for &c in &counts {
                if c > 0 {
                    let cf = c as f64;
                    acc += cf * cf.ln();
                }
            }
            n.ln() - acc / n
        };
        let got = entropy_of_count_values(counts.iter().copied(), total);
        prop_assert_eq!(got.to_bits(), expected.to_bits());
    }

    /// Monotonicity and sub-additivity: H(A) ≤ H(AB) ≤ H(A) + H(B).
    #[test]
    fn entropy_monotone_and_subadditive(r in relation_strategy(3, 5, 50)) {
        let ha = entropy(&r, &bag(&[0])).unwrap();
        let hb = entropy(&r, &bag(&[1])).unwrap();
        let hab = entropy(&r, &bag(&[0, 1])).unwrap();
        prop_assert!(ha <= hab + 1e-9);
        prop_assert!(hb <= hab + 1e-9);
        prop_assert!(hab <= ha + hb + 1e-9);
    }

    /// Conditioning reduces entropy: 0 ≤ H(A|B) ≤ H(A).
    #[test]
    fn conditioning_reduces_entropy(r in relation_strategy(3, 4, 50)) {
        let ha = entropy(&r, &bag(&[0])).unwrap();
        let ha_given_b = conditional_entropy(&r, &bag(&[0]), &bag(&[1])).unwrap();
        let ha_given_bc = conditional_entropy(&r, &bag(&[0]), &bag(&[1, 2])).unwrap();
        prop_assert!(ha_given_b >= -1e-9);
        prop_assert!(ha_given_b <= ha + 1e-9);
        // More conditioning reduces entropy further.
        prop_assert!(ha_given_bc <= ha_given_b + 1e-9);
    }

    /// Mutual information identities: I(A;B) = H(A) − H(A|B) ≥ 0, symmetric,
    /// and I(A;A) = H(A).
    #[test]
    fn mutual_information_identities(r in relation_strategy(2, 5, 50)) {
        let a = bag(&[0]);
        let b = bag(&[1]);
        let iab = mutual_information(&r, &a, &b).unwrap();
        let iba = mutual_information(&r, &b, &a).unwrap();
        let ha = entropy(&r, &a).unwrap();
        let hab = conditional_entropy(&r, &a, &b).unwrap();
        prop_assert!(iab >= -1e-9);
        prop_assert!((iab - iba).abs() < 1e-9);
        prop_assert!((iab - (ha - hab)).abs() < 1e-9);
        let iaa = mutual_information(&r, &a, &a).unwrap();
        prop_assert!((iaa - ha).abs() < 1e-9);
    }

    /// Chain rule: I(A;BC) = I(A;B) + I(A;C|B).
    #[test]
    fn mutual_information_chain_rule(r in relation_strategy(3, 4, 50)) {
        let a = bag(&[0]);
        let b = bag(&[1]);
        let c = bag(&[2]);
        let lhs = mutual_information(&r, &a, &b.union(&c)).unwrap();
        let rhs = mutual_information(&r, &a, &b).unwrap()
            + conditional_mutual_information(&r, &a, &c, &b).unwrap();
        prop_assert!((lhs - rhs).abs() < 1e-9);
    }

    /// The J-measure of any join tree is non-negative and equals the
    /// KL-divergence to the tree factorisation (Theorem 3.2) — here checked
    /// on *multiset* relations too, where tuples carry multiplicities.
    ///
    /// The id-level KL sum is also bit-identical to the tuple-level
    /// reference, which scores every decoded distinct tuple through
    /// `TreeFactoredDistribution::log_prob`, and both range over the same
    /// support.
    #[test]
    fn j_measure_nonnegative_and_equals_kl_on_multisets(r in relation_strategy(3, 4, 60)) {
        let trees = [
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2])]).unwrap(),
            JoinTree::path(vec![bag(&[0]), bag(&[1]), bag(&[2])]).unwrap(),
        ];
        for tree in trees {
            let j = j_measure(&r, &tree).unwrap();
            let kl = kl_divergence_to_tree(&r, &tree).unwrap();
            prop_assert!(j >= -1e-9);
            prop_assert!((j - kl).abs() < 1e-9 * (1.0 + j.abs()));

            let report = kl_report(&r, &tree).unwrap();
            let reference = TreeFactoredDistribution::new(&r, &tree)
                .unwrap()
                .kl_by_tuples(&r)
                .unwrap();
            prop_assert_eq!(report.kl_nats.to_bits(), reference.kl_nats.to_bits());
            prop_assert_eq!(report.support_size, reference.support_size);
        }
    }
}
