//! The tree-factorised distribution `P^T` and the KL-divergence to it.
//!
//! Proposition 3.1 (eq. 10): a distribution `P` models a join tree `T`
//! (Definition 2.2) iff it equals
//!
//! ```text
//! P^T(x) = Π_i P[Ωᵢ](x[Ωᵢ]) / Π_i P[Δᵢ](x[Δᵢ])
//! ```
//!
//! where the `Ωᵢ` are the bags of `T` and the `Δᵢ` its edge separators.
//! Theorem 3.2 states `J(T) = min_{Q ⊨ T} D_KL(P ‖ Q) = D_KL(P ‖ P^T)`.
//!
//! [`kl_divergence_to_tree`] / [`kl_report`] compute `D_KL(P_R ‖ P_R^T)`
//! so that the Theorem 3.2 identity can be verified numerically (the
//! analysis crate reports it next to `J` as a cross-check).  The sum runs on
//! **interned group ids**: it walks the `Ω` grouping in group-id order,
//! takes each group's first row as its representative, and reads every bag
//! and separator marginal as `counts[row_ids[rep]]` of that attribute set's
//! grouping.  No key is decoded and no hash table is built or probed, and
//! over a caching [`GroupSource`] the groupings are the ones the join-size
//! count already holds.
//!
//! [`TreeFactoredDistribution`] evaluates `P^T` on arbitrary decoded tuples
//! (hash lookups on decoded keys).  Its
//! [`TreeFactoredDistribution::kl_by_tuples`] sums the same terms in the
//! same order through [`TreeFactoredDistribution::log_prob`]; it is the
//! tuple-level reference the id-level sum is tested to match bit for bit.

use ajd_jointree::JoinTree;
use ajd_relation::{
    GroupCounts, GroupIds, GroupKernel, GroupSource, RelationError, Result, ThreadBudget, Value,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Marginal counts of a relation on the bags and separators of a join tree,
/// together with the plumbing needed to evaluate `P^T` on tuples.
///
/// The marginals are [`GroupCounts`] tables with decoded keys, decoded
/// from the source's groupings when the distribution is built.
#[derive(Debug, Clone)]
pub struct TreeFactoredDistribution {
    /// Number of tuples of the underlying relation.
    n: u64,
    /// Per-bag marginal counts and the bag's column positions in the source
    /// relation's schema.
    bag_counts: Vec<(Vec<usize>, GroupCounts)>,
    /// Per-separator marginal counts and column positions.
    sep_counts: Vec<(Vec<usize>, GroupCounts)>,
}

/// Summary of a KL-divergence computation between the empirical distribution
/// and its tree factorisation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KlReport {
    /// `D_KL(P_R ‖ P_R^T)` in nats.
    pub kl_nats: f64,
    /// Number of distinct tuples of `R` the sum ranged over.
    pub support_size: usize,
}

impl TreeFactoredDistribution {
    /// Builds the factorisation of the empirical distribution of the source
    /// relation along `tree`.
    ///
    /// The join tree's attributes must be exactly the relation's attributes
    /// (otherwise `P^T` is a distribution over a different variable set and
    /// the KL-divergence is not defined tuple-wise).
    pub fn new<S: GroupKernel>(src: &S, tree: &JoinTree) -> Result<Self> {
        check_factorisable(src, tree)?;
        let mut bag_counts = Vec::with_capacity(tree.num_nodes());
        for bag in tree.bags() {
            let pos = src.attr_positions(bag)?;
            let counts = src.group_counts_with(bag, ThreadBudget::serial())?;
            bag_counts.push((pos, counts));
        }
        let mut sep_counts = Vec::with_capacity(tree.num_edges());
        for e in 0..tree.num_edges() {
            let sep = tree.separator(e);
            let pos = src.attr_positions(&sep)?;
            let counts = src.group_counts_with(&sep, ThreadBudget::serial())?;
            sep_counts.push((pos, counts));
        }
        Ok(TreeFactoredDistribution {
            n: src.num_rows() as u64,
            bag_counts,
            sep_counts,
        })
    }

    /// Number of tuples `N` of the underlying relation.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Natural logarithm of `P^T(t)` for a tuple given in the **source
    /// relation's column order**.
    ///
    /// Returns `f64::NEG_INFINITY` if some bag marginal assigns the tuple
    /// probability zero (cannot happen for tuples of `R` itself).
    pub fn log_prob(&self, row: &[Value]) -> f64 {
        let n_ln = (self.n as f64).ln();
        let mut acc = 0.0f64;
        let mut key: Vec<Value> = Vec::new();
        for (pos, counts) in &self.bag_counts {
            key.clear();
            key.extend(pos.iter().map(|&p| row[p]));
            let c = counts.count_of(&key);
            if c == 0 {
                return f64::NEG_INFINITY;
            }
            acc += (c as f64).ln() - n_ln;
        }
        for (pos, counts) in &self.sep_counts {
            key.clear();
            key.extend(pos.iter().map(|&p| row[p]));
            let c = counts.count_of(&key);
            debug_assert!(c > 0, "separator marginal of a bag-supported tuple");
            acc -= (c as f64).ln() - n_ln;
        }
        acc
    }

    /// `P^T(t)` for a tuple in the source relation's column order.
    pub fn prob(&self, row: &[Value]) -> f64 {
        self.log_prob(row).exp()
    }

    /// `D_KL(P_R ‖ P_R^T)` summed tuple by tuple: every distinct tuple of
    /// `src` (the source this distribution was built from) is decoded and
    /// scored through [`TreeFactoredDistribution::log_prob`].
    ///
    /// Same terms in the same order as [`kl_report`], hence bit-identical
    /// to it, but each term pays hash probes on decoded keys.  It is the
    /// reference the id-level sum is checked against.
    pub fn kl_by_tuples<S: GroupKernel>(&self, src: &S) -> Result<KlReport> {
        let attrs = src.attrs();
        let full = src.group_counts_with(&attrs, ThreadBudget::serial())?;
        let n = src.num_rows() as f64;
        let mut kl = 0.0f64;
        // The grouped keys are in ascending-attribute order; log_prob expects
        // the source column order, so reorder via the grouped attrs'
        // positions.
        let positions = src.attr_positions(&attrs)?;
        let mut reordered = vec![0u32; src.arity()];
        for (key, count) in full.iter() {
            for (i, &p) in positions.iter().enumerate() {
                reordered[p] = key[i];
            }
            let p_t = count as f64 / n;
            kl += p_t * (p_t.ln() - self.log_prob(&reordered));
        }
        Ok(KlReport {
            kl_nats: kl,
            support_size: full.num_groups(),
        })
    }
}

/// Computes `D_KL(P_R ‖ P_R^T)` in nats (the right-hand side of
/// Theorem 3.2), summing over the distinct tuples of `R`.
pub fn kl_divergence_to_tree<S: GroupSource>(src: &S, tree: &JoinTree) -> Result<f64> {
    Ok(kl_report(src, tree)?.kl_nats)
}

/// Like [`kl_divergence_to_tree`], additionally reporting the support size.
///
/// Sums over the `Ω` groups in group-id (first-appearance) order, each
/// represented by its first row; the term of a group is
/// `p·(ln p − ln P^T)` with `p = count/N` and
/// `ln P^T = Σ_bags (ln c − ln N) − Σ_separators (ln c − ln N)`, every `c`
/// read from the interned groupings at the representative row.  Each
/// `ln c − ln N` is computed once per group, not per row, and added in the
/// same order, so the sum is the same f64 value.  Over a caching
/// [`GroupSource`] every grouping comes from the cache.
pub fn kl_report<S: GroupSource>(src: &S, tree: &JoinTree) -> Result<KlReport> {
    check_factorisable(src, tree)?;
    let full = src.group_ids(&src.attrs())?;
    let bag_ids = tree
        .bags()
        .iter()
        .map(|bag| src.group_ids(bag))
        .collect::<Result<Vec<_>>>()?;
    let sep_ids = (0..tree.num_edges())
        .map(|e| src.group_ids(&tree.separator(e)))
        .collect::<Result<Vec<_>>>()?;
    let n = src.num_rows() as f64;
    let n_ln = n.ln();
    // `ln c − ln N` of every group of each grouping, read through row ids.
    let log_marginals = |groupings: &[Arc<GroupIds>]| -> Vec<Vec<f64>> {
        groupings
            .iter()
            .map(|ids| {
                ids.counts()
                    .iter()
                    .map(|&c| (c as f64).ln() - n_ln)
                    .collect()
            })
            .collect()
    };
    let bag_terms = log_marginals(&bag_ids);
    let sep_terms = log_marginals(&sep_ids);
    let mut kl = 0.0f64;
    // Ids are numbered in first-appearance order, so the first row whose id
    // is the next unseen one is that group's representative.
    let mut next = 0u32;
    for (row, &g) in full.row_ids().iter().enumerate() {
        if g != next {
            continue;
        }
        next += 1;
        let mut log_q = 0.0f64;
        for (ids, terms) in bag_ids.iter().zip(&bag_terms) {
            log_q += terms[ids.row_ids()[row] as usize];
        }
        for (ids, terms) in sep_ids.iter().zip(&sep_terms) {
            log_q -= terms[ids.row_ids()[row] as usize];
        }
        let p_t = full.counts()[g as usize] as f64 / n;
        kl += p_t * (p_t.ln() - log_q);
    }
    debug_assert_eq!(
        next as usize,
        full.num_groups(),
        "ids in first-appearance order"
    );
    Ok(KlReport {
        kl_nats: kl,
        support_size: full.num_groups(),
    })
}

/// The preconditions of `P^T`: a non-empty source whose attributes are
/// exactly the tree's (otherwise `P^T` is a distribution over a different
/// variable set and the KL-divergence is not defined tuple-wise).
fn check_factorisable<S: GroupSource>(src: &S, tree: &JoinTree) -> Result<()> {
    if src.is_empty() {
        return Err(RelationError::EmptyInput(
            "relation for tree-factorised distribution",
        ));
    }
    if tree.attributes() != src.attrs() {
        return Err(RelationError::SchemaMismatch {
            detail: format!(
                "join tree attributes {} differ from relation attributes {}",
                tree.attributes(),
                src.attrs()
            ),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jmeasure::j_measure;
    use ajd_relation::{AttrId, AttrSet, Relation};

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        let s: Vec<AttrId> = schema.iter().map(|&i| AttrId(i)).collect();
        Relation::from_rows(s, rows).unwrap()
    }

    fn bag(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().copied())
    }

    fn irregular_relation() -> Relation {
        rel(
            &[0, 1, 2, 3],
            &[
                &[0, 0, 0, 0],
                &[0, 1, 0, 1],
                &[0, 1, 1, 0],
                &[1, 0, 1, 1],
                &[1, 1, 0, 0],
                &[2, 0, 0, 1],
                &[2, 2, 1, 1],
                &[2, 2, 2, 0],
                &[3, 1, 2, 1],
            ],
        )
    }

    #[test]
    fn factored_probabilities_are_normalised_for_lossless_relation() {
        // For a relation that models the tree, P^T == P, so every tuple has
        // probability 1/N and the probabilities of R's tuples sum to 1.
        let mut rows = Vec::new();
        for a in 0..3u32 {
            for b in 0..2u32 {
                for c in 0..2u32 {
                    rows.push(vec![a, b, c]);
                }
            }
        }
        let r = rel(
            &[0, 1, 2],
            &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        let t = JoinTree::new(vec![bag(&[0, 1]), bag(&[0, 2])], vec![(0, 1)]).unwrap();
        let f = TreeFactoredDistribution::new(&r, &t).unwrap();
        let mut total = 0.0;
        for row in r.iter_rows() {
            let p = f.prob(row);
            assert!((p - 1.0 / r.len() as f64).abs() < 1e-12);
            total += p;
        }
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kl_is_zero_iff_schema_is_lossless() {
        let mut rows = Vec::new();
        for a in 0..3u32 {
            for b in 0..2u32 {
                for c in 0..2u32 {
                    rows.push(vec![a, b, c]);
                }
            }
        }
        let lossless = rel(
            &[0, 1, 2],
            &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        let t = JoinTree::new(vec![bag(&[0, 1]), bag(&[0, 2])], vec![(0, 1)]).unwrap();
        assert!(kl_divergence_to_tree(&lossless, &t).unwrap().abs() < 1e-12);

        // Drop a tuple: now lossy, KL > 0.
        rows.pop();
        let lossy = rel(
            &[0, 1, 2],
            &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        assert!(kl_divergence_to_tree(&lossy, &t).unwrap() > 1e-9);
    }

    #[test]
    fn theorem_3_2_kl_equals_j_measure() {
        let r = irregular_relation();
        let trees = vec![
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
            JoinTree::new(
                vec![bag(&[0]), bag(&[1]), bag(&[2]), bag(&[3])],
                vec![(0, 1), (1, 2), (2, 3)],
            )
            .unwrap(),
            JoinTree::new(vec![bag(&[0, 1, 2]), bag(&[2, 3])], vec![(0, 1)]).unwrap(),
        ];
        for t in trees {
            let j = j_measure(&r, &t).unwrap();
            let kl = kl_divergence_to_tree(&r, &t).unwrap();
            assert!(
                (j - kl).abs() < 1e-9,
                "Theorem 3.2 violated: J={j} KL={kl} for tree {t}"
            );
        }
    }

    #[test]
    fn theorem_3_2_on_bijection_relation() {
        let n = 6u32;
        let rows: Vec<Vec<u32>> = (0..n).map(|i| vec![i, i]).collect();
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let t = JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).unwrap();
        let kl = kl_divergence_to_tree(&r, &t).unwrap();
        assert!((kl - (n as f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn kl_report_counts_support() {
        let r = irregular_relation();
        let t = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
        let rep = kl_report(&r, &t).unwrap();
        assert_eq!(rep.support_size, r.len());
        assert!(rep.kl_nats >= 0.0);
    }

    #[test]
    fn id_level_sum_is_bit_identical_to_the_tuple_level_reference() {
        let r = irregular_relation();
        let trees = [
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
        ];
        for t in trees {
            let ids = kl_report(&r, &t).unwrap();
            let tuples = TreeFactoredDistribution::new(&r, &t)
                .unwrap()
                .kl_by_tuples(&r)
                .unwrap();
            assert_eq!(ids.kl_nats.to_bits(), tuples.kl_nats.to_bits(), "{t}");
            assert_eq!(ids.support_size, tuples.support_size, "{t}");
        }
    }

    /// The per-row-log form of [`kl_report`]'s sum: `ln c − ln N` evaluated
    /// at every representative row rather than once per group.
    fn kl_per_row_logs(r: &Relation, tree: &JoinTree) -> f64 {
        let full = r.group_ids(&r.attrs()).unwrap();
        let bags: Vec<GroupIds> = tree
            .bags()
            .iter()
            .map(|b| r.group_ids(b).unwrap())
            .collect();
        let seps: Vec<GroupIds> = (0..tree.num_edges())
            .map(|e| r.group_ids(&tree.separator(e)).unwrap())
            .collect();
        let n = r.len() as f64;
        let n_ln = n.ln();
        let count_at =
            |ids: &GroupIds, row: usize| ids.counts()[ids.row_ids()[row] as usize] as f64;
        let mut kl = 0.0f64;
        let mut next = 0u32;
        for (row, &g) in full.row_ids().iter().enumerate() {
            if g != next {
                continue;
            }
            next += 1;
            let mut log_q = 0.0f64;
            for ids in &bags {
                log_q += count_at(ids, row).ln() - n_ln;
            }
            for ids in &seps {
                log_q -= count_at(ids, row).ln() - n_ln;
            }
            let p_t = full.counts()[g as usize] as f64 / n;
            kl += p_t * (p_t.ln() - log_q);
        }
        kl
    }

    #[test]
    fn per_group_logs_are_bit_identical_to_per_row_logs() {
        let r = irregular_relation();
        let trees = [
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
            JoinTree::path(vec![bag(&[0, 1, 2]), bag(&[2, 3])]).unwrap(),
        ];
        for t in trees {
            let report = kl_report(&r, &t).unwrap();
            assert_eq!(
                report.kl_nats.to_bits(),
                kl_per_row_logs(&r, &t).to_bits(),
                "{t}"
            );
        }
    }

    #[test]
    fn mismatched_attribute_sets_are_rejected() {
        let r = irregular_relation();
        let t = JoinTree::new(vec![bag(&[0, 1]), bag(&[1, 2])], vec![(0, 1)]).unwrap();
        assert!(TreeFactoredDistribution::new(&r, &t).is_err());
        assert!(kl_divergence_to_tree(&r, &t).is_err());
    }

    #[test]
    fn empty_relation_rejected() {
        let r = Relation::new(vec![AttrId(0), AttrId(1)]).unwrap();
        let t = JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).unwrap();
        assert!(TreeFactoredDistribution::new(&r, &t).is_err());
        assert!(kl_report(&r, &t).is_err());
    }

    #[test]
    fn log_prob_of_unsupported_tuple_is_neg_infinity() {
        let r = rel(&[0, 1], &[&[0, 0], &[1, 1]]);
        let t = JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).unwrap();
        let f = TreeFactoredDistribution::new(&r, &t).unwrap();
        assert!(f.log_prob(&[5, 5]).is_infinite());
        // Spurious tuple (0,1) is in the support of P^T even though not in R.
        assert!(f.log_prob(&[0, 1]).is_finite());
        assert!((f.prob(&[0, 1]) - 0.25).abs() < 1e-12);
    }
}
