//! Multivalued dependencies and join-tree supports.
//!
//! An MVD `φ = C ↠ A | B` (with `C ∪ A ∪ B = Ω`) holds in `R` iff
//! `R = R[C∪A] ⋈ R[C∪B]`; its loss is
//! `ρ(R,φ) = (|R[C∪A] ⋈ R[C∪B]| − |R|)/|R|` (eq. 28).  That is the loss
//! of eq. (1) on the two-bag schema `{C∪A, C∪B}`, so an MVD's join size
//! and loss are counted by [`crate::count`] over its two-node join tree.
//!
//! Beeri et al. showed that an acyclic join dependency over a join tree `T`
//! is equivalent to the `m − 1` MVDs associated with `T`'s edges — its
//! *support* `MVD(T)` — and Section 2.3 of the paper uses the *ordered*
//! support `{Δᵢ ↠ Ω_{1:i-1} | Ω_{i:m}}_{i∈[2,m]}` induced by a depth-first
//! enumeration of a rooted tree.  Both forms are provided here.

use crate::count::{count_acyclic_join, loss_acyclic};
use crate::tree::{JoinTree, RootedTree};
use ajd_relation::{AttrSet, GroupSource, RelationError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A multivalued dependency `C ↠ A | B`.
///
/// The two sides are stored *inclusive* of the conditioning set
/// (`left ⊇ lhs`, `right ⊇ lhs`, `left ∪ right = Ω`), matching the paper's
/// simplified notation `Δᵢ ↠ Ω_{1:i-1} | Ω_{i:m}` (footnote 1: the mutual
/// information is unchanged by whether the separator is included).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mvd {
    /// The conditioning attribute set `C` (the separator).
    pub lhs: AttrSet,
    /// The left side `C ∪ A`.
    pub left: AttrSet,
    /// The right side `C ∪ B`.
    pub right: AttrSet,
}

impl Mvd {
    /// Creates an MVD `lhs ↠ left | right`, normalising the sides to include
    /// the conditioning set.
    ///
    /// Returns an error if either side (beyond `lhs`) is empty, i.e. the MVD
    /// is trivial.
    pub fn new(lhs: AttrSet, left: AttrSet, right: AttrSet) -> Result<Self> {
        let left = left.union(&lhs);
        let right = right.union(&lhs);
        if left.difference(&lhs).is_empty() || right.difference(&lhs).is_empty() {
            return Err(RelationError::EmptyInput(
                "MVD side contains no attribute outside the conditioning set",
            ));
        }
        Ok(Mvd { lhs, left, right })
    }

    /// All attributes mentioned by the MVD (`Ω = left ∪ right`).
    pub fn attributes(&self) -> AttrSet {
        self.left.union(&self.right)
    }

    /// The strict left side `A = left \ lhs`.
    pub fn left_exclusive(&self) -> AttrSet {
        self.left.difference(&self.lhs)
    }

    /// The strict right side `B = right \ lhs`.
    pub fn right_exclusive(&self) -> AttrSet {
        self.right.difference(&self.lhs)
    }

    /// The two-bag schema `{C∪A, C∪B}` induced by the MVD.
    pub fn schema(&self) -> Vec<AttrSet> {
        vec![self.left.clone(), self.right.clone()]
    }

    /// The (two-node) join tree of the MVD.
    pub fn join_tree(&self) -> JoinTree {
        JoinTree::new(self.schema(), vec![(0, 1)])
            .expect("a two-bag schema always admits a join tree")
    }

    /// Size of the two-way join `|R[C∪A] ⋈ R[C∪B]|`.
    ///
    /// Eq. (28) is eq. (1) on the two-bag schema `{C∪A, C∪B}`, so this is
    /// [`count_acyclic_join`] over [`Mvd::join_tree`]: over a caching
    /// [`GroupSource`] the support MVDs of many trees over one relation
    /// share its groupings and land in its join-size tier.
    ///
    /// Sizes beyond `u128` yield [`RelationError::CountOverflow`].
    pub fn join_size<S: GroupSource>(&self, src: &S) -> Result<u128> {
        count_acyclic_join(src, &self.join_tree())
    }

    /// The loss `ρ(R, φ)` of eq. (28): relative number of spurious tuples of
    /// the two-way decomposition, i.e. [`loss_acyclic`] over
    /// [`Mvd::join_tree`].
    ///
    /// The baseline is the number of distinct tuples of `R` projected onto
    /// the MVD's attributes — `|R|` in the paper's setting (a set relation
    /// the MVD fully covers).  The join always contains that projection, so
    /// the loss is never negative, duplicates or not.
    pub fn loss<S: GroupSource>(&self, src: &S) -> Result<f64> {
        loss_acyclic(src, &self.join_tree())
    }

    /// `true` if the MVD holds in `R` (zero spurious tuples: the two-way
    /// join reproduces exactly the distinct tuples of `R` on the MVD's
    /// attributes).
    pub fn holds_in<S: GroupSource>(&self, src: &S) -> Result<bool> {
        let base = src.distinct(&self.attributes())? as u128;
        Ok(self.join_size(src)? == base)
    }
}

impl fmt::Display for Mvd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ->> {} | {}",
            self.lhs,
            self.left_exclusive(),
            self.right_exclusive()
        )
    }
}

/// The support `MVD(T)` of a join tree: one MVD per edge, obtained by
/// splitting the tree at that edge (`φ_{u,v} = χ(u)∩χ(v) ↠ χ(T_u) | χ(T_v)`).
pub fn support(tree: &JoinTree) -> Vec<Mvd> {
    (0..tree.num_edges())
        .map(|e| {
            let sep = tree.separator(e);
            let (left, right) = tree.edge_split(e);
            Mvd::new(sep, left, right)
                .expect("edge split of a valid join tree yields a non-trivial MVD")
        })
        .collect()
}

/// The *ordered* support of a rooted join tree (eq. 9): for each DFS position
/// `i ∈ [2, m]` the MVD `Δᵢ ↠ Ω_{1:i-1} | Ω_{i:m}`.
pub fn ordered_support(rooted: &RootedTree) -> Vec<Mvd> {
    (2..=rooted.num_nodes())
        .map(|i| {
            let delta = rooted.delta(i);
            let left = rooted.prefix_union(i - 1);
            let right = rooted.suffix_union(i);
            Mvd::new(delta, left, right)
                .expect("ordered support of a valid rooted join tree is non-trivial")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajd_relation::{AnalysisContext, AttrId, Relation};

    fn bag(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().copied())
    }

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        let s: Vec<AttrId> = schema.iter().map(|&i| AttrId(i)).collect();
        Relation::from_rows(s, rows).unwrap()
    }

    #[test]
    fn normalisation_includes_lhs_in_both_sides() {
        let m = Mvd::new(bag(&[0]), bag(&[1]), bag(&[2])).unwrap();
        assert_eq!(m.left, bag(&[0, 1]));
        assert_eq!(m.right, bag(&[0, 2]));
        assert_eq!(m.left_exclusive(), bag(&[1]));
        assert_eq!(m.right_exclusive(), bag(&[2]));
        assert_eq!(m.attributes(), bag(&[0, 1, 2]));
    }

    #[test]
    fn trivial_mvd_rejected() {
        assert!(Mvd::new(bag(&[0]), bag(&[0]), bag(&[1])).is_err());
        assert!(Mvd::new(bag(&[0]), AttrSet::empty(), bag(&[1])).is_err());
    }

    #[test]
    fn mvd_holds_in_product_relation() {
        // R = full cross product of B and C conditioned on A (MVD holds).
        let mut rows = Vec::new();
        for a in 0..2u32 {
            for b in 0..3u32 {
                for c in 0..2u32 {
                    rows.push(vec![a, b, c]);
                }
            }
        }
        let r = rel(
            &[0, 1, 2],
            &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        let m = Mvd::new(bag(&[0]), bag(&[1]), bag(&[2])).unwrap();
        assert!(m.holds_in(&r).unwrap());
        assert_eq!(m.loss(&r).unwrap(), 0.0);
    }

    #[test]
    fn mvd_loss_on_bijection_relation() {
        // Example 4.1: loss of {} ->> A|B on the bijection relation is N - 1.
        let n = 7u32;
        let rows: Vec<Vec<u32>> = (0..n).map(|i| vec![i, i]).collect();
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let m = Mvd::new(AttrSet::empty(), bag(&[0]), bag(&[1])).unwrap();
        assert_eq!(m.join_size(&r).unwrap(), (n * n) as u128);
        assert!((m.loss(&r).unwrap() - (n as f64 - 1.0)).abs() < 1e-12);
        assert!(!m.holds_in(&r).unwrap());
    }

    #[test]
    fn cached_join_size_matches_uncached() {
        let r = rel(
            &[0, 1, 2],
            &[
                &[0, 0, 0],
                &[0, 1, 1],
                &[1, 0, 1],
                &[1, 1, 0],
                &[2, 1, 1],
                &[2, 0, 0],
            ],
        );
        let ctx = AnalysisContext::new(&r);
        let mvds = vec![
            Mvd::new(bag(&[0]), bag(&[1]), bag(&[2])).unwrap(),
            Mvd::new(bag(&[1]), bag(&[0]), bag(&[2])).unwrap(),
            Mvd::new(AttrSet::empty(), bag(&[0, 1]), bag(&[2])).unwrap(),
            // Overlapping exclusive sides (shared ⊋ lhs).
            Mvd::new(AttrSet::empty(), bag(&[0, 1]), bag(&[1, 2])).unwrap(),
        ];
        for m in &mvds {
            assert_eq!(
                m.join_size(&ctx).unwrap(),
                m.join_size(&r).unwrap(),
                "context join size disagrees for {m}"
            );
            assert_eq!(m.loss(&ctx).unwrap(), m.loss(&r).unwrap());
        }
        assert!(ctx.stats().hits > 0, "separator groupings must be shared");
    }

    #[test]
    fn loss_of_empty_relation_is_error() {
        let r = Relation::new(vec![AttrId(0), AttrId(1)]).unwrap();
        let m = Mvd::new(AttrSet::empty(), bag(&[0]), bag(&[1])).unwrap();
        assert!(m.loss(&r).is_err());
    }

    #[test]
    fn support_has_one_mvd_per_edge() {
        let t = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
        let s = support(&t);
        assert_eq!(s.len(), 2);
        // Edge {01}-{12}: separator {1}, split {0,1} vs {1,2,3}.
        assert!(s.iter().any(|m| m.lhs == bag(&[1])
            && m.left == bag(&[0, 1])
            && m.right == bag(&[1, 2, 3])
            || m.lhs == bag(&[1]) && m.right == bag(&[0, 1]) && m.left == bag(&[1, 2, 3])));
    }

    #[test]
    fn ordered_support_matches_paper_indexing() {
        let t = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
        let r = t.rooted(0).unwrap();
        let s = ordered_support(&r);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].lhs, bag(&[1]));
        assert_eq!(s[0].left, bag(&[0, 1]));
        assert_eq!(s[0].right, bag(&[1, 2, 3]));
        assert_eq!(s[1].lhs, bag(&[2]));
        assert_eq!(s[1].left, bag(&[0, 1, 2]));
        assert_eq!(s[1].right, bag(&[2, 3]));
    }

    #[test]
    fn ordered_support_covers_all_attributes() {
        let t = JoinTree::star(vec![
            bag(&[0, 1, 2]),
            bag(&[0, 3]),
            bag(&[2, 4]),
            bag(&[1, 5]),
        ])
        .unwrap();
        let r = t.rooted(0).unwrap();
        for m in ordered_support(&r) {
            assert_eq!(m.attributes(), t.attributes());
        }
    }

    #[test]
    fn mvd_join_tree_is_valid() {
        let m = Mvd::new(bag(&[0]), bag(&[1]), bag(&[2])).unwrap();
        let t = m.join_tree();
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.separator(0), bag(&[0]));
    }

    #[test]
    fn display_shows_arrow_notation() {
        let m = Mvd::new(bag(&[0]), bag(&[1]), bag(&[2])).unwrap();
        let s = format!("{m}");
        assert!(s.contains("->>"));
        assert!(s.contains('|'));
    }
}
