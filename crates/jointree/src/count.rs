//! Acyclic join sizes and loss via message passing.
//!
//! Computing the loss `ρ(R,S) = (|⋈ᵢ R[Ωᵢ]| − |R|)/|R|` (eq. 1) requires the
//! cardinality of the acyclic join of all bag projections.  Materialising
//! that join is exponential in the worst case (e.g. Example 4.1 produces
//! `N²` tuples from `N`), but its *size* can be computed in time roughly
//! linear in the sizes of the projections by dynamic programming over the
//! join tree — the counting variant of Yannakakis' algorithm:
//!
//! 1. group `R` by every bag and every edge separator (dense interned ids
//!    from the columnar kernel — see [`ajd_relation::GroupIds`]);
//! 2. process nodes bottom-up (children before parents); each node assigns
//!    every distinct bag tuple a weight equal to the product of the counts
//!    its children report for the tuple's separator group;
//! 3. each node sends its parent a flat `Vec<u128>` message indexed by the
//!    separator's group ids;
//! 4. the total at the root is `|⋈ᵢ R[Ωᵢ]|`.
//!
//! Because every projection originates from the same relation `R`, no
//! semijoin reduction is needed: every partial assignment extends to at
//! least one full join result.
//!
//! Counts are accumulated in `u128` with **checked** arithmetic: already
//! for ten attributes with domain size 100 the cross-product join exceeds
//! `u64`, and a join beyond `u128` must fail loudly
//! ([`RelationError::CountOverflow`]) rather than clamp — a saturated count
//! would silently report a wrong loss `ρ`.
//!
//! Every function is generic over [`GroupSource`]: pass `&Relation` for a
//! self-contained one-shot computation, or a shared source (an
//! `AnalysisContext`, via `ajd_core::Analyzer`) so the groupings — which a
//! discovery sweep shares across many trees — are memoized.

use crate::tree::JoinTree;
use ajd_relation::join::natural_join_all;
use ajd_relation::{AttrSet, GroupSource, Relation, RelationError, Result};

/// Error for a join size that exceeds `u128`.
const OVERFLOW: RelationError = RelationError::CountOverflow("acyclic join size exceeds u128");

fn check_tree_covered(relation_attrs: &AttrSet, tree: &JoinTree) -> Result<()> {
    let tree_attrs = tree.attributes();
    if !tree_attrs.is_subset_of(relation_attrs) {
        return Err(RelationError::SchemaMismatch {
            detail: format!(
                "join tree attributes {tree_attrs} are not covered by the relation schema"
            ),
        });
    }
    Ok(())
}

/// Computes `|⋈ᵢ R[Ωᵢ]|` for the bags `Ωᵢ` of the join tree, without
/// materialising the join.
///
/// Runs the bottom-up dynamic program on **interned group ids**: each bag's
/// distinct projection tuples are the source's [`ajd_relation::GroupIds`]
/// groups, and the message a node sends its parent is a dense `Vec<u128>`
/// indexed by the separator's group ids — no per-tuple hashing, no key
/// allocation.  The id mappings (bag group → separator group) are recovered
/// from the per-row id vectors in one linear pass per edge.
///
/// Returns [`RelationError::CountOverflow`] if the exact join size exceeds
/// `u128`.
///
/// A memoizing source answers from its join-size tier (see
/// [`GroupSource::memo_join_size`]), keyed by the schema: the join size
/// does not depend on which join tree of the schema is counted over.
pub fn count_acyclic_join<S: GroupSource>(src: &S, tree: &JoinTree) -> Result<u128> {
    check_tree_covered(&src.attrs(), tree)?;
    src.memo_join_size(tree.bags(), &|| count_over_tree(src, tree))
}

/// The message-passing count of [`count_acyclic_join`] over `tree`.
fn count_over_tree<S: GroupSource>(src: &S, tree: &JoinTree) -> Result<u128> {
    let bag_ids: Vec<_> = tree
        .bags()
        .iter()
        .map(|b| src.group_ids(b))
        .collect::<Result<_>>()?;

    let rooted = tree.rooted(0)?;
    let order = rooted.order().to_vec();
    let m = order.len();

    // One separator grouping per edge, shared by the two endpoints (fetched
    // once so the uncached path does not group each separator twice).
    let sep_ids: Vec<_> = (0..tree.num_edges())
        .map(|e| src.group_ids(&tree.separator(e)))
        .collect::<Result<_>>()?;
    // The edge connecting `node` to its parent, if any.
    let edge_of = |u: usize, v: usize| -> usize {
        tree.edges()
            .iter()
            .position(|&(a, b)| (a, b) == (u, v) || (a, b) == (v, u))
            .expect("parent links follow tree edges")
    };

    // Message from each node to its parent: weight per separator group id.
    let mut messages: Vec<Option<Vec<u128>>> = vec![None; m];

    for &node in order.iter().rev() {
        let groups = bag_ids[node].num_groups();
        let children: Vec<usize> = (0..m)
            .filter(|&v| rooted.parent_of(v) == Some(node))
            .collect();

        // Weight of each distinct bag tuple: product of the children's
        // messages at the tuple's separator values.
        let mut weights: Vec<u128> = vec![1; groups];
        for &c in &children {
            let map = bag_ids[node].map_to(&sep_ids[edge_of(node, c)]);
            let msg = messages[c]
                .take()
                .expect("children are processed before parents");
            for (g, w) in weights.iter_mut().enumerate() {
                *w = w.checked_mul(msg[map[g] as usize]).ok_or(OVERFLOW)?;
            }
        }

        match rooted.parent_of(node) {
            Some(p) => {
                let sep = &sep_ids[edge_of(node, p)];
                let map = bag_ids[node].map_to(sep);
                let mut outgoing: Vec<u128> = vec![0; sep.num_groups()];
                for (g, &w) in weights.iter().enumerate() {
                    let slot = &mut outgoing[map[g] as usize];
                    *slot = slot.checked_add(w).ok_or(OVERFLOW)?;
                }
                messages[node] = Some(outgoing);
            }
            None => {
                let mut total: u128 = 0;
                for &w in &weights {
                    total = total.checked_add(w).ok_or(OVERFLOW)?;
                }
                return Ok(total);
            }
        }
    }
    unreachable!("the root is always processed last and returns")
}

/// The loss `ρ(R, S)` of eq. (1) for the acyclic schema defined by `tree`,
/// computed exactly via [`count_acyclic_join`].
///
/// The baseline is the number of distinct tuples of `R` projected onto the
/// tree's attributes — for a set relation whose attributes the tree covers
/// exactly (the paper's setting) this is `|R|`.  Bag projections are
/// set-semantic, so the join always contains that projection and the loss
/// is never negative, duplicates or not.
pub fn loss_acyclic<S: GroupSource>(src: &S, tree: &JoinTree) -> Result<f64> {
    if src.is_empty() {
        return Err(RelationError::EmptyInput("relation for loss computation"));
    }
    let join_size = count_acyclic_join(src, tree)? as f64;
    let base = src.group_counts(&tree.attributes())?.num_groups() as f64;
    Ok((join_size - base) / base)
}

/// Materialises the acyclic join `⋈ᵢ R[Ωᵢ]` by joining the bag projections
/// along a depth-first traversal of the tree (a join order that never
/// produces dangling intermediate tuples).
///
/// Use [`count_acyclic_join`] when only the size is needed; the materialised
/// join can be exponentially larger than `R`.
pub fn acyclic_join(r: &Relation, tree: &JoinTree) -> Result<Relation> {
    let rooted = tree.rooted(0)?;
    let ordered: Vec<Relation> = rooted
        .order()
        .iter()
        .map(|&u| r.project(&tree.bags()[u]))
        .collect::<Result<_>>()?;
    natural_join_all(&ordered)
}

/// Reference implementation of the loss (eq. 1) that fully materialises the
/// join; used to validate [`loss_acyclic`] in tests and as the ablation
/// baseline in benchmarks.  Uses the same distinct-tuple baseline as
/// [`loss_acyclic`]; delegates to [`ajd_relation::join::loss_materialized`].
pub fn loss_materialized(r: &Relation, schema: &[AttrSet]) -> Result<f64> {
    ajd_relation::join::loss_materialized(r, schema)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajd_relation::join::natural_join;
    use ajd_relation::{AnalysisContext, AttrId};

    fn bag(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().copied())
    }

    fn rel(schema: &[u32], rows: &[&[u32]]) -> Relation {
        let s: Vec<AttrId> = schema.iter().map(|&i| AttrId(i)).collect();
        Relation::from_rows(s, rows).unwrap()
    }

    fn random_like_relation() -> Relation {
        // A fixed, irregular relation over 4 attributes.
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
            ],
        )
    }

    #[test]
    fn single_bag_tree_counts_projection() {
        let r = random_like_relation();
        let t = JoinTree::new(vec![bag(&[0, 1, 2, 3])], vec![]).unwrap();
        assert_eq!(count_acyclic_join(&r, &t).unwrap(), r.len() as u128);
        assert_eq!(loss_acyclic(&r, &t).unwrap(), 0.0);
    }

    #[test]
    fn bijection_relation_cross_product_count() {
        // Example 4.1: schema {{A},{B}} over the bijection relation.
        let n = 11u32;
        let rows: Vec<Vec<u32>> = (0..n).map(|i| vec![i, i]).collect();
        let r = rel(&[0, 1], &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let t = JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).unwrap();
        assert_eq!(
            count_acyclic_join(&r, &t).unwrap(),
            (n as u128) * (n as u128)
        );
        let rho = loss_acyclic(&r, &t).unwrap();
        assert!((rho - (n as f64 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn count_matches_materialised_join_on_path_tree() {
        let r = random_like_relation();
        let t = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
        let counted = count_acyclic_join(&r, &t).unwrap();
        let materialised = acyclic_join(&r, &t).unwrap();
        assert_eq!(counted, materialised.len() as u128);
        assert!(r.is_subset_of(&materialised));
        let rho_tree = loss_acyclic(&r, &t).unwrap();
        let rho_mat = loss_materialized(&r, &t.schema()).unwrap();
        assert!((rho_tree - rho_mat).abs() < 1e-12);
    }

    #[test]
    fn count_matches_materialised_join_on_star_tree() {
        let r = random_like_relation();
        let t = JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap();
        let counted = count_acyclic_join(&r, &t).unwrap();
        let materialised = acyclic_join(&r, &t).unwrap();
        assert_eq!(counted, materialised.len() as u128);
    }

    #[test]
    fn lossless_decomposition_has_zero_loss() {
        // Build R as the join of two tables sharing attribute 1 -> the MVD holds.
        let left = rel(&[0, 1], &[&[0, 0], &[1, 0], &[2, 1]]);
        let right = rel(&[1, 2], &[&[0, 5], &[0, 6], &[1, 7]]);
        let r = natural_join(&left, &right).unwrap();
        let t = JoinTree::new(vec![bag(&[0, 1]), bag(&[1, 2])], vec![(0, 1)]).unwrap();
        assert_eq!(loss_acyclic(&r, &t).unwrap(), 0.0);
        assert_eq!(count_acyclic_join(&r, &t).unwrap(), r.len() as u128);
    }

    #[test]
    fn join_size_is_never_below_relation_size() {
        let r = random_like_relation();
        for t in [
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
            JoinTree::new(
                vec![bag(&[0]), bag(&[1]), bag(&[2]), bag(&[3])],
                vec![(0, 1), (1, 2), (2, 3)],
            )
            .unwrap(),
        ] {
            let c = count_acyclic_join(&r, &t).unwrap();
            assert!(c >= r.len() as u128);
            assert!(loss_acyclic(&r, &t).unwrap() >= 0.0);
        }
    }

    #[test]
    fn tree_attributes_must_be_subset_of_relation() {
        let r = rel(&[0, 1], &[&[0, 0]]);
        let t = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 7])]).unwrap();
        assert!(count_acyclic_join(&r, &t).is_err());
    }

    #[test]
    fn empty_relation_loss_is_error() {
        let r = Relation::new(vec![AttrId(0), AttrId(1)]).unwrap();
        let t = JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).unwrap();
        assert!(loss_acyclic(&r, &t).is_err());
    }

    #[test]
    fn cached_count_matches_uncached_on_assorted_trees() {
        let r = random_like_relation();
        let ctx = AnalysisContext::new(&r);
        for t in [
            JoinTree::new(vec![bag(&[0, 1, 2, 3])], vec![]).unwrap(),
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
            JoinTree::new(
                vec![bag(&[0]), bag(&[1]), bag(&[2]), bag(&[3])],
                vec![(0, 1), (1, 2), (2, 3)],
            )
            .unwrap(),
            JoinTree::new(vec![bag(&[0, 1, 2]), bag(&[2, 3])], vec![(0, 1)]).unwrap(),
        ] {
            assert_eq!(
                count_acyclic_join(&ctx, &t).unwrap(),
                count_acyclic_join(&r, &t).unwrap(),
                "context and uncached counts disagree for {t}"
            );
            assert_eq!(
                loss_acyclic(&ctx, &t).unwrap(),
                loss_acyclic(&r, &t).unwrap()
            );
        }
        // The sweep above shares all grouping work through the context.
        assert!(ctx.stats().hits > 0);
    }

    #[test]
    fn count_works_when_tree_covers_a_strict_subset() {
        let r = random_like_relation();
        let ctx = AnalysisContext::new(&r);
        let t = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2])]).unwrap();
        assert_eq!(
            count_acyclic_join(&ctx, &t).unwrap(),
            count_acyclic_join(&r, &t).unwrap()
        );
    }

    /// Regression: join sizes beyond `u128` used to saturate silently
    /// (`saturating_mul`), making `loss_acyclic` report a wrong `ρ`; they
    /// must now surface as [`RelationError::CountOverflow`].
    #[test]
    fn count_overflow_is_an_error_not_a_clamp() {
        // 16 singleton bags over a 256-row "bijection" relation: the
        // cross-product join has 256^16 = 2^128 tuples, one past u128::MAX.
        let n = 256u32;
        let arity = 16usize;
        let rows: Vec<Vec<u32>> = (0..n).map(|i| vec![i; arity]).collect();
        let schema: Vec<u32> = (0..arity as u32).collect();
        let r = rel(&schema, &rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        let bags: Vec<AttrSet> = (0..arity as u32).map(|i| bag(&[i])).collect();
        let edges: Vec<(usize, usize)> = (1..arity).map(|i| (i - 1, i)).collect();
        let t = JoinTree::new(bags, edges).unwrap();

        let err = count_acyclic_join(&r, &t).unwrap_err();
        assert!(matches!(err, RelationError::CountOverflow(_)), "{err}");
        let ctx = AnalysisContext::new(&r);
        let err = count_acyclic_join(&ctx, &t).unwrap_err();
        assert!(matches!(err, RelationError::CountOverflow(_)), "{err}");
        assert!(loss_acyclic(&r, &t).is_err());

        // One bag fewer stays within range and is computed exactly.
        let bags: Vec<AttrSet> = (0..15u32).map(|i| bag(&[i])).collect();
        let edges: Vec<(usize, usize)> = (1..15).map(|i| (i - 1, i)).collect();
        let t15 = JoinTree::new(bags, edges).unwrap();
        assert_eq!(
            count_acyclic_join(&r, &t15).unwrap(),
            (n as u128).pow(15),
            "15-bag count must still be exact"
        );
        assert_eq!(count_acyclic_join(&ctx, &t15).unwrap(), (n as u128).pow(15));
    }

    #[test]
    fn deep_tree_count_does_not_overflow_u64_semantics() {
        // 6 singleton bags over a bijection-style relation: exercises the
        // u128 accumulation paths and the path of singleton bags.
        let n = 20u32;
        let rows: Vec<Vec<u32>> = (0..n).map(|i| vec![i; 6]).collect();
        let r = rel(
            &[0, 1, 2, 3, 4, 5],
            &rows.iter().map(Vec::as_slice).collect::<Vec<_>>(),
        );
        let bags: Vec<AttrSet> = (0..6u32).map(|i| bag(&[i])).collect();
        let edges: Vec<(usize, usize)> = (1..6).map(|i| (i - 1, i)).collect();
        let t = JoinTree::new(bags, edges).unwrap();
        assert_eq!(count_acyclic_join(&r, &t).unwrap(), (n as u128).pow(6));
    }
}
