//! Property-based tests of the acyclic-schema machinery: GYO against the
//! running intersection property, supports, and join-size counting (of
//! join trees and of MVDs) against the materialised join.

use ajd_jointree::mvd::{ordered_support, support, Mvd};
use ajd_jointree::{acyclic_join, count_acyclic_join, gyo_reduction, JoinTree};
use ajd_relation::join::{decompose, loss_materialized, natural_join_all};
use ajd_relation::{AttrId, AttrSet, Relation, Value};
use proptest::prelude::*;

fn bag_of(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

/// Strategy: a random tree over `n` attribute-nodes given as a parent
/// pointer for each node > 0; the bags are the edges `{Xᵢ, X_parent(i)}`.
/// Such a schema is always acyclic, so GYO must accept it.
fn tree_edge_schema(n: usize) -> impl Strategy<Value = Vec<AttrSet>> {
    prop::collection::vec(0usize..n, n - 1).prop_map(move |parents| {
        (1..n)
            .map(|i| {
                let p = parents[i - 1] % i; // parent strictly before i
                bag_of(&[i as u32, p as u32])
            })
            .collect()
    })
}

/// Strategy: a relation over `arity` attributes.
fn relation_strategy(
    arity: usize,
    domain: Value,
    max_rows: usize,
) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0..domain, arity), 1..max_rows).prop_map(
        move |rows| {
            let schema: Vec<AttrId> = (0..arity).map(AttrId::from).collect();
            Relation::from_rows(schema, &rows)
                .expect("generated rows have the right arity")
                .distinct()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every edge-set of a tree over attributes forms an acyclic schema, and
    /// the join tree GYO builds for it satisfies the running intersection
    /// property, covers all attributes, and has one bag per input edge.
    #[test]
    fn gyo_accepts_tree_edge_schemas(bags in tree_edge_schema(6)) {
        let out = gyo_reduction(&bags);
        prop_assert!(out.is_acyclic());
        let tree = out.into_tree().unwrap();
        prop_assert!(tree.check_running_intersection());
        prop_assert_eq!(tree.num_nodes(), bags.len());
        let all: AttrSet = bags.iter().fold(AttrSet::empty(), |acc, b| acc.union(b));
        prop_assert_eq!(tree.attributes(), all);
    }

    /// Adding an edge that closes a cycle over singleton overlaps makes the
    /// schema cyclic (GYO rejects it) unless some bag covers the cycle.
    #[test]
    fn gyo_rejects_simple_cycles(k in 3usize..7) {
        let mut bags: Vec<AttrSet> = (0..k)
            .map(|i| bag_of(&[i as u32, ((i + 1) % k) as u32]))
            .collect();
        prop_assert!(!gyo_reduction(&bags).is_acyclic());
        // Covering the whole cycle with one big bag restores acyclicity.
        bags.push(bag_of(&(0..k as u32).collect::<Vec<_>>()));
        prop_assert!(gyo_reduction(&bags).is_acyclic());
    }

    /// Supports: the edge-split MVDs of a join tree partition the attribute
    /// set (their two sides cover everything and intersect exactly in the
    /// separator), and the ordered support has m-1 entries for every root.
    #[test]
    fn support_structure(bags in tree_edge_schema(6)) {
        let tree = JoinTree::from_acyclic_schema(&bags).unwrap();
        for mvd in support(&tree) {
            prop_assert_eq!(mvd.attributes(), tree.attributes());
            prop_assert_eq!(mvd.left.intersection(&mvd.right), mvd.lhs.clone());
        }
        for root in 0..tree.num_nodes() {
            let rooted = tree.rooted(root).unwrap();
            let ord = ordered_support(&rooted);
            prop_assert_eq!(ord.len(), tree.num_nodes() - 1);
            for mvd in ord {
                prop_assert_eq!(mvd.attributes(), tree.attributes());
            }
        }
    }

    /// The rooted view is consistent for every root: Δᵢ equals the
    /// intersection of the bag with the union of all earlier bags
    /// (running intersection property, Section 2.3).
    #[test]
    fn rooted_delta_equals_prefix_intersection(bags in tree_edge_schema(7)) {
        let tree = JoinTree::from_acyclic_schema(&bags).unwrap();
        for root in 0..tree.num_nodes() {
            let rooted = tree.rooted(root).unwrap();
            for i in 2..=rooted.num_nodes() {
                let delta = rooted.delta(i);
                let prefix = rooted.prefix_union(i - 1);
                let bag_i = rooted.bag_at(i).clone();
                prop_assert_eq!(delta, prefix.intersection(&bag_i));
            }
        }
    }

    /// Join-size counting equals the materialised acyclic join for random
    /// relations over random tree-shaped schemas on 4 attributes.
    #[test]
    fn counting_matches_materialisation(
        bags in tree_edge_schema(4),
        r in relation_strategy(4, 4, 40),
    ) {
        let tree = JoinTree::from_acyclic_schema(&bags).unwrap();
        let counted = count_acyclic_join(&r, &tree).unwrap();
        let materialised = acyclic_join(&r, &tree).unwrap();
        prop_assert_eq!(counted, materialised.len() as u128);
        prop_assert!(counted >= r.project(&tree.attributes()).unwrap().len() as u128);
    }

    /// Join-size counting on **multiset** relations (duplicates kept) still
    /// matches the materialised join of the set-semantic bag projections —
    /// the observational contract of the columnar grouping kernel.
    #[test]
    fn counting_matches_materialisation_on_multisets(
        bags in tree_edge_schema(4),
        rows in prop::collection::vec(prop::collection::vec(0u32..4, 4), 1..40),
    ) {
        let schema: Vec<AttrId> = (0..4u32).map(AttrId::from).collect();
        // No dedup: duplicates exercise the multiset grouping path.
        let r = Relation::from_rows(schema, &rows).unwrap();
        let tree = JoinTree::from_acyclic_schema(&bags).unwrap();
        let counted = count_acyclic_join(&r, &tree).unwrap();
        let materialised = acyclic_join(&r, &tree).unwrap();
        prop_assert_eq!(counted, materialised.len() as u128);
    }

    /// Contracting any edge of a valid join tree keeps it valid and only
    /// merges the two endpoint bags.
    #[test]
    fn edge_contraction_preserves_validity(bags in tree_edge_schema(6), which in 0usize..5) {
        let tree = JoinTree::from_acyclic_schema(&bags).unwrap();
        prop_assume!(tree.num_edges() > 0);
        let e = which % tree.num_edges();
        let contracted = tree.contract_edge(e).unwrap();
        prop_assert_eq!(contracted.num_nodes(), tree.num_nodes() - 1);
        prop_assert!(contracted.check_running_intersection());
        prop_assert_eq!(contracted.attributes(), tree.attributes());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Eq. (28) against the materialised two-way join: the counted join
    /// size of a random MVD `lhs ↠ left | right` over 4 attributes equals
    /// the size of the natural join of its two projections, and its loss
    /// is bit-equal to the materialised loss.  `set` picks a set or a
    /// multiset relation; the exclusive sides overlap (`shared ⊋ lhs`)
    /// whenever the `left` and `right` masks share an attribute outside
    /// `lhs`.  Trivial MVDs are rejected by [`Mvd::new`] and skipped.
    #[test]
    fn mvd_counting_matches_materialisation(
        masks in prop::array::uniform3(0u32..16),
        rows in prop::collection::vec(prop::collection::vec(0u32..4, 4), 1..40),
        set in 0u8..2,
    ) {
        let of_mask = |m: u32| AttrSet::from_ids((0..4).filter(|i| m >> i & 1 == 1));
        let mvd = Mvd::new(of_mask(masks[0]), of_mask(masks[1]), of_mask(masks[2]));
        prop_assume!(mvd.is_ok());
        let mvd = mvd.unwrap();
        let schema: Vec<AttrId> = (0..4u32).map(AttrId::from).collect();
        let mut r = Relation::from_rows(schema, &rows).unwrap();
        if set == 1 {
            r = r.distinct();
        }
        let joined = natural_join_all(&decompose(&r, &mvd.schema()).unwrap()).unwrap();
        prop_assert_eq!(mvd.join_size(&r).unwrap(), joined.len() as u128);
        prop_assert_eq!(
            mvd.loss(&r).unwrap().to_bits(),
            loss_materialized(&r, &mvd.schema()).unwrap().to_bits()
        );
    }
}
