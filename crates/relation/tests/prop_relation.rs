//! Property-based tests of the relational algebra laws that the rest of the
//! workspace relies on.

use ajd_relation::join::natural_join;
use ajd_relation::{AttrId, AttrSet, Relation, Value};
use proptest::prelude::*;

/// Strategy: a relation over `arity` attributes (ids 0..arity) with values
/// in `0..domain`, up to `max_rows` rows (duplicates allowed).
fn relation_strategy(
    arity: usize,
    domain: Value,
    max_rows: usize,
) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0..domain, arity), 0..max_rows).prop_map(
        move |rows| {
            let schema: Vec<AttrId> = (0..arity).map(AttrId::from).collect();
            Relation::from_rows(schema, &rows).expect("generated rows have the right arity")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Projection is idempotent and never increases cardinality.
    #[test]
    fn projection_idempotent_and_shrinking(r in relation_strategy(3, 5, 40)) {
        let attrs = AttrSet::from_ids([0u32, 2]);
        let p = r.project(&attrs).unwrap();
        prop_assert!(p.len() <= r.len());
        prop_assert!(p.is_set());
        let pp = p.project(&attrs).unwrap();
        prop_assert!(pp.set_eq(&p));
    }

    /// Projection onto a subset of a projection equals direct projection.
    #[test]
    fn projection_composes(r in relation_strategy(4, 4, 40)) {
        let big = AttrSet::from_ids([0u32, 1, 3]);
        let small = AttrSet::from_ids([1u32, 3]);
        let via_big = r.project(&big).unwrap().project(&small).unwrap();
        let direct = r.project(&small).unwrap();
        prop_assert!(via_big.set_eq(&direct));
    }

    /// `R ⊆ Π_{AB}(R) ⋈ Π_{BC}(R)` and the join of projections of a *set*
    /// relation is a set.
    #[test]
    fn join_of_projections_contains_original(r in relation_strategy(3, 4, 30)) {
        let r = r.distinct();
        prop_assume!(!r.is_empty());
        let left = r.project(&AttrSet::from_ids([0u32, 1])).unwrap();
        let right = r.project(&AttrSet::from_ids([1u32, 2])).unwrap();
        let joined = natural_join(&left, &right).unwrap();
        prop_assert!(r.is_subset_of(&joined));
        prop_assert!(joined.is_set());
    }

    /// Natural join is commutative up to column order and set equality.
    #[test]
    fn join_commutative(
        a in relation_strategy(2, 4, 25),
        b in relation_strategy(2, 4, 25),
    ) {
        // Rename b's second column so the two relations overlap on attribute 1.
        let b2 = {
            let mut rel = Relation::new(vec![AttrId(1), AttrId(2)]).unwrap();
            for row in b.iter_rows() {
                rel.push_row(row).unwrap();
            }
            rel.distinct()
        };
        let a = a.distinct();
        let ab = natural_join(&a, &b2).unwrap();
        let ba = natural_join(&b2, &a).unwrap();
        prop_assert!(ab.set_eq(&ba));
    }

    /// Canonicalisation is a normal form: set-equal relations canonicalise
    /// identically.
    #[test]
    fn canonicalize_is_a_normal_form(r in relation_strategy(3, 4, 30)) {
        let shuffled = r.reorder_columns(&[AttrId(2), AttrId(0), AttrId(1)]).unwrap();
        let c1 = r.distinct().canonicalize();
        let c2 = shuffled.distinct().canonicalize();
        prop_assert_eq!(c1.schema(), c2.schema());
        prop_assert_eq!(c1.len(), c2.len());
        for (x, y) in c1.iter_rows().zip(c2.iter_rows()) {
            prop_assert_eq!(x, y);
        }
    }

    /// Group counts sum to the relation size and match selection sizes.
    #[test]
    fn group_counts_are_consistent_with_selections(r in relation_strategy(2, 4, 40)) {
        let counts = r.group_counts(&AttrSet::singleton(AttrId(0))).unwrap();
        let total: u64 = counts.iter().map(|(_, c)| c).sum();
        prop_assert_eq!(total, r.len() as u64);
        for (key, c) in counts.iter() {
            let selected = r.select_eq(AttrId(0), key[0]).unwrap();
            prop_assert_eq!(selected.len() as u64, c);
        }
    }
}
