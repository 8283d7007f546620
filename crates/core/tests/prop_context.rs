//! Property tests of the shared-computation layer: every measure computed
//! through an [`Analyzer`] / `AnalysisContext` (one tree at a time or
//! fanned out over many) must be **bit-identical** to its uncached
//! `&Relation` counterpart, across random relations (sets and multisets)
//! and assorted join trees.
//!
//! Since the API redesign both paths run the *same* generic function over a
//! different `GroupSource`; these tests pin down that the memoization layer
//! never changes a value.

use ajd_core::Analyzer;
use ajd_info::{
    conditional_mutual_information, entropy, j_measure, j_measure_bounds, kl_divergence_to_tree,
};
use ajd_jointree::mvd::{ordered_support, support};
use ajd_jointree::{count_acyclic_join, JoinTree};
use ajd_random::generators::markov_chain_relation;
use ajd_relation::{AttrId, AttrSet, Relation, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

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

/// The tree shapes of a discovery-style sweep over four attributes.
fn sweep_trees() -> Vec<JoinTree> {
    vec![
        JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
        JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
        JoinTree::new(
            vec![bag(&[0]), bag(&[1]), bag(&[2]), bag(&[3])],
            vec![(0, 1), (1, 2), (2, 3)],
        )
        .unwrap(),
        JoinTree::new(vec![bag(&[0, 1, 2]), bag(&[2, 3])], vec![(0, 1)]).unwrap(),
        JoinTree::new(vec![bag(&[0, 1, 2, 3])], vec![]).unwrap(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Entropies and CMIs served from an analyzer are bit-identical to the
    /// uncached computations, for every attribute subset queried twice.
    #[test]
    fn cached_entropies_and_cmis_are_bit_identical(r in relation_strategy(4, 4, 50)) {
        let analyzer = Analyzer::new(&r);
        let subsets = [
            AttrSet::empty(),
            bag(&[0]),
            bag(&[1, 3]),
            bag(&[0, 1, 2]),
            bag(&[0, 1, 2, 3]),
        ];
        for attrs in &subsets {
            let direct = entropy(&r, attrs).unwrap();
            // Query twice: the second answer comes from the cache.
            let first = analyzer.entropy(attrs).unwrap();
            let second = analyzer.entropy(attrs).unwrap();
            prop_assert_eq!(direct.to_bits(), first.to_bits());
            prop_assert_eq!(direct.to_bits(), second.to_bits());
        }
        for (a, b, c) in [
            (bag(&[0]), bag(&[1]), bag(&[2, 3])),
            (bag(&[0, 1]), bag(&[2]), AttrSet::empty()),
            (bag(&[0]), bag(&[2, 3]), bag(&[1])),
        ] {
            let direct = conditional_mutual_information(&r, &a, &b, &c).unwrap();
            let cached = analyzer.cmi(&a, &b, &c).unwrap();
            prop_assert_eq!(direct.to_bits(), cached.to_bits());
        }
        prop_assert!(analyzer.cache_stats().hits > 0);
    }

    /// J, KL, Theorem 2.2 bounds and acyclic join counts agree between the
    /// analyzer and the uncached free functions on every tree of the sweep.
    #[test]
    fn cached_tree_measures_are_bit_identical(r in relation_strategy(4, 3, 40)) {
        let analyzer = Analyzer::new(&r);
        for tree in sweep_trees() {
            prop_assert_eq!(
                count_acyclic_join(&r, &tree).unwrap(),
                analyzer.join_size(&tree).unwrap()
            );
            prop_assert_eq!(
                j_measure(&r, &tree).unwrap().to_bits(),
                analyzer.j_measure(&tree).unwrap().to_bits()
            );
            prop_assert_eq!(
                kl_divergence_to_tree(&r, &tree).unwrap().to_bits(),
                analyzer.kl(&tree).unwrap().to_bits()
            );
            let direct = j_measure_bounds(&r, &tree, 0).unwrap();
            let cached = analyzer.j_measure_bounds(&tree, 0).unwrap();
            prop_assert_eq!(direct.j.to_bits(), cached.j.to_bits());
            prop_assert_eq!(direct.max_cmi.to_bits(), cached.max_cmi.to_bits());
            prop_assert_eq!(direct.sum_cmi.to_bits(), cached.sum_cmi.to_bits());
        }
    }

    /// MVD join sizes and losses agree between the fresh and the cached
    /// evaluation, for both edge supports and ordered supports.
    #[test]
    fn cached_mvd_measures_are_bit_identical(r in relation_strategy(4, 3, 40)) {
        let analyzer = Analyzer::new(&r);
        for tree in sweep_trees() {
            for mvd in support(&tree) {
                prop_assert_eq!(
                    mvd.join_size(&r).unwrap(),
                    analyzer.mvd_join_size(&mvd).unwrap()
                );
                prop_assert_eq!(
                    mvd.loss(&r).unwrap().to_bits(),
                    analyzer.mvd_loss(&mvd).unwrap().to_bits()
                );
            }
            for mvd in ordered_support(&tree.rooted(0).unwrap()) {
                prop_assert_eq!(
                    mvd.join_size(&r).unwrap(),
                    analyzer.mvd_join_size(&mvd).unwrap()
                );
            }
        }
    }

    /// Full loss reports from one `Analyzer::analyze_all` fan-out are
    /// bit-identical to per-tree `Analyzer::analyze` reports — the acceptance property of
    /// the shared-computation engine.  Relations are multisets here
    /// (duplicates allowed), exercising the distinct-count baseline.
    #[test]
    fn batch_reports_are_bit_identical_to_fresh_reports(r in relation_strategy(4, 3, 30)) {
        let trees = sweep_trees();
        let batch = Analyzer::new(&r);
        let batched = batch.analyze_all(&trees);
        for (tree, batched) in trees.iter().zip(&batched) {
            let batched = batched.as_ref().unwrap();
            let fresh = Analyzer::new(&r).analyze(tree).unwrap();
            prop_assert_eq!(fresh.n, batched.n);
            prop_assert_eq!(fresh.distinct_n, batched.distinct_n);
            prop_assert_eq!(fresh.join_size, batched.join_size);
            prop_assert_eq!(fresh.spurious, batched.spurious);
            prop_assert_eq!(fresh.rho.to_bits(), batched.rho.to_bits());
            prop_assert_eq!(fresh.log1p_rho.to_bits(), batched.log1p_rho.to_bits());
            prop_assert_eq!(fresh.j_measure.to_bits(), batched.j_measure.to_bits());
            prop_assert_eq!(fresh.kl_nats.to_bits(), batched.kl_nats.to_bits());
            prop_assert_eq!(fresh.prop51_bound.to_bits(), batched.prop51_bound.to_bits());
            prop_assert_eq!(fresh.per_mvd.len(), batched.per_mvd.len());
            for (a, b) in fresh.per_mvd.iter().zip(&batched.per_mvd) {
                prop_assert_eq!(a.cmi_nats.to_bits(), b.cmi_nats.to_bits());
                prop_assert_eq!(a.rho.to_bits(), b.rho.to_bits());
                prop_assert_eq!(a.log1p_rho.to_bits(), b.log1p_rho.to_bits());
                prop_assert_eq!(a.domain_sizes, b.domain_sizes);
            }
            // Multisets may have join_size < N but never < distinct(R).
            prop_assert!(batched.join_size >= batched.distinct_n as u128);
            prop_assert!(batched.rho >= 0.0);
        }
    }
}

/// A sweep fanned out over worker threads is bit-identical at every thread
/// budget, on a relation large enough for the chunked grouping kernel.
#[test]
fn j_measures_are_bit_identical_at_every_thread_budget() {
    let r =
        markov_chain_relation(&mut StdRng::seed_from_u64(5), 4, 10, 20_000, 0.3, false).unwrap();
    let trees = sweep_trees();
    let j_bits = |threads: usize| -> Vec<u64> {
        Analyzer::new(&r)
            .with_threads(threads)
            .j_measures(&trees)
            .into_iter()
            .map(|j| j.unwrap().to_bits())
            .collect()
    };
    let serial = j_bits(1);
    for threads in [2, 4, 8] {
        assert_eq!(j_bits(threads), serial, "J differs at {threads} threads");
    }
}
