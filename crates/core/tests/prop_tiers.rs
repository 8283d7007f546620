//! Tests of the context's memo tiers (entropy, join size, sample): every
//! tier-served value is bit-identical to its uncached computation, and the
//! tier counters in `CacheStats` are exact.

use ajd_core::{Analyzer, EstimateConfig, EstimatedAnalyzer};
use ajd_info::entropy_from_counts;
use ajd_jointree::{count_acyclic_join, loss_acyclic, JoinTree};
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
    prop::collection::vec(prop::collection::vec(0..domain, arity), 3..max_rows).prop_map(
        move |rows| {
            let schema: Vec<AttrId> = (0..arity).map(AttrId::from).collect();
            Relation::from_rows(schema, &rows).expect("generated rows have the right arity")
        },
    )
}

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

fn chain(rows: usize) -> Relation {
    markov_chain_relation(&mut StdRng::seed_from_u64(3), 4, 6, rows, 0.3, false).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// H(Y) served by the entropy tier is bit-identical to the one entropy
    /// formula applied to a fresh count table, on flat and sharded
    /// sources, on the filling lookup and on the tier hit after it.
    #[test]
    fn tier_entropies_are_bit_identical_to_the_formula(
        r in relation_strategy(4, 4, 60),
        shards in 1usize..4,
    ) {
        let subsets = [
            AttrSet::empty(),
            bag(&[0]),
            bag(&[1, 3]),
            bag(&[0, 1, 2]),
            bag(&[0, 1, 2, 3]),
        ];
        let sharded = r.clone().into_shards(shards).unwrap();
        let flat_an = Analyzer::new(&r);
        let sharded_an = Analyzer::new(&sharded);
        for attrs in &subsets {
            let expected = entropy_from_counts(&r.group_counts(attrs).unwrap()).to_bits();
            for _ in 0..2 {
                prop_assert_eq!(flat_an.entropy(attrs).unwrap().to_bits(), expected);
                prop_assert_eq!(sharded_an.entropy(attrs).unwrap().to_bits(), expected);
            }
        }
        let n = subsets.len() as u64;
        for stats in [flat_an.cache_stats(), sharded_an.cache_stats()] {
            prop_assert_eq!(stats.entropy.misses, n);
            prop_assert_eq!(stats.entropy.hits, n);
            prop_assert_eq!(stats.entropy.entries, subsets.len());
            // Each fill grouped its set once; each tier hit is a cache hit.
            prop_assert_eq!(stats.misses, n);
            prop_assert_eq!(stats.hits, n);
        }
    }
}

/// A path and a star over the bags {01, 12, 13} are two join trees of one
/// schema: the second tree is a join-size tier hit, and both sizes equal
/// the uncached count.
#[test]
fn two_join_trees_of_one_schema_share_one_join_size_entry() {
    let r = chain(2000);
    let bags = vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[1, 3])];
    let path = JoinTree::path(bags.clone()).unwrap();
    let star = JoinTree::star(bags).unwrap();
    assert_ne!(path.edges(), star.edges(), "two different trees");
    let an = Analyzer::new(&r);
    let from_path = an.join_size(&path).unwrap();
    let from_star = an.join_size(&star).unwrap();
    let stats = an.cache_stats();
    assert_eq!((stats.join_size.misses, stats.join_size.hits), (1, 1));
    assert_eq!(stats.join_size.entries, 1);
    assert_eq!(from_path, count_acyclic_join(&r, &path).unwrap());
    assert_eq!(from_star, count_acyclic_join(&r, &star).unwrap());
    // The loss reads the same entry, bit-identically.
    assert_eq!(
        an.loss(&star).unwrap().to_bits(),
        loss_acyclic(&r, &path).unwrap().to_bits()
    );
    assert_eq!(an.cache_stats().join_size.misses, 1);
}

/// A warm repeat of `j_measure` fills nothing: every entropy term is a tier
/// hit, and no kernel runs.
#[test]
fn warm_repeat_j_measure_is_all_tier_hits() {
    let r = chain(2000);
    let tree = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
    let an = Analyzer::new(&r);
    let cold = an.j_measure(&tree).unwrap();
    let before = an.cache_stats();
    let warm = an.j_measure(&tree).unwrap();
    let after = an.cache_stats();
    assert_eq!(cold.to_bits(), warm.to_bits());
    let terms = (tree.num_nodes() + tree.num_edges() + 1) as u64;
    assert_eq!(after.entropy.misses, before.entropy.misses);
    assert_eq!(after.entropy.hits - before.entropy.hits, terms);
    assert_eq!(after.misses, before.misses);
    assert_eq!(after.hits - before.hits, terms);
}

/// A repeated estimate build reuses the memoized sample: one draw per
/// `(seed, n)`, bit-identical answers.
#[test]
fn repeated_estimates_reuse_the_memoized_sample() {
    let r = chain(20_000);
    let tree = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
    let cfg = EstimateConfig::default().with_epsilon(0.5).with_seed(4);
    let an = Analyzer::new(&r);
    let first = EstimatedAnalyzer::from_analyzer(&an, cfg).unwrap();
    assert!(!first.is_fallback());
    let a = first.j_measure(&tree).unwrap();
    let again = EstimatedAnalyzer::from_analyzer(&an, cfg).unwrap();
    let b = again.j_measure(&tree).unwrap();
    let stats = an.cache_stats();
    assert_eq!((stats.sample.misses, stats.sample.hits), (1, 1));
    assert_eq!(stats.misses, 0, "sampling groups nothing on the source");
    assert_eq!(a.value.to_bits(), b.value.to_bits());
    assert_eq!(a.epsilon.to_bits(), b.epsilon.to_bits());
    // A fresh analyzer draws the same sample.
    let fresh = EstimatedAnalyzer::new(&r, cfg).unwrap();
    let c = fresh.j_measure(&tree).unwrap();
    assert_eq!(a.value.to_bits(), c.value.to_bits());
    assert_eq!(a.sample_rows, c.sample_rows);
}

/// The resident samples hold at most as many rows as the source: a third
/// 8-row sample of a 20-row source evicts the oldest, and re-drawing the
/// evicted one answers bit-identically.
#[test]
fn the_sample_bound_evicts_the_oldest_and_redraws_bit_identically() {
    let r = chain(20);
    let tree = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
    let an = Analyzer::new(&r);
    let estimate = |seed: u64| {
        let cfg = EstimateConfig::default().with_epsilon(2.0).with_seed(seed);
        let ea = EstimatedAnalyzer::from_analyzer(&an, cfg).unwrap();
        assert_eq!(ea.sample_rows(), 8, "ε = 2 plans an 8-row sample");
        ea.j_measure(&tree).unwrap()
    };
    let first = estimate(1);
    estimate(2);
    assert_eq!(an.cache_stats().sample.entries, 2);
    estimate(3);
    let stats = an.cache_stats();
    assert_eq!(stats.sample.misses, 3);
    assert_eq!(
        stats.sample.entries, 2,
        "24 rows > 20: the oldest is evicted"
    );
    let redrawn = estimate(1);
    let stats = an.cache_stats();
    assert_eq!(stats.sample.misses, 4, "seed 1 was evicted and re-drawn");
    assert_eq!(stats.sample.entries, 2);
    assert_eq!(first.value.to_bits(), redrawn.value.to_bits());
    assert_eq!(first.epsilon.to_bits(), redrawn.epsilon.to_bits());
    // Seed 3 stayed resident: a hit.
    estimate(3);
    let stats = an.cache_stats();
    assert_eq!((stats.sample.misses, stats.sample.hits), (4, 1));
}
