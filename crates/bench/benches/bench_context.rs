//! Shared-computation benchmark: the `Analyzer`'s shared cache against the
//! uncached per-tree path.
//!
//! Workload: a discovery-style sweep — one relation, many candidate join
//! trees (a pair-bag path plus all of its single and double edge
//! contractions, the exact shapes a greedy miner scores).  The candidates
//! share most bags and separators, so the shared cache answers most group
//! counts from memory; the uncached baseline re-projects and re-groups the
//! relation for every tree.  Before timing anything, the bench asserts the
//! cached reports are bit-identical to the uncached ones.  A single-tree
//! pair prices a cold against a warm cache.  Results go to
//! `BENCH_context.json` (see `ajd_bench::perf`); each cached record carries
//! its uncached or cold median as the baseline.

use std::time::Duration;

use ajd_bench::{time_median, BenchJson};
use ajd_core::Analyzer;
use ajd_jointree::JoinTree;
use ajd_random::generators::markov_chain_relation;
use ajd_relation::{AttrSet, Relation};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

/// The candidate trees a greedy discovery pass would score over 5
/// attributes: the Chow–Liu-style pair-bag path, every single edge
/// contraction, and every double contraction.
fn sweep_trees() -> Vec<JoinTree> {
    let base =
        JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3]), bag(&[3, 4])]).unwrap();
    let mut trees = vec![base.clone()];
    for e in 0..base.num_edges() {
        let once = base.contract_edge(e).unwrap();
        for e2 in 0..once.num_edges() {
            trees.push(once.contract_edge(e2).unwrap());
        }
        trees.push(once);
    }
    trees.push(
        JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3]), bag(&[0, 4])]).unwrap(),
    );
    trees
}

fn workload() -> Relation {
    markov_chain_relation(&mut StdRng::seed_from_u64(42), 5, 10, 10_000, 0.25, false).unwrap()
}

/// Panics if the shared-cache reports differ from the per-tree reports in
/// any bit — the correctness contract of the cache, checked on the exact
/// workload being timed.
fn assert_cached_matches_uncached(r: &Relation, trees: &[JoinTree]) {
    let batch = Analyzer::new(r);
    for (tree, cached) in trees.iter().zip(batch.analyze_all(trees)) {
        let cached = cached.expect("batch analysis succeeds");
        let fresh = Analyzer::new(r).analyze(tree).unwrap();
        assert_eq!(fresh.join_size, cached.join_size);
        assert_eq!(fresh.rho.to_bits(), cached.rho.to_bits());
        assert_eq!(fresh.j_measure.to_bits(), cached.j_measure.to_bits());
        assert_eq!(fresh.kl_nats.to_bits(), cached.kl_nats.to_bits());
    }
}

fn main() {
    let r = workload();
    let trees = sweep_trees();
    assert_cached_matches_uncached(&r, &trees);

    let budget = Duration::from_millis(400);
    let mut json = BenchJson::new();
    let uncached = time_median(budget, || {
        trees
            .iter()
            .map(|t| Analyzer::new(&r).analyze(t).unwrap().j_measure)
            .sum::<f64>()
    });
    json.record("context/discovery_sweep_uncached", uncached);
    let cached = time_median(budget, || {
        let batch = Analyzer::new(&r).with_threads(1);
        trees
            .iter()
            .map(|t| batch.analyze(t).unwrap().j_measure)
            .sum::<f64>()
    });
    json.record_vs_baseline("context/discovery_sweep_cached", cached, uncached);
    let parallel = time_median(budget, || {
        Analyzer::new(&r)
            .analyze_all(&trees)
            .into_iter()
            .map(|rep| rep.unwrap().j_measure)
            .sum::<f64>()
    });
    json.record_vs_baseline(
        "context/discovery_sweep_cached_parallel",
        parallel,
        uncached,
    );

    // One tree: a fresh analyzer (empty cache) per analysis, against an
    // analyzer that has already seen the tree (every lookup a hit).
    let tree = &trees[0];
    let cold = time_median(budget, || Analyzer::new(&r).analyze(tree).unwrap());
    json.record("context/single_tree/cold_context", cold);
    let analyzer = Analyzer::new(&r);
    analyzer.analyze(tree).unwrap();
    let warm = time_median(budget, || analyzer.analyze(tree).unwrap());
    json.record_vs_baseline("context/single_tree/warm_context", warm, cold);

    json.emit(&BenchJson::default_path("context"));
}
