//! Shared-computation benchmark: the `Analyzer`'s shared cache against the
//! uncached per-tree path.
//!
//! Workload: a discovery-style sweep — one relation, many candidate join
//! trees (a pair-bag path plus all of its single and double edge
//! contractions, the exact shapes a greedy miner scores).  The candidates
//! share most bags and separators, so the shared cache answers most group
//! counts from memory; the uncached baseline re-projects and re-groups the
//! relation for every tree.  Before timing anything, the bench asserts the
//! cached reports are bit-identical to the uncached ones.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

use ajd_core::Analyzer;
use ajd_jointree::JoinTree;
use ajd_random::generators::markov_chain_relation;
use ajd_relation::{AttrSet, Relation};

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

fn bench_discovery_sweep(c: &mut Criterion) {
    let r = workload();
    let trees = sweep_trees();
    assert_cached_matches_uncached(&r, &trees);

    let mut group = c.benchmark_group("context/discovery_sweep");
    group.sample_size(10);
    group.throughput(Throughput::Elements(trees.len() as u64));
    group.bench_function("uncached_per_tree", |b| {
        b.iter(|| {
            trees
                .iter()
                .map(|t| Analyzer::new(&r).analyze(t).unwrap().j_measure)
                .sum::<f64>()
        })
    });
    group.bench_function("cached_sequential", |b| {
        b.iter(|| {
            let batch = Analyzer::new(&r).with_threads(1);
            trees
                .iter()
                .map(|t| batch.analyze(t).unwrap().j_measure)
                .sum::<f64>()
        })
    });
    group.bench_function("cached_parallel", |b| {
        b.iter(|| {
            let batch = Analyzer::new(&r);
            batch
                .analyze_all(&trees)
                .into_iter()
                .map(|rep| rep.unwrap().j_measure)
                .sum::<f64>()
        })
    });
    group.finish();
}

fn bench_single_tree(c: &mut Criterion) {
    let r = workload();
    let tree =
        JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3]), bag(&[3, 4])]).unwrap();

    let mut group = c.benchmark_group("context/single_tree");
    group.sample_size(10);
    group.throughput(Throughput::Elements(r.len() as u64));
    // Cold: a fresh analyzer (empty cache) per analysis.
    group.bench_function("cold_context", |b| {
        b.iter(|| Analyzer::new(&r).analyze(&tree).unwrap())
    });
    // Warm: the context has already seen this tree; everything is a hit.
    let batch = Analyzer::new(&r);
    let _ = batch.analyze(&tree).unwrap();
    group.bench_function("warm_context", |b| b.iter(|| batch.analyze(&tree).unwrap()));
    group.finish();
}

/// Re-times the sweep's headline comparison (shared cache vs per-tree
/// recomputation) with the standalone timer and appends the records to the
/// perf-trajectory JSON (`BENCH_columnar.json`, see `ajd_bench::perf`).
fn record_trajectory(_c: &mut Criterion) {
    use ajd_bench::{time_median, BenchJson};
    use std::time::Duration;

    let r = workload();
    let trees = sweep_trees();
    let budget = Duration::from_millis(400);
    let uncached = time_median(budget, || {
        trees
            .iter()
            .map(|t| Analyzer::new(&r).analyze(t).unwrap().j_measure)
            .sum::<f64>()
    });
    let cached = time_median(budget, || {
        let batch = Analyzer::new(&r).with_threads(1);
        trees
            .iter()
            .map(|t| batch.analyze(t).unwrap().j_measure)
            .sum::<f64>()
    });
    let mut json = BenchJson::new();
    json.record_vs_baseline("context/discovery_sweep_cached", cached, uncached);
    json.emit(&BenchJson::default_path());
}

criterion_group!(
    benches,
    bench_discovery_sweep,
    bench_single_tree,
    record_trajectory
);
criterion_main!(benches);
