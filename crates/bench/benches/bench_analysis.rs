//! Ablation benchmark: computing the loss `ρ(R,S)` by message-passing over
//! the join tree (`count_acyclic_join`) vs by materialising the acyclic join
//! (`loss_materialized`), plus the cost of a full `Analyzer` report and
//! of a Chow–Liu tree.
//!
//! The counting approach is the reason the library can evaluate losses whose
//! joins would have billions of tuples (e.g. Example 4.1 at large `N`).
//! Before timing, both paths are asserted to find the Example 4.1 loss
//! `ρ = N − 1`.  The miner itself is timed by the repository benchmark's
//! `core.discovery.mine_p50_ms` probe.  Results go to `BENCH_analysis.json`
//! (see `ajd_bench::perf`); each `tree_count` record carries the
//! materialised median as its baseline.

use std::time::Duration;

use ajd_bench::{time_median, BenchJson};
use ajd_core::discovery::{DiscoveryConfig, SchemaMiner};
use ajd_core::Analyzer;
use ajd_jointree::count::loss_acyclic;
use ajd_jointree::{count_acyclic_join, JoinTree};
use ajd_random::generators::{bijection_relation, markov_chain_relation, random_relation};
use ajd_relation::join::loss_materialized;
use ajd_relation::AttrSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

fn main() {
    let budget = Duration::from_millis(400);
    let mut json = BenchJson::new();

    // Example 4.1 relation: the materialised join has N^2 tuples, the
    // counting approach touches only 2N projection tuples.
    let tree = JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).expect("cross schema");
    for n in [256u32, 1024] {
        let r = bijection_relation(n);
        let counted = loss_acyclic(&r, &tree).unwrap();
        assert_eq!(counted.to_bits(), f64::from(n - 1).to_bits());
        assert_eq!(
            counted.to_bits(),
            loss_materialized(&r, &tree.schema()).unwrap().to_bits()
        );
        let count = time_median(budget, || count_acyclic_join(&r, &tree).unwrap());
        let materialised = time_median(budget, || loss_materialized(&r, &tree.schema()).unwrap());
        json.record_vs_baseline(
            &format!("analysis/loss_count_vs_materialise/tree_count_{n}"),
            count,
            materialised,
        );
    }

    let r = random_relation(&mut StdRng::seed_from_u64(7), &[16, 16, 16, 16], 20_000).unwrap();
    let tree = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
    let report = time_median(budget, || Analyzer::new(&r).analyze(&tree).unwrap());
    json.record("analysis/full_report/loss_analysis_20k", report);

    let r = markov_chain_relation(&mut StdRng::seed_from_u64(3), 5, 8, 5_000, 0.2, false).unwrap();
    let miner = SchemaMiner::new(DiscoveryConfig {
        j_threshold: 0.05,
        ..DiscoveryConfig::default()
    });
    let chow_liu = time_median(budget, || miner.chow_liu_tree(&r).unwrap());
    json.record("analysis/discovery/chow_liu_5k", chow_liu);

    json.emit(&BenchJson::default_path("analysis"));
}
