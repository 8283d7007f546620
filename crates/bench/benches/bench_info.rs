//! Micro-benchmarks of the information measures: entropy, conditional mutual
//! information, the J-measure and the KL-divergence of Theorem 3.2.
//!
//! The headline record is the warm KL sum: `Analyzer::kl` over warm
//! interned groupings, against the tuple-level reference
//! (`TreeFactoredDistribution::kl_by_tuples`, which decodes every distinct
//! tuple and scores it through `log_prob` hash lookups) over the same warm
//! cache.  Before timing, the two are asserted bit-identical.  Results go
//! to `BENCH_info.json` (see `ajd_bench::perf`); the KL record carries the
//! reference as its baseline, so the JSON tracks the speedup directly.

use std::time::Duration;

use ajd_bench::{time_median, BenchJson};
use ajd_core::Analyzer;
use ajd_info::{
    conditional_mutual_information, entropy, j_measure, kl_divergence_to_tree,
    TreeFactoredDistribution,
};
use ajd_jointree::JoinTree;
use ajd_random::generators::random_relation;
use ajd_relation::{AttrSet, Relation};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

fn make_relation(n: u64, seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    random_relation(&mut rng, &[32, 32, 32, 32], n).expect("relation fits the domain")
}

fn main() {
    let budget = Duration::from_millis(400);
    let mut json = BenchJson::new();

    for n in [10_000u64, 100_000] {
        let r = make_relation(n, 1);
        let pair = time_median(budget, || entropy(&r, &bag(&[0, 1])).unwrap());
        json.record(&format!("info/entropy/pair_{n}"), pair);
        let full = time_median(budget, || entropy(&r, &bag(&[0, 1, 2, 3])).unwrap());
        json.record(&format!("info/entropy/full_{n}"), full);
    }

    let r = make_relation(100_000, 2);
    let cmi = time_median(budget, || {
        conditional_mutual_information(&r, &bag(&[0]), &bag(&[1]), &bag(&[2])).unwrap()
    });
    json.record("info/conditional_mi/100000", cmi);

    let r = make_relation(50_000, 3);
    let tree = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
    let j = time_median(budget, || j_measure(&r, &tree).unwrap());
    json.record("info/j_measure/50000", j);
    let kl_cold = time_median(budget, || kl_divergence_to_tree(&r, &tree).unwrap());
    json.record("info/kl_to_tree/50000", kl_cold);

    // Warm: one analyzer holds every grouping both sums read.
    let analyzer = Analyzer::new(&r);
    let kl = analyzer.kl_report(&tree).unwrap();
    let factored = TreeFactoredDistribution::new(&analyzer, &tree).unwrap();
    let reference = factored.kl_by_tuples(&analyzer).unwrap();
    assert_eq!(kl.kl_nats.to_bits(), reference.kl_nats.to_bits());
    assert_eq!(kl.support_size, reference.support_size);
    let by_tuples = time_median(budget, || factored.kl_by_tuples(&analyzer).unwrap());
    let by_ids = time_median(budget, || analyzer.kl(&tree).unwrap());
    json.record_vs_baseline("info/kl_warm/50000", by_ids, by_tuples);

    json.emit(&BenchJson::default_path("info"));
}
