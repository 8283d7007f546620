//! Ablation benchmark of the sampling-without-replacement strategies of the
//! random relation model (Definition 5.2): partial Fisher–Yates vs Floyd vs
//! the automatic strategy selection, plus one Figure 1 relation draw.
//!
//! In the dense regime (half of a small domain) the partial shuffle and the
//! automatic choice carry Floyd's median as their baseline; the sparse
//! regime (a tiny sample from a domain too large to materialise) times
//! Floyd alone.  Results go to `BENCH_sampling.json` (see
//! `ajd_bench::perf`).

use std::time::Duration;

use ajd_bench::{time_median, BenchJson};
use ajd_random::sampling::{floyd, partial_shuffle, sample_distinct};
use ajd_random::RandomRelationModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let budget = Duration::from_millis(400);
    let mut json = BenchJson::new();

    // Sparse regime: tiny sample from a large domain.
    let (domain, n) = (100_000_000u64, 10_000u64);
    let mut rng = StdRng::seed_from_u64(1);
    let sparse = time_median(budget, || floyd(&mut rng, domain, n));
    json.record(&format!("sampling/strategies/floyd_sparse_{n}"), sparse);

    // Dense regime: half of a small domain.
    let (domain, n) = (1_000_000u64, 500_000u64);
    let mut rng = StdRng::seed_from_u64(2);
    let floyd_dense = time_median(budget, || floyd(&mut rng, domain, n));
    json.record(&format!("sampling/strategies/floyd_dense_{n}"), floyd_dense);
    let shuffle = time_median(budget, || partial_shuffle(&mut rng, domain, n));
    json.record_vs_baseline(
        &format!("sampling/strategies/partial_shuffle_dense_{n}"),
        shuffle,
        floyd_dense,
    );
    let mut rng = StdRng::seed_from_u64(3);
    let auto = time_median(budget, || sample_distinct(&mut rng, domain, n).unwrap());
    json.record_vs_baseline(
        &format!("sampling/strategies/auto_dense_{n}"),
        auto,
        floyd_dense,
    );

    // The Figure 1 workload at d = 500: N ~ 227k tuples from a 250k domain.
    let d = 500u64;
    let model = RandomRelationModel::degenerate(d, d).unwrap();
    let n = (d as f64 * d as f64 / 1.1).round() as u64;
    let mut rng = StdRng::seed_from_u64(4);
    let draw = time_median(budget, || model.sample(&mut rng, n).unwrap());
    json.record("sampling/random_relation_model/fig1_point_d500", draw);

    json.emit(&BenchJson::default_path("sampling"));
}
