//! Micro-benchmarks of the relational substrate: projection, grouping,
//! pairwise hash join and semijoin, on random relations of realistic sizes.
//!
//! The join records are an ablation: counting the join (`count_natural_join`)
//! against materialising it (`natural_join`), asserted to agree on the size
//! before timing.  Results go to `BENCH_relation.json` (see
//! `ajd_bench::perf`); each `count_only` record carries the materialised
//! median as its baseline.

use std::time::Duration;

use ajd_bench::{time_median, BenchJson};
use ajd_random::generators::random_relation;
use ajd_relation::join::{count_natural_join, natural_join, semijoin};
use ajd_relation::{AttrId, AttrSet, Relation};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn make_relation(n: u64, dims: &[u64], seed: u64) -> Relation {
    let mut rng = StdRng::seed_from_u64(seed);
    random_relation(&mut rng, dims, n).expect("relation fits the domain")
}

fn main() {
    let budget = Duration::from_millis(400);
    let mut json = BenchJson::new();

    for n in [10_000u64, 100_000] {
        let r = make_relation(n, &[64, 64, 64, 64], 1);
        let attrs = AttrSet::from_ids([0u32, 2]);
        let project = time_median(budget, || r.project(&attrs).unwrap());
        json.record(&format!("relation/projection/{n}"), project);
    }

    for n in [10_000u64, 100_000] {
        let r = make_relation(n, &[64, 64, 64, 64], 2);
        let attrs = AttrSet::from_ids([1u32, 3]);
        let group = time_median(budget, || r.group_counts(&attrs).unwrap());
        json.record(&format!("relation/group_counts/{n}"), group);
    }

    for n in [10_000u64, 50_000] {
        // R(X0, X1) and S(X1, X2): join on the shared attribute X1.
        let r = make_relation(n, &[256, 256], 3);
        let s_raw = make_relation(n, &[256, 256], 4);
        let mut s = Relation::new(vec![AttrId(1), AttrId(2)]).unwrap();
        for row in s_raw.iter_rows() {
            s.push_row(row).unwrap();
        }
        assert_eq!(
            natural_join(&r, &s).unwrap().len() as u128,
            count_natural_join(&r, &s).unwrap()
        );
        let materialised = time_median(budget, || natural_join(&r, &s).unwrap());
        let count = time_median(budget, || count_natural_join(&r, &s).unwrap());
        json.record_vs_baseline(
            &format!("relation/natural_join/count_only_{n}"),
            count,
            materialised,
        );
    }

    let n = 50_000u64;
    let r = make_relation(n, &[512, 512], 5);
    let s = make_relation(n / 4, &[512, 512], 6);
    let semi = time_median(budget, || semijoin(&r, &s).unwrap());
    json.record("relation/semijoin/semijoin_50k", semi);

    json.emit(&BenchJson::default_path("relation"));
}
