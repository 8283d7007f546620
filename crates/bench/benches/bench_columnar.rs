//! Columnar grouping benchmark: the dictionary-encoded grouping kernel
//! against the seed's row-hashing `group_counts`, on a 100k-row synthetic
//! relation.
//!
//! The baseline reimplements exactly what the seed did per grouped row:
//! gather the projected values into a buffer, box it, and hash it into a
//! `FxHashMap<Box<[Value]>, u64>` — one heap allocation and one wide hash
//! per row.  The columnar kernel instead reads the per-column dictionary
//! codes and either counts into a dense mixed-radix table (no hashing) or
//! hashes one packed `u64` per row.
//!
//! Results go to `BENCH_columnar.json` (see `ajd_bench::perf`); the
//! bench-smoke workflow uploads that file on every run.

use std::time::Duration;

use ajd_bench::{time_median, BenchJson};
use ajd_random::generators::random_relation;
use ajd_relation::hash::{map_with_capacity, FxHashMap};
use ajd_relation::{AttrSet, Relation, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The seed's row-hashing group counting, verbatim semantics: box every
/// projected row and hash it.
fn group_counts_rowhash(r: &Relation, attrs: &AttrSet) -> FxHashMap<Box<[Value]>, u64> {
    let positions = r.attr_positions(attrs).expect("attrs are in the schema");
    let mut counts: FxHashMap<Box<[Value]>, u64> = map_with_capacity(r.len().min(1 << 20));
    let mut buf: Vec<Value> = vec![0; positions.len()];
    for row in r.iter_rows() {
        for (k, &p) in positions.iter().enumerate() {
            buf[k] = row[p];
        }
        *counts.entry(buf.clone().into_boxed_slice()).or_insert(0) += 1;
    }
    counts
}

/// Panics unless the columnar counts equal the row-hashing baseline's — the
/// correctness contract, checked on the exact workload being timed.
fn assert_equivalent(r: &Relation, attrs: &AttrSet) {
    let columnar = r.group_counts(attrs).expect("grouping succeeds");
    let baseline = group_counts_rowhash(r, attrs);
    assert_eq!(columnar.num_groups(), baseline.len());
    for (key, count) in columnar.iter() {
        assert_eq!(
            baseline.get(key).copied().unwrap_or(0),
            count,
            "key {key:?}"
        );
    }
}

fn main() {
    let budget = Duration::from_millis(400);
    let n = 100_000u64;
    let mut rng = StdRng::seed_from_u64(20230618);
    let r = random_relation(&mut rng, &[64, 64, 64, 64], n).expect("domain is large enough");

    let workloads: Vec<(&str, AttrSet)> = vec![
        ("pair", AttrSet::from_ids([1u32, 3])),
        ("triple", AttrSet::from_ids([0u32, 1, 2])),
        ("all4", AttrSet::from_ids([0u32, 1, 2, 3])),
    ];

    let mut json = BenchJson::new();
    for (name, attrs) in &workloads {
        assert_equivalent(&r, attrs);
        let columnar = time_median(budget, || r.group_counts(attrs).unwrap());
        let rowhash = time_median(budget, || group_counts_rowhash(&r, attrs));
        json.record_vs_baseline(&format!("group_counts/{name}_100k"), columnar, rowhash);
    }

    // Projection rides on the same kernel; record it for the trajectory too.
    let proj_attrs = AttrSet::from_ids([0u32, 2]);
    let columnar_proj = time_median(budget, || r.project(&proj_attrs).unwrap());
    json.record("project/pair_100k", columnar_proj);

    json.emit(&BenchJson::default_path("columnar"));

    let min_speedup = json
        .records()
        .iter()
        .filter_map(|rec| rec.speedup())
        .fold(f64::INFINITY, f64::min);
    println!("minimum grouping speedup over the seed baseline: {min_speedup:.2}x");
    assert!(
        min_speedup >= 2.0,
        "columnar grouping must be at least 2x the seed's row-hashing path, got {min_speedup:.2}x"
    );
}
