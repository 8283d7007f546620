//! Sharded relation benchmark: shard-local grouping + shard-order merge
//! versus the flat kernel, and a full analysis over sharded input.
//!
//! Three workloads:
//!
//! * `shard_group_dense_100k` — 100k rows, 4 small-domain columns (each
//!   shard groups through the dense mixed-radix kernel) at 1 / 4 / 16 / 64
//!   shards;
//! * `shard_group_hash_100k`  — 100k rows, 4 correlated wide-domain
//!   columns (each shard groups through the packed-`u64` hashing kernel);
//! * `shard_analyze_30k`      — a cold `Analyzer::analyze` over a 30k-row
//!   warehouse-style relation, flat vs 8 shards.
//!
//! A `ShardedRelation` keeps its per-shard group tables, so cold and warm
//! are separate records.  The cold grouping records (`sN`) regroup every
//! shard through `group_ids_uncached_with`; the `sN_warm` records read warm
//! per-shard tables and so time only the shard-order merge.  The cold
//! analysis (`s8`) builds fresh shards in every iteration; `s8_rebuild`
//! times that rebuild alone, and `s8_warm` analyzes over warm shards.
//!
//! Before timing anything the sharded results, cached and uncached, are
//! asserted **bit-identical** to the flat kernel at every shard count and
//! budget — scale never at the cost of the determinism guarantee.  Results
//! go to `BENCH_sharded.json` (see `ajd_bench::perf`); each sharded record
//! carries the flat median as its baseline, so the JSON records the shard
//! overhead/speedup directly.
//!
//! Wall-clock ratios on shared CI runners are recorded, never gated: the
//! point of sharding is the memory model (shard-local buffers, bounded
//! merge state), not single-node speed.

use std::time::Duration;

use ajd_bench::{time_median, BenchJson};
use ajd_core::Analyzer;
use ajd_jointree::JoinTree;
use ajd_relation::{AttrId, AttrSet, Relation, ShardedRelation, ThreadBudget};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const SHARDS: [usize; 4] = [1, 4, 16, 64];

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

/// 100k rows, four independent columns with domain `d` each.
fn dense_relation(n: usize, d: u32) -> Relation {
    let mut rng = StdRng::seed_from_u64(20230618);
    let schema: Vec<AttrId> = (0..4usize).map(AttrId::from).collect();
    let mut r = Relation::with_capacity(schema, n).unwrap();
    for _ in 0..n {
        let row = [
            rng.random_range(0..d),
            rng.random_range(0..d),
            rng.random_range(0..d),
            rng.random_range(0..d),
        ];
        r.push_row(&row).unwrap();
    }
    r
}

/// 100k rows whose four columns are all functions of one hidden key:
/// wide domains force the hashing kernel inside every shard while the
/// group count stays at ~`keys`.
fn correlated_relation(n: usize, keys: u32) -> Relation {
    let mut rng = StdRng::seed_from_u64(97);
    let schema: Vec<AttrId> = (0..4usize).map(AttrId::from).collect();
    let mut r = Relation::with_capacity(schema, n).unwrap();
    for _ in 0..n {
        let k = rng.random_range(0..keys);
        let row = [
            k.wrapping_mul(2_654_435_761),
            k.wrapping_mul(0x9e37_79b9).rotate_left(7),
            k ^ 0x5bd1_e995,
            k.wrapping_add(0x85eb_ca6b).wrapping_mul(3),
        ];
        r.push_row(&row).unwrap();
    }
    r
}

/// A warehouse-style relation (order, product, city, region) for the
/// end-to-end analysis workload.
fn warehouse_relation(n: u32) -> Relation {
    let schema: Vec<AttrId> = (0..4usize).map(AttrId::from).collect();
    let mut r = Relation::with_capacity(schema, n as usize).unwrap();
    let mut x = 0x9e37_79b9u32;
    for o in 0..n {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        r.push_row(&[o, x % 8, (x >> 8) % 12, ((x >> 8) % 12) % 3])
            .unwrap();
    }
    r
}

/// Panics unless the sharded grouping, cached and uncached, is
/// bit-identical to the flat kernel on this exact workload, at every
/// benchmarked shard count and at serial and default budgets.
fn assert_deterministic(flat: &Relation, sharded: &[ShardedRelation], attrs: &AttrSet) {
    let serial = flat.group_ids(attrs).unwrap();
    for s in sharded {
        for budget in [ThreadBudget::serial(), ThreadBudget::default()] {
            let cached = s.group_ids_with(attrs, budget).unwrap();
            let uncached = s.group_ids_uncached_with(attrs, budget).unwrap();
            for got in [cached, uncached] {
                assert_eq!(
                    got.row_ids(),
                    serial.row_ids(),
                    "row_ids differ at {} shards",
                    s.num_shards()
                );
                assert_eq!(got.counts(), serial.counts());
                assert_eq!(got.group_codes(), serial.group_codes());
            }
        }
    }
}

fn main() {
    let budget = Duration::from_millis(400);
    let n = 100_000usize;
    let mut json = BenchJson::new();

    // --- grouping workloads -------------------------------------------------
    let workloads: Vec<(&str, Relation)> = vec![
        ("shard_group_dense_100k", dense_relation(n, 12)),
        ("shard_group_hash_100k", correlated_relation(n, 5000)),
    ];
    let attrs = bag(&[0, 1, 2, 3]);
    let kernel_budget = ThreadBudget::default();
    for (name, flat) in &workloads {
        let sharded: Vec<ShardedRelation> = SHARDS
            .iter()
            .map(|&s| flat.clone().into_shards(s).unwrap())
            .collect();
        // Also warms every per-shard table for the `_warm` records.
        assert_deterministic(flat, &sharded, &attrs);

        let flat_median = time_median(budget, || {
            flat.group_ids_with(&attrs, kernel_budget).unwrap()
        });
        json.record(&format!("sharded/{name}/flat"), flat_median);
        for s in &sharded {
            let shards = s.num_shards();
            let cold = time_median(budget, || {
                s.group_ids_uncached_with(&attrs, kernel_budget).unwrap()
            });
            json.record_vs_baseline(&format!("sharded/{name}/s{shards}"), cold, flat_median);
            let warm = time_median(budget, || s.group_ids_with(&attrs, kernel_budget).unwrap());
            json.record_vs_baseline(&format!("sharded/{name}/s{shards}_warm"), warm, flat_median);
        }
    }

    // --- end-to-end analysis over sharded input -----------------------------
    let wn = 30_000u32;
    let flat = warehouse_relation(wn);
    let sharded = flat.clone().into_shards(8).unwrap();
    let tree = JoinTree::new(vec![bag(&[0, 1, 2]), bag(&[2, 3])], vec![(0, 1)]).unwrap();
    // Reports must agree bit-for-bit before being timed.
    let a = Analyzer::new(&flat).analyze(&tree).unwrap();
    let b = Analyzer::new(&sharded).analyze(&tree).unwrap();
    assert_eq!(a.join_size, b.join_size);
    assert_eq!(a.rho.to_bits(), b.rho.to_bits());
    assert_eq!(a.j_measure.to_bits(), b.j_measure.to_bits());
    assert_eq!(a.kl_nats.to_bits(), b.kl_nats.to_bits());

    let name = format!("sharded/shard_analyze_{}k", wn / 1000);
    let flat_median = time_median(budget, || Analyzer::new(&flat).analyze(&tree).unwrap());
    json.record(&format!("{name}/flat"), flat_median);
    let rebuild = time_median(budget, || flat.clone().into_shards(8).unwrap());
    json.record(&format!("{name}/s8_rebuild"), rebuild);
    let cold = time_median(budget, || {
        let fresh = flat.clone().into_shards(8).unwrap();
        Analyzer::new(&fresh).analyze(&tree).unwrap()
    });
    json.record_vs_baseline(&format!("{name}/s8"), cold, flat_median);
    let warm = time_median(budget, || Analyzer::new(&sharded).analyze(&tree).unwrap());
    json.record_vs_baseline(&format!("{name}/s8_warm"), warm, flat_median);

    json.emit(&BenchJson::default_path("sharded"));
    println!("sharded grouping is bit-identical to the flat kernel at every shard count ✓");
}
