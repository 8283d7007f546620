//! Incremental maintenance benchmark: appending one shard to a relation
//! with warm per-shard group tables versus regrouping the world.
//!
//! For each base shard count `k` in {4, 16, 64} a 100k-row relation is
//! sharded, its per-shard tables are warmed for one attribute set, and a
//! fresh batch of `100k / k` rows arrives as shard `k + 1`.  Three
//! medians per `k`:
//!
//! * `full_regroup`     — `group_ids_uncached_with` over all `k + 1`
//!   shards: what every append would cost without the per-shard tier.
//! * `append_one_shard` — clone the warm relation (copy-on-append: the
//!   `k` cached shards are shared by `Arc`), append the batch, group:
//!   `k` cache hits + exactly one new-shard compute + the shard-order
//!   re-merge.  This is the post-append path a `LiveAnalyzer` pays.
//! * `warm_remerge`     — group again with all `k + 1` tables warm: the
//!   steady-state floor (pure `merge_spans`, no grouping at all).
//! * `store_extend`     — a `ShardedStore` whose epoch-`k` context holds
//!   the table appends the batch, and the new epoch's context fills it by
//!   extending that table with the new shard's (one new-shard compute, no
//!   older shard consulted).  Only the fill is timed.
//!
//! Before timing, the incremental results are asserted **bit-identical**
//! to a cold regroup and to the flat grown relation — the cache tier must
//! never change an answer, only its cost.  Results go to
//! `BENCH_incremental.json` (see `ajd_bench::perf`); each incremental
//! record carries the full-regroup median as its baseline, so the JSON
//! tracks the speedup directly.
//! Ratios on shared CI runners are recorded, never gated.

use std::time::{Duration, Instant};

use ajd_bench::{time_median, BenchJson};
use ajd_relation::{
    AttrId, AttrSet, GroupKernel, Relation, ShardedRelation, ShardedStore, ThreadBudget,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const BASE_SHARDS: [usize; 3] = [4, 16, 64];

/// `n` rows over four columns with domain 12 each (the dense kernel).
fn rows(rng: &mut StdRng, n: usize) -> Vec<[u32; 4]> {
    (0..n)
        .map(|_| {
            [
                rng.random_range(0..12),
                rng.random_range(0..12),
                rng.random_range(0..12),
                rng.random_range(0..12),
            ]
        })
        .collect()
}

fn relation_of(rows: &[[u32; 4]]) -> Relation {
    let schema: Vec<AttrId> = (0..4usize).map(AttrId::from).collect();
    let mut r = Relation::with_capacity(schema, rows.len()).unwrap();
    for row in rows {
        r.push_row(row).unwrap();
    }
    r
}

/// Panics unless grouping the grown sharded relation — warm caches or
/// cold from scratch — is bit-identical to the flat grown relation.
fn assert_bit_identical(grown: &ShardedRelation, flat: &Relation, attrs: &AttrSet) {
    let reference = flat.group_ids(attrs).unwrap();
    for budget in [ThreadBudget::serial(), ThreadBudget::default()] {
        let warm = grown.group_ids_with(attrs, budget).unwrap();
        let cold = grown.group_ids_uncached_with(attrs, budget).unwrap();
        for (label, got) in [("warm", &warm), ("cold", &cold)] {
            assert_eq!(
                got.row_ids(),
                reference.row_ids(),
                "{label} row_ids differ at {} shards",
                grown.num_shards()
            );
            assert_eq!(got.counts(), reference.counts());
            assert_eq!(got.group_codes(), reference.group_codes());
        }
    }
}

/// A store at epoch `k` whose context holds the grouping of `attrs`,
/// after appending `batch`: the new epoch's context is seeded with that
/// table.
fn seeded_store(warm: &ShardedRelation, batch: &Relation, attrs: &AttrSet) -> ShardedStore {
    let store = ShardedStore::new(warm.clone());
    store
        .context()
        .group_ids_with(attrs, ThreadBudget::default())
        .unwrap();
    store.append_shard(batch.clone()).unwrap();
    store
}

/// The median of `reps` timings of `fill`, each on a fresh `setup()`
/// outside the clock.
fn median_fill<T>(reps: usize, mut setup: impl FnMut() -> T, mut fill: impl FnMut(&T)) -> Duration {
    let mut samples: Vec<Duration> = (0..reps)
        .map(|_| {
            let input = setup();
            let start = Instant::now();
            fill(&input);
            start.elapsed()
        })
        .collect();
    samples.sort_unstable();
    samples[reps / 2]
}

fn main() {
    let budget = Duration::from_millis(400);
    let n = 100_000usize;
    let attrs = AttrSet::from_ids(0..4u32);
    let kernel_budget = ThreadBudget::default();
    let mut rng = StdRng::seed_from_u64(20230923);
    let mut json = BenchJson::new();

    for &k in &BASE_SHARDS {
        let base_rows = rows(&mut rng, n);
        let batch_rows = rows(&mut rng, n / k);
        let batch = relation_of(&batch_rows);

        // Warm relation: k shards, per-shard tables computed once.
        let warm = relation_of(&base_rows).into_shards(k).unwrap();
        warm.group_ids_with(&attrs, kernel_budget).unwrap();

        // The grown relation (k + 1 shards) and its flat reference.
        let mut grown = warm.clone();
        grown.append_shard(batch.clone()).unwrap();
        let mut flat_rows = base_rows.clone();
        flat_rows.extend_from_slice(&batch_rows);
        assert_bit_identical(&grown, &relation_of(&flat_rows), &attrs);

        let full = time_median(budget, || {
            grown
                .group_ids_uncached_with(&attrs, kernel_budget)
                .unwrap()
        });
        json.record(&format!("incremental/k{k}/full_regroup"), full);

        let append = time_median(budget, || {
            let mut r = warm.clone();
            r.append_shard(batch.clone()).unwrap();
            r.group_ids_with(&attrs, kernel_budget).unwrap()
        });
        json.record_vs_baseline(&format!("incremental/k{k}/append_one_shard"), append, full);

        // Steady state: every table warm, pure shard-order re-merge.
        grown.group_ids_with(&attrs, kernel_budget).unwrap();
        let remerge = time_median(budget, || {
            grown.group_ids_with(&attrs, kernel_budget).unwrap()
        });
        json.record_vs_baseline(&format!("incremental/k{k}/warm_remerge"), remerge, full);

        // The new epoch of a store extends the old epoch's table.
        let store = seeded_store(&warm, &batch, &attrs);
        let ctx = store.context();
        let extended = ctx.group_ids_with(&attrs, kernel_budget).unwrap();
        let reference = relation_of(&flat_rows).group_ids(&attrs).unwrap();
        assert_eq!(extended.row_ids(), reference.row_ids());
        assert_eq!(extended.counts(), reference.counts());
        assert_eq!(extended.group_codes(), reference.group_codes());
        let stats = ctx.stats();
        assert_eq!((stats.extended, stats.misses), (1, 0), "an extension");
        let extend = median_fill(
            15,
            || seeded_store(&warm, &batch, &attrs),
            |store| {
                std::hint::black_box(
                    store
                        .context()
                        .group_ids_with(&attrs, kernel_budget)
                        .unwrap(),
                );
            },
        );
        json.record_vs_baseline(&format!("incremental/k{k}/store_extend"), extend, full);
    }

    json.emit(&BenchJson::default_path("incremental"));
    println!("incremental grouping is bit-identical to a cold regroup at every shard count ✓");
}
