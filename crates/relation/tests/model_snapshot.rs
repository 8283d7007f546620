//! Model-checked invariants for the incremental sharding layer: per-shard
//! single-flight group tables, the epoch-snapshot append protocol, which
//! installs each epoch together with its analysis context, and the seeds
//! (and kept key maps) that context inherits from the previous epoch.
//!
//! These tests only compile under `RUSTFLAGS="--cfg ajd_model"`; the CI
//! `model-check` job runs them.  Each body is executed once per explored
//! schedule, so it must be cheap, deterministic, and free of polling loops.
//! See `docs/CONCURRENCY.md` for the memory model and the replay workflow.
#![cfg(ajd_model)]

use ajd_model::Model;
use ajd_relation::{
    AnalysisContext, AttrId, AttrSet, GroupIds, GroupKernel, GroupSource, Relation,
    ShardedRelation, ShardedStore, ThreadBudget,
};
use std::sync::Arc;

fn shard(rows: &[[u32; 2]]) -> Relation {
    let rows: Vec<&[u32]> = rows.iter().map(|r| &r[..]).collect();
    Relation::from_rows(vec![AttrId(0), AttrId(1)], &rows).unwrap()
}

fn two_shards() -> ShardedRelation {
    let mut rel = ShardedRelation::new(vec![AttrId(0), AttrId(1)]).unwrap();
    rel.append_shard(shard(&[[0, 0], [1, 0]])).unwrap();
    rel.append_shard(shard(&[[0, 1]])).unwrap();
    rel
}

/// Two racers grouping one cold attribute set over two shards: under
/// *every* interleaving each `(shard, attribute-set)` table is computed
/// exactly once — the per-shard single-flight slots dedupe the work, and
/// the loser of each slot race is served from the winner's table.
fn per_shard_single_flight_body() {
    let rel = two_shards();
    let y = AttrSet::singleton(AttrId(0));
    ajd_sync::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                // Serial budget: model bodies must not spawn kernel worker
                // threads the scheduler cannot see.
                let g = rel.group_ids_with(&y, ThreadBudget::serial()).unwrap();
                assert_eq!(g.num_groups(), 2);
            });
        }
    });
    let stats = rel.shard_cache_stats();
    assert_eq!(
        stats.misses, 2,
        "exactly one compute per (shard, attrs), got {stats:?}"
    );
    assert_eq!(stats.hits, 2, "each follower answers from the warm table");
    assert_eq!(stats.entries, 2);
}

#[test]
fn cold_shard_tables_are_computed_exactly_once_under_all_interleavings() {
    let report = Model::new()
        .max_schedules(2_000)
        .preemption_bound(2)
        .explore(per_shard_single_flight_body);
    assert!(
        report.violation.is_none(),
        "per-shard single flight violated: {:?}",
        report.violation
    );
    assert!(
        report.schedules >= 100,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}

/// A writer appending the next epoch races a reader pinning a snapshot:
/// under every interleaving the reader observes either epoch 1 (one
/// shard, two rows) or epoch 2 (two shards, three rows) — never a torn
/// mixture — and grouping the pinned snapshot answers for exactly the
/// rows of that epoch.
fn append_vs_reader_body() {
    let store = ShardedStore::from_initial_shard(shard(&[[0, 0], [1, 0]])).unwrap();
    let y = AttrSet::singleton(AttrId(0));
    ajd_sync::thread::scope(|s| {
        s.spawn(|| {
            store.append_shard(shard(&[[2, 1]])).unwrap();
        });
        s.spawn(|| {
            let snap = store.snapshot();
            let (shards, rows, groups) = match snap.epoch() {
                1 => (1, 2, 2),
                2 => (2, 3, 3),
                torn => panic!("torn epoch {torn}"),
            };
            assert_eq!(snap.num_shards(), shards, "epoch {} torn", snap.epoch());
            assert_eq!(snap.len(), rows, "epoch {} torn", snap.epoch());
            let g = snap.group_ids_with(&y, ThreadBudget::serial()).unwrap();
            assert_eq!(g.num_groups(), groups);
            assert_eq!(g.row_ids().len(), rows);
        });
    });
    // Quiescent state: the append always wins eventually.
    assert_eq!(store.epoch(), 2);
    assert_eq!(store.snapshot().len(), 3);
}

#[test]
fn append_racing_a_reader_never_tears_an_epoch() {
    let report = Model::new()
        .max_schedules(2_000)
        .preemption_bound(2)
        .explore(append_vs_reader_body);
    assert!(
        report.violation.is_none(),
        "snapshot protocol violated: {:?}",
        report.violation
    );
    assert!(
        report.schedules >= 100,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}

/// A writer appending the next epoch races a reader taking the store's
/// context: under every interleaving the context's source is epoch 1 or 2
/// — never a context installed over another epoch's rows — and grouping
/// through the context answers for exactly the rows of that epoch.
fn append_vs_context_reader_body() {
    let store = ShardedStore::from_initial_shard(shard(&[[0, 0], [1, 0]])).unwrap();
    let y = AttrSet::singleton(AttrId(0));
    ajd_sync::thread::scope(|s| {
        s.spawn(|| {
            store.append_shard(shard(&[[2, 1]])).unwrap();
        });
        s.spawn(|| {
            let ctx = store.context();
            let epoch = ctx.source().epoch();
            let (rows, ids) = match epoch {
                1 => (2, &[0, 1][..]),
                2 => (3, &[0, 1, 2][..]),
                torn => panic!("context over torn epoch {torn}"),
            };
            assert_eq!(ctx.source().num_shards() as u64, epoch);
            assert_eq!(ctx.num_rows(), rows, "epoch {epoch} torn");
            let g = ctx.group_ids_with(&y, ThreadBudget::serial()).unwrap();
            assert_eq!(g.row_ids(), ids, "epoch {epoch}");
            assert_eq!(ctx.stats().misses, 1);
        });
    });
    let ctx = store.context();
    assert_eq!(ctx.source().epoch(), 2);
    assert_eq!(ctx.num_rows(), 3);
}

#[test]
fn append_racing_a_context_reader_never_mixes_epochs() {
    let report = Model::new()
        .max_schedules(2_000)
        .preemption_bound(2)
        .explore(append_vs_context_reader_body);
    assert!(
        report.violation.is_none(),
        "context install violated: {:?}",
        report.violation
    );
    assert!(
        report.schedules >= 100,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}

/// Two writers appending concurrently: the writer mutex serializes them,
/// so both shards land, epochs advance by exactly one each, and no append
/// is lost regardless of the interleaving.
fn two_writers_body() {
    let store = ShardedStore::from_initial_shard(shard(&[[0, 0]])).unwrap();
    let store = &store;
    ajd_sync::thread::scope(|s| {
        for v in [1u32, 2] {
            s.spawn(move || {
                let snap = store.append_shard(shard(&[[v, v]])).unwrap();
                assert!(snap.epoch() >= 2, "an append must install a new epoch");
            });
        }
    });
    let snap = store.snapshot();
    assert_eq!(snap.epoch(), 3, "two appends, two epoch bumps");
    assert_eq!(snap.num_shards(), 3);
    assert_eq!(snap.len(), 3, "no append may be lost");
    let ctx = store.context();
    assert_eq!(
        ctx.source().epoch(),
        3,
        "the last install carries its context"
    );
    assert_eq!(ctx.source().len(), 3);
}

#[test]
fn concurrent_appends_are_serialized_and_never_lost() {
    let report = Model::new()
        .max_schedules(2_000)
        .preemption_bound(2)
        .explore(two_writers_body);
    assert!(
        report.violation.is_none(),
        "writer serialization violated: {:?}",
        report.violation
    );
    // The writer mutex deliberately collapses most interleavings — that is
    // the property — so the reachable schedule space is small but must
    // still be a genuine exploration, not a single run.
    assert!(
        report.schedules >= 10,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}

/// The flat grouping of a snapshot's rows: what every epoch's fill must
/// equal, whichever path served it.
fn from_scratch(snap: &ShardedRelation, y: &AttrSet) -> (Vec<u32>, Vec<u64>, Vec<u32>) {
    let g = snap.collect().unwrap().group_ids(y).unwrap();
    (
        g.row_ids().to_vec(),
        g.counts().to_vec(),
        g.group_codes().to_vec(),
    )
}

/// A reader pinned at epoch 1 fills a set while the writer seeds epoch 2
/// from epoch 1's context: the seed is taken only from a completed slot
/// (an in-flight fill is not seeded, and epoch 2 then groups from
/// scratch), so epoch 2's fill is exactly one kernel run or one extension,
/// and equals the from-scratch grouping under every interleaving.
fn reader_fill_vs_seeding_writer_body() {
    let store = ShardedStore::from_initial_shard(shard(&[[0, 0], [1, 0]])).unwrap();
    let y = AttrSet::from_slice(&[AttrId(0), AttrId(1)]);
    let pinned = store.context();
    ajd_sync::thread::scope(|s| {
        s.spawn(|| {
            let g = pinned.group_ids_with(&y, ThreadBudget::serial()).unwrap();
            assert_eq!(g.row_ids(), &[0, 1], "the pinned epoch's rows");
        });
        s.spawn(|| {
            store.append_shard(shard(&[[1, 0], [2, 1]])).unwrap();
        });
    });
    let ctx = store.context();
    assert_eq!(ctx.source().epoch(), 2);
    let g = ctx.group_ids_with(&y, ThreadBudget::serial()).unwrap();
    let flat = from_scratch(ctx.source(), &y);
    assert_eq!(
        (
            g.row_ids().to_vec(),
            g.counts().to_vec(),
            g.group_codes().to_vec()
        ),
        flat
    );
    let stats = ctx.stats();
    assert_eq!(
        (stats.misses + stats.extended, stats.derived),
        (1, 0),
        "one fill at epoch 2, got {stats:?}"
    );
}

#[test]
fn seeding_the_next_epoch_never_reads_an_in_flight_fill() {
    let report = Model::new()
        .max_schedules(2_000)
        .preemption_bound(2)
        .explore(reader_fill_vs_seeding_writer_body);
    assert!(
        report.violation.is_none(),
        "epoch seeding violated: {:?}",
        report.violation
    );
    assert!(
        report.schedules >= 100,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}

/// Two readers of epoch 2 race the seeded fill of a set, one asking for
/// its ids and one for its counts: under every interleaving the seed is
/// extended exactly once (single-flight in the id cache, and a count fill
/// waits for the id fill instead of grouping again), the new shard's
/// table is computed once, and both answers match the from-scratch
/// grouping.
fn racing_seeded_fill_body() {
    let store = ShardedStore::from_initial_shard(shard(&[[0, 0], [1, 0]])).unwrap();
    let y = AttrSet::from_slice(&[AttrId(0), AttrId(1)]);
    store
        .context()
        .group_ids_with(&y, ThreadBudget::serial())
        .unwrap();
    store.append_shard(shard(&[[1, 0], [2, 1]])).unwrap();
    let ctx = store.context();
    let before = ctx.source().shard_cache_stats();
    ajd_sync::thread::scope(|s| {
        s.spawn(|| {
            let g = ctx.group_ids_with(&y, ThreadBudget::serial()).unwrap();
            assert_eq!(g.row_ids(), &[0, 1, 1, 2]);
        });
        s.spawn(|| {
            let c = ctx.group_counts_with(&y, ThreadBudget::serial()).unwrap();
            assert_eq!(c.counts(), &[1, 2, 1]);
        });
    });
    let g = ctx.group_ids_with(&y, ThreadBudget::serial()).unwrap();
    let flat = from_scratch(ctx.source(), &y);
    assert_eq!(
        (
            g.row_ids().to_vec(),
            g.counts().to_vec(),
            g.group_codes().to_vec()
        ),
        flat
    );
    let stats = ctx.stats();
    assert_eq!(
        (stats.extended, stats.misses, stats.derived),
        (1, 0, 0),
        "one extension, got {stats:?}"
    );
    let after = ctx.source().shard_cache_stats();
    assert_eq!(after.misses - before.misses, 1, "the new shard, once");
    assert_eq!(after.hits, before.hits, "no old shard is consulted");
}

#[test]
fn racing_readers_extend_a_seed_exactly_once() {
    let report = Model::new()
        .max_schedules(2_000)
        .preemption_bound(2)
        .explore(racing_seeded_fill_body);
    assert!(
        report.violation.is_none(),
        "seeded single flight violated: {:?}",
        report.violation
    );
    assert!(
        report.schedules >= 100,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}

/// Fills `y` in `ctx` under the serial budget.
fn fill_ids(ctx: &AnalysisContext<Arc<ShardedRelation>>, y: &AttrSet) -> Arc<GroupIds> {
    ctx.group_ids_with(y, ThreadBudget::serial()).unwrap()
}

/// Asserts `g` equals the from-scratch grouping of `snap`'s rows.
fn assert_from_scratch(g: &GroupIds, snap: &ShardedRelation, y: &AttrSet) {
    let got = (
        g.row_ids().to_vec(),
        g.counts().to_vec(),
        g.group_codes().to_vec(),
    );
    assert_eq!(got, from_scratch(snap, y), "epoch {}", snap.epoch());
}

/// A store at epoch 3 whose seed of {0,1} is epoch 2's extended table
/// (3 groups) together with the key map that extension kept.
fn store_with_a_kept_map(y: &AttrSet) -> ShardedStore {
    let store = ShardedStore::from_initial_shard(shard(&[[0, 0], [1, 0]])).unwrap();
    fill_ids(&store.context(), y);
    store.append_shard(shard(&[[1, 0], [2, 1]])).unwrap();
    fill_ids(&store.context(), y);
    store.append_shard(shard(&[[3, 1]])).unwrap();
    store
}

/// A reader of epoch 3 extends the seed of a set, which carries its kept
/// key map, while the writer appends epoch 4 and moves the seeds on.  The
/// seeds lock hands the map to exactly one of them: either the fill takes
/// it, hashing only the appended shard's one group, or the writer moves it
/// to epoch 4 with the unconsumed seed, and the fill rebuilds it from the
/// seed's 3 groups.  Under every interleaving both epochs' tables equal
/// the from-scratch grouping, epoch 4 never rebuilds a map, and the
/// extension hashes show no map was used twice (which would read (1, 4))
/// or lost (epoch 4 rebuilding).  No append widens a key, so every map
/// fits.
fn kept_map_vs_next_seeds_body() {
    let y = AttrSet::from_slice(&[AttrId(0), AttrId(1)]);
    let store = store_with_a_kept_map(&y);
    let ctx3 = store.context();
    ajd_sync::thread::scope(|s| {
        s.spawn(|| {
            assert_eq!(fill_ids(&ctx3, &y).row_ids(), &[0, 1, 1, 2, 3]);
        });
        s.spawn(|| {
            store
                .append_shard(shard(&[[0, 0], [3, 0], [2, 0]]))
                .unwrap();
        });
    });
    assert_from_scratch(&fill_ids(&ctx3, &y), ctx3.source(), &y);
    let ctx4 = store.context();
    assert_from_scratch(&fill_ids(&ctx4, &y), ctx4.source(), &y);
    let stats = ctx4.stats();
    let seen = (
        ctx3.extension_hashes(),
        ctx4.extension_hashes(),
        stats.extended,
        stats.misses,
    );
    match seen {
        // The fill took the map; epoch 4 extends its table with the map
        // it kept, or regroups if that table was still in flight.
        (1, 3, 1, 0) | (1, 0, 0, 1) => {}
        // The writer moved the map on: epoch 4 extends epoch 2's table
        // by shards 3 and 4 with it.
        (4, 4, 1, 0) => {}
        other => panic!("a key map was shared or lost: {other:?}"),
    }
}

#[test]
fn a_kept_map_goes_to_one_extension_when_the_fill_races_the_writer() {
    let report = Model::new()
        .max_schedules(2_000)
        .preemption_bound(2)
        .explore(kept_map_vs_next_seeds_body);
    assert!(
        report.violation.is_none(),
        "kept map hand-over violated: {:?}",
        report.violation
    );
    assert!(
        report.schedules >= 100,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}

/// A reader still pinned to epoch 2 reads the table that seeds epoch 3,
/// finding its first rows for `map_to`, while a reader of epoch 3 extends
/// it.  The seed is shared, so epoch 3 copies its row ids (and its first
/// rows, if they are complete) but takes over its kept map: under every
/// interleaving epoch 3 hashes only the appended shard's group, the
/// pinned table is untouched, and both epochs read like from-scratch
/// groupings, `map_to` included.
fn kept_map_vs_pinned_reader_body() {
    let y = AttrSet::from_slice(&[AttrId(0), AttrId(1)]);
    let x = AttrSet::singleton(AttrId(0));
    let store = ShardedStore::from_initial_shard(shard(&[[0, 0], [1, 0]])).unwrap();
    fill_ids(&store.context(), &y);
    store.append_shard(shard(&[[1, 0], [2, 1]])).unwrap();
    let pinned = store.context();
    fill_ids(&pinned, &y);
    fill_ids(&pinned, &x);
    store.append_shard(shard(&[[3, 1]])).unwrap();
    let ctx3 = store.context();
    ajd_sync::thread::scope(|s| {
        s.spawn(|| {
            assert_eq!(fill_ids(&ctx3, &y).row_ids(), &[0, 1, 1, 2, 3]);
        });
        s.spawn(|| {
            let old = fill_ids(&pinned, &y);
            assert_eq!(old.map_to(&fill_ids(&pinned, &x)), &[0, 1, 2]);
            assert_eq!(old.row_ids(), &[0, 1, 1, 2], "the pinned table");
        });
    });
    assert_eq!(ctx3.extension_hashes(), 1, "the kept map was taken over");
    let (fine, coarse) = (fill_ids(&ctx3, &y), fill_ids(&ctx3, &x));
    assert_from_scratch(&fine, ctx3.source(), &y);
    assert_eq!(fine.map_to(&coarse), &[0, 1, 2, 3]);
    assert_from_scratch(&fill_ids(&pinned, &y), pinned.source(), &y);
}

#[test]
fn a_kept_map_is_taken_over_while_a_pinned_reader_holds_the_seed() {
    let report = Model::new()
        .max_schedules(2_000)
        .preemption_bound(2)
        .explore(kept_map_vs_pinned_reader_body);
    assert!(
        report.violation.is_none(),
        "pinned seed extension violated: {:?}",
        report.violation
    );
    assert!(
        report.schedules >= 100,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}
