//! Model-checked invariants of the context's memo tiers: racing cold fills
//! are single-flight, and every racer gets the same bits.
//!
//! Compiled only under `RUSTFLAGS="--cfg ajd_model"` (the CI `model-check`
//! job).  See `docs/CONCURRENCY.md` for how to write and replay these
//! tests.
#![cfg(ajd_model)]

use ajd_core::{Analyzer, EstimateConfig, EstimatedAnalyzer, LiveAnalyzer};
use ajd_jointree::JoinTree;
use ajd_relation::{
    AttrId, AttrSet, GroupKernel, GroupSource, Relation, ShardedStore, ThreadBudget,
};
use ajd_sync::Mutex;
use std::sync::Arc;

/// 16 rows over three attributes: enough for an ε = 2 estimate to plan an
/// 8-row sample instead of falling back.
fn sample() -> Relation {
    let rows: Vec<[u32; 3]> = (0..16u32).map(|i| [i % 4, (i / 2) % 3, i % 5]).collect();
    Relation::from_rows(vec![AttrId(0), AttrId(1), AttrId(2)], &rows).unwrap()
}

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

fn tree() -> JoinTree {
    JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2])]).unwrap()
}

fn config() -> EstimateConfig {
    EstimateConfig::default().with_epsilon(2.0).with_seed(7)
}

/// Two threads race one cold `(seed, n)`: under every interleaving exactly
/// one of them draws and gathers the sample, and both estimates carry the
/// same bits as a serial run.
#[test]
fn racing_estimates_draw_one_sample() {
    let r = sample();
    let t = tree();
    let expected = {
        let serial = Analyzer::new(&r).with_threads(1);
        let est = EstimatedAnalyzer::from_analyzer(&serial, config()).unwrap();
        assert!(!est.is_fallback(), "the model body must sample");
        est.j_measure(&t).unwrap().value.to_bits()
    };
    let report = ajd_model::Model::new()
        .max_schedules(1_000)
        .preemption_bound(2)
        .explore(|| {
            let an = Analyzer::new(&r).with_threads(1);
            let values = Mutex::new(Vec::new());
            ajd_sync::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let est = EstimatedAnalyzer::from_analyzer(&an, config())
                            .expect("estimator builds");
                        let j = est.j_measure(&t).expect("estimate");
                        values.lock().push(j.value.to_bits());
                    });
                }
            });
            let stats = an.cache_stats();
            assert_eq!(stats.sample.misses, 1, "two draws of one sample: {stats:?}");
            assert_eq!(stats.sample.hits, 1);
            assert_eq!(stats.misses, 0, "sampling groups nothing on the source");
            let values = values.lock();
            assert_eq!(values.as_slice(), &[expected, expected]);
        });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(
        report.schedules >= 100,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}

/// Two threads race cold entropy fills of the same sets: under every
/// interleaving each set is one tier miss and one grouping, and both
/// threads read the serial bits.
#[test]
fn racing_entropy_fills_miss_once_per_set() {
    let r = sample();
    let sets = [bag(&[0]), bag(&[0, 1])];
    let expected: Vec<u64> = {
        let serial = Analyzer::new(&r).with_threads(1);
        sets.iter()
            .map(|s| serial.entropy(s).unwrap().to_bits())
            .collect()
    };
    let report = ajd_model::Model::new()
        .max_schedules(1_000)
        .preemption_bound(2)
        .explore(|| {
            let an = Analyzer::new(&r).with_threads(1);
            ajd_sync::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        for (set, bits) in sets.iter().zip(&expected) {
                            assert_eq!(an.entropy(set).unwrap().to_bits(), *bits);
                        }
                    });
                }
            });
            let stats = an.cache_stats();
            assert_eq!(stats.entropy.misses, sets.len() as u64, "{stats:?}");
            assert_eq!(stats.entropy.hits, sets.len() as u64);
            assert_eq!(stats.misses, sets.len() as u64, "one grouping per set");
        });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(
        report.schedules >= 100,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}

/// One thread fills the ids of a set and then reads its entropy while
/// another fills the set's entropy.  The fill reads the id table if it is
/// resident (or seeded) by then and the count table otherwise; under every
/// interleaving both threads read the serial bits and the tier misses once.
/// Returns the context's kernel runs and extensions.
fn entropy_races_its_id_fill(
    an: &Analyzer<impl GroupKernel>,
    y: &AttrSet,
    bits: u64,
) -> (u64, u64) {
    ajd_sync::thread::scope(|s| {
        s.spawn(|| {
            an.group_ids(y).unwrap();
            assert_eq!(an.entropy(y).unwrap().to_bits(), bits);
        });
        s.spawn(|| assert_eq!(an.entropy(y).unwrap().to_bits(), bits));
    });
    let stats = an.cache_stats();
    assert_eq!(
        (stats.entropy.misses, stats.entropy.hits),
        (1, 1),
        "{stats:?}"
    );
    assert_eq!(stats.derived, 0, "{stats:?}");
    (stats.misses, stats.extended)
}

/// Explores `body` under the bounds of the other tier checks.  The id fill
/// runs on the first thread spawned: in that order the bounded search
/// reaches both schedules where its table is resident when the entropy
/// fill looks and schedules where it is not (in the other order, the first
/// 1,000 schedules all read the count table).
fn explore_id_race(body: impl Fn() + Sync) {
    let report = ajd_model::Model::new()
        .max_schedules(1_000)
        .preemption_bound(2)
        .explore(body);
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(
        report.schedules >= 100,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}

/// Over a flat relation: the id fill is one grouping, and the entropy
/// fill groups once more only if it read the count table before the ids
/// were resident.
#[test]
fn entropy_fill_racing_its_id_fill_gives_the_serial_bits() {
    let r = sample();
    let y = bag(&[0, 1]);
    let bits = Analyzer::new(&r)
        .with_threads(1)
        .entropy(&y)
        .unwrap()
        .to_bits();
    explore_id_race(|| {
        let an = Analyzer::new(&r).with_threads(1);
        let (misses, extended) = entropy_races_its_id_fill(&an, &y, bits);
        assert!((1..=2).contains(&misses), "{misses} groupings");
        assert_eq!(extended, 0);
    });
}

/// Over a live relation whose epoch holds the set's id seed: the entropy
/// fill and the id fill meet on the one extension of the seed, so the set
/// is extended once and never grouped.
#[test]
fn entropy_fill_racing_its_seed_extension_gives_the_serial_bits() {
    let r = sample();
    let y = bag(&[0, 1]);
    let bits = Analyzer::new(&r)
        .with_threads(1)
        .entropy(&y)
        .unwrap()
        .to_bits();
    let rows: Vec<&[u32]> = (0..r.len()).map(|i| r.row(i)).collect();
    let shard = |rows: &[&[u32]]| Relation::from_rows(r.schema().to_vec(), rows).unwrap();
    let (first, second) = rows.split_at(10);
    explore_id_race(|| {
        let store = Arc::new(ShardedStore::from_initial_shard(shard(first)).unwrap());
        let live = LiveAnalyzer::with_thread_budget(store, ThreadBudget::serial());
        live.pin().group_ids(&y).unwrap();
        live.append_shard(shard(second)).unwrap();
        let (misses, extended) = entropy_races_its_id_fill(&live.pin(), &y, bits);
        assert_eq!((misses, extended), (0, 1));
    });
}

/// One thread fills the ids of a set while another reads its distinct
/// count.  The count lookup reads the id table when its slot exists by
/// then (resident or in flight) or the set is id-seeded, and fills a count
/// table otherwise.  Under every interleaving the count is the serial one;
/// returns the context's counters.
fn distinct_races_its_id_fill(
    an: &Analyzer<impl GroupKernel>,
    y: &AttrSet,
    groups: usize,
) -> ajd_relation::CacheStats {
    ajd_sync::thread::scope(|s| {
        s.spawn(|| an.group_ids(y).unwrap());
        s.spawn(|| assert_eq!(an.distinct(y).unwrap(), groups));
    });
    let stats = an.cache_stats();
    assert_eq!((stats.derived, stats.group_id_entries), (0, 1), "{stats:?}");
    stats
}

/// Over a flat relation: one kernel run when the count lookup finds the
/// id slot, and a second only in the schedules where the count fill began
/// before the slot existed, which then leave a count table (a count fill
/// keeps no row ids, so the id fill cannot use it).  Both kinds of
/// schedule are explored.
#[test]
fn distinct_fill_racing_its_id_fill_groups_once_per_table() {
    let r = sample();
    let y = bag(&[0, 1]);
    let groups = r.group_ids(&y).unwrap().num_groups();
    let shared = std::sync::atomic::AtomicUsize::new(0);
    let report = ajd_model::Model::new()
        .max_schedules(1_000)
        .preemption_bound(2)
        .explore(|| {
            let an = Analyzer::new(&r).with_threads(1);
            let stats = distinct_races_its_id_fill(&an, &y, groups);
            assert_eq!(stats.extended, 0);
            assert_eq!(
                stats.misses,
                1 + stats.group_count_entries as u64,
                "one kernel run per table: {stats:?}"
            );
            if stats.misses == 1 {
                shared.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    let shared = shared.into_inner();
    assert!(
        shared > 0 && shared < report.schedules,
        "both paths must be explored: {shared} of {} schedules read the ids",
        report.schedules
    );
}

/// Over a live relation whose epoch holds the set's id seed: the count
/// lookup and the id fill meet on the one extension of the seed, so under
/// every interleaving the set is extended once, never grouped, and gets
/// no count table.
#[test]
fn distinct_fill_racing_its_seed_extension_extends_once() {
    let r = sample();
    let y = bag(&[0, 1]);
    let groups = r.group_ids(&y).unwrap().num_groups();
    let rows: Vec<&[u32]> = (0..r.len()).map(|i| r.row(i)).collect();
    let shard = |rows: &[&[u32]]| Relation::from_rows(r.schema().to_vec(), rows).unwrap();
    let (first, second) = rows.split_at(10);
    explore_id_race(|| {
        let store = Arc::new(ShardedStore::from_initial_shard(shard(first)).unwrap());
        let live = LiveAnalyzer::with_thread_budget(store, ThreadBudget::serial());
        live.pin().group_ids(&y).unwrap();
        live.append_shard(shard(second)).unwrap();
        let stats = distinct_races_its_id_fill(&live.pin(), &y, groups);
        assert_eq!(
            (stats.misses, stats.extended, stats.group_count_entries),
            (0, 1, 0),
            "{stats:?}"
        );
    });
}
