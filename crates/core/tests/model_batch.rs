//! Model-checked invariant for the analysis layer: concurrent analyses
//! over one shared cache stay deterministic and compute each key once.
//!
//! Compiled only under `RUSTFLAGS="--cfg ajd_model"` (the CI `model-check`
//! job).  See `docs/CONCURRENCY.md` for how to write and replay these
//! tests.
#![cfg(ajd_model)]

use ajd_core::Analyzer;
use ajd_jointree::JoinTree;
use ajd_relation::{AttrId, AttrSet, Relation};
use ajd_sync::Mutex;

fn sample() -> Relation {
    Relation::from_rows(
        vec![AttrId(0), AttrId(1)],
        &[&[0, 0][..], &[0, 1][..], &[1, 0][..], &[1, 1][..]],
    )
    .unwrap()
}

fn tree() -> JoinTree {
    JoinTree::path(vec![
        AttrSet::singleton(AttrId(0)),
        AttrSet::singleton(AttrId(1)),
    ])
    .unwrap()
}

/// Two virtual threads running the same analysis over one shared analyzer:
/// every interleaving yields identical reports, and the cache computes
/// each distinct key exactly once (single flight end-to-end through the
/// analysis layer, not just the cache in isolation).
#[test]
fn concurrent_analyses_share_one_compute_per_key() {
    let r = sample();
    let t = tree();

    // What a serial run fills (kernel runs and derived fills per cold
    // cache) is what every interleaving must fill.  Both racers ask for
    // the sets in the same order, so the leader of a set has completed
    // every set before it, and the split is the serial one too.
    let serial = Analyzer::new(&r).with_threads(1);
    let expected_report = serial.analyze(&t).expect("analysis succeeds");
    let stats = serial.cache_stats();
    let expected = (stats.misses, stats.derived);
    assert!(expected.0 > 0, "the analysis must exercise the cache");

    let report = ajd_model::Model::new()
        .max_schedules(1_000)
        .preemption_bound(2)
        .explore(|| {
            let batch = Analyzer::new(&r).with_threads(1);
            let spurious = Mutex::new(Vec::new());
            ajd_sync::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        let rep = batch.analyze(&t).expect("analysis succeeds");
                        spurious.lock().push(rep.spurious);
                    });
                }
            });
            let stats = batch.cache_stats();
            assert_eq!(
                (stats.misses, stats.derived),
                expected,
                "a racer recomputed a key the cache should have served"
            );
            let spurious = spurious.lock();
            assert_eq!(spurious.len(), 2);
            assert_eq!(spurious[0], expected_report.spurious);
            assert_eq!(spurious[1], expected_report.spurious);
        });
    assert!(report.violation.is_none(), "{:?}", report.violation);
}
