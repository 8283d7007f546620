//! Model-checked invariants of the context's memo tiers: racing cold fills
//! are single-flight, and every racer gets the same bits.
//!
//! Compiled only under `RUSTFLAGS="--cfg ajd_model"` (the CI `model-check`
//! job).  See `docs/CONCURRENCY.md` for how to write and replay these
//! tests.
#![cfg(ajd_model)]

use ajd_core::{Analyzer, EstimateConfig, EstimatedAnalyzer};
use ajd_jointree::JoinTree;
use ajd_relation::{AttrId, AttrSet, Relation};
use ajd_sync::Mutex;

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
