//! Model-checked invariants for the striped single-flight analysis cache.
//!
//! These tests only compile under `RUSTFLAGS="--cfg ajd_model"`; the CI
//! `model-check` job runs them.  Each body is executed once per explored
//! schedule, so it must be cheap, deterministic, and free of polling loops
//! (a spin loop explores schedules that spin forever and trips the op
//! budget).  See `docs/CONCURRENCY.md` for the memory model and the
//! replay workflow.
#![cfg(ajd_model)]

use ajd_model::{Model, ViolationKind};
use ajd_relation::{
    AnalysisContext, AttrId, AttrSet, GroupCounts, GroupKernel, Relation, ThreadBudget,
};
use std::sync::atomic::{AtomicUsize, Ordering};

fn sample() -> Relation {
    Relation::from_rows(
        vec![AttrId(0), AttrId(1)],
        &[&[0, 0][..], &[0, 1][..], &[1, 0][..]],
    )
    .unwrap()
}

/// Three racers hitting one cold key: under *every* interleaving exactly
/// one of them computes (the single-flight leader) and the other two are
/// served from the slot.
fn single_flight_body() {
    let r = sample();
    // Serial budget on every lookup: model bodies must not spawn kernel
    // worker threads — the scheduler cannot see them, so their
    // interleavings would go unexplored (and they slow every schedule down).
    let ctx = AnalysisContext::new(&r);
    let y = AttrSet::singleton(AttrId(0));
    ajd_sync::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(|| {
                let counts = ctx
                    .group_counts_with(&y, ThreadBudget::serial())
                    .expect("grouping cannot fail");
                assert_eq!(counts.num_groups(), 2);
            });
        }
    });
    let stats = ctx.stats();
    assert_eq!(
        stats.misses, 1,
        "single flight: exactly one compute per cold key, got {stats:?}"
    );
    assert_eq!(
        stats.hits, 2,
        "the two followers must be served from the slot"
    );
    assert_eq!(stats.group_count_entries, 1);
}

#[test]
fn cold_key_is_computed_exactly_once_under_all_interleavings() {
    let report = Model::new()
        .max_schedules(2_000)
        .preemption_bound(2)
        .explore(single_flight_body);
    assert!(
        report.violation.is_none(),
        "single-flight invariant violated: {:?}",
        report.violation
    );
    // The cache involves real lock/atomic traffic, so even the bounded
    // space is rich; make sure the run was a genuine exploration and not
    // a handful of schedules.
    assert!(
        report.schedules >= 100,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}

/// The seeded mutant (single-flight slot removed, check-then-compute
/// against the shard map) must be caught: some interleaving lets two
/// racers both observe the key cold and both run the kernel.
fn mutant_body() {
    let r = sample();
    let ctx = AnalysisContext::new(&r);
    let y = AttrSet::singleton(AttrId(0));
    ajd_sync::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                ctx.mutant_group_counts_no_single_flight(&y, ThreadBudget::serial())
                    .expect("grouping cannot fail");
            });
        }
    });
    assert_eq!(
        ctx.stats().misses,
        1,
        "double compute: the mutant let two racers run the kernel"
    );
}

#[test]
fn removed_single_flight_slot_is_caught_and_replayable() {
    let model = Model::new().max_schedules(20_000).preemption_bound(2);
    let report = model.explore(mutant_body);
    let violation = report
        .violation
        .expect("the explorer must catch the removed single-flight slot");
    assert_eq!(violation.kind, ViolationKind::Panic);
    assert!(
        violation.message.contains("double compute"),
        "unexpected failure: {violation}"
    );
    // The recorded schedule must reproduce the same violation on its own.
    let replayed = model
        .replay(&violation.schedule, mutant_body)
        .expect("recorded schedule must reproduce the violation");
    assert_eq!(replayed.kind, ViolationKind::Panic);
}

/// A warm key is pure cache traffic: no interleaving of readers can
/// recompute it or corrupt the counters.
#[test]
fn warm_key_readers_never_recompute() {
    let report = Model::new()
        .max_schedules(2_000)
        .preemption_bound(2)
        .explore(|| {
            let r = sample();
            let ctx = AnalysisContext::new(&r);
            let y = AttrSet::singleton(AttrId(1));
            ctx.group_counts_with(&y, ThreadBudget::serial()).unwrap(); // warm it on the root thread
            ajd_sync::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| {
                        ctx.group_counts_with(&y, ThreadBudget::serial()).unwrap();
                    });
                }
            });
            let stats = ctx.stats();
            assert_eq!(stats.misses, 1);
            assert_eq!(stats.hits, 2);
        });
    assert!(report.violation.is_none(), "{:?}", report.violation);
}

/// Two count tables are the same table: same groups in the same order, with
/// the same decoded keys, dictionary codes and multiplicities.
fn assert_same_table(a: &GroupCounts, b: &GroupCounts) {
    assert_eq!(a.attrs, b.attrs);
    assert_eq!(a.total, b.total);
    assert_eq!(a.counts(), b.counts());
    for g in 0..a.num_groups() {
        assert_eq!(a.key(g), b.key(g));
        assert_eq!(a.key_codes(g), b.key_codes(g));
    }
}

/// A cold count lookup racing a cold id lookup on the same set.  The count
/// side reads the ids if their slot exists by then (resident or in flight)
/// and groups on its own into a count table otherwise.  Under every
/// interleaving both calls return, the count table is bit-identical to the
/// decoded id table, and the kernel runs twice exactly when a count table
/// was made.  Returns the number of kernel runs.
fn counts_race_ids_body() -> u64 {
    let r = sample();
    let ctx = AnalysisContext::new(&r);
    let y = AttrSet::from_ids([0, 1]);
    let (counts, ids) = ajd_sync::thread::scope(|s| {
        let counts = s.spawn(|| ctx.group_counts_with(&y, ThreadBudget::serial()));
        let ids = s.spawn(|| ctx.group_ids_with(&y, ThreadBudget::serial()));
        (
            counts.join().expect("count lookup returns"),
            ids.join().expect("id lookup returns"),
        )
    });
    let counts = counts.expect("grouping cannot fail");
    let ids = ids.expect("grouping cannot fail");
    assert_same_table(&counts, &r.decode_group_counts(&ids));
    let stats = ctx.stats();
    assert!(
        (1..=2).contains(&stats.misses),
        "kernel ran {} times for two lookups of one set",
        stats.misses
    );
    assert_eq!(stats.hits + stats.misses, 2, "{stats:?}");
    assert_eq!(stats.group_count_entries as u64, stats.misses - 1);
    assert_eq!(stats.group_id_entries, 1);
    stats.misses
}

#[test]
fn cold_counts_racing_cold_ids_agree_and_group_at_most_twice() {
    // Schedules in which the count side read the ids (one kernel run)
    // rather than grouping itself (two).
    let decoded = AtomicUsize::new(0);
    let report = Model::new()
        .max_schedules(2_000)
        .preemption_bound(2)
        .explore(|| {
            if counts_race_ids_body() == 1 {
                decoded.fetch_add(1, Ordering::Relaxed);
            }
        });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    let decoded = decoded.load(Ordering::Relaxed);
    assert!(
        decoded > 0 && decoded < report.schedules,
        "both fill paths must be explored: {decoded} of {} schedules read the ids",
        report.schedules
    );
}

/// A cold id fill of `X` racing a cold id fill of `Y ⊃ X`.  `Y` is derived
/// from `X` when `X`'s table is complete by the time `Y`'s fill looks for
/// resident tables, and grouped by the kernel otherwise: a derivation
/// reads completed slots only and never waits on an in-flight one.  Under
/// every interleaving each set is filled once and `Y`'s ids are the
/// kernel's, whichever path filled them.  Returns whether `Y` was derived.
fn derived_fill_races_its_base_body() -> bool {
    let r = sample();
    let ctx = AnalysisContext::new(&r);
    let x = AttrSet::singleton(AttrId(0));
    let y = AttrSet::from_ids([0, 1]);
    let (base, ids) = ajd_sync::thread::scope(|s| {
        let base = s.spawn(|| ctx.group_ids_with(&x, ThreadBudget::serial()));
        let wide = s.spawn(|| ctx.group_ids_with(&y, ThreadBudget::serial()));
        (
            base.join().expect("base fill returns"),
            wide.join().expect("wide fill returns"),
        )
    });
    let base = base.expect("grouping cannot fail");
    assert_eq!(base.row_ids(), r.group_ids(&x).expect("kernel").row_ids());
    let ids = ids.expect("grouping cannot fail");
    let kernel = r.group_ids(&y).expect("grouping cannot fail");
    assert_eq!(ids.row_ids(), kernel.row_ids());
    assert_eq!(ids.counts(), kernel.counts());
    assert_eq!(ids.group_codes(), kernel.group_codes());
    let stats = ctx.stats();
    assert_eq!(
        stats.misses + stats.derived,
        2,
        "one fill per set: {stats:?}"
    );
    assert_eq!(stats.hits, 0, "{stats:?}");
    assert_eq!(stats.group_id_entries, 2);
    stats.derived == 1
}

#[test]
fn derived_fill_racing_its_base_fills_each_set_once() {
    let derived = AtomicUsize::new(0);
    let report = Model::new()
        .max_schedules(2_000)
        .preemption_bound(2)
        .explore(|| {
            if derived_fill_races_its_base_body() {
                derived.fetch_add(1, Ordering::Relaxed);
            }
        });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    let derived = derived.load(Ordering::Relaxed);
    assert!(
        derived > 0 && derived < report.schedules,
        "both fill paths must be explored: {derived} of {} schedules derived",
        report.schedules
    );
}
