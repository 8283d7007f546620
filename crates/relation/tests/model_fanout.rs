//! Model-checked invariant for the one ordered fan-out
//! (`ajd_relation::parallel::fan_out`): the claim protocol that the
//! chunked kernel, the shard pass, the analyzer sweeps and the experiment
//! trials all run on.
//!
//! These tests only compile under `RUSTFLAGS="--cfg ajd_model"`; the CI
//! `model-check` job runs them.  Each body is executed once per explored
//! schedule, so it must be cheap, deterministic, and free of polling loops.
//! See `docs/CONCURRENCY.md` for the memory model and the replay workflow.
#![cfg(ajd_model)]

use ajd_model::Model;
use ajd_relation::parallel::fan_out;
use ajd_relation::ThreadBudget;
use ajd_sync::atomic::{AtomicUsize, Ordering};

/// Two workers over three indices: whichever worker claims which index,
/// every index is computed exactly once, each item gets the per-worker
/// share of the budget, and the results come back in index order.
fn two_workers_over_three_indices_body() {
    let calls: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
    let out = fan_out(3, ThreadBudget::new(2), |i, share| {
        calls[i].fetch_add(1, Ordering::Relaxed);
        assert_eq!(
            share,
            ThreadBudget::serial(),
            "two workers split a budget of 2"
        );
        10 * i
    });
    assert_eq!(
        out,
        vec![0, 10, 20],
        "results must come back in index order"
    );
    for (i, c) in calls.iter().enumerate() {
        assert_eq!(c.load(Ordering::Relaxed), 1, "index {i} computed once");
    }
}

#[test]
fn fan_out_computes_each_index_once_in_index_order_under_all_interleavings() {
    let report = Model::new()
        .max_schedules(4_000)
        .explore(two_workers_over_three_indices_body);
    assert!(
        report.violation.is_none(),
        "ordered fan-out violated: {:?}",
        report.violation
    );
    assert!(
        report.exhausted,
        "the schedule space should be explored completely, stopped after {}",
        report.schedules
    );
    assert!(
        report.schedules >= 10,
        "expected a real exploration, got {} schedules",
        report.schedules
    );
}
