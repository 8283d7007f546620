//! `distinct(attrs)` through a context is the group count of the flat
//! kernel, `|R[attrs]|`, whichever table answers it: a count table filled
//! cold, the set's id table, or a seed of an earlier epoch extended by the
//! shards appended since.  A context that already holds the set's ids
//! answers from them: it makes no count table and runs no kernel.
//!
//! Like `prop_sharded`, the layouts fold in the CI matrix's
//! `AJD_TEST_SHARDS` / `AJD_TEST_THREADS`.

use ajd_relation::{
    AnalysisContext, AttrId, AttrSet, GroupKernel, Relation, ShardedStore, ThreadBudget, Value,
};
use proptest::prelude::*;

/// Reads a positive integer from the environment (the CI matrix knobs).
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Shard counts exercised: the fixed {1, 3} plus `AJD_TEST_SHARDS`.
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 3];
    if let Some(n) = env_usize("AJD_TEST_SHARDS").filter(|&n| n > 0) {
        counts.push(n);
    }
    counts
}

/// Thread budgets exercised: serial and 4, plus `AJD_TEST_THREADS`.
fn thread_budgets() -> Vec<ThreadBudget> {
    let mut threads = vec![1usize, 4];
    if let Some(n) = env_usize("AJD_TEST_THREADS").filter(|&n| n > 0) {
        threads.push(n);
    }
    threads.into_iter().map(ThreadBudget::new).collect()
}

const ARITY: usize = 4;

fn relation(rows: &[Vec<Value>]) -> Relation {
    let schema: Vec<AttrId> = (0..ARITY).map(AttrId::from).collect();
    Relation::from_rows(schema, rows).expect("generated rows have the right arity")
}

fn rows_strategy(min: usize, max: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(0..5u32, ARITY), min..max)
}

/// The attribute set of a 4-bit mask (0 is the empty set).
fn set_of(mask: u32) -> AttrSet {
    AttrSet::from_ids((0..ARITY as u32).filter(|b| mask & (1 << b) != 0))
}

/// Asserts `ctx`'s distinct count of every set of `masks` against the
/// flat kernel on `flat`.
fn check<S: GroupKernel>(
    ctx: &AnalysisContext<S>,
    flat: &Relation,
    masks: &[u32],
    budget: ThreadBudget,
    what: &str,
) {
    for &m in masks {
        let attrs = set_of(m);
        let want = flat.group_ids(&attrs).expect("kernel ids").num_groups();
        let got = ctx.distinct_with(&attrs, budget).expect("distinct");
        assert_eq!(got, want, "{what} {attrs}");
    }
}

/// Asserts that the lookups between `before` and `ctx.stats()` ran no
/// kernel, derived nothing and made no count table.
fn assert_no_fill<S: GroupKernel>(
    ctx: &AnalysisContext<S>,
    before: ajd_relation::CacheStats,
    what: &str,
) {
    let after = ctx.stats();
    assert_eq!(
        (after.misses, after.derived, after.group_count_entries),
        (before.misses, before.derived, before.group_count_entries),
        "{what}: {after:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Flat and sharded, cold and with the sets' ids resident.
    #[test]
    fn distinct_is_the_flat_group_count(
        rows in rows_strategy(0, 60),
        masks in prop::collection::vec(0u32..16, 1..8),
    ) {
        let flat = relation(&rows);
        for budget in thread_budgets() {
            let what = format!("flat threads={}", budget.get());
            check(&AnalysisContext::new(&flat), &flat, &masks, budget, &what);
            for n in shard_counts() {
                let sharded = flat.clone().into_shards(n).expect("shardable");
                let what = format!("shards={n} threads={}", budget.get());
                check(&AnalysisContext::new(&sharded), &flat, &masks, budget, &what);
                let ctx = AnalysisContext::new(&sharded);
                for &m in &masks {
                    ctx.group_ids_with(&set_of(m), budget).expect("ids");
                }
                let before = ctx.stats();
                check(&ctx, &flat, &masks, budget, &format!("{what} ids resident"));
                assert_no_fill(&ctx, before, &what);
            }
        }
    }

    /// Over the epochs of a live store: each epoch reads the ids of
    /// `id_masks` and the distinct counts of `count_masks`, so the next
    /// epoch holds id and count seeds.  An id-seeded set's distinct count
    /// extends its seed: no kernel run and no count table.
    #[test]
    fn distinct_is_the_flat_group_count_over_seeded_epochs(
        base in rows_strategy(1, 30),
        batches in prop::collection::vec(rows_strategy(0, 12), 1..4),
        id_masks in prop::collection::vec(1u32..16, 1..4),
        count_masks in prop::collection::vec(1u32..16, 1..4),
    ) {
        let store = ShardedStore::from_initial_shard(relation(&base)).expect("store");
        for (e, batch) in batches.iter().enumerate() {
            let ctx = store.context();
            let flat = ctx.source().collect().expect("collect");
            let what = format!("epoch {}", e + 1);
            let before = ctx.stats();
            if e > 0 {
                // Every id mask was read for its ids an epoch ago.
                check(&ctx, &flat, &id_masks, ThreadBudget::serial(), &what);
                assert_no_fill(&ctx, before, &what);
            }
            for &m in &id_masks {
                ctx.group_ids_with(&set_of(m), ThreadBudget::serial()).expect("ids");
            }
            check(&ctx, &flat, &count_masks, ThreadBudget::serial(), &what);
            drop(ctx);
            store.append_shard(relation(batch)).expect("append");
        }
        let ctx = store.context();
        let flat = ctx.source().collect().expect("collect");
        let before = ctx.stats();
        check(&ctx, &flat, &id_masks, ThreadBudget::serial(), "last epoch");
        assert_no_fill(&ctx, before, "last epoch");
        check(&ctx, &flat, &count_masks, ThreadBudget::serial(), "last epoch");
    }
}
