//! `GroupIds::map_to` agrees with the row-pass reference on every producer.
//!
//! `map_to` reads the coarse id of each fine group's first row, so it is
//! only as right as the first rows a grouping knows: found by a pass over
//! its row ids, or carried through an extension that scans the appended
//! rows alone.  Every path that builds a [`GroupIds`] is checked here
//! against a pass over both groupings' row ids: the `∅` and one-attribute
//! fast paths, the dense, packed and boxed kernels, the chunked kernel,
//! the sharded merge, lattice refinement and coarsening, and seeded
//! extensions over several appends (with and without first rows known
//! before each append).  Like `prop_sharded`, the layouts fold in the CI
//! matrix's `AJD_TEST_SHARDS` / `AJD_TEST_THREADS`.

use ajd_relation::relation::GroupIds;
use ajd_relation::{
    AnalysisContext, AttrId, AttrSet, GroupKernel, GroupSource, Relation, ShardedStore,
    ThreadBudget, Value,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Reads a positive integer from the environment (the CI matrix knobs).
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Shard counts exercised: the fixed {1, 3} plus `AJD_TEST_SHARDS`.
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 3];
    if let Some(n) = env_usize("AJD_TEST_SHARDS") {
        if n > 0 && !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// Thread budgets exercised: serial and 3, plus `AJD_TEST_THREADS`.
fn thread_budgets() -> Vec<ThreadBudget> {
    let mut threads = vec![1usize, 3];
    if let Some(n) = env_usize("AJD_TEST_THREADS") {
        if n > 0 && !threads.contains(&n) {
            threads.push(n);
        }
    }
    threads.into_iter().map(ThreadBudget::new).collect()
}

const ARITY: usize = 4;

/// Spreads small values over the whole `u32` range.
fn scatter(v: u32) -> u32 {
    v.wrapping_mul(2_654_435_761).wrapping_add(0xdead_beef)
}

fn relation(rows: &[Vec<Value>]) -> Relation {
    let schema: Vec<AttrId> = (0..ARITY).map(AttrId::from).collect();
    Relation::from_rows(schema, rows).expect("generated rows have the right arity")
}

/// Every attribute set of the 4-attribute schema, `∅` included.
fn all_sets() -> Vec<AttrSet> {
    (0..1u32 << ARITY)
        .map(|mask| AttrSet::from_ids((0..ARITY as u32).filter(|b| mask & (1 << b) != 0)))
        .collect()
}

/// The map of `fine`'s groups to `coarse`'s, by one pass over both
/// groupings' row ids; panics if a fine group meets two coarse groups.
fn row_pass(fine: &GroupIds, coarse: &GroupIds) -> Vec<u32> {
    let mut map = vec![u32::MAX; fine.num_groups()];
    for (&f, &c) in fine.row_ids().iter().zip(coarse.row_ids()) {
        let slot = &mut map[f as usize];
        assert!(*slot == u32::MAX || *slot == c, "a fine group spans two");
        *slot = c;
    }
    assert!(!map.contains(&u32::MAX), "a group without rows");
    map
}

/// Checks `map_to` against the row pass for every pair of `tables` whose
/// attribute sets nest, twice per pair (the second call reads the first
/// rows the first one found).
fn check_pairs(tables: &[Arc<GroupIds>], what: &str) {
    for fine in tables {
        for coarse in tables {
            if !coarse.attrs().is_subset_of(fine.attrs()) {
                continue;
            }
            let want = row_pass(fine, coarse);
            for call in 0..2 {
                assert_eq!(
                    fine.map_to(coarse),
                    want,
                    "{what}: {} → {}, call {call}",
                    fine.attrs(),
                    coarse.attrs()
                );
            }
        }
    }
}

/// The groupings of every attribute set of `r`: from the flat kernel, the
/// chunked kernel under each budget, and each sharding's merge.
fn check_kernels(r: &Relation, what: &str) {
    let sets = all_sets();
    let flat: Vec<Arc<GroupIds>> = sets
        .iter()
        .map(|s| Arc::new(r.group_ids(s).expect("kernel")))
        .collect();
    check_pairs(&flat, &format!("{what} flat"));
    for budget in thread_budgets() {
        let chunked: Vec<Arc<GroupIds>> = sets
            .iter()
            .map(|s| Arc::new(r.group_ids_chunked(s, budget.get()).expect("chunked")))
            .collect();
        check_pairs(&chunked, &format!("{what} chunked {}", budget.get()));
    }
    for n in shard_counts() {
        let sharded = r.clone().into_shards(n).expect("shardable");
        let merged: Vec<Arc<GroupIds>> = sets
            .iter()
            .map(|s| sharded.group_ids(s).expect("merged"))
            .collect();
        check_pairs(&merged, &format!("{what} shards={n}"));
    }
}

/// A 4-attribute multiset relation with values in `0..domain`, scattered
/// or not; its first third of rows repeats at the end.
fn relation_strategy(
    domain: Value,
    max_rows: usize,
    scattered: bool,
) -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(prop::collection::vec(0..domain, ARITY), 0..max_rows).prop_map(
        move |rows| {
            let mut rows: Vec<Vec<Value>> = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|v| if scattered { scatter(v) } else { v })
                        .collect()
                })
                .collect();
            rows.extend_from_within(..rows.len() / 3);
            rows
        },
    )
}

/// Fills `order` (ids of each set, in turn) in one context over `src` and
/// returns the tables and the number of derived fills.
fn derived_tables<S: GroupKernel>(src: S, order: &[AttrSet]) -> (Vec<Arc<GroupIds>>, u64) {
    let ctx = AnalysisContext::new(src);
    let tables = order
        .iter()
        .map(|s| ctx.group_ids_with(s, ThreadBudget::serial()).expect("fill"))
        .collect();
    (tables, ctx.stats().derived)
}

/// Drives a store over `base` in `shards` shards through `batches`,
/// reading the ids of every set after each append, and checks `map_to` on
/// every epoch's tables.  With `between`, `map_to` runs on each epoch
/// before the next append, so extensions carry first rows; without it
/// they are found after the last append only.  Returns the extended fills.
fn check_epochs(
    base: &[Vec<Value>],
    shards: usize,
    batches: &[Vec<Vec<Value>>],
    between: bool,
) -> u64 {
    let sets = all_sets();
    let store = ShardedStore::new(relation(base).into_shards(shards).expect("shardable"));
    let mut rows = base.to_vec();
    let mut extended = 0;
    for (e, batch) in std::iter::once(&Vec::new()).chain(batches).enumerate() {
        if e > 0 {
            store.append_shard(relation(batch)).expect("append");
            rows.extend(batch.iter().cloned());
        }
        let ctx = store.context();
        let tables: Vec<Arc<GroupIds>> = sets
            .iter()
            .map(|s| ctx.group_ids_with(s, ThreadBudget::serial()).expect("ids"))
            .collect();
        let flat = relation(&rows);
        for (s, table) in sets.iter().zip(&tables) {
            assert_eq!(table.row_ids(), flat.group_ids(s).expect("flat").row_ids());
        }
        if between || e == batches.len() {
            check_pairs(&tables, &format!("shards={shards} epoch {e}"));
        }
        extended += ctx.stats().extended;
    }
    extended
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Narrow domains take the dense kernel, scattered ones the packed
    /// one; both through the flat, chunked and sharded layouts.
    #[test]
    fn map_to_matches_the_row_pass_on_every_kernel(
        narrow in relation_strategy(3, 60, false),
        scattered in relation_strategy(60, 120, true),
    ) {
        check_kernels(&relation(&narrow), "narrow");
        check_kernels(&relation(&scattered), "scattered");
    }

    /// Lattice derivations: ids of small sets first, so larger ones
    /// refine (narrow domains), or Ω first, so smaller ones coarsen
    /// (scattered domains, above the dense cap).
    #[test]
    fn map_to_matches_the_row_pass_on_derived_tables(
        narrow in relation_strategy(3, 60, false),
        scattered in relation_strategy(60, 120, true),
    ) {
        let mut up = all_sets();
        up.sort_by_key(|s| s.len());
        let down: Vec<AttrSet> = up.iter().rev().cloned().collect();
        for (rows, order) in [(&narrow, &up), (&scattered, &down)] {
            let r = relation(rows);
            let (tables, _) = derived_tables(&r, order);
            check_pairs(&tables, "derived flat");
            let sharded = r.clone().into_shards(3).expect("shardable");
            let (tables, _) = derived_tables(&sharded, order);
            check_pairs(&tables, "derived sharded");
        }
    }

    /// Seeded extensions over several appends (empty ones included), with
    /// first rows carried from epoch to epoch or found at the end.
    #[test]
    fn map_to_matches_the_row_pass_on_seeded_extensions(
        base in relation_strategy(5, 30, false),
        batches in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0..9u32, ARITY), 0..10),
            1..5,
        ),
        between in 0..2u32,
    ) {
        for shards in shard_counts() {
            check_epochs(&base, shards, &batches, between == 1);
        }
    }
}

/// The boxed kernel: 9 columns of 151 values each need 72 key bits, so
/// neither the dense table nor a packed `u64` serves them.
#[test]
fn map_to_matches_the_row_pass_on_the_boxed_kernel() {
    let arity = 9u32;
    let schema: Vec<AttrId> = (0..arity).map(AttrId).collect();
    let rows: Vec<Vec<Value>> = (0..300u32)
        .map(|i| {
            (0..arity)
                .map(|j| ((i % 150) * (2 * j + 1)) % 151)
                .collect()
        })
        .collect();
    let r = Relation::from_rows(schema, &rows).expect("rows");
    let omega = r.attrs();
    let sets = [
        omega.clone(),
        AttrSet::from_ids([0, 1, 2, 3, 4, 5, 6, 7]),
        AttrSet::from_ids([0, 4]),
        AttrSet::from_ids([2]),
        AttrSet::empty(),
    ];
    let flat: Vec<Arc<GroupIds>> = sets
        .iter()
        .map(|s| Arc::new(r.group_ids(s).expect("kernel")))
        .collect();
    check_pairs(&flat, "boxed flat");
    let sharded = r.into_shards(4).expect("shardable");
    let merged: Vec<Arc<GroupIds>> = sets
        .iter()
        .map(|s| sharded.group_ids(s).expect("merged"))
        .collect();
    check_pairs(&merged, "boxed shards=4");
}

/// A fixed run through both lattice derivations and an extension chain,
/// asserting that each producer was really reached.
#[test]
fn every_producer_is_reached() {
    let rows: Vec<Vec<Value>> = (0..300u32)
        .map(|i| vec![i % 3, (i / 3) % 3, (i * 7) % 3, (i / 9) % 3])
        .collect();
    let r = relation(&rows);
    let mut up = all_sets();
    up.sort_by_key(|s| s.len());
    let (tables, derived) = derived_tables(&r, &up);
    assert!(derived > 0, "no refinement");
    check_pairs(&tables, "refined");

    let wide: Vec<Vec<Value>> = (0..400u32)
        .map(|i| {
            (0..ARITY as u32)
                .map(|j| scatter((i * (j + 3)) % 97))
                .collect()
        })
        .collect();
    let down: Vec<AttrSet> = up.iter().rev().cloned().collect();
    let (tables, derived) = derived_tables(relation(&wide), &down);
    assert!(derived > 0, "no coarsening");
    check_pairs(&tables, "coarsened");

    let batches: Vec<Vec<Vec<Value>>> = (0..4u32)
        .map(|e| {
            (0..7u32)
                .map(|i| vec![(i + e) % 4, i % 3, e, (i * e) % 5])
                .collect()
        })
        .collect();
    for between in [true, false] {
        for shards in shard_counts() {
            let extended = check_epochs(&rows[..40], shards, &batches, between);
            assert!(extended > 0, "shards={shards}: no extension");
        }
    }
}
