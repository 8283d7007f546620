//! Equivalence property tests of the sharded relation subsystem.
//!
//! The contract of [`ShardedRelation`] is **bit-identity** with the flat
//! [`Relation`] of the concatenated shard rows: for any relation, any
//! attribute subset, any shard count (empty and single-row shards included)
//! and any [`ThreadBudget`], grouping / counting / projection / dedup over
//! the shards must produce exactly what the flat kernel produces —
//! first-appearance numbering, counts, group codes, decoded keys and row
//! order included.  Both kernel flavours are exercised: dense small domains
//! drive the mixed-radix path inside each shard, scattered values drive the
//! packed-`u64` hashing path.
//!
//! The CI `sharded-matrix` job runs this suite under
//! `AJD_TEST_SHARDS={1,3,8}` × `AJD_TEST_THREADS={1,4}`; those environment
//! values are folded into the fixture lists below, so every matrix cell
//! checks an extra shard-count / budget combination on top of the fixed
//! ones.

use ajd_relation::relation::GroupIds;
use ajd_relation::{
    AttrId, AttrSet, GroupKernel, GroupSource, Relation, ShardedRelation, ThreadBudget, Value,
};
use proptest::prelude::*;

/// Multiplies values by a large odd constant so raw values are scattered
/// over the whole `u32` range (domains get large, forcing the hashing path).
fn scatter(v: u32) -> u32 {
    v.wrapping_mul(2_654_435_761).wrapping_add(0xdead_beef)
}

/// Reads a positive integer from the environment (the CI matrix knobs).
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Shard counts exercised: the fixed {1, 2, 7} plus the CI matrix's
/// `AJD_TEST_SHARDS` value (if any).
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 7];
    if let Some(n) = env_usize("AJD_TEST_SHARDS") {
        if n > 0 && !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// Thread budgets exercised: serial and 4, plus the CI matrix's
/// `AJD_TEST_THREADS` value (if any).
fn thread_budgets() -> Vec<ThreadBudget> {
    let mut threads = vec![1usize, 4];
    if let Some(n) = env_usize("AJD_TEST_THREADS") {
        if n > 0 && !threads.contains(&n) {
            threads.push(n);
        }
    }
    threads.into_iter().map(ThreadBudget::new).collect()
}

/// A relation over `arity` attributes with (possibly duplicated) rows.
fn relation_strategy(
    arity: usize,
    domain: Value,
    max_rows: usize,
    scattered: bool,
) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0..domain, arity), 0..max_rows).prop_map(
        move |rows| {
            let schema: Vec<AttrId> = (0..arity).map(AttrId::from).collect();
            let rows: Vec<Vec<Value>> = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|v| if scattered { scatter(v) } else { v })
                        .collect()
                })
                .collect();
            Relation::from_rows(schema, &rows).expect("generated rows have the right arity")
        },
    )
}

/// All the attribute subsets a relation of this arity gets checked on.
fn attr_sets(arity: usize) -> Vec<AttrSet> {
    let mut sets = vec![AttrSet::empty(), AttrSet::range(arity)];
    if arity >= 1 {
        sets.push(AttrSet::singleton(AttrId(0)));
        sets.push(AttrSet::singleton(AttrId(arity as u32 - 1)));
    }
    if arity >= 2 {
        sets.push(AttrSet::from_ids([0, arity as u32 - 1]));
    }
    sets
}

/// Asserts every observable field of two groupings is identical.
fn assert_bit_identical(flat: &GroupIds, sharded: &GroupIds, what: &str) -> Result<(), String> {
    if sharded.row_ids() != flat.row_ids() {
        return Err(format!("{what}: row_ids differ"));
    }
    if sharded.counts() != flat.counts() {
        return Err(format!("{what}: counts differ"));
    }
    if sharded.group_codes() != flat.group_codes() {
        return Err(format!("{what}: group_codes differ"));
    }
    if sharded.attrs() != flat.attrs() {
        return Err(format!("{what}: attrs differ"));
    }
    Ok(())
}

/// Asserts two relations are identical row for row (same schema order, same
/// row order, same values) — stronger than set equality.
fn assert_rows_identical(a: &Relation, b: &Relation, what: &str) -> Result<(), String> {
    if a.schema() != b.schema() {
        return Err(format!("{what}: schemas differ"));
    }
    if a.len() != b.len() {
        return Err(format!(
            "{what}: row counts differ ({} vs {})",
            a.len(),
            b.len()
        ));
    }
    for (i, (ra, rb)) in a.iter_rows().zip(b.iter_rows()).enumerate() {
        if ra != rb {
            return Err(format!("{what}: row {i} differs"));
        }
    }
    Ok(())
}

/// The full equivalence check for one relation and one shard count:
/// group_ids / group_counts (every attribute subset, every budget),
/// project, distinct, and the collect round trip.
fn check_sharded_matches_flat(flat: &Relation, num_shards: usize) -> Result<(), String> {
    let sharded = flat
        .clone()
        .into_shards(num_shards)
        .map_err(|e| e.to_string())?;
    if sharded.num_shards() != num_shards {
        return Err(format!(
            "into_shards({num_shards}) produced {} shards",
            sharded.num_shards()
        ));
    }
    let budgets = thread_budgets();
    for attrs in attr_sets(flat.arity()) {
        let serial = flat.group_ids(&attrs).map_err(|e| e.to_string())?;
        for &budget in &budgets {
            let what = format!("shards={num_shards} threads={} attrs={attrs}", budget.get());
            let ids = sharded
                .group_ids_with(&attrs, budget)
                .map_err(|e| e.to_string())?;
            assert_bit_identical(&serial, &ids, &what)?;
            // Decoded keys (the GroupCounts view) are identical too.
            let fc = flat.decode_group_counts(&serial);
            let sc = sharded
                .group_counts_with(&attrs, budget)
                .map_err(|e| e.to_string())?;
            if fc.total != sc.total || fc.counts() != sc.counts() {
                return Err(format!("{what}: decoded counts differ"));
            }
            for g in 0..fc.num_groups() {
                if fc.key(g) != sc.key(g) || fc.key_codes(g) != sc.key_codes(g) {
                    return Err(format!("{what}: decoded key of group {g} differs"));
                }
            }
            // Projections are identical relations, not just equal sets.
            let fp = flat.project(&attrs).map_err(|e| e.to_string())?;
            let sp = sharded
                .project_with(&attrs, budget)
                .map_err(|e| e.to_string())?;
            assert_rows_identical(&fp, &sp, &format!("{what}: project"))?;
        }
    }
    assert_rows_identical(
        &flat.distinct(),
        &sharded.distinct(),
        &format!("shards={num_shards}: distinct"),
    )?;
    if flat.is_set() != sharded.is_set() {
        return Err(format!("shards={num_shards}: is_set disagrees"));
    }
    // The round trip reproduces the flat store, dictionaries included.
    let back = sharded.collect().map_err(|e| e.to_string())?;
    assert_rows_identical(flat, &back, &format!("shards={num_shards}: collect"))?;
    for &attr in flat.schema() {
        if back.domain(attr) != flat.domain(attr)
            || back.column_codes(attr) != flat.column_codes(attr)
        {
            return Err(format!(
                "shards={num_shards}: dictionaries differ after collect"
            ));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense small domains: every shard groups through the mixed-radix
    /// kernel; shard counts exceed the row count often enough that empty
    /// and single-row shards are routinely exercised.
    #[test]
    fn sharded_equals_flat_dense(r in relation_strategy(3, 4, 40, false)) {
        for n in shard_counts() {
            if let Err(msg) = check_sharded_matches_flat(&r, n) {
                prop_assert!(false, "{}", msg);
            }
        }
    }

    /// Scattered wide domains: every shard groups through the packed-`u64`
    /// hashing kernel, and the shard-order dictionary merge has real work
    /// to do (shards see overlapping but differently-ordered value sets).
    #[test]
    fn sharded_equals_flat_scattered(r in relation_strategy(2, 50, 60, true)) {
        for n in shard_counts() {
            if let Err(msg) = check_sharded_matches_flat(&r, n) {
                prop_assert!(false, "{}", msg);
            }
        }
    }

    /// Incremental maintenance ≡ from-scratch: group a sharded relation so
    /// every per-shard table is warm, append a batch as one new shard, and
    /// group again.  The cached path (one new-shard compute + re-merge)
    /// must be bit-identical to both an uncached regroup of the grown
    /// relation and the flat relation of the concatenated rows, for every
    /// attribute subset and budget — and the append must bump the epoch by
    /// exactly one without touching existing shards.
    #[test]
    fn incremental_append_equals_from_scratch(
        base in relation_strategy(3, 4, 40, false),
        batch in relation_strategy(3, 4, 12, false),
    ) {
        for n in shard_counts() {
            let mut grown = base.clone().into_shards(n).expect("shardable");
            let sets = attr_sets(base.arity());
            // Warm every per-shard table the checks below will use.
            for attrs in &sets {
                grown.group_ids(attrs).expect("warm grouping");
            }
            let epoch_before = grown.epoch();
            grown.append_shard(batch.clone()).expect("append");
            prop_assert_eq!(grown.epoch(), epoch_before + 1);
            prop_assert_eq!(grown.num_shards(), n + 1);

            let mut flat = base.clone();
            for row in batch.iter_rows() {
                flat.push_row(row).expect("same arity");
            }
            prop_assert_eq!(grown.len(), flat.len());
            for attrs in &sets {
                let reference = flat.group_ids(attrs).expect("flat grouping");
                for &budget in &thread_budgets() {
                    let what = format!(
                        "incremental shards={n} threads={} attrs={attrs}",
                        budget.get()
                    );
                    let warm = grown.group_ids_with(attrs, budget).expect("warm grouping");
                    let cold = grown
                        .group_ids_uncached_with(attrs, budget)
                        .expect("cold grouping");
                    if let Err(msg) = assert_bit_identical(&reference, &warm, &format!("{what} (cached)")) {
                        prop_assert!(false, "{}", msg);
                    }
                    if let Err(msg) = assert_bit_identical(&reference, &cold, &format!("{what} (uncached)")) {
                        prop_assert!(false, "{}", msg);
                    }
                }
            }
        }
    }

    /// Arbitrary (unbalanced) shard boundaries, not just near-equal splits:
    /// rows are cut at a random boundary list, so empty shards, single-row
    /// shards and one-giant-shard layouts all occur.
    #[test]
    fn sharded_equals_flat_at_arbitrary_boundaries(
        r in relation_strategy(3, 5, 30, false),
        cuts in prop::collection::vec(0..30usize, 0..4),
    ) {
        let schema = r.schema().to_vec();
        let mut bounds: Vec<usize> = cuts.into_iter().map(|c| c.min(r.len())).collect();
        bounds.push(0);
        bounds.push(r.len());
        bounds.sort_unstable();
        let shards: Vec<Relation> = bounds
            .windows(2)
            .map(|w| {
                let mut shard = Relation::new(schema.clone()).expect("schema is duplicate-free");
                for i in w[0]..w[1] {
                    shard.push_row(r.row(i)).expect("same arity");
                }
                shard
            })
            .collect();
        let sharded = ShardedRelation::from_shards(schema, shards).expect("schemas match");
        prop_assert_eq!(sharded.len(), r.len());
        for attrs in attr_sets(r.arity()) {
            let a = r.group_ids(&attrs).expect("flat grouping");
            let b = sharded.group_ids(&attrs).expect("sharded grouping");
            if let Err(msg) = assert_bit_identical(&a, &b, &format!("boundaries attrs={attrs}")) {
                prop_assert!(false, "{}", msg);
            }
        }
    }
}

/// The degenerate fixtures the property generators may hit only rarely,
/// pinned explicitly: empty relation, single row, all-duplicate rows.
#[test]
fn degenerate_relations_shard_cleanly() {
    let schema = vec![AttrId(0), AttrId(1)];
    let empty = Relation::new(schema.clone()).unwrap();
    let single = Relation::from_rows(schema.clone(), &[&[7u32, 9u32][..]]).unwrap();
    let dups = Relation::from_rows(
        schema,
        &[&[1u32, 1u32][..], &[1, 1][..], &[1, 1][..], &[1, 1][..]],
    )
    .unwrap();
    for r in [&empty, &single, &dups] {
        for n in shard_counts() {
            check_sharded_matches_flat(r, n).unwrap();
        }
    }
}

/// The u32 extremes survive the global dictionary remap unchanged.
#[test]
fn extreme_values_roundtrip_through_shards() {
    let r = Relation::from_rows(
        vec![AttrId(0), AttrId(1)],
        &[
            &[u32::MAX, 0][..],
            &[0, u32::MAX][..],
            &[u32::MAX, u32::MAX][..],
            &[u32::MAX, 0][..],
        ],
    )
    .unwrap();
    for n in shard_counts() {
        check_sharded_matches_flat(&r, n).unwrap();
    }
}
