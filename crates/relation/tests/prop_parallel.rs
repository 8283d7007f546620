//! Determinism property tests of the chunked parallel grouping kernel.
//!
//! The contract of `Relation::group_ids_chunked` / `group_ids_with` is
//! **bit-identity** with the serial kernel: for any relation, any attribute
//! subset, and any worker count, the parallel grouping must produce exactly
//! the same per-row ids, per-group counts, group code tuples and decoded
//! keys — first-appearance numbering included.  Both kernel flavours are
//! exercised: dense small domains drive the mixed-radix path, scattered
//! values drive the packed-`u64` hashing path.

use ajd_relation::relation::GroupIds;
use ajd_relation::{AttrId, AttrSet, GroupKernel, Relation, ThreadBudget, Value};
use proptest::prelude::*;

/// Multiplies values by a large odd constant so raw values are scattered
/// over the whole `u32` range (domains get large, forcing the hashing path).
fn scatter(v: u32) -> u32 {
    v.wrapping_mul(2_654_435_761).wrapping_add(0xdead_beef)
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

/// Asserts every observable field of two groupings is identical.
fn assert_bit_identical(serial: &GroupIds, parallel: &GroupIds, what: &str) -> Result<(), String> {
    if parallel.row_ids() != serial.row_ids() {
        return Err(format!("{what}: row_ids differ"));
    }
    if parallel.counts() != serial.counts() {
        return Err(format!("{what}: counts differ"));
    }
    if parallel.group_codes() != serial.group_codes() {
        return Err(format!("{what}: group_codes differ"));
    }
    if parallel.attrs() != serial.attrs() {
        return Err(format!("{what}: attrs differ"));
    }
    Ok(())
}

/// Serial vs chunked at worker counts {1, 2, 4, 8}, plus decoded-key
/// equality through `decode_group_counts`.
fn check_parallel_matches_serial(r: &Relation, attrs: &AttrSet) -> Result<(), String> {
    let serial = r.group_ids(attrs).map_err(|e| e.to_string())?;
    for workers in [1usize, 2, 4, 8] {
        let par = r
            .group_ids_chunked(attrs, workers)
            .map_err(|e| e.to_string())?;
        assert_bit_identical(&serial, &par, &format!("workers={workers} attrs={attrs}"))?;
        // Decoded keys (the GroupCounts view) are identical too.
        let sc = r.decode_group_counts(&serial);
        let pc = r.decode_group_counts(&par);
        for g in 0..sc.num_groups() {
            if sc.key(g) != pc.key(g) || sc.key_codes(g) != pc.key_codes(g) {
                return Err(format!(
                    "decoded key of group {g} differs (workers={workers})"
                ));
            }
        }
        if sc.counts() != pc.counts() || sc.total != pc.total {
            return Err(format!("decoded counts differ (workers={workers})"));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense small domains: every chunk groups through the mixed-radix
    /// table; the merge must reproduce global first-appearance order.
    #[test]
    fn chunked_matches_serial_dense(r in relation_strategy(4, 4, 80, false)) {
        for attrs in [
            AttrSet::from_ids([0u32, 1]),
            AttrSet::from_ids([1u32, 3]),
            AttrSet::from_ids([0u32, 1, 2]),
            AttrSet::from_ids([0u32, 1, 2, 3]),
        ] {
            check_parallel_matches_serial(&r, &attrs)?;
        }
    }

    /// Scattered values: domains are near the row count, so the domain
    /// product overflows the dense cap and chunks group through the packed
    /// `u64` hashing path.
    #[test]
    fn chunked_matches_serial_packed(r in relation_strategy(3, 40, 80, true)) {
        for attrs in [
            AttrSet::from_ids([0u32, 1]),
            AttrSet::from_ids([0u32, 2]),
            AttrSet::from_ids([0u32, 1, 2]),
        ] {
            check_parallel_matches_serial(&r, &attrs)?;
        }
    }

    /// Worker counts beyond the row count (empty chunks) and degenerate
    /// single-row relations are handled.
    #[test]
    fn more_workers_than_rows(r in relation_strategy(2, 3, 6, false)) {
        let attrs = AttrSet::from_ids([0u32, 1]);
        let serial = r.group_ids(&attrs).unwrap();
        for workers in [3usize, 16] {
            let par = r.group_ids_chunked(&attrs, workers).unwrap();
            assert_bit_identical(&serial, &par, "tiny relation")?;
        }
    }
}

/// End-to-end through the budgeted entry points on a relation large enough
/// to clear the minimum-chunk gate: `group_ids_with`, `group_counts_with`
/// and `project_with` agree bit-for-bit with their serial counterparts at
/// every budget.
#[test]
fn budgeted_paths_match_serial_on_large_relation() {
    // 20k rows, mixed dense/correlated columns; deterministic xorshift.
    let mut r = Relation::new(vec![AttrId(0), AttrId(1), AttrId(2)]).unwrap();
    let mut x = 7u32;
    for _ in 0..20_000 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        r.push_row(&[x % 19, scatter(x % 700), (x >> 7) % 13])
            .unwrap();
    }
    for attrs in [
        AttrSet::from_ids([0u32, 2]),
        AttrSet::from_ids([0u32, 1]),
        AttrSet::from_ids([0u32, 1, 2]),
    ] {
        let serial_ids = r.group_ids(&attrs).unwrap();
        let serial_counts = r.group_counts(&attrs).unwrap();
        let serial_proj = r.project(&attrs).unwrap();
        for budget in [
            ThreadBudget::serial(),
            ThreadBudget::new(2),
            ThreadBudget::new(8),
        ] {
            let ids = r.group_ids_with(&attrs, budget).unwrap();
            assert_eq!(ids.row_ids(), serial_ids.row_ids());
            assert_eq!(ids.counts(), serial_ids.counts());
            assert_eq!(ids.group_codes(), serial_ids.group_codes());

            let counts = r.group_counts_with(&attrs, budget).unwrap();
            assert_eq!(counts.counts(), serial_counts.counts());
            assert_eq!(counts.num_groups(), serial_counts.num_groups());
            for g in 0..counts.num_groups() {
                assert_eq!(counts.key(g), serial_counts.key(g));
            }

            let proj = r.project_with(&attrs, budget).unwrap();
            assert_eq!(proj.len(), serial_proj.len());
            for (a, b) in proj.iter_rows().zip(serial_proj.iter_rows()) {
                assert_eq!(a, b);
            }
        }
    }
}

/// An absurd worker request is clamped (to the row count and the
/// `MAX_CHUNK_WORKERS` ceiling) instead of attempting one thread per row —
/// and still produces the bit-identical grouping.
#[test]
fn huge_worker_counts_are_clamped_not_spawned() {
    let mut r = Relation::new(vec![AttrId(0), AttrId(1)]).unwrap();
    let mut x = 3u32;
    for _ in 0..10_000 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        r.push_row(&[x % 31, x % 17]).unwrap();
    }
    let attrs = AttrSet::from_ids([0u32, 1]);
    let serial = r.group_ids(&attrs).unwrap();
    let par = r.group_ids_chunked(&attrs, usize::MAX).unwrap();
    assert_eq!(par.row_ids(), serial.row_ids());
    assert_eq!(par.counts(), serial.counts());
    assert_eq!(par.group_codes(), serial.group_codes());
}

/// The single-column and empty-set fast paths are shared verbatim with the
/// serial kernel (nothing to shard), at any worker count.
#[test]
fn trivial_arity_paths_delegate_to_serial() {
    let r = Relation::from_rows(
        vec![AttrId(0), AttrId(1)],
        &[&[5, 1][..], &[5, 2][..], &[6, 1][..]],
    )
    .unwrap();
    for attrs in [AttrSet::empty(), AttrSet::from_ids([0u32])] {
        let serial = r.group_ids(&attrs).unwrap();
        let par = r.group_ids_chunked(&attrs, 8).unwrap();
        assert_eq!(par.row_ids(), serial.row_ids());
        assert_eq!(par.counts(), serial.counts());
        assert_eq!(par.group_codes(), serial.group_codes());
    }
}
