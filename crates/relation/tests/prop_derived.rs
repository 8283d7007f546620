//! Lattice-derived fills are bit-identical to the grouping kernel.
//!
//! A cold id or count fill of an [`AnalysisContext`] may derive its
//! grouping from a resident id table: *refine* a subset by the missing
//! columns in one row pass, or *coarsen* a superset by interning its
//! groups.  Either way the [`GroupIds`] must equal [`Relation::group_ids`]
//! on the flat relation bit for bit (row ids, counts, group codes), at
//! every layout and budget, and every distinct filled set costs exactly one
//! fill: `misses + derived`.
//!
//! Narrow domains keep every table under the kernel's dense cap, so
//! resident subsets refine; scattered domains of 50+ values push wide sets
//! above it, so resident supersets coarsen.  Like `prop_sharded`, the
//! layouts fold in the CI matrix's `AJD_TEST_SHARDS` / `AJD_TEST_THREADS`.

use ajd_relation::relation::GroupIds;
use ajd_relation::{AnalysisContext, AttrId, AttrSet, GroupKernel, Relation, ThreadBudget, Value};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Reads a positive integer from the environment (the CI matrix knobs).
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Shard counts exercised: the fixed {1, 2, 7} plus `AJD_TEST_SHARDS`.
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 2, 7];
    if let Some(n) = env_usize("AJD_TEST_SHARDS") {
        if n > 0 && !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// Thread budgets exercised: serial and 4, plus `AJD_TEST_THREADS`.
fn thread_budgets() -> Vec<ThreadBudget> {
    let mut threads = vec![1usize, 4];
    if let Some(n) = env_usize("AJD_TEST_THREADS") {
        if n > 0 && !threads.contains(&n) {
            threads.push(n);
        }
    }
    threads.into_iter().map(ThreadBudget::new).collect()
}

/// Spreads small values over the whole `u32` range.
fn scatter(v: u32) -> u32 {
    v.wrapping_mul(2_654_435_761).wrapping_add(0xdead_beef)
}

const ARITY: usize = 4;

fn relation(rows: &[Vec<Value>]) -> Relation {
    let schema: Vec<AttrId> = (0..ARITY).map(AttrId::from).collect();
    Relation::from_rows(schema, rows).expect("generated rows have the right arity")
}

/// A 4-attribute multiset relation with values in `0..domain`, scattered
/// or not; its first third of rows repeats at the end, so groups of every
/// width carry counts above one.
fn relation_strategy(
    domain: Value,
    max_rows: usize,
    scattered: bool,
) -> impl Strategy<Value = Relation> {
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
            relation(&rows)
        },
    )
}

/// The attribute set of a 4-bit mask (0 is the empty set).
fn set_of(mask: u32) -> AttrSet {
    AttrSet::from_ids((0..ARITY as u32).filter(|b| mask & (1 << b) != 0))
}

/// One lookup of a fill sequence: ids or counts of a set.
#[derive(Debug, Clone, Copy)]
enum Lookup {
    Ids(u32),
    Counts(u32),
}

/// Bits 0–3 pick the set, bit 4 the cache.
fn lookup(code: u32) -> Lookup {
    if code & 16 == 0 {
        Lookup::Ids(code & 15)
    } else {
        Lookup::Counts(code & 15)
    }
}

fn assert_same_ids(want: &GroupIds, got: &GroupIds, what: &str) {
    assert_eq!(got.attrs(), want.attrs(), "{what}: attrs");
    assert_eq!(got.row_ids(), want.row_ids(), "{what}: row ids");
    assert_eq!(got.counts(), want.counts(), "{what}: counts");
    assert_eq!(got.group_codes(), want.group_codes(), "{what}: group codes");
}

/// Runs `lookups` through one fresh context per layout × budget, checks
/// every answer against the flat kernel, and returns the `(misses,
/// derived)` split, which must be the same everywhere.
fn check_sequence(flat: &Relation, lookups: &[Lookup]) -> (u64, u64) {
    // Fills a serial sequence costs: an id fill per new id set, a count
    // fill per new count set whose ids are not resident yet.
    let (mut ids_seen, mut counts_seen) = (BTreeSet::new(), BTreeSet::new());
    let mut fills = 0u64;
    for &l in lookups {
        match l {
            Lookup::Ids(m) => fills += u64::from(ids_seen.insert(m)),
            Lookup::Counts(m) => {
                fills += u64::from(counts_seen.insert(m) && !ids_seen.contains(&m));
            }
        }
    }
    let mut split: Option<(u64, u64)> = None;
    let mut check = |ctx_split: (u64, u64), what: &str| {
        assert_eq!(ctx_split.0 + ctx_split.1, fills, "{what}: one fill per set");
        assert_eq!(*split.get_or_insert(ctx_split), ctx_split, "{what}: split");
    };
    for &budget in &thread_budgets() {
        let what = format!("flat threads={}", budget.get());
        let ctx = AnalysisContext::new(flat);
        replay(&ctx, flat, lookups, budget, &what);
        let stats = ctx.stats();
        check((stats.misses, stats.derived), &what);
        for n in shard_counts() {
            let what = format!("shards={n} threads={}", budget.get());
            let sharded = flat.clone().into_shards(n).expect("shardable");
            let ctx = AnalysisContext::new(&sharded);
            replay(&ctx, flat, lookups, budget, &what);
            let stats = ctx.stats();
            check((stats.misses, stats.derived), &what);
        }
    }
    split.expect("at least one layout")
}

/// Replays `lookups` on `ctx`, comparing each answer with `flat`'s kernel.
fn replay<S: GroupKernel>(
    ctx: &AnalysisContext<S>,
    flat: &Relation,
    lookups: &[Lookup],
    budget: ThreadBudget,
    what: &str,
) {
    for &l in lookups {
        match l {
            Lookup::Ids(m) => {
                let attrs = set_of(m);
                let got = ctx.group_ids_with(&attrs, budget).expect("ids");
                let want = flat.group_ids(&attrs).expect("kernel ids");
                assert_same_ids(&want, &got, &format!("{what} ids {attrs}"));
            }
            Lookup::Counts(m) => {
                let attrs = set_of(m);
                let got = ctx.group_counts_with(&attrs, budget).expect("counts");
                let want = flat.group_counts(&attrs).expect("kernel counts");
                assert_eq!(got.counts(), want.counts(), "{what} counts {attrs}");
                for g in 0..want.num_groups() {
                    assert_eq!(got.key_codes(g), want.key_codes(g), "{what} {attrs}");
                    assert_eq!(got.key(g), want.key(g), "{what} {attrs}");
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Narrow domains: every table fits the dense cap, so any resident
    /// subset refines.
    #[test]
    fn random_fills_over_narrow_domains_match_the_kernel(
        r in relation_strategy(3, 40, false),
        codes in prop::collection::vec(0..32u32, 1..12),
    ) {
        let lookups: Vec<Lookup> = codes.into_iter().map(lookup).collect();
        check_sequence(&r, &lookups);
    }

    /// Scattered domains of up to 60 values: wide sets exceed the dense
    /// cap, so resident supersets coarsen them.
    #[test]
    fn random_fills_over_scattered_domains_match_the_kernel(
        r in relation_strategy(60, 120, true),
        codes in prop::collection::vec(0..32u32, 1..12),
    ) {
        let lookups: Vec<Lookup> = codes.into_iter().map(lookup).collect();
        check_sequence(&r, &lookups);
    }
}

/// `rows` rows over narrow (3-value) or scattered (50–100-value) domains,
/// the first third repeated at the end (a multiset).
fn fixture(rows: u32, scattered: bool) -> Relation {
    let mut x = 0x2545_f491u32;
    let mut rows: Vec<Vec<Value>> = (0..rows)
        .map(|_| {
            (0..ARITY)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 17;
                    x ^= x << 5;
                    if scattered {
                        scatter(x % 100)
                    } else {
                        x % 3
                    }
                })
                .collect()
        })
        .collect();
    rows.extend_from_within(..rows.len() / 3);
    let r = relation(&rows);
    if scattered {
        for a in 0..ARITY as u32 {
            assert!(r.active_domain_size(AttrId(a)).unwrap() >= 50);
        }
    }
    r
}

/// A resident subset refines: {0,1} then {0,1,2} and the counts of
/// {0,1,3} are derived, not grouped.
#[test]
fn resident_subsets_refine() {
    let r = fixture(300, false);
    let lookups = [
        Lookup::Ids(0b0011),
        Lookup::Ids(0b0111),
        Lookup::Counts(0b1011),
    ];
    assert_eq!(check_sequence(&r, &lookups), (1, 2));
}

/// Above the dense cap a resident superset coarsens: Ω, then {0,1} and
/// the counts of {1,2,3}, whose radixes exceed the cap.
#[test]
fn resident_supersets_coarsen_above_the_dense_cap() {
    let r = fixture(400, true);
    let lookups = [
        Lookup::Ids(0b1111),
        Lookup::Ids(0b0011),
        Lookup::Counts(0b1110),
    ];
    assert_eq!(check_sequence(&r, &lookups), (1, 2));
}

/// The kernel serves when no resident table fits: a singleton's groups
/// times a 50+-value column exceed the cap, and no superset is resident.
/// Below the cap a resident superset is not used either: the kernel's own
/// dense pass is as cheap.
#[test]
fn the_kernel_serves_when_no_resident_table_fits() {
    let r = fixture(400, true);
    assert_eq!(
        check_sequence(&r, &[Lookup::Ids(0b0001), Lookup::Ids(0b0011)]),
        (2, 0)
    );
    let narrow = fixture(300, false);
    assert_eq!(
        check_sequence(&narrow, &[Lookup::Ids(0b1111), Lookup::Ids(0b0011)]),
        (2, 0)
    );
}

/// Singletons and the empty set always run the kernel, and the empty set
/// is never a base: a resident Ω serves neither, and a resident empty
/// grouping does not refine {0,1}.
#[test]
fn singletons_and_the_empty_set_are_never_derived() {
    let r = fixture(300, false);
    let lookups = [
        Lookup::Ids(0b1111),
        Lookup::Ids(0b0001),
        Lookup::Counts(0b1000),
        Lookup::Ids(0),
        Lookup::Counts(0),
    ];
    // The last count table decodes the resident empty grouping: a hit.
    assert_eq!(check_sequence(&r, &lookups), (4, 0));
    assert_eq!(
        check_sequence(&r, &[Lookup::Ids(0), Lookup::Ids(0b0011)]),
        (2, 0)
    );
}

/// The empty relation derives as it groups: no rows, no groups.
#[test]
fn the_empty_relation_derives_cleanly() {
    let empty = relation(&[]);
    let lookups = [
        Lookup::Ids(0b0011),
        Lookup::Ids(0b0111),
        Lookup::Ids(0b0001),
    ];
    assert_eq!(check_sequence(&empty, &lookups), (2, 1));
}
