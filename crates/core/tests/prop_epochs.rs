//! Epoch-extension property tests of the live store.
//!
//! Each epoch of a [`ShardedStore`] hands its group tables to the next
//! epoch's context as seeds, and a cold fill there extends a seed by the
//! shards appended since instead of regrouping every shard.  The contract
//! is unchanged: every read at every epoch is **bit-identical** to the
//! same read on a flat [`Relation`] of the same rows — group ids, counts,
//! group codes, decoded keys, entropies, J and loss, floats compared by
//! bit pattern.
//!
//! The appends include empty batches, batches whose new values push a
//! dictionary across a power of two (so the packed key widths change
//! between a seed and its extension), and read schedules that leave sets
//! unread for several epochs, so seeds lag more than one shard behind.
//! Sets are read ids-first or counts-only, so both id and count seeds are
//! extended.
//!
//! The CI `sharded-matrix` job runs this suite under
//! `AJD_TEST_SHARDS={1,3,8}` × `AJD_TEST_THREADS={1,4}`; the environment
//! values extend the fixed shard-count / budget lists below.

use ajd_core::{Analyzer, LiveAnalyzer};
use ajd_jointree::JoinTree;
use ajd_relation::relation::{GroupCounts, GroupIds};
use ajd_relation::{AttrId, AttrSet, Relation, ShardedRelation, ShardedStore, ThreadBudget, Value};
use proptest::prelude::*;
use std::sync::Arc;

const ARITY: usize = 4;

/// Reads a positive integer from the environment (the CI matrix knobs).
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// Initial shard counts: the fixed {1, 3} plus `AJD_TEST_SHARDS`.
fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 3];
    if let Some(n) = env_usize("AJD_TEST_SHARDS") {
        if n > 0 && !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

/// Thread budgets: serial and 4, plus `AJD_TEST_THREADS`.
fn thread_budgets() -> Vec<ThreadBudget> {
    let mut threads = vec![1usize, 4];
    if let Some(n) = env_usize("AJD_TEST_THREADS") {
        if n > 0 && !threads.contains(&n) {
            threads.push(n);
        }
    }
    threads.into_iter().map(ThreadBudget::new).collect()
}

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

fn schema() -> Vec<AttrId> {
    (0..ARITY).map(AttrId::from).collect()
}

fn relation(rows: &[Vec<Value>]) -> Relation {
    Relation::from_rows(schema(), rows).expect("generated rows have the schema's arity")
}

/// The attribute sets a set read groups.
fn sets() -> Vec<AttrSet> {
    vec![
        bag(&[0]),
        bag(&[3]),
        bag(&[0, 1]),
        bag(&[1, 2]),
        bag(&[0, 2, 3]),
        bag(&[0, 1, 2, 3]),
    ]
}

/// The join trees a tree read measures.
fn trees() -> Vec<JoinTree> {
    vec![
        JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
        JoinTree::path(vec![bag(&[0, 1, 2]), bag(&[2, 3])]).unwrap(),
        JoinTree::star(vec![bag(&[0, 3]), bag(&[0, 1]), bag(&[0, 2])]).unwrap(),
    ]
}

/// One read: a set's ids then counts, a set's counts alone, or a tree's J
/// and loss.
#[derive(Debug, Clone, Copy)]
enum Read {
    Ids(usize),
    Counts(usize),
    Tree(usize),
}

fn read(code: u32) -> Read {
    let (sets, trees) = (sets().len() as u32, trees().len() as u32);
    let code = code % (2 * sets + trees);
    match code {
        c if c < sets => Read::Ids(c as usize),
        c if c < 2 * sets => Read::Counts((c - sets) as usize),
        c => Read::Tree((c - 2 * sets) as usize),
    }
}

/// The rows of batch `epoch`: attribute 0 draws from `2 + 3·epoch` values,
/// so its dictionary grows batch by batch across powers of two; the other
/// attributes keep small, repeating domains.
fn batch_rows(epoch: usize, raw: &[Vec<u32>]) -> Vec<Vec<Value>> {
    raw.iter()
        .map(|r| vec![r[0] % (2 + 3 * epoch as u32), r[1] % 3, r[2] % 4, r[3] % 5])
        .collect()
}

fn assert_ids_eq(a: &GroupIds, b: &GroupIds, what: &str) {
    assert_eq!(a.row_ids(), b.row_ids(), "{what}: row ids");
    assert_eq!(a.counts(), b.counts(), "{what}: counts");
    assert_eq!(a.group_codes(), b.group_codes(), "{what}: group codes");
}

fn assert_counts_eq(a: &GroupCounts, b: &GroupCounts, what: &str) {
    assert_eq!(a.total, b.total, "{what}: total");
    assert_eq!(a.counts(), b.counts(), "{what}: counts");
    for g in 0..b.num_groups() {
        assert_eq!(a.key(g), b.key(g), "{what}: key {g}");
        assert_eq!(a.key_codes(g), b.key_codes(g), "{what}: key codes {g}");
    }
}

/// Checks one read on the live snapshot against the flat relation.
fn check_read(live: &Analyzer<Arc<ShardedRelation>>, flat: &Relation, read: Read, what: &str) {
    let reference = Analyzer::with_thread_budget(flat, ThreadBudget::serial());
    let budget = live.thread_budget();
    let ctx = live.context();
    match read {
        Read::Ids(s) | Read::Counts(s) => {
            let attrs = &sets()[s];
            let what = format!("{what} {read:?} {attrs}");
            if let Read::Ids(_) = read {
                let ids = ctx.group_ids_with(attrs, budget).unwrap();
                assert_ids_eq(&ids, &flat.group_ids(attrs).unwrap(), &what);
            }
            let counts = ctx.group_counts_with(attrs, budget).unwrap();
            assert_counts_eq(&counts, &flat.group_counts(attrs).unwrap(), &what);
            let h = live.entropy(attrs).unwrap();
            assert_eq!(
                h.to_bits(),
                reference.entropy(attrs).unwrap().to_bits(),
                "{what}: entropy"
            );
        }
        Read::Tree(t) => {
            let tree = &trees()[t];
            let j = live.j_measure(tree).unwrap();
            let rho = live.loss(tree).unwrap();
            let what = format!("{what} {read:?}");
            assert_eq!(
                j.to_bits(),
                reference.j_measure(tree).unwrap().to_bits(),
                "{what}: J"
            );
            assert_eq!(
                rho.to_bits(),
                reference.loss(tree).unwrap().to_bits(),
                "{what}: loss"
            );
        }
    }
}

/// Drives a store from `base` (split into `shards` shards) through the
/// `batches`, making the reads of `schedule[e]` after append `e`, and
/// checks each against the flat relation of the rows so far.  Returns the
/// extended fills over all epochs.
fn drive(
    base: &[Vec<Value>],
    shards: usize,
    budget: ThreadBudget,
    batches: &[Vec<Vec<Value>>],
    schedule: &[Vec<Read>],
) -> u64 {
    let mut rows = base.to_vec();
    let store = Arc::new(ShardedStore::new(
        relation(base).into_shards(shards).unwrap(),
    ));
    let live = LiveAnalyzer::with_thread_budget(Arc::clone(&store), budget);
    // Half the sets get ids (id seeds), half counts alone (count seeds).
    let warm = live.pin();
    let sets = (0..sets().len()).map(|s| {
        if s % 2 == 0 {
            Read::Ids(s)
        } else {
            Read::Counts(s)
        }
    });
    for r in sets.chain((0..trees().len()).map(Read::Tree)) {
        check_read(&warm, &relation(&rows), r, "warm-up");
    }
    drop(warm);
    let mut extended = 0;
    for (e, (batch, reads)) in batches.iter().zip(schedule).enumerate() {
        live.append_shard(relation(batch)).unwrap();
        rows.extend(batch.iter().cloned());
        let flat = relation(&rows);
        let pinned = live.pin();
        for &r in reads {
            check_read(&pinned, &flat, r, &format!("shards={shards} epoch {e}"));
        }
        extended += pinned.cache_stats().extended;
    }
    extended
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random appends (empty ones included) and random read schedules:
    /// every read at every epoch matches the flat relation bit for bit.
    #[test]
    fn every_epoch_reads_like_the_flat_relation(
        base in prop::collection::vec(prop::collection::vec(0..40u32, ARITY), 0..30),
        raw in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0..1000u32, ARITY), 0..12),
            1..7,
        ),
        codes in prop::collection::vec(prop::collection::vec(0..64u32, 0..4), 7),
    ) {
        let base = batch_rows(0, &base);
        let batches: Vec<Vec<Vec<Value>>> = raw
            .iter()
            .enumerate()
            .map(|(e, b)| batch_rows(e + 1, b))
            .collect();
        let schedule: Vec<Vec<Read>> = codes
            .into_iter()
            .map(|c| c.into_iter().map(read).collect())
            .collect();
        for shards in shard_counts() {
            for budget in thread_budgets() {
                drive(&base, shards, budget, &batches, &schedule);
            }
        }
    }
}

/// A fixed run through every edge at once: an empty append, appends that
/// push attribute 0's dictionary from 4 to 5 and from 8 to 9 values, and
/// sets left unread for three epochs.  Every read is an extension (none
/// regroups an old shard), and each matches the flat relation.
#[test]
fn lagging_seeds_extend_across_empty_and_widening_appends() {
    let base: Vec<Vec<Value>> = (0..12u32)
        .map(|i| vec![i % 4, i % 3, i % 2, i % 5])
        .collect();
    let batches: Vec<Vec<Vec<Value>>> = vec![
        vec![],
        (0..5u32).map(|i| vec![4 + i % 2, i % 3, 1, i]).collect(),
        vec![vec![0, 0, 0, 0]],
        (0..6u32).map(|i| vec![6 + i % 3, 2, i % 2, 4]).collect(),
    ];
    let every = |_: usize| -> Vec<Read> {
        (0..sets().len())
            .map(Read::Counts)
            .chain((0..trees().len()).map(Read::Tree))
            .collect()
    };
    // Epochs 1–3 read one tree only; epoch 4 reads everything, so most
    // seeds lag three shards behind.
    let schedule = vec![
        vec![Read::Tree(0)],
        vec![Read::Tree(0)],
        vec![Read::Tree(0)],
        every(4),
    ];
    for shards in shard_counts() {
        for budget in thread_budgets() {
            let extended = drive(&base, shards, budget, &batches, &schedule);
            assert!(extended > 0, "shards={shards}: no fill was extended");
        }
    }

    // No kernel run at the last epoch: every set read there was seeded.
    let store = Arc::new(ShardedStore::new(relation(&base).into_shards(3).unwrap()));
    let live = LiveAnalyzer::with_thread_budget(Arc::clone(&store), ThreadBudget::serial());
    let warm = live.pin();
    for t in &trees() {
        warm.loss(t).unwrap();
        warm.j_measure(t).unwrap();
    }
    let filled = warm.cache_stats();
    drop(warm);
    for batch in &batches {
        live.append_shard(relation(batch)).unwrap();
    }
    let last = live.pin();
    for t in &trees() {
        last.loss(t).unwrap();
        last.j_measure(t).unwrap();
    }
    let stats = last.cache_stats();
    assert_eq!((stats.misses, stats.derived), (0, 0), "{stats:?}");
    assert_eq!(
        stats.extended,
        filled.misses + filled.derived,
        "each table of the warm epoch is extended once, three shards late"
    );
}
