//! End-to-end equality of the full measure stack over sharded vs flat
//! inputs.
//!
//! `Analyzer` (one tree or a fan-out) and `SchemaMiner` are generic over
//! [`ajd_relation::GroupKernel`]; these tests pin that an
//! [`ajd_relation::ShardedRelation`] drops into all of them **unchanged**
//! and produces bit-identical reports — every float compared by bit
//! pattern, not tolerance — on a warehouse-style fixture (the
//! `warehouse_schema` example's shape: orders × products × a dirty
//! city → region hierarchy).
//!
//! The id-level KL sum is also pinned bit for bit against the tuple-level
//! `TreeFactoredDistribution::log_prob` reference at every layout, and a
//! cold serial `analyze` is pinned to one kernel grouping per distinct
//! attribute set.
//!
//! The CI `sharded-matrix` job runs this suite under
//! `AJD_TEST_SHARDS={1,3,8}` × `AJD_TEST_THREADS={1,4}`; the environment
//! values extend the fixed shard-count / budget lists below.

use ajd_core::{Analyzer, DiscoveryConfig, SchemaMiner};
use ajd_info::TreeFactoredDistribution;
use ajd_jointree::mvd::ordered_support;
use ajd_jointree::JoinTree;
use ajd_relation::{AttrId, AttrSet, Relation, ShardedRelation, ThreadBudget};
use std::collections::BTreeSet;

/// Reads a positive integer from the environment (the CI matrix knobs).
fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name).ok()?.trim().parse().ok()
}

fn shard_counts() -> Vec<usize> {
    let mut counts = vec![1usize, 3, 5, 8];
    if let Some(n) = env_usize("AJD_TEST_SHARDS") {
        if n > 0 && !counts.contains(&n) {
            counts.push(n);
        }
    }
    counts
}

fn batch_threads() -> Vec<usize> {
    let mut threads = vec![1usize, 4];
    if let Some(n) = env_usize("AJD_TEST_THREADS") {
        if n > 0 && !threads.contains(&n) {
            threads.push(n);
        }
    }
    threads
}

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

/// A denormalised warehouse "sales" relation over
/// (order, product, city, region): region is a function of city except for
/// a few dirty rows, products are sold independently of geography.
/// Deterministic xorshift so every run (and every matrix cell) sees the
/// same fixture.
fn warehouse_fixture(rows: u32, dirty: u32) -> Relation {
    let schema: Vec<AttrId> = (0..4usize).map(AttrId::from).collect();
    let mut r = Relation::with_capacity(schema, rows as usize).unwrap();
    let mut x = 0x2545_f491u32;
    for o in 0..rows {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let product = x % 8;
        let city = (x >> 8) % 12;
        let region = if o < dirty {
            (city % 3 + 1) % 3
        } else {
            city % 3
        };
        r.push_row(&[o, product, city, region]).unwrap();
    }
    r
}

/// The candidate schemas the warehouse example weighs against each other.
fn candidate_trees() -> Vec<JoinTree> {
    vec![
        // Snowflake: facts + city→region dimension.
        JoinTree::new(vec![bag(&[0, 1, 2]), bag(&[2, 3])], vec![(0, 1)]).unwrap(),
        // Star on the order key.
        JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
        // Path through the hierarchy.
        JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
        // The trivial single-bag (lossless) schema.
        JoinTree::new(vec![bag(&[0, 1, 2, 3])], vec![]).unwrap(),
    ]
}

/// Every field of two loss reports must agree bit for bit.
fn assert_reports_identical(a: &ajd_core::LossReport, b: &ajd_core::LossReport, what: &str) {
    assert_eq!(a.n, b.n, "{what}: n");
    assert_eq!(a.distinct_n, b.distinct_n, "{what}: distinct_n");
    assert_eq!(a.join_size, b.join_size, "{what}: join_size");
    assert_eq!(a.spurious, b.spurious, "{what}: spurious");
    assert_eq!(a.rho.to_bits(), b.rho.to_bits(), "{what}: rho");
    assert_eq!(
        a.j_measure.to_bits(),
        b.j_measure.to_bits(),
        "{what}: j_measure"
    );
    assert_eq!(a.kl_nats.to_bits(), b.kl_nats.to_bits(), "{what}: kl");
    assert_eq!(
        a.prop51_bound.to_bits(),
        b.prop51_bound.to_bits(),
        "{what}: prop51"
    );
    assert_eq!(a.per_mvd.len(), b.per_mvd.len(), "{what}: per_mvd length");
    for (ma, mb) in a.per_mvd.iter().zip(&b.per_mvd) {
        assert_eq!(
            ma.cmi_nats.to_bits(),
            mb.cmi_nats.to_bits(),
            "{what}: per-MVD cmi"
        );
        assert_eq!(ma.rho.to_bits(), mb.rho.to_bits(), "{what}: per-MVD rho");
        assert_eq!(ma.domain_sizes, mb.domain_sizes, "{what}: per-MVD domains");
    }
}

#[test]
fn analyzer_reports_identical_on_sharded_and_flat_warehouse() {
    let flat = warehouse_fixture(2000, 25);
    let flat_analyzer = Analyzer::new(&flat);
    for n in shard_counts() {
        let sharded: ShardedRelation = flat.clone().into_shards(n).unwrap();
        let sharded_analyzer = Analyzer::new(&sharded);
        for (i, tree) in candidate_trees().iter().enumerate() {
            let a = flat_analyzer.analyze(tree).unwrap();
            let b = sharded_analyzer.analyze(tree).unwrap();
            assert_reports_identical(&a, &b, &format!("shards={n} tree={i}"));
        }
        // Scalar measures route through the same generic path.
        let y = bag(&[2, 3]);
        assert_eq!(
            flat_analyzer.entropy(&y).unwrap().to_bits(),
            sharded_analyzer.entropy(&y).unwrap().to_bits()
        );
        assert!(sharded_analyzer.cache_stats().hits > 0);
    }
}

#[test]
fn analyzer_fan_out_over_shards_matches_flat_at_every_thread_budget() {
    let flat = warehouse_fixture(1500, 10);
    let trees = candidate_trees();
    let flat_reports = Analyzer::new(&flat).with_threads(1).analyze_all(&trees);
    for n in shard_counts() {
        let sharded = flat.clone().into_shards(n).unwrap();
        for t in batch_threads() {
            let batch = Analyzer::new(&sharded).with_threads(t);
            let reports = batch.analyze_all(&trees);
            for (i, (a, b)) in flat_reports.iter().zip(&reports).enumerate() {
                assert_reports_identical(
                    a.as_ref().unwrap(),
                    b.as_ref().unwrap(),
                    &format!("shards={n} threads={t} tree={i}"),
                );
            }
        }
    }
}

#[test]
fn mining_a_sharded_warehouse_finds_the_flat_schema() {
    let flat = warehouse_fixture(800, 5);
    let config = DiscoveryConfig {
        j_threshold: 0.05,
        ..DiscoveryConfig::default()
    };
    let flat_mined = SchemaMiner::new(config.clone()).mine(&flat).unwrap();
    for n in shard_counts() {
        let sharded = flat.clone().into_shards(n).unwrap();
        let mined = SchemaMiner::new(config.clone())
            .mine_with(&Analyzer::new(&sharded))
            .unwrap();
        assert_eq!(
            mined.j_measure.to_bits(),
            flat_mined.j_measure.to_bits(),
            "shards={n}: mined J differs"
        );
        assert_eq!(
            mined.tree.bags(),
            flat_mined.tree.bags(),
            "shards={n}: mined schema differs"
        );
    }
}

#[test]
fn sharded_analyzer_via_analyzer_mine_matches_flat() {
    let flat = warehouse_fixture(600, 3);
    let sharded = flat.clone().into_shards(4).unwrap();
    let a = Analyzer::new(&flat)
        .mine(DiscoveryConfig::default())
        .unwrap();
    let b = Analyzer::new(&sharded)
        .mine(DiscoveryConfig::default())
        .unwrap();
    assert_eq!(a.j_measure.to_bits(), b.j_measure.to_bits());
    assert_eq!(a.tree.bags(), b.tree.bags());
}

#[test]
fn kl_report_is_bit_identical_to_the_tuple_level_reference_at_every_layout() {
    let flat = warehouse_fixture(1200, 15);
    for (i, tree) in candidate_trees().iter().enumerate() {
        let reference = TreeFactoredDistribution::new(&flat, tree)
            .unwrap()
            .kl_by_tuples(&flat)
            .unwrap();
        for n in shard_counts() {
            let sharded = flat.clone().into_shards(n).unwrap();
            for t in batch_threads() {
                let got = Analyzer::new(&sharded)
                    .with_threads(t)
                    .kl_report(tree)
                    .unwrap();
                assert_eq!(
                    got.kl_nats.to_bits(),
                    reference.kl_nats.to_bits(),
                    "shards={n} threads={t} tree={i}: kl"
                );
                assert_eq!(
                    got.support_size, reference.support_size,
                    "shards={n} threads={t} tree={i}: support"
                );
            }
        }
    }
}

/// A five-column chain `A0 → A1 → … → A4` (each column a noisy function
/// of the previous one), so every bag of a chain tree carries a real
/// dependency and the exclusive sides of its support MVDs span several
/// attributes.
fn chain_fixture(rows: u32) -> Relation {
    let schema: Vec<AttrId> = (0..5usize).map(AttrId::from).collect();
    let mut r = Relation::with_capacity(schema, rows as usize).unwrap();
    let mut x = 0x9e37_79b9u32;
    for _ in 0..rows {
        let mut row = [0u32; 5];
        for c in 0..row.len() {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let prev = if c == 0 { 0 } else { row[c - 1] };
            row[c] = (prev * 3 + x % 4) % 9;
        }
        r.push_row(&row).unwrap();
    }
    r
}

/// Every attribute set a full `analyze` of `tree` groups: the bags, the
/// separators, Ω, and each support MVD's separator and both sides (for
/// the Theorem 5.1 domain sizes, also its exclusive sides when they span
/// several attributes; a single attribute is read from its dictionary).
fn analyzed_sets(tree: &JoinTree) -> BTreeSet<AttrSet> {
    let mut sets: BTreeSet<AttrSet> = tree.bags().iter().cloned().collect();
    sets.extend((0..tree.num_edges()).map(|e| tree.separator(e)));
    sets.insert(tree.attributes());
    for mvd in ordered_support(&tree.rooted(0).unwrap()) {
        for side in [mvd.left_exclusive(), mvd.right_exclusive()] {
            if side.len() > 1 {
                sets.insert(side);
            }
        }
        sets.extend([mvd.lhs, mvd.left, mvd.right]);
    }
    sets
}

/// The work counters are exact: a cold serial `analyze` fills each
/// distinct attribute set it touches once, on every layout.  The kernel
/// groups the first sets; each later set that a resident subset refines
/// within the dense cap (or, above it, a resident superset coarsens) is
/// derived instead.  Each count table whose ids are resident is decoded,
/// not regrouped, and counts as a hit.  On sharded sources every shard
/// groups each kernel set once; a derived set fills no per-shard table.
#[test]
fn cold_serial_analyze_groups_each_attribute_set_once() {
    let flat = chain_fixture(3000);
    let tree =
        JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3]), bag(&[3, 4])]).unwrap();
    let sets = analyzed_sets(&tree).len() as u64;
    let (kernel, derived) = (7, 5);
    assert_eq!(kernel + derived, sets);
    let reference = Analyzer::with_thread_budget(&flat, ThreadBudget::serial())
        .analyze(&tree)
        .unwrap();

    let an = Analyzer::with_thread_budget(&flat, ThreadBudget::serial());
    an.analyze(&tree).unwrap();
    let stats = an.cache_stats();
    assert_eq!((stats.misses, stats.derived), (kernel, derived), "flat");

    for shards in [1usize, 8] {
        let sharded = flat.clone().into_shards(shards).unwrap();
        let an = Analyzer::with_thread_budget(&sharded, ThreadBudget::serial());
        let report = an.analyze(&tree).unwrap();
        assert_reports_identical(&reference, &report, &format!("shards={shards}"));
        let stats = an.cache_stats();
        assert_eq!(
            (stats.misses, stats.derived),
            (kernel, derived),
            "shards={shards}: the flat split of merged fills"
        );
        assert_eq!(
            sharded.shard_cache_stats().misses,
            shards as u64 * kernel,
            "shards={shards}: each shard groups each kernel set once"
        );
    }
}
