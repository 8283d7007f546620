//! `analyze_cold`: library calls on storage whose caches were never
//! touched.
//!
//! Each op builds a fresh serial [`Analyzer`] and runs either `analyze` on
//! a seeded chain-window tree — over the flat layout, 1 shard or 8 shards —
//! or [`SchemaMiner::mine_with`] on the flat layout.  Sharded storage is
//! rebuilt from the flat rows outside the timed region before every op
//! (clones of a `ShardedRelation` would share its warm per-shard tier).
//! Grouping, shard merge, context misses, join counting and the KL sum do
//! the work; no transport is involved.

use crate::data;
use crate::stats::{ms_since, Digest};
use crate::trace::{span, Tracer};
use crate::Outcome;
use ajd_core::{Analyzer, DiscoveryConfig, LossReport, SchemaMiner};
use ajd_jointree::JoinTree;
use ajd_relation::{AttrSet, GroupKernel, Relation, ShardedRelation, ThreadBudget};
use std::time::Instant;

/// An op class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// `analyze` over the flat relation.
    Flat,
    /// `analyze` over 1 shard.
    Shard1,
    /// `analyze` over 8 shards.
    Shard8,
    /// `mine` over the flat relation.
    Mine,
}

impl Class {
    /// Name used in diagnostics and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Flat => "analyze_flat",
            Class::Shard1 => "analyze_shard1",
            Class::Shard8 => "analyze_shard8",
            Class::Mine => "mine",
        }
    }

    /// Shards of the layout the op runs on (`None` = flat).
    pub fn shards(self) -> Option<usize> {
        match self {
            Class::Shard1 => Some(1),
            Class::Shard8 => Some(8),
            Class::Flat | Class::Mine => None,
        }
    }
}

/// The `analyze` layouts; each block of the stream runs every tree on each.
const LAYOUTS: [Class; 3] = [Class::Flat, Class::Shard1, Class::Shard8];
/// Distinct chain-window trees, all with [`BAGS`] bags (an `analyze` costs
/// roughly in proportion to its bag count, so this keeps the ops one cost
/// class).
pub const TREES: usize = 4;
/// Bags per tree.
pub const BAGS: usize = 4;
/// `mine` ops per block: a quarter of the stream.
const MINES: usize = TREES;
/// Nominal ops per second used to size the op count from `--seconds`.
const NOMINAL_OPS_S: f64 = 6.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 5;

/// The miner's configuration.
pub fn discovery_config() -> DiscoveryConfig {
    DiscoveryConfig {
        max_bag_size: 3,
        ..DiscoveryConfig::default()
    }
}

/// The fixed trees `analyze` ops cycle through (see [`data::schema_rng`]).
pub fn trees() -> Vec<Vec<Vec<usize>>> {
    let mut rng = data::schema_rng(21);
    let mut trees = Vec::with_capacity(TREES);
    while trees.len() < TREES {
        let bags = data::chain_window(&mut rng);
        if bags.len() == BAGS && !trees.contains(&bags) {
            trees.push(bags);
        }
    }
    trees
}

/// One op of the stream: its class and, for `analyze`, its tree.
#[derive(Debug, Clone, Copy)]
struct Op {
    /// The op class.
    pub class: Class,
    /// Index into [`trees`].
    pub tree: usize,
}

/// The seeded op stream: `blocks` blocks, each a shuffle of every
/// (tree, layout) `analyze` plus [`MINES`] `mine` ops, so the class and
/// tree composition is the same for every seed.
fn stream(seed: u64, blocks: usize) -> Vec<Op> {
    let mut rng = data::rng(seed, 22);
    let mut ops = Vec::new();
    for _ in 0..blocks {
        let mut block: Vec<Op> = (0..TREES)
            .flat_map(|tree| LAYOUTS.map(|class| Op { class, tree }))
            .chain((0..MINES).map(|tree| Op {
                class: Class::Mine,
                tree,
            }))
            .collect();
        data::shuffle(&mut rng, &mut block);
        ops.extend(block);
    }
    ops
}

/// Every number of a report, as bits, for exact comparison.
fn fingerprint(r: &LossReport) -> Vec<u64> {
    let mut v = vec![
        r.n,
        r.distinct_n,
        r.num_bags as u64,
        r.join_size as u64,
        (r.join_size >> 64) as u64,
        r.spurious as u64,
        (r.spurious >> 64) as u64,
        r.rho.to_bits(),
        r.log1p_rho.to_bits(),
        r.j_measure.to_bits(),
        r.kl_nats.to_bits(),
        r.rho_lower_bound.to_bits(),
        r.prop51_bound.to_bits(),
        r.theorem22.max_cmi.to_bits(),
        r.theorem22.j.to_bits(),
        r.theorem22.sum_cmi.to_bits(),
    ];
    for m in &r.per_mvd {
        v.extend([
            m.cmi_nats.to_bits(),
            m.rho.to_bits(),
            m.log1p_rho.to_bits(),
            m.domain_sizes.0,
            m.domain_sizes.1,
            m.domain_sizes.2,
        ]);
    }
    v
}

/// Fresh sharded storage over `flat`: every shard is rebuilt, so no
/// per-shard table exists yet.
pub fn fresh_shards(flat: &Relation, shards: usize) -> ShardedRelation {
    flat.clone()
        .into_shards(shards)
        .expect("the relation splits into shards")
}

/// Counters a cold op must start from: zero context hits and misses, and
/// (sharded) zero shard-tier hits and misses.
fn cold_violation<S: GroupKernel>(
    an: &Analyzer<S>,
    shards: Option<&ShardedRelation>,
) -> Option<String> {
    let ctx = an.cache_stats();
    let shard = shards
        .map(ShardedRelation::shard_cache_stats)
        .unwrap_or_default();
    (ctx.hits + ctx.misses + shard.hits + shard.misses != 0).then(|| {
        format!(
            "op started warm: context {}/{} hits/misses, shard tier {}/{}",
            ctx.hits, ctx.misses, shard.hits, shard.misses
        )
    })
}

/// The answer of one op, reduced to comparable bits.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Answer {
    /// Fingerprint of an `analyze` report.
    Report(Vec<u64>),
    /// Bags of a mined schema.
    Bags(Vec<AttrSet>),
}

fn analyze_on<S: GroupKernel>(
    an: &Analyzer<S>,
    tree: &JoinTree,
    tracer: Option<&Tracer>,
) -> Option<Answer> {
    let _s = span(tracer, "core.analyze");
    an.analyze(tree)
        .ok()
        .map(|r| Answer::Report(fingerprint(&r)))
}

/// Runs one op on fresh storage; returns the answer and the timed ms (the
/// storage rebuild is outside the timed region).
fn run_op(
    flat: &Relation,
    op: Op,
    tree: &JoinTree,
    tracer: Option<&Tracer>,
    violations: &mut Vec<String>,
) -> (Option<Answer>, f64) {
    let serial = ThreadBudget::serial();
    match op.class.shards() {
        Some(k) => {
            let sharded = {
                let _s = span(tracer, "untimed.rebuild_shards");
                fresh_shards(flat, k)
            };
            let an = Analyzer::with_thread_budget(&sharded, serial);
            violations.extend(cold_violation(&an, Some(&sharded)));
            let t = Instant::now();
            let answer = analyze_on(&an, tree, tracer);
            (answer, ms_since(t))
        }
        None => {
            let an = Analyzer::with_thread_budget(flat, serial);
            violations.extend(cold_violation(&an, None));
            let t = Instant::now();
            let answer = if op.class == Class::Mine {
                let _s = span(tracer, "core.mine");
                SchemaMiner::new(discovery_config())
                    .mine_with(&an.batch().with_threads(1))
                    .ok()
                    .map(|m| Answer::Bags(m.bags().to_vec()))
            } else {
                analyze_on(&an, tree, tracer)
            };
            (answer, ms_since(t))
        }
    }
}

/// Reference answers: one fresh flat analysis per tree, one mine.
fn references(flat: &Relation, trees: &[JoinTree]) -> (Vec<Answer>, Answer) {
    let serial = ThreadBudget::serial();
    let reports = trees
        .iter()
        .map(|t| {
            let an = Analyzer::with_thread_budget(flat, serial);
            Answer::Report(fingerprint(&an.analyze(t).expect("reference analyze")))
        })
        .collect();
    let mined = Analyzer::with_thread_budget(flat, serial)
        .mine(discovery_config())
        .expect("reference mine");
    (reports, Answer::Bags(mined.bags().to_vec()))
}

/// Runs the workload: [`SETUPS`] set-ups, then the timed ops.
pub fn run(seed: u64, seconds: u64, tracer: Option<&Tracer>) -> Outcome {
    let block = TREES * LAYOUTS.len() + MINES;
    let blocks = ((seconds as f64 * NOMINAL_OPS_S) / block as f64)
        .round()
        .max(1.0) as usize;
    let mut out = Outcome {
        slice_ops: block * (blocks / 10).max(1),
        ..Outcome::default()
    };
    let mut setup = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let flat = data::markov(seed, 1, data::ROWS);
        let tree_bags = trees();
        let trees: Vec<JoinTree> = tree_bags.iter().map(|b| data::tree_of(b)).collect();
        let ops = stream(seed, blocks);
        out.setup_s.push(start.elapsed().as_secs_f64());
        setup = Some((flat, tree_bags, trees, ops));
    }
    let (flat, tree_bags, trees, ops) = setup.expect("at least one set-up");
    let (reports, mined) = references(&flat, &trees);

    let mut digest = Digest::default();
    data::digest_relation(&mut digest, &flat);
    for bags in &tree_bags {
        for bag in bags {
            digest.bytes(&bag.iter().map(|&a| a as u8).collect::<Vec<u8>>());
        }
        digest.u64(u64::MAX);
    }
    for (i, &op) in ops.iter().enumerate() {
        digest.u64(op.class as u64);
        digest.u64(op.tree as u64);
        if let Some(t) = tracer {
            t.begin_op(i as u64);
        }
        let (answer, ms) = run_op(
            &flat,
            op,
            &trees[op.tree],
            tracer,
            &mut out.guard_violations,
        );
        out.record(op.class.name(), ms);
        out.attempted += 1;
        let expected = if op.class == Class::Mine {
            &mined
        } else {
            &reports[op.tree]
        };
        if answer.as_ref() != Some(expected) {
            out.failed += 1;
        }
    }
    out.digest = digest.value();
    out
}
