//! Parallel grouping / discovery-sweep scaling benchmark: the chunked
//! deterministic grouping kernel and the batch tree sweep at thread budgets
//! 1 / 2 / 4 / 8, on 100k-row relations.
//!
//! Three workloads:
//!
//! * `group_dense_100k` — 4 columns with small domains (mixed-radix dense
//!   kernel, rows dominate the work, groups are cheap to merge);
//! * `group_hash_100k`  — 4 correlated wide-domain columns (packed-`u64`
//!   hashing kernel, ~5k distinct groups);
//! * `sweep_30k`        — a cold discovery-style sweep: one fresh
//!   `Analyzer` fanning out over a dozen candidate trees per iteration.
//!
//! Before timing anything the parallel results are asserted **bit-identical**
//! to the serial kernel — speed never at the cost of the determinism
//! guarantee.  Results are printed and written to `BENCH_parallel.json`
//! (path overridable via `AJD_BENCH_JSON`); each `tN` record carries the
//! `t1` median as its baseline so the JSON records the speedup directly.
//!
//! The ≥ 1.5× speedup acceptance gate is opt-in
//! (`AJD_BENCH_ENFORCE_SPEEDUP=1`) and additionally requires ≥ 4 real
//! cores: shared CI runners make wall-clock speedups an unreliable
//! pass/fail signal, and on smaller machines (e.g. single-core
//! containers) a slowdown is physics, not a defect — the JSON records the
//! truth either way.

use std::path::PathBuf;
use std::time::Duration;

use ajd_bench::{time_median, BenchJson};
use ajd_core::Analyzer;
use ajd_jointree::JoinTree;
use ajd_random::generators::markov_chain_relation;
use ajd_relation::{AttrId, AttrSet, Relation, ThreadBudget};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Output path: `$AJD_BENCH_JSON` or `BENCH_parallel.json`.
fn out_path() -> PathBuf {
    std::env::var_os("AJD_BENCH_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("BENCH_parallel.json"))
}

/// 100k rows, four independent columns with domain `d` each: the dense
/// mixed-radix kernel when `d⁴` is small.
fn dense_relation(n: usize, d: u32) -> Relation {
    let mut rng = StdRng::seed_from_u64(20230618);
    let schema: Vec<AttrId> = (0..4usize).map(AttrId::from).collect();
    let mut r = Relation::with_capacity(schema, n).unwrap();
    for _ in 0..n {
        let row = [
            rng.random_range(0..d),
            rng.random_range(0..d),
            rng.random_range(0..d),
            rng.random_range(0..d),
        ];
        r.push_row(&row).unwrap();
    }
    r
}

/// 100k rows whose four columns are all functions of one hidden key drawn
/// from `0..keys`: domains of ~`keys` values each push the domain product
/// far past the dense cap (packed-`u64` hashing kernel) while the group
/// count stays at ~`keys` — the high-multiplicity shape real categorical
/// data has.
fn correlated_relation(n: usize, keys: u32) -> Relation {
    let mut rng = StdRng::seed_from_u64(97);
    let schema: Vec<AttrId> = (0..4usize).map(AttrId::from).collect();
    let mut r = Relation::with_capacity(schema, n).unwrap();
    for _ in 0..n {
        let k = rng.random_range(0..keys);
        let row = [
            k.wrapping_mul(2_654_435_761),
            k.wrapping_mul(0x9e37_79b9).rotate_left(7),
            k ^ 0x5bd1_e995,
            k.wrapping_add(0x85eb_ca6b).wrapping_mul(3),
        ];
        r.push_row(&row).unwrap();
    }
    r
}

/// Panics unless the chunked kernel is bit-identical to the serial one on
/// this exact workload, at every benchmarked worker count.
fn assert_deterministic(r: &Relation, attrs: &AttrSet) {
    let serial = r.group_ids(attrs).unwrap();
    for &t in &THREADS {
        let par = r.group_ids_chunked(attrs, t).unwrap();
        assert_eq!(par.row_ids(), serial.row_ids(), "row_ids differ at t={t}");
        assert_eq!(par.counts(), serial.counts(), "counts differ at t={t}");
        assert_eq!(
            par.group_codes(),
            serial.group_codes(),
            "group_codes differ at t={t}"
        );
    }
}

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

/// A discovery-style candidate sweep over 6 attributes: paths, stars and
/// partially-contracted trees, sharing most bags and separators.
fn sweep_trees() -> Vec<JoinTree> {
    vec![
        JoinTree::path(vec![
            bag(&[0, 1]),
            bag(&[1, 2]),
            bag(&[2, 3]),
            bag(&[3, 4]),
            bag(&[4, 5]),
        ])
        .unwrap(),
        JoinTree::star(vec![
            bag(&[0, 1]),
            bag(&[0, 2]),
            bag(&[0, 3]),
            bag(&[0, 4]),
            bag(&[0, 5]),
        ])
        .unwrap(),
        JoinTree::path(vec![
            bag(&[0, 1, 2]),
            bag(&[2, 3]),
            bag(&[3, 4]),
            bag(&[4, 5]),
        ])
        .unwrap(),
        JoinTree::path(vec![
            bag(&[0, 1]),
            bag(&[1, 2, 3]),
            bag(&[3, 4]),
            bag(&[4, 5]),
        ])
        .unwrap(),
        JoinTree::path(vec![
            bag(&[0, 1]),
            bag(&[1, 2]),
            bag(&[2, 3, 4]),
            bag(&[4, 5]),
        ])
        .unwrap(),
        JoinTree::path(vec![
            bag(&[0, 1]),
            bag(&[1, 2]),
            bag(&[2, 3]),
            bag(&[3, 4, 5]),
        ])
        .unwrap(),
        JoinTree::path(vec![bag(&[0, 1, 2, 3]), bag(&[3, 4]), bag(&[4, 5])]).unwrap(),
        JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2, 3, 4]), bag(&[4, 5])]).unwrap(),
        JoinTree::star(vec![
            bag(&[1, 0]),
            bag(&[1, 2]),
            bag(&[1, 3]),
            bag(&[1, 4]),
            bag(&[1, 5]),
        ])
        .unwrap(),
        JoinTree::path(vec![bag(&[0, 1, 2]), bag(&[2, 3, 4]), bag(&[4, 5])]).unwrap(),
        JoinTree::path(vec![
            bag(&[0, 2]),
            bag(&[2, 1]),
            bag(&[1, 3]),
            bag(&[3, 4]),
            bag(&[4, 5]),
        ])
        .unwrap(),
        JoinTree::new(vec![bag(&[0, 1, 2, 3, 4, 5])], vec![]).unwrap(),
    ]
}

fn main() {
    let budget = Duration::from_millis(400);
    let n = 100_000usize;
    let mut json = BenchJson::new();
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("parallel grouping & sweep scaling, N = {n} rows, host cores = {cores}");
    println!(
        "{:<26} {:>12} {:>12} {:>12} {:>12}",
        "workload", "t1", "t2", "t4", "t8"
    );

    let mut speedup_at_4 = f64::NEG_INFINITY;

    // --- grouping workloads -------------------------------------------------
    let workloads: Vec<(&str, Relation, AttrSet)> = vec![
        (
            "group_dense_100k",
            dense_relation(n, 12),
            bag(&[0, 1, 2, 3]),
        ),
        (
            "group_hash_100k",
            correlated_relation(n, 5000),
            bag(&[0, 1, 2, 3]),
        ),
    ];
    for (name, r, attrs) in &workloads {
        assert_deterministic(r, attrs);
        let mut medians = Vec::with_capacity(THREADS.len());
        for &t in &THREADS {
            let budget_t = ThreadBudget::new(t);
            medians.push(time_median(budget, || {
                r.group_ids_with(attrs, budget_t).unwrap()
            }));
        }
        let t1 = medians[0];
        for (&t, &m) in THREADS.iter().zip(&medians) {
            if t == 1 {
                json.record(&format!("parallel/{name}/t1"), m);
            } else {
                json.record_vs_baseline(&format!("parallel/{name}/t{t}"), m, t1);
            }
            if t == 4 {
                speedup_at_4 = speedup_at_4.max(t1.as_secs_f64() / m.as_secs_f64());
            }
        }
        println!(
            "{name:<26} {:>12.2?} {:>12.2?} {:>12.2?} {:>12.2?}",
            medians[0], medians[1], medians[2], medians[3]
        );
    }

    // --- discovery-style sweep ---------------------------------------------
    let mut rng = StdRng::seed_from_u64(5);
    let sweep_rel = markov_chain_relation(&mut rng, 6, 10, 30_000, 0.3, false)
        .expect("generator parameters are valid");
    let trees = sweep_trees();
    // Parallel and serial sweeps must agree bit-for-bit before being timed.
    let serial_js: Vec<f64> = Analyzer::new(&sweep_rel)
        .with_threads(1)
        .j_measures(&trees)
        .into_iter()
        .map(|j| j.unwrap())
        .collect();
    for &t in &THREADS[1..] {
        let js: Vec<f64> = Analyzer::new(&sweep_rel)
            .with_threads(t)
            .j_measures(&trees)
            .into_iter()
            .map(|j| j.unwrap())
            .collect();
        for (a, b) in serial_js.iter().zip(&js) {
            assert_eq!(a.to_bits(), b.to_bits(), "sweep J differs at t={t}");
        }
    }
    let mut medians = Vec::with_capacity(THREADS.len());
    for &t in &THREADS {
        // A fresh Analyzer per iteration: the *cold* sweep is the
        // discovery workload (a warm cache would measure nothing).
        medians.push(time_median(budget, || {
            Analyzer::new(&sweep_rel).with_threads(t).j_measures(&trees)
        }));
    }
    let t1 = medians[0];
    for (&t, &m) in THREADS.iter().zip(&medians) {
        if t == 1 {
            json.record("parallel/sweep_30k/t1", m);
        } else {
            json.record_vs_baseline(&format!("parallel/sweep_30k/t{t}"), m, t1);
        }
        if t == 4 {
            speedup_at_4 = speedup_at_4.max(t1.as_secs_f64() / m.as_secs_f64());
        }
    }
    println!(
        "{:<26} {:>12.2?} {:>12.2?} {:>12.2?} {:>12.2?}",
        "sweep_30k", medians[0], medians[1], medians[2], medians[3]
    );

    json.emit(&out_path());
    println!("best grouping-or-sweep speedup at 4 threads: {speedup_at_4:.2}x");

    // The 1.5x gate is opt-in (`AJD_BENCH_ENFORCE_SPEEDUP=1`): wall-clock
    // speedups on shared/contended runners are not a reliable pass/fail
    // signal, so CI records the trajectory JSON and a human (or a dedicated
    // perf host that sets the variable) judges the numbers.  The gate also
    // needs >= 4 real cores to be meaningful.
    let enforce = std::env::var_os("AJD_BENCH_ENFORCE_SPEEDUP").is_some_and(|v| v == "1");
    if enforce && cores >= 4 {
        assert!(
            speedup_at_4 >= 1.5,
            "on a >= 4-core host the best 4-thread speedup must reach 1.5x, got {speedup_at_4:.2}x"
        );
    } else if cores < 4 {
        println!(
            "host has {cores} core(s); the 1.5x @ 4-thread gate needs >= 4 cores and is skipped"
        );
    } else {
        println!("1.5x @ 4-thread gate not enforced (set AJD_BENCH_ENFORCE_SPEEDUP=1 to assert)");
    }
}
