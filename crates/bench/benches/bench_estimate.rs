//! Estimation-tier benchmark: `EstimatedAnalyzer` against the exact
//! `Analyzer` on a large random-model instance.
//!
//! Workload: a seeded Markov-chain relation with one million rows over 3
//! attributes of domain 32 — heavy tuple repetition (joint support ≤ 32³ ≪
//! 10⁶), so every entropy in play is genuinely estimable from a sample.
//! (A Definition 5.2 random relation would be the *wrong* workload here:
//! its rows are distinct by construction, so `H(Ω) = ln N` cannot be
//! recovered from any sublinear sample.)  At the default ε = 0.1 the
//! McDiarmid planner sizes the sample at roughly 10⁵ rows, so the
//! estimator touches ~10% of the relation; the bench times the *whole*
//! estimated path (plan + seeded sample + gather + measure) against the
//! exact measure over all rows.
//!
//! Before timing anything, the bench asserts the correctness contract the
//! timings rest on: on a relation small enough that the planned sample
//! covers it, the estimator must take the fallback path and agree
//! bit-for-bit with the exact analyzer on every measure.
//!
//! Alongside the wall-clock records, the bench writes the *observed vs
//! planned* estimation error to `BENCH_estimate.json` (see
//! `ajd_bench::perf`), after asserting it stays within ε: the
//! absolute deviation |estimate − exact| is encoded in nano-nats (1 nat =
//! 10⁹ record units) with the planned ε as the baseline, so the record's
//! `speedup` field reads as the safety margin planned/observed ≥ 1.
//!
//! Read the two wall-clock records together: a *single* entropy query is
//! the estimator's worst case (one grouping pass is also the exact
//! kernel's cheapest query, so the record mostly prices the fixed
//! sample-and-gather cost and sits near or below 1×), while the J-measure
//! — several groupings over the same sample — is where the sublinear tier
//! pulls ahead; compound analyses amortise the sample further.

use std::time::Duration;

use ajd_bench::{time_median, BenchJson};
use ajd_core::{Analyzer, EstimateConfig, EstimatedAnalyzer};
use ajd_jointree::JoinTree;
use ajd_random::generators::{markov_chain_relation, random_relation};
use ajd_relation::{AttrSet, Relation};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

fn tree() -> JoinTree {
    JoinTree::new(vec![bag(&[0, 2]), bag(&[1, 2])], vec![(0, 1)]).unwrap()
}

/// One million Markov-chain rows over 3 attributes of domain 32.
fn workload() -> Relation {
    markov_chain_relation(&mut StdRng::seed_from_u64(7), 3, 32, 1_000_000, 0.25, false).unwrap()
}

/// Panics if the estimator's fallback path differs from the exact analyzer
/// in any bit — the correctness contract underneath the timings: the
/// estimated tier is the exact tier plus a sampling plan, nothing else.
fn assert_fallback_matches_exact() {
    let r = random_relation(&mut StdRng::seed_from_u64(7), &[32, 32, 8], 1_500).unwrap();
    let exact = Analyzer::new(&r);
    let est = EstimatedAnalyzer::new(&r, EstimateConfig::default()).unwrap();
    assert!(
        est.is_fallback(),
        "1.5k rows must be under the default ε = 0.1 sampling plan"
    );
    let t = tree();
    let h = est.entropy(&bag(&[0, 1])).unwrap();
    assert_eq!(
        h.value.to_bits(),
        exact.entropy(&bag(&[0, 1])).unwrap().to_bits()
    );
    assert_eq!(h.epsilon.to_bits(), 0f64.to_bits());
    assert_eq!(
        est.j_measure(&t).unwrap().value.to_bits(),
        exact.j_measure(&t).unwrap().to_bits()
    );
    assert_eq!(
        est.loss(&t).unwrap().value.to_bits(),
        exact.loss(&t).unwrap().to_bits()
    );
}

fn main() {
    assert_fallback_matches_exact();
    let r = workload();
    let attrs = bag(&[0, 1]);
    let t = tree();
    let cfg = EstimateConfig::default();
    let budget = Duration::from_millis(800);

    let exact_entropy = time_median(budget, || Analyzer::new(&r).entropy(&attrs).unwrap());
    let est_entropy = time_median(budget, || {
        EstimatedAnalyzer::new(&r, cfg)
            .unwrap()
            .entropy(&attrs)
            .unwrap()
    });
    let exact_j = time_median(budget, || Analyzer::new(&r).j_measure(&t).unwrap());
    let est_j = time_median(budget, || {
        EstimatedAnalyzer::new(&r, cfg)
            .unwrap()
            .j_measure(&t)
            .unwrap()
    });

    let mut json = BenchJson::new();
    json.record_vs_baseline("estimate/entropy_1m_estimated", est_entropy, exact_entropy);
    json.record_vs_baseline("estimate/j_measure_1m_estimated", est_j, exact_j);

    // Observed vs planned error, encoded in nano-nats so the trajectory file
    // needs no second record shape: `median_ns` is |estimate − exact|·10⁹,
    // `baseline_ns` the planned ε·10⁹; `speedup` = planned/observed margin.
    let est = EstimatedAnalyzer::new(&r, cfg).unwrap();
    let h = est.entropy(&attrs).unwrap();
    let h_err = (h.value - Analyzer::new(&r).entropy(&attrs).unwrap()).abs();
    assert!(
        h_err <= h.epsilon,
        "observed entropy error {h_err} exceeds the planned ε = {}",
        h.epsilon
    );
    json.record_vs_baseline(
        "estimate/entropy_1m_error_nano_nats",
        Duration::from_nanos((h_err * 1e9).round() as u64),
        Duration::from_nanos((h.epsilon * 1e9).round() as u64),
    );
    let j = est.j_measure(&t).unwrap();
    let j_err = (j.value - Analyzer::new(&r).j_measure(&t).unwrap()).abs();
    assert!(
        j_err <= j.epsilon,
        "observed J-measure error {j_err} exceeds the planned ε = {}",
        j.epsilon
    );
    json.record_vs_baseline(
        "estimate/j_measure_1m_error_nano_nats",
        Duration::from_nanos((j_err * 1e9).round() as u64),
        Duration::from_nanos((j.epsilon * 1e9).round() as u64),
    );
    json.emit(&BenchJson::default_path("estimate"));
}
