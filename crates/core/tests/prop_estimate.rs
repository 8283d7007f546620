//! Property and statistical tests of the estimation tier.
//!
//! Three contracts, in order of strictness:
//!
//! 1. **Fallback bit-identity**: when the planned sample would cover the
//!    relation, [`EstimatedAnalyzer`] must answer bit-identically to the
//!    exact [`Analyzer`], with ε = 0 and no seed.
//! 2. **Determinism**: a fixed `(relation, seed, ε)` yields bit-identical
//!    estimates across thread budgets, across flat vs sharded storage, and
//!    across repeated construction.
//! 3. **Calibration**: on random-model instances the empirical estimation
//!    error stays within the planned ε at (well above) the claimed
//!    confidence, over a seeded, fully deterministic trial loop.

use ajd_core::{Analyzer, EstimateConfig, EstimatedAnalyzer, LossEngine, SchemaMiner};
use ajd_jointree::JoinTree;
use ajd_random::generators::{markov_chain_relation, random_relation};
use ajd_relation::{AttrId, AttrSet, Relation, ThreadBudget, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn relation_strategy(
    arity: usize,
    domain: Value,
    max_rows: usize,
) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0..domain, arity), 1..max_rows).prop_map(
        move |rows| {
            let schema: Vec<AttrId> = (0..arity).map(AttrId::from).collect();
            Relation::from_rows(schema, &rows).expect("generated rows have the right arity")
        },
    )
}

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// On small relations every planned sample covers the relation, so the
    /// estimator must take the exact path and agree bit-for-bit with
    /// `Analyzer` on every measure, reporting ε = 0 and no seed.
    #[test]
    fn fallback_is_bit_identical_to_the_exact_analyzer(r in relation_strategy(3, 4, 60)) {
        let exact = Analyzer::new(&r);
        let est = EstimatedAnalyzer::new(&r, EstimateConfig::default()).unwrap();
        prop_assert!(est.is_fallback());
        prop_assert_eq!(est.sample_rows(), r.len() as u64);

        let tree = JoinTree::new(vec![bag(&[0, 2]), bag(&[1, 2])], vec![(0, 1)]).unwrap();
        let cases = [
            (est.entropy(&bag(&[0, 1])).unwrap(), exact.entropy(&bag(&[0, 1])).unwrap()),
            (
                est.mutual_information(&bag(&[0]), &bag(&[1])).unwrap(),
                exact.mutual_information(&bag(&[0]), &bag(&[1])).unwrap(),
            ),
            (
                est.cmi(&bag(&[0]), &bag(&[1]), &bag(&[2])).unwrap(),
                exact.cmi(&bag(&[0]), &bag(&[1]), &bag(&[2])).unwrap(),
            ),
            (est.j_measure(&tree).unwrap(), exact.j_measure(&tree).unwrap()),
            (est.loss(&tree).unwrap(), exact.loss(&tree).unwrap()),
        ];
        for (e, x) in cases {
            prop_assert_eq!(e.value.to_bits(), x.to_bits());
            prop_assert!(e.is_exact());
            prop_assert_eq!(e.epsilon.to_bits(), 0f64.to_bits());
            prop_assert_eq!(e.seed, None);
            prop_assert_eq!(e.total_rows, r.len() as u64);
        }
    }

    /// The `LossEngine` view of the estimator and of the exact analyzer
    /// agree on the fallback path — so `mine_with` over either tier
    /// reproduces `mine` exactly on small inputs.
    #[test]
    fn mine_with_agrees_across_tiers_on_fallback(r in relation_strategy(3, 3, 40)) {
        let miner = SchemaMiner::default();
        let exact = miner.mine(&r).unwrap();
        let est = EstimatedAnalyzer::new(&r, EstimateConfig::default()).unwrap();
        let mined = miner.mine_with(&est).unwrap();
        prop_assert_eq!(exact.tree.bags(), mined.tree.bags());
        prop_assert_eq!(exact.j_measure.to_bits(), mined.j_measure.to_bits());
        prop_assert_eq!(exact.rho_lower_bound.to_bits(), mined.rho_lower_bound.to_bits());
    }
}

/// A fixed `(relation, seed, ε)` must produce bit-identical estimates no
/// matter the thread budget or the storage layout (flat vs sharded, any
/// shard count) — the gathered sample is defined by global row order, not
/// by layout.
#[test]
fn sampled_estimates_are_deterministic_across_budgets_and_shardings() {
    let mut rng = StdRng::seed_from_u64(0xE57);
    let r = random_relation(&mut rng, &[64, 64, 8], 6_000).unwrap();
    let cfg = EstimateConfig::default().with_epsilon(0.5).with_seed(9);
    let tree = JoinTree::new(vec![bag(&[0, 2]), bag(&[1, 2])], vec![(0, 1)]).unwrap();

    let fingerprint = |est: &dyn LossEngine| -> Vec<u64> {
        let h = est.entropy_estimate(&bag(&[0, 1])).unwrap();
        let c = est
            .cmi_estimate(&bag(&[0]), &bag(&[1]), &bag(&[2]))
            .unwrap();
        let j = est.j_measure_estimate(&tree).unwrap();
        let l = est.loss_estimate(&tree).unwrap();
        let mut out = Vec::new();
        for e in [h, c, j, l] {
            out.extend([
                e.value.to_bits(),
                e.epsilon.to_bits(),
                e.delta.to_bits(),
                e.seed.unwrap(),
                e.sample_rows,
                e.total_rows,
            ]);
        }
        out
    };

    let flat_serial =
        EstimatedAnalyzer::with_thread_budget(&r, cfg, ThreadBudget::serial()).unwrap();
    assert!(!flat_serial.is_fallback(), "ε = 0.5 must sample 6k rows");
    let reference = fingerprint(&flat_serial);

    let flat_parallel =
        EstimatedAnalyzer::with_thread_budget(&r, cfg, ThreadBudget::new(4)).unwrap();
    assert_eq!(
        reference,
        fingerprint(&flat_parallel),
        "thread budget leaked"
    );

    for shards in [1usize, 3, 7] {
        let sharded = r.clone().into_shards(shards).unwrap();
        let est =
            EstimatedAnalyzer::with_thread_budget(&sharded, cfg, ThreadBudget::new(2)).unwrap();
        assert_eq!(
            reference,
            fingerprint(&est),
            "sharding into {shards} changed a sampled estimate"
        );
    }

    // Same construction twice: bit-identical (no ambient entropy anywhere).
    let again = EstimatedAnalyzer::with_thread_budget(&r, cfg, ThreadBudget::serial()).unwrap();
    assert_eq!(reference, fingerprint(&again));

    // A different seed draws a different sample (the seed is load-bearing).
    let other =
        EstimatedAnalyzer::with_thread_budget(&r, cfg.with_seed(10), ThreadBudget::serial())
            .unwrap();
    assert_ne!(reference, fingerprint(&other));
}

/// Calibration on random-model instances: over a deterministic loop of
/// seeded trials, the observed |estimate − exact| exceeds the reported ε
/// far less often than the claimed δ allows.
#[test]
fn empirical_error_stays_within_planned_epsilon() {
    let trials = 30u64;
    let delta = 0.1;
    let mut entropy_violations = 0u32;
    let mut cmi_violations = 0u32;
    for t in 0..trials {
        let mut rng = StdRng::seed_from_u64(40_000 + t);
        let r = random_relation(&mut rng, &[128, 128], 6_000).unwrap();
        let exact = Analyzer::new(&r);
        let cfg = EstimateConfig::default()
            .with_epsilon(0.5)
            .with_delta(delta)
            .with_seed(t);
        let est = EstimatedAnalyzer::new(&r, cfg).unwrap();
        assert!(!est.is_fallback());

        let h = est.entropy(&bag(&[0])).unwrap();
        if (h.value - exact.entropy(&bag(&[0])).unwrap()).abs() > h.epsilon {
            entropy_violations += 1;
        }
        let c = est.cmi(&bag(&[0]), &bag(&[1]), &AttrSet::empty()).unwrap();
        if (c.value
            - exact
                .cmi(&bag(&[0]), &bag(&[1]), &AttrSet::empty())
                .unwrap())
        .abs()
            > c.epsilon
        {
            cmi_violations += 1;
        }
    }
    // δ = 0.1 permits ~3 of 30; the McDiarmid + bias allowance is
    // conservative enough that these seeds should see none at all.
    let budget = (trials as f64 * delta).ceil() as u32;
    assert!(
        entropy_violations <= budget,
        "{entropy_violations}/{trials} entropy estimates strayed past their ε"
    );
    assert!(
        cmi_violations <= budget,
        "{cmi_violations}/{trials} CMI estimates strayed past their ε"
    );
}

/// The estimation bench's check at test size: on a Markov-chain relation
/// with heavy tuple repetition, the sampled entropy and J-measure of each
/// seeded instance stay within their planned ε.
#[test]
fn sampled_entropy_and_j_measure_stay_within_planned_epsilon() {
    let tree = JoinTree::new(vec![bag(&[0, 2]), bag(&[1, 2])], vec![(0, 1)]).unwrap();
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = markov_chain_relation(&mut rng, 3, 8, 20_000, 0.25, false).unwrap();
        let exact = Analyzer::new(&r);
        let cfg = EstimateConfig::default().with_epsilon(0.25).with_seed(seed);
        let est = EstimatedAnalyzer::new(&r, cfg).unwrap();
        assert!(!est.is_fallback());

        let h = est.entropy(&bag(&[0, 1])).unwrap();
        let h_err = (h.value - exact.entropy(&bag(&[0, 1])).unwrap()).abs();
        assert!(
            h_err <= h.epsilon,
            "seed {seed}: entropy error {h_err} > ε = {}",
            h.epsilon
        );
        let j = est.j_measure(&tree).unwrap();
        let j_err = (j.value - exact.j_measure(&tree).unwrap()).abs();
        assert!(
            j_err <= j.epsilon,
            "seed {seed}: J error {j_err} > ε = {}",
            j.epsilon
        );
    }
}
