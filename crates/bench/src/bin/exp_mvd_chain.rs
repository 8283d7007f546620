//! Experiment `prop51_chain` — Proposition 5.1: the J-measure of an acyclic
//! schema is bounded by the per-MVD losses of its support,
//! `J(R,S) ≤ Σᵢ log(1+ρ(R,φᵢ))`.
//!
//! We evaluate path- and star-shaped schemas with a growing number of bags
//! over random relations and report both sides of the inequality and the
//! violation rate (always zero — the bound is deterministic).  For contrast
//! the table also reports `log(1+ρ(R,S))`, which does *not* respect the
//! per-MVD sum in general.

use ajd_bench::harness::{parallel_trials, ExperimentArgs};
use ajd_bench::stats::{fraction_where, Summary, ZeroRates};
use ajd_bench::table::{f, Table};
use ajd_core::Analyzer;
use ajd_jointree::JoinTree;
use ajd_random::{ProductDomain, RandomRelationModel};
use ajd_relation::{AttrSet, ThreadBudget};

fn pair_bags(m: usize) -> Vec<AttrSet> {
    // m bags over m+1 attributes: {X0X1, X1X2, ..., X_{m-1}X_m}.
    (0..m)
        .map(|i| AttrSet::from_ids([i as u32, i as u32 + 1]))
        .collect()
}

fn star_bags(m: usize) -> Vec<AttrSet> {
    // m bags over m+1 attributes: {X0X1, X0X2, ..., X0X_m}.
    (1..=m)
        .map(|i| AttrSet::from_ids([0u32, i as u32]))
        .collect()
}

fn main() {
    let args = ExperimentArgs::from_env();
    let ms: Vec<usize> = if args.quick {
        vec![3, 5]
    } else {
        vec![2, 3, 4, 5, 6]
    };
    let domain_per_attr = 6u64;

    let mut table = Table::new(
        "Proposition 5.1: J(S) vs sum_i log(1+rho(phi_i)) (nats)",
        &[
            "shape",
            "m_bags",
            "N",
            "J_mean",
            "rhs_mean",
            "ratio",
            "log1p_rho_mean",
            "violations",
        ],
    );

    let mut rates = ZeroRates::default();
    for &m in &ms {
        for (shape, bags) in [("path", pair_bags(m)), ("star", star_bags(m))] {
            let tree = JoinTree::from_acyclic_schema(&bags).expect("acyclic by construction");
            let dims = vec![domain_per_attr; m + 1];
            let domain = ProductDomain::new(dims).unwrap();
            // Half-fill the domain, capped at 400 tuples so larger trees stay fast.
            let n = (domain.size() / 2).min(400);
            let model = RandomRelationModel::new(domain);
            let rows = parallel_trials(args.trials, args.seed ^ ((m as u64) << 4), |_, rng| {
                let r = model.sample(rng, n).expect("N within domain");
                // Trials already own the machine's cores; serial kernel per trial.
                let rep = Analyzer::with_thread_budget(&r, ThreadBudget::serial())
                    .analyze(&tree)
                    .expect("analysis");
                (rep.j_measure, rep.prop51_bound, rep.log1p_rho)
            });
            let lhs: Vec<f64> = rows.iter().map(|(j, _, _)| *j).collect();
            let rhs: Vec<f64> = rows.iter().map(|(_, r, _)| *r).collect();
            let log1p: Vec<f64> = rows.iter().map(|(_, _, l)| *l).collect();
            let violations = fraction_where(&rows, |(j, r, _)| *j > *r + 1e-9);
            rates.check(&format!("shape={shape} m={m}"), violations);
            let lhs_mean = Summary::of(&lhs).mean;
            let rhs_mean = Summary::of(&rhs).mean;
            table.push_row(vec![
                shape.to_string(),
                m.to_string(),
                n.to_string(),
                f(lhs_mean),
                f(rhs_mean),
                f(if rhs_mean > 0.0 {
                    lhs_mean / rhs_mean
                } else {
                    1.0
                }),
                f(Summary::of(&log1p).mean),
                format!("{violations:.3}"),
            ]);
        }
    }

    table.emit(args.csv_dir.as_deref(), "prop51_chain");
    println!(
        "Paper's shape: violations are 0.000 everywhere; the ratio J/rhs stays below 1 and\n\
         decreases as the number of bags grows (the per-MVD sum becomes looser)."
    );
    rates.exit_on_violation();
}
