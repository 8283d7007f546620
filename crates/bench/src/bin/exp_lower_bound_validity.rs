//! Experiment `lem41_lb` — Lemma 4.1 on random relations.
//!
//! For relations drawn from the random relation model and a variety of
//! acyclic schemas, the deterministic bound `J(T) ≤ log(1 + ρ(R,S))` must
//! hold for every instance.  We report the distribution of the slack
//! `log(1+ρ) − J ≥ 0` and the (always zero) violation rate.

use ajd_bench::harness::{parallel_trials, ExperimentArgs};
use ajd_bench::stats::{fraction_where, Summary, ZeroRates};
use ajd_bench::table::{f, Table};
use ajd_core::Analyzer;
use ajd_jointree::JoinTree;
use ajd_random::{ProductDomain, RandomRelationModel};
use ajd_relation::{AttrSet, ThreadBudget};

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

fn main() {
    let args = ExperimentArgs::from_env();
    let sizes: Vec<u64> = if args.quick {
        vec![64, 512]
    } else {
        vec![32, 64, 128, 256, 512, 1024]
    };
    let trees = [
        (
            "path-2attr-bags",
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
        ),
        (
            "star-2attr-bags",
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
        ),
        (
            "independence",
            JoinTree::path(vec![bag(&[0]), bag(&[1]), bag(&[2]), bag(&[3])]).unwrap(),
        ),
        (
            "two-big-bags",
            JoinTree::new(vec![bag(&[0, 1, 2]), bag(&[2, 3])], vec![(0, 1)]).unwrap(),
        ),
    ];
    let model = RandomRelationModel::new(ProductDomain::new(vec![8, 8, 8, 8]).unwrap());

    let mut table = Table::new(
        "Lemma 4.1 on the random relation model, dims = [8,8,8,8] (nats)",
        &[
            "tree",
            "N",
            "trials",
            "J_mean",
            "log1p_rho_mean",
            "slack_mean",
            "slack_min",
            "violations",
        ],
    );

    // For each size, every tree is evaluated on the *same* sampled
    // relations (the trial seed does not depend on the tree), so all four
    // analyses of a trial run through one shared Analyzer cache.
    let mut cells: Vec<Vec<Vec<(f64, f64)>>> = vec![Vec::new(); trees.len()];
    for &n in &sizes {
        let per_trial = parallel_trials(args.trials, args.seed ^ n, |_, rng| {
            let r = model.sample(rng, n).expect("N within domain");
            // Trials are already parallel; keep the analyzer single-threaded.
            let analyzer = Analyzer::with_thread_budget(&r, ThreadBudget::serial());
            trees
                .iter()
                .map(|(_, tree)| {
                    let rep = analyzer.analyze(tree).expect("analysis");
                    (rep.j_measure, rep.log1p_rho)
                })
                .collect::<Vec<_>>()
        });
        for (t, cell) in cells.iter_mut().enumerate() {
            cell.push(per_trial.iter().map(|trial| trial[t]).collect());
        }
    }
    let mut rates = ZeroRates::default();
    for ((name, _), cell) in trees.iter().zip(&cells) {
        for (rows, &n) in cell.iter().zip(&sizes) {
            let slacks: Vec<f64> = rows.iter().map(|(j, l)| l - j).collect();
            let js: Vec<f64> = rows.iter().map(|(j, _)| *j).collect();
            let ls: Vec<f64> = rows.iter().map(|(_, l)| *l).collect();
            let violation_rate = fraction_where(&slacks, |&s| s < -1e-9);
            rates.check(&format!("tree={name} N={n}"), violation_rate);
            table.push_row(vec![
                name.to_string(),
                n.to_string(),
                rows.len().to_string(),
                f(Summary::of(&js).mean),
                f(Summary::of(&ls).mean),
                f(Summary::of(&slacks).mean),
                f(Summary::of(&slacks).min),
                format!("{violation_rate:.3}"),
            ]);
        }
    }

    table.emit(args.csv_dir.as_deref(), "lem41_lb");
    println!(
        "Paper's shape: violations must be 0.000 everywhere (the bound is deterministic);\n\
         the slack shrinks as N approaches the full domain (the relation becomes closer to a product)."
    );
    rates.exit_on_violation();
}
