//! Experiment `thm32_kl` — Theorem 3.2: `J(T) = D_KL(P ‖ P^T)`.
//!
//! The J-measure (eq. 7, a combination of marginal entropies) and the
//! KL-divergence to the tree-factorised distribution `P^T` (eq. 10) are
//! computed by entirely different code paths; Theorem 3.2 says they are the
//! same number.  We report the maximum absolute discrepancy over random
//! relations and several join trees — it should be at floating-point level.

use ajd_bench::harness::{parallel_trials, ExperimentArgs};
use ajd_bench::stats::Summary;
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
    let trees = vec![
        (
            "path",
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
        ),
        (
            "star",
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
        ),
        (
            "singletons",
            JoinTree::path(vec![bag(&[0]), bag(&[1]), bag(&[2]), bag(&[3])]).unwrap(),
        ),
        (
            "coarse",
            JoinTree::new(vec![bag(&[0, 1, 2]), bag(&[2, 3])], vec![(0, 1)]).unwrap(),
        ),
    ];
    let sizes: Vec<u64> = if args.quick {
        vec![100]
    } else {
        vec![50, 200, 800]
    };
    let model = RandomRelationModel::new(ProductDomain::new(vec![7, 6, 5, 4]).unwrap());

    let mut table = Table::new(
        "Theorem 3.2: |J - KL| over random relations (nats)",
        &[
            "tree",
            "N",
            "trials",
            "J_mean",
            "abs_err_mean",
            "abs_err_max",
        ],
    );

    for (name, tree) in &trees {
        for &n in &sizes {
            let rows = parallel_trials(args.trials, args.seed ^ (n << 8), |_, rng| {
                let r = model.sample(rng, n).expect("N within domain");
                // One shared analyzer: J and KL need the same bag/separator
                // marginals, so the two "different code paths" of the
                // theorem share their grouping work (not their arithmetic).
                // KL runs first: it groups into interned ids, and J's count
                // tables are then decoded from those instead of regrouped.
                // Trials already own the machine's cores; keep each
                // per-trial analyzer's kernel serial (one coherent budget).
                let analyzer = Analyzer::with_thread_budget(&r, ThreadBudget::serial());
                let kl = analyzer.kl(tree).expect("kl divergence");
                let j = analyzer.j_measure(tree).expect("j measure");
                (j, (j - kl).abs())
            });
            let js: Vec<f64> = rows.iter().map(|(j, _)| *j).collect();
            let errs: Vec<f64> = rows.iter().map(|(_, e)| *e).collect();
            table.push_row(vec![
                name.to_string(),
                n.to_string(),
                rows.len().to_string(),
                f(Summary::of(&js).mean),
                format!("{:.2e}", Summary::of(&errs).mean),
                format!("{:.2e}", Summary::of(&errs).max),
            ]);
        }
    }

    table.emit(args.csv_dir.as_deref(), "thm32_kl");
    println!(
        "Paper's shape: the identity is exact; abs_err_max should sit at ~1e-12 (floating point only)."
    );
}
