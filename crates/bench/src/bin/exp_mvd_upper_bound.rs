//! Experiment `thm51_ub` — Theorem 5.1: the high-probability upper bound
//! `log(1 + ρ(R,φ)) ≤ I(A;B|C) + ε*(φ,N,δ)` for a single MVD under the
//! random relation model.
//!
//! For each configuration `(d_A = d_B = d, d_C)` we draw relations at two
//! sizes — one meeting the qualifying condition (37) and one deliberately
//! below it — and compare the measured `log(1+ρ)` against the measured
//! conditional mutual information, with and without the `ε*` slack.  The
//! interesting empirical observation (consistent with Figure 1) is that for
//! dense random relations `I(A;B|C)` sits *just below* `log(1+ρ)` — the gap
//! is the vanishing entropy deficit of Theorem 5.2 — which is exactly why
//! Theorem 5.1 needs the additive `ε*` term, and why the ε-inflated bound
//! always holds.

use ajd_bench::harness::{parallel_trials, ExperimentArgs};
use ajd_bench::stats::{fraction_where, Summary, ZeroRates};
use ajd_bench::table::{f, Table};
use ajd_bounds::{epsilon_star, thm51_minimum_n, thm51_qualifying_condition, Thm51Params};
use ajd_info::conditional_mutual_information;
use ajd_jointree::Mvd;
use ajd_random::RandomRelationModel;
use ajd_relation::AttrSet;

fn bag(ids: &[u32]) -> AttrSet {
    AttrSet::from_ids(ids.iter().copied())
}

fn main() {
    let args = ExperimentArgs::from_env();
    let delta = 0.1f64;
    let configs: Vec<(u64, u64)> = if args.quick {
        vec![(16, 1), (16, 2)]
    } else {
        vec![(16, 1), (16, 2), (16, 4), (32, 1), (32, 2)]
    };

    let mvd = Mvd::new(bag(&[2]), bag(&[0]), bag(&[1])).expect("C ->> A|B");

    let mut table = Table::new(
        "Theorem 5.1: log(1+rho(phi)) vs I(A;B|C) + eps* (nats)",
        &[
            "d",
            "d_C",
            "N",
            "qualified",
            "log1p_rho",
            "cmi",
            "gap",
            "eps*",
            "raw_viol",
            "bound_viol",
        ],
    );

    let mut rates = ZeroRates::default();
    for &(d, d_c) in &configs {
        // The qualifying N of condition (37) usually exceeds the domain at
        // these sizes; cap at 90% of the domain so the relation stays lossy.
        let n_qualifying = thm51_minimum_n(d, d, d_c, delta).min(d * d * d_c * 9 / 10);
        let n_small = (d * d * d_c) / 2;
        for &n in &[n_small, n_qualifying] {
            if n == 0 {
                continue;
            }
            let rows = parallel_trials(
                args.trials,
                args.seed ^ (d * 131 + d_c * 7 + n),
                |_, rng| {
                    let model = RandomRelationModel::for_mvd(d, d, d_c).expect("domain");
                    let r = model.sample(rng, n).expect("N within domain");
                    let rho = mvd.loss(&r).expect("mvd loss");
                    let cmi =
                        conditional_mutual_information(&r, &bag(&[0]), &bag(&[1]), &bag(&[2]))
                            .expect("cmi");
                    (rho.ln_1p(), cmi)
                },
            );
            let params = Thm51Params::new(d, d, d_c, n, delta);
            let eps = epsilon_star(&params);
            let qualified = thm51_qualifying_condition(&params);
            let log1ps: Vec<f64> = rows.iter().map(|(l, _)| *l).collect();
            let cmis: Vec<f64> = rows.iter().map(|(_, c)| *c).collect();
            let gaps: Vec<f64> = rows.iter().map(|(l, c)| l - c).collect();
            let raw_viol = fraction_where(&rows, |(l, c)| *l > *c + 1e-9);
            let bound_viol = fraction_where(&rows, |(l, c)| *l > *c + eps);
            rates.check(&format!("d={d} d_C={d_c} N={n}"), bound_viol);
            table.push_row(vec![
                d.to_string(),
                d_c.to_string(),
                n.to_string(),
                qualified.to_string(),
                f(Summary::of(&log1ps).mean),
                f(Summary::of(&cmis).mean),
                f(Summary::of(&gaps).mean),
                f(eps),
                format!("{raw_viol:.3}"),
                format!("{bound_viol:.3}"),
            ]);
        }
    }

    table.emit(args.csv_dir.as_deref(), "thm51_ub");
    println!(
        "Paper's shape: bound_viol must be 0.000 (the eps*-inflated bound of Theorem 5.1 holds);\n\
         the gap column (log(1+rho) - CMI) is small and positive for dense random relations and\n\
         shrinks as N grows - the bare CMI is usually exceeded by a hair (raw_viol near 1.000),\n\
         which is precisely why the theorem needs the additive eps* term. eps* itself is a very\n\
         conservative constant that only vanishes for astronomically large N."
    );
    rates.exit_on_violation();
}
