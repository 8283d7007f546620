//! Experiment `thm52_entropy` — Theorem 5.2 / Proposition 5.4: entropy
//! concentration under the degenerate random relation model.
//!
//! A set `S` of `η` tuples is drawn from `[d_A] × [d_B]` (here `d_A = d_B =
//! d`).  Proposition 5.4 bounds the *expected* deficit
//! `log d − E[H(A_S)] ≤ C(d) = 2·log d/√d`; Theorem 5.2 gives a
//! high-probability bound `log d − H(A_S) ≤ 20·√(d·log³(η/δ)/η)` under the
//! qualifying condition (40).  We measure the empirical deficit and compare
//! it to both bounds.

use ajd_bench::harness::{parallel_trials, ExperimentArgs};
use ajd_bench::stats::{fraction_where, Summary, ZeroRates};
use ajd_bench::table::{f, Table};
use ajd_bounds::{c_of_d, thm52_entropy_deviation, thm52_qualifying_condition};
use ajd_info::entropy;
use ajd_random::RandomRelationModel;
use ajd_relation::{AttrId, AttrSet};

fn main() {
    let args = ExperimentArgs::from_env();
    let delta = 0.05f64;
    // Explicit (d, eta) configurations.  With d_A = d_B = d the qualifying
    // condition (40) needs d >~ 128*log(128 d / delta), i.e. d in the low
    // thousands; the final configuration demonstrates a qualified instance.
    let configs: Vec<(u64, u64)> = if args.quick {
        vec![(64, 1024), (64, 4096), (256, 8192)]
    } else {
        vec![
            (32, 512),
            (32, 1024),
            (64, 1024),
            (64, 4096),
            (128, 2048),
            (128, 16384),
            (256, 8192),
            (256, 65536),
            (2048, 4_100_000),
        ]
    };

    let mut table = Table::new(
        "Theorem 5.2 / Prop 5.4: entropy deficit log(d) - H(A_S) (nats)",
        &[
            "d",
            "eta",
            "qualified",
            "deficit_mean",
            "deficit_max",
            "C(d)",
            "thm52_bound",
            "violations",
        ],
    );

    let mut rates = ZeroRates::default();
    for &(d, eta_raw) in &configs {
        {
            let eta = eta_raw.min(d * d); // cannot exceed the domain
            let deficits = parallel_trials(args.trials, args.seed ^ (d * 31 + eta), |_, rng| {
                let model = RandomRelationModel::degenerate(d, d).expect("domain");
                let r = model.sample(rng, eta).expect("eta <= d^2");
                let h = entropy(&r, &AttrSet::singleton(AttrId(0))).expect("entropy of A");
                (d as f64).ln() - h
            });
            let s = Summary::of(&deficits);
            let bound = thm52_entropy_deviation(d as f64, eta as f64, delta);
            let qualified = thm52_qualifying_condition(d as f64, eta as f64, delta);
            let violations = fraction_where(&deficits, |&x| x > bound);
            rates.check(&format!("d={d} eta={eta}"), violations);
            table.push_row(vec![
                d.to_string(),
                eta.to_string(),
                qualified.to_string(),
                f(s.mean),
                f(s.max),
                f(c_of_d(d as f64)),
                f(bound),
                format!("{violations:.3}"),
            ]);
        }
    }

    table.emit(args.csv_dir.as_deref(), "thm52_entropy");
    println!(
        "Paper's shape: the measured deficit is far below both C(d) (expected-value bound,\n\
         Prop 5.4) and the 20*sqrt(d log^3(eta/delta)/eta) high-probability bound (Thm 5.2);\n\
         violations must be 0.000, and the deficit shrinks as eta grows."
    );
    rates.exit_on_violation();
}
