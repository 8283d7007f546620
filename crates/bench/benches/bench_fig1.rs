//! End-to-end benchmark of one Figure 1 data point: sample a relation from
//! the degenerate random model and compute `I(A_S;B_S)`.  This is the unit
//! of work the `exp_fig1` experiment repeats over the `d` sweep.  Results go
//! to `BENCH_fig1.json` (see `ajd_bench::perf`).

use std::time::Duration;

use ajd_bench::{time_median, BenchJson};
use ajd_info::mutual_information;
use ajd_random::RandomRelationModel;
use ajd_relation::{AttrId, AttrSet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let budget = Duration::from_millis(400);
    let mut json = BenchJson::new();
    let (a, b) = (AttrSet::singleton(AttrId(0)), AttrSet::singleton(AttrId(1)));
    for d in [100u64, 300, 500] {
        let rho = 0.1f64;
        let n = (d as f64 * d as f64 / (1.0 + rho)).round() as u64;
        let model = RandomRelationModel::degenerate(d, d).unwrap();
        let mut rng = StdRng::seed_from_u64(d);
        let point = time_median(budget, || {
            let r = model.sample(&mut rng, n).unwrap();
            mutual_information(&r, &a, &b).unwrap()
        });
        json.record(&format!("fig1/point/sample_and_mi_{d}"), point);
    }
    json.emit(&BenchJson::default_path("fig1"));
}
