//! # ajd-bench
//!
//! Experiment harness and micro-benchmarks for the reproduction of
//! *"Quantifying the Loss of Acyclic Join Dependencies"* (PODS 2023).
//!
//! The paper's evaluation artefact is **Figure 1** (mutual information vs
//! `log(1+ρ)` under the random relation model); every quantitative theorem
//! is additionally treated as an experiment whose empirical "shape" we
//! regenerate.  Each experiment is a binary under `src/bin/` that prints a
//! column-aligned table (and writes a CSV next to it when `--csv DIR` is
//! given).  The benches under `benches/` are plain binaries on the
//! [`perf`] harness: they time the substrate operations and the
//! counting-vs-materialising ablation, and write `BENCH_<name>.json`.
//!
//! | Binary | Paper artefact |
//! |--------|----------------|
//! | `exp_fig1`                  | Figure 1 |
//! | `exp_lower_bound_tightness` | Example 4.1 (tightness of Lemma 4.1) |
//! | `exp_lower_bound_validity`  | Lemma 4.1 on random relations |
//! | `exp_kl_equals_j`           | Theorem 3.2 |
//! | `exp_entropy_concentration` | Theorem 5.2 / Proposition 5.4 |
//! | `exp_mvd_upper_bound`       | Theorem 5.1 |
//! | `exp_mvd_chain`             | Proposition 5.1 |
//! | `exp_schema_upper_bound`    | Proposition 5.3 |
//! | `exp_discovery`             | §1 motivation (schema discovery, ref. \[14\]) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod perf;
pub mod stats;
pub mod table;

pub use harness::{parallel_trials, ExperimentArgs};
pub use perf::{time_median, BenchJson, BenchRecord};
pub use stats::Summary;
pub use table::Table;
