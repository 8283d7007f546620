//! Experiment plumbing: command-line arguments and parallel trials.

use ajd_relation::parallel::fan_out;
use ajd_relation::ThreadBudget;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Command-line arguments common to every experiment binary.
///
/// Supported flags (all optional):
///
/// * `--trials K`   — number of independent trials per configuration.
/// * `--seed S`     — base RNG seed (trial `i` uses `S + i`).
/// * `--csv DIR`    — additionally write the result table as CSV into `DIR`.
/// * `--quick`      — shrink the workload (used by CI smoke runs).
#[derive(Debug, Clone)]
pub struct ExperimentArgs {
    /// Number of trials per configuration.
    pub trials: usize,
    /// Base seed.
    pub seed: u64,
    /// Directory to write CSV output into (created if missing).
    pub csv_dir: Option<String>,
    /// Run a reduced workload.
    pub quick: bool,
}

impl Default for ExperimentArgs {
    fn default() -> Self {
        ExperimentArgs {
            trials: 5,
            seed: 20230618, // PODS'23 opening day
            csv_dir: None,
            quick: false,
        }
    }
}

impl ExperimentArgs {
    /// Parses arguments from `std::env::args`, ignoring unknown flags.
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1))
    }

    /// Parses arguments from an iterator (exposed for tests).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = ExperimentArgs::default();
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--trials" => {
                    if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                        out.trials = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = it.next().and_then(|s| s.parse().ok()) {
                        out.seed = v;
                    }
                }
                "--csv" => {
                    out.csv_dir = it.next();
                }
                "--quick" => out.quick = true,
                _ => {}
            }
        }
        out
    }
}

/// Runs `trials` independent trials of `f` (each with its own seeded RNG),
/// spreading them over the machine's available parallelism through the
/// shared ordered fan-out ([`fan_out`]), and returns the results in trial
/// order.
pub fn parallel_trials<T, F>(trials: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut StdRng) -> T + Sync,
{
    fan_out(trials, ThreadBudget::available(), |i, _| {
        let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(i as u64));
        f(i, &mut rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn default_args_are_sane() {
        let a = ExperimentArgs::default();
        assert!(a.trials > 0);
        assert!(!a.quick);
        assert!(a.csv_dir.is_none());
    }

    #[test]
    fn parse_reads_known_flags_and_ignores_unknown() {
        let a = ExperimentArgs::parse(
            [
                "--trials", "9", "--seed", "5", "--quick", "--bogus", "--csv", "/tmp/x",
            ]
            .map(String::from),
        );
        assert_eq!(a.trials, 9);
        assert_eq!(a.seed, 5);
        assert!(a.quick);
        assert_eq!(a.csv_dir.as_deref(), Some("/tmp/x"));
    }

    #[test]
    fn parse_with_missing_values_keeps_defaults() {
        let a = ExperimentArgs::parse(["--trials"].map(String::from));
        assert_eq!(a.trials, ExperimentArgs::default().trials);
    }

    #[test]
    fn parallel_trials_preserve_order_and_are_deterministic() {
        let f = |i: usize, rng: &mut StdRng| (i, rng.random_range(0..1_000_000u64));
        let a = parallel_trials(16, 42, f);
        let b = parallel_trials(16, 42, f);
        assert_eq!(a, b);
        assert_eq!(a.len(), 16);
        for (i, (idx, _)) in a.iter().enumerate() {
            assert_eq!(i, *idx);
        }
        // Different base seed changes results.
        let c = parallel_trials(16, 43, f);
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_trials_with_zero_trials() {
        let out = parallel_trials(0, 1, |_, _| 1u8);
        assert!(out.is_empty());
    }
}
