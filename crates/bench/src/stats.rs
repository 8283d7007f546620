//! Small descriptive-statistics helpers for experiment outputs.

/// Summary statistics of a sample of `f64` values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (unbiased, 0 for n < 2).
    pub std: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes the summary of a sample.  Returns a zeroed summary for an
    /// empty sample.
    pub fn of(values: &[f64]) -> Summary {
        if values.is_empty() {
            return Summary {
                n: 0,
                mean: 0.0,
                std: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            n,
            mean,
            std: var.sqrt(),
            min,
            max,
        }
    }
}

/// Fraction of observations for which `predicate` holds.
pub fn fraction_where<T>(values: &[T], predicate: impl Fn(&T) -> bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|v| predicate(v)).count() as f64 / values.len() as f64
}

/// The violation rates an experiment prints as "must be 0.000", checked:
/// after its table, [`ZeroRates::exit_on_violation`] fails the process if
/// any rate was not zero.
#[derive(Debug, Default)]
pub struct ZeroRates(Vec<String>);

impl ZeroRates {
    /// Records the violation rate of table row `row`.
    pub fn check(&mut self, row: &str, rate: f64) {
        if rate != 0.0 {
            self.0.push(format!("{row}: rate {rate}"));
        }
    }

    /// Prints every non-zero rate to stderr and exits with status 1 if
    /// there is one; returns otherwise.
    pub fn exit_on_violation(&self) {
        for v in &self.0 {
            eprintln!("violated (must be 0.000): {v}");
        }
        if !self.0.is_empty() {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_flag_every_rate_but_zero() {
        let mut rates = ZeroRates::default();
        rates.check("m=3 path", 0.0);
        assert!(rates.0.is_empty());
        rates.check("m=5 star", 0.25);
        rates.check("d=4", f64::NAN);
        assert_eq!(rates.0.len(), 2);
        assert!(rates.0[0].starts_with("m=5 star"));
        // Without a violation the check returns instead of exiting.
        ZeroRates::default().exit_on_violation();
    }

    #[test]
    fn summary_of_empty_sample_is_zeroed() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn single_observation_has_zero_std() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.min, 7.0);
        assert_eq!(s.max, 7.0);
    }

    #[test]
    fn fraction_where_counts_correctly() {
        let v = [1, 2, 3, 4, 5];
        assert!((fraction_where(&v, |&x| x > 2) - 0.6).abs() < 1e-12);
        assert_eq!(fraction_where::<i32>(&[], |_| true), 0.0);
    }
}
