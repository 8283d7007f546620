//! The sublinear estimation tier: [`EstimatedAnalyzer`] and [`Estimate`].
//!
//! The paper's §5 is a concentration toolkit — Theorem 5.1/5.2 bound how
//! far sampled information measures stray from the truth — and this module
//! is where the workspace finally *consumes* it at analysis time.  An
//! [`EstimatedAnalyzer`] answers the same questions as the exact
//! [`Analyzer`] (`entropy` / `cmi` / `j_measure` / `loss`) from a seeded
//! without-replacement row sample, in time proportional to the sample, and
//! returns every answer as an [`Estimate`] carrying the point value, the
//! (ε, δ) it comes with and the concentration bound that justifies it —
//! never a bare `f64`.
//!
//! ## The sampling pipeline
//!
//! 1. **Plan** — a [`SamplePlanner`] inverts a concentration bound into the
//!    sample size `n` needed for the configured `(ε, δ)`:
//!    [`SamplePlanner::Practical`] inverts the McDiarmid plug-in-entropy
//!    deviation ([`ajd_bounds::sample_size_for_entropy_epsilon`]);
//!    [`SamplePlanner::Theorem51`] inverts the paper's `ε*(φ, N, δ)`
//!    ([`ajd_bounds::required_n_for_epsilon`]), which is rigorous but so
//!    conservative it almost always falls back to exact.
//! 2. **Draw** — `n` distinct row indices are drawn without replacement by
//!    [`ajd_random::sample_distinct`] from a [`rand::rngs::StdRng`] seeded
//!    with the explicit [`EstimateConfig::seed`] (no ambient entropy — the
//!    `nondeterminism-source` lint enforces this), then sorted ascending.
//! 3. **Gather** — [`ajd_relation::GroupKernel::gather_rows`] materialises
//!    the sampled rows as a fresh flat [`ajd_relation::Relation`].  Because
//!    the gather rebuilds from decoded values in global row order, the same
//!    `(relation, seed, ε)` produces a **bit-identical** sample from a flat
//!    or sharded source, at any thread budget.
//! 4. **Measure** — the exact kernel runs over the sample (itself
//!    bit-identical at any budget), and the deviation bound for the actual
//!    sample size is attached to the answer.
//!
//! Draw and gather run once per `(seed, planned n)` and source analyzer:
//! [`EstimatedAnalyzer::from_analyzer`] memoizes the sample, with its own
//! warm caches, in the analyzer context's sample tier.  A repeated build
//! re-plans `n` and does nothing else.
//!
//! ## Fallback
//!
//! When the planned sample size is at least the relation size (or the
//! planner reports the target unreachable), the analyzer transparently
//! answers through the exact [`Analyzer`] it was built from: every answer
//! is then **bit-identical** to the exact path, read from that analyzer's
//! caches, and reports `ε = 0` with [`BoundKind::Exact`].  Small inputs
//! therefore never pay for, or wobble from, sampling.
//!
//! ## Sketches
//!
//! Where only *how many distinct groups* is needed, no sample or group
//! table is materialised at all: [`EstimatedAnalyzer::distinct_groups`]
//! streams the full source through a seeded
//! [`ajd_relation::KmvSketch`] in `O(k)` memory.

use crate::analysis::Analyzer;
use ajd_bounds::{
    entropy_mcdiarmid_epsilon, required_n_for_epsilon, sample_size_for_entropy_epsilon,
};
use ajd_jointree::JoinTree;
use ajd_random::sample_distinct;
use ajd_relation::{
    AttrSet, GroupKernel, GroupSource, Relation, RelationError, Result, ThreadBudget,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which concentration bound the sample-size planner inverts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplePlanner {
    /// Invert the McDiarmid plug-in-entropy deviation
    /// ([`ajd_bounds::entropy_mcdiarmid_epsilon`]).  Practical sample sizes
    /// (≈10⁵ for ε = 0.1 nats), the default.
    #[default]
    Practical,
    /// Invert the paper's Theorem 5.1 deviation `ε*(φ, N, δ)`
    /// ([`ajd_bounds::required_n_for_epsilon`]), instantiated with the
    /// source's largest single-attribute domains.  Rigorous for the
    /// conditional-mutual-information measures the theorem covers, but its
    /// constants are so conservative that realistic targets plan samples
    /// far beyond the relation — i.e. this mode usually falls back to the
    /// exact kernel.
    Theorem51,
}

/// Configuration of an [`EstimatedAnalyzer`]: the (ε, δ) target, the
/// explicit sampling seed, the planner that turns the target into a sample
/// size, and the `k` of distinct-count sketches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateConfig {
    /// Target deviation for a single entropy query, in nats (must be > 0).
    /// Compound measures report their (larger) union-bound ε honestly.
    pub epsilon: f64,
    /// Failure probability: each answer's deviation bound holds with
    /// probability at least `1 − δ` (must be in `(0, 1)`).
    pub delta: f64,
    /// Seed of the row draw and of sketch hashing.  The same
    /// `(relation, seed, ε, δ)` always reproduces bit-identical estimates.
    pub seed: u64,
    /// Sample-size planner (see [`SamplePlanner`]).
    pub planner: SamplePlanner,
    /// Number of minimum values retained by [`EstimatedAnalyzer::distinct_groups`]
    /// sketches (relative error `≈ 1/√(δ·(k−2))`).
    pub sketch_k: usize,
}

impl Default for EstimateConfig {
    fn default() -> Self {
        EstimateConfig {
            epsilon: 0.1,
            delta: 0.05,
            seed: 0,
            planner: SamplePlanner::default(),
            sketch_k: 1024,
        }
    }
}

impl EstimateConfig {
    /// The default configuration with a different target ε (nats).
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// This configuration with a different failure probability δ.
    pub fn with_delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// This configuration with a different sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// This configuration with a different sample-size planner.
    pub fn with_planner(mut self, planner: SamplePlanner) -> Self {
        self.planner = planner;
        self
    }

    /// Validates ε and δ, mirroring the error vocabulary of the rest of the
    /// workspace ([`RelationError::InvalidParameter`]).
    pub fn validate(&self) -> Result<()> {
        if !(self.epsilon > 0.0 && self.epsilon.is_finite()) {
            return Err(RelationError::InvalidParameter {
                what: "epsilon",
                detail: format!("must be a positive finite number, got {}", self.epsilon),
            });
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return Err(RelationError::InvalidParameter {
                what: "delta",
                detail: format!("must be in (0,1), got {}", self.delta),
            });
        }
        Ok(())
    }
}

/// The concentration argument behind an [`Estimate`]'s (ε, δ).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundKind {
    /// Computed by the exact kernel: ε = 0, no probability involved.
    Exact,
    /// McDiarmid bounded-differences deviation of a single plug-in entropy
    /// ([`ajd_bounds::entropy_mcdiarmid_epsilon`]) plus the observed-support
    /// plug-in bias allowance.
    McDiarmid,
    /// A union bound over the McDiarmid deviations of several entropy terms
    /// (CMI = 4 terms, J-measure = bags + separators + 1), each at `δ/terms`.
    McDiarmidUnion,
    /// The J-measure union bound read on the `ln(1+ρ)` scale through the
    /// Lemma 4.1 correspondence `J(T) ≤ ln(1+ρ)`: ε bounds the deviation of
    /// the information-theoretic surrogate, not of ρ itself.
    Log1pLoss,
    /// K-minimum-values distinct-count sketch with a Chebyshev tail
    /// ([`ajd_relation::KmvSketch::relative_epsilon`]); ε is *relative*.
    Kmv,
    /// The paper's Theorem 5.1 deviation `ε*(φ, N, δ)` (used by
    /// [`crate::LossReport::confidence_bounds`]).
    Theorem51,
}

impl BoundKind {
    /// Stable lower-case name (the wire encoding of the server's
    /// `estimate` op).
    pub fn as_str(&self) -> &'static str {
        match self {
            BoundKind::Exact => "exact",
            BoundKind::McDiarmid => "mcdiarmid",
            BoundKind::McDiarmidUnion => "mcdiarmid-union",
            BoundKind::Log1pLoss => "log1p-loss",
            BoundKind::Kmv => "kmv",
            BoundKind::Theorem51 => "theorem-5.1",
        }
    }
}

/// A point estimate together with the (ε, δ) it comes with, the sampling
/// provenance, and the concentration bound justifying it.
///
/// Every answer of the estimation tier — and, through
/// [`crate::LossEngine`], of the exact tier — is an `Estimate`, never a
/// bare number.  Exact answers use `ε = δ = 0`, no seed, and
/// `sample_rows == total_rows`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate<T> {
    /// The point value.
    pub value: T,
    /// Deviation bound in the units of [`BoundKind`] (nats for entropy
    /// bounds, relative for [`BoundKind::Kmv`]); `0` when exact.
    pub epsilon: f64,
    /// Failure probability of the deviation bound; `0` when exact.
    pub delta: f64,
    /// The sampling / sketching seed, `None` when exact.
    pub seed: Option<u64>,
    /// Rows (or retained sketch hashes) the value was computed from.
    pub sample_rows: u64,
    /// Rows of the underlying relation.
    pub total_rows: u64,
    /// The concentration argument behind (ε, δ).
    pub bound: BoundKind,
}

impl<T> Estimate<T> {
    /// An exact answer: ε = δ = 0, no seed, sample = whole relation.
    pub fn exact(value: T, total_rows: u64) -> Self {
        Estimate {
            value,
            epsilon: 0.0,
            delta: 0.0,
            seed: None,
            sample_rows: total_rows,
            total_rows,
            bound: BoundKind::Exact,
        }
    }

    /// `true` if this answer came from the exact kernel.
    pub fn is_exact(&self) -> bool {
        matches!(self.bound, BoundKind::Exact)
    }

    /// Maps the point value, keeping the uncertainty metadata.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Estimate<U> {
        Estimate {
            value: f(self.value),
            epsilon: self.epsilon,
            delta: self.delta,
            seed: self.seed,
            sample_rows: self.sample_rows,
            total_rows: self.total_rows,
            bound: self.bound,
        }
    }
}

/// Sampling-based analyzer answering `entropy` / `cmi` / `j_measure` /
/// `loss` within a planned ±ε, deterministically from an explicit seed.
///
/// Construction does all the one-time work (plan → draw → gather); each
/// measure then runs the exact kernel over the sample and attaches the
/// deviation bound for the actual sample size.  See the [module
/// docs](self) for the pipeline and the fallback rule.
///
/// ```
/// use ajd_core::{EstimateConfig, EstimatedAnalyzer};
/// use ajd_relation::{AttrSet, Relation};
///
/// // 12 rows: far below any planned sample, so the analyzer falls back to
/// // the exact kernel and reports ε = 0.
/// let rows: Vec<[u32; 2]> = (0..12).map(|i| [i % 3, i % 4]).collect();
/// let r = Relation::from_rows(vec![0u32.into(), 1u32.into()], &rows).unwrap();
/// let est = EstimatedAnalyzer::new(&r, EstimateConfig::default()).unwrap();
/// let h = est.entropy(&AttrSet::from_ids([0])).unwrap();
/// assert!(est.is_fallback() && h.is_exact() && h.epsilon == 0.0);
/// assert_eq!(h.sample_rows, 12);
/// ```
pub struct EstimatedAnalyzer<S> {
    /// The exact analyzer over the whole source: it answers on fallback,
    /// streams the sketches, and its context holds the sample tier.
    exact: Analyzer<S>,
    /// Sampled mode: an exact analyzer over the gathered sample; `None` on
    /// fallback.
    sample: Option<Analyzer<Relation>>,
    config: EstimateConfig,
    /// Rows of the underlying relation.
    total_rows: u64,
    /// Rows the measures actually run over (== `total_rows` on fallback).
    sample_rows: u64,
}

impl<S: GroupKernel> EstimatedAnalyzer<S> {
    /// Plans, draws and gathers the sample (or falls back to exact) under
    /// the default thread budget.
    pub fn new(source: S, config: EstimateConfig) -> Result<Self> {
        Self::with_thread_budget(source, config, ThreadBudget::default())
    }

    /// [`EstimatedAnalyzer::new`] with an explicit [`ThreadBudget`] for the
    /// measure kernel.  The budget never affects values — only wall-clock.
    ///
    /// This is [`EstimatedAnalyzer::from_analyzer`] over a fresh
    /// [`Analyzer`], so nothing is cached from an earlier build.
    pub fn with_thread_budget(
        source: S,
        config: EstimateConfig,
        budget: ThreadBudget,
    ) -> Result<Self> {
        Self::from_analyzer(&Analyzer::with_thread_budget(source, budget), config)
    }

    /// Builds over an existing analyzer, sharing its context: the fallback
    /// answers from that context's caches, and the sample (with its own
    /// warm caches) is memoized in the context's sample tier per
    /// `(seed, planned n)` ([`ajd_relation::AnalysisContext::sample_tier`]).
    /// A repeated build with the same seed and planned size then only
    /// re-plans `n`: it draws, gathers and groups nothing, and answers
    /// bit-identically.  Measures run under the analyzer's thread budget.
    pub fn from_analyzer(analyzer: &Analyzer<S>, config: EstimateConfig) -> Result<Self> {
        config.validate()?;
        let exact = analyzer.clone();
        let total_rows = exact.num_rows() as u64;
        let planned = plan_sample_size(exact.source(), &config, total_rows)?;
        let Some(n) = planned.filter(|&n| n < total_rows) else {
            // Whole-relation fallback: exact kernel over the original source.
            return Ok(EstimatedAnalyzer {
                exact,
                sample: None,
                config,
                total_rows,
                sample_rows: total_rows,
            });
        };
        let sample = exact.context().sample_tier(config.seed, n, || {
            let mut rng = StdRng::seed_from_u64(config.seed);
            let mut indices = sample_distinct(&mut rng, total_rows, n)?;
            indices.sort_unstable();
            Ok(indices)
        })?;
        let budget = exact.thread_budget();
        Ok(EstimatedAnalyzer {
            exact,
            sample: Some(Analyzer::from_context(sample, budget)),
            config,
            total_rows,
            sample_rows: n,
        })
    }

    /// The configuration this analyzer was built with.
    pub fn config(&self) -> &EstimateConfig {
        &self.config
    }

    /// Rows of the underlying relation.
    pub fn total_rows(&self) -> u64 {
        self.total_rows
    }

    /// Rows the measures run over (== [`EstimatedAnalyzer::total_rows`] on
    /// fallback).
    pub fn sample_rows(&self) -> u64 {
        self.sample_rows
    }

    /// `true` if the planned sample covered the whole relation and the
    /// analyzer operates in exact mode.
    pub fn is_fallback(&self) -> bool {
        self.sample.is_none()
    }

    /// The original source.
    pub fn source(&self) -> &S {
        self.exact.source()
    }

    /// Shannon entropy `H(attrs)` of the empirical distribution (nats).
    pub fn entropy(&self, attrs: &AttrSet) -> Result<Estimate<f64>> {
        match &self.sample {
            None => Ok(Estimate::exact(self.exact.entropy(attrs)?, self.total_rows)),
            Some(sample) => self.entropy_union_estimate(
                sample,
                sample.entropy(attrs)?,
                std::slice::from_ref(attrs),
                BoundKind::McDiarmid,
            ),
        }
    }

    /// Mutual information `I(A;B)` (nats): a union bound over its three
    /// entropy terms.
    pub fn mutual_information(&self, a: &AttrSet, b: &AttrSet) -> Result<Estimate<f64>> {
        match &self.sample {
            None => Ok(Estimate::exact(
                self.exact.mutual_information(a, b)?,
                self.total_rows,
            )),
            Some(sample) => {
                let terms = [a.clone(), b.clone(), a.union(b)];
                let value = sample.mutual_information(a, b)?;
                self.entropy_union_estimate(sample, value, &terms, BoundKind::McDiarmidUnion)
            }
        }
    }

    /// Conditional mutual information `I(A;B|C)` (nats): a union bound over
    /// its four entropy terms.
    pub fn cmi(&self, a: &AttrSet, b: &AttrSet, c: &AttrSet) -> Result<Estimate<f64>> {
        match &self.sample {
            None => Ok(Estimate::exact(self.exact.cmi(a, b, c)?, self.total_rows)),
            Some(sample) => {
                let terms = [a.union(c), b.union(c), a.union(b).union(c), c.clone()];
                let value = sample.cmi(a, b, c)?;
                self.entropy_union_estimate(sample, value, &terms, BoundKind::McDiarmidUnion)
            }
        }
    }

    /// The J-measure `J(T)` of a join tree (nats): a union bound over its
    /// bag, separator and whole-relation entropy terms.
    pub fn j_measure(&self, tree: &JoinTree) -> Result<Estimate<f64>> {
        match &self.sample {
            None => Ok(Estimate::exact(
                self.exact.j_measure(tree)?,
                self.total_rows,
            )),
            Some(sample) => {
                let value = sample.j_measure(tree)?;
                let terms = j_entropy_terms(tree);
                self.entropy_union_estimate(sample, value, &terms, BoundKind::McDiarmidUnion)
            }
        }
    }

    /// The loss `ρ` of a join tree, estimated from the sample.
    ///
    /// The point value is the exact loss *of the sample*; the attached ε is
    /// the J-measure union bound read on the `ln(1+ρ)` scale through the
    /// Lemma 4.1 correspondence `J(T) ≤ ln(1+ρ)` ([`BoundKind::Log1pLoss`])
    /// — it bounds the deviation of the information-theoretic surrogate,
    /// not of ρ itself.
    pub fn loss(&self, tree: &JoinTree) -> Result<Estimate<f64>> {
        match &self.sample {
            None => Ok(Estimate::exact(self.exact.loss(tree)?, self.total_rows)),
            Some(sample) => {
                let value = sample.loss(tree)?;
                let terms = j_entropy_terms(tree);
                self.entropy_union_estimate(sample, value, &terms, BoundKind::Log1pLoss)
            }
        }
    }

    /// Number of distinct `attrs`-groups, from a K-minimum-values sketch
    /// streamed over the **full** source in `O(sketch_k)` memory — no group
    /// table, no sample.  ε is *relative* ([`BoundKind::Kmv`]); the answer
    /// is exact (ε = 0) when the source has fewer than `sketch_k` distinct
    /// groups.
    pub fn distinct_groups(&self, attrs: &AttrSet) -> Result<Estimate<f64>> {
        let sketch =
            self.source()
                .distinct_sketch(attrs, self.config.sketch_k, self.config.seed)?;
        if sketch.is_exact() {
            return Ok(Estimate::exact(sketch.estimate(), self.total_rows));
        }
        Ok(Estimate {
            value: sketch.estimate(),
            epsilon: sketch.relative_epsilon(self.config.delta),
            delta: self.config.delta,
            seed: Some(self.config.seed),
            sample_rows: sketch.len() as u64,
            total_rows: self.total_rows,
            bound: BoundKind::Kmv,
        })
    }

    /// Builds the sampled-path estimate for a value composed of the given
    /// entropy terms: per-term McDiarmid deviation at `δ/terms` plus the
    /// observed-support plug-in bias allowance, summed over the terms.
    fn entropy_union_estimate(
        &self,
        sample: &Analyzer<Relation>,
        value: f64,
        terms: &[AttrSet],
        bound: BoundKind,
    ) -> Result<Estimate<f64>> {
        let n = self.sample_rows;
        let per_delta = self.config.delta / terms.len() as f64;
        let deviation = terms.len() as f64 * entropy_mcdiarmid_epsilon(n, per_delta);
        // Plug-in entropy is biased low by at most ln(1 + (k−1)/n) for true
        // support k; the observed sample support is the best available
        // stand-in for k (a lower bound, so this allowance is indicative —
        // SamplePlanner::Theorem51 is the rigorous mode).
        let mut bias = 0.0;
        for attrs in terms {
            let k = sample.group_counts(attrs)?.num_groups() as f64;
            bias += ((k - 1.0).max(0.0) / n as f64).ln_1p();
        }
        Ok(Estimate {
            value,
            epsilon: deviation + bias,
            delta: self.config.delta,
            seed: Some(self.config.seed),
            sample_rows: n,
            total_rows: self.total_rows,
            bound,
        })
    }
}

/// The entropy terms of the J-measure of a tree: one per bag, one per
/// separator, plus the whole relation.
fn j_entropy_terms(tree: &JoinTree) -> Vec<AttrSet> {
    let mut terms: Vec<AttrSet> = tree.bags().to_vec();
    terms.extend(tree.separators());
    terms.push(tree.attributes());
    terms
}

/// Runs the configured planner: `Ok(None)` means "target unreachable below
/// the relation size" (→ fallback), `Ok(Some(n))` the planned sample size.
fn plan_sample_size<S: GroupKernel>(
    source: &S,
    config: &EstimateConfig,
    total_rows: u64,
) -> Result<Option<u64>> {
    if total_rows == 0 {
        return Ok(None);
    }
    Ok(match config.planner {
        SamplePlanner::Practical => {
            sample_size_for_entropy_epsilon(config.epsilon, config.delta, total_rows)
        }
        SamplePlanner::Theorem51 => {
            // Instantiate φ = (A, B | C) with the largest single-attribute
            // active domains: d_a, d_b the top two, d_c the (capped)
            // product of the rest — the hardest single-attribute MVD this
            // source can pose to Theorem 5.1.
            let mut domains: Vec<u64> = Vec::with_capacity(source.arity());
            for a in source.attrs().iter() {
                domains.push(source.active_domain_size(a)? as u64);
            }
            domains.sort_unstable_by(|x, y| y.cmp(x));
            let d_a = domains.first().copied().unwrap_or(1).max(1);
            let d_b = domains.get(1).copied().unwrap_or(1).max(1);
            let d_c = domains[2.min(domains.len())..]
                .iter()
                // ajd: allow(silent-arithmetic, "planning heuristic, not a count: the domain product only sizes the Theorem 5.1 sample and is clamped to total_rows on the next line, so saturation cannot change any reported quantity")
                .fold(1u64, |acc, &d| acc.saturating_mul(d.max(1)))
                .min(total_rows);
            required_n_for_epsilon(d_a, d_b, d_c, config.delta, config.epsilon, total_rows)
        }
    })
}
