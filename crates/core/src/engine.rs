//! [`LossEngine`]: one API over the exact and estimated analysis paths.
//!
//! Code that wants "an entropy / J / loss answerer" — schema mining, the
//! server — is written against this trait instead of one analyzer type.
//! Every measure returns an [`Estimate`] (ε = 0 for the exact path), so
//! [`crate::SchemaMiner::mine_with`] and other consumers dispatch through
//! one API and work unchanged over:
//!
//! * [`Analyzer`] — exact answers, [`BoundKind::Exact`](crate::BoundKind),
//!   with a parallel [`LossEngine::j_measures_estimate`] override;
//! * [`EstimatedAnalyzer`] — sampled answers carrying their (ε, δ, seed,
//!   sample size).
//!
//! `Analyzer` callers that want bare `f64`s keep its inherent methods; the
//! trait adds `*_estimate` methods alongside them.

use crate::analysis::Analyzer;
use crate::estimate::{Estimate, EstimatedAnalyzer};
use ajd_jointree::JoinTree;
use ajd_relation::{AttrSet, GroupKernel, Result};

/// The unified engine API over exact and estimated loss analysis.
///
/// All measures are in nats and return [`Estimate`]s; exact
/// implementations report `ε = δ = 0`.  The `relation_*` accessors expose
/// the schema-level facts consumers (e.g. the schema miner) need without
/// binding to a storage layout.
pub trait LossEngine {
    /// The attribute set of the underlying relation.
    fn relation_attrs(&self) -> AttrSet;

    /// Number of tuples of the underlying relation.
    fn relation_rows(&self) -> u64;

    /// Shannon entropy `H(attrs)` of the empirical distribution.
    fn entropy_estimate(&self, attrs: &AttrSet) -> Result<Estimate<f64>>;

    /// Mutual information `I(A;B)`.
    fn mutual_information_estimate(&self, a: &AttrSet, b: &AttrSet) -> Result<Estimate<f64>>;

    /// Conditional mutual information `I(A;B|C)`.
    fn cmi_estimate(&self, a: &AttrSet, b: &AttrSet, c: &AttrSet) -> Result<Estimate<f64>>;

    /// The J-measure `J(T)` of a join tree.
    fn j_measure_estimate(&self, tree: &JoinTree) -> Result<Estimate<f64>>;

    /// The loss `ρ(R, T)` of a join tree.
    fn loss_estimate(&self, tree: &JoinTree) -> Result<Estimate<f64>>;

    /// J-measures of several candidate trees.  The default answers
    /// sequentially; engines with a parallel scorer (e.g. [`Analyzer`])
    /// override it.
    fn j_measures_estimate(&self, trees: &[JoinTree]) -> Vec<Result<Estimate<f64>>> {
        trees.iter().map(|t| self.j_measure_estimate(t)).collect()
    }

    /// `true` if the underlying relation holds no tuples.
    fn relation_is_empty(&self) -> bool {
        self.relation_rows() == 0
    }
}

impl<S: GroupKernel> LossEngine for Analyzer<S> {
    fn relation_attrs(&self) -> AttrSet {
        self.source().attrs()
    }

    fn relation_rows(&self) -> u64 {
        self.source().num_rows() as u64
    }

    fn entropy_estimate(&self, attrs: &AttrSet) -> Result<Estimate<f64>> {
        Ok(Estimate::exact(self.entropy(attrs)?, self.relation_rows()))
    }

    fn mutual_information_estimate(&self, a: &AttrSet, b: &AttrSet) -> Result<Estimate<f64>> {
        Ok(Estimate::exact(
            self.mutual_information(a, b)?,
            self.relation_rows(),
        ))
    }

    fn cmi_estimate(&self, a: &AttrSet, b: &AttrSet, c: &AttrSet) -> Result<Estimate<f64>> {
        Ok(Estimate::exact(self.cmi(a, b, c)?, self.relation_rows()))
    }

    fn j_measure_estimate(&self, tree: &JoinTree) -> Result<Estimate<f64>> {
        Ok(Estimate::exact(self.j_measure(tree)?, self.relation_rows()))
    }

    fn loss_estimate(&self, tree: &JoinTree) -> Result<Estimate<f64>> {
        Ok(Estimate::exact(self.loss(tree)?, self.relation_rows()))
    }

    /// Scores the candidates through the analyzer's work-stealing fan-out
    /// ([`Analyzer::j_measures`]) instead of one at a time.
    fn j_measures_estimate(&self, trees: &[JoinTree]) -> Vec<Result<Estimate<f64>>> {
        let rows = self.relation_rows();
        self.j_measures(trees)
            .into_iter()
            .map(|r| r.map(|j| Estimate::exact(j, rows)))
            .collect()
    }
}

impl<S: GroupKernel> LossEngine for EstimatedAnalyzer<S> {
    fn relation_attrs(&self) -> AttrSet {
        self.source().attrs()
    }

    fn relation_rows(&self) -> u64 {
        self.total_rows()
    }

    fn entropy_estimate(&self, attrs: &AttrSet) -> Result<Estimate<f64>> {
        self.entropy(attrs)
    }

    fn mutual_information_estimate(&self, a: &AttrSet, b: &AttrSet) -> Result<Estimate<f64>> {
        self.mutual_information(a, b)
    }

    fn cmi_estimate(&self, a: &AttrSet, b: &AttrSet, c: &AttrSet) -> Result<Estimate<f64>> {
        self.cmi(a, b, c)
    }

    fn j_measure_estimate(&self, tree: &JoinTree) -> Result<Estimate<f64>> {
        self.j_measure(tree)
    }

    fn loss_estimate(&self, tree: &JoinTree) -> Result<Estimate<f64>> {
        self.loss(tree)
    }
}
