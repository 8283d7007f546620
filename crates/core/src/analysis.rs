//! The context-first [`Analyzer`] — one entry point for everything the
//! paper measures about a relation.
//!
//! `Analyzer::new(&relation)` owns a shared
//! [`ajd_relation::AnalysisContext`] and routes **every** quantity through
//! it, so any two queries that touch the same attribute subset — two
//! measures, two candidate join trees, a measure and a mining sweep — pay
//! for the grouping once:
//!
//! * the exact loss `ρ(R,S)` of eq. (1) ([`Analyzer::loss`]), via
//!   message-passing join counting ([`Analyzer::join_size`]);
//! * the J-measure `J(T)` (eq. 7, [`Analyzer::j_measure`]) and the
//!   KL-divergence `D_KL(P‖P^T)` (Theorem 3.2, [`Analyzer::kl`]);
//! * entropies and (conditional) mutual informations
//!   ([`Analyzer::entropy`], [`Analyzer::cmi`], [`Analyzer::mvd_cmi`]);
//! * per-MVD quantities ([`Analyzer::mvd_loss`], [`Analyzer::mvd_holds`]);
//! * the full [`LossReport`] ([`Analyzer::analyze`]): everything above plus
//!   the ordered-support decomposition (eq. 9), the Lemma 4.1 and
//!   Proposition 5.1 deterministic bounds and the Theorem 2.2 sandwich;
//! * fan-out over many trees ([`Analyzer::analyze_all`],
//!   [`Analyzer::j_measures`], [`Analyzer::losses`],
//!   [`Analyzer::join_sizes`]) and schema mining ([`Analyzer::mine`]) over
//!   the same shared cache.
//!
//! An analyzer is a cheap handle: the cache lives in a shared
//! [`ajd_relation::AnalysisContext`], and the [`ThreadBudget`] belongs to
//! the handle.  The context also memoizes entropies and join sizes, so a
//! repeated `j_measure` or `loss` is a lookup, not a recomputation.  The shared context holds no budget: each handle passes its
//! own on every miss, so [`Analyzer::with_threads`] re-budgets one handle
//! and a throwaway `analyzer.clone().with_threads(1)` cannot retune the
//! analyzer it was cloned from.
//!
//! The probabilistic Theorem 5.1 / Proposition 5.3 bounds are derived from
//! a report via [`LossReport::confidence_bounds`], which speaks the same
//! [`Estimate`] vocabulary as the estimation tier
//! ([`crate::EstimatedAnalyzer`]).

use crate::estimate::{BoundKind, Estimate};
use ajd_bounds::{
    epsilon_star, j_lower_bound_on_loss, prop51_j_bound, prop53_schema_bound, Prop53Bound,
    Thm51Params,
};
use ajd_info::jmeasure::{j_measure, j_measure_bounds, JMeasureBounds};
use ajd_info::{conditional_entropy, conditional_mutual_information, entropy};
use ajd_info::{kl_divergence_to_tree, kl_report, mutual_information, mvd_cmi, KlReport};
use ajd_jointree::mvd::ordered_support;
use ajd_jointree::{count_acyclic_join, loss_acyclic, JoinTree, Mvd};
use ajd_relation::parallel::fan_out;
use ajd_relation::{
    AnalysisContext, AttrId, AttrSet, CacheStats, GroupIds, GroupKernel, GroupSource, Relation,
    RelationError, Result, ThreadBudget,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Loss and information measures of a single support MVD `φᵢ`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MvdLoss {
    /// The MVD `Δᵢ ↠ Ω_{1:i-1} | Ω_{i:m}`.
    pub mvd: Mvd,
    /// Conditional mutual information `I(Ω_{1:i-1}; Ω_{i:m} | Δᵢ)` in nats.
    pub cmi_nats: f64,
    /// The loss `ρ(R, φᵢ)` of the two-way decomposition (eq. 28).
    pub rho: f64,
    /// `log(1 + ρ(R, φᵢ))` in nats.
    pub log1p_rho: f64,
    /// Measured active-domain sizes `(d_A, d_B, d_C)` of the two exclusive
    /// sides and the separator (value-combination counts), used to
    /// instantiate Theorem 5.1.
    pub domain_sizes: (u64, u64, u64),
}

/// Theorem 5.1 / Proposition 5.3 confidence bounds in the estimation tier's
/// vocabulary: each support MVD's conditional mutual information is an
/// [`Estimate`] whose ε is the theorem's deviation `ε*(φᵢ, N, δ/(m−1))` and
/// whose bound kind is [`BoundKind::Theorem51`] — the same shape every
/// other measure in the workspace now reports.
#[derive(Debug, Clone)]
pub struct ConfidenceBounds {
    /// Per-support-MVD CMI estimates: `value` is the measured
    /// `I(Ω_{1:i-1}; Ω_{i:m} | Δᵢ)` (nats), `epsilon` the Theorem 5.1
    /// deviation at per-MVD confidence `δ/(m−1)`, so w.h.p.
    /// `log(1 + ρ(R,φᵢ)) ≤ value + epsilon` when the MVD qualifies.
    pub per_mvd: Vec<Estimate<f64>>,
    /// Whether the qualifying condition (37) holds for each support MVD
    /// (when it does not, the ε is still computed but the paper gives no
    /// guarantee).
    pub per_mvd_qualified: Vec<bool>,
    /// The schema-level bounds of Proposition 5.3.
    pub schema_bound: Prop53Bound,
    /// The total confidence parameter `δ` the caller requested.
    pub delta: f64,
}

/// Everything the paper says about one `(R, S)` pair, in one struct.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LossReport {
    /// Number of tuples `N = |R|` (with multiplicity for multisets).
    pub n: u64,
    /// Number of *distinct* tuples of `R`.  Equals [`LossReport::n`] for set
    /// relations; for multisets the loss is measured against this value,
    /// since bag projections are set-semantic and the rejoined relation is
    /// compared with `distinct(R)`.
    pub distinct_n: u64,
    /// Number of bags `m` of the schema.
    pub num_bags: usize,
    /// Exact size of the acyclic join `|⋈ᵢ R[Ωᵢ]|`.
    pub join_size: u128,
    /// Number of spurious tuples `|⋈ᵢ R[Ωᵢ]| − |distinct(R)|`.
    pub spurious: u128,
    /// The loss `ρ(R,S)` of eq. (1).
    pub rho: f64,
    /// `log(1 + ρ(R,S))` in nats.
    pub log1p_rho: f64,
    /// The J-measure `J(T)` in nats (eq. 7).
    pub j_measure: f64,
    /// `D_KL(P_R ‖ P_R^T)` in nats, computed independently of `J` as a
    /// numerical cross-check of Theorem 3.2.
    pub kl_nats: f64,
    /// Lemma 4.1 lower bound on the loss: `e^J − 1 ≤ ρ`.
    pub rho_lower_bound: f64,
    /// Theorem 2.2 sandwich around `J`.
    pub theorem22: JMeasureBounds,
    /// Per-MVD losses over the ordered support of the tree rooted at 0.
    pub per_mvd: Vec<MvdLoss>,
    /// Proposition 5.1 deterministic upper bound on the J-measure:
    /// `J(R,S) ≤ Σᵢ log(1 + ρ(R,φᵢ))`.  (The loss itself does not compose
    /// this way; see `ajd_bounds::schema`.)
    pub prop51_bound: f64,
}

impl LossReport {
    /// `true` if the schema is lossless for this relation
    /// (`ρ = 0`, equivalently `J = 0` by Theorem 2.1).
    pub fn is_lossless(&self) -> bool {
        self.spurious == 0
    }

    /// The gap `log(1+ρ) − J ≥ 0` of Lemma 4.1 (0 exactly when the lower
    /// bound is tight, as for Example 4.1).
    pub fn lemma41_gap(&self) -> f64 {
        self.log1p_rho - self.j_measure
    }

    /// Evaluates the probabilistic upper bounds of Theorem 5.1 /
    /// Proposition 5.3 at total confidence `1 − δ`, in the estimation
    /// tier's [`Estimate`] vocabulary.
    ///
    /// Each support MVD's `ε*` is instantiated at confidence `δ/(m−1)` with
    /// the *measured* active-domain sizes of its sides, as recorded in this
    /// report, and returned as an [`Estimate`] around the measured CMI with
    /// [`BoundKind::Theorem51`].  The returned struct also reports, per
    /// MVD, whether the qualifying condition (37) of Theorem 5.1 holds;
    /// when it does not, the ε-term is still computed but the paper gives
    /// no guarantee.
    ///
    /// `delta` must lie strictly inside `(0, 1)`; values outside that range
    /// yield [`RelationError::InvalidParameter`] (library code must not
    /// panic on caller input).
    pub fn confidence_bounds(&self, delta: f64) -> Result<ConfidenceBounds> {
        if !(delta > 0.0 && delta < 1.0) {
            return Err(RelationError::InvalidParameter {
                what: "delta",
                detail: format!("confidence parameter must be in (0,1), got {delta}"),
            });
        }
        let m_minus_1 = self.per_mvd.len().max(1);
        let per_delta = delta / m_minus_1 as f64;
        let mut per_mvd = Vec::with_capacity(self.per_mvd.len());
        let mut qualified = Vec::with_capacity(self.per_mvd.len());
        let mut cmis = Vec::with_capacity(self.per_mvd.len());
        let mut eps = Vec::with_capacity(self.per_mvd.len());
        for m in &self.per_mvd {
            let (d_a, d_b, d_c) = m.domain_sizes;
            let params = Thm51Params::new(d_a.max(1), d_b.max(1), d_c.max(1), self.n, per_delta);
            let e = epsilon_star(&params);
            per_mvd.push(Estimate {
                value: m.cmi_nats,
                epsilon: e,
                delta: per_delta,
                seed: None,
                sample_rows: self.n,
                total_rows: self.n,
                bound: BoundKind::Theorem51,
            });
            qualified.push(ajd_bounds::thm51_qualifying_condition(&params));
            cmis.push(m.cmi_nats);
            eps.push(e);
        }
        let schema_bound = prop53_schema_bound(&cmis, &eps, self.j_measure, delta);
        Ok(ConfidenceBounds {
            per_mvd,
            per_mvd_qualified: qualified,
            schema_bound,
            delta,
        })
    }
}

impl fmt::Display for LossReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Loss analysis (N = {}, m = {} bags)",
            self.n, self.num_bags
        )?;
        if self.distinct_n != self.n {
            writeln!(f, "  distinct tuples    : {}", self.distinct_n)?;
        }
        writeln!(f, "  join size          : {}", self.join_size)?;
        writeln!(f, "  spurious tuples    : {}", self.spurious)?;
        writeln!(f, "  rho (loss)         : {:.6}", self.rho)?;
        writeln!(f, "  log(1+rho)  [nats] : {:.6}", self.log1p_rho)?;
        writeln!(f, "  J-measure   [nats] : {:.6}", self.j_measure)?;
        writeln!(f, "  KL(P || P^T)[nats] : {:.6}", self.kl_nats)?;
        writeln!(f, "  Lemma 4.1 rho >=   : {:.6}", self.rho_lower_bound)?;
        writeln!(f, "  Prop 5.1 bound     : {:.6}", self.prop51_bound)?;
        writeln!(f, "  support MVDs:")?;
        for (i, m) in self.per_mvd.iter().enumerate() {
            writeln!(
                f,
                "    phi_{}: {}   I = {:.6}, rho = {:.6}",
                i + 2,
                m.mvd,
                m.cmi_nats,
                m.rho
            )?;
        }
        Ok(())
    }
}

/// Computes the full [`LossReport`] of one tree over any [`GroupSource`].
///
/// This is the implementation behind [`Analyzer::analyze`] and
/// [`Analyzer::analyze_all`].
///
/// Requirements: the relation must be non-empty and the tree's attributes
/// must be exactly the relation's attributes (so that the empirical
/// distributions and `P^T` live over the same variable set).
///
/// Multiset relations are accepted — information measures then weight
/// tuples by multiplicity, and the loss side (`join_size`, `spurious`, `ρ`)
/// is measured against the number of *distinct* tuples
/// ([`LossReport::distinct_n`]), because bag projections are set-semantic
/// and the rejoined relation contains each tuple once.  The paper's
/// statements relating `J` to `ρ` (Lemma 4.1, Proposition 5.1) assume a
/// *set* relation; call [`Relation::distinct`] first if your data has
/// duplicates and you want those guarantees.
pub(crate) fn report_for<S: GroupSource>(src: &S, tree: &JoinTree) -> Result<LossReport> {
    if src.is_empty() {
        return Err(RelationError::EmptyInput("relation for loss analysis"));
    }
    let relation_attrs = src.attrs();
    if tree.attributes() != relation_attrs {
        return Err(RelationError::SchemaMismatch {
            detail: format!(
                "join tree covers {} but the relation has attributes {}",
                tree.attributes(),
                relation_attrs
            ),
        });
    }

    let n = src.num_rows() as u64;
    // Interned ids first, counts after.  The join count, `distinct_n`, the
    // KL sum and the support-MVD losses all read `GroupIds`; a count lookup
    // of a set whose ids are resident then reads them instead of grouping
    // again.  In the other order each bag, separator, Ω and MVD side would
    // be grouped twice, once for each cache.
    let join_size = count_acyclic_join(src, tree)?;
    // For a set relation this is `n`; for a multiset it is the size of
    // `distinct(R)`, the baseline the rejoined (set-semantic) join must be
    // compared against.  (The full-relation grouping also backs `H(Ω)` and
    // the KL sum, so this grouping is shared, not extra.)
    let distinct_n = src.group_ids(&relation_attrs)?.num_groups() as u64;
    let spurious = join_size
        .checked_sub(distinct_n as u128)
        .expect("the acyclic join contains every distinct tuple of R");
    let rho = (join_size as f64 - distinct_n as f64) / distinct_n as f64;
    let kl = kl_divergence_to_tree(src, tree)?;
    let rooted = tree.rooted(0)?;
    let support = ordered_support(&rooted);
    // Ordered-support MVDs cover all of Ω, so each is measured against the
    // same distinct-tuple baseline as the schema loss.
    let mvd_rhos = support
        .iter()
        .map(|mvd| mvd.loss(src))
        .collect::<Result<Vec<_>>>()?;

    // The count consumers.  Every count lookup below reads the ids fetched
    // above, except the supports of exclusive MVD sides that no step above
    // grouped.
    let j = j_measure(src, tree)?;
    let theorem22 = j_measure_bounds(src, tree, 0)?;

    // Active-domain size of an attribute set: O(1) from the column
    // dictionary for a single attribute, a (memoized) grouping for value
    // combinations.  Both count the same distinct projections.
    let marginal_support = |attrs: &AttrSet| -> Result<u64> {
        match attrs.as_slice() {
            [] => Ok(1),
            [single] => Ok(src.active_domain_size(*single)? as u64),
            _ => Ok(src.distinct(attrs)? as u64),
        }
    };

    let mut per_mvd = Vec::with_capacity(support.len());
    for (mvd, mvd_rho) in support.into_iter().zip(mvd_rhos) {
        let cmi = mvd_cmi(src, &mvd)?;
        let d_a = marginal_support(&mvd.left_exclusive())?;
        let d_b = marginal_support(&mvd.right_exclusive())?;
        let d_c = marginal_support(&mvd.lhs)?;
        per_mvd.push(MvdLoss {
            cmi_nats: cmi,
            rho: mvd_rho,
            log1p_rho: mvd_rho.ln_1p(),
            domain_sizes: (d_a, d_b, d_c),
            mvd,
        });
    }
    let prop51_bound = prop51_j_bound(&per_mvd.iter().map(|m| m.rho).collect::<Vec<_>>());

    Ok(LossReport {
        n,
        distinct_n,
        num_bags: tree.num_nodes(),
        join_size,
        spurious,
        rho,
        log1p_rho: rho.ln_1p(),
        j_measure: j,
        kl_nats: kl,
        rho_lower_bound: j_lower_bound_on_loss(j.max(0.0)),
        theorem22,
        per_mvd,
        prop51_bound,
    })
}

/// The context-first analysis entry point: one owner for the cached state
/// of one relation, one API to route every measure through.
///
/// ```
/// use ajd_core::Analyzer;
/// use ajd_jointree::JoinTree;
/// use ajd_random::generators::bijection_relation;
/// use ajd_relation::{AttrId, AttrSet};
///
/// // Example 4.1 of the paper.
/// let r = bijection_relation(16);
/// let tree = JoinTree::from_acyclic_schema(&[
///     AttrSet::singleton(AttrId(0)),
///     AttrSet::singleton(AttrId(1)),
/// ]).unwrap();
///
/// let analyzer = Analyzer::new(&r);
/// let report = analyzer.analyze(&tree).unwrap();
/// assert_eq!(report.spurious, 16 * 16 - 16);
/// // Individual measures share the same cache:
/// assert_eq!(analyzer.loss(&tree).unwrap(), report.rho);
/// assert!(analyzer.cache_stats().hits > 0);
///
/// // Many trees fan out over the same cache, results in input order.
/// let whole = JoinTree::path(vec![AttrSet::from_ids([0, 1])]).unwrap();
/// let reports = analyzer.analyze_all(&[tree, whole]);
/// assert_eq!(reports[1].as_ref().unwrap().spurious, 0);
/// ```
///
/// The analyzer is itself a [`GroupSource`]: the free measure functions of
/// `ajd-info` / `ajd-jointree` accept `&analyzer` and answer from its cache
/// under its thread budget.
#[derive(Debug)]
pub struct Analyzer<S = Relation> {
    ctx: Arc<AnalysisContext<S>>,
    threads: ThreadBudget,
}

/// Cloning an analyzer clones the *handle*: both analyzers share one
/// context (source, caches and counters) — the cheap way to hand an
/// epoch-consistent view to another thread.  Each clone carries its own
/// thread budget.
impl<S> Clone for Analyzer<S> {
    fn clone(&self) -> Self {
        Analyzer {
            ctx: Arc::clone(&self.ctx),
            threads: self.threads,
        }
    }
}

impl<S: GroupKernel> Analyzer<S> {
    /// Creates an analyzer over `src` — a flat [`Relation`] or an
    /// [`ajd_relation::ShardedRelation`] — with an empty cache and the
    /// default [`ThreadBudget`] (the machine's available parallelism).
    ///
    /// `src` is a handle: pass `&relation` to borrow (the classic one-shot
    /// path) or an `Arc<ShardedRelation>` snapshot from an
    /// [`ajd_relation::ShardedStore`] to analyze one pinned epoch of a live
    /// relation.
    pub fn new(src: S) -> Self {
        Self::with_thread_budget(src, ThreadBudget::default())
    }

    /// Creates an analyzer with an explicit [`ThreadBudget`] — use
    /// [`ThreadBudget::serial`] when the caller already owns the
    /// parallelism (e.g. per-trial analyzers inside a parallel experiment
    /// loop).
    pub fn with_thread_budget(src: S, budget: ThreadBudget) -> Self {
        Self::from_context(Arc::new(AnalysisContext::new(src)), budget)
    }

    /// A handle on an existing shared context (such as a memoized sample
    /// from a context's sample tier, or a live store's epoch context).
    pub(crate) fn from_context(ctx: Arc<AnalysisContext<S>>, budget: ThreadBudget) -> Self {
        Analyzer {
            ctx,
            threads: budget,
        }
    }

    /// Sets this handle's [`ThreadBudget`] (1 forces fully sequential
    /// evaluation).
    ///
    /// The budget caps the *total* threads one call may use.  A fan-out
    /// over `w ≤ threads` trees gives each worker the kernel share
    /// `threads / w`, so the two layers never multiply into `threads²` OS
    /// threads.  Only this handle changes: the shared context holds no
    /// budget, and every other handle on it keeps its own.  Results are
    /// bit-identical at any setting.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = ThreadBudget::new(threads);
        self
    }

    /// The thread budget this handle computes under.
    pub fn thread_budget(&self) -> ThreadBudget {
        self.threads
    }

    /// The grouping source being analysed.
    pub fn source(&self) -> &S {
        self.ctx.source()
    }

    /// The underlying shared context, for inspecting its caches.  Measures
    /// run on the context itself compute misses under the default budget,
    /// not this handle's.
    pub fn context(&self) -> &AnalysisContext<S> {
        &self.ctx
    }

    /// Snapshot of the shared cache's effectiveness.
    pub fn cache_stats(&self) -> CacheStats {
        self.ctx.stats()
    }

    // ------------------------------------------------------------------
    // Information measures
    // ------------------------------------------------------------------

    /// Entropy `H(attrs)` in nats of the marginal empirical distribution.
    pub fn entropy(&self, attrs: &AttrSet) -> Result<f64> {
        entropy(self, attrs)
    }

    /// Conditional entropy `H(A | B)` in nats.
    pub fn conditional_entropy(&self, a: &AttrSet, b: &AttrSet) -> Result<f64> {
        conditional_entropy(self, a, b)
    }

    /// Mutual information `I(A; B)` in nats.
    pub fn mutual_information(&self, a: &AttrSet, b: &AttrSet) -> Result<f64> {
        mutual_information(self, a, b)
    }

    /// Conditional mutual information `I(A; B | C)` in nats (eq. 4).
    pub fn cmi(&self, a: &AttrSet, b: &AttrSet, c: &AttrSet) -> Result<f64> {
        conditional_mutual_information(self, a, b, c)
    }

    /// The CMI `I(A;B|C)` of an MVD `φ = C ↠ A | B`.
    pub fn mvd_cmi(&self, mvd: &Mvd) -> Result<f64> {
        mvd_cmi(self, mvd)
    }

    // ------------------------------------------------------------------
    // Tree measures
    // ------------------------------------------------------------------

    /// The J-measure `J(T)` in nats (eq. 7).
    pub fn j_measure(&self, tree: &JoinTree) -> Result<f64> {
        j_measure(self, tree)
    }

    /// The Theorem 2.2 sandwich (max CMI ≤ J ≤ sum CMI) for the tree rooted
    /// at `root`.
    pub fn j_measure_bounds(&self, tree: &JoinTree, root: usize) -> Result<JMeasureBounds> {
        j_measure_bounds(self, tree, root)
    }

    /// `D_KL(P_R ‖ P_R^T)` in nats (Theorem 3.2).
    pub fn kl(&self, tree: &JoinTree) -> Result<f64> {
        kl_divergence_to_tree(self, tree)
    }

    /// Like [`Analyzer::kl`], additionally reporting the support size.
    pub fn kl_report(&self, tree: &JoinTree) -> Result<KlReport> {
        kl_report(self, tree)
    }

    /// Exact size of the acyclic join `|⋈ᵢ R[Ωᵢ]|` (message passing, no
    /// materialisation).
    pub fn join_size(&self, tree: &JoinTree) -> Result<u128> {
        count_acyclic_join(self, tree)
    }

    /// The exact loss `ρ(R,S)` of eq. (1).
    pub fn loss(&self, tree: &JoinTree) -> Result<f64> {
        loss_acyclic(self, tree)
    }

    /// The full [`LossReport`] of one tree: loss, J, KL, Theorem 2.2
    /// sandwich, ordered-support decomposition and deterministic bounds.
    pub fn analyze(&self, tree: &JoinTree) -> Result<LossReport> {
        report_for(self, tree)
    }

    // ------------------------------------------------------------------
    // MVD measures
    // ------------------------------------------------------------------

    /// Size of an MVD's two-way join `|R[C∪A] ⋈ R[C∪B]|`.
    pub fn mvd_join_size(&self, mvd: &Mvd) -> Result<u128> {
        mvd.join_size(self)
    }

    /// The loss `ρ(R, φ)` of eq. (28) for one MVD.
    pub fn mvd_loss(&self, mvd: &Mvd) -> Result<f64> {
        mvd.loss(self)
    }

    /// `true` if the MVD holds in the relation (zero spurious tuples).
    pub fn mvd_holds(&self, mvd: &Mvd) -> Result<bool> {
        mvd.holds_in(self)
    }

    // ------------------------------------------------------------------
    // Fan-out
    // ------------------------------------------------------------------

    /// Same as [`Clone::clone`]: a handle sharing this analyzer's cache and
    /// budget.  Kept as an alias for existing callers of
    /// `analyzer.batch().with_threads(n)`; new code should call `clone()`.
    pub fn batch(&self) -> Self {
        self.clone()
    }

    /// Full [`LossReport`]s of many trees, evaluated in parallel over the
    /// shared cache; results are in input order and bit-identical to
    /// [`Analyzer::analyze`] on each tree.
    pub fn analyze_all(&self, trees: &[JoinTree]) -> Vec<Result<LossReport>> {
        self.parallel_map(trees, report_for)
    }

    /// J-measures (eq. 7) of many trees, in parallel, in input order.
    pub fn j_measures(&self, trees: &[JoinTree]) -> Vec<Result<f64>> {
        self.parallel_map(trees, j_measure)
    }

    /// Exact losses `ρ(R,S)` (eq. 1) of many trees, in parallel, in input
    /// order.
    pub fn losses(&self, trees: &[JoinTree]) -> Vec<Result<f64>> {
        self.parallel_map(trees, loss_acyclic)
    }

    /// Exact acyclic join sizes of many trees, in parallel, in input order.
    pub fn join_sizes(&self, trees: &[JoinTree]) -> Vec<Result<u128>> {
        self.parallel_map(trees, count_acyclic_join)
    }

    /// The shared ordered fan-out ([`fan_out`]) over `trees`: workers pull
    /// tree indices from a shared counter, so a few expensive trees do not
    /// stall the rest behind a static partition, and the results come back
    /// in input order.
    ///
    /// Each of the `w` workers evaluates through a clone of this handle
    /// carrying the per-worker kernel share `threads / w`, so the fan-out
    /// and the grouping kernel split one budget instead of multiplying.  A
    /// single worker (budget 1, or at most one tree) runs inline with no
    /// thread spawn, and no budget spawns more than
    /// [`ajd_relation::parallel::MAX_CHUNK_WORKERS`] workers.
    fn parallel_map<T, F>(&self, trees: &[JoinTree], f: F) -> Vec<Result<T>>
    where
        T: Send,
        F: Fn(&Self, &JoinTree) -> Result<T> + Sync,
    {
        fan_out(trees.len(), self.threads, |i, share| {
            f(&self.clone().with_threads(share.get()), &trees[i])
        })
    }

    /// Mines an approximate acyclic schema (Chow–Liu + greedy coarsening,
    /// see [`crate::SchemaMiner`]) through this analyzer's cache.
    ///
    /// Candidate scoring fans out over the analyzer's thread budget
    /// (default: available parallelism); construct the analyzer with
    /// [`Analyzer::with_thread_budget`] and a serial budget when an outer
    /// loop already owns the parallelism.  The mined schema is identical at
    /// any budget.
    pub fn mine(&self, config: crate::DiscoveryConfig) -> Result<crate::MinedSchema> {
        crate::SchemaMiner::new(config).mine_with(self)
    }
}

/// Answers from the shared cache, computing misses under this handle's
/// [`ThreadBudget`].
impl<S: GroupKernel> GroupSource for Analyzer<S> {
    fn schema(&self) -> &[AttrId] {
        self.ctx.source().schema()
    }

    fn num_rows(&self) -> usize {
        self.ctx.source().num_rows()
    }

    fn active_domain_size(&self, attr: AttrId) -> Result<usize> {
        self.ctx.source().active_domain_size(attr)
    }

    fn group_ids(&self, attrs: &AttrSet) -> Result<Arc<GroupIds>> {
        self.ctx.group_ids_with(attrs, self.threads)
    }

    fn distinct(&self, attrs: &AttrSet) -> Result<usize> {
        self.ctx.distinct_with(attrs, self.threads)
    }

    fn memo_entropy(&self, attrs: &AttrSet, formula: fn(&[u64], u128) -> f64) -> Result<f64> {
        self.ctx.entropy_with(attrs, self.threads, formula)
    }

    fn memo_join_size(&self, bags: &[AttrSet], count: &dyn Fn() -> Result<u128>) -> Result<u128> {
        self.ctx.join_size_tier(bags, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajd_random::generators::{bijection_relation, conditional_product_relation};
    use ajd_random::RandomRelationModel;
    use ajd_relation::{AttrId, AttrSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bag(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().copied())
    }

    fn cross_tree() -> JoinTree {
        JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).unwrap()
    }

    #[test]
    fn bijection_relation_report_matches_example_4_1() {
        let n = 16u32;
        let r = bijection_relation(n);
        let rep = Analyzer::new(&r).analyze(&cross_tree()).unwrap();
        assert_eq!(rep.n, n as u64);
        assert_eq!(rep.join_size, (n as u128) * (n as u128));
        assert_eq!(rep.spurious, (n as u128) * (n as u128) - n as u128);
        assert!((rep.rho - (n as f64 - 1.0)).abs() < 1e-9);
        // Tightness of Lemma 4.1 on this family.
        assert!(rep.lemma41_gap().abs() < 1e-9);
        assert!((rep.j_measure - (n as f64).ln()).abs() < 1e-9);
        assert!((rep.rho_lower_bound - rep.rho).abs() < 1e-6);
        assert!(!rep.is_lossless());
    }

    #[test]
    fn lossless_relation_reports_zero_everything() {
        let r = conditional_product_relation(4, 3, 2);
        let tree = JoinTree::new(vec![bag(&[0, 2]), bag(&[1, 2])], vec![(0, 1)]).unwrap();
        let rep = Analyzer::new(&r).analyze(&tree).unwrap();
        assert!(rep.is_lossless());
        assert_eq!(rep.spurious, 0);
        assert!(rep.rho.abs() < 1e-12);
        assert!(rep.j_measure.abs() < 1e-9);
        assert!(rep.kl_nats.abs() < 1e-9);
        assert!(rep.rho_lower_bound.abs() < 1e-9);
        assert!(rep.prop51_bound.abs() < 1e-9);
        for m in &rep.per_mvd {
            assert!(m.rho.abs() < 1e-12);
            assert!(m.cmi_nats.abs() < 1e-9);
        }
    }

    #[test]
    fn theorem_3_2_and_lemma_4_1_hold_on_random_relations() {
        let mut rng = StdRng::seed_from_u64(2024);
        let model =
            RandomRelationModel::new(ajd_random::ProductDomain::new(vec![6, 5, 4, 3]).unwrap());
        let trees = vec![
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
        ];
        for _ in 0..5 {
            let r = model.sample(&mut rng, 80).unwrap();
            let analyzer = Analyzer::new(&r);
            for tree in &trees {
                let rep = analyzer.analyze(tree).unwrap();
                // Theorem 3.2: J = KL.
                assert!((rep.j_measure - rep.kl_nats).abs() < 1e-9);
                // Lemma 4.1: J <= log(1+rho).
                assert!(rep.j_measure <= rep.log1p_rho + 1e-9);
                // Proposition 5.1: J <= sum log(1+rho_i).
                assert!(rep.j_measure <= rep.prop51_bound + 1e-9);
                // Theorem 2.2 sandwich.
                assert!(rep.theorem22.max_cmi <= rep.j_measure + 1e-9);
                assert!(rep.j_measure <= rep.theorem22.sum_cmi + 1e-9);
            }
        }
    }

    #[test]
    fn per_mvd_breakdown_has_one_entry_per_edge() {
        let mut rng = StdRng::seed_from_u64(7);
        let model =
            RandomRelationModel::new(ajd_random::ProductDomain::new(vec![4, 4, 4, 4]).unwrap());
        let r = model.sample(&mut rng, 60).unwrap();
        let tree = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
        let rep = Analyzer::new(&r).analyze(&tree).unwrap();
        assert_eq!(rep.per_mvd.len(), tree.num_edges());
        for m in &rep.per_mvd {
            assert!(m.rho >= 0.0);
            assert!(m.cmi_nats >= -1e-9);
            // Lemma 4.1 applied to a single MVD: I(A;B|C) <= log(1+rho_i).
            assert!(m.cmi_nats <= m.log1p_rho + 1e-9);
            assert!(m.domain_sizes.0 >= 1 && m.domain_sizes.1 >= 1 && m.domain_sizes.2 >= 1);
        }
    }

    #[test]
    fn confidence_bounds_structure() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = RandomRelationModel::for_mvd(8, 8, 2).unwrap();
        let r = model.sample(&mut rng, 100).unwrap();
        let tree = JoinTree::new(vec![bag(&[0, 2]), bag(&[1, 2])], vec![(0, 1)]).unwrap();
        let rep = Analyzer::new(&r).analyze(&tree).unwrap();
        let cb = rep.confidence_bounds(0.1).unwrap();
        assert_eq!(cb.per_mvd.len(), 1);
        assert_eq!(cb.per_mvd_qualified.len(), 1);
        let est = &cb.per_mvd[0];
        assert!(est.epsilon > 0.0);
        assert_eq!(est.bound, crate::BoundKind::Theorem51);
        assert_eq!(est.value.to_bits(), rep.per_mvd[0].cmi_nats.to_bits());
        assert_eq!(est.sample_rows, rep.n);
        assert_eq!(est.total_rows, rep.n);
        assert!(est.seed.is_none());
        // Per-MVD confidence is the split δ/(m−1).
        assert!((est.delta - 0.1).abs() < 1e-12);
        assert!((cb.schema_bound.confidence - 0.9).abs() < 1e-12);
        // With only 100 tuples the qualifying condition cannot hold.
        assert!(!cb.per_mvd_qualified[0]);
        // The eps-inflated bound dominates the measured log(1+rho)
        // trivially here (eps is huge for tiny N).
        assert!(cb.schema_bound.sum_cmi_bound >= rep.log1p_rho);
    }

    /// Regression: an out-of-range `delta` used to `assert!` (panicking in
    /// library code); it must now surface as a proper error.
    #[test]
    fn confidence_bounds_reject_out_of_range_delta() {
        let r = bijection_relation(4);
        let rep = Analyzer::new(&r).analyze(&cross_tree()).unwrap();
        for bad in [0.0, 1.0, -0.5, 2.0, f64::NAN] {
            let err = rep.confidence_bounds(bad).unwrap_err();
            assert!(
                matches!(err, RelationError::InvalidParameter { what: "delta", .. }),
                "expected InvalidParameter for delta = {bad}, got {err}"
            );
        }
        assert!(rep.confidence_bounds(0.05).is_ok());
    }

    /// Regression: for multiset relations the spurious-tuple count used to
    /// be computed as `join_size − N` in `u128`, underflowing (debug panic,
    /// release wraparound and negative ρ) whenever duplicates made the
    /// set-semantic join smaller than `N`.  The loss is now measured
    /// against the distinct-tuple count.
    #[test]
    fn multiset_relation_loss_measured_against_distinct_tuples() {
        // 3 distinct tuples, one duplicated 3 times: N = 5, distinct = 3.
        let r = Relation::from_rows(
            vec![AttrId(0), AttrId(1)],
            &[
                &[0, 0][..],
                &[0, 0][..],
                &[0, 0][..],
                &[1, 0][..],
                &[1, 1][..],
            ],
        )
        .unwrap();
        assert!(!r.is_set());
        // Join of the singleton projections: {0,1} x {0,1} = 4 < N = 5.
        let rep = Analyzer::new(&r).analyze(&cross_tree()).unwrap();
        assert_eq!(rep.n, 5);
        assert_eq!(rep.distinct_n, 3);
        assert_eq!(rep.join_size, 4);
        assert_eq!(rep.spurious, 1);
        assert!(rep.rho >= 0.0);
        assert!((rep.rho - 1.0 / 3.0).abs() < 1e-12);
        // Per-MVD losses are measured against the same baseline.
        for m in &rep.per_mvd {
            assert!(m.rho >= 0.0);
        }
        // The information side still weights tuples by multiplicity.
        assert!(rep.j_measure >= 0.0);
        assert!((rep.j_measure - rep.kl_nats).abs() < 1e-9);
    }

    #[test]
    fn set_relation_reports_distinct_equal_to_n() {
        let r = bijection_relation(6);
        let rep = Analyzer::new(&r).analyze(&cross_tree()).unwrap();
        assert_eq!(rep.distinct_n, rep.n);
    }

    #[test]
    fn analyzer_matches_free_functions_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        let model =
            RandomRelationModel::new(ajd_random::ProductDomain::new(vec![5, 4, 4, 3]).unwrap());
        let r = model.sample(&mut rng, 70).unwrap();
        let analyzer = Analyzer::new(&r);
        for tree in [
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
        ] {
            // Bit-identical floats, not just approximately equal.
            assert_eq!(
                analyzer.j_measure(&tree).unwrap().to_bits(),
                j_measure(&r, &tree).unwrap().to_bits()
            );
            assert_eq!(
                analyzer.kl(&tree).unwrap().to_bits(),
                kl_divergence_to_tree(&r, &tree).unwrap().to_bits()
            );
            assert_eq!(
                analyzer.loss(&tree).unwrap().to_bits(),
                loss_acyclic(&r, &tree).unwrap().to_bits()
            );
            assert_eq!(
                analyzer.join_size(&tree).unwrap(),
                count_acyclic_join(&r, &tree).unwrap()
            );
        }
        // Scalar measures route through the same cache.
        let h = analyzer.entropy(&bag(&[0, 1])).unwrap();
        assert_eq!(h.to_bits(), entropy(&r, &bag(&[0, 1])).unwrap().to_bits());
        assert!(analyzer.cache_stats().hits > 0);
    }

    #[test]
    fn analyzer_mvd_measures_match_direct_calls() {
        let r = conditional_product_relation(3, 3, 2);
        let analyzer = Analyzer::new(&r);
        let mvd = Mvd::new(bag(&[2]), bag(&[0]), bag(&[1])).unwrap();
        assert_eq!(
            analyzer.mvd_join_size(&mvd).unwrap(),
            mvd.join_size(&r).unwrap()
        );
        assert_eq!(
            analyzer.mvd_loss(&mvd).unwrap().to_bits(),
            mvd.loss(&r).unwrap().to_bits()
        );
        assert!(analyzer.mvd_holds(&mvd).unwrap());
        assert_eq!(
            analyzer.mvd_cmi(&mvd).unwrap().to_bits(),
            mvd_cmi(&r, &mvd).unwrap().to_bits()
        );
    }

    #[test]
    fn mismatched_tree_and_relation_are_rejected() {
        let r = bijection_relation(4);
        let tree = JoinTree::new(vec![bag(&[0]), bag(&[2])], vec![(0, 1)]).unwrap();
        assert!(Analyzer::new(&r).analyze(&tree).is_err());
        let empty = Relation::new(vec![AttrId(0), AttrId(1)]).unwrap();
        assert!(Analyzer::new(&empty).analyze(&cross_tree()).is_err());
    }

    #[test]
    fn display_renders_all_sections() {
        let r = bijection_relation(4);
        let rep = Analyzer::new(&r).analyze(&cross_tree()).unwrap();
        let s = format!("{rep}");
        assert!(s.contains("spurious"));
        assert!(s.contains("J-measure"));
        assert!(s.contains("phi_2"));
    }

    fn sweep_trees() -> Vec<JoinTree> {
        vec![
            JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap(),
            JoinTree::star(vec![bag(&[0, 1]), bag(&[0, 2]), bag(&[0, 3])]).unwrap(),
            JoinTree::new(
                vec![bag(&[0]), bag(&[1]), bag(&[2]), bag(&[3])],
                vec![(0, 1), (1, 2), (2, 3)],
            )
            .unwrap(),
            JoinTree::new(vec![bag(&[0, 1, 2]), bag(&[2, 3])], vec![(0, 1)]).unwrap(),
            JoinTree::new(vec![bag(&[0, 1, 2, 3])], vec![]).unwrap(),
        ]
    }

    fn sample_relation(seed: u64) -> Relation {
        let model =
            RandomRelationModel::new(ajd_random::ProductDomain::new(vec![5, 4, 4, 3]).unwrap());
        model.sample(&mut StdRng::seed_from_u64(seed), 60).unwrap()
    }

    #[test]
    fn analyze_all_matches_single_tree_analysis() {
        let r = sample_relation(3);
        let trees = sweep_trees();
        let batch = Analyzer::new(&r);
        let reports = batch.analyze_all(&trees);
        assert_eq!(reports.len(), trees.len());
        for (tree, report) in trees.iter().zip(&reports) {
            let batched = report.as_ref().unwrap();
            let fresh = Analyzer::new(&r).analyze(tree).unwrap();
            assert_eq!(batched.join_size, fresh.join_size);
            assert_eq!(batched.rho.to_bits(), fresh.rho.to_bits());
            assert_eq!(batched.j_measure.to_bits(), fresh.j_measure.to_bits());
            assert_eq!(batched.kl_nats.to_bits(), fresh.kl_nats.to_bits());
        }
        let stats = batch.cache_stats();
        assert!(stats.hits > 0, "the sweep must share grouping work");
    }

    #[test]
    fn analyzer_batch_shares_the_analyzer_cache() {
        let r = sample_relation(5);
        let trees = sweep_trees();
        let analyzer = Analyzer::new(&r);
        let batch = analyzer.batch();
        let _ = batch.analyze_all(&trees);
        // The batch populated the analyzer's own cache: a follow-up scalar
        // query is answered without recomputation.
        let before = analyzer.cache_stats();
        let _ = analyzer.j_measure(&trees[0]).unwrap();
        let after = analyzer.cache_stats();
        assert!(after.hits > before.hits);
        assert_eq!(
            (after.misses, after.derived),
            (before.misses, before.derived)
        );
    }

    #[test]
    fn j_measures_and_losses_match_uncached_calls() {
        let r = sample_relation(7);
        let trees = sweep_trees();
        let batch = Analyzer::new(&r);
        for (tree, j) in trees.iter().zip(batch.j_measures(&trees)) {
            assert_eq!(j.unwrap().to_bits(), j_measure(&r, tree).unwrap().to_bits());
        }
        for (tree, rho) in trees.iter().zip(batch.losses(&trees)) {
            assert_eq!(
                rho.unwrap().to_bits(),
                loss_acyclic(&r, tree).unwrap().to_bits()
            );
        }
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let r = sample_relation(9);
        let trees = sweep_trees();
        let seq = Analyzer::new(&r).with_threads(1);
        let par = Analyzer::new(&r).with_threads(4);
        for (a, b) in seq.join_sizes(&trees).iter().zip(par.join_sizes(&trees)) {
            assert_eq!(*a.as_ref().unwrap(), b.unwrap());
        }
    }

    /// Regression: `losses()` and `analyze_all()` must agree on the loss of
    /// the same tree even for multiset relations — both measure against the
    /// distinct-tuple baseline (a negative `losses()` next to a positive
    /// `analyze()` rho was possible when the quick path divided by `N`).
    #[test]
    fn losses_agree_with_full_reports_on_multisets() {
        let r = Relation::from_rows(
            vec![AttrId(0), AttrId(1)],
            &[
                &[0, 0][..],
                &[0, 0][..],
                &[0, 0][..],
                &[1, 0][..],
                &[1, 1][..],
            ],
        )
        .unwrap();
        assert!(!r.is_set());
        let trees = vec![
            JoinTree::new(vec![bag(&[0]), bag(&[1])], vec![(0, 1)]).unwrap(),
            JoinTree::new(vec![bag(&[0, 1])], vec![]).unwrap(),
        ];
        let batch = Analyzer::new(&r);
        let quick = batch.losses(&trees);
        let full = batch.analyze_all(&trees);
        for (rho, report) in quick.iter().zip(&full) {
            let rho = rho.as_ref().unwrap();
            assert!(*rho >= 0.0, "loss must never be negative, got {rho}");
            assert_eq!(rho.to_bits(), report.as_ref().unwrap().rho.to_bits());
        }
    }

    /// Regression: `with_threads` used to write the shared context's kernel
    /// budget permanently, so a throwaway `analyzer.batch().with_threads(1)`
    /// silently serialised every later miss of the analyzer it borrowed its
    /// cache from.  The budget now belongs to the handle; the shared
    /// context holds none.
    #[test]
    fn temporary_batch_does_not_retune_the_shared_context() {
        let r = sample_relation(11);
        let analyzer = Analyzer::new(&r);
        let before = analyzer.thread_budget();
        let batch = analyzer.batch().with_threads(1);
        assert!(batch.thread_budget().is_serial());
        // Configuring the batch leaves the analyzer untouched…
        assert_eq!(analyzer.thread_budget(), before);
        // …and so does running a sweep through it (the share is per handle).
        let _ = batch.j_measures(&sweep_trees());
        assert_eq!(analyzer.thread_budget(), before);
        drop(batch);
        assert_eq!(analyzer.thread_budget(), before);
    }

    /// A serial analyzer hands out serial batches: `batch` inherits the
    /// handle's budget instead of resetting to the machine default, so
    /// per-trial analyzers inside an already-parallel loop never fan out
    /// behind the caller's back.
    #[test]
    fn batch_inherits_the_analyzers_thread_budget() {
        let r = sample_relation(13);
        let serial = Analyzer::with_thread_budget(&r, ThreadBudget::serial());
        assert_eq!(serial.batch().thread_budget().get(), 1);
        let wide = Analyzer::with_thread_budget(&r, ThreadBudget::new(3));
        assert_eq!(wide.batch().thread_budget().get(), 3);
        // An explicit with_threads still overrides the inherited value.
        assert_eq!(serial.batch().with_threads(2).thread_budget().get(), 2);
    }

    #[test]
    fn per_tree_errors_do_not_poison_the_batch() {
        let r = sample_relation(1);
        let good = JoinTree::path(vec![bag(&[0, 1]), bag(&[1, 2]), bag(&[2, 3])]).unwrap();
        // Mentions attribute 9, which the relation does not have.
        let bad = JoinTree::path(vec![bag(&[0, 9]), bag(&[9, 2])]).unwrap();
        let batch = Analyzer::new(&r);
        let out = batch.analyze_all(&[good, bad]);
        assert!(out[0].is_ok());
        assert!(out[1].is_err());
    }

    #[test]
    fn empty_tree_list_is_fine() {
        let r = sample_relation(2);
        assert!(Analyzer::new(&r).analyze_all(&[]).is_empty());
    }
}
