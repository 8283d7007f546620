//! Shared-computation analysis context and the [`GroupSource`] abstraction.
//!
//! Every information measure in the paper (the entropies of eq. 4, the
//! J-measure of eq. 7, the KL-divergence of Theorem 3.2, the per-MVD
//! conditional mutual informations and losses of eq. 28) reduces to *group
//! counts* of the same relation `R` on various attribute subsets `Y ⊆ Ω`,
//! and the loss `ρ` of eq. 1 reduces to the acyclic join size, which
//! message passing counts from the groupings of the bags without ever
//! materialising a projection.  Evaluating many measures — or many
//! candidate join trees, as schema discovery does — therefore recomputes
//! the same groupings over and over.
//!
//! Two pieces live here:
//!
//! * [`GroupSource`] — the capability every measure in the workspace is
//!   written against: "give me the interned group ids / the number of
//!   groups / the entropy of this attribute set, or the join size of this
//!   schema".  A
//!   plain [`Relation`] implements it by computing fresh (the one-shot
//!   path); an [`AnalysisContext`] implements it by memoizing (the shared
//!   path).  Because both implementations call the *same* columnar kernel,
//!   a measure computed through a context is **bit-identical** to its
//!   uncached counterpart — a property the workspace's tests assert.
//! * [`AnalysisContext`] — the memoization layer, in the spirit of the
//!   lattice-level entropy caching of Kenig et al. (*Mining Approximate
//!   Acyclic Schemes from Relations*, 2019): caches of [`GroupIds`] (with
//!   row ids, or count tables without) keyed by [`AttrSet`], **striped** across
//!   several `RwLock`-guarded shards (so writes on unrelated attribute sets
//!   do not contend) with **per-key single-flight** misses: when several
//!   threads race on the same cold `AttrSet`, exactly one computes the
//!   grouping and the rest block on that entry alone — never on the whole
//!   map, and never recomputing the same expensive grouping N times.
//!   Misses are computed through a [`ThreadBudget`] (the chunked parallel
//!   kernel) given per call, which keeps results bit-identical to the
//!   serial path at any budget.  A cold multi-attribute set is first
//!   *derived* from a resident id table of a subset or superset when the
//!   lattice policy finds one ([`AnalysisContext`]), without a kernel run.
//!
//! Above those caches a context keeps three **memo tiers** in the same
//! single-flight maps, so a warm measure is a lookup rather than a sum:
//! the entropy `H(Y)` per attribute set (the entropy oracle over the
//! attribute lattice), the acyclic join size per schema, and the seeded
//! estimation sample per `(seed, n)`.  [`GroupSource::memo_entropy`] and
//! [`GroupSource::memo_join_size`] are the hooks the measures in
//! `ajd-info` and `ajd-jointree` call; a plain source computes, a context
//! answers from its tier.  A context serves one epoch of its source, so no
//! cache or tier can answer for rows it has not seen: over a live
//! relation, [`crate::ShardedStore`] installs one context with each epoch
//! and every reader of that epoch shares it.  The new context starts with
//! no table, but it inherits the previous epoch's group tables as *seeds*:
//! a cold fill of a seeded set extends the old table by the appended
//! shards instead of regrouping every shard, and takes over the key map
//! the old table's own extension kept, so it hashes only the new shards'
//! groups.  The memo tiers are never seeded; each epoch recomputes them
//! from its own tables, so every float sum keeps its order.

use crate::attr::{AttrId, AttrSet};
use crate::error::{RelationError, Result};
use crate::hash::{FxHashMap, FxHasher};
use crate::parallel::ThreadBudget;
use crate::relation::{
    coarsen_ids, dense_cap, extend_ids, refine_ids, GroupCounts, GroupIds, KeyMap, Relation, Value,
};
use ajd_sync::atomic::{AtomicU64, Ordering};
use ajd_sync::{Mutex, OnceSlot, RwLock};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// The grouping capability every measure is written against.
///
/// Functions in `ajd-info`, `ajd-jointree` and `ajd-core` are generic over a
/// `GroupSource`, so one implementation serves the convenience path
/// (`entropy(&r, …)` — compute from scratch), the shared path
/// (`entropy(&ctx, …)` or `Analyzer` methods — answer from the cache) *and*
/// the sharded path (`entropy(&sharded, …)` — shard-local grouping with a
/// shard-order merge).  This replaces the former `foo` / `foo_ctx` function
/// pairs.
///
/// A source is *not* required to hold its rows in one flat buffer — a
/// [`crate::ShardedRelation`] has no single backing [`Relation`] — so the
/// trait exposes the schema-level facts the measure stack needs (schema,
/// row count, active domain sizes) instead of a backing-relation accessor.
pub trait GroupSource {
    /// The column order of the source (its schema).
    fn schema(&self) -> &[AttrId];

    /// Number of tuples `N = |R|` (with multiplicity for multisets).
    fn num_rows(&self) -> usize;

    /// Size of the active domain of an attribute: the number of distinct
    /// values it takes in the source (`d_A = |Π_A(R)|` in the paper).
    fn active_domain_size(&self, attr: AttrId) -> Result<usize>;

    /// Interned group keys for `attrs` (see [`GroupIds`]).
    fn group_ids(&self, attrs: &AttrSet) -> Result<Arc<GroupIds>>;

    /// The number of distinct `attrs`-projections, `|R[attrs]|`.  A plain
    /// source groups; an [`AnalysisContext`] answers from whichever table
    /// of `attrs` it holds ([`AnalysisContext::distinct_with`]).
    fn distinct(&self, attrs: &AttrSet) -> Result<usize> {
        Ok(self.group_ids(attrs)?.num_groups())
    }

    /// The entropy `H(attrs)`, with `formula` turning the multiplicities of
    /// the distinct `attrs`-projections, in group order, and the row count
    /// into the entropy.  A plain source applies `formula` to the counts of
    /// [`GroupSource::group_ids`]; an [`AnalysisContext`] answers from its
    /// entropy tier ([`AnalysisContext::entropy_with`]), whose miss path
    /// reads the same multiplicities from whichever table of `attrs` it
    /// holds.
    ///
    /// The tier is keyed by `attrs` alone, so every caller must pass the
    /// same formula: the sum of `ajd_info::entropy`, the one definition of
    /// the entropy (it lives above this crate, hence the parameter).
    fn memo_entropy(&self, attrs: &AttrSet, formula: fn(&[u64], u128) -> f64) -> Result<f64> {
        let ids = self.group_ids(attrs)?;
        Ok(formula(ids.counts(), self.num_rows() as u128))
    }

    /// The size `|⋈ᵢ R[Ωᵢ]|` of the acyclic join of the projections onto
    /// `bags`, with `count` computing it from this source's groupings.  A
    /// plain source runs `count`; an [`AnalysisContext`] answers from its
    /// join-size tier ([`AnalysisContext::join_size_tier`]), keyed by the
    /// sorted bag list.
    ///
    /// The join size depends only on the schema, not on the join tree
    /// (Observation after eq. 7 of the paper), so `count` may run the
    /// message passing over any join tree of `bags`.
    fn memo_join_size(&self, _bags: &[AttrSet], count: &dyn Fn() -> Result<u128>) -> Result<u128> {
        count()
    }

    /// The attribute set of the source (schema as a set).
    fn attrs(&self) -> AttrSet {
        AttrSet::from_slice(self.schema())
    }

    /// Number of attributes per tuple.
    fn arity(&self) -> usize {
        self.schema().len()
    }

    /// `true` if the source holds no tuples.
    fn is_empty(&self) -> bool {
        self.num_rows() == 0
    }

    /// Positions (column indices) of each attribute of `attrs` in the
    /// source's column order, in the order of `attrs` (ascending id).
    fn attr_positions(&self, attrs: &AttrSet) -> Result<Vec<usize>> {
        let schema = self.schema();
        attrs
            .iter()
            .map(|a| {
                schema
                    .iter()
                    .position(|&b| b == a)
                    .ok_or(RelationError::UnknownAttribute(a))
            })
            .collect()
    }
}

/// The budget-aware grouping kernel a memoizing [`AnalysisContext`] computes
/// its cache misses through.
///
/// Implemented by the two storage layouts of the workspace — the flat
/// [`Relation`] (chunked row-scan kernel) and the [`crate::ShardedRelation`]
/// (shard-local grouping + shard-order merge).  A layout supplies the four
/// methods that differ between them: the grouping, the sampled-row gather,
/// the code → value dictionary of a schema position and the per-row codes
/// of one (which a context refines resident groupings by).  Count decoding,
/// counts under a budget and the set-semantic projection are provided
/// methods, written once on top of those.  Both groupings are
/// **bit-identical** to the serial flat kernel at any budget, so a context
/// over either layout serves the same values.  Kernels are `Send + Sync`
/// so handles over them can fan out across worker threads.
pub trait GroupKernel: GroupSource + Send + Sync {
    /// [`GroupSource::group_ids`] computed under a [`ThreadBudget`].  The
    /// `Arc` may be shared with a layout's own cache (a one-shard
    /// [`crate::ShardedRelation`] hands back its shard's table), so a
    /// context that memoizes it holds no second copy.
    fn group_ids_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<Arc<GroupIds>>;

    /// Materialises the rows at the given **sorted, strictly increasing**
    /// global row indices as a fresh flat [`Relation`].
    ///
    /// This is the estimation tier's sampled-read kernel: a seeded
    /// without-replacement index draw is sorted ascending and gathered here.
    /// Because the result is rebuilt from *decoded* values in global row
    /// order, its dictionaries follow first-appearance order of the sampled
    /// rows alone — the same `(source rows, indices)` therefore yields a
    /// bit-identical sample relation from a flat [`Relation`] and from any
    /// sharding of it (the same argument as
    /// [`crate::ShardedRelation::collect`]).
    ///
    /// Errors with [`crate::RelationError::InvalidParameter`] if the indices
    /// are out of range, unsorted, or contain duplicates.
    fn gather_rows(&self, sorted_rows: &[u64]) -> Result<Relation>;

    /// The code → value dictionary of schema position `pos`: the group
    /// codes of [`GroupKernel::group_ids_with`] index into it.
    ///
    /// Panics if `pos` is not a position of the schema.
    fn dictionary(&self, pos: usize) -> &[Value];

    /// The per-row codes of schema position `pos`, in row order and in the
    /// code space of [`GroupKernel::dictionary`]: the column a context
    /// refines a resident grouping by.  Borrowed where the layout stores
    /// the column whole, assembled otherwise.
    ///
    /// Panics if `pos` is not a position of the schema.
    fn codes_at(&self, pos: usize) -> Cow<'_, [u32]>;

    /// The groupings of `attrs` over the shards from `first` on, one per
    /// shard in shard order, with group codes in the code space of
    /// [`GroupKernel::dictionary`] and shard-local row ids: what a context
    /// extends a table of the first `first` shards by
    /// ([`AnalysisContext`]).  A layout without shards is one span, so the
    /// default is the whole grouping from 0 and nothing after.
    fn spans_from(
        &self,
        attrs: &AttrSet,
        first: usize,
        budget: ThreadBudget,
    ) -> Result<Vec<Arc<GroupIds>>> {
        Ok(match first {
            0 => vec![self.group_ids_with(attrs, budget)?],
            _ => Vec::new(),
        })
    }

    /// The multiplicities of the distinct `attrs`-projections with their
    /// keys decoded (see [`Relation::group_counts`]), grouped under a
    /// [`ThreadBudget`] and decoded by [`GroupKernel::decode_group_counts`].
    fn group_counts_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<GroupCounts> {
        Ok(self.decode_group_counts(&*self.group_ids_with(attrs, budget)?))
    }

    /// Decodes a grouping of this source into its count table without
    /// grouping again: the result is bit-identical to
    /// [`GroupKernel::group_counts_with`] on `ids.attrs()`.
    ///
    /// `ids` must have been computed from this source.
    fn decode_group_counts(&self, ids: &GroupIds) -> GroupCounts {
        let dicts = dictionaries(self, ids.attrs())
            .expect("grouping was built from this source's attributes");
        let codes = ids.group_codes();
        let keys = codes.iter().zip(dicts.iter().cycle());
        GroupCounts {
            attrs: ids.attrs().clone(),
            total: self.num_rows() as u128,
            keys: keys.map(|(&c, d)| d[c as usize]).collect(),
            key_codes: codes.to_vec(),
            counts: ids.counts().to_vec(),
            index: OnceSlot::new(),
        }
    }

    /// The set-semantic projection `Π_attrs(R)` computed under a
    /// [`ThreadBudget`]: the deduplicating grouping runs under `budget`, and
    /// each distinct group is decoded once into one output row, in
    /// first-appearance order.  Bit-identical at any budget.
    fn project_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<Relation> {
        let dicts = dictionaries(self, attrs)?;
        let ids = self.group_ids_with(attrs, budget)?;
        let mut out = Relation::with_capacity(attrs.as_slice().to_vec(), ids.num_groups())?;
        let mut row: Vec<Value> = vec![0; dicts.len()];
        for g in 0..ids.num_groups() {
            for ((v, &c), d) in row.iter_mut().zip(ids.group_code(g)).zip(&dicts) {
                *v = d[c as usize];
            }
            out.push_row(&row)?;
        }
        Ok(out)
    }
}

/// The dictionaries of the schema positions of `attrs`, in ascending
/// attribute order (the order of a grouping's code tuples).
fn dictionaries<'a, K: GroupKernel + ?Sized>(
    src: &'a K,
    attrs: &AttrSet,
) -> Result<Vec<&'a [Value]>> {
    Ok(src
        .attr_positions(attrs)?
        .into_iter()
        .map(|p| src.dictionary(p))
        .collect())
}

/// The seed's kept key map if it still [fits](KeyMap::fits) `domains` and
/// the seed's `groups` groups, and the code tuples its extension by
/// `spans` hashes: the spans' groups, plus the seed's own when the map
/// must be rebuilt.
fn reusable(
    key_map: Option<KeyMap>,
    domains: &[usize],
    groups: usize,
    spans: &[Arc<GroupIds>],
) -> (Option<KeyMap>, usize) {
    let key_map = key_map.filter(|k| k.fits(domains, groups));
    let rebuilt = if key_map.is_some() { 0 } else { groups };
    let span_groups: usize = spans.iter().map(|s| s.num_groups()).sum();
    (key_map, rebuilt + span_groups)
}

impl GroupSource for Relation {
    fn schema(&self) -> &[AttrId] {
        Relation::schema(self)
    }

    fn num_rows(&self) -> usize {
        self.len()
    }

    fn active_domain_size(&self, attr: AttrId) -> Result<usize> {
        Relation::active_domain_size(self, attr)
    }

    fn group_ids(&self, attrs: &AttrSet) -> Result<Arc<GroupIds>> {
        Relation::group_ids(self, attrs).map(Arc::new)
    }
}

impl GroupKernel for Relation {
    fn group_ids_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<Arc<GroupIds>> {
        Relation::group_ids_with(self, attrs, budget).map(Arc::new)
    }

    fn gather_rows(&self, sorted_rows: &[u64]) -> Result<Relation> {
        Relation::gather_rows(self, sorted_rows)
    }

    fn dictionary(&self, pos: usize) -> &[Value] {
        self.domain(self.schema()[pos])
            .expect("a schema attribute has a column dictionary")
    }

    fn codes_at(&self, pos: usize) -> Cow<'_, [u32]> {
        Cow::Borrowed(
            self.column_codes(self.schema()[pos])
                .expect("a schema attribute has a code column"),
        )
    }
}

/// A pointer to a source is a source (`&S`, `Arc<S>`, `Box<S>`, …): every
/// method, the memo hooks included, forwards to the pointee.
impl<P> GroupSource for P
where
    P: Deref,
    P::Target: GroupSource,
{
    fn schema(&self) -> &[AttrId] {
        (**self).schema()
    }

    fn num_rows(&self) -> usize {
        (**self).num_rows()
    }

    fn active_domain_size(&self, attr: AttrId) -> Result<usize> {
        (**self).active_domain_size(attr)
    }

    fn group_ids(&self, attrs: &AttrSet) -> Result<Arc<GroupIds>> {
        (**self).group_ids(attrs)
    }

    fn distinct(&self, attrs: &AttrSet) -> Result<usize> {
        (**self).distinct(attrs)
    }

    fn memo_entropy(&self, attrs: &AttrSet, formula: fn(&[u64], u128) -> f64) -> Result<f64> {
        (**self).memo_entropy(attrs, formula)
    }

    fn memo_join_size(&self, bags: &[AttrSet], count: &dyn Fn() -> Result<u128>) -> Result<u128> {
        (**self).memo_join_size(bags, count)
    }
}

/// A shareable pointer to a kernel is a kernel, forwarding to the pointee.
impl<P> GroupKernel for P
where
    P: Deref + Send + Sync,
    P::Target: GroupKernel,
{
    fn group_ids_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<Arc<GroupIds>> {
        (**self).group_ids_with(attrs, budget)
    }

    fn gather_rows(&self, sorted_rows: &[u64]) -> Result<Relation> {
        (**self).gather_rows(sorted_rows)
    }

    fn dictionary(&self, pos: usize) -> &[Value] {
        (**self).dictionary(pos)
    }

    fn codes_at(&self, pos: usize) -> Cow<'_, [u32]> {
        (**self).codes_at(pos)
    }

    fn spans_from(
        &self,
        attrs: &AttrSet,
        first: usize,
        budget: ThreadBudget,
    ) -> Result<Vec<Arc<GroupIds>>> {
        (**self).spans_from(attrs, first, budget)
    }
}

/// A point-in-time snapshot of a context's cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered without running the grouping kernel: served from a
    /// cache or a memo tier.  A count lookup (a distinct count, or an
    /// entropy fill) of a set whose id table is resident, in flight or
    /// seeded is an id lookup, and counts as one.
    pub hits: u64,
    /// Kernel runs: lookups that had to group the source and then memoized
    /// the result.  A caller that asks for a set's ids before its counts
    /// (as `ajd_core::Analyzer::analyze` does) pays exactly one miss or
    /// one derivation ([`CacheStats::derived`]) per distinct attribute set
    /// it groups.  Memo-tier fills are not kernel runs; the lookups they
    /// make count for themselves.
    pub misses: u64,
    /// Fills served without a kernel run by deriving the grouping from a
    /// resident id table of a subset (refine) or superset (coarsen) of the
    /// set.  Every fill is a kernel run or a derivation, so
    /// `misses + derived` is exactly one per distinct attribute set filled
    /// (per cache, as for `misses`); which of the two serves a set can
    /// depend on what concurrent lookups have completed, their sum cannot.
    pub derived: u64,
    /// Fills served by extending the table of an earlier epoch of a live
    /// source by the shards appended since ([`AnalysisContext`]'s seeds),
    /// without regrouping the older shards.  With it, `misses + derived +
    /// extended` is one per distinct attribute set filled.
    pub extended: u64,
    /// Number of memoized count tables: groupings without row ids, of the
    /// sets read only for their counts.  A set whose id table the context
    /// held when its counts were read has none.
    pub group_count_entries: usize,
    /// Number of memoized [`GroupIds`] entries.
    pub group_id_entries: usize,
    /// The entropy tier ([`AnalysisContext::entropy_with`]).
    pub entropy: TierStats,
    /// The join-size tier ([`AnalysisContext::join_size_tier`]).
    pub join_size: TierStats,
    /// The sample tier ([`AnalysisContext::sample_tier`]).
    pub sample: TierStats,
}

/// Exact counters of one single-flight cache: a memo tier of an
/// [`AnalysisContext`], or the per-shard group-table cache of a
/// [`crate::RelationShard`] (summed by
/// [`crate::ShardedRelation::shard_cache_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Lookups served from the cache (for a memo tier, also counted in
    /// [`CacheStats::hits`]).
    pub hits: u64,
    /// Lookups that filled the cache (a tier fill's own lookups are counted
    /// by the caches they hit; a shard fill is one shard-local grouping).
    pub misses: u64,
    /// Number of resident entries.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache, out of hits, kernel
    /// runs, derived and extended fills (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses + self.derived + self.extended;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Number of shards each cache map is striped across (a power of two; the
/// shard is picked by the key's Fx hash).  Striping means two writers
/// memoizing *different* attribute sets rarely touch the same lock.
const CACHE_STRIPES: usize = 16;

/// One memoization slot: filled exactly once, by the single thread that
/// computes the value (the "leader"); racing threads block on this slot —
/// not on the shard map — until the leader finishes.
type Slot<T> = Arc<OnceSlot<Result<Arc<T>>>>;

/// The key of the sample tier: the draw's seed and its planned size.
type SampleKey = (u64, u64);

/// A table of an earlier epoch of a live source (an id table, or a count
/// table without row ids), the number of shards it covers (a prefix of the
/// current ones), and the key map of its groups when the extension that
/// built the table kept one.  Tagged by shards, not rows, because empty
/// shards exist.
#[derive(Debug)]
struct Seed {
    table: Arc<GroupIds>,
    shards: usize,
    key_map: Option<KeyMap>,
}

impl Seed {
    /// A seed of `table`, which covers `shards` shards, without a key map.
    fn new(table: &Arc<GroupIds>, shards: usize) -> Self {
        Seed {
            table: Arc::clone(table),
            shards,
            key_map: None,
        }
    }

    /// This seed for the next epoch: the same table, and the key map moved
    /// along (an extension of this seed in this epoch then rebuilds it).
    fn hand_on(&mut self) -> Self {
        Seed {
            table: Arc::clone(&self.table),
            shards: self.shards,
            key_map: self.key_map.take(),
        }
    }
}

/// The tables one epoch's context hands the next one
/// ([`AnalysisContext::next_seeds`]), one per attribute set, and the key
/// maps the context's own extensions keep for the next epoch.
#[derive(Debug, Default)]
pub(crate) struct Seeds {
    /// A seed is taken by the fill that extends it.  The entry of an id
    /// seed stays, so the set's count lookups still go through the id
    /// cache; that of a count seed goes.
    tables: FxHashMap<AttrSet, Option<Seed>>,
    /// The key map of each table this epoch extended, which
    /// [`AnalysisContext::next_seeds`] moves into the table's seed.
    kept: FxHashMap<AttrSet, KeyMap>,
    /// Code tuples this epoch's extensions hashed: the appended spans'
    /// groups, plus a seed's own groups wherever its key map was rebuilt.
    hashed: u64,
}

impl Seeds {
    /// `true` if `attrs` has an id seed, extended or not: the set's count
    /// lookups are then id lookups.
    fn holds_ids(&self, attrs: &AttrSet) -> bool {
        self.tables
            .get(attrs)
            .is_some_and(|seed| seed.as_ref().is_none_or(|s| s.table.has_row_ids()))
    }

    /// Takes the seed of `attrs` if it keeps row ids exactly when `rows`
    /// says so.  An id seed leaves its entry behind.
    fn take(&mut self, attrs: &AttrSet, rows: bool) -> Option<Seed> {
        let entry = self.tables.get_mut(attrs)?;
        if entry.as_ref()?.table.has_row_ids() != rows {
            return None;
        }
        match rows {
            true => entry.take(),
            false => self.tables.remove(attrs).flatten(),
        }
    }
}

/// A striped, single-flight memoization map, with exact counters of its
/// own traffic — the one slot machinery behind every cache of an
/// [`AnalysisContext`] and the per-shard group-table cache of a
/// [`crate::RelationShard`].
#[derive(Debug)]
pub(crate) struct StripedCache<K, T> {
    shards: Vec<RwLock<FxHashMap<K, Slot<T>>>>,
    /// Lookups served from a slot (done or in flight).
    hits: AtomicU64,
    /// Slots filled by a leader.
    fills: AtomicU64,
}

impl<K: Hash + Eq + Clone, T> StripedCache<K, T> {
    pub(crate) fn new() -> Self {
        StripedCache {
            shards: (0..CACHE_STRIPES)
                .map(|_| RwLock::new(FxHashMap::default()))
                .collect(),
            hits: AtomicU64::new(0),
            fills: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &K) -> &RwLock<FxHashMap<K, Slot<T>>> {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & (CACHE_STRIPES - 1)]
    }

    /// Striped single-flight lookup: the value of `key`, computed by `fill`
    /// on a cold key, and whether this call ran `fill` (led).
    ///
    /// A lookup read-locks the key's stripe only; a cold key installs an
    /// empty [`Slot`] under a brief write lock, and the racers then meet on
    /// the slot **outside any map lock**: exactly one (the leader) runs
    /// `fill`, the others block on that slot alone and share its `Arc`.
    /// Counts a hit per successful lookup that did not lead and a fill per
    /// successful fill.  Errors are not memoized: the leader drops its
    /// failed slot so later calls retry.
    pub(crate) fn get_or_fill(
        &self,
        key: &K,
        fill: impl FnOnce() -> Result<Arc<T>>,
    ) -> (Result<Arc<T>>, bool) {
        let shard = self.shard(key);
        let fast = shard.read().get(key).cloned();
        let slot =
            fast.unwrap_or_else(|| Arc::clone(shard.write().entry(key.clone()).or_default()));
        let mut led = false;
        let result = match slot.get() {
            Some(done) => done.clone(),
            None => slot
                .get_or_init(|| {
                    led = true;
                    let out = fill();
                    if out.is_ok() {
                        self.fills.fetch_add(1, Ordering::Relaxed);
                    }
                    out
                })
                .clone(),
        };
        if !led {
            if result.is_ok() {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
        } else if result.is_err() {
            // Only if the slot is still ours: a retry may have replaced it.
            let mut guard = shard.write();
            if guard.get(key).is_some_and(|cur| Arc::ptr_eq(cur, &slot)) {
                guard.remove(key);
            }
        }
        (result, led)
    }

    /// `true` if `key` has a slot, completed or in flight.
    fn holds(&self, key: &K) -> bool {
        self.shard(key).read().contains_key(key)
    }

    /// Drops the slot of `key`; holders of its value keep it alive.
    fn evict(&self, key: &K) {
        self.shard(key).write().remove(key);
    }

    /// Calls `visit` on every *completed, successful* entry, read-locking
    /// one stripe at a time.  It never installs a slot and never waits on
    /// an in-flight one.  The visiting order is unspecified.
    fn visit_resident(&self, mut visit: impl FnMut(&K, &Arc<T>)) {
        for stripe in &self.shards {
            for (key, slot) in stripe.read().iter() {
                if let Some(Ok(value)) = slot.get() {
                    visit(key, value);
                }
            }
        }
    }

    /// Number of *completed, successful* entries (in-flight slots and
    /// removed error slots do not count).
    fn entries(&self) -> usize {
        let mut n = 0;
        self.visit_resident(|_, _| n += 1);
        n
    }

    /// The counters of this cache.
    pub(crate) fn tier_stats(&self) -> TierStats {
        TierStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.fills.load(Ordering::Relaxed),
            entries: self.entries(),
        }
    }
}

/// How a leader filled a slot, for the context's counters.
enum Fill {
    /// Ran the grouping kernel: one [`CacheStats::misses`].
    Kernel,
    /// Derived the grouping from a resident id table of a subset or
    /// superset: one [`CacheStats::derived`].
    Derived,
    /// Extended an earlier epoch's table by the shards appended since: one
    /// [`CacheStats::extended`].
    Extended,
    /// Filled a memo tier: a tier miss only.
    Tier,
}

/// Memoized groupings of one relation, plus memo tiers over them — the
/// shared-computation substrate of the measurement stack.
///
/// A context **owns** its source, which in practice is a cheap handle: a
/// `&Relation` borrow for one-shot analysis, or an `Arc<ShardedRelation>`
/// snapshot pinning one epoch of a live, append-only relation, whose
/// [`crate::ShardedStore`] installs the epoch's one context — the
/// context's merged-result caches are then exactly the per-epoch tier of
/// the two-tier incremental design (this context caches merged results
/// for *its* snapshot's epoch, seeded from the previous epoch's; the
/// snapshot's shards carry their own per-shard tables that survive into
/// later epochs).
/// A context is cheap to create (empty caches); it pays for itself as soon
/// as two measures — or two candidate join trees — touch the same attribute
/// subset.  It is `Sync`: `ajd-core`'s `Analyzer` fan-out shares one
/// context across the workers of [`crate::parallel::fan_out`], and
/// concurrent misses on the same attribute set are **single-flight** —
/// exactly one thread computes, the others block on that entry and receive
/// the same `Arc`.
///
/// A context keeps one kind of table, [`GroupIds`], in two caches: the id
/// cache, whose tables label every row with its group, and the count
/// cache, whose tables keep the groups alone (their codes and counts, no
/// row ids and no decoded value).  A **count lookup** — a distinct count
/// ([`AnalysisContext::distinct_with`]), an entropy fill or a decoded
/// [`AnalysisContext::group_counts_with`] — reads the set's id table when
/// one is resident, in flight or seeded, and the count cache otherwise.
/// A count fill groups as an id fill does and drops the row ids: ids hold
/// one `u32` per row, so filling the id cache on every count lookup would
/// raise peak memory for count-only callers.  The other way never happens,
/// so a set read for its counts before its ids is grouped twice; callers
/// that need both for a set — the full analysis — ask for the ids first.
/// [`CacheStats::misses`] counts kernel runs only.  Nothing cached holds a
/// decoded value: [`AnalysisContext::group_counts_with`] decodes at the
/// call.
///
/// A cold fill of a multi-attribute set `Y` (an id or a count fill) also
/// reuses the **attribute lattice**: the bags,
/// separators, MVD sides and Ω of a join tree are nested, so most of them
/// are a small step from a set already grouped.  The fill first tries, in
/// order:
///
/// 1. **refine** the resident id table of the largest `X ⊂ Y` (ties to
///    fewer groups) whose `g_X × Π_{a∈Y∖X} d_a` table fits the kernel's
///    dense cap — one dense row pass of the grouping kernel over the key
///    columns (X-id, codes of `Y ∖ X`), the partition product of TANE
///    (Huhtala et al., 1999);
/// 2. **coarsen** the resident id table of the `Z ⊃ Y` with the fewest
///    groups, only when the kernel would hash `Y` — one hash per Z-group
///    instead of one per row;
///
/// and runs the kernel otherwise.  Singletons and `∅` are never derived.
/// Both derivations number groups by first appearance, so they are
/// bit-identical to the kernel; over a [`crate::ShardedRelation`] they run
/// on the merged level and skip the per-shard pass and the merge.  Only
/// completed id tables are candidates (a derivation never waits on an
/// in-flight fill) and intermediates are never cached.  A derived fill
/// counts in [`CacheStats::derived`].
///
/// Over a live relation a context can start with **seeds**: one table per
/// set of an earlier epoch (its id table if it had one, else its count
/// table), each tagged with the number of shards it covers (shards, not
/// rows, because empty shards exist), which [`crate::ShardedStore`] hands
/// each new epoch's context.  Shards are appended in order and the global
/// dictionaries only grow at their tail, so the old epoch's groups keep
/// their first-appearance ids and the table of the new epoch is the old
/// one with the appended shards' spans merged at its tail
/// ([`GroupKernel::spans_from`]).  A cold fill of a seeded set therefore
/// tries the seed before anything else, and takes it out of the map, so it
/// is extended once: the seed goes first into the shard-order merge, where
/// its groups keep their ids and its row ids (and its first rows, if
/// known) are taken over or copied, never rewritten.  An id seed is
/// extended in the id cache, by the set's first id or count lookup; a
/// count seed in the count cache, into a count table.
///
/// An extended fill also **keeps its key map**, the code tuple → id map
/// its interning built, and the store hands it to the next epoch's
/// context with the table.  The next extension of the set takes the map
/// over and hashes only the appended shards' groups, so a seeded read
/// costs O(new rows + new groups) per epoch, not O(groups).  The map is moved
/// under the seeds lock, never copied, so at most one extension consumes
/// it.  It is rebuilt from the seed's groups, as on the first extension of
/// a kernel table, when it is missing (a seed handed on before its
/// extension here) or when any grouped column's key width changed (key
/// widths come from the current dictionaries, and packing depends on
/// them).  Kernel-filled and derived tables never carry one, so a context
/// over a flat or never-appended relation holds no map.  An extended fill
/// counts in [`CacheStats::extended`], so `misses + derived + extended` is
/// one per distinct filled set at any timing.
///
/// Three **memo tiers** sit on top of the caches, each single-flight
/// through the same slot machinery and counted in [`TierStats`]:
///
/// * the **entropy tier** — `H(Y)` per [`AttrSet`]
///   ([`AnalysisContext::entropy_with`]);
/// * the **join-size tier** — `|⋈ᵢ R[Ωᵢ]|` per sorted bag list
///   ([`AnalysisContext::join_size_tier`]);
/// * the **sample tier** — a gathered row sample with its own context, per
///   `(seed, planned size)` ([`AnalysisContext::sample_tier`]).  Its
///   samples hold at most as many rows as the source in total; a fill past
///   that evicts the oldest sample.
///
/// A tier's fill computes from the caches below it, so a tier value is
/// bit-identical to its uncached computation.  A tier hit is a lookup that
/// ran no kernel, so it also counts in [`CacheStats::hits`].
///
/// Each lookup takes the [`ThreadBudget`] a miss is computed under
/// ([`AnalysisContext::group_ids_with`], [`AnalysisContext::distinct_with`],
/// [`AnalysisContext::entropy_with`]).  The context itself stores no
/// budget: its [`GroupSource`] impl computes misses under the default
/// [`ThreadBudget`] (the machine's available parallelism), and callers that
/// own a budget — `ajd_core::Analyzer` — pass it per call.  The chunked
/// kernel keeps results bit-identical to the serial path at any budget.
///
/// Most callers never construct one directly: `ajd_core::Analyzer` owns a
/// context and routes every measure through it.
///
/// ```
/// use ajd_relation::{AnalysisContext, AttrId, AttrSet, GroupSource, Relation};
///
/// let r = Relation::from_rows(vec![AttrId(0), AttrId(1)], &[
///     &[0, 0][..], &[0, 1][..], &[1, 0][..],
/// ]).unwrap();
/// let ctx = AnalysisContext::new(&r);
/// let y = AttrSet::singleton(AttrId(0));
/// let first = ctx.distinct(&y).unwrap();
/// let second = ctx.distinct(&y).unwrap();          // served from cache
/// assert_eq!((first, second), (2, 2));
/// assert_eq!(ctx.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct AnalysisContext<S = Relation> {
    source: S,
    /// Count tables: groupings without row ids.
    group_counts: StripedCache<AttrSet, GroupIds>,
    group_ids: StripedCache<AttrSet, GroupIds>,
    entropies: StripedCache<AttrSet, f64>,
    join_sizes: StripedCache<Vec<AttrSet>, u128>,
    samples: StripedCache<SampleKey, AnalysisContext<Relation>>,
    /// Resident samples, oldest first, with their row counts.
    sample_order: Mutex<VecDeque<(SampleKey, usize)>>,
    /// Tables of earlier epochs that cold fills extend; empty unless the
    /// context was built by [`AnalysisContext::seeded`].
    seeds: Mutex<Seeds>,
    hits: AtomicU64,
    misses: AtomicU64,
    derived: AtomicU64,
    extended: AtomicU64,
}

impl<S: GroupKernel> AnalysisContext<S> {
    /// Creates an empty context over `src`.
    ///
    /// `src` is taken by value, but sources are handles in practice:
    /// `AnalysisContext::new(&r)` builds a borrowing context (as before)
    /// and `AnalysisContext::new(store.snapshot())` an owning one over an
    /// `Arc` snapshot that lives for as long as the context does.
    pub fn new(src: S) -> Self {
        Self::seeded(src, Seeds::default())
    }

    /// A context over `src` whose cold fills first extend `seeds`: tables
    /// of an earlier epoch of the same live source, each over a prefix of
    /// its current shards ([`AnalysisContext::next_seeds`]).
    pub(crate) fn seeded(src: S, seeds: Seeds) -> Self {
        AnalysisContext {
            source: src,
            group_counts: StripedCache::new(),
            group_ids: StripedCache::new(),
            entropies: StripedCache::new(),
            join_sizes: StripedCache::new(),
            samples: StripedCache::new(),
            sample_order: Mutex::new(VecDeque::new()),
            seeds: Mutex::new(seeds),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            derived: AtomicU64::new(0),
            extended: AtomicU64::new(0),
        }
    }

    /// The grouping source (flat [`Relation`], [`crate::ShardedRelation`]
    /// or `Arc` snapshot of one) this context memoizes computations over.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// [`Relation::group_counts`] through this context: the multiplicities
    /// of the distinct `attrs`-projections, with their keys decoded at the
    /// call from the set's table ([`AnalysisContext::distinct_with`] says
    /// which), which is filled under `budget` on a miss.
    ///
    /// The decoded table is the caller's alone; nothing cached holds a
    /// decoded value.  Bit-identical at any budget and on every fill path.
    pub fn group_counts_with(
        &self,
        attrs: &AttrSet,
        budget: ThreadBudget,
    ) -> Result<Arc<GroupCounts>> {
        let table = self.count_table(attrs, budget)?;
        Ok(Arc::new(self.source.decode_group_counts(&table)))
    }

    /// The number of distinct `attrs`-projections: the group count of the
    /// set's id table when it is resident, in flight or seeded (an id
    /// lookup, which may extend the seed), else of its count table, filled
    /// under `budget` on a miss.  A count fill extends the set's count
    /// seed, else derives or groups as an id fill does, and keeps no row
    /// ids.
    pub fn distinct_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<usize> {
        Ok(self.count_table(attrs, budget)?.num_groups())
    }

    /// The table every count lookup of `attrs` reads
    /// ([`AnalysisContext::distinct_with`]).
    fn count_table(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<Arc<GroupIds>> {
        // Only a set without an id seed gets a count slot, so a warm count
        // lookup never takes the seeds lock.
        let ids = self.group_ids.holds(attrs)
            || !self.group_counts.holds(attrs) && self.seeds.lock().holds_ids(attrs);
        if ids {
            return self.group_ids_with(attrs, budget);
        }
        self.memoized(&self.group_counts, attrs, || {
            let seed = self.seeds.lock().take(attrs, false);
            if let Some(seed) = seed {
                return Ok((self.extend(attrs, seed, budget)?, Fill::Extended));
            }
            let (ids, how) = self.fill_ids(attrs, budget)?;
            Ok((Arc::new(GroupIds::without_rows(ids)), how))
        })
    }

    /// Memoized interned group keys (see [`GroupIds`]) for `attrs`: on a
    /// miss, extended from the set's seed if it has one, else derived from
    /// a resident table of a subset or superset when the lattice policy
    /// finds one, and otherwise computed under `budget`.
    pub fn group_ids_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<Arc<GroupIds>> {
        self.memoized(&self.group_ids, attrs, || {
            let seed = self.seeds.lock().take(attrs, true);
            match seed {
                Some(seed) => Ok((self.extend(attrs, seed, budget)?, Fill::Extended)),
                None => self.fill_ids(attrs, budget),
            }
        })
    }

    /// The cold grouping of an unseeded `attrs`, shared by both caches:
    /// derived from a resident id table ([`AnalysisContext::derive_ids`]),
    /// else a kernel run under `budget`.  A kernel table is kept as the
    /// source returns it, so a context over a one-shard relation shares its
    /// shard's table instead of copying it.
    fn fill_ids(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<(Arc<GroupIds>, Fill)> {
        Ok(match self.derive_ids(attrs)? {
            Some(ids) => (Arc::new(ids), Fill::Derived),
            None => (self.source.group_ids_with(attrs, budget)?, Fill::Kernel),
        })
    }

    /// The table of `attrs` over every shard: `seed` extended by the
    /// shards it does not cover, with or without row ids as the seed has
    /// them.  Keeps the key map the extension built.
    fn extend(&self, attrs: &AttrSet, seed: Seed, budget: ThreadBudget) -> Result<Arc<GroupIds>> {
        let spans = self.source.spans_from(attrs, seed.shards, budget)?;
        let domains: Vec<usize> = dictionaries(&self.source, attrs)?
            .into_iter()
            .map(<[Value]>::len)
            .collect();
        let groups = seed.table.num_groups();
        let (key_map, hashed) = reusable(seed.key_map, &domains, groups, &spans);
        let rows = self.source.num_rows();
        let (table, key_map) =
            extend_ids(seed.table, key_map, &spans, &domains, rows, budget.get())?;
        self.keep(attrs, key_map, hashed);
        Ok(Arc::new(table))
    }

    /// The grouping of `attrs` derived from a resident id table by the
    /// lattice policy ([`AnalysisContext`]: refine a subset, else coarsen a
    /// superset above the dense cap), or `None` when the kernel should run.
    /// Which table serves can depend on timing; the result cannot.
    fn derive_ids(&self, attrs: &AttrSet) -> Result<Option<GroupIds>> {
        if attrs.len() < 2 {
            return Ok(None);
        }
        let positions = self.source.attr_positions(attrs)?;
        let domains: Vec<usize> = positions
            .iter()
            .map(|&p| self.source.dictionary(p).len())
            .collect();
        let cap = dense_cap(self.source.num_rows());
        // The dense table of refining `groups` groups of `base` by the
        // attributes of `attrs` outside it (`None` past u128: above any cap).
        let radix = |base: &AttrSet, groups: usize| {
            attrs
                .iter()
                .zip(&domains)
                .filter(|&(a, _)| !base.contains(a))
                .try_fold(groups as u128, |r, (_, &d)| r.checked_mul(d as u128))
        };
        // Total orders, so the choice does not depend on the visiting order.
        fn subset_rank(x: &GroupIds) -> (Reverse<usize>, usize, &AttrSet) {
            (Reverse(x.attrs().len()), x.num_groups(), x.attrs())
        }
        fn superset_rank(z: &GroupIds) -> (usize, &AttrSet) {
            (z.num_groups(), z.attrs())
        }
        let mut subset: Option<Arc<GroupIds>> = None;
        let mut superset: Option<Arc<GroupIds>> = None;
        self.group_ids.visit_resident(|key, ids| {
            if key.is_empty() || key == attrs {
                return;
            }
            if key.is_subset_of(attrs) {
                let fits = radix(key, ids.num_groups()).is_some_and(|r| r <= cap);
                if fits
                    && subset
                        .as_deref()
                        .is_none_or(|x| subset_rank(ids) < subset_rank(x))
                {
                    subset = Some(Arc::clone(ids));
                }
            } else if attrs.is_subset_of(key)
                && superset
                    .as_deref()
                    .is_none_or(|z| superset_rank(ids) < superset_rank(z))
            {
                superset = Some(Arc::clone(ids));
            }
        });
        if let Some(base) = subset {
            let columns: Vec<(Cow<'_, [u32]>, usize)> = attrs
                .iter()
                .zip(positions.iter().zip(&domains))
                .filter(|&(a, _)| !base.attrs().contains(a))
                .map(|(_, (&p, &d))| (self.source.codes_at(p), d))
                .collect();
            let extra: Vec<(&[u32], usize)> = columns.iter().map(|(c, d)| (&**c, *d)).collect();
            return refine_ids(attrs, &base, &extra).map(Some);
        }
        match superset {
            Some(fine) if radix(&AttrSet::empty(), 1).is_none_or(|r| r > cap) => {
                coarsen_ids(attrs, &fine, &domains).map(Some)
            }
            _ => Ok(None),
        }
    }

    /// The entropy tier's fill: memoized `H(attrs)`, with `formula` applied
    /// on a miss to the multiplicities of the groups of `attrs`, in group
    /// order, and the row count.  The multiplicities come from the table a
    /// count lookup reads ([`AnalysisContext::distinct_with`]), filled under
    /// `budget` on a miss.  Id and count tables hold the same counts in the
    /// same order, so the value is bit-identical on either path and to the
    /// uncached one.
    pub fn entropy_with(
        &self,
        attrs: &AttrSet,
        budget: ThreadBudget,
        formula: fn(&[u64], u128) -> f64,
    ) -> Result<f64> {
        self.entropy_tier(attrs, || {
            let table = self.count_table(attrs, budget)?;
            Ok(formula(table.counts(), self.source.num_rows() as u128))
        })
    }

    /// The entropy tier: memoized `H(attrs)`, computed by `fill` on a miss.
    /// `fill` must compute the entropy of `attrs` over this context's
    /// source, as [`AnalysisContext::entropy_with`]'s does.
    fn entropy_tier(&self, attrs: &AttrSet, fill: impl FnOnce() -> Result<f64>) -> Result<f64> {
        self.memoized(&self.entropies, attrs, || {
            Ok((Arc::new(fill()?), Fill::Tier))
        })
        .map(|h| *h)
    }

    /// The join-size tier: memoized `|⋈ᵢ R[Ωᵢ]|` of the schema `bags`,
    /// computed by `fill` on a miss.
    ///
    /// The key is the sorted bag list: the join size depends only on the
    /// schema (Observation after eq. 7), so two join trees of one schema
    /// share one entry.
    pub fn join_size_tier(
        &self,
        bags: &[AttrSet],
        fill: impl FnOnce() -> Result<u128>,
    ) -> Result<u128> {
        let mut key = bags.to_vec();
        key.sort_unstable();
        self.memoized(&self.join_sizes, &key, || {
            Ok((Arc::new(fill()?), Fill::Tier))
        })
        .map(|size| *size)
    }

    /// The sample tier: the source rows at the indices `draw` returns,
    /// gathered ([`GroupKernel::gather_rows`]) into a fresh relation with
    /// its own context, memoized per `(seed, n)`.
    ///
    /// `draw` must return the sorted, strictly increasing row indices of
    /// the seeded draw of `n` rows — the same indices for the same
    /// `(seed, n)` — so an evicted sample is re-drawn bit-identically.
    /// The resident samples hold at most as many rows as the source in
    /// total: a fill past that evicts the oldest samples (never the one it
    /// adds).
    pub fn sample_tier(
        &self,
        seed: u64,
        n: u64,
        draw: impl FnOnce() -> Result<Vec<u64>>,
    ) -> Result<Arc<AnalysisContext<Relation>>> {
        let key = (seed, n);
        self.memoized(&self.samples, &key, || {
            let sample = self.source.gather_rows(&draw()?)?;
            self.admit_sample(key, sample.len());
            Ok((Arc::new(AnalysisContext::new(sample)), Fill::Tier))
        })
    }

    /// Records a new sample of `rows` rows and evicts the oldest samples
    /// until the resident ones hold at most the source's row count.
    fn admit_sample(&self, key: SampleKey, rows: usize) {
        let mut order = self.sample_order.lock();
        order.push_back((key, rows));
        let mut resident: usize = order.iter().map(|&(_, r)| r).sum();
        while resident > self.source.num_rows() && order.len() > 1 {
            let Some((old, r)) = order.pop_front() else {
                break;
            };
            resident -= r;
            self.samples.evict(&old);
        }
    }

    /// The seeds of the next epoch of this context's source, which extends
    /// it by one or more shards: every completed table, which covers the
    /// `shards` shards of this epoch, plus the seeds this context never
    /// consumed.  A set keeps one seed: its id table if it has one (its
    /// count lookups read it), else its count table.  Only completed slots
    /// are read (never an in-flight fill), and `∅` is never seeded.
    ///
    /// Key maps move, under the seeds lock, with their tables: the map
    /// this epoch's extension of a set kept goes with the set's table, and
    /// an unconsumed seed takes its own map along.  A map is never copied,
    /// so at most one extension consumes it; one this context loses (a
    /// table still in flight, or an unconsumed seed it extends after this
    /// hand-over) is rebuilt by the extension that lacks it.
    pub(crate) fn next_seeds(&self, shards: usize) -> Seeds {
        let mut tables: FxHashMap<AttrSet, Option<Seed>> = FxHashMap::default();
        let mut seed = |attrs: &AttrSet, table: &Arc<GroupIds>| {
            if !attrs.is_empty() {
                tables
                    .entry(attrs.clone())
                    .or_insert_with(|| Some(Seed::new(table, shards)));
            }
        };
        self.group_ids.visit_resident(&mut seed);
        self.group_counts.visit_resident(&mut seed);
        let mut seeds = self.seeds.lock();
        // ajd: allow(hash-iter-order, "each map moves to the seed of its own set; no result depends on the visiting order")
        for (attrs, key_map) in seeds.kept.drain() {
            if let Some(Some(seed)) = tables.get_mut(&attrs) {
                seed.key_map = Some(key_map);
            }
        }
        for (attrs, seed) in seeds.tables.iter_mut() {
            if let Some(seed) = seed {
                tables
                    .entry(attrs.clone())
                    .or_insert_with(|| Some(seed.hand_on()));
            }
        }
        Seeds {
            tables,
            ..Seeds::default()
        }
    }

    /// Keeps `key_map`, the key map of this epoch's extended table of
    /// `attrs`, for [`AnalysisContext::next_seeds`] to hand on, and counts
    /// the `hashed` code tuples the extension hashed.
    fn keep(&self, attrs: &AttrSet, key_map: KeyMap, hashed: usize) {
        let mut seeds = self.seeds.lock();
        seeds.kept.insert(attrs.clone(), key_map);
        seeds.hashed += hashed as u64;
    }

    /// Code tuples this context's extended fills have hashed: each
    /// appended span's groups, plus a seed's own groups wherever its kept
    /// key map was missing or no longer fit.  A test observation of the
    /// kept maps, not a cache statistic.
    #[cfg(any(test, ajd_model))]
    pub fn extension_hashes(&self) -> u64 {
        self.seeds.lock().hashed
    }

    /// Snapshot of cache sizes and hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            derived: self.derived.load(Ordering::Relaxed),
            extended: self.extended.load(Ordering::Relaxed),
            group_count_entries: self.group_counts.entries(),
            group_id_entries: self.group_ids.entries(),
            entropy: self.entropies.tier_stats(),
            join_size: self.join_sizes.tier_stats(),
            sample: self.samples.tier_stats(),
        }
    }

    /// [`StripedCache::get_or_fill`] plus the context's counters: a kernel
    /// fill ([`Fill`]) is a miss, a lookup that did not lead is a hit, and
    /// a tier fill counts only in its tier.
    fn memoized<K: Hash + Eq + Clone, T>(
        &self,
        cache: &StripedCache<K, T>,
        key: &K,
        fill: impl FnOnce() -> Result<(Arc<T>, Fill)>,
    ) -> Result<Arc<T>> {
        let (result, led) = cache.get_or_fill(key, || {
            fill().map(|(value, how)| {
                let counter = match how {
                    Fill::Kernel => Some(&self.misses),
                    Fill::Derived => Some(&self.derived),
                    Fill::Extended => Some(&self.extended),
                    Fill::Tier => None,
                };
                if let Some(counter) = counter {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                value
            })
        });
        if !led && result.is_ok() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }
}

#[cfg(ajd_model)]
impl<S: GroupKernel> AnalysisContext<S> {
    /// **Seeded mutant, model builds only**: a group-counts lookup with the
    /// single-flight slot *removed* — cold keys go check-then-compute
    /// straight against the shard map, so two racers can both observe the
    /// key cold and both run the kernel.  Exists solely so the model suite
    /// can prove the explorer catches this bug class (the miss counter
    /// then exceeds the distinct-key count); never compiled into normal
    /// builds.
    pub fn mutant_group_counts_no_single_flight(
        &self,
        attrs: &AttrSet,
        budget: ThreadBudget,
    ) -> Result<Arc<GroupIds>> {
        let shard = self.group_counts.shard(attrs);
        if let Some(slot) = shard.read().get(attrs).cloned() {
            if let Some(done) = slot.get() {
                if done.is_ok() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                }
                return done.clone();
            }
        }
        // MUTANT: compute unconditionally instead of contending on a slot.
        let out = self
            .source
            .group_ids_with(attrs, budget)
            .map(|ids| Arc::new(GroupIds::without_rows(ids)));
        if out.is_ok() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let slot: Slot<GroupIds> = Arc::new(OnceSlot::new());
        let _ = slot.set(out.clone());
        shard.write().insert(attrs.clone(), slot);
        out
    }
}

impl<S: GroupKernel> GroupSource for AnalysisContext<S> {
    fn schema(&self) -> &[AttrId] {
        self.source.schema()
    }

    fn num_rows(&self) -> usize {
        self.source.num_rows()
    }

    fn active_domain_size(&self, attr: AttrId) -> Result<usize> {
        self.source.active_domain_size(attr)
    }

    fn group_ids(&self, attrs: &AttrSet) -> Result<Arc<GroupIds>> {
        self.group_ids_with(attrs, ThreadBudget::default())
    }

    fn distinct(&self, attrs: &AttrSet) -> Result<usize> {
        self.distinct_with(attrs, ThreadBudget::default())
    }

    fn memo_entropy(&self, attrs: &AttrSet, formula: fn(&[u64], u128) -> f64) -> Result<f64> {
        self.entropy_with(attrs, ThreadBudget::default(), formula)
    }

    fn memo_join_size(&self, bags: &[AttrSet], count: &dyn Fn() -> Result<u128>) -> Result<u128> {
        self.join_size_tier(bags, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrId;
    use crate::relation::Value;

    fn sample() -> Relation {
        Relation::from_rows(
            vec![AttrId(0), AttrId(1), AttrId(2)],
            &[
                &[0, 0, 0][..],
                &[0, 1, 0][..],
                &[1, 0, 1][..],
                &[1, 1, 1][..],
                &[0, 0, 0][..], // duplicate row: multiset
            ],
        )
        .unwrap()
    }

    fn bag(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn group_counts_match_uncached() {
        let r = sample();
        let ctx = AnalysisContext::new(&r);
        for attrs in [bag(&[0]), bag(&[0, 2]), bag(&[0, 1, 2]), AttrSet::empty()] {
            let cached = ctx
                .group_counts_with(&attrs, ThreadBudget::serial())
                .unwrap();
            let direct = r.group_counts_with(&attrs, ThreadBudget::serial()).unwrap();
            assert_eq!(cached.total, direct.total);
            assert_eq!(cached.num_groups(), direct.num_groups());
            for (key, count) in direct.iter() {
                assert_eq!(cached.count_of(key), count);
            }
        }
    }

    #[test]
    fn group_ids_agree_with_group_counts() {
        let r = sample();
        let ctx = AnalysisContext::new(&r);
        for attrs in [bag(&[0]), bag(&[1, 2]), bag(&[0, 1, 2]), AttrSet::empty()] {
            let ids = ctx.group_ids(&attrs).unwrap();
            let counts = ctx
                .group_counts_with(&attrs, ThreadBudget::serial())
                .unwrap();
            assert_eq!(ids.num_groups(), counts.num_groups());
            assert_eq!(ids.total() as u128, counts.total);
            assert_eq!(ids.row_ids().len(), r.len());
            assert_eq!(ids.counts().iter().sum::<u64>(), r.len() as u64);
            // Rows with equal projections share an id; the id's count matches.
            for (row, &id) in r.iter_rows().zip(ids.row_ids()) {
                let positions = r.attr_positions(&attrs).unwrap();
                let key: Vec<Value> = positions.iter().map(|&p| row[p]).collect();
                assert_eq!(ids.counts()[id as usize], counts.count_of(&key));
            }
        }
    }

    #[test]
    fn map_to_recovers_coarser_groups() {
        let r = sample();
        let ctx = AnalysisContext::new(&r);
        let fine = ctx.group_ids(&bag(&[0, 1, 2])).unwrap();
        for coarse_attrs in [bag(&[0]), bag(&[1, 2]), AttrSet::empty()] {
            let coarse = ctx.group_ids(&coarse_attrs).unwrap();
            let map = fine.map_to(&coarse);
            assert_eq!(map.len(), fine.num_groups());
            // Per row: mapping the fine id must land on the row's coarse id.
            for (&f, &c) in fine.row_ids().iter().zip(coarse.row_ids()) {
                assert_eq!(map[f as usize], c);
            }
        }
    }

    #[test]
    fn caches_are_shared_and_counted() {
        let r = sample();
        let ctx = AnalysisContext::new(&r);
        let a = ctx.count_table(&bag(&[0]), ThreadBudget::serial()).unwrap();
        let b = ctx.count_table(&bag(&[0]), ThreadBudget::serial()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = ctx.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.group_count_entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// A count lookup reads resident ids instead of grouping again (a hit,
    /// not a miss, and no count table); a count lookup never creates an id
    /// table, so the other order groups twice.
    #[test]
    fn count_miss_decodes_resident_ids_but_never_creates_them() {
        let r = sample();
        let attrs = bag(&[0, 1]);
        let direct = r.group_counts_with(&attrs, ThreadBudget::serial()).unwrap();

        let ids_first = AnalysisContext::new(&r);
        ids_first.group_ids(&attrs).unwrap();
        let decoded = ids_first
            .group_counts_with(&attrs, ThreadBudget::serial())
            .unwrap();
        let stats = ids_first.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(stats.group_count_entries, 0);
        assert_eq!(decoded.total, direct.total);
        assert_eq!(decoded.counts(), direct.counts());
        for g in 0..direct.num_groups() {
            assert_eq!(decoded.key(g), direct.key(g));
            assert_eq!(decoded.key_codes(g), direct.key_codes(g));
        }

        let counts_first = AnalysisContext::new(&r);
        counts_first
            .group_counts_with(&attrs, ThreadBudget::serial())
            .unwrap();
        assert_eq!(counts_first.stats().group_id_entries, 0);
        counts_first.group_ids(&attrs).unwrap();
        let stats = counts_first.stats();
        assert_eq!((stats.misses, stats.hits), (2, 0));
    }

    #[test]
    fn unknown_attribute_is_not_cached() {
        let r = sample();
        let ctx = AnalysisContext::new(&r);
        assert!(ctx
            .group_counts_with(&bag(&[9]), ThreadBudget::serial())
            .is_err());
        assert!(ctx.group_ids(&bag(&[9])).is_err());
        assert_eq!(ctx.stats().group_count_entries, 0);
    }

    #[test]
    fn group_source_is_object_agnostic() {
        // The same generic function body works over a Relation (fresh
        // computation) and a context (memoized), with identical results.
        fn groups_via<S: GroupSource>(src: &S, attrs: &AttrSet) -> usize {
            src.distinct(attrs).unwrap()
        }
        let r = sample();
        let ctx = AnalysisContext::new(&r);
        let attrs = bag(&[0, 1]);
        assert_eq!(groups_via(&r, &attrs), groups_via(&ctx, &attrs));
        // Blanket impl: references to sources are sources too.
        assert_eq!(groups_via(&&r, &attrs), groups_via(&&ctx, &attrs));
        assert_eq!(GroupSource::num_rows(&ctx), r.len());
        assert_eq!(GroupSource::schema(&ctx), r.schema());
    }

    #[test]
    fn concurrent_readers_converge() {
        let r = sample();
        let ctx = AnalysisContext::new(&r);
        let sets: Vec<AttrSet> = vec![bag(&[0]), bag(&[1]), bag(&[0, 1]), bag(&[0, 1, 2])];
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for attrs in &sets {
                        let c = ctx
                            .group_counts_with(attrs, ThreadBudget::serial())
                            .unwrap();
                        assert_eq!(c.total, r.len() as u128);
                        let ids = ctx.group_ids(attrs).unwrap();
                        assert_eq!(ids.num_groups(), c.num_groups());
                    }
                });
            }
        });
        assert_eq!(ctx.stats().group_count_entries, sets.len());
        assert_eq!(ctx.stats().group_id_entries, sets.len());
    }

    /// A relation large enough that a grouping takes measurable time, so
    /// pre-fix the 8-thread race below would reliably observe duplicated
    /// misses.
    fn stress_relation() -> Relation {
        let mut r = Relation::new(vec![AttrId(0), AttrId(1), AttrId(2), AttrId(3)]).unwrap();
        let mut x = 1u32;
        for _ in 0..20_000 {
            // Deterministic xorshift-style scramble; four correlated columns.
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            r.push_row(&[x % 37, (x >> 8) % 23, (x >> 16) % 11, x % 5])
                .unwrap();
        }
        r
    }

    /// Satellite regression: 8 threads hammering one *cold* context on the
    /// same attribute sets must produce exactly one miss per distinct set —
    /// the single-flight entry guarantees at most one thread ever computes
    /// a given `AttrSet` (pre-fix, every racing thread recomputed the same
    /// grouping and `misses` was a multiple of the set count).
    #[test]
    fn cold_context_races_observe_one_miss_per_distinct_set() {
        let r = stress_relation();
        let ctx = AnalysisContext::new(&r);
        let sets: Vec<AttrSet> = vec![
            bag(&[0, 1]),
            bag(&[1, 2]),
            bag(&[2, 3]),
            bag(&[0, 2]),
            bag(&[1, 3]),
            bag(&[0, 1, 2, 3]),
        ];
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait(); // release all threads into the cold cache at once
                    for attrs in &sets {
                        let c = ctx
                            .group_counts_with(attrs, ThreadBudget::serial())
                            .unwrap();
                        assert_eq!(c.total, r.len() as u128);
                    }
                });
            }
        });
        let stats = ctx.stats();
        assert_eq!(
            stats.misses,
            sets.len() as u64,
            "every distinct attribute set must be computed exactly once"
        );
        // Count lookups leave no id table resident, so nothing derives.
        assert_eq!(stats.derived, 0);
        assert_eq!(stats.hits, (8 - 1) * sets.len() as u64);
        assert_eq!(stats.group_count_entries, sets.len());
    }

    /// The single-flight guarantee holds per cache: group counts and group
    /// ids each compute once per distinct set under the same 8-thread
    /// hammering.
    #[test]
    fn cold_context_races_single_flight_across_all_caches() {
        let r = stress_relation();
        let ctx = AnalysisContext::new(&r);
        let sets: Vec<AttrSet> = vec![bag(&[0, 1]), bag(&[2, 3]), bag(&[0, 3])];
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    barrier.wait();
                    for attrs in &sets {
                        ctx.group_counts_with(attrs, ThreadBudget::serial())
                            .unwrap();
                        ctx.group_ids(attrs).unwrap();
                    }
                });
            }
        });
        let stats = ctx.stats();
        // No resident id table is a subset or superset of another set.
        assert_eq!((stats.misses, stats.derived), (2 * sets.len() as u64, 0));
        assert_eq!(stats.group_count_entries, sets.len());
        assert_eq!(stats.group_id_entries, sets.len());
    }

    /// Racing threads on one cold set all receive the *same* `Arc` (the
    /// leader's), not clones of equal values.
    #[test]
    fn racing_threads_share_the_leaders_arc() {
        let r = stress_relation();
        let ctx = AnalysisContext::new(&r);
        let attrs = bag(&[0, 1, 2]);
        let barrier = std::sync::Barrier::new(4);
        let arcs: Vec<Arc<GroupIds>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        ctx.count_table(&attrs, ThreadBudget::default()).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for pair in arcs.windows(2) {
            assert!(Arc::ptr_eq(&pair[0], &pair[1]));
        }
        assert_eq!(ctx.stats().misses, 1);
    }

    /// Errors are not memoized: a failed lookup leaves no entry behind and
    /// the next call retries (and fails again, deterministically).
    #[test]
    fn errors_retry_instead_of_poisoning() {
        let r = sample();
        let ctx = AnalysisContext::new(&r);
        for _ in 0..2 {
            assert!(ctx
                .group_counts_with(&bag(&[9]), ThreadBudget::serial())
                .is_err());
            assert_eq!(ctx.stats().group_count_entries, 0);
            assert_eq!(ctx.stats().misses, 0);
        }
        // A successful lookup after the failures works normally.
        assert!(ctx
            .group_counts_with(&bag(&[0]), ThreadBudget::serial())
            .is_ok());
        assert_eq!(ctx.stats().group_count_entries, 1);
    }

    /// Misses computed under a serial, a parallel or the default budget
    /// yield bit-identical groupings (the determinism contract).
    #[test]
    fn thread_budget_is_result_invariant() {
        let r = stress_relation();
        let serial_ctx = AnalysisContext::new(&r);
        let par_ctx = AnalysisContext::new(&r);
        let default_ctx = AnalysisContext::new(&r);
        for attrs in [bag(&[0, 1]), bag(&[0, 1, 2]), bag(&[0, 1, 2, 3])] {
            let a = serial_ctx
                .group_ids_with(&attrs, ThreadBudget::serial())
                .unwrap();
            let b = par_ctx
                .group_ids_with(&attrs, ThreadBudget::new(4))
                .unwrap();
            let c = default_ctx.group_ids(&attrs).unwrap();
            for other in [&b, &c] {
                assert_eq!(a.row_ids(), other.row_ids());
                assert_eq!(a.counts(), other.counts());
                assert_eq!(a.group_codes(), other.group_codes());
            }
        }
    }

    /// The join-size tier keys by the sorted bag list, so the same schema
    /// in another bag order is a hit; a tier hit is also a cache hit, and a
    /// tier fill is neither a hit nor a kernel run.
    #[test]
    fn join_size_tier_keys_by_the_sorted_bag_list() {
        let r = sample();
        let ctx = AnalysisContext::new(&r);
        let fills = std::cell::Cell::new(0);
        let fill = || {
            fills.set(fills.get() + 1);
            Ok(7)
        };
        let ab = [bag(&[0, 1]), bag(&[1, 2])];
        let ba = [bag(&[1, 2]), bag(&[0, 1])];
        assert_eq!(ctx.join_size_tier(&ab, fill).unwrap(), 7);
        assert_eq!(ctx.join_size_tier(&ba, fill).unwrap(), 7);
        assert_eq!(fills.get(), 1);
        let stats = ctx.stats();
        let tier = TierStats {
            hits: 1,
            misses: 1,
            entries: 1,
        };
        assert_eq!(stats.join_size, tier);
        assert_eq!((stats.hits, stats.misses), (1, 0));
    }

    /// A failed tier fill is not memoized: the next lookup fills again.
    #[test]
    fn tier_errors_retry_instead_of_poisoning() {
        let r = sample();
        let ctx = AnalysisContext::new(&r);
        let y = bag(&[9]);
        for _ in 0..2 {
            assert!(ctx.memo_entropy(&y, |_, total| total as f64).is_err());
        }
        assert_eq!(ctx.stats().entropy, TierStats::default());
        let fine = ctx.entropy_tier(&y, || Ok(1.5)).unwrap();
        assert_eq!(fine, 1.5);
        assert_eq!(ctx.stats().entropy.misses, 1);
    }

    /// The sample tier gathers the drawn rows once per `(seed, n)` and keeps
    /// at most the source's row count resident, evicting the oldest.
    #[test]
    fn sample_tier_memoizes_and_evicts_the_oldest() {
        let r = sample(); // 5 rows
        let ctx = AnalysisContext::new(&r);
        let first = ctx.sample_tier(1, 2, || Ok(vec![0, 3])).unwrap();
        assert_eq!(first.source().len(), 2);
        assert_eq!(first.source().row(1), r.row(3));
        let again = ctx.sample_tier(1, 2, || unreachable!("memoized")).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        ctx.sample_tier(2, 2, || Ok(vec![1, 2])).unwrap();
        assert_eq!(ctx.stats().sample.entries, 2);
        // 2 + 2 + 2 rows > 5: the oldest sample (seed 1) goes.
        ctx.sample_tier(3, 2, || Ok(vec![2, 4])).unwrap();
        let stats = ctx.stats();
        assert_eq!(stats.sample.entries, 2);
        assert_eq!((stats.sample.hits, stats.sample.misses), (1, 3));
        let redrawn = ctx.sample_tier(1, 2, || Ok(vec![0, 3])).unwrap();
        assert_eq!(ctx.stats().sample.misses, 4);
        assert!(redrawn.source().set_eq(first.source()));
        // Bad indices surface as errors and leave nothing behind.
        assert!(ctx.sample_tier(4, 1, || Ok(vec![99])).is_err());
        assert_eq!(ctx.stats().sample.entries, 2);
    }

    #[test]
    fn empty_relation_contexts_work() {
        let r = Relation::new(vec![AttrId(0)]).unwrap();
        let ctx = AnalysisContext::new(&r);
        let ids = ctx.group_ids(&bag(&[0])).unwrap();
        assert_eq!(ids.num_groups(), 0);
        assert_eq!(ids.total(), 0);
    }

    /// The kept key maps of seeded extensions: a live store whose contexts
    /// extend the previous epoch's tables.
    mod kept_key_maps {
        use super::*;
        use crate::{ShardedRelation, ShardedStore};

        type Ctx = AnalysisContext<Arc<ShardedRelation>>;

        fn batch(arity: u32, rows: &[Vec<Value>]) -> Relation {
            Relation::from_rows((0..arity).map(AttrId).collect(), rows).unwrap()
        }

        /// The groups of the shards from `first` on: what an extension
        /// with a kept map hashes.
        fn span_groups(ctx: &Ctx, attrs: &AttrSet, first: usize) -> u64 {
            let shards = &ctx.source().shards()[first..];
            let groups = shards
                .iter()
                .map(|s| s.relation().group_ids(attrs).unwrap());
            groups.map(|g| g.num_groups() as u64).sum()
        }

        /// `ctx`'s ids of `attrs`, checked against the flat relation of its
        /// rows, and their `map_to` onto the first attribute against the
        /// row pass.
        fn ids(ctx: &Ctx, attrs: &AttrSet) -> Arc<GroupIds> {
            let got = ctx.group_ids_with(attrs, ThreadBudget::serial()).unwrap();
            let flat = ctx.source().collect().unwrap();
            let want = flat.group_ids(attrs).unwrap();
            assert_eq!(got.row_ids(), want.row_ids(), "{attrs}: row ids");
            assert_eq!(got.counts(), want.counts(), "{attrs}: counts");
            assert_eq!(got.group_codes(), want.group_codes(), "{attrs}: codes");
            let head = AttrSet::singleton(attrs.iter().next().unwrap());
            let coarse = flat.group_ids(&head).unwrap();
            let mut map = vec![0; got.num_groups()];
            for (&f, &c) in got.row_ids().iter().zip(coarse.row_ids()) {
                map[f as usize] = c;
            }
            assert_eq!(got.map_to(&coarse), map, "{attrs}: map_to");
            got
        }

        /// `ctx`'s counts of `attrs`, checked against the flat relation.
        fn counts(ctx: &Ctx, attrs: &AttrSet) -> Arc<GroupCounts> {
            let got = ctx
                .group_counts_with(attrs, ThreadBudget::serial())
                .unwrap();
            let want = ctx
                .source()
                .collect()
                .unwrap()
                .group_counts_with(attrs, ThreadBudget::serial())
                .unwrap();
            assert_eq!(got.total, want.total, "{attrs}: total");
            assert_eq!(got.counts(), want.counts(), "{attrs}: counts");
            for g in 0..want.num_groups() {
                assert_eq!(got.key(g), want.key(g), "{attrs}: key {g}");
                assert_eq!(got.key_codes(g), want.key_codes(g), "{attrs}: codes {g}");
            }
            got
        }

        /// The first extension of a kernel table hashes the seed's groups
        /// and the new shard's; the second, which takes over the kept map,
        /// hashes the new shard's groups only.
        #[test]
        fn a_second_extension_hashes_only_the_new_shards_groups() {
            let rows = |k: u32| -> Vec<Vec<Value>> {
                (0..12)
                    .map(|i| vec![(i + k) % 4, i % 3, (i * k) % 2])
                    .collect()
            };
            let store = ShardedStore::from_initial_shard(batch(3, &rows(0))).unwrap();
            let y = bag(&[0, 1]);
            let seed = ids(&store.context(), &y).num_groups() as u64;
            store.append_shard(batch(3, &rows(1))).unwrap();
            let ctx = store.context();
            let first = ids(&ctx, &y);
            assert_eq!(ctx.extension_hashes(), seed + span_groups(&ctx, &y, 1));
            drop((ctx, first));
            for (e, k) in [(2, 2), (3, 5), (4, 1)] {
                store.append_shard(batch(3, &rows(k))).unwrap();
                let ctx = store.context();
                ids(&ctx, &y);
                assert_eq!(ctx.extension_hashes(), span_groups(&ctx, &y, e));
                assert_eq!(ctx.stats().extended, 1);
            }
        }

        /// An append that pushes a dictionary across a power of two widens
        /// a packed key, so the kept map no longer fits and is rebuilt; the
        /// rebuilt map is kept for the extension after it.
        #[test]
        fn a_wider_dictionary_rebuilds_the_kept_map() {
            let rows: Vec<Vec<Value>> = (0..12).map(|i| vec![i % 4, i % 3, i % 2]).collect();
            let store = ShardedStore::from_initial_shard(batch(3, &rows)).unwrap();
            let y = bag(&[0, 1, 2]);
            ids(&store.context(), &y);
            store.append_shard(batch(3, &rows[..5])).unwrap();
            let seed = ids(&store.context(), &y).num_groups() as u64;
            // A fifth value of attribute 0: 2 bits become 3.
            store
                .append_shard(batch(3, &[vec![4, 0, 0], vec![1, 1, 1]]))
                .unwrap();
            let ctx = store.context();
            ids(&ctx, &y);
            assert_eq!(ctx.extension_hashes(), seed + span_groups(&ctx, &y, 2));
            drop(ctx);
            store
                .append_shard(batch(3, &[vec![4, 2, 1], vec![3, 0, 1]]))
                .unwrap();
            let ctx = store.context();
            ids(&ctx, &y);
            assert_eq!(ctx.extension_hashes(), span_groups(&ctx, &y, 3));
        }

        /// Eight attributes of 256 values pack Ω into exactly 64 bits; a
        /// 257th value of one of them pushes the key past 64 bits, so the
        /// packed map is rebuilt as a boxed one, which is kept in turn.
        #[test]
        fn a_key_past_64_bits_rebuilds_the_kept_map() {
            let row = |i: u32| -> Vec<Value> { (0..8).map(|j| (i * (2 * j + 1)) % 256).collect() };
            let base: Vec<Vec<Value>> = (0..256).map(row).collect();
            let store = ShardedStore::from_initial_shard(batch(8, &base)).unwrap();
            let omega = AttrSet::range(8);
            ids(&store.context(), &omega);
            store.append_shard(batch(8, &base[..9])).unwrap();
            let seed = ids(&store.context(), &omega).num_groups() as u64;
            let mut wide = row(3);
            wide[0] = 256;
            store.append_shard(batch(8, &[wide, row(7)])).unwrap();
            let ctx = store.context();
            ids(&ctx, &omega);
            assert_eq!(ctx.extension_hashes(), seed + span_groups(&ctx, &omega, 2));
            drop(ctx);
            store.append_shard(batch(8, &[row(5), row(300)])).unwrap();
            let ctx = store.context();
            ids(&ctx, &omega);
            assert_eq!(ctx.extension_hashes(), span_groups(&ctx, &omega, 3));
        }

        /// A reader still pinned to the old epoch holds the seed: the next
        /// epoch copies its row ids (and first rows) instead of taking them
        /// over, but still takes over its kept map.
        #[test]
        fn a_pinned_seed_is_copied_but_its_map_is_taken_over() {
            let rows: Vec<Vec<Value>> = (0..20).map(|i| vec![i % 5, i % 3, i % 4]).collect();
            let store = ShardedStore::from_initial_shard(batch(3, &rows)).unwrap();
            let y = bag(&[0, 2]);
            ids(&store.context(), &y);
            store.append_shard(batch(3, &rows[3..9])).unwrap();
            let pinned = store.context();
            let old = ids(&pinned, &y);
            let old_rows = old.row_ids().to_vec();
            store
                .append_shard(batch(3, &[vec![0, 0, 1], vec![2, 1, 0]]))
                .unwrap();
            let ctx = store.context();
            let new = ids(&ctx, &y);
            assert_eq!(ctx.extension_hashes(), span_groups(&ctx, &y, 2));
            assert!(!Arc::ptr_eq(&old, &new));
            assert_eq!(
                old.row_ids(),
                &old_rows[..],
                "the pinned table is untouched"
            );
            ids(&pinned, &y);
            assert_eq!(new.row_ids()[..old_rows.len()], old_rows[..]);
        }

        /// Ω read for its counts alone: each epoch extends the count seed
        /// through `extend_counts`, and from the second extension on only
        /// the new shard's groups are hashed; no id table is ever made.
        #[test]
        fn an_omega_count_seed_keeps_its_map() {
            let rows = |k: u32| -> Vec<Vec<Value>> {
                (0..15)
                    .map(|i| vec![(i + k) % 5, (i * k) % 3, i % 2])
                    .collect()
            };
            let store = ShardedStore::from_initial_shard(batch(3, &rows(0))).unwrap();
            let omega = AttrSet::range(3);
            let seed = counts(&store.context(), &omega).num_groups() as u64;
            store.append_shard(batch(3, &rows(1))).unwrap();
            let ctx = store.context();
            counts(&ctx, &omega);
            assert_eq!(ctx.extension_hashes(), seed + span_groups(&ctx, &omega, 1));
            drop(ctx);
            for (e, k) in [(2, 2), (3, 4)] {
                store.append_shard(batch(3, &rows(k))).unwrap();
                let ctx = store.context();
                counts(&ctx, &omega);
                assert_eq!(ctx.extension_hashes(), span_groups(&ctx, &omega, e));
                let stats = ctx.stats();
                assert_eq!((stats.extended, stats.group_id_entries), (1, 0));
            }
        }
    }
}
