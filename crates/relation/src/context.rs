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
//!   written against: "give me group counts / interned group ids / an
//!   entropy for this attribute set, or the join size of this schema".  A
//!   plain [`Relation`] implements it by computing fresh (the one-shot
//!   path); an [`AnalysisContext`] implements it by memoizing (the shared
//!   path).  Because both implementations call the *same* columnar kernel,
//!   a measure computed through a context is **bit-identical** to its
//!   uncached counterpart — a property the workspace's tests assert.
//! * [`AnalysisContext`] — the memoization layer, in the spirit of the
//!   lattice-level entropy caching of Kenig et al. (*Mining Approximate
//!   Acyclic Schemes from Relations*, 2019): caches of [`GroupCounts`] and
//!   interned [`GroupIds`] keyed by [`AttrSet`], **striped** across
//!   several `RwLock`-guarded shards (so writes on unrelated attribute sets
//!   do not contend) with **per-key single-flight** misses: when several
//!   threads race on the same cold `AttrSet`, exactly one computes the
//!   grouping and the rest block on that entry alone — never on the whole
//!   map, and never recomputing the same expensive grouping N times.
//!   Misses are computed through a [`ThreadBudget`] (the chunked parallel
//!   kernel) given per call, which keeps results bit-identical to the
//!   serial path at any budget.
//!
//! Above those caches a context keeps three **memo tiers** in the same
//! single-flight maps, so a warm measure is a lookup rather than a sum:
//! the entropy `H(Y)` per attribute set (the entropy oracle over the
//! attribute lattice), the acyclic join size per schema, and the seeded
//! estimation sample per `(seed, n)`.  [`GroupSource::memo_entropy`] and
//! [`GroupSource::memo_join_size`] are the hooks the measures in
//! `ajd-info` and `ajd-jointree` call; a plain source computes, a context
//! answers from its tier.  A context lives for one epoch of its source, so
//! no tier can answer for rows it has not seen.

use crate::attr::{AttrId, AttrSet};
use crate::error::{RelationError, Result};
use crate::hash::{FxHashMap, FxHasher};
use crate::parallel::ThreadBudget;
use crate::relation::{GroupCounts, GroupIds, Relation, Value};
use ajd_sync::atomic::{AtomicU64, Ordering};
use ajd_sync::{Mutex, OnceSlot, RwLock};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
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

    /// Multiplicities of the distinct `attrs`-projections of the relation's
    /// tuples (see [`Relation::group_counts`]).
    fn group_counts(&self, attrs: &AttrSet) -> Result<Arc<GroupCounts>>;

    /// Interned group keys for `attrs` (see [`GroupIds`]).
    fn group_ids(&self, attrs: &AttrSet) -> Result<Arc<GroupIds>>;

    /// The entropy `H(attrs)`, with `formula` turning a count table into
    /// its entropy.  A plain source applies `formula` to
    /// [`GroupSource::group_counts`]; an [`AnalysisContext`] answers from
    /// its entropy tier ([`AnalysisContext::entropy_tier`]), whose miss
    /// path does exactly that.
    ///
    /// The tier is keyed by `attrs` alone, so every caller must pass the
    /// same formula: `ajd_info::entropy_from_counts`, the one definition of
    /// the entropy sum (it lives above this crate, hence the parameter).
    fn memo_entropy(&self, attrs: &AttrSet, formula: fn(&GroupCounts) -> f64) -> Result<f64> {
        Ok(formula(&*self.group_counts(attrs)?))
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
/// (shard-local grouping + shard-order merge).  A layout supplies the three
/// methods that differ between them: the grouping, the sampled-row gather
/// and the code → value dictionary of a schema position.  Count decoding,
/// counts under a budget and the set-semantic projection are provided
/// methods, written once on top of those.  Both groupings are
/// **bit-identical** to the serial flat kernel at any budget, so a context
/// over either layout serves the same values.  Kernels are `Send + Sync`
/// so handles over them can fan out across worker threads.
pub trait GroupKernel: GroupSource + Send + Sync {
    /// [`GroupSource::group_ids`] computed under a [`ThreadBudget`].
    fn group_ids_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<GroupIds>;

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

    /// [`GroupSource::group_counts`] computed under a [`ThreadBudget`]: the
    /// grouping decoded by [`GroupKernel::decode_group_counts`].
    fn group_counts_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<GroupCounts> {
        Ok(self.decode_group_counts(&self.group_ids_with(attrs, budget)?))
    }

    /// Decodes a grouping of this source into its count table without
    /// grouping again: the result is bit-identical to
    /// [`GroupKernel::group_counts_with`] on `ids.attrs()`.
    ///
    /// `ids` must have been computed from this source.
    fn decode_group_counts(&self, ids: &GroupIds) -> GroupCounts {
        let dicts = dictionaries(self, ids.attrs())
            .expect("grouping was built from this source's attributes");
        let mut keys: Vec<Value> = Vec::with_capacity(ids.group_codes().len());
        for g in 0..ids.num_groups() {
            for (&c, d) in ids.group_code(g).iter().zip(&dicts) {
                keys.push(d[c as usize]);
            }
        }
        GroupCounts::from_parts(
            ids.attrs().clone(),
            self.num_rows() as u128,
            keys,
            ids.group_codes().to_vec(),
            ids.counts().to_vec(),
        )
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

    fn group_counts(&self, attrs: &AttrSet) -> Result<Arc<GroupCounts>> {
        Relation::group_counts(self, attrs).map(Arc::new)
    }

    fn group_ids(&self, attrs: &AttrSet) -> Result<Arc<GroupIds>> {
        Relation::group_ids(self, attrs).map(Arc::new)
    }
}

impl GroupKernel for Relation {
    fn group_ids_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<GroupIds> {
        Relation::group_ids_with(self, attrs, budget)
    }

    fn gather_rows(&self, sorted_rows: &[u64]) -> Result<Relation> {
        Relation::gather_rows(self, sorted_rows)
    }

    fn dictionary(&self, pos: usize) -> &[Value] {
        self.domain(self.schema()[pos])
            .expect("a schema attribute has a column dictionary")
    }
}

impl<S: GroupSource + ?Sized> GroupSource for &S {
    fn schema(&self) -> &[AttrId] {
        (**self).schema()
    }

    fn num_rows(&self) -> usize {
        (**self).num_rows()
    }

    fn active_domain_size(&self, attr: AttrId) -> Result<usize> {
        (**self).active_domain_size(attr)
    }

    fn group_counts(&self, attrs: &AttrSet) -> Result<Arc<GroupCounts>> {
        (**self).group_counts(attrs)
    }

    fn group_ids(&self, attrs: &AttrSet) -> Result<Arc<GroupIds>> {
        (**self).group_ids(attrs)
    }

    fn memo_entropy(&self, attrs: &AttrSet, formula: fn(&GroupCounts) -> f64) -> Result<f64> {
        (**self).memo_entropy(attrs, formula)
    }

    fn memo_join_size(&self, bags: &[AttrSet], count: &dyn Fn() -> Result<u128>) -> Result<u128> {
        (**self).memo_join_size(bags, count)
    }
}

impl<S: GroupKernel + ?Sized> GroupKernel for &S {
    fn group_ids_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<GroupIds> {
        (**self).group_ids_with(attrs, budget)
    }

    fn gather_rows(&self, sorted_rows: &[u64]) -> Result<Relation> {
        (**self).gather_rows(sorted_rows)
    }

    fn dictionary(&self, pos: usize) -> &[Value] {
        (**self).dictionary(pos)
    }
}

impl<S: GroupSource + ?Sized> GroupSource for Arc<S> {
    fn schema(&self) -> &[AttrId] {
        (**self).schema()
    }

    fn num_rows(&self) -> usize {
        (**self).num_rows()
    }

    fn active_domain_size(&self, attr: AttrId) -> Result<usize> {
        (**self).active_domain_size(attr)
    }

    fn group_counts(&self, attrs: &AttrSet) -> Result<Arc<GroupCounts>> {
        (**self).group_counts(attrs)
    }

    fn group_ids(&self, attrs: &AttrSet) -> Result<Arc<GroupIds>> {
        (**self).group_ids(attrs)
    }

    fn memo_entropy(&self, attrs: &AttrSet, formula: fn(&GroupCounts) -> f64) -> Result<f64> {
        (**self).memo_entropy(attrs, formula)
    }

    fn memo_join_size(&self, bags: &[AttrSet], count: &dyn Fn() -> Result<u128>) -> Result<u128> {
        (**self).memo_join_size(bags, count)
    }
}

impl<S: GroupKernel + ?Sized> GroupKernel for Arc<S> {
    fn group_ids_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<GroupIds> {
        (**self).group_ids_with(attrs, budget)
    }

    fn gather_rows(&self, sorted_rows: &[u64]) -> Result<Relation> {
        (**self).gather_rows(sorted_rows)
    }

    fn dictionary(&self, pos: usize) -> &[Value] {
        (**self).dictionary(pos)
    }
}

/// A point-in-time snapshot of a context's cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered without running the grouping kernel: served from a
    /// cache or a memo tier, or a count table decoded from a resident id
    /// table.
    pub hits: u64,
    /// Kernel runs: lookups that had to group the source and then memoized
    /// the result.  A caller that asks for a set's ids before its counts
    /// (as `ajd_core::Analyzer::analyze` does) pays exactly one miss per
    /// distinct attribute set it groups.  Memo-tier fills are not
    /// kernel runs; the lookups they make count for themselves.
    pub misses: u64,
    /// Number of memoized [`GroupCounts`] entries.
    pub group_count_entries: usize,
    /// Number of memoized [`GroupIds`] entries.
    pub group_id_entries: usize,
    /// The entropy tier ([`AnalysisContext::entropy_tier`]).
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
    /// Fraction of lookups answered from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
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

    /// The completed, successful value for `key`, if one is resident.
    /// Never installs a slot and never waits on an in-flight one.
    fn resident(&self, key: &K) -> Option<Arc<T>> {
        let slot = self.shard(key).read().get(key).cloned()?;
        slot.get()?.as_ref().ok().cloned()
    }

    /// Drops the slot of `key`; holders of its value keep it alive.
    fn evict(&self, key: &K) {
        self.shard(key).write().remove(key);
    }

    /// Number of *completed, successful* entries (in-flight slots and
    /// removed error slots do not count).
    fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .values()
                    .filter(|slot| slot.get().is_some_and(|r| r.is_ok()))
                    .count()
            })
            .sum()
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
    /// Decoded a resident id table without a kernel run: one hit.
    Decoded,
    /// Filled a memo tier: a tier miss only.
    Tier,
}

/// Memoized group counts and interned group ids of one relation, plus memo
/// tiers over them — the shared-computation substrate of the measurement
/// stack.
///
/// A context **owns** its source, which in practice is a cheap handle: a
/// `&Relation` borrow for one-shot analysis, or an `Arc<ShardedRelation>`
/// snapshot (see [`crate::ShardedStore`]) pinning one epoch of a live,
/// append-only relation — the context's merged-result caches are then
/// exactly the per-epoch tier of the two-tier incremental design (this
/// context caches merged results for *its* snapshot's epoch; the snapshot's
/// shards carry their own per-shard tables that survive into later epochs).
/// A context is cheap to create (empty caches); it pays for itself as soon
/// as two measures — or two candidate join trees — touch the same attribute
/// subset.  It is `Sync`: `ajd-core`'s `Analyzer` fan-out shares one
/// context across the workers of [`crate::parallel::fan_out`], and
/// concurrent misses on the same attribute set are **single-flight** —
/// exactly one thread computes, the others block on that entry and receive
/// the same `Arc`.
///
/// The count and id caches share their groupings one way: a count-table
/// miss whose [`GroupIds`] for the same set are already **resident** decodes
/// them ([`GroupKernel::decode_group_counts`]) instead of running the
/// kernel again.  The other way never happens: a count lookup does not
/// create an id table (ids hold one `u32` per row, so filling the id cache
/// on every count lookup would raise peak memory for count-only callers).
/// Callers that need both for a set — the full analysis — ask for the ids
/// first.  [`CacheStats::misses`] counts kernel runs only; a decoded count
/// table counts as a hit.
///
/// Three **memo tiers** sit on top of the caches, each single-flight
/// through the same slot machinery and counted in [`TierStats`]:
///
/// * the **entropy tier** — `H(Y)` per [`AttrSet`]
///   ([`AnalysisContext::entropy_tier`]);
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
/// Each cache has one accessor, which takes the [`ThreadBudget`] a miss is
/// computed under ([`AnalysisContext::group_counts_with`],
/// [`AnalysisContext::group_ids_with`]).  The context itself stores no
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
/// let first = ctx.group_counts(&y).unwrap();
/// let second = ctx.group_counts(&y).unwrap();      // served from cache
/// assert_eq!(first.num_groups(), second.num_groups());
/// assert_eq!(ctx.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct AnalysisContext<S = Relation> {
    source: S,
    group_counts: StripedCache<AttrSet, GroupCounts>,
    group_ids: StripedCache<AttrSet, GroupIds>,
    entropies: StripedCache<AttrSet, f64>,
    join_sizes: StripedCache<Vec<AttrSet>, u128>,
    samples: StripedCache<SampleKey, AnalysisContext<Relation>>,
    /// Resident samples, oldest first, with their row counts.
    sample_order: Mutex<VecDeque<(SampleKey, usize)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<S: GroupKernel> AnalysisContext<S> {
    /// Creates an empty context over `src`.
    ///
    /// `src` is taken by value, but sources are handles in practice:
    /// `AnalysisContext::new(&r)` builds a borrowing context (as before)
    /// and `AnalysisContext::new(store.snapshot())` an owning one over an
    /// `Arc` snapshot that lives for as long as the context does.
    pub fn new(src: S) -> Self {
        AnalysisContext {
            source: src,
            group_counts: StripedCache::new(),
            group_ids: StripedCache::new(),
            entropies: StripedCache::new(),
            join_sizes: StripedCache::new(),
            samples: StripedCache::new(),
            sample_order: Mutex::new(VecDeque::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The grouping source (flat [`Relation`], [`crate::ShardedRelation`]
    /// or `Arc` snapshot of one) this context memoizes computations over.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Memoized [`Relation::group_counts`]: multiplicities of the distinct
    /// `attrs`-projections of the relation's tuples.  On a miss the table
    /// is decoded from the resident [`GroupIds`] of `attrs` if there are
    /// any, and otherwise computed under `budget`.
    ///
    /// The budget is per call, so callers that split one total budget
    /// across layers (a fan-out handing each worker its share) pass the
    /// share down without touching the shared context.  The cached value
    /// is bit-identical at any budget and on either fill path.
    pub fn group_counts_with(
        &self,
        attrs: &AttrSet,
        budget: ThreadBudget,
    ) -> Result<Arc<GroupCounts>> {
        self.memoized(&self.group_counts, attrs, || {
            match self.group_ids.resident(attrs) {
                Some(ids) => Ok((
                    Arc::new(self.source.decode_group_counts(&ids)),
                    Fill::Decoded,
                )),
                None => Ok((
                    Arc::new(self.source.group_counts_with(attrs, budget)?),
                    Fill::Kernel,
                )),
            }
        })
    }

    /// Memoized interned group keys (see [`GroupIds`]) for `attrs`,
    /// computed under `budget` on a miss.
    pub fn group_ids_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<Arc<GroupIds>> {
        self.memoized(&self.group_ids, attrs, || {
            Ok((
                Arc::new(self.source.group_ids_with(attrs, budget)?),
                Fill::Kernel,
            ))
        })
    }

    /// The entropy tier: memoized `H(attrs)`, computed by `fill` on a miss.
    ///
    /// `fill` must compute the entropy of `attrs` over this context's
    /// source — [`GroupSource::memo_entropy`] passes the entropy formula
    /// applied to the cached count table, so a tier value is bit-identical
    /// to the uncached one (the same counts, summed in the same order).
    pub fn entropy_tier(&self, attrs: &AttrSet, fill: impl FnOnce() -> Result<f64>) -> Result<f64> {
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

    /// Snapshot of cache sizes and hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            group_count_entries: self.group_counts.entries(),
            group_id_entries: self.group_ids.entries(),
            entropy: self.entropies.tier_stats(),
            join_size: self.join_sizes.tier_stats(),
            sample: self.samples.tier_stats(),
        }
    }

    /// [`StripedCache::get_or_fill`] plus the context's counters: a kernel
    /// fill ([`Fill`]) is a miss, a decoded fill or a lookup that did not
    /// lead is a hit, and a tier fill counts only in its tier.
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
                    Fill::Decoded => Some(&self.hits),
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
    ) -> Result<Arc<GroupCounts>> {
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
        let out = self.source.group_counts_with(attrs, budget).map(Arc::new);
        if out.is_ok() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let slot: Slot<GroupCounts> = Arc::new(OnceSlot::new());
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

    fn group_counts(&self, attrs: &AttrSet) -> Result<Arc<GroupCounts>> {
        self.group_counts_with(attrs, ThreadBudget::default())
    }

    fn group_ids(&self, attrs: &AttrSet) -> Result<Arc<GroupIds>> {
        self.group_ids_with(attrs, ThreadBudget::default())
    }

    fn memo_entropy(&self, attrs: &AttrSet, formula: fn(&GroupCounts) -> f64) -> Result<f64> {
        self.entropy_tier(attrs, || Ok(formula(&*self.group_counts(attrs)?)))
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
            let cached = ctx.group_counts(&attrs).unwrap();
            let direct = r.group_counts(&attrs).unwrap();
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
            let counts = ctx.group_counts(&attrs).unwrap();
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
        let a = ctx.group_counts(&bag(&[0])).unwrap();
        let b = ctx.group_counts(&bag(&[0])).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = ctx.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.group_count_entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// A count miss decodes resident ids instead of grouping again (a hit,
    /// not a miss); a count lookup never creates an id table, so the other
    /// order groups twice.
    #[test]
    fn count_miss_decodes_resident_ids_but_never_creates_them() {
        let r = sample();
        let attrs = bag(&[0, 1]);
        let direct = r.group_counts(&attrs).unwrap();

        let ids_first = AnalysisContext::new(&r);
        ids_first.group_ids(&attrs).unwrap();
        let decoded = ids_first.group_counts(&attrs).unwrap();
        let stats = ids_first.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert_eq!(decoded.total, direct.total);
        assert_eq!(decoded.counts(), direct.counts());
        for g in 0..direct.num_groups() {
            assert_eq!(decoded.key(g), direct.key(g));
            assert_eq!(decoded.key_codes(g), direct.key_codes(g));
        }

        let counts_first = AnalysisContext::new(&r);
        counts_first.group_counts(&attrs).unwrap();
        assert_eq!(counts_first.stats().group_id_entries, 0);
        counts_first.group_ids(&attrs).unwrap();
        let stats = counts_first.stats();
        assert_eq!((stats.misses, stats.hits), (2, 0));
    }

    #[test]
    fn unknown_attribute_is_not_cached() {
        let r = sample();
        let ctx = AnalysisContext::new(&r);
        assert!(ctx.group_counts(&bag(&[9])).is_err());
        assert!(ctx.group_ids(&bag(&[9])).is_err());
        assert_eq!(ctx.stats().group_count_entries, 0);
    }

    #[test]
    fn group_source_is_object_agnostic() {
        // The same generic function body works over a Relation (fresh
        // computation) and a context (memoized), with identical results.
        fn groups_via<S: GroupSource>(src: &S, attrs: &AttrSet) -> usize {
            src.group_counts(attrs).unwrap().num_groups()
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
                        let c = ctx.group_counts(attrs).unwrap();
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
                        let c = ctx.group_counts(attrs).unwrap();
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
                        ctx.group_counts(attrs).unwrap();
                        ctx.group_ids(attrs).unwrap();
                    }
                });
            }
        });
        let stats = ctx.stats();
        assert_eq!(stats.misses, 2 * sets.len() as u64);
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
        let arcs: Vec<Arc<GroupCounts>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        ctx.group_counts(&attrs).unwrap()
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
            assert!(ctx.group_counts(&bag(&[9])).is_err());
            assert_eq!(ctx.stats().group_count_entries, 0);
            assert_eq!(ctx.stats().misses, 0);
        }
        // A successful lookup after the failures works normally.
        assert!(ctx.group_counts(&bag(&[0])).is_ok());
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
            assert!(ctx.memo_entropy(&y, |c| c.total as f64).is_err());
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
}
