//! Sharded relations: shard-local grouping with a deterministic
//! shard-order merge, and per-shard group-table caches that make appends
//! incremental.
//!
//! The chunked parallel kernel (PR 4) proved the load-bearing fact of this
//! module: disjoint row spans of a relation can be grouped independently and
//! their group tables merged **in span order** without changing a single
//! bit of the result — first-appearance numbering, counts, codes and
//! per-row ids all come out identical to the serial scan.  A
//! [`ShardedRelation`] lifts that span boundary from a transient scheduling
//! detail into a first-class storage layout:
//!
//! * each [`RelationShard`] is a fully self-contained columnar
//!   [`Relation`] — its own per-column dictionaries, its own code columns —
//!   so a shard can be built, stored, shipped or dropped without touching
//!   any other shard (the memory model for inputs larger than one machine's
//!   RAM or one NUMA node's locality domain);
//! * the [`ShardedRelation`] owns only the *global* per-attribute
//!   dictionaries (built in shard order, so they equal the flat relation's
//!   first-appearance dictionaries); each shard carries its own
//!   local → global code remap, fixed once at append time — a few words per
//!   distinct value, never per row;
//! * grouping runs shard-local (each shard through the ordinary
//!   [`Relation::group_ids_with`] kernel, fanned out over the
//!   [`ThreadBudget`] by the one ordered fan-out) and the per-shard group
//!   tables are merged in shard order by the same `merge_spans` the chunked
//!   kernel uses — so the sharded [`GroupKernel::group_ids_with`] is
//!   **bit-identical** to the flat [`Relation`] at any shard count and any
//!   thread budget (property-tested in `tests/prop_sharded.rs`).  A
//!   one-shard relation's table already is the merged one, so its merge
//!   hands back the shard's cached `Arc` and a context over it memoizes
//!   that table, not a copy;
//! * a sharded relation implements only the four layout-specific
//!   [`GroupKernel`] methods — the merged grouping, the sampled-row
//!   gather, the global dictionary of a schema position and its per-row
//!   global codes (assembled in shard order through each shard's remap,
//!   or borrowed from the only shard, for the lattice derivations of
//!   [`crate::AnalysisContext`], which run on the merged level and skip
//!   the shard pass).  Count tables and projections are
//!   [`GroupKernel`]'s provided derivations, the same code the flat
//!   relation runs, so they decode through the global dictionaries
//!   exactly as the flat relation decodes through its own.
//!
//! # Incremental maintenance
//!
//! Every shard embeds a **per-shard group-table cache**: the globally
//! remapped span table of each grouped `AttrSet`, computed once per shard
//! and reused by every later grouping.  The cache is the crate's one
//! striped single-flight map (the one behind every
//! [`crate::AnalysisContext`] cache), so racing cold lookups on a shard run
//! the kernel once, and its counters are the same [`TierStats`].  Shards
//! are immutable and `Arc`-shared, and [`ShardedRelation::append_shard`]
//! only pushes a new shard (copy-on-append: clones share every existing
//! shard), so **appends keep all warm tables**: re-grouping after an append
//! computes the new shard's table and re-merges — it never regroups the
//! world.  [`ShardedRelation::shard_cache_stats`] exposes the counters
//! that prove it, and the [epoch](ShardedRelation::epoch) — the shard
//! count, so every append bumps it — lets higher layers key merged results
//! by version.  A shard is identified by its index, which no append
//! changes.  A merged table of an earlier epoch is extended by
//! [`GroupKernel::spans_from`], the tables of the shards appended since,
//! which is how a [`crate::ShardedStore`] epoch skips even the re-merge.
//! [`crate::ShardedStore`] turns this into a concurrent snapshot-swap
//! handle that installs each epoch with its merged-result context.
//!
//! Cached tables stay valid forever because global dictionaries are
//! append-only: a code assigned to a value never changes, and a shard's
//! remap is recorded before any later shard can extend the dictionaries.
//!
//! Because the whole measure stack is generic over
//! [`GroupSource`], a sharded relation drops into `ajd-info`,
//! `ajd-jointree` and `ajd_core::Analyzer` unchanged, and
//! [`GroupKernel`] lets an `AnalysisContext` memoize over it exactly as
//! over a flat relation.

use crate::attr::{AttrId, AttrSet};
use crate::context::{GroupKernel, GroupSource, StripedCache, TierStats};
use crate::error::{RelationError, Result};
use crate::parallel::{chunk_bounds, fan_out, ThreadBudget};
use crate::relation::{merge_spans, Dict, GroupIds, Relation, Value};
use std::borrow::Cow;
use std::fmt;
use std::sync::Arc;

/// One shard of a [`ShardedRelation`]: a self-contained columnar span with
/// its own dictionaries, its global row offset, its local → global code
/// remap, and its group-table cache.
///
/// A shard is just a [`Relation`] — every kernel, constructor and invariant
/// of the flat store applies verbatim within the shard.  Shards never
/// reference each other: the remap into the global code space is recorded
/// once when the shard is appended and never changes (global dictionaries
/// are append-only), which is what lets the embedded cache survive any
/// number of later appends.
///
/// Shards are immutable after construction and shared by `Arc` across
/// every clone/snapshot of the owning [`ShardedRelation`], so one shard's
/// warm group tables serve all of them.
#[derive(Debug)]
pub struct RelationShard {
    /// The shard's rows, dictionary-encoded against the shard's own
    /// (local, first-appearance) dictionaries.
    local: Relation,
    /// Global index of this shard's first row (shards concatenate in order).
    row_offset: usize,
    /// `remap[col][local_code]` = global code, per schema position.
    remap: Vec<Vec<u32>>,
    /// The per-shard group-table cache: `AttrSet` → the shard's grouping
    /// with its group codes remapped into the global code space (row ids
    /// stay shard-local), single-flight on cold keys.  Keying by `AttrSet`
    /// alone is sound because column positions are determined by the
    /// schema and the kernel is bit-identical at every thread budget.
    spans: StripedCache<AttrSet, GroupIds>,
}

impl RelationShard {
    /// The shard's rows as a self-contained flat relation.
    pub fn relation(&self) -> &Relation {
        &self.local
    }

    /// Number of rows in this shard.
    pub fn len(&self) -> usize {
        self.local.len()
    }

    /// `true` if the shard holds no rows.
    pub fn is_empty(&self) -> bool {
        self.local.is_empty()
    }

    /// Global index of this shard's first row.
    pub fn row_offset(&self) -> usize {
        self.row_offset
    }

    /// This shard's cache counters (the per-`(shard, AttrSet)` tier).
    pub fn cache_stats(&self) -> TierStats {
        self.spans.tier_stats()
    }

    /// Groups this shard through the flat kernel and remaps its group codes
    /// into the global dictionaries (the cache-bypassing compute path).
    fn compute_span(
        &self,
        attrs: &AttrSet,
        positions: &[usize],
        budget: ThreadBudget,
    ) -> Result<Arc<GroupIds>> {
        let mut ids = self.local.group_ids_with(attrs, budget)?;
        let remaps: Vec<&[u32]> = positions.iter().map(|&p| &self.remap[p][..]).collect();
        ids.remap_codes(&remaps);
        Ok(Arc::new(ids))
    }
}

/// An ordered list of [`RelationShard`]s behaving, for every measure in the
/// workspace, exactly like the flat [`Relation`] of their concatenated rows.
///
/// Shards are held by `Arc`, so `Clone` is **copy-on-append cheap**: a clone
/// shares every shard (and its warm group tables) and only the shard list
/// and dictionaries are copied.  [`ShardedRelation::append_shard`] pushes
/// one shard, so it bumps [`ShardedRelation::epoch`] and leaves every
/// existing shard untouched.
///
/// ```
/// use ajd_relation::{AttrSet, GroupSource, Relation, AttrId};
///
/// let flat = Relation::from_rows(vec![AttrId(0), AttrId(1)], &[
///     &[10, 0][..], &[20, 0][..], &[10, 1][..], &[30, 1][..],
/// ]).unwrap();
/// let sharded = flat.clone().into_shards(3).unwrap();
/// assert_eq!(sharded.num_shards(), 3);
/// assert_eq!(sharded.epoch(), 3); // one epoch bump per appended shard
///
/// // Grouping is bit-identical to the flat relation…
/// let y = AttrSet::singleton(AttrId(0));
/// let a = flat.group_ids(&y).unwrap();
/// let b = sharded.group_ids(&y).unwrap();
/// assert_eq!(a.row_ids(), b.row_ids());
/// assert_eq!(a.counts(), b.counts());
///
/// // …and the round trip reproduces the flat store, dictionaries included.
/// let back = sharded.collect().unwrap();
/// assert_eq!(back.column_codes(AttrId(0)).unwrap(),
///            flat.column_codes(AttrId(0)).unwrap());
/// ```
#[derive(Debug, Clone, Default)]
pub struct ShardedRelation {
    schema: Vec<AttrId>,
    shards: Vec<Arc<RelationShard>>,
    /// Global per-attribute dictionaries, indexed by schema position: the
    /// codes the flat relation's columns would assign to the concatenated
    /// rows, in shard-order first appearance.
    dicts: Vec<Dict>,
    rows: usize,
}

impl ShardedRelation {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates an empty sharded relation over the given schema (column
    /// order is preserved as given), at epoch 0.
    pub fn new(schema: Vec<AttrId>) -> Result<Self> {
        let mut seen = AttrSet::empty();
        for &a in &schema {
            if !seen.insert(a) {
                return Err(RelationError::DuplicateAttribute(a));
            }
        }
        Ok(ShardedRelation {
            dicts: vec![Dict::default(); schema.len()],
            schema,
            shards: Vec::new(),
            rows: 0,
        })
    }

    /// Builds a sharded relation from explicit shards (all must share the
    /// schema, in the same column order).
    pub fn from_shards<I: IntoIterator<Item = Relation>>(
        schema: Vec<AttrId>,
        shards: I,
    ) -> Result<Self> {
        let mut out = Self::new(schema)?;
        for shard in shards {
            out.append_shard(shard)?;
        }
        Ok(out)
    }

    /// Appends a batch of rows as a **new shard**, leaving every existing
    /// shard — and its warm group-table cache — untouched: only the global
    /// dictionaries grow (by the shard's previously unseen values), the new
    /// shard's local → global remap is recorded, and the epoch (the shard
    /// count) goes up by one.
    ///
    /// This is the ingestion path for incremental maintenance: appends
    /// never rewrite shard-local state, so per-shard group tables stay
    /// valid and only the new shard needs grouping before the shard-order
    /// re-merge.
    ///
    /// The shard's schema must equal this relation's schema, including
    /// column order (reorder with [`Relation::reorder_columns`] first if
    /// needed).
    pub fn append_shard(&mut self, shard: Relation) -> Result<()> {
        if shard.schema() != self.schema.as_slice() {
            return Err(RelationError::SchemaMismatch {
                detail: format!(
                    "shard schema {:?} does not match the sharded relation's {:?}",
                    shard.schema(),
                    self.schema
                ),
            });
        }
        // Extend the global dictionaries in the shard's local-dictionary
        // order.  Local dictionaries are first-appearance ordered, so new
        // values enter the global dictionary exactly in the order of their
        // first appearance in the concatenated rows — the invariant the
        // bit-identity of the merge rests on.
        let mut remap: Vec<Vec<u32>> = Vec::with_capacity(self.schema.len());
        for (pos, &attr) in self.schema.iter().enumerate() {
            let locals = shard
                .domain(attr)
                .expect("schema equality guarantees the attribute");
            let dict = &mut self.dicts[pos];
            let mut map = Vec::with_capacity(locals.len());
            for &v in locals {
                map.push(dict.encode(v)?);
            }
            remap.push(map);
        }
        let row_offset = self.rows;
        self.rows += shard.len();
        self.shards.push(Arc::new(RelationShard {
            local: shard,
            row_offset,
            remap,
            spans: StripedCache::new(),
        }));
        Ok(())
    }

    /// Concatenates all shards back into one flat [`Relation`].
    ///
    /// Rows are pushed in shard order, so the result's dictionaries, code
    /// columns and row order are exactly those of the flat relation the
    /// shards were split from (or would have been built as).
    pub fn collect(&self) -> Result<Relation> {
        let mut out = Relation::with_capacity(self.schema.clone(), self.rows)?;
        for shard in &self.shards {
            for row in shard.local.iter_rows() {
                out.push_row(row)?;
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The column order of this relation.
    #[inline]
    pub fn schema(&self) -> &[AttrId] {
        &self.schema
    }

    /// The attribute set of this relation (schema as a set).
    pub fn attrs(&self) -> AttrSet {
        AttrSet::from_slice(&self.schema)
    }

    /// Number of attributes per tuple.
    #[inline]
    pub fn arity(&self) -> usize {
        self.schema.len()
    }

    /// Total number of tuples across all shards.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` if no shard holds any tuple.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Number of shards (empty shards included).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The version of this relation: its shard count, so 0 when it has no
    /// shard and bumped by every [`ShardedRelation::append_shard`].  Higher
    /// layers key merged (whole-relation) results by epoch: a reader holding
    /// a snapshot at epoch `e` sees a consistent shard list for `e`.  An
    /// epoch bump means merged results no longer cover every row: a table
    /// of epoch `e` covers the first `e` shards, so it is extended by the
    /// spans of the shards after them ([`GroupKernel::spans_from`]) rather
    /// than rebuilt (per-shard tables stay warm).
    pub fn epoch(&self) -> u64 {
        self.shards.len() as u64
    }

    /// The shards (each `Arc`-shared with every clone of this relation), in
    /// shard (concatenation) order.
    pub fn shards(&self) -> &[Arc<RelationShard>] {
        &self.shards
    }

    /// One shard by index.
    pub fn shard(&self, s: usize) -> &RelationShard {
        &self.shards[s]
    }

    /// Aggregated counters of the per-shard group-table caches, summed over
    /// all shards.  After an append, re-grouping a warm `AttrSet` adds
    /// exactly **one** miss (the new shard) and one hit per existing shard —
    /// the counter signature of incremental maintenance.
    pub fn shard_cache_stats(&self) -> TierStats {
        let mut total = TierStats::default();
        for shard in &self.shards {
            let s = shard.cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.entries += s.entries;
        }
        total
    }

    /// Position of an attribute in this relation's column order.
    pub fn attr_pos(&self, attr: AttrId) -> Result<usize> {
        self.schema
            .iter()
            .position(|&a| a == attr)
            .ok_or(RelationError::UnknownAttribute(attr))
    }

    /// The global active domain of an attribute: the distinct values it
    /// takes across all shards, in shard-order first appearance — the same
    /// list the flat relation's dictionary would hold.  O(1), no scan.
    pub fn domain(&self, attr: AttrId) -> Result<&[Value]> {
        let pos = self.attr_pos(attr)?;
        Ok(&self.dicts[pos].values)
    }

    // ------------------------------------------------------------------
    // Grouping (shard-local kernel + shard-order merge)
    // ------------------------------------------------------------------

    /// [`GroupKernel::group_ids_with`] with the per-shard caches
    /// **bypassed** (neither read nor populated): every shard is regrouped
    /// from scratch.  Bit-identical to the cached path — this is the
    /// from-scratch baseline benches and tests pin incremental re-merges
    /// against.
    pub fn group_ids_uncached_with(
        &self,
        attrs: &AttrSet,
        budget: ThreadBudget,
    ) -> Result<Arc<GroupIds>> {
        self.group_ids_inner(attrs, budget, false)
    }

    /// Shards are grouped shard-locally (fanned out over up to `budget`
    /// workers, each shard running the ordinary flat kernel under its share
    /// of the budget; with `cached`, warm shards answer from their caches)
    /// and the per-shard tables are merged **in shard order** — the same
    /// discipline as the chunked kernel, so the result is bit-identical to
    /// the flat relation at any shard count and any budget.  One shard's
    /// table is returned as the same `Arc` its cache holds.
    fn group_ids_inner(
        &self,
        attrs: &AttrSet,
        budget: ThreadBudget,
        cached: bool,
    ) -> Result<Arc<GroupIds>> {
        let positions = self.attr_positions(attrs)?;
        // Zero attributes: every row projects to the empty tuple.
        if positions.is_empty() {
            return Ok(Arc::new(GroupIds::empty_tuple(self.rows)));
        }
        let spans = self.shard_spans(attrs, &positions, 0, budget, cached)?;
        let domains = positions.iter().map(|&p| self.dicts[p].values.len());
        merge_spans(attrs, domains, spans, self.rows, budget.get())
    }

    /// The shard-local pass over the shards from `first` on: one table per
    /// shard, group codes remapped from the shard's local dictionaries into
    /// the global code space (row ids stay shard-local; the merge rewrites
    /// them).  Shards fan out over the budget ([`fan_out`]: work-stealing,
    /// so a few large shards do not stall the rest), and each shard's
    /// kernel gets the per-worker share — layers divide one budget, never
    /// multiply.  With `cached`, warm shards are pure cache reads and cold
    /// shards compute single-flight ([`StripedCache::get_or_fill`]).
    fn shard_spans(
        &self,
        attrs: &AttrSet,
        positions: &[usize],
        first: usize,
        budget: ThreadBudget,
        cached: bool,
    ) -> Result<Vec<Arc<GroupIds>>> {
        let shards = &self.shards[first.min(self.shards.len())..];
        fan_out(shards.len(), budget, |s, share| {
            let shard = &shards[s];
            let compute = || shard.compute_span(attrs, positions, share);
            if cached {
                shard.spans.get_or_fill(attrs, compute).0
            } else {
                compute()
            }
        })
        .into_iter()
        .collect()
    }

    /// `true` if the concatenated tuples are pairwise distinct.
    pub fn is_set(&self) -> bool {
        let ids = self
            .group_ids(&self.attrs())
            .expect("own attributes are always present");
        ids.num_groups() == self.rows
    }

    /// The distinct tuples across all shards as a flat [`Relation`] (first
    /// occurrence kept, concatenation order preserved, columns in this
    /// relation's schema order) — row-for-row identical to
    /// [`Relation::distinct`] on the collected flat relation.
    pub fn distinct(&self) -> Relation {
        let attrs = self.attrs();
        let ids = self
            .group_ids(&attrs)
            .expect("own attributes are always present");
        // Group codes are in ascending-attribute order; `order[p]` is the
        // index within that order of the attribute at schema position `p`.
        let order: Vec<usize> = self
            .schema
            .iter()
            .map(|&a| {
                attrs
                    .as_slice()
                    .iter()
                    .position(|&b| b == a)
                    .expect("own schema is covered by own attribute set")
            })
            .collect();
        let arity = self.arity();
        let mut out = Relation::with_capacity(self.schema.clone(), ids.num_groups())
            .expect("own schema is duplicate-free");
        let mut buf: Vec<Value> = vec![0; arity];
        for g in 0..ids.num_groups() {
            let codes = ids.group_code(g);
            for (p, slot) in buf.iter_mut().enumerate() {
                *slot = self.dicts[p].values[codes[order[p]] as usize];
            }
            out.push_row(&buf)
                .expect("decoded group rows keep the relation's arity");
        }
        out
    }
}

impl Relation {
    /// Splits this relation into `n` contiguous, near-equal row shards
    /// (`n` is clamped to at least 1; when `n` exceeds the row count the
    /// surplus shards are empty), each a self-contained columnar
    /// [`RelationShard`] with its own dictionaries.
    ///
    /// The round trip [`ShardedRelation::collect`] reproduces this relation
    /// exactly, and every grouping over the shards is bit-identical to
    /// grouping this relation directly.
    pub fn into_shards(self, n: usize) -> Result<ShardedRelation> {
        let schema = self.schema().to_vec();
        let mut out = ShardedRelation::new(schema.clone())?;
        for (start, end) in chunk_bounds(self.len(), n.max(1)) {
            let mut shard = Relation::with_capacity(schema.clone(), end - start)?;
            for i in start..end {
                shard.push_row(self.row(i))?;
            }
            out.append_shard(shard)?;
        }
        Ok(out)
    }
}

impl GroupSource for ShardedRelation {
    fn schema(&self) -> &[AttrId] {
        ShardedRelation::schema(self)
    }

    fn num_rows(&self) -> usize {
        self.len()
    }

    fn active_domain_size(&self, attr: AttrId) -> Result<usize> {
        Ok(self.domain(attr)?.len())
    }

    fn group_ids(&self, attrs: &AttrSet) -> Result<Arc<GroupIds>> {
        self.group_ids_inner(attrs, ThreadBudget::serial(), true)
    }
}

impl GroupKernel for ShardedRelation {
    fn group_ids_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<Arc<GroupIds>> {
        self.group_ids_inner(attrs, budget, true)
    }

    /// Bit-identical to [`Relation::gather_rows`] on the collected flat
    /// relation: both rebuild from decoded values in global row order.
    fn gather_rows(&self, sorted_rows: &[u64]) -> Result<Relation> {
        crate::relation::validate_gather_indices(sorted_rows, self.rows as u64)?;
        let mut out = Relation::with_capacity(self.schema.clone(), sorted_rows.len())?;
        let mut cursor = 0usize;
        let mut offset = 0u64;
        for shard in &self.shards {
            let end = offset + shard.local.len() as u64;
            while cursor < sorted_rows.len() && sorted_rows[cursor] < end {
                out.push_row(shard.local.row((sorted_rows[cursor] - offset) as usize))?;
                cursor += 1;
            }
            offset = end;
        }
        Ok(out)
    }

    fn dictionary(&self, pos: usize) -> &[Value] {
        &self.dicts[pos].values
    }

    /// The cached tables of the shards from `first` on, each computed once
    /// per shard as in the merged grouping.
    fn spans_from(
        &self,
        attrs: &AttrSet,
        first: usize,
        budget: ThreadBudget,
    ) -> Result<Vec<Arc<GroupIds>>> {
        let positions = self.attr_positions(attrs)?;
        self.shard_spans(attrs, &positions, first, budget, true)
    }

    /// Borrows the shard's own column when there is one shard: the global
    /// dictionaries start empty and intern the first shard's values in its
    /// local order, so shard 0's remap is the identity.
    fn codes_at(&self, pos: usize) -> Cow<'_, [u32]> {
        fn local(shard: &RelationShard, attr: AttrId) -> &[u32] {
            shard
                .local
                .column_codes(attr)
                .expect("a schema attribute has a code column in every shard")
        }
        let attr = self.schema[pos];
        if let [only] = self.shards.as_slice() {
            return Cow::Borrowed(local(only, attr));
        }
        let mut codes = Vec::with_capacity(self.rows);
        for shard in &self.shards {
            let remap = &shard.remap[pos];
            codes.extend(local(shard, attr).iter().map(|&c| remap[c as usize]));
        }
        Cow::Owned(codes)
    }
}

impl fmt::Display for ShardedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShardedRelation(")?;
        for (i, a) in self.schema.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")[{} rows / {} shards]", self.rows, self.shards.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        Relation::from_rows(
            vec![AttrId(0), AttrId(1), AttrId(2)],
            &[
                &[5, 0, 9][..],
                &[5, 1, 9][..],
                &[7, 0, 8][..],
                &[7, 1, 8][..],
                &[5, 0, 9][..], // duplicate: multiset
            ],
        )
        .unwrap()
    }

    fn bag(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().copied())
    }

    fn assert_ids_eq(a: &GroupIds, b: &GroupIds, ctx: &str) {
        assert_eq!(a.row_ids(), b.row_ids(), "{ctx}");
        assert_eq!(a.counts(), b.counts(), "{ctx}");
        assert_eq!(a.group_codes(), b.group_codes(), "{ctx}");
    }

    #[test]
    fn into_shards_and_collect_roundtrip() {
        let flat = sample();
        for n in [1usize, 2, 3, 5, 9] {
            let sharded = flat.clone().into_shards(n).unwrap();
            assert_eq!(sharded.num_shards(), n);
            assert_eq!(sharded.len(), flat.len());
            let back = sharded.collect().unwrap();
            assert_eq!(back.len(), flat.len());
            assert_eq!(back.schema(), flat.schema());
            for (a, b) in back.iter_rows().zip(flat.iter_rows()) {
                assert_eq!(a, b);
            }
            // Dictionaries are reproduced exactly, not just the rows.
            for &attr in flat.schema() {
                assert_eq!(back.domain(attr).unwrap(), flat.domain(attr).unwrap());
                assert_eq!(
                    back.column_codes(attr).unwrap(),
                    flat.column_codes(attr).unwrap()
                );
            }
        }
    }

    #[test]
    fn global_dictionaries_match_flat_dictionaries() {
        let flat = sample();
        let sharded = flat.clone().into_shards(3).unwrap();
        for &attr in flat.schema() {
            assert_eq!(sharded.domain(attr).unwrap(), flat.domain(attr).unwrap());
            assert_eq!(
                sharded.active_domain_size(attr).unwrap(),
                flat.active_domain_size(attr).unwrap()
            );
        }
        assert!(sharded.domain(AttrId(9)).is_err());
    }

    #[test]
    fn grouping_is_bit_identical_to_flat() {
        let flat = sample();
        for n in [1usize, 2, 4, 7] {
            let sharded = flat.clone().into_shards(n).unwrap();
            for attrs in [
                AttrSet::empty(),
                bag(&[0]),
                bag(&[1]),
                bag(&[0, 2]),
                bag(&[0, 1, 2]),
            ] {
                let a = flat.group_ids(&attrs).unwrap();
                for budget in [ThreadBudget::serial(), ThreadBudget::new(4)] {
                    let b = sharded.group_ids_with(&attrs, budget).unwrap();
                    assert_ids_eq(&a, &b, &format!("n={n} attrs={attrs}"));
                    // The cache-bypassing baseline agrees bit-for-bit too.
                    let c = sharded.group_ids_uncached_with(&attrs, budget).unwrap();
                    assert_ids_eq(&a, &c, &format!("uncached n={n} attrs={attrs}"));
                }
                let ca = flat
                    .group_counts_with(&attrs, ThreadBudget::serial())
                    .unwrap();
                let cb = sharded
                    .group_counts_with(&attrs, ThreadBudget::serial())
                    .unwrap();
                assert_eq!(ca.total, cb.total);
                assert_eq!(ca.counts(), cb.counts());
                for g in 0..ca.num_groups() {
                    assert_eq!(ca.key(g), cb.key(g));
                    assert_eq!(ca.key_codes(g), cb.key_codes(g));
                }
            }
        }
    }

    #[test]
    fn distinct_and_is_set_match_flat() {
        let flat = sample();
        let sharded = flat.clone().into_shards(2).unwrap();
        let da = flat.distinct();
        let db = sharded.distinct();
        assert_eq!(da.len(), db.len());
        assert_eq!(da.schema(), db.schema());
        for (a, b) in da.iter_rows().zip(db.iter_rows()) {
            assert_eq!(a, b);
        }
        assert!(!sharded.is_set());
        assert!(flat.distinct().into_shards(2).unwrap().is_set());
    }

    #[test]
    fn append_shard_rejects_schema_mismatch() {
        let mut sharded = ShardedRelation::new(vec![AttrId(0), AttrId(1)]).unwrap();
        let wrong_set = Relation::new(vec![AttrId(0), AttrId(2)]).unwrap();
        assert!(sharded.append_shard(wrong_set).is_err());
        // Same attribute set, different column order: also rejected.
        let wrong_order = Relation::new(vec![AttrId(1), AttrId(0)]).unwrap();
        assert!(sharded.append_shard(wrong_order).is_err());
        let ok = Relation::from_rows(vec![AttrId(0), AttrId(1)], &[&[1, 2][..]]).unwrap();
        sharded.append_shard(ok).unwrap();
        assert_eq!(sharded.len(), 1);
        assert_eq!(sharded.shard(0).row_offset(), 0);
        // A rejected append does not bump the epoch.
        assert_eq!(sharded.epoch(), 1);
    }

    #[test]
    fn append_as_new_shard_extends_analysis_state() {
        // Appending a batch leaves prior shards untouched and the merged
        // grouping equals the flat relation over all rows seen so far.
        let schema = vec![AttrId(0), AttrId(1)];
        let mut sharded = ShardedRelation::new(schema.clone()).unwrap();
        let mut flat = Relation::new(schema.clone()).unwrap();
        let batches: Vec<Vec<[Value; 2]>> = vec![
            vec![[1, 10], [2, 10]],
            vec![],
            vec![[1, 20], [3, 30], [2, 10]],
            vec![[4, 10]],
        ];
        for batch in batches {
            let rows: Vec<&[Value]> = batch.iter().map(|r| &r[..]).collect();
            let shard = Relation::from_rows(schema.clone(), &rows).unwrap();
            for row in &batch {
                flat.push_row(row).unwrap();
            }
            sharded.append_shard(shard).unwrap();
            for attrs in [bag(&[0]), bag(&[1]), bag(&[0, 1])] {
                let a = flat.group_ids(&attrs).unwrap();
                let b = sharded.group_ids(&attrs).unwrap();
                assert_ids_eq(&a, &b, &format!("attrs={attrs}"));
            }
        }
        assert_eq!(sharded.num_shards(), 4);
        assert_eq!(sharded.shard(2).row_offset(), 2);
    }

    #[test]
    fn epoch_counts_shards_and_clones_share_them() {
        let schema = vec![AttrId(0)];
        let mut sharded = ShardedRelation::new(schema.clone()).unwrap();
        assert_eq!(sharded.epoch(), 0);
        for i in 0..3u64 {
            let shard = Relation::from_rows(schema.clone(), &[&[i as Value][..]]).unwrap();
            sharded.append_shard(shard).unwrap();
            assert_eq!(sharded.epoch(), i + 1);
            assert_eq!(sharded.shard(i as usize).row_offset(), i as usize);
        }
        // Clones share the shard objects by Arc, at the same indices.
        let clone = sharded.clone();
        for s in 0..3 {
            assert!(Arc::ptr_eq(&sharded.shards()[s], &clone.shards()[s]));
        }
        // Appending to the clone bumps only the clone's epoch; the original
        // and its shards are untouched (copy-on-append).
        let mut clone = clone;
        let shard = Relation::from_rows(schema.clone(), &[&[9][..]]).unwrap();
        clone.append_shard(shard).unwrap();
        assert_eq!(clone.epoch(), 4);
        assert_eq!(clone.shard(3).row_offset(), 3);
        assert_eq!(sharded.epoch(), 3);
        assert_eq!(sharded.num_shards(), 3);
    }

    /// The incrementality contract, at the relation layer: after a warm
    /// grouping, appending one shard and re-grouping costs exactly one
    /// per-shard cache miss per attribute set — not `k + 1`.
    #[test]
    fn append_regroups_only_the_new_shard() {
        let flat = sample();
        let k = 3;
        let mut sharded = flat.clone().into_shards(k).unwrap();
        let sets = [bag(&[0]), bag(&[1, 2])];
        for attrs in &sets {
            sharded.group_ids(attrs).unwrap();
        }
        let warm = sharded.shard_cache_stats();
        assert_eq!(warm.misses, (k * sets.len()) as u64, "cold fill: k per set");
        assert_eq!(warm.hits, 0);
        assert_eq!(warm.entries, k * sets.len());

        // Append one batch and re-group the same sets.
        let batch = Relation::from_rows(
            vec![AttrId(0), AttrId(1), AttrId(2)],
            &[&[7, 2, 9][..], &[5, 0, 8][..]],
        )
        .unwrap();
        let mut grown_flat = flat.clone();
        for row in batch.iter_rows() {
            grown_flat.push_row(row).unwrap();
        }
        sharded.append_shard(batch).unwrap();
        for attrs in &sets {
            let a = grown_flat.group_ids(attrs).unwrap();
            let b = sharded.group_ids(attrs).unwrap();
            assert_ids_eq(&a, &b, &format!("attrs={attrs}"));
        }
        let after = sharded.shard_cache_stats();
        assert_eq!(
            after.misses - warm.misses,
            sets.len() as u64,
            "exactly one new compute (the appended shard) per attribute set"
        );
        assert_eq!(
            after.hits,
            (k * sets.len()) as u64,
            "every pre-existing shard must answer from its warm table"
        );
    }

    /// Satellite: appending an **empty** shard is a no-op for every
    /// grouping, stays bit-identical to the flat rebuild, and still bumps
    /// the epoch (it is a real append).
    #[test]
    fn appending_an_empty_shard_is_bit_identical_to_flat() {
        let flat = sample();
        let schema = flat.schema().to_vec();
        let mut sharded = flat.clone().into_shards(2).unwrap();
        let epoch_before = sharded.epoch();
        sharded
            .append_shard(Relation::new(schema).unwrap())
            .unwrap();
        assert_eq!(sharded.epoch(), epoch_before + 1);
        assert_eq!(sharded.num_shards(), 3);
        assert_eq!(sharded.len(), flat.len());
        assert!(sharded.shard(2).is_empty());
        for attrs in [bag(&[0]), bag(&[0, 1, 2]), AttrSet::empty()] {
            let a = flat.group_ids(&attrs).unwrap();
            for budget in [ThreadBudget::serial(), ThreadBudget::new(4)] {
                let b = sharded.group_ids_with(&attrs, budget).unwrap();
                assert_ids_eq(&a, &b, &format!("attrs={attrs}"));
            }
        }
    }

    /// Satellite: a shard whose values sit at the u32 extremes exercises
    /// the dictionary remap at the edge of the code/value space — still
    /// bit-identical to the flat rebuild, before and after a second append
    /// re-using those extreme values.
    #[test]
    fn extreme_u32_values_remap_bit_identically() {
        let schema = vec![AttrId(0), AttrId(1)];
        let extremes: Vec<[Value; 2]> = vec![
            [u32::MAX, 0],
            [0, u32::MAX],
            [u32::MAX - 1, u32::MAX],
            [u32::MAX, u32::MAX],
        ];
        let mut flat = Relation::new(schema.clone()).unwrap();
        let mut sharded = ShardedRelation::new(schema.clone()).unwrap();
        let rows: Vec<&[Value]> = extremes.iter().map(|r| &r[..]).collect();
        sharded
            .append_shard(Relation::from_rows(schema.clone(), &rows).unwrap())
            .unwrap();
        for row in &extremes {
            flat.push_row(row).unwrap();
        }
        // Second append re-uses the extreme values (warm remap entries) and
        // adds a fresh one.
        let more: Vec<[Value; 2]> = vec![[u32::MAX, u32::MAX], [1, u32::MAX - 1]];
        let rows: Vec<&[Value]> = more.iter().map(|r| &r[..]).collect();
        sharded
            .append_shard(Relation::from_rows(schema.clone(), &rows).unwrap())
            .unwrap();
        for row in &more {
            flat.push_row(row).unwrap();
        }
        assert_eq!(
            sharded.domain(AttrId(0)).unwrap(),
            flat.domain(AttrId(0)).unwrap()
        );
        for attrs in [bag(&[0]), bag(&[1]), bag(&[0, 1])] {
            let a = flat.group_ids(&attrs).unwrap();
            let b = sharded.group_ids(&attrs).unwrap();
            assert_ids_eq(&a, &b, &format!("attrs={attrs}"));
        }
    }

    /// Satellite: append-after-append with warm caches between every step —
    /// each intermediate state pinned bit-identical to its flat rebuild.
    #[test]
    fn append_after_append_stays_bit_identical_with_warm_caches() {
        let schema = vec![AttrId(0), AttrId(1)];
        let mut flat = Relation::new(schema.clone()).unwrap();
        let mut sharded = ShardedRelation::new(schema.clone()).unwrap();
        let sets = [bag(&[0]), bag(&[1]), bag(&[0, 1])];
        for step in 0..5u32 {
            let batch: Vec<[Value; 2]> = (0..4)
                .map(|i| [(step * 3 + i) % 7, (step + i) % 3])
                .collect();
            let rows: Vec<&[Value]> = batch.iter().map(|r| &r[..]).collect();
            sharded
                .append_shard(Relation::from_rows(schema.clone(), &rows).unwrap())
                .unwrap();
            for row in &batch {
                flat.push_row(row).unwrap();
            }
            // Group (warming the caches), then verify against a flat
            // rebuild of everything seen so far.
            for attrs in &sets {
                let a = flat.group_ids(attrs).unwrap();
                let b = sharded.group_ids(attrs).unwrap();
                assert_ids_eq(&a, &b, &format!("step={step} attrs={attrs}"));
                let c = sharded
                    .group_ids_uncached_with(attrs, ThreadBudget::serial())
                    .unwrap();
                assert_ids_eq(&a, &c, &format!("uncached step={step} attrs={attrs}"));
            }
        }
        assert_eq!(sharded.epoch(), 5);
        assert_eq!(sharded.num_shards(), 5);
    }

    #[test]
    fn empty_sharded_relation_behaves() {
        let sharded = ShardedRelation::new(vec![AttrId(0)]).unwrap();
        assert!(sharded.is_empty());
        assert_eq!(sharded.num_shards(), 0);
        assert_eq!(sharded.epoch(), 0);
        assert!(sharded.is_set());
        let ids = sharded.group_ids(&bag(&[0])).unwrap();
        assert_eq!(ids.num_groups(), 0);
        assert_eq!(sharded.collect().unwrap().len(), 0);
        // An empty relation still shards (into empty shards).
        let empty = Relation::new(vec![AttrId(0)])
            .unwrap()
            .into_shards(3)
            .unwrap();
        assert_eq!(empty.num_shards(), 3);
        assert!(empty.is_empty());
    }

    /// One shard lends its own code column (its remap is the identity);
    /// several shards assemble one.  Either way the codes are the flat
    /// relation's.
    #[test]
    fn codes_at_borrows_the_column_of_a_single_shard() {
        let flat = sample();
        for (n, borrowed) in [(1usize, true), (3, false)] {
            let sharded = flat.clone().into_shards(n).unwrap();
            for (pos, &attr) in flat.schema().iter().enumerate() {
                let codes = sharded.codes_at(pos);
                assert_eq!(matches!(codes, Cow::Borrowed(_)), borrowed, "n={n}");
                assert_eq!(&*codes, flat.column_codes(attr).unwrap(), "n={n}");
            }
        }
    }

    /// On one shard, a context's kernel fill memoizes the table the shard
    /// tier holds — the same `Arc`, not a copy.
    #[test]
    fn one_shard_context_shares_the_shard_tier_table() {
        let sharded = Arc::new(sample().into_shards(1).unwrap());
        let ctx = crate::AnalysisContext::new(Arc::clone(&sharded));
        for attrs in [bag(&[0, 2]), bag(&[1])] {
            let memoized = ctx.group_ids_with(&attrs, ThreadBudget::serial()).unwrap();
            let before = sharded.shard_cache_stats().hits;
            let tier = sharded
                .group_ids_with(&attrs, ThreadBudget::serial())
                .unwrap();
            assert_eq!(sharded.shard_cache_stats().hits, before + 1, "{attrs}");
            assert!(
                Arc::ptr_eq(&memoized, &tier),
                "{attrs}: the table was copied"
            );
        }
        assert_eq!(ctx.stats().misses, 2);
    }

    #[test]
    fn duplicate_schema_rejected() {
        assert!(ShardedRelation::new(vec![AttrId(0), AttrId(0)]).is_err());
    }

    /// Regression: a shard count far above `MAX_CHUNK_WORKERS` under a
    /// parallel budget must not fan the merge rewrite out one-thread-per-
    /// shard (the rewrite is capped and partitioned into contiguous runs) —
    /// and the result stays bit-identical to the flat kernel.
    #[test]
    fn thousands_of_shards_group_without_thread_explosion() {
        let schema = vec![AttrId(0), AttrId(1)];
        let mut flat = Relation::new(schema).unwrap();
        for i in 0..4000u32 {
            flat.push_row(&[i % 97, (i * i) % 53]).unwrap();
        }
        let sharded = flat.clone().into_shards(2000).unwrap();
        assert_eq!(sharded.num_shards(), 2000);
        let attrs = bag(&[0, 1]);
        let a = flat.group_ids(&attrs).unwrap();
        for budget in [ThreadBudget::serial(), ThreadBudget::new(8)] {
            let b = sharded.group_ids_with(&attrs, budget).unwrap();
            assert_ids_eq(&a, &b, "2000 shards");
        }
    }

    #[test]
    fn unknown_attribute_errors() {
        let sharded = sample().into_shards(2).unwrap();
        assert!(sharded.group_ids(&bag(&[9])).is_err());
        assert!(sharded
            .group_counts_with(&bag(&[9]), ThreadBudget::serial())
            .is_err());
        // Failed lookups leave no cache entries behind.
        assert_eq!(sharded.shard_cache_stats(), TierStats::default());
    }

    #[test]
    fn group_source_metadata_matches_flat() {
        let flat = sample();
        let sharded = flat.clone().into_shards(2).unwrap();
        assert_eq!(GroupSource::schema(&sharded), GroupSource::schema(&flat));
        assert_eq!(
            GroupSource::num_rows(&sharded),
            GroupSource::num_rows(&flat)
        );
        assert_eq!(GroupSource::attrs(&sharded), flat.attrs());
        assert_eq!(GroupSource::arity(&sharded), 3);
        assert_eq!(
            GroupSource::attr_positions(&sharded, &bag(&[0, 2])).unwrap(),
            vec![0, 2]
        );
        assert!(GroupSource::attr_positions(&sharded, &bag(&[9])).is_err());
    }

    #[test]
    fn display_mentions_rows_and_shards() {
        let sharded = sample().into_shards(2).unwrap();
        let s = format!("{sharded}");
        assert!(s.contains("5 rows"));
        assert!(s.contains("2 shards"));
    }
}
