//! Relation instances over a columnar, dictionary-encoded store.
//!
//! A [`Relation`] is the concrete representation of a relation instance `R`
//! over a set of attributes `Ω` (the paper's `R ∈ Rel(Ω)`).  Every quantity
//! the paper defines — entropies, the J-measure, KL-to-tree, the exact loss
//! `ρ` — reduces to *group counts* over projections of one relation, so the
//! store is organised around making grouping cheap:
//!
//! * each attribute owns a **per-column dictionary** mapping its raw
//!   [`Value`]s to dense `u32` codes (assigned in first-appearance order)
//!   and a flat `Vec<u32>` **code column**;
//! * a row-major decoded mirror backs the classic tuple API
//!   ([`Relation::row`], [`Relation::iter_rows`]) so ingestion and
//!   inspection look exactly like a row store;
//! * grouping ([`Relation::group_counts`], [`Relation::group_ids`]),
//!   projection and deduplication run on the integer codes: when the product
//!   of the grouped domains is small the kernel counts into a dense
//!   mixed-radix table (no hashing at all), otherwise it hashes a single
//!   packed `u64` per row — never a heap-allocated key per row.
//!
//! A relation may be a *set* (all tuples distinct — the common case in the
//! paper) or a *multiset* (duplicates allowed — used for empirical
//! distributions of multisets of tuples); [`Relation::is_set`] distinguishes
//! the two and [`Relation::distinct`] converts.

use crate::attr::{AttrId, AttrSet};
use crate::context::GroupKernel;
use crate::error::{RelationError, Result};
use crate::hash::{map_with_capacity, set_with_capacity, FxHashMap};
use crate::parallel::{chunk_bounds, fan_out, ThreadBudget};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A raw attribute value.
///
/// Values are opaque `u32`s supplied by the caller (or by a
/// [`crate::Catalog`] when ingesting labelled data); internally every column
/// re-encodes them as dense dictionary codes.
pub type Value = u32;

/// Largest dense mixed-radix table the grouping kernel will allocate
/// (entries, i.e. 4 bytes each).  Beyond this the kernel switches to hashing
/// packed keys.
const RADIX_TABLE_CAP: u128 = 1 << 26;

/// An attribute dictionary: raw value ⇄ dense `u32` code, codes assigned in
/// first-appearance order.  A [`Relation`]'s columns and the global
/// dictionaries of a [`crate::ShardedRelation`] are both one.
#[derive(Debug, Clone, Default)]
pub(crate) struct Dict {
    /// `code → value`, in first-appearance order.
    pub(crate) values: Vec<Value>,
    /// `value → code`.
    index: FxHashMap<Value, u32>,
}

impl Dict {
    /// Interns `v`, returning its dense code.
    pub(crate) fn encode(&mut self, v: Value) -> Result<u32> {
        if let Some(&c) = self.index.get(&v) {
            return Ok(c);
        }
        let code = u32::try_from(self.values.len()).map_err(|_| {
            RelationError::CountOverflow("attribute dictionary exceeds the u32 code space")
        })?;
        self.values.push(v);
        self.index.insert(v, code);
        Ok(code)
    }
}

/// One column of a [`Relation`]: a dictionary plus the dense code of every
/// row.
#[derive(Debug, Clone, Default)]
struct Column {
    dict: Dict,
    /// Per-row dictionary codes.
    codes: Vec<u32>,
}

impl Column {
    /// Number of distinct values interned (the active domain size).
    fn domain_size(&self) -> usize {
        self.dict.values.len()
    }

    /// The column as a grouping key column: its codes and its domain size.
    fn key(&self) -> (&[u32], usize) {
        (&self.codes, self.domain_size())
    }
}

// ---------------------------------------------------------------------------
// Grouping
// ---------------------------------------------------------------------------

/// Interned group keys: a dense renaming of the distinct `Y`-projections of
/// a relation's tuples, with ids assigned in first-appearance order.
///
/// For a relation `R` with `N` rows and an attribute set `Y`, the distinct
/// projections `Π_Y(R)` are numbered `0..g`; [`GroupIds::row_ids`] labels
/// every row of `R` with its group id, [`GroupIds::counts`] holds the
/// multiplicity of each group, and [`GroupIds::group_codes`] holds each
/// group's dictionary-code tuple (the *code-level* view; decode through
/// [`crate::GroupKernel::decode_group_counts`] when raw values are
/// needed).  This is the layout the join-size message passing in
/// `ajd-jointree` consumes: dense integer ids and flat vectors, no hash
/// lookups on boxed key tuples.
///
/// A grouping also knows the first row of each group, one `u32` per group,
/// which makes [`GroupIds::map_to`] O(groups).  Ids are numbered by first
/// appearance, so the list is increasing.  The row pass of the first
/// [`GroupIds::map_to`] finds it, and an extension of a grouping that has
/// it scans only the appended rows.
///
/// A [`crate::AnalysisContext`] also keeps *count tables*: groupings
/// without row ids, for sets read only for their multiplicities or their
/// number of groups.
#[derive(Debug, Clone)]
pub struct GroupIds {
    attrs: AttrSet,
    /// `None` in a count table.
    row_ids: Option<Vec<u32>>,
    counts: Vec<u64>,
    /// Flattened code tuples, `attrs.len()` codes per group.
    group_codes: Vec<u32>,
    /// The first row of each group, found by the first `map_to` or carried
    /// from a seed; `None` when a row index does not fit a `u32`.
    first_rows: ajd_sync::OnceSlot<Option<Vec<u32>>>,
}

impl GroupIds {
    /// A grouping of `attrs` from its parts, first rows not yet known.
    fn new(attrs: AttrSet, row_ids: Vec<u32>, counts: Vec<u64>, group_codes: Vec<u32>) -> Self {
        GroupIds {
            attrs,
            row_ids: Some(row_ids),
            counts,
            group_codes,
            first_rows: ajd_sync::OnceSlot::new(),
        }
    }

    /// The count table of `this` grouping: its groups without row ids, in
    /// vectors of exactly their length, taken over when no one else holds
    /// `this` and copied otherwise.
    pub(crate) fn without_rows(this: Arc<Self>) -> Self {
        let mut table = Arc::try_unwrap(this).unwrap_or_else(|shared| GroupIds {
            attrs: shared.attrs.clone(),
            row_ids: None,
            counts: shared.counts.clone(),
            group_codes: shared.group_codes.clone(),
            first_rows: ajd_sync::OnceSlot::new(),
        });
        table.row_ids = None;
        table.first_rows = ajd_sync::OnceSlot::new();
        table.counts.shrink_to_fit();
        table.group_codes.shrink_to_fit();
        table
    }

    /// The attribute set the rows are grouped by.
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// Number of distinct groups `g = |Π_Y(R)|`.
    pub fn num_groups(&self) -> usize {
        self.counts.len()
    }

    /// The interned group id of every row of the source relation, in row
    /// order (ids are assigned in order of first appearance).
    ///
    /// Panics on a count table, which keeps no row ids.
    pub fn row_ids(&self) -> &[u32] {
        self.row_ids
            .as_deref()
            .expect("a count table keeps no row ids")
    }

    /// `false` for a count table, which keeps no row ids.
    pub(crate) fn has_row_ids(&self) -> bool {
        self.row_ids.is_some()
    }

    /// Multiplicity of each group, indexed by group id.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of grouped rows (the `N` of the relation).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The flattened dictionary-code tuples of all groups
    /// (`attrs.len()` codes per group, ascending attribute order).
    pub fn group_codes(&self) -> &[u32] {
        &self.group_codes
    }

    /// The dictionary-code tuple of group `g`.
    pub fn group_code(&self, g: usize) -> &[u32] {
        let a = self.attrs.len();
        &self.group_codes[g * a..(g + 1) * a]
    }

    /// The grouping by zero attributes: every one of `rows` rows projects
    /// to the empty tuple, so they form one group (none when `rows` is 0).
    pub(crate) fn empty_tuple(rows: usize) -> Self {
        let counts = if rows == 0 {
            Vec::new()
        } else {
            vec![rows as u64]
        };
        GroupIds::new(AttrSet::empty(), vec![0; rows], counts, Vec::new())
    }

    /// `this` as an owned table with room for `rows` row ids (if it keeps
    /// any): taken over when no one else holds it, copied otherwise (the
    /// first rows only if they are complete).
    fn unshare(this: Arc<Self>, rows: usize) -> Self {
        match Arc::try_unwrap(this) {
            Ok(mut own) => {
                if let Some(row_ids) = &mut own.row_ids {
                    row_ids.reserve(rows - row_ids.len());
                }
                own
            }
            Err(shared) => {
                let row_ids = shared.row_ids.as_ref().map(|seed| {
                    let mut row_ids = Vec::with_capacity(rows);
                    row_ids.extend_from_slice(seed);
                    row_ids
                });
                GroupIds {
                    attrs: shared.attrs.clone(),
                    row_ids,
                    counts: shared.counts.clone(),
                    group_codes: shared.group_codes.clone(),
                    first_rows: shared.first_rows.clone(),
                }
            }
        }
    }

    /// Rewrites every group code through `remaps[j]`, the code map of the
    /// j-th grouped column, into a buffer of exactly the codes' length (a
    /// shard keeps its table for as long as it lives, so the grouping's
    /// growth slack is dropped).  This moves a shard's local grouping into
    /// the global code space.
    pub(crate) fn remap_codes(&mut self, remaps: &[&[u32]]) {
        let k = remaps.len();
        let codes = self.group_codes.iter().enumerate();
        self.group_codes = codes.map(|(j, &c)| remaps[j % k][c as usize]).collect();
    }

    /// Maps every group id of this (finer) grouping to the id of the group
    /// it belongs to in a *coarser* grouping of the same relation
    /// (`coarser.attrs() ⊆ self.attrs()`).
    ///
    /// Rows with equal projections onto `self.attrs()` agree on any subset
    /// of those attributes, so any representative row determines the coarse
    /// group: the map reads the coarse id of each group's first row, in
    /// O(groups).  The first call maps by one pass over both groupings' row
    /// ids, which also finds the first rows (an extended grouping inherits
    /// them from its seed and scans only the appended rows).  This is the
    /// co-grouping primitive behind the interned join-size count in
    /// `ajd-jointree` (eq. 1, and eq. 28 through it).
    ///
    /// Panics if `coarser` does not group by a subset of this grouping's
    /// attributes, or if the two groupings come from relations of different
    /// sizes (programming errors — a silently wrong map would corrupt every
    /// count derived from it).
    pub fn map_to(&self, coarser: &GroupIds) -> Vec<u32> {
        assert!(
            coarser.attrs.is_subset_of(&self.attrs),
            "map_to target must group by a subset of this grouping's attributes"
        );
        assert_eq!(
            self.row_ids().len(),
            coarser.row_ids().len(),
            "map_to requires groupings of the same relation"
        );
        match self.first_rows.get() {
            Some(Some(first)) => {
                let coarse = coarser.row_ids();
                let map: Vec<u32> = first.iter().map(|&row| coarse[row as usize]).collect();
                debug_assert_eq!(map, self.map_by_rows(coarser).0, "stale first rows");
                map
            }
            Some(None) => self.map_by_rows(coarser).0,
            None => {
                let (map, first) = self.map_by_rows(coarser);
                // A racing first call may have set them already: equal.
                let _ = self.first_rows.set(first);
                map
            }
        }
    }

    /// [`GroupIds::map_to`] by one pass over both groupings' row ids, and
    /// the first row of each group, found by the same pass: it runs
    /// backwards, so the last row of a group it meets is the first.  This
    /// is the reference the first rows must agree with.  The first rows
    /// are `None` when a row index does not fit a `u32`.
    fn map_by_rows(&self, coarser: &GroupIds) -> (Vec<u32>, Option<Vec<u32>>) {
        let mut map = vec![0u32; self.num_groups()];
        let pairs = self.row_ids().iter().zip(coarser.row_ids());
        let Ok(rows) = u32::try_from(self.row_ids().len()) else {
            for (&fine, &coarse) in pairs {
                map[fine as usize] = coarse;
            }
            return (map, None);
        };
        let mut first = vec![0u32; self.num_groups()];
        for (row, (&fine, &coarse)) in (0..rows).zip(pairs).rev() {
            map[fine as usize] = coarse;
            first[fine as usize] = row;
        }
        (map, Some(first))
    }
}

/// Appends to `first` — the first rows of a grouping's first
/// `first.len()` groups, all before row `from` of `row_ids` — the first
/// rows of the groups that start at or after `from`.  Ids are numbered by
/// first appearance, so the next group to start is always id
/// `first.len()`.  `None` if a row index does not fit a `u32`.
fn push_first_rows(first: &mut Vec<u32>, row_ids: &[u32], from: usize) -> Option<()> {
    for (row, &id) in row_ids.iter().enumerate().skip(from) {
        if id as usize == first.len() {
            first.push(u32::try_from(row).ok()?);
        }
    }
    Some(())
}

/// Counts of distinct grouped rows: the multiplicity of every distinct
/// projection of a relation onto some attribute set.
///
/// For `Y ⊆ Ω`, the empirical marginal is `P[Y=y] = count(y) / N`.  Groups
/// are stored in first-appearance order with both their **decoded** keys
/// ([`GroupCounts::iter`], [`GroupCounts::key`], [`GroupCounts::count_of`])
/// and their **code-level** keys ([`GroupCounts::key_codes`]).
///
/// A table is decoded from a grouping at the call and never cached: the
/// measures read multiplicities and group counts from [`GroupIds`], and
/// only point lookups on decoded tuples (`P^T` evaluated on arbitrary
/// rows, in `ajd_info::TreeFactoredDistribution`) and tests need the
/// decoded keys.  The key → count index is built lazily, on the first
/// [`GroupCounts::count_of`] call.
#[derive(Debug, Clone, Default)]
pub struct GroupCounts {
    /// Attribute set the rows are grouped by (ascending attribute order).
    pub attrs: AttrSet,
    /// Total number of rows that were grouped (the `N` of the relation).
    ///
    /// Carried as `u128`, the width the counting paths use for join sizes
    /// and totals (`ajd_info::entropy_of_count_values` takes it as is), so
    /// `N` reaches them exactly, with no narrowing cast.
    pub total: u128,
    /// Flattened decoded group keys, `arity` values per group.
    pub(crate) keys: Vec<Value>,
    /// Flattened dictionary-code group keys, `arity` codes per group.
    pub(crate) key_codes: Vec<u32>,
    /// Multiplicity of each group, indexed by group id.
    pub(crate) counts: Vec<u64>,
    /// Decoded key → group id, built on first point lookup.
    pub(crate) index: ajd_sync::OnceSlot<FxHashMap<Box<[Value]>, u32>>,
}

impl GroupCounts {
    /// Number of values per group key.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Number of distinct groups.
    pub fn num_groups(&self) -> usize {
        self.counts.len()
    }

    /// The lazily-built decoded-key lookup table.
    fn index(&self) -> &FxHashMap<Box<[Value]>, u32> {
        self.index.get_or_init(|| {
            let mut index: FxHashMap<Box<[Value]>, u32> = map_with_capacity(self.num_groups());
            for g in 0..self.num_groups() {
                index.insert(self.key(g).to_vec().into_boxed_slice(), g as u32);
            }
            index
        })
    }

    /// Looks up the multiplicity of a specific decoded group key.
    ///
    /// The first call builds the lookup index (O(groups)); later calls are
    /// O(1) hash probes.
    pub fn count_of(&self, key: &[Value]) -> u64 {
        self.index()
            .get(key)
            .map(|&g| self.counts[g as usize])
            .unwrap_or(0)
    }

    /// The decoded key of group `g` (ascending attribute order).
    pub fn key(&self, g: usize) -> &[Value] {
        &self.keys[g * self.arity()..(g + 1) * self.arity()]
    }

    /// The dictionary-code key of group `g`.
    pub fn key_codes(&self, g: usize) -> &[u32] {
        &self.key_codes[g * self.arity()..(g + 1) * self.arity()]
    }

    /// Multiplicity of each group, indexed by group id (first-appearance
    /// order).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Iterates over `(decoded key, count)` pairs in group-id
    /// (first-appearance) order.
    pub fn iter(&self) -> impl Iterator<Item = (&[Value], u64)> + '_ {
        (0..self.num_groups()).map(|g| (self.key(g), self.counts[g]))
    }
}

/// Checks a gather index list: every index in range, strictly increasing.
///
/// Shared by the flat and sharded [`crate::GroupKernel::gather_rows`]
/// implementations so both reject malformed draws identically.
pub(crate) fn validate_gather_indices(sorted_rows: &[u64], num_rows: u64) -> Result<()> {
    let mut prev: Option<u64> = None;
    for &i in sorted_rows {
        if i >= num_rows {
            return Err(RelationError::InvalidParameter {
                what: "row index",
                detail: format!("index {i} out of range for {num_rows} rows"),
            });
        }
        if let Some(p) = prev {
            if i <= p {
                return Err(RelationError::InvalidParameter {
                    what: "row indices",
                    detail: format!("must be strictly increasing, got {p} then {i}"),
                });
            }
        }
        prev = Some(i);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Relation
// ---------------------------------------------------------------------------

/// A relation instance: an ordered schema, per-column dictionaries with code
/// columns, and a row-major decoded mirror for tuple access.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Relation {
    schema: Vec<AttrId>,
    /// Row-major decoded tuples (the compatibility view behind
    /// [`Relation::row`] / [`Relation::iter_rows`]).
    data: Vec<Value>,
    /// The columnar dictionary-encoded store all grouping runs on.
    columns: Vec<Column>,
    rows: usize,
}

impl Relation {
    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Creates an empty relation over the given schema (column order is
    /// preserved as given).
    pub fn new(schema: Vec<AttrId>) -> Result<Self> {
        let mut seen = AttrSet::empty();
        for &a in &schema {
            if !seen.insert(a) {
                return Err(RelationError::DuplicateAttribute(a));
            }
        }
        Ok(Relation {
            columns: vec![Column::default(); schema.len()],
            schema,
            data: Vec::new(),
            rows: 0,
        })
    }

    /// Creates an empty relation with pre-allocated capacity for `rows`
    /// tuples.
    pub fn with_capacity(schema: Vec<AttrId>, rows: usize) -> Result<Self> {
        let mut r = Self::new(schema)?;
        r.data.reserve(rows * r.arity());
        for c in &mut r.columns {
            c.codes.reserve(rows);
        }
        Ok(r)
    }

    /// Builds a relation from explicit rows.
    pub fn from_rows<R: AsRef<[Value]>>(schema: Vec<AttrId>, rows: &[R]) -> Result<Self> {
        let mut rel = Self::with_capacity(schema, rows.len())?;
        for row in rows {
            rel.push_row(row.as_ref())?;
        }
        Ok(rel)
    }

    /// Appends a tuple, dictionary-encoding each value into its column.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.arity() {
            return Err(RelationError::ArityMismatch {
                expected: self.arity(),
                got: row.len(),
            });
        }
        for (col, &v) in self.columns.iter_mut().zip(row) {
            let code = col.dict.encode(v)?;
            col.codes.push(code);
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Materialises the rows at the given **sorted, strictly increasing**
    /// row indices as a fresh relation over the same schema.
    ///
    /// The result is rebuilt row by row from decoded values, so its
    /// dictionaries follow first-appearance order *of the sampled rows* —
    /// the property that makes a gathered sample layout-independent (see
    /// [`crate::GroupKernel::gather_rows`]).
    pub fn gather_rows(&self, sorted_rows: &[u64]) -> Result<Relation> {
        validate_gather_indices(sorted_rows, self.rows as u64)?;
        let mut out = Relation::with_capacity(self.schema.clone(), sorted_rows.len())?;
        for &i in sorted_rows {
            out.push_row(self.row(i as usize))?;
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Basic accessors
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

    /// Number of tuples `N = |R|` (with multiplicity, if this is a multiset).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// `true` if the relation holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Returns the `i`-th tuple as a slice of raw values.
    #[inline]
    pub fn row(&self, i: usize) -> &[Value] {
        let a = self.arity();
        &self.data[i * a..(i + 1) * a]
    }

    /// Iterates over all tuples in insertion order.
    pub fn iter_rows(&self) -> RowIter<'_> {
        RowIter {
            arity: self.arity(),
            data: &self.data,
            pos: 0,
            rows: self.rows,
        }
    }

    /// Position of an attribute in this relation's column order.
    pub fn attr_pos(&self, attr: AttrId) -> Result<usize> {
        self.schema
            .iter()
            .position(|&a| a == attr)
            .ok_or(RelationError::UnknownAttribute(attr))
    }

    /// Positions (column indices) of each attribute of `attrs`, in the order
    /// of `attrs` (ascending attribute id).
    pub fn attr_positions(&self, attrs: &AttrSet) -> Result<Vec<usize>> {
        attrs.iter().map(|a| self.attr_pos(a)).collect()
    }

    /// The active domain of an attribute: the distinct values it takes in
    /// this relation, in first-appearance order (`Π_A(R)` as a value list).
    ///
    /// Served straight from the column dictionary — O(1), no scan.
    pub fn domain(&self, attr: AttrId) -> Result<&[Value]> {
        let pos = self.attr_pos(attr)?;
        Ok(&self.columns[pos].dict.values)
    }

    /// Size of the active domain of an attribute: the number of distinct
    /// values it takes in this relation (`d_A = |Π_A(R)|` in the paper).
    ///
    /// O(1): the length of the column dictionary.
    pub fn active_domain_size(&self, attr: AttrId) -> Result<usize> {
        Ok(self.domain(attr)?.len())
    }

    /// The dense dictionary codes of a column, one per row.
    ///
    /// Codes are assigned in first-appearance order; decode through
    /// [`Relation::domain`] (`domain(attr)[code as usize]`).
    pub fn column_codes(&self, attr: AttrId) -> Result<&[u32]> {
        let pos = self.attr_pos(attr)?;
        Ok(&self.columns[pos].codes)
    }

    /// Looks up the dictionary code of a raw value in a column, if the value
    /// occurs in this relation.
    pub fn code_of(&self, attr: AttrId, value: Value) -> Result<Option<u32>> {
        let pos = self.attr_pos(attr)?;
        Ok(self.columns[pos].dict.index.get(&value).copied())
    }

    /// Verifies the **dictionary occupancy invariant**: every code of every
    /// column dictionary occurs in at least one row, and the value → code
    /// index is exactly the inverse of the code → value table.
    ///
    /// Every constructor in this crate (row pushes, projections, joins,
    /// column moves) preserves this invariant; the single-column
    /// [`Relation::group_ids`] fast path *relies* on it (the code column is
    /// taken to be its own grouping, so a zero-occurrence code would
    /// fabricate a phantom group).  Exposed so tests — and any future
    /// constructor that builds columns wholesale — can check themselves
    /// against it; O(rows × arity).
    pub fn dictionaries_fully_occupied(&self) -> bool {
        self.columns.iter().all(|col| {
            if col.dict.index.len() != col.domain_size() || col.codes.len() != self.rows {
                return false;
            }
            let mut seen = vec![false; col.domain_size()];
            for &c in &col.codes {
                match seen.get_mut(c as usize) {
                    Some(slot) => *slot = true,
                    None => return false, // code outside the dictionary
                }
            }
            seen.into_iter().all(|s| s)
        })
    }

    // ------------------------------------------------------------------
    // Grouping (the columnar kernel)
    // ------------------------------------------------------------------

    /// Groups the tuples by their projection onto `attrs`, returning dense
    /// interned group ids (see [`GroupIds`]).
    ///
    /// This is the grouping kernel every measure in the workspace reduces
    /// to.  It runs entirely on dictionary codes: a single column *is* its
    /// own grouping (the codes are already dense ids); several columns whose
    /// domain-size product is small are counted through a dense mixed-radix
    /// table with no hashing; wider keys are packed into one `u64` per row
    /// and hashed without any per-row allocation.
    pub fn group_ids(&self, attrs: &AttrSet) -> Result<GroupIds> {
        let positions = self.attr_positions(attrs)?;
        let k = positions.len();

        // Zero attributes: every row projects to the empty tuple.
        if k == 0 {
            return Ok(GroupIds::empty_tuple(self.rows));
        }

        // One attribute: the code column is already a dense first-appearance
        // numbering of the distinct values.
        if k == 1 {
            let col = &self.columns[positions[0]];
            let d = col.domain_size();
            let mut counts = vec![0u64; d];
            for &c in &col.codes {
                counts[c as usize] += 1;
            }
            // Every dictionary code must occur in at least one row (the
            // occupancy invariant every constructor preserves); a
            // zero-occurrence code would make this fast path fabricate an
            // empty group that no row maps to.
            debug_assert!(
                counts.iter().all(|&c| c > 0),
                "column dictionary holds zero-occurrence codes; \
                 single-column grouping would emit phantom groups"
            );
            return Ok(GroupIds::new(
                attrs.clone(),
                col.codes.clone(),
                counts,
                (0..d as u32).collect(),
            ));
        }

        let cols: Vec<_> = positions.iter().map(|&p| self.columns[p].key()).collect();
        group_span(attrs, &cols, 0, self.rows)
    }

    /// [`Relation::group_ids`] under a [`ThreadBudget`]: the grouping kernel
    /// partitions the row scan across up to `budget` worker threads (never
    /// sharding below [`crate::parallel::MIN_CHUNK_ROWS`] rows per worker)
    /// and merges the per-chunk groupings **in chunk order**, so the result
    /// is bit-identical to the serial kernel at any budget.
    pub fn group_ids_with(&self, attrs: &AttrSet, budget: ThreadBudget) -> Result<GroupIds> {
        let workers = budget.workers_for_rows(self.rows);
        if workers <= 1 {
            return self.group_ids(attrs);
        }
        self.group_ids_chunked(attrs, workers)
    }

    /// The chunked parallel grouping kernel behind
    /// [`Relation::group_ids_with`], with the worker count fixed by the
    /// caller (no minimum-chunk clamp — exposed so the determinism property
    /// is testable on small relations).  The chunks are grouped through
    /// [`fan_out`] with one worker each, so `workers` is clamped to the row
    /// count and to [`crate::parallel::MAX_CHUNK_WORKERS`] — an absurd
    /// request cannot exhaust the process's thread limit.
    ///
    /// Rows are partitioned into `workers` contiguous chunks; each chunk is
    /// grouped independently through the same dense mixed-radix / packed
    /// `u64` paths as the serial kernel, then the per-chunk group tables are
    /// merged **in chunk order** (`merge_spans`, the same merge a
    /// [`crate::ShardedRelation`] runs over its shards).  A group's first
    /// appearance across the whole relation is in the earliest chunk that
    /// contains it, and within that chunk the local first-appearance order
    /// equals the global row order — so the merged numbering, counts, group
    /// codes and remapped per-row ids are **bit-identical** to
    /// [`Relation::group_ids`].
    ///
    /// Zero- and one-attribute groupings delegate to the serial fast paths
    /// (a code column already *is* its grouping; there is nothing to shard).
    pub fn group_ids_chunked(&self, attrs: &AttrSet, workers: usize) -> Result<GroupIds> {
        let positions = self.attr_positions(attrs)?;
        if positions.len() <= 1 || workers <= 1 || self.rows == 0 {
            return self.group_ids(attrs);
        }
        let cols: Vec<_> = positions.iter().map(|&p| self.columns[p].key()).collect();
        let budget = ThreadBudget::new(workers);
        let chunks = chunk_bounds(self.rows, budget.workers_for_items(self.rows));
        let spans = fan_out(chunks.len(), budget, |c, _| {
            let (start, end) = chunks[c];
            group_span(attrs, &cols, start, end).map(Arc::new)
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        let domains = cols.iter().map(|&(_, d)| d);
        // The chunk tables are ours alone, so the merged table is too.
        merge_spans(attrs, domains, spans, self.rows, chunks.len()).map(Arc::unwrap_or_clone)
    }

    /// Groups the tuples by their projection onto `attrs`, returning the
    /// multiplicity of every distinct group (`R(Y=y)` cardinalities) with
    /// decoded keys; the serial [`GroupKernel::group_counts_with`].
    pub fn group_counts(&self, attrs: &AttrSet) -> Result<GroupCounts> {
        self.group_counts_with(attrs, ThreadBudget::serial())
    }

    // ------------------------------------------------------------------
    // Set semantics
    // ------------------------------------------------------------------

    /// `true` if all tuples are pairwise distinct (the relation is a set).
    pub fn is_set(&self) -> bool {
        let ids = self
            .group_ids(&self.attrs())
            .expect("own attributes are always present");
        ids.num_groups() == self.rows
    }

    /// Returns a copy with duplicate tuples removed (first occurrence kept,
    /// insertion order preserved).
    pub fn distinct(&self) -> Relation {
        let ids = self
            .group_ids(&self.attrs())
            .expect("own attributes are always present");
        let mut seen = vec![false; ids.num_groups()];
        let mut out = Relation::with_capacity(self.schema.clone(), ids.num_groups())
            .expect("own schema is duplicate-free");
        for (i, &id) in ids.row_ids().iter().enumerate() {
            if !seen[id as usize] {
                seen[id as usize] = true;
                out.push_row(self.row(i))
                    .expect("rows of the same relation share its arity");
            }
        }
        out
    }

    /// Membership test for a full tuple (given in this relation's column
    /// order).
    pub fn contains_row(&self, row: &[Value]) -> bool {
        if row.len() != self.arity() {
            return false;
        }
        // A tuple whose value is absent from some column dictionary cannot
        // occur; otherwise compare dense codes row-wise.
        let mut codes: Vec<u32> = Vec::with_capacity(row.len());
        for (col, &v) in self.columns.iter().zip(row) {
            match col.dict.index.get(&v) {
                Some(&c) => codes.push(c),
                None => return false,
            }
        }
        (0..self.rows).any(|i| {
            self.columns
                .iter()
                .zip(&codes)
                .all(|(col, &c)| col.codes[i] == c)
        })
    }

    /// `true` if every tuple of `self` also appears in `other`
    /// (schemas must cover the same attribute set; column order may differ).
    pub fn is_subset_of(&self, other: &Relation) -> bool {
        if self.attrs() != other.attrs() {
            return false;
        }
        // Reorder our rows into other's column order and probe a hash set.
        let perm: Vec<usize> = other
            .schema
            .iter()
            .map(|&a| {
                self.attr_pos(a)
                    .expect("attrs() equality guarantees presence")
            })
            .collect();
        let mut set = set_with_capacity(other.rows);
        for row in other.iter_rows() {
            set.insert(row.to_vec().into_boxed_slice());
        }
        let mut buf = vec![0u32; self.arity()];
        for row in self.iter_rows() {
            for (k, &p) in perm.iter().enumerate() {
                buf[k] = row[p];
            }
            if !set.contains(buf.as_slice()) {
                return false;
            }
        }
        true
    }

    /// Set equality: same attribute set and same set of tuples (duplicates
    /// and column order ignored).
    pub fn set_eq(&self, other: &Relation) -> bool {
        let a = self.distinct();
        let b = other.distinct();
        a.len() == b.len() && a.is_subset_of(&b)
    }

    /// Returns a canonical copy: columns reordered to ascending attribute id
    /// and rows sorted lexicographically.  Useful for snapshot-style tests.
    pub fn canonicalize(&self) -> Relation {
        let attrs = self.attrs();
        let perm = self
            .attr_positions(&attrs)
            .expect("own attributes are always present");
        let mut rows: Vec<Vec<Value>> = self
            .iter_rows()
            .map(|r| perm.iter().map(|&p| r[p]).collect())
            .collect();
        rows.sort_unstable();
        let mut out = Relation::with_capacity(attrs.as_slice().to_vec(), rows.len())
            .expect("attribute sets are duplicate-free");
        for r in rows {
            out.push_row(&r)
                .expect("permuted rows keep the relation's arity");
        }
        out
    }

    // ------------------------------------------------------------------
    // Projection / selection
    // ------------------------------------------------------------------

    /// Projection `Π_Y(R)` with set semantics (duplicates removed): the
    /// serial [`GroupKernel::project_with`], which decodes each distinct
    /// group once.  Errors if `attrs` is not a subset of the schema —
    /// library code never panics on caller input.
    pub fn project(&self, attrs: &AttrSet) -> Result<Relation> {
        self.project_with(attrs, ThreadBudget::serial())
    }

    /// Projection with multiset (bag) semantics: keeps one output tuple per
    /// input tuple, duplicates included.
    ///
    /// Columnar fast path: every row is kept, so each projected column —
    /// dictionary and code vector — carries over verbatim; only the decoded
    /// row-major mirror is re-gathered.
    pub fn project_multiset(&self, attrs: &AttrSet) -> Result<Relation> {
        let positions = self.attr_positions(attrs)?;
        let arity = positions.len();
        let columns: Vec<Column> = positions.iter().map(|&p| self.columns[p].clone()).collect();
        let mut data: Vec<Value> = Vec::with_capacity(self.rows * arity);
        for row in self.iter_rows() {
            for &p in &positions {
                data.push(row[p]);
            }
        }
        Ok(Relation {
            schema: attrs.as_slice().to_vec(),
            data,
            columns,
            rows: self.rows,
        })
    }

    /// Selection `σ_{attr=value}(R)`.
    pub fn select_eq(&self, attr: AttrId, value: Value) -> Result<Relation> {
        let pos = self.attr_pos(attr)?;
        let mut out = Relation::new(self.schema.clone())?;
        // A value absent from the dictionary selects nothing.
        let Some(&code) = self.columns[pos].dict.index.get(&value) else {
            return Ok(out);
        };
        for (i, &c) in self.columns[pos].codes.iter().enumerate() {
            if c == code {
                out.push_row(self.row(i))?;
            }
        }
        Ok(out)
    }

    /// Reorders the columns of every tuple to the target schema (which must
    /// be a permutation of the current schema).
    pub fn reorder_columns(&self, target: &[AttrId]) -> Result<Relation> {
        if AttrSet::from_slice(target) != self.attrs() || target.len() != self.arity() {
            return Err(RelationError::SchemaMismatch {
                detail: format!(
                    "target schema {:?} is not a permutation of {:?}",
                    target, self.schema
                ),
            });
        }
        let perm: Vec<usize> = target
            .iter()
            .map(|&a| self.attr_pos(a).expect("checked above"))
            .collect();
        // Columns move wholesale (dictionaries included); only the decoded
        // mirror is re-gathered.
        let columns: Vec<Column> = perm.iter().map(|&p| self.columns[p].clone()).collect();
        let mut data: Vec<Value> = Vec::with_capacity(self.data.len());
        for row in self.iter_rows() {
            for &p in &perm {
                data.push(row[p]);
            }
        }
        Ok(Relation {
            schema: target.to_vec(),
            data,
            columns,
            rows: self.rows,
        })
    }
}

/// Merges per-span groupings of `attrs` — one per contiguous row span, each
/// numbered by first appearance within its span, their `group_codes` all
/// in one common code space — **in span order** into the global
/// first-appearance numbering, then rewrites every span's local row ids
/// through its local → global map into one flat id vector.
///
/// This is the one "spans → [`GroupIds`]" step, shared by the chunked
/// parallel kernel (spans = row chunks of one relation, codes = that
/// relation's dictionary codes) and by [`crate::ShardedRelation`] (spans =
/// shards, codes = the global shard-order dictionaries): a group's first
/// appearance across the whole input lies in the earliest span that
/// contains it, and within a span the local first-appearance order equals
/// the row order — so the merged numbering, counts, group codes and per-row
/// ids are bit-identical to grouping the concatenated rows serially.  For
/// the same reason a **single span is returned as is**, the same `Arc`: its
/// local ids already are the global ones, so a one-shard relation skips
/// the hash merge and the row rewrite, and its shard tier and the caller
/// share one table.  Likewise the first span's groups arrive first and in
/// id order, so its local → global map is the identity: the merge is
/// [`extend_ids`] of the first span by the others, which never rewrites
/// the first span's row ids.  So a first span that is itself an earlier
/// merge (an epoch's table, extended by the shards appended since) costs
/// no row pass.
///
/// `domains` gives the size of each grouped column's (common-code-space)
/// domain, in `attrs` order; when their bit widths pack into 64 bits the
/// merge interns packed keys, otherwise boxed tuples.  `rewrite_workers`
/// caps the scoped threads the per-span row-id rewrite may fan out over;
/// it is clamped to the span count and to
/// [`crate::parallel::MAX_CHUNK_WORKERS`], so a many-shard input can never
/// spawn one thread per shard (pass 1 for a fully inline rewrite).
///
/// Spans are `Arc`-shared so the sharded relation re-merges the tables of
/// its per-shard caches without cloning a single one.
pub(crate) fn merge_spans(
    attrs: &AttrSet,
    domains: impl Iterator<Item = usize>,
    mut spans: Vec<Arc<GroupIds>>,
    total_rows: usize,
    rewrite_workers: usize,
) -> Result<Arc<GroupIds>> {
    let domains: Vec<usize> = domains.collect();
    let later = spans.split_off(spans.len().min(1));
    let Some(first) = spans.pop() else {
        let (empty, _) = GroupInterner::new(&domains, 0).into_ids(attrs, Some(Vec::new()));
        return Ok(Arc::new(empty));
    };
    if later.is_empty() {
        debug_assert_eq!(&first.attrs, attrs);
        debug_assert_eq!(first.row_ids().len(), total_rows);
        return Ok(first);
    }
    let (ids, _) = extend_ids(first, None, &later, &domains, total_rows, rewrite_workers)?;
    Ok(Arc::new(ids))
}

/// Extends `seed`, the grouping of a relation's first rows, by `later`,
/// the span groupings of the rows after them, in span order: the merge of
/// [`merge_spans`] with `seed` as its first span.  The seed's groups keep
/// their ids, and its vectors are taken over when no one else holds it and
/// copied otherwise, never rewritten; the grown vectors get amortized
/// room, as a table grows by every epoch.  If the seed knows its first
/// rows, the result knows them too, from a scan of the appended rows only.
/// A seed without row ids (a count table) extends to a count table: only
/// the spans' groups are interned, and their row ids are not read.
///
/// `domains` and `rewrite_workers` are as for [`merge_spans`].  `key_map`
/// is the [`KeyMap`] of the seed's groups, which the extension that built
/// the seed returned; it must [fit](KeyMap::fits) `domains`.  Without it
/// the seed's tuples are hashed again.  Returns the grouping of all
/// `total_rows` rows and the key map of its groups.
pub(crate) fn extend_ids(
    seed: Arc<GroupIds>,
    key_map: Option<KeyMap>,
    later: &[Arc<GroupIds>],
    domains: &[usize],
    total_rows: usize,
    rewrite_workers: usize,
) -> Result<(GroupIds, KeyMap)> {
    let later_groups: usize = later.iter().map(|s| s.counts.len()).sum();
    let GroupIds {
        attrs,
        row_ids,
        counts,
        group_codes,
        first_rows,
    } = GroupIds::unshare(seed, total_rows);
    let k = attrs.len();
    let mut interner =
        GroupInterner::starting_with(domains, later_groups, counts, group_codes, key_map);
    let mut local_to_global: Vec<Vec<u32>> = Vec::with_capacity(later.len());
    for span in later {
        let map = (0..span.counts.len())
            .map(|g| interner.add(&span.group_codes[g * k..(g + 1) * k], span.counts[g]))
            .collect::<Result<Vec<u32>>>()?;
        local_to_global.push(map);
    }
    let Some(mut row_ids) = row_ids else {
        return Ok(interner.into_ids(&attrs, None));
    };

    // The seed's ids are already in place; rewrite each later span's local
    // row ids through its local → global map, into disjoint slices of the
    // output.  Spans are partitioned into at most `workers` contiguous
    // runs — never one thread per span, which for a many-shard relation
    // would spawn thousands of OS threads.
    let seed_rows = row_ids.len();
    row_ids.resize(total_rows, 0);
    let workers = rewrite_workers
        .min(later.len())
        .clamp(1, crate::parallel::MAX_CHUNK_WORKERS);
    fn rewrite_run(out: &mut [u32], run: &[Arc<GroupIds>], maps: &[Vec<u32>]) {
        let mut rest = out;
        for (span, map) in run.iter().zip(maps) {
            let (head, tail) = rest.split_at_mut(span.row_ids().len());
            rest = tail;
            for (slot, &local) in head.iter_mut().zip(span.row_ids()) {
                *slot = map[local as usize];
            }
        }
    }
    let rest = &mut row_ids[seed_rows..];
    if workers <= 1 {
        rewrite_run(rest, later, &local_to_global);
    } else {
        std::thread::scope(|scope| {
            let mut rest: &mut [u32] = rest;
            for (s0, s1) in chunk_bounds(later.len(), workers) {
                let run = &later[s0..s1];
                let maps = &local_to_global[s0..s1];
                let run_rows: usize = run.iter().map(|s| s.row_ids().len()).sum();
                let (head, tail) = rest.split_at_mut(run_rows);
                rest = tail;
                scope.spawn(move || rewrite_run(head, run, maps));
            }
        });
    }

    let groups = interner.counts.len();
    let first_rows = first_rows.into_inner().flatten().and_then(|mut first| {
        push_first_rows(&mut first, &row_ids, seed_rows)?;
        debug_assert_eq!(first.len(), groups, "row ids number groups in order");
        Some(first)
    });
    let (ids, key_map) = interner.into_ids(&attrs, Some(row_ids));
    if let Some(first) = first_rows {
        let _ = ids.first_rows.set(Some(first));
    }
    Ok((ids, key_map))
}

/// The code tuple → id map of a [`GroupInterner`], for tuples over
/// domains of fixed sizes.  Tuples whose bit widths pack into 64 bits are
/// hashed as one `u64`, wider ones as boxed tuples.
///
/// An extension ([`extend_ids`]) returns the map of the table it built, so the next extension of that table can take the map
/// over and hash only the appended spans' groups ([`crate::AnalysisContext`]
/// keeps one per extended table).  A map is moved, never cloned, so no
/// two extensions share one.
#[derive(Debug)]
pub(crate) struct KeyMap {
    bits: Vec<u32>,
    packed: Option<FxHashMap<u64, u32>>,
    wide: FxHashMap<Box<[u32]>, u32>,
}

impl KeyMap {
    /// An empty map for tuples over domains of the given sizes, sized for
    /// about `capacity` distinct tuples.
    fn new(domains: &[usize], capacity: usize) -> Self {
        let bits: Vec<u32> = domains.iter().map(|&d| bit_width(d)).collect();
        let packable = bits.iter().sum::<u32>() <= 64;
        KeyMap {
            bits,
            packed: packable.then(|| map_with_capacity(capacity)),
            wide: map_with_capacity(if packable { 0 } else { capacity }),
        }
    }

    /// `true` if this map can serve the extension of a table of `groups`
    /// groups over domains of the given sizes: it holds `groups` tuples
    /// and packs them to the widths of those domains.  A key width that
    /// changed (a dictionary crossed a power of two) changes every packed
    /// key, so the map must be rebuilt.
    pub(crate) fn fits(&self, domains: &[usize], groups: usize) -> bool {
        let widths = domains.iter().map(|&d| bit_width(d));
        self.len() == groups && self.bits.iter().copied().eq(widths)
    }

    /// Number of tuples in the map.
    fn len(&self) -> usize {
        self.packed
            .as_ref()
            .map_or(self.wide.len(), |packed| packed.len())
    }

    /// Makes room for `more` tuples.
    fn reserve(&mut self, more: usize) {
        match &mut self.packed {
            Some(packed) => packed.reserve(more),
            None => self.wide.reserve(more),
        }
    }

    /// The id of `codes` in the map, `next` if it is new there.
    fn id_of(&mut self, codes: &[u32], next: u32) -> u32 {
        match &mut self.packed {
            Some(packed) => {
                let key = codes
                    .iter()
                    .zip(&self.bits)
                    .fold(0u64, |key, (&c, &b)| (key << b) | c as u64);
                *packed.entry(key).or_insert(next)
            }
            None => *self.wide.entry(codes.into()).or_insert(next),
        }
    }
}

/// Interns group code tuples of one code space into dense ids in order of
/// first arrival, summing the counts each tuple arrives with: the one
/// table-level hashing step behind [`merge_spans`], [`extend_ids`] and
/// [`coarsen_ids`].
struct GroupInterner {
    key_map: KeyMap,
    counts: Vec<u64>,
    group_codes: Vec<u32>,
}

impl GroupInterner {
    /// An empty interner for tuples over domains of the given sizes, sized
    /// for about `capacity` distinct tuples.
    fn new(domains: &[usize], capacity: usize) -> Self {
        GroupInterner {
            key_map: KeyMap::new(domains, capacity),
            counts: Vec::new(),
            group_codes: Vec::new(),
        }
    }

    /// The id of `codes` (a new one on first arrival), after adding
    /// `count` to its multiplicity.
    fn add(&mut self, codes: &[u32], count: u64) -> Result<u32> {
        let next = new_group_id(&self.counts)?;
        let id = self.key_map.id_of(codes, next);
        if id == next {
            self.counts.push(0);
            self.group_codes.extend_from_slice(codes);
        }
        self.counts[id as usize] += count;
        Ok(id)
    }

    /// An interner whose first ids are the distinct tuples `group_codes`
    /// of a table, in id order, with their `counts`: the vectors are taken
    /// over, so every tuple keeps its id.  So is `kept`, the table's key
    /// map, if there is one (it must [fit](KeyMap::fits) `domains`);
    /// otherwise the tuples are hashed into a new map.  The map is sized
    /// for `later` more tuples.
    fn starting_with(
        domains: &[usize],
        later: usize,
        counts: Vec<u64>,
        group_codes: Vec<u32>,
        kept: Option<KeyMap>,
    ) -> Self {
        let key_map = match kept {
            Some(mut key_map) => {
                debug_assert!(key_map.fits(domains, counts.len()), "a stale key map");
                key_map.reserve(later);
                key_map
            }
            None => {
                let mut key_map = KeyMap::new(domains, counts.len() + later);
                let k = domains.len();
                for g in 0..counts.len() {
                    // A table numbers its tuples in u32, so `g` fits.
                    let id = key_map.id_of(&group_codes[g * k..(g + 1) * k], g as u32);
                    debug_assert_eq!(id as usize, g, "a table's tuples are distinct");
                }
                key_map
            }
        };
        GroupInterner {
            key_map,
            counts,
            group_codes,
        }
    }

    /// The grouping of `attrs` whose rows carry `row_ids` (a count table
    /// without them), and the key map of its groups.
    fn into_ids(self, attrs: &AttrSet, row_ids: Option<Vec<u32>>) -> (GroupIds, KeyMap) {
        let ids = GroupIds {
            attrs: attrs.clone(),
            row_ids,
            counts: self.counts,
            group_codes: self.group_codes,
            first_rows: ajd_sync::OnceSlot::new(),
        };
        (ids, self.key_map)
    }
}

/// Groups the rows `start..end` by the code tuples of `cols` (the key
/// columns of `attrs`, each its per-row codes and its domain size),
/// assigning dense ids in first-appearance order *within the span*.
///
/// This is the multi-column grouping kernel shared by the serial path
/// (span = all rows), the chunked parallel path (span = one chunk) and
/// [`refine_ids`] (key columns = a coarser grouping's row ids and the
/// extra code columns): a dense mixed-radix table when the domain product
/// is within [`dense_cap`] of the span, a hashed packed `u64` per row when
/// the code tuple fits 64 bits, and a hashed boxed tuple as the wide-key
/// fallback.
fn group_span(
    attrs: &AttrSet,
    cols: &[(&[u32], usize)],
    start: usize,
    end: usize,
) -> Result<GroupIds> {
    let rows = end - start;
    let radix: u128 = cols.iter().map(|&(_, d)| d as u128).product();

    let mut row_ids: Vec<u32> = Vec::with_capacity(rows);
    let mut counts: Vec<u64> = Vec::new();
    let mut group_codes: Vec<u32> = Vec::new();

    if radix <= dense_cap(rows) {
        // Dense mixed-radix table: one array slot per possible code tuple,
        // ids assigned in first-appearance order.
        let mut table = vec![u32::MAX; radix as usize];
        for i in start..end {
            let mut key = 0usize;
            for &(codes, d) in cols {
                key = key * d + codes[i] as usize;
            }
            let mut id = table[key];
            if id == u32::MAX {
                id = new_group_id(&counts)?;
                table[key] = id;
                counts.push(0);
                for &(codes, _) in cols {
                    group_codes.push(codes[i]);
                }
            }
            counts[id as usize] += 1;
            row_ids.push(id);
        }
    } else {
        let bits: Vec<u32> = cols.iter().map(|&(_, d)| bit_width(d)).collect();
        if bits.iter().sum::<u32>() <= 64 {
            // Pack the code tuple into one u64 and hash that — no
            // allocation per row.
            let mut intern: FxHashMap<u64, u32> = map_with_capacity(rows.min(1 << 20));
            for i in start..end {
                let mut key = 0u64;
                for (&(codes, _), &b) in cols.iter().zip(&bits) {
                    key = (key << b) | codes[i] as u64;
                }
                let next = new_group_id(&counts)?;
                let id = *intern.entry(key).or_insert(next);
                if id == next {
                    counts.push(0);
                    for &(codes, _) in cols {
                        group_codes.push(codes[i]);
                    }
                }
                counts[id as usize] += 1;
                row_ids.push(id);
            }
        } else {
            // Very wide keys (only reachable with dozens of columns):
            // hash the boxed code tuple.
            let k = cols.len();
            let mut intern: FxHashMap<Box<[u32]>, u32> = map_with_capacity(rows.min(1 << 20));
            let mut buf: Vec<u32> = vec![0; k];
            for i in start..end {
                for (j, &(codes, _)) in cols.iter().enumerate() {
                    buf[j] = codes[i];
                }
                let next = new_group_id(&counts)?;
                let id = *intern.entry(buf.clone().into_boxed_slice()).or_insert(next);
                if id == next {
                    counts.push(0);
                    group_codes.extend_from_slice(&buf);
                }
                counts[id as usize] += 1;
                row_ids.push(id);
            }
        }
    }

    Ok(GroupIds::new(attrs.clone(), row_ids, counts, group_codes))
}

/// The largest dense table a grouping pass over `rows` rows allocates:
/// [`RADIX_TABLE_CAP`] entries at most, and never much more than the rows
/// themselves.  [`group_span`], and so [`refine_ids`], hashes above it;
/// the lattice policy of [`crate::AnalysisContext`] derives a grouping
/// only where the pair table of a refinement fits within it, or where a
/// coarsening replaces a kernel pass that would hash.
pub(crate) fn dense_cap(rows: usize) -> u128 {
    // ajd: allow(silent-arithmetic, "capacity heuristic choosing dense vs hashed grouping; clamping only steers the strategy choice, results are identical either way")
    RADIX_TABLE_CAP.min((rows as u128).saturating_mul(8).max(4096))
}

/// Refines the grouping `base` of some `X ⊂ attrs` by the columns of
/// `attrs ∖ X` into the grouping of `attrs`.
///
/// `extra` holds each column of `attrs ∖ X` in ascending attribute order:
/// its per-row codes and its domain size, in the code space of `base`'s
/// group codes.  Each pair (X-id, extra codes) stands for exactly one tuple
/// of `attrs`, so [`group_span`] over the key columns (`base`'s row ids
/// with domain `g_X`, then the extra columns) numbers the tuples by first
/// appearance; one pass over the groups then rewrites each pair into the
/// codes of `attrs`.  The result is bit-identical to
/// [`Relation::group_ids`] on `attrs`.  The pair table is dense within
/// [`dense_cap`] and hashed above it, as the kernel is.
pub(crate) fn refine_ids(
    attrs: &AttrSet,
    base: &GroupIds,
    extra: &[(&[u32], usize)],
) -> Result<GroupIds> {
    let mut cols = vec![(base.row_ids(), base.num_groups())];
    cols.extend_from_slice(extra);
    let pairs = group_span(attrs, &cols, 0, base.row_ids().len())?;
    // Where each code of an `attrs` tuple comes from: `Ok(j)` is the j-th
    // code of the base tuple, `Err(e)` the e-th code of a pair (the extra
    // columns follow the X-id).
    let mut next_extra = 1..cols.len();
    let from: Vec<std::result::Result<usize, usize>> = attrs
        .iter()
        .map(|a| {
            base.attrs.as_slice().binary_search(&a).map_err(|_| {
                next_extra
                    .next()
                    .expect("one extra column per attribute outside the base")
            })
        })
        .collect();
    let mut group_codes = Vec::with_capacity(pairs.num_groups() * from.len());
    for pair in pairs.group_codes.chunks_exact(cols.len()) {
        let x_codes = base.group_code(pair[0] as usize);
        group_codes.extend(from.iter().map(|src| match *src {
            Ok(j) => x_codes[j],
            Err(e) => pair[e],
        }));
    }
    Ok(GroupIds {
        group_codes,
        ..pairs
    })
}

/// Coarsens the grouping `fine` of some `Z ⊃ attrs` into the grouping of
/// `attrs`: interns each Z-group by its `attrs` codes (one hash per group,
/// not per row), then maps every row through the group map.
///
/// `domains` gives the domain size of each attribute of `attrs`, in order,
/// to pack the interned keys.  Z's ids are numbered by first appearance, so
/// visiting its groups in id order meets every `attrs`-group first at its
/// first row: the result is bit-identical to [`Relation::group_ids`] on
/// `attrs`.
pub(crate) fn coarsen_ids(attrs: &AttrSet, fine: &GroupIds, domains: &[usize]) -> Result<GroupIds> {
    let at: Vec<usize> = attrs
        .iter()
        .map(|a| {
            fine.attrs
                .as_slice()
                .binary_search(&a)
                .expect("coarsening target is a subset of the fine attributes")
        })
        .collect();
    let mut interner = GroupInterner::new(domains, fine.num_groups());
    let mut key: Vec<u32> = vec![0; at.len()];
    let map = (0..fine.num_groups())
        .map(|z| {
            let codes = fine.group_code(z);
            for (slot, &j) in key.iter_mut().zip(&at) {
                *slot = codes[j];
            }
            interner.add(&key, fine.counts[z])
        })
        .collect::<Result<Vec<u32>>>()?;
    let row_ids = fine.row_ids().iter().map(|&z| map[z as usize]).collect();
    Ok(interner.into_ids(attrs, Some(row_ids)).0)
}

/// Allocates the next dense group id, failing (instead of wrapping into an
/// aliased id) if the `u32` intern space is exhausted.
fn new_group_id(counts: &[u64]) -> Result<u32> {
    u32::try_from(counts.len()).map_err(|_| {
        RelationError::CountOverflow("number of distinct groups exceeds the u32 intern id space")
    })
}

/// Number of bits needed to represent every code of a domain of size `d`.
///
/// Takes `usize` so a full 2³²-entry dictionary (codes `0..=u32::MAX`)
/// reports 32 bits instead of wrapping to 0 — an aliased packed key would
/// silently merge unrelated groups.
pub(crate) fn bit_width(d: usize) -> u32 {
    // ajd: allow(silent-arithmetic, "d=0 must clamp to 0, not underflow: a zero-size domain needs 0 bits, and the doc above pins the full-u32 edge")
    usize::BITS - d.saturating_sub(1).leading_zeros()
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation(")?;
        for (i, a) in self.schema.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{a}")?;
        }
        write!(f, ")[{} rows]", self.rows)
    }
}

/// Iterator over the tuples of a [`Relation`], yielding row slices.
///
/// Handles the zero-arity corner case (projections onto the empty attribute
/// set yield rows that are empty slices).
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    arity: usize,
    data: &'a [Value],
    pos: usize,
    rows: usize,
}

impl<'a> Iterator for RowIter<'a> {
    type Item = &'a [Value];

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.rows {
            return None;
        }
        let i = self.pos;
        self.pos += 1;
        if self.arity == 0 {
            Some(&[])
        } else {
            Some(&self.data[i * self.arity..(i + 1) * self.arity])
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.rows - self.pos;
        (left, Some(left))
    }
}

impl ExactSizeIterator for RowIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn abc() -> (AttrId, AttrId, AttrId) {
        (AttrId(0), AttrId(1), AttrId(2))
    }

    fn sample() -> Relation {
        let (a, b, c) = abc();
        Relation::from_rows(
            vec![a, b, c],
            &[
                &[0, 0, 0][..],
                &[0, 1, 0][..],
                &[1, 0, 1][..],
                &[1, 1, 1][..],
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let r = sample();
        assert_eq!(r.arity(), 3);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());
        assert_eq!(r.row(2), &[1, 0, 1]);
        assert_eq!(r.attrs(), AttrSet::range(3));
        assert_eq!(r.attr_pos(AttrId(1)).unwrap(), 1);
        assert!(r.attr_pos(AttrId(9)).is_err());
    }

    #[test]
    fn duplicate_schema_rejected() {
        assert!(Relation::new(vec![AttrId(0), AttrId(0)]).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut r = Relation::new(vec![AttrId(0), AttrId(1)]).unwrap();
        assert!(r.push_row(&[1]).is_err());
        assert!(r.push_row(&[1, 2, 3]).is_err());
        assert!(r.push_row(&[1, 2]).is_ok());
    }

    #[test]
    fn dictionary_codes_are_dense_and_decodable() {
        let mut r = Relation::new(vec![AttrId(0), AttrId(1)]).unwrap();
        r.push_row(&[700, 9]).unwrap();
        r.push_row(&[u32::MAX, 9]).unwrap();
        r.push_row(&[700, 0]).unwrap();
        assert_eq!(r.domain(AttrId(0)).unwrap(), &[700, u32::MAX]);
        assert_eq!(r.domain(AttrId(1)).unwrap(), &[9, 0]);
        assert_eq!(r.column_codes(AttrId(0)).unwrap(), &[0, 1, 0]);
        assert_eq!(r.code_of(AttrId(0), u32::MAX).unwrap(), Some(1));
        assert_eq!(r.code_of(AttrId(0), 3).unwrap(), None);
        assert!(r.code_of(AttrId(7), 3).is_err());
        // The decoded view round-trips the raw values untouched.
        assert_eq!(r.row(1), &[u32::MAX, 9]);
    }

    #[test]
    fn projection_dedups() {
        let r = sample();
        let pa = r.project(&AttrSet::singleton(AttrId(0))).unwrap();
        assert_eq!(pa.len(), 2);
        let pac = r.project(&AttrSet::from_ids([0, 2])).unwrap();
        assert_eq!(pac.len(), 2); // (0,0) and (1,1) only
        let pall = r.project(&AttrSet::range(3)).unwrap();
        assert_eq!(pall.len(), 4);
    }

    #[test]
    fn projection_multiset_keeps_duplicates() {
        let r = sample();
        let pa = r.project_multiset(&AttrSet::singleton(AttrId(0))).unwrap();
        assert_eq!(pa.len(), 4);
        assert!(!pa.is_set());
        assert_eq!(pa.distinct().len(), 2);
    }

    #[test]
    fn project_unknown_attr_errors() {
        let r = sample();
        assert!(r.project(&AttrSet::singleton(AttrId(7))).is_err());
        assert!(r.project_multiset(&AttrSet::singleton(AttrId(7))).is_err());
    }

    #[test]
    fn selection_filters_rows() {
        let r = sample();
        let s = r.select_eq(AttrId(0), 1).unwrap();
        assert_eq!(s.len(), 2);
        for row in s.iter_rows() {
            assert_eq!(row[0], 1);
        }
        assert_eq!(r.select_eq(AttrId(0), 99).unwrap().len(), 0);
        assert!(r.select_eq(AttrId(5), 0).is_err());
    }

    #[test]
    fn group_counts_match_manual_counts() {
        let r = sample();
        let g = r.group_counts(&AttrSet::singleton(AttrId(1))).unwrap();
        assert_eq!(g.total, 4);
        assert_eq!(g.num_groups(), 2);
        assert_eq!(g.count_of(&[0]), 2);
        assert_eq!(g.count_of(&[1]), 2);
        assert_eq!(g.count_of(&[9]), 0);
        let g2 = r.group_counts(&AttrSet::range(3)).unwrap();
        assert_eq!(g2.num_groups(), 4);
        assert!(g2.iter().all(|(_, c)| c == 1));
    }

    #[test]
    fn group_counts_expose_decoded_and_code_views() {
        let mut r = Relation::new(vec![AttrId(0), AttrId(1)]).unwrap();
        r.push_row(&[500, 7]).unwrap();
        r.push_row(&[500, 7]).unwrap();
        r.push_row(&[600, 7]).unwrap();
        let g = r.group_counts(&AttrSet::from_ids([0, 1])).unwrap();
        assert_eq!(g.arity(), 2);
        assert_eq!(g.num_groups(), 2);
        // First-appearance order: (500,7) then (600,7).
        assert_eq!(g.key(0), &[500, 7]);
        assert_eq!(g.key(1), &[600, 7]);
        assert_eq!(g.key_codes(0), &[0, 0]);
        assert_eq!(g.key_codes(1), &[1, 0]);
        assert_eq!(g.counts(), &[2, 1]);
        assert_eq!(g.count_of(&[500, 7]), 2);
    }

    #[test]
    fn group_ids_expose_codes_and_decode() {
        let r = sample();
        let attrs = AttrSet::from_ids([0, 2]);
        let ids = r.group_ids(&attrs).unwrap();
        assert_eq!(ids.num_groups(), 2);
        assert_eq!(ids.total(), 4);
        assert_eq!(ids.group_codes().len(), 2 * 2);
        let decoded = crate::GroupKernel::decode_group_counts(&r, &ids);
        assert_eq!((decoded.key(0), decoded.key(1)), (&[0, 0][..], &[1, 1][..]));
        // Rows with equal projections share an id; counts are per group.
        assert_eq!(ids.row_ids(), &[0, 0, 1, 1]);
        assert_eq!(ids.counts(), &[2, 2]);
    }

    /// Each of the kernel's three key paths — dense table, packed `u64`,
    /// boxed wide tuple — numbers groups exactly like a naive
    /// first-appearance scan, and so do the refinement of a one-column
    /// grouping through the same path and the shard merge of the wide
    /// relation (whose interner boxes its keys too).
    #[test]
    fn grouping_kernel_paths_agree() {
        use crate::context::GroupSource;
        fn naive(r: &Relation) -> (Vec<u32>, Vec<u64>, Vec<u32>) {
            let cols: Vec<&[u32]> = r
                .schema()
                .iter()
                .map(|&a| r.column_codes(a).unwrap())
                .collect();
            let mut seen: Vec<Vec<u32>> = Vec::new();
            let (mut ids, mut counts) = (Vec::new(), Vec::new());
            for i in 0..r.len() {
                let key: Vec<u32> = cols.iter().map(|c| c[i]).collect();
                let id = seen.iter().position(|k| *k == key).unwrap_or_else(|| {
                    seen.push(key);
                    counts.push(0);
                    seen.len() - 1
                });
                counts[id] += 1;
                ids.push(id as u32);
            }
            (ids, counts, seen.concat())
        }
        // (columns, rows, value of column j at row i); rows repeat with
        // period 150, so every relation has duplicate tuples.
        type Gen = fn(u32, u32) -> u32;
        let cases: [(&str, u32, u32, Gen); 3] = [
            ("dense", 2, 200, |i, j| (i * (j + 3)) % 7),
            ("packed", 2, 300, |i, j| ((i % 150) * (2 * j + 1)) % 151),
            ("boxed", 9, 300, |i, j| ((i % 150) * (2 * j + 1)) % 151),
        ];
        for (path, arity, rows, value) in cases {
            let mut r = Relation::new((0..arity).map(AttrId).collect()).unwrap();
            for i in 0..rows {
                let row: Vec<Value> = (0..arity).map(|j| value(i, j)).collect();
                r.push_row(&row).unwrap();
            }
            let domains: Vec<usize> = r
                .schema()
                .iter()
                .map(|&a| r.domain(a).unwrap().len())
                .collect();
            let radix: u128 = domains.iter().map(|&d| d as u128).product();
            let bits: u32 = domains.iter().map(|&d| bit_width(d)).sum();
            let forced = match path {
                "dense" => radix <= dense_cap(r.len()),
                "packed" => radix > dense_cap(r.len()) && bits <= 64,
                _ => bits > 64,
            };
            assert!(forced, "{path}: domains {domains:?} miss the path");
            let (ids, counts, codes) = naive(&r);
            assert!(counts.len() < r.len(), "{path}: no duplicate tuples");
            let check = |how: &str, got: &GroupIds| {
                assert_eq!(got.row_ids(), &ids[..], "{path} {how}");
                assert_eq!(got.counts(), &counts[..], "{path} {how}");
                assert_eq!(got.group_codes(), &codes[..], "{path} {how}");
            };
            check("kernel", &r.group_ids(&r.attrs()).unwrap());
            // Refining the first column's grouping by the other columns:
            // a one-column grouping has one group per code, so the pair
            // table has the kernel's radix and key width and takes its
            // path (above the dense cap for "packed").
            let base = r.group_ids(&AttrSet::from_ids([0])).unwrap();
            let extra: Vec<(&[u32], usize)> = r.columns[1..].iter().map(Column::key).collect();
            check("refined", &refine_ids(&r.attrs(), &base, &extra).unwrap());
            if path == "boxed" {
                let sharded = r.clone().into_shards(3).unwrap();
                check("merged", &sharded.group_ids(&r.attrs()).unwrap());
            }
        }
    }

    #[test]
    fn set_semantics_helpers() {
        let r = sample();
        assert!(r.is_set());
        assert!(r.contains_row(&[0, 1, 0]));
        assert!(!r.contains_row(&[9, 9, 9]));
        assert!(!r.contains_row(&[0, 1]));
        let mut dup = r.clone();
        dup.push_row(&[0, 0, 0]).unwrap();
        assert!(!dup.is_set());
        assert_eq!(dup.distinct().len(), 4);
        assert!(dup.set_eq(&r));
        assert!(r.is_subset_of(&dup));
    }

    #[test]
    fn subset_requires_same_attrs() {
        let r = sample();
        let p = r.project(&AttrSet::from_ids([0, 1])).unwrap();
        assert!(!p.is_subset_of(&r));
    }

    #[test]
    fn canonicalize_sorts_rows_and_columns() {
        let (a, b, _c) = abc();
        let r1 = Relation::from_rows(vec![b, a], &[&[5, 1][..], &[4, 0][..]]).unwrap();
        let r2 = Relation::from_rows(vec![a, b], &[&[0, 4][..], &[1, 5][..]]).unwrap();
        assert_eq!(r1.canonicalize().row(0), r2.canonicalize().row(0));
        assert_eq!(r1.canonicalize().schema(), r2.canonicalize().schema());
        assert!(r1.set_eq(&r2));
    }

    #[test]
    fn reorder_columns_roundtrip() {
        let r = sample();
        let reordered = r
            .reorder_columns(&[AttrId(2), AttrId(0), AttrId(1)])
            .unwrap();
        assert_eq!(reordered.row(0), &[0, 0, 0]);
        assert_eq!(reordered.row(2), &[1, 1, 0]);
        assert!(reordered.set_eq(&r));
        assert!(r.reorder_columns(&[AttrId(0), AttrId(1)]).is_err());
        // The reordered relation's columnar view stays coherent.
        assert_eq!(
            reordered.domain(AttrId(2)).unwrap(),
            r.domain(AttrId(2)).unwrap()
        );
        assert!(reordered.is_set());
    }

    #[test]
    fn active_domain_size_counts_distinct_values() {
        let r = sample();
        assert_eq!(r.active_domain_size(AttrId(0)).unwrap(), 2);
        assert_eq!(r.active_domain_size(AttrId(2)).unwrap(), 2);
        assert!(r.active_domain_size(AttrId(9)).is_err());
        assert!(r.domain(AttrId(9)).is_err());
    }

    #[test]
    fn empty_relation_behaviour() {
        let r = Relation::new(vec![AttrId(0)]).unwrap();
        assert!(r.is_empty());
        assert!(r.is_set());
        assert_eq!(r.project(&AttrSet::singleton(AttrId(0))).unwrap().len(), 0);
        assert_eq!(r.iter_rows().count(), 0);
        assert_eq!(r.domain(AttrId(0)).unwrap().len(), 0);
        let ids = r.group_ids(&AttrSet::empty()).unwrap();
        assert_eq!(ids.num_groups(), 0);
    }

    #[test]
    fn zero_arity_grouping_is_one_group() {
        let r = sample();
        let ids = r.group_ids(&AttrSet::empty()).unwrap();
        assert_eq!(ids.num_groups(), 1);
        assert_eq!(ids.counts(), &[4]);
        let counts = r.group_counts(&AttrSet::empty()).unwrap();
        assert_eq!(counts.count_of(&[]), 4);
    }

    #[test]
    fn display_mentions_schema_and_size() {
        let r = sample();
        let s = format!("{r}");
        assert!(s.contains("X0"));
        assert!(s.contains("4 rows"));
    }

    #[test]
    fn bit_width_boundaries() {
        assert_eq!(bit_width(1), 0);
        assert_eq!(bit_width(2), 1);
        assert_eq!(bit_width(3), 2);
        assert_eq!(bit_width(4), 2);
        assert_eq!(bit_width(5), 3);
        assert_eq!(bit_width(u32::MAX as usize), 32);
        // A full 2^32-entry dictionary must not wrap to width 0.
        assert_eq!(bit_width(1usize << 32), 32);
    }
}
