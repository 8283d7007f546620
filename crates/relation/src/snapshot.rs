//! Epoch-snapshot handles over a [`ShardedRelation`]: one writer appends
//! while any number of readers keep a consistent snapshot, and each epoch
//! comes with the one [`AnalysisContext`] every reader of it shares.
//!
//! A [`ShardedRelation`] is copy-on-append — clones share every shard by
//! `Arc`, and [`ShardedRelation::append_shard`] only pushes a new shard
//! (the [epoch](ShardedRelation::epoch) is the shard count).
//! [`ShardedStore`] turns that into a concurrent handle:
//!
//! * [`ShardedStore::context`] hands out the current epoch's
//!   `Arc<AnalysisContext>`, whose source is an `Arc<ShardedRelation>` — an
//!   immutable view at one epoch — and whose caches are that epoch's merged
//!   tier.  Every reader of the epoch shares those caches;
//!   [`ShardedStore::snapshot`] is the context's source alone.  Readers
//!   group, analyze and cache against either for as long as they like;
//!   nothing a writer does can change them.
//! * [`ShardedStore::append_shard`] builds the next version from the
//!   current one (cloning shares all shards **and their warm group-table
//!   caches**), wraps it in a context seeded with the current context's
//!   merged group tables, and installs the pair atomically.  The new
//!   context holds no table of its own yet, but a cold fill of a seeded
//!   set extends the old table by the appended shard instead of
//!   re-merging every shard; the memo tiers (entropies, join sizes,
//!   samples) are recomputed per epoch.  Writers are serialized by a
//!   dedicated mutex so epochs advance by exactly one per append and no
//!   append is ever lost; the swap itself is a single `Arc` store under a
//!   write lock, so a reader observes either the old epoch or the new —
//!   never a torn mixture, and never a context over another epoch's rows
//!   (model-checked in `tests/model_snapshot.rs`).  This swap is the only
//!   place an epoch is installed.
//!
//! The two locks are [`ajd_sync`] primitives, so the whole protocol runs
//! under the `ajd-model` interleaving explorer unchanged.
//!
//! ```
//! use ajd_relation::{AttrId, AttrSet, GroupSource, Relation, ShardedStore};
//! use std::sync::Arc;
//!
//! let schema = vec![AttrId(0), AttrId(1)];
//! let first = Relation::from_rows(schema.clone(), &[&[1, 10][..], &[2, 10][..]]).unwrap();
//! let store = ShardedStore::from_initial_shard(first).unwrap();
//!
//! let reader = store.snapshot();          // pinned at epoch 1
//! let ctx = store.context();              // epoch 1's shared caches
//! let batch = Relation::from_rows(schema, &[&[3, 20][..]]).unwrap();
//! store.append_shard(batch).unwrap();     // writer installs epoch 2
//!
//! assert_eq!(reader.epoch(), 1);          // the pinned view is unchanged…
//! assert_eq!(reader.len(), 2);
//! assert_eq!(ctx.source().len(), 2);
//! let now = store.snapshot();             // …and a fresh snapshot sees the append
//! assert_eq!(now.epoch(), 2);
//! assert_eq!(now.len(), 3);
//! assert!(Arc::ptr_eq(&store.context(), &store.context())); // one context per epoch
//! ```

use crate::attr::AttrId;
use crate::context::AnalysisContext;
use crate::error::Result;
use crate::relation::Relation;
use crate::shard::ShardedRelation;
use ajd_sync::{Mutex, RwLock};
use std::sync::Arc;

/// A concurrent snapshot-swap handle over a [`ShardedRelation`]: readers
/// pin immutable `Arc` snapshots and share each epoch's context, one
/// writer at a time appends the next epoch.  See the [module docs](self)
/// for the protocol.
#[derive(Debug)]
pub struct ShardedStore {
    /// The current epoch's context (its source is the current snapshot);
    /// replaced wholesale by each append.
    current: RwLock<Arc<AnalysisContext<Arc<ShardedRelation>>>>,
    /// Serializes writers: each append clones the latest snapshot, extends
    /// it, and installs the result with its context.  Held across the whole
    /// append so two writers can never both build from the same base (which
    /// would lose one of them at install time).
    writer: Mutex<()>,
}

impl ShardedStore {
    /// Wraps an existing sharded relation (at whatever epoch it carries).
    pub fn new(initial: ShardedRelation) -> Self {
        ShardedStore {
            current: RwLock::new(Arc::new(AnalysisContext::new(Arc::new(initial)))),
            writer: Mutex::new(()),
        }
    }

    /// Creates an empty store over `schema` at epoch 0.
    pub fn empty(schema: Vec<AttrId>) -> Result<Self> {
        Ok(Self::new(ShardedRelation::new(schema)?))
    }

    /// Creates a store whose first shard is `first` (epoch 1).
    pub fn from_initial_shard(first: Relation) -> Result<Self> {
        let mut rel = ShardedRelation::new(first.schema().to_vec())?;
        rel.append_shard(first)?;
        Ok(Self::new(rel))
    }

    /// The current epoch's context: its source is the current snapshot and
    /// its caches are the merged tier every reader of the epoch shares.
    /// Cheap (`Arc` clone under a read lock); later appends install a new
    /// context and never touch this one.
    pub fn context(&self) -> Arc<AnalysisContext<Arc<ShardedRelation>>> {
        Arc::clone(&self.current.read())
    }

    /// The current snapshot: an immutable view at one consistent epoch.
    /// Cheap (`Arc` clone under a read lock); hold it as long as you like —
    /// later appends build new snapshots and never touch this one.
    pub fn snapshot(&self) -> Arc<ShardedRelation> {
        Arc::clone(self.current.read().source())
    }

    /// The current epoch (see [`ShardedRelation::epoch`]).
    pub fn epoch(&self) -> u64 {
        self.current.read().source().epoch()
    }

    /// Appends `shard` as the next epoch, installs it with a new context
    /// and returns the new snapshot.
    ///
    /// The append is **all-or-nothing**: on error (schema mismatch,
    /// dictionary overflow) the current epoch is left installed and
    /// untouched.  Existing shards — and their warm per-shard group
    /// tables — are shared with the new snapshot by `Arc`.  The new
    /// context is seeded, under the writer mutex, with every completed id
    /// and count table of the current context and the seeds it never
    /// consumed, each tagged with the shards it covers, so the new
    /// epoch's first fill of a seeded set computes only the appended
    /// shard's table and extends the old table by it.
    pub fn append_shard(&self, shard: Relation) -> Result<Arc<ShardedRelation>> {
        let _writer = self.writer.lock();
        let current = self.context();
        let mut next = (**current.source()).clone();
        next.append_shard(shard)?;
        let next = Arc::new(next);
        let seeds = current.next_seeds(current.source().num_shards());
        let ctx = Arc::new(AnalysisContext::seeded(Arc::clone(&next), seeds));
        // The old epoch's context is dropped after the write lock is
        // released, so readers never wait on freeing its caches.
        let _old = std::mem::replace(&mut *self.current.write(), ctx);
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrSet;
    use crate::context::GroupSource;

    fn schema() -> Vec<AttrId> {
        vec![AttrId(0), AttrId(1)]
    }

    fn batch(rows: &[[u32; 2]]) -> Relation {
        let rows: Vec<&[u32]> = rows.iter().map(|r| &r[..]).collect();
        Relation::from_rows(schema(), &rows).unwrap()
    }

    #[test]
    fn snapshots_are_pinned_while_appends_advance() {
        let store = ShardedStore::empty(schema()).unwrap();
        assert_eq!(store.epoch(), 0);
        let empty = store.snapshot();
        store.append_shard(batch(&[[1, 10], [2, 10]])).unwrap();
        store.append_shard(batch(&[[3, 20]])).unwrap();
        assert_eq!(store.epoch(), 2);
        assert_eq!(empty.epoch(), 0);
        assert!(empty.is_empty());
        let now = store.snapshot();
        assert_eq!(now.len(), 3);
        assert_eq!(now.num_shards(), 2);
    }

    #[test]
    fn failed_append_leaves_the_current_snapshot_installed() {
        let store = ShardedStore::from_initial_shard(batch(&[[1, 1]])).unwrap();
        let wrong = Relation::new(vec![AttrId(0), AttrId(7)]).unwrap();
        assert!(store.append_shard(wrong).is_err());
        assert_eq!(store.epoch(), 1);
        assert_eq!(store.snapshot().len(), 1);
    }

    #[test]
    fn each_epoch_installs_one_shared_context() {
        let store = ShardedStore::from_initial_shard(batch(&[[1, 10]])).unwrap();
        let first = store.context();
        assert!(Arc::ptr_eq(&first, &store.context()));
        assert!(Arc::ptr_eq(first.source(), &store.snapshot()));
        first.group_ids(&AttrSet::singleton(AttrId(0))).unwrap();
        // A failed append keeps the installed context, caches included.
        assert!(store
            .append_shard(Relation::new(vec![AttrId(5)]).unwrap())
            .is_err());
        assert!(Arc::ptr_eq(&first, &store.context()));
        let snap = store.append_shard(batch(&[[2, 20]])).unwrap();
        let second = store.context();
        assert!(!Arc::ptr_eq(&first, &second));
        assert!(Arc::ptr_eq(second.source(), &snap));
        assert_eq!(second.stats(), crate::context::CacheStats::default());
        assert_eq!((first.source().epoch(), first.stats().misses), (1, 1));
    }

    #[test]
    fn appended_snapshots_share_existing_shards_and_their_caches() {
        let store = ShardedStore::from_initial_shard(batch(&[[1, 10], [2, 20]])).unwrap();
        let before = store.snapshot();
        let attrs = AttrSet::singleton(AttrId(0));
        before.group_ids(&attrs).unwrap(); // warm shard 0's table
        let after = store.append_shard(batch(&[[3, 30]])).unwrap();
        assert!(Arc::ptr_eq(&before.shards()[0], &after.shards()[0]));
        let warm = after.shard_cache_stats();
        assert_eq!(warm.misses, 1, "shard 0's table carried over");
        after.group_ids(&attrs).unwrap();
        let stats = after.shard_cache_stats();
        assert_eq!(stats.misses, 2, "only the new shard computed");
        assert_eq!(stats.hits, 1, "shard 0 answered from its warm table");
    }

    #[test]
    fn new_snapshot_grouping_matches_flat_rebuild() {
        let store = ShardedStore::from_initial_shard(batch(&[[1, 10], [2, 10]])).unwrap();
        store
            .snapshot()
            .group_ids(&AttrSet::from_slice(&schema()))
            .unwrap();
        let after = store.append_shard(batch(&[[1, 20], [2, 10]])).unwrap();
        let flat = after.collect().unwrap();
        let attrs = AttrSet::from_slice(&schema());
        let a = flat.group_ids(&attrs).unwrap();
        let b = after.group_ids(&attrs).unwrap();
        assert_eq!(a.row_ids(), b.row_ids());
        assert_eq!(a.counts(), b.counts());
        assert_eq!(a.group_codes(), b.group_codes());
    }
}
