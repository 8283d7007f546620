//! Live (append-while-analyzing) analysis over an epoch-snapshot store.
//!
//! The borrow-based [`Analyzer`] pins one immutable source for its whole
//! life — fine for one-shot analysis, structurally incapable of serving
//! "did last hour's batch break the mined schema?".  [`LiveAnalyzer`]
//! closes that gap with the two-tier incremental design of the relation
//! layer:
//!
//! * **Per-shard tier** (`(shard, AttrSet)`): every
//!   [`ajd_relation::RelationShard`] caches its own globally-remapped group
//!   tables.  Shards are immutable and `Arc`-shared across epochs, so these
//!   tables survive every append.
//! * **Merged tier** (`(epoch, AttrSet)`): the [`ShardedStore`] installs
//!   each epoch together with a new
//!   [`AnalysisContext`](ajd_relation::AnalysisContext) over its
//!   `Arc<ShardedRelation>` snapshot, which caches merged whole-relation
//!   results.  The new context is seeded with the previous epoch's merged
//!   tables, so refilling a warm attribute set costs one per-shard compute
//!   (the appended shard) merged at the tail of the old table — never a
//!   re-merge of the older shards, let alone a re-group of the world.
//!
//! A `LiveAnalyzer` is a store handle plus a thread budget and keeps no
//! state of its own: the store owns each epoch's context, so every handle
//! over one store — and every pin of one epoch — shares its merged tier.
//! Readers call [`LiveAnalyzer::pin`] and get an epoch-consistent
//! [`Analyzer`] handle: every measure they run answers against one snapshot
//! even while appends land concurrently.  Writers call
//! [`LiveAnalyzer::append_shard`]; the store's swap is built on
//! [`ajd_sync`] primitives and model-checked
//! (`ajd-relation/tests/model_snapshot.rs`).
//!
//! ```
//! use ajd_core::LiveAnalyzer;
//! use ajd_relation::{AttrId, AttrSet, Relation};
//!
//! let schema = vec![AttrId(0), AttrId(1)];
//! let first = Relation::from_rows(schema.clone(), &[&[1, 1][..], &[2, 1][..]]).unwrap();
//! let live = LiveAnalyzer::from_initial_shard(first).unwrap();
//!
//! let y = AttrSet::singleton(AttrId(0));
//! let reader = live.pin();                       // epoch 1
//! let h1 = reader.entropy(&y).unwrap();
//!
//! let batch = Relation::from_rows(schema, &[&[3, 2][..]]).unwrap();
//! live.append_shard(batch).unwrap();             // epoch 2 installed
//!
//! assert_eq!(reader.entropy(&y).unwrap(), h1);   // pinned reader: unchanged
//! assert!(live.pin().entropy(&y).unwrap() > h1); // fresh pin sees the append
//! assert_eq!(live.stats().epoch, 2);
//! ```

use crate::analysis::Analyzer;
use ajd_relation::{
    CacheStats, Relation, Result, ShardedRelation, ShardedStore, ThreadBudget, TierStats,
};
use std::sync::Arc;

/// Incremental-aware cache counters of a [`LiveAnalyzer`], split by tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Epoch of the currently installed snapshot.
    pub epoch: u64,
    /// Merged-result tier: the current epoch's
    /// [`AnalysisContext`](ajd_relation::AnalysisContext) counters.  Reset
    /// on every epoch bump (each epoch has its own context, whose fills of
    /// seeded sets count as `extended`).
    pub merged: CacheStats,
    /// Per-shard tier: group-table counters summed over the current
    /// snapshot's shards.  Survives epoch bumps — after an append, a warm
    /// attribute set groups exactly the new shard (one miss), and the
    /// older shards are not consulted: the seeded merged table already
    /// covers them.
    pub shards: TierStats,
}

/// An analyzer over a live, append-only sharded relation: readers pin
/// epoch-consistent [`Analyzer`] snapshots while appends install the next
/// epoch.  See the [module docs](self) for the two-tier cache design.
#[derive(Debug)]
pub struct LiveAnalyzer {
    store: Arc<ShardedStore>,
    /// Budget of every pinned analyzer.
    budget: ThreadBudget,
}

impl LiveAnalyzer {
    /// Wraps an existing relation (at whatever epoch it carries) with the
    /// default [`ThreadBudget`].
    pub fn new(initial: ShardedRelation) -> Self {
        Self::from_store(Arc::new(ShardedStore::new(initial)))
    }

    /// A live analyzer whose first shard is `first` (epoch 1).
    pub fn from_initial_shard(first: Relation) -> Result<Self> {
        Ok(Self::from_store(Arc::new(
            ShardedStore::from_initial_shard(first)?,
        )))
    }

    /// Wraps a shared [`ShardedStore`]: several live analyzers — or other
    /// writers — may append through the same store, and each sees every
    /// append at once.
    pub fn from_store(store: Arc<ShardedStore>) -> Self {
        Self::with_thread_budget(store, ThreadBudget::default())
    }

    /// Like [`LiveAnalyzer::from_store`] with an explicit miss-computation
    /// budget for every pinned analyzer.
    pub fn with_thread_budget(store: Arc<ShardedStore>, budget: ThreadBudget) -> Self {
        LiveAnalyzer { store, budget }
    }

    /// The underlying snapshot store.
    pub fn store(&self) -> &Arc<ShardedStore> {
        &self.store
    }

    /// An epoch-consistent [`Analyzer`] handle over the newest installed
    /// snapshot.  It shares the epoch's context (merged-result cache) with
    /// every other pin of the same epoch, and the snapshot's per-shard
    /// tables with every epoch; appends landing later never disturb it.
    pub fn pin(&self) -> Analyzer<Arc<ShardedRelation>> {
        Analyzer::from_context(self.store.context(), self.budget)
    }

    /// Epoch of the currently installed snapshot.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// Appends `shard` as a new epoch through the store, returning the
    /// installed snapshot's epoch.  All-or-nothing: on error the current
    /// epoch stays installed.
    pub fn append_shard(&self, shard: Relation) -> Result<u64> {
        Ok(self.store.append_shard(shard)?.epoch())
    }

    /// Incremental-aware counters: current epoch, merged-tier cache stats
    /// (this epoch's context) and per-shard-tier stats (survive appends).
    pub fn stats(&self) -> LiveStats {
        let ctx = self.store.context();
        LiveStats {
            epoch: ctx.source().epoch(),
            merged: ctx.stats(),
            shards: ctx.source().shard_cache_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajd_relation::{AttrId, AttrSet, GroupSource};

    fn schema() -> Vec<AttrId> {
        vec![AttrId(0), AttrId(1)]
    }

    fn batch(rows: &[[u32; 2]]) -> Relation {
        let rows: Vec<&[u32]> = rows.iter().map(|r| &r[..]).collect();
        Relation::from_rows(schema(), &rows).unwrap()
    }

    fn bag(ids: &[u32]) -> AttrSet {
        AttrSet::from_ids(ids.iter().copied())
    }

    #[test]
    fn pinned_readers_survive_appends() {
        let live = LiveAnalyzer::from_initial_shard(batch(&[[1, 1], [2, 1]])).unwrap();
        let reader = live.pin();
        let y = bag(&[0]);
        let h_before = reader.entropy(&y).unwrap();
        live.append_shard(batch(&[[3, 2], [4, 2]])).unwrap();
        assert_eq!(reader.entropy(&y).unwrap().to_bits(), h_before.to_bits());
        assert_eq!(reader.source().len(), 2);
        let fresh = live.pin();
        assert_eq!(fresh.source().len(), 4);
        assert_eq!(fresh.source().epoch(), 2);
        assert_eq!(live.epoch(), 2);
    }

    #[test]
    fn failed_append_keeps_the_current_epoch() {
        let live = LiveAnalyzer::from_initial_shard(batch(&[[1, 1]])).unwrap();
        let wrong = Relation::new(vec![AttrId(0), AttrId(9)]).unwrap();
        assert!(live.append_shard(wrong).is_err());
        assert_eq!(live.epoch(), 1);
        assert_eq!(live.pin().source().len(), 1);
    }

    /// The acceptance criterion of the incremental design, at the core
    /// layer: appending one shard to a k-shard relation with a warm
    /// analyzer re-groups exactly the new shard — per-shard misses grow by
    /// 1 per warm attribute set, not k+1 — the new epoch extends the old
    /// epoch's tables by it without consulting an older shard, and the
    /// merged result is bit-identical to a cold from-scratch
    /// `ShardedRelation`, at every shard × thread combination.
    #[test]
    fn append_regroups_exactly_the_new_shard_per_cached_set() {
        let sets = [bag(&[0]), bag(&[1]), bag(&[0, 1])];
        for k in [1usize, 2, 3, 5] {
            for threads in [1usize, 4] {
                let base: Vec<[u32; 2]> = (0..12u32).map(|i| [i % 5, (i * i) % 3]).collect();
                let flat = batch(&base);
                let store = Arc::new(ShardedStore::new(flat.clone().into_shards(k).unwrap()));
                let live = LiveAnalyzer::with_thread_budget(store, ThreadBudget::new(threads));

                // Warm the merged tier (and thereby the per-shard tier).
                let warm = live.pin();
                for attrs in &sets {
                    warm.entropy(attrs).unwrap();
                }
                let warm_stats = live.stats();
                assert_eq!(warm_stats.shards.misses, (k * sets.len()) as u64);

                // Append one shard; re-run the same sets on a fresh pin.
                let extra: Vec<[u32; 2]> = vec![[7, 2], [1, 0], [9, 1]];
                live.append_shard(batch(&extra)).unwrap();
                let pinned = live.pin();
                for attrs in &sets {
                    pinned.entropy(attrs).unwrap();
                }
                let after = live.stats();
                assert_eq!(after.epoch, warm_stats.epoch + 1);
                assert_eq!(
                    after.shards.misses - warm_stats.shards.misses,
                    sets.len() as u64,
                    "k={k} threads={threads}: exactly one per-shard compute \
                     (the appended shard) per warm attribute set"
                );
                assert_eq!(
                    after.shards.hits, 0,
                    "k={k} threads={threads}: no pre-existing shard is consulted"
                );
                // The new epoch's context extended each set's count table
                // of the old epoch once: no kernel run, no derivation.
                assert_eq!(
                    (
                        after.merged.misses,
                        after.merged.derived,
                        after.merged.extended
                    ),
                    (0, 0, sets.len() as u64)
                );

                // Bit-identity against a cold from-scratch sharded relation
                // over the same rows.
                let mut grown = flat.clone();
                for row in &extra {
                    grown.push_row(row).unwrap();
                }
                let cold = grown.into_shards(k + 1).unwrap();
                let cold_rel = cold.collect().unwrap();
                for attrs in &sets {
                    let a = pinned.group_ids(attrs).unwrap();
                    let b = cold_rel.group_ids(attrs).unwrap();
                    assert_eq!(a.row_ids(), b.row_ids(), "k={k} threads={threads}");
                    assert_eq!(a.counts(), b.counts(), "k={k} threads={threads}");
                }
            }
        }
    }

    /// Two handles over one store see an append at once and pin one
    /// shared context per epoch: the store owns each epoch's merged tier.
    #[test]
    fn two_live_analyzers_share_one_store_and_its_contexts() {
        let store = Arc::new(ShardedStore::from_initial_shard(batch(&[[1, 1]])).unwrap());
        let a = LiveAnalyzer::from_store(Arc::clone(&store));
        let b = LiveAnalyzer::with_thread_budget(Arc::clone(&store), ThreadBudget::serial());
        let y = bag(&[0]);
        a.pin().entropy(&y).unwrap();
        assert_eq!(b.stats().merged.misses, 1, "b reads a's epoch-1 tier");
        assert_eq!(a.append_shard(batch(&[[2, 2]])).unwrap(), 2);
        assert_eq!(b.epoch(), 2, "b sees a's append without a refresh");
        let ctx = store.context();
        assert!(Arc::ptr_eq(&a.store().context(), &ctx));
        assert!(Arc::ptr_eq(&b.store().context(), &ctx));
        let (pa, pb) = (a.pin(), b.pin());
        assert!(std::ptr::eq(pa.context(), Arc::as_ptr(&ctx)));
        assert!(std::ptr::eq(pb.context(), Arc::as_ptr(&ctx)));
        assert!(
            pb.thread_budget().is_serial(),
            "each handle keeps its budget"
        );
        assert_eq!(pb.source().len(), 2);
        pa.entropy(&y).unwrap();
        pb.entropy(&y).unwrap();
        let merged = b.stats().merged;
        assert_eq!(
            (merged.misses, merged.extended, merged.hits),
            (0, 1, 1),
            "epoch 2 extends epoch 1's table once for both handles"
        );
    }

    #[test]
    fn stats_report_epoch_and_both_tiers() {
        let live = LiveAnalyzer::from_initial_shard(batch(&[[1, 1], [2, 2]])).unwrap();
        let zero = live.stats();
        assert_eq!(zero.epoch, 1);
        assert_eq!(zero.merged, CacheStats::default());
        assert_eq!(zero.shards, TierStats::default());
        live.pin().entropy(&bag(&[0])).unwrap();
        let warm = live.stats();
        assert_eq!(warm.merged.misses, 1);
        assert_eq!(warm.shards.misses, 1);
        assert_eq!(warm.shards.entries, 1);
    }
}
