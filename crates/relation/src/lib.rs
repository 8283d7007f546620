//! # ajd-relation
//!
//! Relational substrate for the reproduction of *"Quantifying the Loss of
//! Acyclic Join Dependencies"* (Kenig & Weinberger, PODS 2023).
//!
//! The paper works with relation instances `R` over an attribute set
//! `Ω = {X₁,…,Xₙ}`, their projections `R[Y]` for `Y ⊆ Ω`, and the natural
//! join of those projections.  This crate provides exactly that machinery,
//! tuned for the workloads of the paper (dense, dictionary-encoded domains,
//! relations from thousands to millions of tuples):
//!
//! * [`AttrId`] / [`AttrSet`] — attributes and sorted attribute sets with the
//!   usual set algebra (union, intersection, difference).
//! * [`Catalog`] — optional human-readable attribute names and per-attribute
//!   label dictionaries for ingesting labelled data.
//! * [`Relation`] — a **columnar, dictionary-encoded** relation store: each
//!   attribute owns a per-column dictionary (raw value → dense `u32` code)
//!   and a flat code column, while a row-major decoded mirror keeps the
//!   familiar tuple API.  Projection, grouping, deduplication and joins all
//!   run on the integer codes (dense mixed-radix counting or packed-`u64`
//!   hashing — never a heap-allocated key per row).
//! * [`GroupIds`] / [`GroupCounts`] — a grouping as dense interned ids
//!   (with per-row labels, or without them as a count table), and its
//!   multiplicities with decoded keys, built at the call.
//! * [`join`] — natural joins over remapped dictionary codes, and the
//!   materialised loss they give.
//! * [`GroupSource`] — the capability trait the measure stack is generic
//!   over: a plain [`Relation`] computes groupings fresh, an
//!   [`AnalysisContext`] memoizes them, and both run the same kernel so the
//!   results are bit-identical.
//! * [`ThreadBudget`] — the single parallelism knob: the grouping kernel
//!   ([`Relation::group_ids_with`]) shards its row scan across a thread
//!   budget and merges chunk results in chunk order, so parallel groupings
//!   are **bit-identical** to serial ones; [`parallel::fan_out`], the one
//!   ordered fan-out, spreads chunks, shards and whole analyses over it;
//!   [`AnalysisContext`] computes its cache misses under the budget its
//!   caller passes per lookup, with per-key single-flight (at most one
//!   thread ever computes a given attribute set).
//! * [`ShardedRelation`] — an ordered list of self-contained
//!   [`RelationShard`]s (each a columnar [`Relation`] with its own
//!   dictionaries) that groups shard-locally and merges per-shard group
//!   tables in shard order, so every grouping — and therefore every measure
//!   in the workspace — is **bit-identical** to the flat relation at any
//!   shard count and any thread budget.  Shards are `Arc`-shared and carry
//!   per-shard group-table caches, so appends are incremental: only the new
//!   shard is ever regrouped.
//! * [`ShardedStore`] — an epoch-snapshot handle over a [`ShardedRelation`]:
//!   readers pin immutable snapshots at one epoch, and share its one
//!   [`AnalysisContext`], while a writer installs the next epoch with its
//!   context (copy-on-append, built on `ajd-sync` primitives).
//! * [`hash`] — a small Fx-style hasher used for all residual hashing (the
//!   default SipHash is needlessly slow for short integer keys).
//!
//! Everything is deterministic: group ids follow first-appearance order
//! (regardless of the thread budget) and iteration orders that can affect
//! results (e.g. canonical forms) are explicitly sorted.
//!
//! ## Example
//!
//! ```
//! use ajd_relation::{AttrId, AttrSet, Relation};
//!
//! // R(A,B,C) with three tuples.
//! let a = AttrId(0); let b = AttrId(1); let c = AttrId(2);
//! let r = Relation::from_rows(vec![a, b, c], &[
//!     &[0, 0, 1][..],
//!     &[0, 1, 1][..],
//!     &[1, 0, 0][..],
//! ]).unwrap();
//!
//! // Project onto {A,B} and join back with the projection onto {B,C}.
//! let rab = r.project(&AttrSet::from_slice(&[a, b])).unwrap();
//! let rbc = r.project(&AttrSet::from_slice(&[b, c])).unwrap();
//! let joined = ajd_relation::join::natural_join(&rab, &rbc).unwrap();
//! assert!(joined.len() >= r.len());            // the join may add spurious tuples
//! assert!(r.is_subset_of(&joined));            // but never loses any
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod attr;
pub mod catalog;
pub mod context;
pub mod error;
pub mod hash;
pub mod io;
pub mod join;
pub mod parallel;
pub mod relation;
pub mod shard;
pub mod snapshot;

pub use attr::{AttrId, AttrSet};
pub use catalog::{Catalog, ValueDict};
pub use context::{AnalysisContext, CacheStats, GroupKernel, GroupSource, TierStats};
pub use error::{RelationError, Result};
pub use io::{
    read_delimited, read_delimited_from, read_delimited_sharded, write_delimited,
    write_delimited_to, ReadOptions, ShardPolicy,
};
pub use parallel::ThreadBudget;
pub use relation::{GroupCounts, GroupIds, Relation, RowIter, Value};
pub use shard::{RelationShard, ShardedRelation};
pub use snapshot::ShardedStore;
