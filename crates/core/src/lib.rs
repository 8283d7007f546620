//! # ajd-core
//!
//! The user-facing API of the reproduction of *"Quantifying the Loss of
//! Acyclic Join Dependencies"* (Kenig & Weinberger, PODS 2023).
//!
//! The crate is built around one idea: **every quantity the paper defines
//! reduces to group counts over projections of one relation**, so there is
//! one owner for that cached state and one API to route through —
//! [`Analyzer`]:
//!
//! * [`Analyzer::new`] binds a relation and owns the shared
//!   [`ajd_relation::AnalysisContext`];
//! * scalar measures ([`Analyzer::entropy`], [`Analyzer::cmi`],
//!   [`Analyzer::mvd_cmi`], …), tree measures ([`Analyzer::loss`],
//!   [`Analyzer::j_measure`], [`Analyzer::kl`], [`Analyzer::join_size`]),
//!   MVD measures ([`Analyzer::mvd_loss`], [`Analyzer::mvd_holds`]) and the
//!   full [`Analyzer::analyze`] report all answer from the same memoized
//!   groupings;
//! * [`Analyzer::analyze_all`] (and [`Analyzer::j_measures`],
//!   [`Analyzer::losses`], [`Analyzer::join_sizes`]) fans many trees out
//!   over the workers of `ajd_relation::parallel::fan_out`, sharing the
//!   same cache and splitting the analyzer's one
//!   [`ajd_relation::ThreadBudget`] between the fan-out and the grouping
//!   kernel;
//! * [`Analyzer::mine`] runs *approximate acyclic schema discovery* — the
//!   motivating application (Kenig et al., SIGMOD 2020): a Chow–Liu style
//!   spanning-tree miner over pairwise mutual information, followed by
//!   greedy bag merging to drive the J-measure below a target
//!   ([`SchemaMiner`] exposes the pieces individually);
//! * [`LiveAnalyzer`] serves the same measures over a **live, append-only**
//!   sharded relation: readers pin epoch-consistent snapshots while appends
//!   install the next epoch, and the two-tier cache (per-shard group
//!   tables plus per-epoch merged results) makes each append cost one
//!   shard's grouping, not the world's.
//!
//! The free functions in `ajd-info` / `ajd-jointree` remain available for
//! one-shot use (`j_measure(&r, &tree)`); they are the same generic code
//! path the analyzer calls, so results are bit-identical either way.
//!
//! ## The estimation tier
//!
//! [`EstimatedAnalyzer`] answers the same measures from a seeded,
//! planned-size row sample in sublinear time, returning every answer as an
//! [`Estimate`] carrying its (ε, δ, seed, sample size) and concentration
//! bound; it falls back to the exact kernel (bit-identically) when the
//! planned sample would cover the relation.  It is built over an
//! [`Analyzer`] ([`EstimatedAnalyzer::from_analyzer`]) and shares that
//! analyzer's caches, so repeated estimates reuse one memoized sample.
//!
//! ```
//! use ajd_core::Analyzer;
//! use ajd_jointree::JoinTree;
//! use ajd_random::generators::bijection_relation;
//! use ajd_relation::{AttrId, AttrSet};
//!
//! // Example 4.1 of the paper.
//! let r = bijection_relation(32);
//! let tree = JoinTree::from_acyclic_schema(&[
//!     AttrSet::singleton(AttrId(0)),
//!     AttrSet::singleton(AttrId(1)),
//! ]).unwrap();
//! let analyzer = Analyzer::new(&r);
//! let report = analyzer.analyze(&tree).unwrap();
//! assert_eq!(report.spurious, 32 * 32 - 32);
//! // Lemma 4.1 is tight on this family: J = log(1 + rho).
//! assert!((report.j_measure - report.log1p_rho).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analysis;
pub mod discovery;
pub mod estimate;
pub mod live;

pub use analysis::{Analyzer, ConfidenceBounds, LossReport, MvdLoss};
pub use discovery::{DiscoveryConfig, MinedSchema, SchemaMiner};
pub use estimate::{BoundKind, Estimate, EstimateConfig, EstimatedAnalyzer};
pub use live::{LiveAnalyzer, LiveStats};
