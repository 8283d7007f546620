//! # ajd — Quantifying the Loss of Acyclic Join Dependencies
//!
//! Facade crate re-exporting the full public API of the workspace that
//! reproduces *"Quantifying the Loss of Acyclic Join Dependencies"*
//! (Kenig & Weinberger, PODS 2023).
//!
//! The individual crates are:
//!
//! * [`relation`] (`ajd-relation`) — the columnar, dictionary-encoded
//!   relation store: projections, grouping, joins, and the shared
//!   [`relation::AnalysisContext`] / [`relation::GroupSource`] layer.
//! * [`jointree`] (`ajd-jointree`) — acyclic schemas, join trees, GYO, MVD
//!   supports, acyclic join-size counting.
//! * [`info`] (`ajd-info`) — entropies, mutual information, KL divergence,
//!   the J-measure.
//! * [`random`] (`ajd-random`) — the random relation model and structured
//!   relation generators.
//! * [`bounds`] (`ajd-bounds`) — the paper's quantitative bounds.
//! * [`core`] (`ajd-core`) — the context-first [`core::Analyzer`] API:
//!   one owner for the cached state of a relation, one entry point for
//!   every measure, batch fan-out and approximate schema discovery — plus
//!   the sublinear estimation tier ([`core::EstimatedAnalyzer`]), whose
//!   answers are [`core::Estimate`]s carrying their (ε, δ).
//! * [`server`] (`ajd-server`) — loss-as-a-service: a threaded TCP query
//!   front-end over a catalog of relations, speaking the line-delimited
//!   JSON protocol of `docs/PROTOCOL.md`, with budget-aware admission
//!   control and per-relation shared analysis caches.
//!
//! ## Quick start
//!
//! ```
//! use ajd::prelude::*;
//!
//! // Example 4.1 of the paper: a bijection relation R = {(a_i, b_i)}.
//! let r = ajd::random::generators::bijection_relation(8);
//! // The (acyclic) schema {{A},{B}} with a single-edge join tree.
//! let schema = vec![AttrSet::singleton(AttrId(0)), AttrSet::singleton(AttrId(1))];
//! let tree = JoinTree::from_acyclic_schema(&schema).unwrap();
//!
//! // One Analyzer owns the cache; every measure routes through it.
//! let analyzer = Analyzer::new(&r);
//! let report = analyzer.analyze(&tree).unwrap();
//! // For this family the lower bound of Lemma 4.1 is tight:
//! // J = log N = log(1 + rho).
//! assert!((report.j_measure - (report.rho + 1.0).ln()).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ajd_bounds as bounds;
pub use ajd_core as core;
pub use ajd_info as info;
pub use ajd_jointree as jointree;
pub use ajd_random as random;
pub use ajd_relation as relation;
pub use ajd_server as server;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use ajd_bounds::{
        epsilon_star, j_lower_bound_on_loss, loss_upper_bound_from_j, Thm51Params,
    };
    pub use ajd_core::{
        Analyzer, BoundKind, ConfidenceBounds, DiscoveryConfig, Estimate, EstimateConfig,
        EstimatedAnalyzer, LiveAnalyzer, LiveStats, LossReport, MvdLoss, SchemaMiner,
    };
    pub use ajd_info::{conditional_mutual_information, entropy, j_measure, kl_divergence_to_tree};
    pub use ajd_jointree::{count_acyclic_join, JoinTree, Mvd, Schema};
    pub use ajd_random::{generators, ProductDomain, RandomRelationModel};
    pub use ajd_relation::{
        AnalysisContext, AttrId, AttrSet, Catalog, GroupKernel, GroupSource, ReadOptions, Relation,
        RelationShard, ShardPolicy, ShardedRelation, ShardedStore, Value,
    };
    pub use ajd_server::{RelationStore, Server, ServerConfig, ShutdownToken};
}
