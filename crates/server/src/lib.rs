//! Loss-as-a-service: a query front-end over a catalog of relations.
//!
//! `ajd-server` turns the analysis stack of this workspace — exact loss
//! `ρ(R,S)`, the J-measure, entropies, and schema mining, after Kenig &
//! Weinberger, *"Quantifying the Loss of Acyclic Join Dependencies"*
//! (PODS 2023) — into a long-running service: load relations once, keep
//! their single-flight analysis caches hot, and answer queries over a
//! line-delimited JSON protocol on plain TCP (`std::net`, no external
//! dependencies).
//!
//! The wire format is specified in `docs/PROTOCOL.md` at the repository
//! root; the spec's own JSON examples are executed against a live server
//! by the `protocol_spec` integration test, so spec and implementation
//! cannot drift.
//!
//! # Architecture
//!
//! - [`RelationStore`] — one named catalog entry: attribute catalog +
//!   [`ShardedRelation`](ajd_relation::ShardedRelation), loaded from
//!   delimited text/files or wrapped directly.  A flat
//!   [`Relation`](ajd_relation::Relation) is stored as one shard, and its
//!   entry refuses appends.
//! - [`Server`] — borrows the stores, builds one
//!   [`LiveAnalyzer`](ajd_core::LiveAnalyzer) + shared cache per entry,
//!   and dispatches requests.  [`Server::handle_line`] is the
//!   transport-free core; [`Server::serve`] adds the threaded TCP accept
//!   loop.
//! - [`AdmissionConfig`] — budget-aware admission control: point queries
//!   (`loss`/`j`/`entropy`/`analyze`) and heavy `mine` sweeps draw from
//!   separate bounded pools, so a mining burst can never starve cheap
//!   queries; overload is answered with a structured `busy` frame.
//! - [`Client`] — a minimal blocking client for the protocol.
//!
//! # Example (transport-free)
//!
//! The whole protocol is testable without a socket through
//! [`Server::handle_line`]:
//!
//! ```
//! use ajd_server::{RelationStore, Server, ServerConfig};
//! use ajd_relation::ReadOptions;
//!
//! let csv = "course,teacher,room\ndb,ann,r1\ndb,ann,r2\nos,bob,r1\n";
//! let stores = vec![RelationStore::from_delimited("courses", csv, ReadOptions::default())?];
//! let server = Server::new(&stores, ServerConfig::default())?;
//!
//! let frame = server.handle_line(
//!     r#"{"op":"loss","relation":"courses","schema":[["course","teacher"],["course","room"]]}"#,
//! );
//! assert_eq!(frame.get("rho").and_then(|r| r.as_f64()), Some(0.0)); // lossless
//! # Ok::<(), ajd_relation::RelationError>(())
//! ```
//!
//! Over the wire the exchange is identical, one JSON object per line; see
//! [`Client`] and the `serve_catalog` / `query_client` examples.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod admission;
pub mod client;
pub mod json;
pub mod protocol;
pub mod server;
pub mod store;

pub use admission::{Admission, AdmissionConfig, Pool, PoolGuard, PoolStats};
pub use client::Client;
pub use json::{Json, JsonError};
pub use protocol::{ErrorCode, Failure, Request, Rows, PROTOCOL_VERSION};
pub use server::{Server, ServerConfig, ShutdownToken};
pub use store::RelationStore;
