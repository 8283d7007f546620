//! Seeded inputs shared by the workloads: relations, the attribute catalog,
//! chain-window schemas, request lines and the server harness.
//!
//! Everything here is a pure function of the workload seed.

use crate::stats::Digest;
use ajd_jointree::JoinTree;
use ajd_relation::{AttrId, AttrSet, Catalog, Relation};
use ajd_server::{
    AdmissionConfig, Client, Json, RelationStore, Server, ServerConfig, ShutdownToken,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::net::TcpListener;

/// Rows of every base relation.
pub const ROWS: usize = 200_000;
/// Attributes `x0 … x7`, a noisy Markov chain in that order.
pub const ARITY: usize = 8;
/// Values per attribute.
pub const DOMAIN: u32 = 16;
/// Probability that an attribute ignores its predecessor.
pub const NOISE: f64 = 0.25;

/// A generator for one named input stream of the run.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The generator the schema pools are drawn from.  It ignores the workload
/// seed on purpose: schema shapes set the cost of an op, so fixing them
/// keeps a run's cost composition the same for every seed, while the seed
/// still varies the data, the other request parameters and the op order.
pub fn schema_rng(stream: u64) -> StdRng {
    rng(0x05EE_D5C4_E4A5, stream)
}

/// A seeded `rows × 8` Markov-chain relation (multiset semantics).
pub fn markov(seed: u64, stream: u64, rows: usize) -> Relation {
    ajd_random::generators::markov_chain_relation(
        &mut rng(seed, stream),
        ARITY,
        DOMAIN,
        rows,
        NOISE,
        false,
    )
    .expect("markov-chain parameters are valid")
}

/// Folds every row of `r` into `digest`.
pub fn digest_relation(digest: &mut Digest, r: &Relation) {
    for i in 0..r.len() {
        for &v in r.row(i) {
            digest.u64(u64::from(v));
        }
    }
}

/// Attribute name of column `i`.
pub fn attr_name(i: usize) -> String {
    format!("x{i}")
}

/// The catalog every catalog entry is served with: attributes `x0 … x7`
/// and value labels `"0" … "15"` interned in order, so label `"v"` has
/// code `v` and wire appends encode exactly like the library rows.
pub fn catalog() -> Catalog {
    let mut catalog =
        Catalog::with_attributes((0..ARITY).map(attr_name)).expect("distinct attribute names");
    for a in 0..ARITY {
        for v in 0..DOMAIN {
            catalog
                .intern_value(AttrId::from(a), &v.to_string())
                .expect("attribute is in the catalog");
        }
    }
    catalog
}

/// A chain-window schema: contiguous windows over `x0 … x7` of width 2–4,
/// each overlapping the previous one and reaching past its end.  Windows
/// along a chain always satisfy the running-intersection property.
pub fn chain_window(rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut bags = Vec::new();
    let mut start = 0usize;
    let mut width: usize = rng.random_range(2..=4usize);
    loop {
        let end = (start + width - 1).min(ARITY - 1);
        bags.push((start..=end).collect::<Vec<usize>>());
        if end == ARITY - 1 {
            return bags;
        }
        width = rng.random_range(2..=4usize);
        let overlap: usize = rng.random_range(1..=(width - 1).min(end - start));
        start = end + 1 - overlap;
    }
}

/// `k` distinct attributes, ascending.
pub fn attr_subset(rng: &mut StdRng, k: usize) -> Vec<usize> {
    let mut picked: Vec<usize> = Vec::with_capacity(k);
    while picked.len() < k {
        let a: usize = rng.random_range(0..ARITY);
        if !picked.contains(&a) {
            picked.push(a);
        }
    }
    picked.sort_unstable();
    picked
}

/// The attribute set of column indices `cols`.
pub fn attr_set(cols: &[usize]) -> AttrSet {
    AttrSet::from_slice(&cols.iter().map(|&c| AttrId::from(c)).collect::<Vec<_>>())
}

/// The join tree of a chain-window schema.
pub fn tree_of(bags: &[Vec<usize>]) -> JoinTree {
    let sets: Vec<AttrSet> = bags.iter().map(|b| attr_set(b)).collect();
    JoinTree::from_acyclic_schema(&sets).expect("chain windows are acyclic")
}

/// Every attribute set the measures of `tree` group: its bags, its
/// separators and the full attribute set Ω (deduplicated).
pub fn tree_sets(tree: &JoinTree) -> Vec<AttrSet> {
    let mut sets: Vec<AttrSet> = Vec::new();
    for set in tree
        .bags()
        .iter()
        .cloned()
        .chain(tree.separators())
        .chain(std::iter::once(tree.attributes()))
    {
        if !set.is_empty() && !sets.contains(&set) {
            sets.push(set);
        }
    }
    sets
}

/// `["x1","x4",…]` for column indices.
pub fn names_json(cols: &[usize]) -> Json {
    Json::Arr(cols.iter().map(|&c| Json::str(attr_name(c))).collect())
}

/// A wire schema: an array of bags of attribute names.
pub fn schema_json(bags: &[Vec<usize>]) -> Json {
    Json::Arr(bags.iter().map(|b| names_json(b)).collect())
}

/// One request line.
pub fn request(fields: Vec<(&str, Json)>) -> String {
    Json::obj(fields).to_string()
}

/// The fixed server configuration: one kernel thread per point query and
/// per mining sweep, so a single closed-loop client keeps at most two
/// threads busy.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        admission: AdmissionConfig {
            point_slots: 4,
            mine_slots: 2,
            queue_depth: 64,
            point_threads: 1,
            mine_threads: 1,
        },
    }
}

/// Runs `body` against an in-process server over `stores`, reached through
/// one loopback [`Client`]; the server thread is stopped and joined before
/// this returns.
pub fn with_server<R>(stores: &[RelationStore], body: impl FnOnce(&Server, &mut Client) -> R) -> R {
    let server = Server::new(stores, server_config()).expect("store names are distinct");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    let shutdown = ShutdownToken::new();
    std::thread::scope(|scope| {
        let serving = scope.spawn(|| server.serve(listener, &shutdown));
        let mut client = Client::connect(addr).expect("connect to the in-process server");
        let out = body(&server, &mut client);
        drop(client);
        shutdown.signal(addr);
        serving.join().expect("server thread exits cleanly");
        out
    })
}

/// Sends one line; `None` on a transport failure (counted as a failed op).
pub fn send(client: &mut Client, line: &str) -> Option<Json> {
    client.request_line(line).ok()
}

/// The `f64` field `key` of a successful response frame.
pub fn ok_f64(frame: &Json, key: &str) -> Option<f64> {
    if frame.get("ok").and_then(Json::as_bool) != Some(true) {
        return None;
    }
    frame.get(key).and_then(Json::as_f64)
}

/// Counters read from a `stats` frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStats {
    /// Point-pool requests that had to wait for a slot.
    pub queued: u64,
    /// Point-pool requests refused `busy`.
    pub rejected: u64,
    /// Merged/context-tier hits, summed over the catalog.
    pub hits: u64,
    /// Merged/context-tier misses, summed over the catalog.
    pub misses: u64,
    /// Per-shard-tier misses, summed over sharded entries.
    pub shard_misses: u64,
    /// Completed per-shard group tables, summed over sharded entries.
    pub shard_entries: u64,
}

impl WireStats {
    /// The counter deltas from `before` to `self`.
    pub fn since(&self, before: &WireStats) -> WireStats {
        WireStats {
            queued: self.queued - before.queued,
            rejected: self.rejected - before.rejected,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            shard_misses: self.shard_misses - before.shard_misses,
            shard_entries: self.shard_entries - before.shard_entries,
        }
    }
}

/// Reads the admission and cache counters over the wire.
pub fn wire_stats(client: &mut Client) -> Option<WireStats> {
    let frame = send(client, r#"{"op":"stats"}"#)?;
    let count = |v: Option<&Json>, key: &str| v.and_then(|o| o.get(key)).and_then(Json::as_u64);
    let mut out = WireStats::default();
    for pool in ["point", "mine"] {
        let p = frame.get("admission").and_then(|a| a.get(pool));
        out.queued += count(p, "queued")?;
        out.rejected += count(p, "rejected")?;
    }
    for rel in frame.get("relations")?.as_arr()? {
        out.hits += count(rel.get("cache"), "hits")?;
        out.misses += count(rel.get("cache"), "misses")?;
        if let Some(shard) = rel.get("shard_cache") {
            out.shard_misses += count(Some(shard), "misses")?;
            out.shard_entries += count(Some(shard), "entries")?;
        }
    }
    Some(out)
}

/// Deterministic Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j: usize = rng.random_range(0..=i);
        items.swap(i, j);
    }
}
