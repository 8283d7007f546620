//! The server core: per-relation analyzers, request dispatch, and the
//! threaded TCP accept loop.
//!
//! A [`Server`] borrows a slice of [`RelationStore`]s built by the caller
//! and constructs, once at startup, one analyzer per entry: flat stores
//! get a plain [`Analyzer`] (with its shared, single-flight
//! [`AnalysisContext`](ajd_relation::AnalysisContext) cache), sharded
//! stores get a [`LiveAnalyzer`] over an epoch-snapshot
//! [`ShardedStore`].  Every request against the same relation then flows
//! through the same memoized grouping cache — N concurrent cold queries
//! on one attribute set cost exactly one computation, and the `stats`
//! frame proves it with hit/miss counters.
//!
//! Sharded entries are **live**: the `append` op ingests a batch of rows
//! as one new shard and advances the entry's epoch.  Readers keep pinning
//! consistent snapshots while the append installs; thanks to the two-tier
//! cache (per-shard group tables + per-epoch merged results) the first
//! query after an append re-groups only the appended shard, which the
//! per-tier counters in `stats` make observable.
//!
//! Dispatch is transport-free: [`Server::handle_line`] maps one request
//! line to one response frame and is what both the TCP loop and the
//! integration tests call.  [`Server::serve`] adds the wire: a blocking
//! accept loop that spawns one scoped thread per connection, reading
//! line-delimited JSON requests and writing one response line each, in
//! order.  A malformed line is answered with an error frame — the
//! connection is **never** closed on a protocol error.

use crate::admission::{Admission, AdmissionConfig, PoolStats};
use crate::json::Json;
use crate::protocol::{
    error_frame, ok_frame, u128_field, ErrorCode, EstimateTarget, Failure, Request,
};
use crate::store::{RelationStore, StoreData};
use ajd_core::{
    Analyzer, DiscoveryConfig, EstimateConfig, EstimatedAnalyzer, LiveAnalyzer, LossReport,
    SchemaMiner,
};
use ajd_jointree::JoinTree;
use ajd_relation::{AttrSet, CacheStats, Catalog, Relation, ShardedStore, ThreadBudget, TierStats};
use ajd_sync::atomic::{AtomicBool, Ordering};
use ajd_sync::RwLock;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

/// Server tuning knobs.  The admission config sizes the two request-class
/// pools and the per-request kernel thread budgets; see
/// [`AdmissionConfig`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerConfig {
    /// Admission pools and kernel thread budgets.
    pub admission: AdmissionConfig,
}

/// A cooperative stop signal for [`Server::serve`].
///
/// `serve` blocks in `accept`; to stop it, call [`ShutdownToken::signal`]
/// with the listener's address — it sets the flag and opens (then
/// immediately drops) one dummy connection so the accept loop wakes up,
/// observes the flag, and returns after in-flight connections finish.
#[derive(Debug, Default)]
pub struct ShutdownToken {
    flag: AtomicBool,
}

impl ShutdownToken {
    /// A token in the "keep running" state.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` once [`ShutdownToken::signal`] or [`ShutdownToken::request`]
    /// has been called.
    pub fn is_signalled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Sets the shutdown flag without waking any accept loop.
    ///
    /// Use this for in-process shutdown when no listener is blocked in
    /// `accept` (workers that poll [`ShutdownToken::is_signalled`]), or
    /// from tests that exercise the flag without a network.  To stop a
    /// running [`Server::serve`], use [`ShutdownToken::signal`] instead.
    pub fn request(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Requests shutdown of the server accepting on `addr`.
    pub fn signal(&self, addr: SocketAddr) {
        self.request();
        // Unblock the accept loop; the connection is dropped unused.
        drop(TcpStream::connect(addr));
    }
}

/// One catalog entry's long-lived analyzer: the two kernel instantiations
/// the storage layouts need.
///
/// Flat stores are immutable, so their analyzer borrows the relation for
/// the server's lifetime.  Sharded stores are live: the server clones the
/// relation into an epoch-snapshot [`ShardedStore`] (shards are
/// `Arc`-shared, so the clone is cheap) and serves queries through a
/// [`LiveAnalyzer`] whose pinned snapshots survive concurrent appends.
enum EntryAnalyzer<'a> {
    Flat(Analyzer<&'a Relation>),
    Live(LiveAnalyzer),
}

struct Entry<'a> {
    store: &'a RelationStore,
    /// The entry's working catalog.  Appends intern new value labels, so
    /// sharded entries need a writable copy; for flat entries it is simply
    /// a snapshot of the store's catalog (attribute names never change).
    catalog: RwLock<Catalog>,
    analyzer: EntryAnalyzer<'a>,
}

impl Entry<'_> {
    /// Rows and shards as of *now* (a live entry's counts advance with
    /// every append; a flat entry's never do).
    fn rows_and_shards(&self) -> (usize, usize) {
        match &self.analyzer {
            EntryAnalyzer::Flat(_) => {
                (self.store.data().num_rows(), self.store.data().num_shards())
            }
            EntryAnalyzer::Live(live) => {
                let snap = live.store().snapshot();
                (snap.len(), snap.num_shards())
            }
        }
    }
}

/// Runs `$body` with `$an` bound to a reference to the entry's analyzer,
/// whichever kernel it is instantiated over (the body must be generic in
/// the source type).  For live entries this pins the current epoch's
/// snapshot: the whole `$body` answers from one consistent snapshot even
/// if an append lands mid-request.
macro_rules! with_analyzer {
    ($entry:expr, |$an:ident| $body:expr) => {
        match &$entry.analyzer {
            EntryAnalyzer::Flat($an) => $body,
            EntryAnalyzer::Live(live) => {
                let pinned = live.pin();
                let $an = &pinned;
                $body
            }
        }
    };
}

/// The query front-end: a catalog of relations, one shared analysis cache
/// per entry, and budget-aware admission control.
///
/// The server borrows its stores (`'a`), which keeps ownership simple and
/// self-reference-free: build the stores, then the server, then serve.
/// See the crate docs for a complete transport-free example.
pub struct Server<'a> {
    entries: Vec<Entry<'a>>,
    admission: Admission,
    config: AdmissionConfig,
}

impl<'a> Server<'a> {
    /// Builds a server over `stores` (one analyzer + cache per entry).
    ///
    /// Point-query analyzers compute cache misses under the
    /// `point_threads` budget of the (clamped) admission config.  Fails
    /// with [`ErrorCode::InvalidSchema`]-class library errors only if two
    /// stores share a name.
    pub fn new(
        stores: &'a [RelationStore],
        config: ServerConfig,
    ) -> Result<Self, ajd_relation::RelationError> {
        let admission_config = config.admission.clamped();
        let point_budget = ThreadBudget::new(admission_config.point_threads);
        let mut entries = Vec::with_capacity(stores.len());
        for store in stores {
            if entries
                .iter()
                .any(|e: &Entry<'_>| e.store.name() == store.name())
            {
                return Err(ajd_relation::RelationError::SchemaMismatch {
                    detail: format!("duplicate relation name '{}' in catalog", store.name()),
                });
            }
            let analyzer = match store.data() {
                StoreData::Flat(r) => {
                    EntryAnalyzer::Flat(Analyzer::with_thread_budget(r, point_budget))
                }
                StoreData::Sharded(s) => EntryAnalyzer::Live(LiveAnalyzer::with_thread_budget(
                    Arc::new(ShardedStore::new(s.clone())),
                    point_budget,
                )),
            };
            entries.push(Entry {
                store,
                catalog: RwLock::new(store.catalog().clone()),
                analyzer,
            });
        }
        Ok(Server {
            entries,
            admission: Admission::new(&admission_config),
            config: admission_config,
        })
    }

    /// The admission config the server runs with (after clamping).
    pub fn admission_config(&self) -> &AdmissionConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Dispatch (transport-free)
    // ------------------------------------------------------------------

    /// Answers one request line with one response frame.
    ///
    /// This is the whole protocol minus the socket: parse, dispatch,
    /// envelope.  Errors — including a line that is not valid JSON — come
    /// back as structured error frames, never panics.
    pub fn handle_line(&self, line: &str) -> Json {
        let frame = match Json::parse(line) {
            Ok(frame) => frame,
            Err(err) => {
                return error_frame(
                    None,
                    &Failure::new(ErrorCode::BadRequest, format!("invalid JSON: {err}")),
                )
            }
        };
        let (id, parsed) = Request::parse(&frame);
        let request = match parsed {
            Ok(request) => request,
            Err(failure) => return error_frame(id.clone(), &failure),
        };
        match self.dispatch(&request) {
            Ok(fields) => ok_frame(id, fields),
            Err(failure) => error_frame(id, &failure),
        }
    }

    fn dispatch(&self, request: &Request) -> Result<Vec<(String, Json)>, Failure> {
        match request {
            Request::Catalog => Ok(self.catalog_fields()),
            Request::Stats { relation } => self.stats_fields(relation.as_deref()),
            Request::Entropy { relation, attrs } => {
                let _slot = self.admit_point()?;
                let entry = self.find(relation)?;
                let set = entry
                    .catalog
                    .read()
                    .attrs(attrs.iter())
                    .map_err(|e| Failure::from_relation_error(&e))?;
                let nats = with_analyzer!(entry, |an| an.entropy(&set))
                    .map_err(|e| Failure::from_relation_error(&e))?;
                Ok(vec![
                    ("op".to_owned(), Json::str("entropy")),
                    ("relation".to_owned(), Json::str(relation.clone())),
                    (
                        "attrs".to_owned(),
                        Json::Arr(attrs.iter().map(Json::str).collect()),
                    ),
                    ("entropy_nats".to_owned(), Json::Num(nats)),
                ])
            }
            Request::Loss { relation, schema } => {
                let _slot = self.admit_point()?;
                let entry = self.find(relation)?;
                let tree =
                    resolve_schema(&entry.catalog.read(), entry.store.data().arity(), schema)?;
                let rho = with_analyzer!(entry, |an| an.loss(&tree))
                    .map_err(|e| Failure::from_relation_error(&e))?;
                Ok(vec![
                    ("op".to_owned(), Json::str("loss")),
                    ("relation".to_owned(), Json::str(relation.clone())),
                    ("rho".to_owned(), Json::Num(rho)),
                    ("log1p_rho".to_owned(), Json::Num(rho.ln_1p())),
                ])
            }
            Request::JMeasure { relation, schema } => {
                let _slot = self.admit_point()?;
                let entry = self.find(relation)?;
                let tree =
                    resolve_schema(&entry.catalog.read(), entry.store.data().arity(), schema)?;
                let j = with_analyzer!(entry, |an| an.j_measure(&tree))
                    .map_err(|e| Failure::from_relation_error(&e))?;
                Ok(vec![
                    ("op".to_owned(), Json::str("j")),
                    ("relation".to_owned(), Json::str(relation.clone())),
                    ("j_nats".to_owned(), Json::Num(j)),
                ])
            }
            Request::Analyze { relation, schema } => {
                let _slot = self.admit_point()?;
                let entry = self.find(relation)?;
                let tree =
                    resolve_schema(&entry.catalog.read(), entry.store.data().arity(), schema)?;
                let report = with_analyzer!(entry, |an| an.analyze(&tree))
                    .map_err(|e| Failure::from_relation_error(&e))?;
                Ok(vec![
                    ("op".to_owned(), Json::str("analyze")),
                    ("relation".to_owned(), Json::str(relation.clone())),
                    (
                        "report".to_owned(),
                        report_json(&entry.catalog.read(), &report)?,
                    ),
                ])
            }
            Request::Mine {
                relation,
                j_threshold,
                max_bag_size,
            } => {
                let _slot = self.admit_mine()?;
                let entry = self.find(relation)?;
                let mut config = DiscoveryConfig::default();
                if let Some(t) = j_threshold {
                    config.j_threshold = *t;
                }
                if let Some(b) = max_bag_size {
                    config.max_bag_size = *b;
                }
                let miner = SchemaMiner::new(config);
                let mined = with_analyzer!(entry, |an| miner
                    .mine_with(&an.clone().with_threads(self.config.mine_threads)))
                .map_err(|e| Failure::from_relation_error(&e))?;
                let catalog = entry.catalog.read();
                let schema_json = Json::Arr(
                    mined
                        .tree
                        .bags()
                        .iter()
                        .map(|bag| attr_names_json(&catalog, bag))
                        .collect::<Result<Vec<Json>, Failure>>()?,
                );
                Ok(vec![
                    ("op".to_owned(), Json::str("mine")),
                    ("relation".to_owned(), Json::str(relation.clone())),
                    ("schema".to_owned(), schema_json),
                    (
                        "num_bags".to_owned(),
                        Json::Num(mined.tree.bags().len() as f64),
                    ),
                    ("j_nats".to_owned(), Json::Num(mined.j_measure)),
                    (
                        "rho_lower_bound".to_owned(),
                        Json::Num(mined.rho_lower_bound),
                    ),
                ])
            }
            Request::Estimate {
                relation,
                target,
                epsilon,
                delta,
                seed,
            } => {
                let _slot = self.admit_point()?;
                let entry = self.find(relation)?;
                let mut cfg = EstimateConfig::default();
                if let Some(e) = epsilon {
                    cfg = cfg.with_epsilon(*e);
                }
                if let Some(d) = delta {
                    cfg = cfg.with_delta(*d);
                }
                if let Some(s) = seed {
                    cfg = cfg.with_seed(*s);
                }
                // Resolve names against the catalog before any sampling
                // work, so name errors are cheap and precisely coded.
                enum Resolved {
                    Entropy(AttrSet),
                    Cmi(AttrSet, AttrSet, AttrSet),
                    Tree(JoinTree, bool),
                }
                let resolved = {
                    let catalog = entry.catalog.read();
                    let attrs = |names: &Vec<String>| {
                        catalog
                            .attrs(names.iter())
                            .map_err(|e| Failure::from_relation_error(&e))
                    };
                    match target {
                        EstimateTarget::Entropy { attrs: names } => {
                            Resolved::Entropy(attrs(names)?)
                        }
                        EstimateTarget::Cmi { a, b, c } => {
                            Resolved::Cmi(attrs(a)?, attrs(b)?, attrs(c)?)
                        }
                        EstimateTarget::JMeasure { schema } => Resolved::Tree(
                            resolve_schema(&catalog, entry.store.data().arity(), schema)?,
                            false,
                        ),
                        EstimateTarget::Loss { schema } => Resolved::Tree(
                            resolve_schema(&catalog, entry.store.data().arity(), schema)?,
                            true,
                        ),
                    }
                };
                // Through the entry's analyzer: a fallback answers from its
                // warm caches, a sample comes from its context's sample tier.
                let est = with_analyzer!(entry, |an| {
                    let ea = EstimatedAnalyzer::from_analyzer(an, cfg)
                        .map_err(|e| Failure::from_relation_error(&e))?;
                    match &resolved {
                        Resolved::Entropy(set) => ea.entropy(set),
                        Resolved::Cmi(a, b, c) => ea.cmi(a, b, c),
                        Resolved::Tree(tree, false) => ea.j_measure(tree),
                        Resolved::Tree(tree, true) => ea.loss(tree),
                    }
                    .map_err(|e| Failure::from_relation_error(&e))
                })?;
                Ok(vec![
                    ("op".to_owned(), Json::str("estimate")),
                    ("relation".to_owned(), Json::str(relation.clone())),
                    ("measure".to_owned(), Json::str(target.measure())),
                    ("value".to_owned(), Json::Num(est.value)),
                    ("epsilon".to_owned(), Json::Num(est.epsilon)),
                    ("delta".to_owned(), Json::Num(est.delta)),
                    (
                        "seed".to_owned(),
                        est.seed.map_or(Json::Null, |s| Json::Num(s as f64)),
                    ),
                    ("sample_rows".to_owned(), Json::Num(est.sample_rows as f64)),
                    ("rows".to_owned(), Json::Num(est.total_rows as f64)),
                    ("bound".to_owned(), Json::str(est.bound.as_str())),
                    ("exact".to_owned(), Json::Bool(est.is_exact())),
                ])
            }
            Request::Append {
                relation,
                rows,
                text,
                delimiter,
            } => {
                let _slot = self.admit_point()?;
                let entry = self.find(relation)?;
                let EntryAnalyzer::Live(live) = &entry.analyzer else {
                    return Err(Failure::new(
                        ErrorCode::BadRequest,
                        format!(
                            "relation '{relation}' is flat; only sharded relations accept appends"
                        ),
                    ));
                };
                let batch: Vec<Vec<String>> = match (rows, text) {
                    (Some(rows), None) => rows.clone(),
                    (None, Some(text)) => split_rows(text, delimiter.unwrap_or(',')),
                    _ => {
                        return Err(Failure::new(
                            ErrorCode::BadRequest,
                            "append carries its payload in exactly one of \"rows\" or \"text\"",
                        ))
                    }
                };
                if batch.is_empty() {
                    return Err(Failure::new(
                        ErrorCode::BadRequest,
                        "append needs at least one row",
                    ));
                }
                // The write lock serializes appends to this entry and keeps
                // the catalog consistent with the installed data: no reader
                // ever sees codes the catalog cannot decode.  (If the append
                // fails after some rows were encoded, the newly interned
                // labels stay in the catalog — a harmless superset.)
                let mut catalog = entry.catalog.write();
                let mut shard = Relation::new(live.store().snapshot().schema().to_vec())
                    .map_err(|e| Failure::from_relation_error(&e))?;
                for row in &batch {
                    let labels: Vec<&str> = row.iter().map(String::as_str).collect();
                    let coded = catalog
                        .encode_row(&labels)
                        .map_err(|e| Failure::from_relation_error(&e))?;
                    shard
                        .push_row(&coded)
                        .map_err(|e| Failure::from_relation_error(&e))?;
                }
                let epoch = live
                    .append_shard(shard)
                    .map_err(|e| Failure::from_relation_error(&e))?;
                let snap = live.store().snapshot();
                drop(catalog);
                Ok(vec![
                    ("op".to_owned(), Json::str("append")),
                    ("relation".to_owned(), Json::str(relation.clone())),
                    ("rows_appended".to_owned(), Json::Num(batch.len() as f64)),
                    ("rows".to_owned(), Json::Num(snap.len() as f64)),
                    ("epoch".to_owned(), Json::Num(epoch as f64)),
                    ("shards".to_owned(), Json::Num(snap.num_shards() as f64)),
                ])
            }
        }
    }

    fn catalog_fields(&self) -> Vec<(String, Json)> {
        let relations: Vec<Json> = self
            .entries
            .iter()
            .map(|entry| {
                let store = entry.store;
                let (rows, shards) = entry.rows_and_shards();
                Json::obj([
                    ("name", Json::str(store.name())),
                    ("rows", Json::Num(rows as f64)),
                    ("arity", Json::Num(store.data().arity() as f64)),
                    ("sharded", Json::Bool(store.data().is_sharded())),
                    ("shards", Json::Num(shards as f64)),
                    (
                        "attributes",
                        Json::Arr(store.attribute_names().iter().map(Json::str).collect()),
                    ),
                ])
            })
            .collect();
        vec![
            ("op".to_owned(), Json::str("catalog")),
            ("relations".to_owned(), Json::Arr(relations)),
        ]
    }

    fn stats_fields(&self, relation: Option<&str>) -> Result<Vec<(String, Json)>, Failure> {
        // An empty catalog is a legal server state: the admission section
        // still answers and `relations` is simply `[]`.
        let selected: Vec<&Entry<'a>> = match relation {
            None => self.entries.iter().collect(),
            Some(name) => vec![self.find(name)?],
        };
        let relations: Vec<Json> = selected
            .iter()
            .map(|entry| match &entry.analyzer {
                EntryAnalyzer::Flat(an) => Json::obj([
                    ("name", Json::str(entry.store.name())),
                    ("cache", cache_json(&an.cache_stats())),
                ]),
                EntryAnalyzer::Live(live) => {
                    let stats = live.stats();
                    Json::obj([
                        ("name", Json::str(entry.store.name())),
                        ("epoch", Json::Num(stats.epoch as f64)),
                        ("cache", cache_json(&stats.merged)),
                        ("shard_cache", tier_json(&stats.shards)),
                    ])
                }
            })
            .collect();
        Ok(vec![
            ("op".to_owned(), Json::str("stats")),
            (
                "admission".to_owned(),
                Json::obj([
                    ("point", pool_json(&self.admission.point.stats())),
                    ("mine", pool_json(&self.admission.mine.stats())),
                ]),
            ),
            ("relations".to_owned(), Json::Arr(relations)),
        ])
    }

    fn find(&self, name: &str) -> Result<&Entry<'a>, Failure> {
        self.entries
            .iter()
            .find(|e| e.store.name() == name)
            .ok_or_else(|| {
                Failure::new(
                    ErrorCode::UnknownRelation,
                    format!("no relation named '{name}' in the catalog"),
                )
            })
    }

    fn admit_point(&self) -> Result<crate::admission::PoolGuard<'_>, Failure> {
        self.admission.point.admit().ok_or_else(|| {
            Failure::new(
                ErrorCode::Busy,
                "point-query pool saturated and its wait queue is full; retry later",
            )
        })
    }

    fn admit_mine(&self) -> Result<crate::admission::PoolGuard<'_>, Failure> {
        self.admission.mine.admit().ok_or_else(|| {
            Failure::new(
                ErrorCode::Busy,
                "mine pool saturated and its wait queue is full; retry later",
            )
        })
    }

    // ------------------------------------------------------------------
    // Transport
    // ------------------------------------------------------------------

    /// Serves connections from `listener` until `shutdown` is signalled.
    ///
    /// Each connection gets its own scoped thread reading line-delimited
    /// JSON requests and writing one response frame per line, in request
    /// order.  Returns once the accept loop has stopped **and** every
    /// connection thread has finished.
    pub fn serve(&self, listener: TcpListener, shutdown: &ShutdownToken) {
        std::thread::scope(|scope| {
            for stream in listener.incoming() {
                if shutdown.is_signalled() {
                    break;
                }
                let Ok(stream) = stream else { continue };
                scope.spawn(move || self.serve_connection(stream));
            }
        });
    }

    fn serve_connection(&self, stream: TcpStream) {
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(stream);
        // Reads the rest of the current line, but at most one byte past the
        // cap, which tells a full-length line from a longer one.  `false` at
        // end of input or on a read error.
        let mut next_chunk = |line: &mut Vec<u8>| {
            line.clear();
            let mut capped = reader.by_ref().take(MAX_LINE_BYTES as u64 + 1);
            matches!(capped.read_until(b'\n', line), Ok(1..))
        };
        let mut line = Vec::new();
        while next_chunk(&mut line) {
            let over_cap = line.len() > MAX_LINE_BYTES && line.last() != Some(&b'\n');
            let frame = if over_cap {
                bad_line(format!(
                    "request line exceeds the {MAX_LINE_BYTES}-byte limit"
                ))
            } else {
                let bytes = line.strip_suffix(b"\n").unwrap_or(&line);
                let bytes = bytes.strip_suffix(b"\r").unwrap_or(bytes);
                match std::str::from_utf8(bytes) {
                    Ok(text) if text.trim().is_empty() => continue,
                    Ok(text) => self.handle_line(text),
                    Err(err) => bad_line(format!("request line is not valid UTF-8: {err}")),
                }
            };
            if writeln!(writer, "{frame}").is_err() || writer.flush().is_err() {
                return;
            }
            // Discard the rest of an over-cap line, one capped chunk at a time.
            while over_cap && line.last() != Some(&b'\n') {
                if !next_chunk(&mut line) {
                    return;
                }
            }
        }
    }
}

/// The longest request line the server reads, newline excluded (16 MiB).
/// A longer line is answered with a `bad_request` frame and discarded in
/// cap-sized reads, so one endless line cannot grow a connection's memory.
const MAX_LINE_BYTES: usize = 16 << 20;

/// The `bad_request` frame for a line that never reached the parser.
fn bad_line(message: String) -> Json {
    error_frame(None, &Failure::new(ErrorCode::BadRequest, message))
}

/// Splits a delimited `text` payload into rows of field labels: one row
/// per non-empty line, fields split on `delimiter`, whitespace-trimmed
/// (the same conventions [`ajd_relation::ReadOptions`] defaults to, minus
/// the header line — appends address an existing catalog entry).
fn split_rows(text: &str, delimiter: char) -> Vec<Vec<String>> {
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .map(|line| {
            line.split(delimiter)
                .map(|field| field.trim().to_owned())
                .collect()
        })
        .collect()
}

/// Resolves a wire schema (bags of attribute names) against an entry's
/// catalog: names → [`AttrSet`]s, cover check, then join-tree
/// construction (which enforces the running-intersection property).
fn resolve_schema(
    catalog: &Catalog,
    arity: usize,
    schema: &[Vec<String>],
) -> Result<JoinTree, Failure> {
    let mut bags = Vec::with_capacity(schema.len());
    let mut cover = AttrSet::empty();
    for bag in schema {
        let set = catalog
            .attrs(bag.iter())
            .map_err(|e| Failure::from_relation_error(&e))?;
        cover = cover.union(&set);
        bags.push(set);
    }
    if cover.len() != arity {
        return Err(Failure::new(
            ErrorCode::InvalidSchema,
            format!(
                "schema covers {} of the relation's {} attributes; bags must cover the schema exactly",
                cover.len(),
                arity
            ),
        ));
    }
    JoinTree::from_acyclic_schema(&bags)
        .map_err(|e| Failure::new(ErrorCode::InvalidSchema, e.to_string()))
}

/// Renders an attribute set as a JSON array of names.
///
/// The ids *should* always resolve — they were produced by analysing this
/// store's relation — but a mismatch is reported as a structured
/// [`ErrorCode::Internal`] frame rather than panicking the connection
/// thread: a wire protocol must never answer a request with silence.
fn attr_names_json(catalog: &Catalog, set: &AttrSet) -> Result<Json, Failure> {
    let names = set
        .iter()
        .map(|id| {
            catalog.name(id).map(Json::str).map_err(|_| {
                Failure::new(
                    ErrorCode::Internal,
                    format!(
                        "attribute id {} is outside this relation's catalog; \
                         the analysis produced an inconsistent attribute set",
                        id.0
                    ),
                )
            })
        })
        .collect::<Result<Vec<Json>, Failure>>()?;
    Ok(Json::Arr(names))
}

fn cache_json(stats: &CacheStats) -> Json {
    Json::obj([
        ("hits", Json::Num(stats.hits as f64)),
        ("misses", Json::Num(stats.misses as f64)),
        (
            "group_count_entries",
            Json::Num(stats.group_count_entries as f64),
        ),
        ("group_id_entries", Json::Num(stats.group_id_entries as f64)),
        (
            "tiers",
            Json::obj([
                ("entropy", tier_json(&stats.entropy)),
                ("join_size", tier_json(&stats.join_size)),
                ("sample", tier_json(&stats.sample)),
            ]),
        ),
    ])
}

fn tier_json(stats: &TierStats) -> Json {
    Json::obj([
        ("hits", Json::Num(stats.hits as f64)),
        ("misses", Json::Num(stats.misses as f64)),
        ("entries", Json::Num(stats.entries as f64)),
    ])
}

fn pool_json(stats: &PoolStats) -> Json {
    Json::obj([
        ("slots", Json::Num(stats.slots as f64)),
        ("queue_depth", Json::Num(stats.queue_depth as f64)),
        ("in_flight", Json::Num(stats.in_flight as f64)),
        ("waiting", Json::Num(stats.waiting as f64)),
        ("peak_in_flight", Json::Num(stats.peak_in_flight as f64)),
        ("admitted", Json::Num(stats.admitted as f64)),
        ("queued", Json::Num(stats.queued as f64)),
        ("rejected", Json::Num(stats.rejected as f64)),
    ])
}

fn report_json(catalog: &Catalog, report: &LossReport) -> Result<Json, Failure> {
    let per_mvd: Vec<Json> = report
        .per_mvd
        .iter()
        .map(|m| {
            Ok(Json::obj([
                ("lhs", attr_names_json(catalog, &m.mvd.lhs)?),
                ("left", attr_names_json(catalog, &m.mvd.left)?),
                ("right", attr_names_json(catalog, &m.mvd.right)?),
                ("cmi_nats", Json::Num(m.cmi_nats)),
                ("rho", Json::Num(m.rho)),
                ("log1p_rho", Json::Num(m.log1p_rho)),
                (
                    "domain_sizes",
                    Json::Arr(vec![
                        Json::Num(m.domain_sizes.0 as f64),
                        Json::Num(m.domain_sizes.1 as f64),
                        Json::Num(m.domain_sizes.2 as f64),
                    ]),
                ),
            ]))
        })
        .collect::<Result<Vec<Json>, Failure>>()?;
    Ok(Json::obj([
        ("rows", Json::Num(report.n as f64)),
        ("distinct_rows", Json::Num(report.distinct_n as f64)),
        ("num_bags", Json::Num(report.num_bags as f64)),
        ("join_size", u128_field(report.join_size)),
        ("spurious", u128_field(report.spurious)),
        ("rho", Json::Num(report.rho)),
        ("log1p_rho", Json::Num(report.log1p_rho)),
        ("j_nats", Json::Num(report.j_measure)),
        ("kl_nats", Json::Num(report.kl_nats)),
        ("rho_lower_bound", Json::Num(report.rho_lower_bound)),
        ("lossless", Json::Bool(report.is_lossless())),
        (
            "theorem22",
            Json::obj([
                ("max_cmi", Json::Num(report.theorem22.max_cmi)),
                ("j", Json::Num(report.theorem22.j)),
                ("sum_cmi", Json::Num(report.theorem22.sum_cmi)),
            ]),
        ),
        ("prop51_bound", Json::Num(report.prop51_bound)),
        ("per_mvd", Json::Arr(per_mvd)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ajd_relation::ReadOptions;

    const CSV: &str = "\
course,teacher,room
db,ann,r1
db,ann,r2
os,bob,r1
os,bob,r2
";

    fn stores() -> Vec<RelationStore> {
        vec![RelationStore::from_delimited("courses", CSV, ReadOptions::default()).unwrap()]
    }

    fn ok_get<'j>(frame: &'j Json, field: &str) -> &'j Json {
        assert_eq!(
            frame.get("ok").and_then(Json::as_bool),
            Some(true),
            "expected ok frame, got {frame}"
        );
        frame.get(field).expect(field)
    }

    #[test]
    fn catalog_lists_entries() {
        let stores = stores();
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let frame = server.handle_line(r#"{"op":"catalog"}"#);
        let relations = ok_get(&frame, "relations").as_arr().unwrap();
        assert_eq!(relations.len(), 1);
        assert_eq!(
            relations[0].get("name").and_then(Json::as_str),
            Some("courses")
        );
        assert_eq!(relations[0].get("rows").and_then(Json::as_u64), Some(4));
        assert_eq!(
            relations[0].get("sharded").and_then(Json::as_bool),
            Some(false)
        );
    }

    #[test]
    fn stats_on_empty_catalog_does_not_panic() {
        let stores: Vec<RelationStore> = Vec::new();
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let frame = server.handle_line(r#"{"op":"stats"}"#);
        let relations = ok_get(&frame, "relations").as_arr().unwrap();
        assert!(relations.is_empty());
        assert!(frame.get("admission").is_some());
        // Catalog on an empty catalog is likewise just empty, not an error.
        let frame = server.handle_line(r#"{"op":"catalog"}"#);
        assert!(ok_get(&frame, "relations").as_arr().unwrap().is_empty());
    }

    #[test]
    fn lossless_schema_reports_zero_loss() {
        let stores = stores();
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        // course ↠ teacher | room holds: teacher is determined by course.
        let frame = server.handle_line(
            r#"{"op":"loss","relation":"courses","schema":[["course","teacher"],["course","room"]]}"#,
        );
        assert_eq!(ok_get(&frame, "rho").as_f64(), Some(0.0));
        let frame = server.handle_line(
            r#"{"op":"analyze","relation":"courses","schema":[["course","teacher"],["course","room"]]}"#,
        );
        let report = ok_get(&frame, "report");
        assert_eq!(report.get("lossless").and_then(Json::as_bool), Some(true));
        assert_eq!(report.get("join_size").and_then(Json::as_str), Some("4"));
        assert_eq!(report.get("spurious").and_then(Json::as_str), Some("0"));
    }

    #[test]
    fn lossy_schema_reports_positive_loss_and_consistent_j() {
        let stores =
            vec![
                RelationStore::from_delimited("r", "a,b\n0,0\n1,1\n", ReadOptions::default())
                    .unwrap(),
            ];
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let frame = server.handle_line(r#"{"op":"analyze","relation":"r","schema":[["a"],["b"]]}"#);
        let report = ok_get(&frame, "report");
        assert_eq!(report.get("rho").and_then(Json::as_f64), Some(1.0));
        assert_eq!(report.get("join_size").and_then(Json::as_str), Some("4"));
        let j = report.get("j_nats").and_then(Json::as_f64).unwrap();
        let frame = server.handle_line(r#"{"op":"j","relation":"r","schema":[["a"],["b"]]}"#);
        assert_eq!(ok_get(&frame, "j_nats").as_f64(), Some(j));
    }

    #[test]
    fn entropy_matches_uniform_distribution() {
        let stores = stores();
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let frame =
            server.handle_line(r#"{"op":"entropy","relation":"courses","attrs":["course"]}"#);
        let h = ok_get(&frame, "entropy_nats").as_f64().unwrap();
        assert!((h - 2.0f64.ln()).abs() < 1e-12, "H(course) = ln 2, got {h}");
        // H(∅) = 0.
        let frame = server.handle_line(r#"{"op":"entropy","relation":"courses","attrs":[]}"#);
        assert_eq!(ok_get(&frame, "entropy_nats").as_f64(), Some(0.0));
    }

    #[test]
    fn error_frames_are_structured() {
        let stores = stores();
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let cases = [
            (
                r#"{"op":"loss","relation":"nope","schema":[["course"]]}"#,
                "unknown_relation",
            ),
            (
                r#"{"op":"entropy","relation":"courses","attrs":["flavour"]}"#,
                "unknown_attribute",
            ),
            (
                r#"{"op":"loss","relation":"courses","schema":[["course","teacher"]]}"#,
                "invalid_schema",
            ),
            (r#"{"op":"stats","relation":"nope"}"#, "unknown_relation"),
            (r#"not json"#, "bad_request"),
            (r#"{"op":"warp"}"#, "unknown_op"),
            (r#"{"v":99,"op":"catalog"}"#, "unsupported_version"),
        ];
        for (line, code) in cases {
            let frame = server.handle_line(line);
            assert_eq!(
                frame.get("ok").and_then(Json::as_bool),
                Some(false),
                "{line}"
            );
            let error = frame.get("error").expect("error object");
            assert_eq!(
                error.get("code").and_then(Json::as_str),
                Some(code),
                "{line}"
            );
            assert!(error.get("message").and_then(Json::as_str).is_some());
        }
    }

    #[test]
    fn mine_finds_the_lossless_schema() {
        let stores = stores();
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let frame = server.handle_line(r#"{"op":"mine","relation":"courses","max_bag_size":2}"#);
        let j = ok_get(&frame, "j_nats").as_f64().unwrap();
        assert!(
            j.abs() < 1e-12,
            "courses has a lossless 2-attr schema, J = {j}"
        );
        let schema = frame.get("schema").and_then(Json::as_arr).unwrap();
        assert!(!schema.is_empty());
    }

    #[test]
    fn point_queries_share_one_cache() {
        let stores = stores();
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let line = r#"{"op":"loss","relation":"courses","schema":[["course","teacher"],["course","room"]]}"#;
        server.handle_line(line);
        let frame = server.handle_line(r#"{"op":"stats","relation":"courses"}"#);
        let relations = ok_get(&frame, "relations").as_arr().unwrap();
        let cache = relations[0].get("cache").unwrap();
        let misses_cold = cache.get("misses").and_then(Json::as_u64).unwrap();
        assert!(misses_cold > 0, "cold query must miss");
        // Re-issue the same query: every grouping is now memoized.
        server.handle_line(line);
        let frame = server.handle_line(r#"{"op":"stats","relation":"courses"}"#);
        let relations = ok_get(&frame, "relations").as_arr().unwrap();
        let cache = relations[0].get("cache").unwrap();
        let misses_warm = cache.get("misses").and_then(Json::as_u64).unwrap();
        assert_eq!(misses_warm, misses_cold, "warm query must not miss");
        assert!(cache.get("hits").and_then(Json::as_u64).unwrap() > 0);
    }

    #[test]
    fn estimate_falls_back_to_exact_on_tiny_relations() {
        let stores = stores();
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let frame = server.handle_line(
            r#"{"op":"estimate","relation":"courses","measure":"entropy","attrs":["course"]}"#,
        );
        let v = ok_get(&frame, "value").as_f64().unwrap();
        assert!((v - 2.0f64.ln()).abs() < 1e-12, "H(course) = ln 2, got {v}");
        assert_eq!(ok_get(&frame, "exact").as_bool(), Some(true));
        assert_eq!(ok_get(&frame, "epsilon").as_f64(), Some(0.0));
        assert_eq!(ok_get(&frame, "bound").as_str(), Some("exact"));
        assert_eq!(ok_get(&frame, "sample_rows").as_u64(), Some(4));
        assert_eq!(ok_get(&frame, "rows").as_u64(), Some(4));
        assert_eq!(frame.get("seed"), Some(&Json::Null));
        // The lossless schema's J estimate is exactly 0 on the fallback path.
        let frame = server.handle_line(
            r#"{"op":"estimate","relation":"courses","measure":"j","schema":[["course","teacher"],["course","room"]]}"#,
        );
        assert!(ok_get(&frame, "value").as_f64().unwrap().abs() < 1e-12);
        assert_eq!(ok_get(&frame, "measure").as_str(), Some("j"));
        // And the CMI of the MVD behind it is 0 too.
        let frame = server.handle_line(
            r#"{"op":"estimate","relation":"courses","measure":"cmi","a":["teacher"],"b":["room"],"c":["course"]}"#,
        );
        assert!(ok_get(&frame, "value").as_f64().unwrap().abs() < 1e-12);
    }

    #[test]
    fn estimate_samples_large_relations_deterministically() {
        let mut text = String::from("a,b\n");
        for i in 0..10_000u32 {
            text.push_str(&format!("{},{}\n", i % 64, (i / 64) % 64));
        }
        let stores =
            vec![RelationStore::from_delimited("big", &text, ReadOptions::default()).unwrap()];
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let line = r#"{"op":"estimate","relation":"big","measure":"entropy","attrs":["a"],"epsilon":0.5,"seed":42}"#;
        let frame = server.handle_line(line);
        assert_eq!(ok_get(&frame, "exact").as_bool(), Some(false));
        assert_eq!(ok_get(&frame, "bound").as_str(), Some("mcdiarmid"));
        assert_eq!(ok_get(&frame, "seed").as_u64(), Some(42));
        let sample = ok_get(&frame, "sample_rows").as_u64().unwrap();
        assert!(
            sample > 0 && sample < 10_000,
            "ε = 0.5 must plan a strict sample, got {sample}"
        );
        assert_eq!(ok_get(&frame, "rows").as_u64(), Some(10_000));
        let v = ok_get(&frame, "value").as_f64().unwrap();
        let eps = ok_get(&frame, "epsilon").as_f64().unwrap();
        assert!(eps > 0.0);
        // `a` is (near-)uniform over 64 values: the sampled entropy must sit
        // within the reported ε of ln 64 for this pinned seed.
        assert!(
            (v - 64f64.ln()).abs() <= eps,
            "sampled H = {v} strayed more than ε = {eps} from ln 64"
        );
        // Determinism: the response frame is byte-identical on re-issue.
        assert_eq!(frame.to_string(), server.handle_line(line).to_string());
        // The compound measures name their own bounds.
        for (measure, operands, bound) in [
            ("cmi", r#""a":["a"],"b":["b"],"c":[]"#, "mcdiarmid-union"),
            ("j", r#""schema":[["a"],["b"]]"#, "mcdiarmid-union"),
            ("loss", r#""schema":[["a"],["b"]]"#, "log1p-loss"),
        ] {
            let frame = server.handle_line(&format!(
                r#"{{"op":"estimate","relation":"big","measure":"{measure}",{operands},"epsilon":0.5,"seed":42}}"#
            ));
            assert_eq!(ok_get(&frame, "exact").as_bool(), Some(false), "{measure}");
            assert_eq!(ok_get(&frame, "bound").as_str(), Some(bound), "{measure}");
        }
    }

    #[test]
    fn estimate_works_on_sharded_entries() {
        let stores = sharded_stores("courses", 2);
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let frame = server.handle_line(
            r#"{"op":"estimate","relation":"courses","measure":"loss","schema":[["course","teacher"],["course","room"]]}"#,
        );
        assert_eq!(ok_get(&frame, "value").as_f64(), Some(0.0));
        assert_eq!(ok_get(&frame, "exact").as_bool(), Some(true));
        assert_eq!(ok_get(&frame, "measure").as_str(), Some("loss"));
    }

    /// The `cache` object of one entry's `stats` frame.
    fn entry_cache(server: &Server<'_>, name: &str) -> Json {
        let frame = server.handle_line(&format!(r#"{{"op":"stats","relation":"{name}"}}"#));
        let relations = ok_get(&frame, "relations").as_arr().unwrap();
        relations[0].get("cache").expect("cache").clone()
    }

    /// A counter of the `cache` object: `path` is `["misses"]` or a tier
    /// path such as `["tiers", "entropy", "hits"]`.
    fn counter(cache: &Json, path: &[&str]) -> u64 {
        path.iter()
            .try_fold(cache, |obj, key| obj.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("no counter {path:?} in {cache}"))
    }

    /// Regression: a fallback `estimate` used to wrap the bare source in a
    /// fresh analyzer and regroup every bag.  It now answers through the
    /// entry's analyzer: after a warm `j`, the estimate of the same schema
    /// runs no kernel, reads every entropy from the entry's tier, and
    /// equals `j_nats` bit for bit.
    #[test]
    fn fallback_estimate_answers_from_the_entrys_warm_cache() {
        let stores = stores();
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let schema = r#"[["course","teacher"],["course","room"]]"#;
        let j = server.handle_line(&format!(
            r#"{{"op":"j","relation":"courses","schema":{schema}}}"#
        ));
        let j_nats = ok_get(&j, "j_nats").as_f64().unwrap();
        let before = entry_cache(&server, "courses");
        let est = server.handle_line(&format!(
            r#"{{"op":"estimate","relation":"courses","measure":"j","schema":{schema}}}"#
        ));
        let after = entry_cache(&server, "courses");
        assert_eq!(ok_get(&est, "exact").as_bool(), Some(true));
        let value = ok_get(&est, "value").as_f64().unwrap();
        assert_eq!(value.to_bits(), j_nats.to_bits());
        assert_eq!(
            counter(&after, &["misses"]),
            counter(&before, &["misses"]),
            "a fallback estimate after a warm j must not group"
        );
        // Two bags, one separator and the whole relation: four tier hits.
        let hits = |c: &Json| counter(c, &["tiers", "entropy", "hits"]);
        assert_eq!(hits(&after) - hits(&before), 4);
        assert_eq!(counter(&after, &["tiers", "sample", "misses"]), 0);
    }

    /// No memo tier outlives its epoch: on a live entry large enough to
    /// sample, warm `j`, `loss` and `estimate`, append, and ask again.  Every
    /// answer matches a cold server over the grown rows bit for bit, and
    /// the tier counters show the new epoch filling each tier afresh.
    #[test]
    fn no_memo_tier_outlives_its_epoch() {
        let row = |i: u32| format!("{},{},{}\n", i % 5, (i * 7 + i / 3) % 4, (i / 2) % 3);
        let mut initial = String::from("a,b,c\n");
        for i in 0..60 {
            initial.push_str(&row(i));
        }
        let (catalog, relation) =
            ajd_relation::io::read_delimited(&initial, ReadOptions::default()).unwrap();
        let stores =
            vec![
                RelationStore::sharded("events", catalog, relation.into_shards(2).unwrap())
                    .unwrap(),
            ];
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let schema = r#"[["a","b"],["b","c"]]"#;
        let lines = [
            format!(r#"{{"op":"j","relation":"events","schema":{schema}}}"#),
            format!(r#"{{"op":"loss","relation":"events","schema":{schema}}}"#),
            // ε = 2 plans an 8-row sample of the 60 (and later 75) rows.
            format!(
                r#"{{"op":"estimate","relation":"events","measure":"j","schema":{schema},"epsilon":2,"seed":5}}"#
            ),
        ];
        for line in &lines {
            server.handle_line(line);
            server.handle_line(line);
        }
        let warm = entry_cache(&server, "events");
        for tier in ["entropy", "join_size", "sample"] {
            assert!(
                counter(&warm, &["tiers", tier, "hits"]) > 0,
                "{tier}: {warm}"
            );
        }
        let sampled = server.handle_line(&lines[2]);
        assert_eq!(ok_get(&sampled, "exact").as_bool(), Some(false));
        assert_eq!(ok_get(&sampled, "sample_rows").as_u64(), Some(8));

        let appended: Vec<String> = (60..75).map(row).collect();
        let rows_json: Vec<String> = appended
            .iter()
            .map(|r| {
                let cells: Vec<String> = r
                    .trim_end()
                    .split(',')
                    .map(|c| format!("\"{c}\""))
                    .collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let frame = server.handle_line(&format!(
            r#"{{"op":"append","relation":"events","rows":[{}]}}"#,
            rows_json.join(",")
        ));
        assert_eq!(ok_get(&frame, "rows").as_u64(), Some(75));

        let mut grown = initial.clone();
        grown.extend(appended);
        let cold_stores =
            vec![RelationStore::from_delimited("events", &grown, ReadOptions::default()).unwrap()];
        let cold_server = Server::new(&cold_stores, ServerConfig::default()).unwrap();
        for line in &lines {
            assert_eq!(
                server.handle_line(line).to_string(),
                cold_server.handle_line(line).to_string(),
                "{line}"
            );
        }
        let fresh = entry_cache(&server, "events");
        // j reads four entropies (two bags, the separator, the whole
        // relation); the sampled j reads its own sample's tier.
        assert_eq!(counter(&fresh, &["tiers", "entropy", "misses"]), 4);
        assert_eq!(counter(&fresh, &["tiers", "entropy", "hits"]), 0);
        assert_eq!(counter(&fresh, &["tiers", "join_size", "misses"]), 1);
        assert_eq!(counter(&fresh, &["tiers", "sample", "misses"]), 1);
        assert_eq!(counter(&fresh, &["tiers", "sample", "hits"]), 0);
    }

    #[test]
    fn duplicate_names_are_rejected_at_startup() {
        let stores = vec![
            RelationStore::from_delimited("r", "a\n1\n", ReadOptions::default()).unwrap(),
            RelationStore::from_delimited("r", "a\n2\n", ReadOptions::default()).unwrap(),
        ];
        assert!(Server::new(&stores, ServerConfig::default()).is_err());
    }

    fn sharded_stores(name: &str, num_shards: usize) -> Vec<RelationStore> {
        let (catalog, relation) =
            ajd_relation::io::read_delimited(CSV, ReadOptions::default()).unwrap();
        let sharded = relation.into_shards(num_shards).unwrap();
        vec![RelationStore::sharded(name, catalog, sharded).unwrap()]
    }

    #[test]
    fn append_extends_a_sharded_relation() {
        let stores = sharded_stores("courses", 2);
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let frame = server.handle_line(
            r#"{"op":"append","relation":"courses","rows":[["ml","cat","r3"],["ml","cat","r4"]]}"#,
        );
        assert_eq!(ok_get(&frame, "rows_appended").as_u64(), Some(2));
        assert_eq!(ok_get(&frame, "rows").as_u64(), Some(6));
        assert_eq!(ok_get(&frame, "epoch").as_u64(), Some(3));
        assert_eq!(ok_get(&frame, "shards").as_u64(), Some(3));
        // The catalog reflects the live counts, not the startup ones.
        let frame = server.handle_line(r#"{"op":"catalog"}"#);
        let relations = ok_get(&frame, "relations").as_arr().unwrap();
        assert_eq!(relations[0].get("rows").and_then(Json::as_u64), Some(6));
        assert_eq!(relations[0].get("shards").and_then(Json::as_u64), Some(3));
        // Queries see the appended rows (3 distinct courses now)...
        let frame =
            server.handle_line(r#"{"op":"entropy","relation":"courses","attrs":["course"]}"#);
        let h = ok_get(&frame, "entropy_nats").as_f64().unwrap();
        let expected = -(2.0 / 6.0 * (2.0f64 / 6.0).ln()) * 3.0;
        assert!(
            (h - expected).abs() < 1e-12,
            "H(course) = {expected}, got {h}"
        );
        // ...and new value labels round-trip through the catalog.
        let frame = server.handle_line(
            r#"{"op":"append","relation":"courses","text":"ml; cat; r5","delimiter":";"}"#,
        );
        assert_eq!(ok_get(&frame, "rows_appended").as_u64(), Some(1));
        assert_eq!(ok_get(&frame, "epoch").as_u64(), Some(4));
    }

    #[test]
    fn append_matches_a_cold_server_over_the_grown_relation() {
        let stores = sharded_stores("courses", 2);
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let analyze = r#"{"op":"analyze","relation":"courses","schema":[["course","teacher"],["course","room"]]}"#;
        server.handle_line(analyze); // warm every cache at epoch 2
        server.handle_line(
            r#"{"op":"append","relation":"courses","rows":[["db","eve","r1"],["os","bob","r9"]]}"#,
        );
        let warm = server.handle_line(analyze);
        // A server built cold over the equivalent 6-row flat data agrees.
        let grown = "course,teacher,room\ndb,ann,r1\ndb,ann,r2\nos,bob,r1\nos,bob,r2\ndb,eve,r1\nos,bob,r9\n";
        let cold_stores =
            vec![RelationStore::from_delimited("courses", grown, ReadOptions::default()).unwrap()];
        let cold_server = Server::new(&cold_stores, ServerConfig::default()).unwrap();
        let cold = cold_server.handle_line(analyze);
        assert_eq!(
            ok_get(&warm, "report").to_string(),
            ok_get(&cold, "report").to_string(),
            "incremental append must be invisible to every measure"
        );
    }

    #[test]
    fn append_to_a_flat_relation_is_rejected() {
        let stores = stores();
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let frame = server
            .handle_line(r#"{"op":"append","relation":"courses","rows":[["ml","cat","r3"]]}"#);
        let error = frame.get("error").expect("error object");
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("bad_request")
        );
        assert!(error
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("flat"));
    }

    #[test]
    fn append_arity_mismatch_is_invalid_schema_and_atomic() {
        let stores = sharded_stores("courses", 2);
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let frame = server.handle_line(
            r#"{"op":"append","relation":"courses","rows":[["ml","cat","r3"],["short"]]}"#,
        );
        let error = frame.get("error").expect("error object");
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("invalid_schema")
        );
        // Nothing was installed: the good row of the failed batch is gone too.
        let frame = server.handle_line(r#"{"op":"stats","relation":"courses"}"#);
        let relations = ok_get(&frame, "relations").as_arr().unwrap();
        assert_eq!(relations[0].get("epoch").and_then(Json::as_u64), Some(2));
        let frame = server.handle_line(r#"{"op":"catalog"}"#);
        let relations = ok_get(&frame, "relations").as_arr().unwrap();
        assert_eq!(relations[0].get("rows").and_then(Json::as_u64), Some(4));
    }

    #[test]
    fn stats_prove_appends_regroup_only_the_new_shard() {
        let stores = sharded_stores("courses", 2); // 4 rows → 2 shards
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let shard_cache = |server: &Server<'_>| {
            let frame = server.handle_line(r#"{"op":"stats","relation":"courses"}"#);
            let relations = ok_get(&frame, "relations").as_arr().unwrap();
            let sc = relations[0].get("shard_cache").expect("shard_cache");
            (
                sc.get("hits").and_then(Json::as_u64).unwrap(),
                sc.get("misses").and_then(Json::as_u64).unwrap(),
            )
        };
        let line = r#"{"op":"loss","relation":"courses","schema":[["course","teacher"],["course","room"]]}"#;
        server.handle_line(line);
        let (cold_hits, cold_misses) = shard_cache(&server);
        assert_eq!(cold_misses % 2, 0, "cold misses fill both shards");
        let sets = cold_misses / 2;
        assert!(sets > 0, "loss must group at least one attribute set");
        server.handle_line(r#"{"op":"append","relation":"courses","rows":[["ml","cat","r3"]]}"#);
        server.handle_line(line);
        let (hits, misses) = shard_cache(&server);
        assert_eq!(
            misses - cold_misses,
            sets,
            "the re-query computes only the new shard's tables"
        );
        assert_eq!(
            hits - cold_hits,
            cold_misses,
            "both old shards answer every set from warm tables"
        );
    }

    #[test]
    fn sharded_and_flat_entries_agree() {
        let mut text = String::from("a,b,c\n");
        for i in 0..40 {
            text.push_str(&format!("{},{},{}\n", i % 5, i % 5, i % 4));
        }
        let flat = RelationStore::from_delimited("flat", &text, ReadOptions::default()).unwrap();
        let (catalog, relation) =
            ajd_relation::io::read_delimited(&text, ReadOptions::default()).unwrap();
        let sharded =
            RelationStore::sharded("sharded", catalog, relation.into_shards(3).unwrap()).unwrap();
        let stores = vec![flat, sharded];
        let server = Server::new(&stores, ServerConfig::default()).unwrap();
        let q = |name: &str| {
            let frame = server.handle_line(&format!(
                r#"{{"op":"analyze","relation":"{name}","schema":[["a","b"],["b","c"]]}}"#
            ));
            ok_get(&frame, "report").to_string()
        };
        assert_eq!(
            q("flat"),
            q("sharded"),
            "shard layout must not change any measure"
        );
    }
}
