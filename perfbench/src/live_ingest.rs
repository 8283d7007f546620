//! `live_ingest`: appends beside reads on one live sharded entry.
//!
//! One in-process server holds `live`, 200k rows in 8 shards.  Each cycle
//! appends one seeded batch of 2,000 rows over the wire (one new shard, one
//! new epoch) and then issues 5 `j`/`loss` reads drawn from a fixed pool of
//! 16 chain-window schemas.  The append path copies the snapshot, reuses
//! the per-shard tier, rebuilds the per-epoch merged tier and decodes a
//! bulk JSON payload; the reads after it re-merge on the new epoch.

use crate::data;
use crate::stats::{ms_since, Digest};
use crate::trace::{span, Tracer};
use crate::Outcome;
use ajd_core::{Analyzer, LiveAnalyzer};
use ajd_jointree::JoinTree;
use ajd_relation::{Relation, ShardedRelation, ShardedStore, ThreadBudget};
use ajd_server::{Json, RelationStore};
use std::sync::Arc;
use std::time::Instant;

/// Rows per appended batch.
pub const BATCH_ROWS: usize = 2_000;
/// Shards of the initial relation.
pub const SHARDS: usize = 8;
/// Schemas in the read pool.
pub const SCHEMAS: usize = 16;
/// Reads after each append.
pub const READS_PER_CYCLE: usize = 5;
/// Nominal cycles per second used to size the cycle count from `--seconds`.
const NOMINAL_CYCLES_S: f64 = 12.0;
/// Cycles per round.  Each round starts from a fresh 8-shard entry, so the
/// shard count stays at most 8 + 40 and every round repeats the same cost
/// profile instead of every read growing more expensive through the run.
pub const ROUND_CYCLES: usize = 40;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;
/// The catalog entry's name.
pub const ENTRY: &str = "live";

/// One read of the pool: schema index and measure.
#[derive(Debug, Clone, Copy)]
pub struct Read {
    /// Index into the schema pool.
    pub schema: usize,
    /// `true` for `loss`, `false` for `j`.
    pub loss: bool,
}

/// The 32 reads of the pool: every schema with each measure.
pub fn pool_reads() -> Vec<Read> {
    (0..SCHEMAS)
        .flat_map(|schema| [false, true].map(|loss| Read { schema, loss }))
        .collect()
}

/// Everything a run feeds the server, derived from the seed.
pub struct Inputs {
    /// The initial 200k rows.
    pub base: Relation,
    /// The 16 chain-window schemas (as bags of column indices).
    pub schemas: Vec<Vec<Vec<usize>>>,
    /// Their join trees.
    pub trees: Vec<JoinTree>,
    /// The appended batches, one per cycle.
    pub batches: Vec<Relation>,
    /// The reads of each cycle.
    pub reads: Vec<[Read; READS_PER_CYCLE]>,
}

impl Inputs {
    /// Generates the inputs of `cycles` cycles.
    pub fn new(seed: u64, cycles: usize) -> Self {
        let base = data::markov(seed, 3, data::ROWS);
        let mut shapes = data::schema_rng(31);
        let schemas: Vec<Vec<Vec<usize>>> = (0..SCHEMAS)
            .map(|_| data::chain_window(&mut shapes))
            .collect();
        let mut rng = data::rng(seed, 31);
        let trees = schemas.iter().map(|s| data::tree_of(s)).collect();
        let batches = (0..cycles)
            .map(|c| data::markov(seed, 1000 + c as u64, BATCH_ROWS))
            .collect();
        let mut pool = pool_reads();
        let reads = (0..cycles)
            .map(|_| {
                data::shuffle(&mut rng, &mut pool);
                std::array::from_fn(|i| pool[i])
            })
            .collect();
        Inputs {
            base,
            schemas,
            trees,
            batches,
            reads,
        }
    }

    /// The fresh 8-shard layout of the base rows.
    pub fn sharded(&self) -> ShardedRelation {
        self.base
            .clone()
            .into_shards(SHARDS)
            .expect("the relation splits into shards")
    }

    /// The request line of a read.
    pub fn read_line(&self, read: Read) -> String {
        data::request(vec![
            ("op", Json::str(if read.loss { "loss" } else { "j" })),
            ("relation", Json::str(ENTRY)),
            ("schema", data::schema_json(&self.schemas[read.schema])),
        ])
    }

    /// The library answer of a read on a pinned snapshot.
    pub fn read_value(&self, an: &Analyzer<Arc<ShardedRelation>>, read: Read) -> f64 {
        let tree = &self.trees[read.schema];
        if read.loss {
            an.loss(tree)
        } else {
            an.j_measure(tree)
        }
        .expect("reference read")
    }
}

/// The append request line of a batch, rows as label arrays.
pub fn append_line(batch: &Relation) -> String {
    let rows = (0..batch.len())
        .map(|i| {
            Json::Arr(
                batch
                    .row(i)
                    .iter()
                    .map(|v| Json::str(v.to_string()))
                    .collect(),
            )
        })
        .collect();
    data::request(vec![
        ("op", Json::str("append")),
        ("relation", Json::str(ENTRY)),
        ("rows", Json::Arr(rows)),
    ])
}

/// A library replica of the live entry, warmed with the same reads.
pub fn replica(inputs: &Inputs) -> LiveAnalyzer {
    let live = LiveAnalyzer::with_thread_budget(
        Arc::new(ShardedStore::new(inputs.sharded())),
        ThreadBudget::serial(),
    );
    let pinned = live.pin();
    for read in pool_reads() {
        inputs.read_value(&pinned, read);
    }
    live
}

/// What the wire returned during one cycle.
struct CycleRecord {
    append: Option<Json>,
    reads: Vec<Option<u64>>,
    /// Per-shard-tier misses during the cycle.
    shard_misses: Option<u64>,
    /// Per-shard group tables created during the cycle.
    shard_tables: Option<u64>,
}

/// Runs the workload: [`SETUPS`] set-ups, then the timed rounds.
pub fn run(seed: u64, seconds: u64, tracer: Option<&Tracer>) -> Outcome {
    let rounds = (seconds as f64 * NOMINAL_CYCLES_S / ROUND_CYCLES as f64)
        .round()
        .max(1.0) as usize;
    let mut out = Outcome {
        slice_ops: ROUND_CYCLES * (1 + READS_PER_CYCLE),
        ..Outcome::default()
    };
    let mut records = Vec::new();
    let mut kept = None;
    for setup in 0..SETUPS {
        let start = Instant::now();
        let inputs = Inputs::new(seed, rounds * ROUND_CYCLES);
        let appends: Vec<String> = inputs.batches.iter().map(append_line).collect();
        let last = setup + 1 == SETUPS;
        serve_round(&inputs, |client| {
            out.setup_s.push(start.elapsed().as_secs_f64());
            if last {
                timed_cycles(client, &inputs, &appends, 0, tracer, &mut out, &mut records);
            }
        });
        if last {
            for round in 1..rounds {
                serve_round(&inputs, |client| {
                    timed_cycles(
                        client,
                        &inputs,
                        &appends,
                        round,
                        tracer,
                        &mut out,
                        &mut records,
                    );
                });
            }
            kept = Some(inputs);
        }
    }
    let inputs = kept.expect("at least one set-up");
    verify(&inputs, &records, &mut out);
    out
}

/// Serves a fresh `live` entry over the base rows, warms it with every read
/// of the pool, then hands the client to `body`.
fn serve_round(inputs: &Inputs, body: impl FnOnce(&mut ajd_server::Client)) {
    let stores = vec![
        RelationStore::sharded(ENTRY, data::catalog(), inputs.sharded())
            .expect("catalog matches the relation"),
    ];
    data::with_server(&stores, |_, client| {
        for read in pool_reads() {
            data::send(client, &inputs.read_line(read));
        }
        body(client);
    });
}

/// Runs the [`ROUND_CYCLES`] timed cycles of `round`.
fn timed_cycles(
    client: &mut ajd_server::Client,
    inputs: &Inputs,
    appends: &[String],
    round: usize,
    tracer: Option<&Tracer>,
    out: &mut Outcome,
    records: &mut Vec<CycleRecord>,
) {
    let mut before = data::wire_stats(client);
    let cycles = appends.iter().enumerate().skip(round * ROUND_CYCLES);
    for (c, append) in cycles.take(ROUND_CYCLES) {
        if let Some(t) = tracer {
            t.begin_op(c as u64);
        }
        let _cycle = span(tracer, "live_ingest.cycle");
        let t = Instant::now();
        let frame = {
            let _s = span(tracer, "client.append");
            data::send(client, append)
        };
        let ms = ms_since(t);
        out.record("append", ms);
        let mut reads = Vec::with_capacity(READS_PER_CYCLE);
        for (k, &read) in inputs.reads[c].iter().enumerate() {
            let line = inputs.read_line(read);
            let t = Instant::now();
            let frame = {
                let _s = span(tracer, "client.read");
                data::send(client, &line)
            };
            let ms = ms_since(t);
            out.record(if k == 0 { "first_read" } else { "read" }, ms);
            let key = if read.loss { "rho" } else { "j_nats" };
            reads.push(frame.and_then(|f| data::ok_f64(&f, key)).map(f64::to_bits));
        }
        let after = data::wire_stats(client);
        let d = before.zip(after).map(|(b, a)| a.since(&b));
        if d.is_some_and(|d| d.queued + d.rejected != 0) {
            out.guard_violations
                .push(format!("cycle {c}: requests queued or refused"));
        }
        records.push(CycleRecord {
            append: frame,
            reads,
            shard_misses: d.map(|d| d.shard_misses),
            shard_tables: d.map(|d| d.shard_entries),
        });
        before = after;
    }
}

/// Replays the cycles on a library replica (outside every timed window)
/// and checks every wire answer bit for bit, plus the incremental
/// contract: a per-shard group table is computed at most once, so after an
/// append each queried attribute set costs exactly one miss on the new
/// shard, and older shards miss only on sets no earlier epoch grouped.
/// On the wire that reads: shard-tier misses == group tables created, and
/// both equal the replica's count.
fn verify(inputs: &Inputs, records: &[CycleRecord], out: &mut Outcome) {
    let mut digest = Digest::default();
    data::digest_relation(&mut digest, &inputs.base);
    let mut live = replica(inputs);
    for (c, record) in records.iter().enumerate() {
        if c > 0 && c % ROUND_CYCLES == 0 {
            live = replica(inputs);
        }
        let batch = &inputs.batches[c];
        data::digest_relation(&mut digest, batch);
        let misses_before = live.stats().shards.misses;
        let epoch = live.append_shard(batch.clone()).expect("replica append");
        let pinned = live.pin();
        let rows = pinned.source().len();
        out.attempted += 1 + READS_PER_CYCLE as u64;
        let append_ok = record.append.as_ref().is_some_and(|f| {
            data::ok_f64(f, "rows_appended") == Some(BATCH_ROWS as f64)
                && f.get("epoch").and_then(Json::as_u64) == Some(epoch)
                && f.get("rows").and_then(Json::as_u64) == Some(rows as u64)
        });
        if !append_ok {
            out.failed += 1;
        }
        for (read, got) in inputs.reads[c].iter().zip(&record.reads) {
            digest.u64(read.schema as u64 * 2 + u64::from(read.loss));
            if *got != Some(inputs.read_value(&pinned, *read).to_bits()) {
                out.failed += 1;
            }
        }
        let shards = pinned.source().shards();
        let recomputed = shards
            .iter()
            .filter(|s| s.cache_stats().misses != s.cache_stats().entries as u64)
            .count();
        let replica_misses = live.stats().shards.misses - misses_before;
        if recomputed != 0 {
            out.guard_violations.push(format!(
                "cycle {c}: {recomputed} replica shards computed a group table twice"
            ));
        }
        if record.shard_misses != Some(replica_misses)
            || record.shard_tables != Some(replica_misses)
        {
            out.guard_violations.push(format!(
                "cycle {c}: wire shard misses {:?} / tables created {:?}, expected {replica_misses} each",
                record.shard_misses, record.shard_tables
            ));
        }
    }
    out.digest = digest.value();
}
