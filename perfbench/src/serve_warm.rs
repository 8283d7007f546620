//! `serve_warm`: a closed loop of cache-hit requests over loopback.
//!
//! One in-process [`Server`](ajd_server::Server) serves two entries —
//! `flat` (200k × 8) and `sharded` (a second 200k × 8 instance in 8 shards
//! of 25k rows) — to one [`Client`](ajd_server::Client).  The load is a
//! fixed pool of 80 seeded requests, each issued once during set-up, so
//! every timed request is answered from warm caches: transport, protocol,
//! admission, dispatch, warm measure arithmetic and estimator builds do all
//! the work, grouping does none.

use crate::data::{self, WireStats};
use crate::stats::{ms_since, Digest};
use crate::trace::{span, Tracer};
use crate::Outcome;
use ajd_core::{Analyzer, EstimateConfig, EstimatedAnalyzer};
use ajd_relation::{Relation, ThreadBudget};
use ajd_server::{Json, RelationStore};
use std::time::Instant;

/// Requests per class in the pool: 25 / 27.5 / 27.5 / 20 %.  Sorted by
/// cost (entropy ≪ j ≈ loss < estimate), p50 falls inside the j/loss class
/// and p90 inside the estimate class.
const MIX: [(Kind, usize); 4] = [
    (Kind::Entropy, 20),
    (Kind::J, 22),
    (Kind::Loss, 22),
    (Kind::Estimate, 16),
];
/// Target half-width of the `estimate` requests, nats.
pub const EPSILON: f64 = 0.3;
/// Nominal ops per second used to size the op count from `--seconds`.
const NOMINAL_OPS_S: f64 = 1000.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

/// A request class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `entropy` of three attributes.
    Entropy,
    /// `j` of a chain-window schema.
    J,
    /// `loss` of a chain-window schema.
    Loss,
    /// `estimate` of `j` at ε = 0.3.
    Estimate,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Entropy => "entropy",
            Kind::J => "j",
            Kind::Loss => "loss",
            Kind::Estimate => "estimate",
        }
    }
}

impl Spec {
    /// Diagnostic class: request kind and entry.
    fn class(&self) -> &'static str {
        const NAMES: [[&str; 2]; 4] = [
            ["entropy/flat", "entropy/sharded"],
            ["j/flat", "j/sharded"],
            ["loss/flat", "loss/sharded"],
            ["estimate/flat", "estimate/sharded"],
        ];
        NAMES[self.kind as usize][self.entry]
    }
}

/// One pooled request, before rendering.
#[derive(Debug, Clone)]
pub struct Spec {
    /// 0 = `flat`, 1 = `sharded`.
    pub entry: usize,
    /// Request class.
    pub kind: Kind,
    /// Attributes of an `entropy` request.
    pub attrs: Vec<usize>,
    /// Chain-window schema of `j` / `loss` / `estimate`.
    pub bags: Vec<Vec<usize>>,
    /// Sampling seed of an `estimate`.
    pub est_seed: u64,
}

/// The catalog entry names, by [`Spec::entry`].
pub const ENTRIES: [&str; 2] = ["flat", "sharded"];

/// The seeded request pool (same seed, same pool).
pub fn specs(seed: u64) -> Vec<Spec> {
    let mut rng = data::rng(seed, 11);
    let mut shapes = data::schema_rng(11);
    let mut out = Vec::new();
    for (kind, count) in MIX {
        for k in 0..count {
            let mut spec = Spec {
                entry: k % 2,
                kind,
                attrs: Vec::new(),
                bags: Vec::new(),
                est_seed: 0,
            };
            match kind {
                Kind::Entropy => spec.attrs = data::attr_subset(&mut rng, 3),
                Kind::J | Kind::Loss => spec.bags = data::chain_window(&mut shapes),
                Kind::Estimate => {
                    spec.bags = data::chain_window(&mut shapes);
                    spec.est_seed = 1 + (k % 3) as u64;
                }
            }
            out.push(spec);
        }
    }
    out
}

/// The request line of `spec`.
pub fn line(spec: &Spec) -> String {
    let relation = ("relation", Json::str(ENTRIES[spec.entry]));
    match spec.kind {
        Kind::Entropy => data::request(vec![
            ("op", Json::str("entropy")),
            relation,
            ("attrs", data::names_json(&spec.attrs)),
        ]),
        Kind::J | Kind::Loss => data::request(vec![
            ("op", Json::str(spec.kind.name())),
            relation,
            ("schema", data::schema_json(&spec.bags)),
        ]),
        Kind::Estimate => data::request(vec![
            ("op", Json::str("estimate")),
            relation,
            ("measure", Json::str("j")),
            ("schema", data::schema_json(&spec.bags)),
            ("epsilon", Json::Num(EPSILON)),
            ("seed", Json::Num(spec.est_seed as f64)),
        ]),
    }
}

/// The estimator configuration of an `estimate` spec.
pub fn estimate_config(spec: &Spec) -> EstimateConfig {
    EstimateConfig::default()
        .with_epsilon(EPSILON)
        .with_seed(spec.est_seed)
}

/// The answer a response must carry, bit for bit.
#[derive(Debug, Clone, Copy)]
enum Expect {
    Value { key: &'static str, bits: u64 },
    Estimate { bits: u64, sample_rows: u64 },
}

/// Computes the reference answer of `spec` with the library, over the flat
/// relation holding the entry's rows (layouts answer bit-identically).
fn reference(spec: &Spec, analyzer: &Analyzer<&Relation>) -> Expect {
    let fail = |e: ajd_relation::RelationError| -> ! { panic!("reference {spec:?} failed: {e}") };
    match spec.kind {
        Kind::Entropy => Expect::Value {
            key: "entropy_nats",
            bits: analyzer
                .entropy(&data::attr_set(&spec.attrs))
                .unwrap_or_else(|e| fail(e))
                .to_bits(),
        },
        Kind::J => Expect::Value {
            key: "j_nats",
            bits: analyzer
                .j_measure(&data::tree_of(&spec.bags))
                .unwrap_or_else(|e| fail(e))
                .to_bits(),
        },
        Kind::Loss => Expect::Value {
            key: "rho",
            bits: analyzer
                .loss(&data::tree_of(&spec.bags))
                .unwrap_or_else(|e| fail(e))
                .to_bits(),
        },
        Kind::Estimate => {
            let est = EstimatedAnalyzer::with_thread_budget(
                *analyzer.source(),
                estimate_config(spec),
                ThreadBudget::serial(),
            )
            .and_then(|ea| ea.j_measure(&data::tree_of(&spec.bags)))
            .unwrap_or_else(|e| fail(e));
            Expect::Estimate {
                bits: est.value.to_bits(),
                sample_rows: est.sample_rows,
            }
        }
    }
}

fn check(frame: Option<&Json>, expect: Expect) -> bool {
    let Some(frame) = frame else { return false };
    match expect {
        Expect::Value { key, bits } => data::ok_f64(frame, key).map(f64::to_bits) == Some(bits),
        Expect::Estimate { bits, sample_rows } => {
            data::ok_f64(frame, "value").map(f64::to_bits) == Some(bits)
                && frame.get("sample_rows").and_then(Json::as_u64) == Some(sample_rows)
        }
    }
}

/// The two base relations of the catalog: `flat` and the instance that is
/// served sharded.
pub fn relations(seed: u64) -> [Relation; 2] {
    [
        data::markov(seed, 1, data::ROWS),
        data::markov(seed, 2, data::ROWS),
    ]
}

/// The catalog entries over `relations`.
pub fn stores(relations: &[Relation; 2]) -> Vec<RelationStore> {
    let sharded = relations[1]
        .clone()
        .into_shards(8)
        .expect("the relation splits into shards");
    vec![
        RelationStore::flat(ENTRIES[0], data::catalog(), relations[0].clone())
            .expect("catalog matches the relation"),
        RelationStore::sharded(ENTRIES[1], data::catalog(), sharded)
            .expect("catalog matches the relation"),
    ]
}

/// Runs the workload: [`SETUPS`] set-ups, then one timed window.
pub fn run(seed: u64, seconds: u64, tracer: Option<&Tracer>) -> Outcome {
    let specs = specs(seed);
    let lines: Vec<String> = specs.iter().map(line).collect();
    let reps = ((seconds as f64 * NOMINAL_OPS_S) / specs.len() as f64)
        .round()
        .max(1.0) as usize;
    let mut out = Outcome {
        slice_ops: specs.len() * (reps / 10).max(1),
        ..Outcome::default()
    };
    for setup in 0..SETUPS {
        let start = Instant::now();
        let relations = relations(seed);
        let stores = stores(&relations);
        data::with_server(&stores, |_, client| {
            for line in &lines {
                data::send(client, line);
            }
            out.setup_s.push(start.elapsed().as_secs_f64());
            if setup + 1 < SETUPS {
                return;
            }
            let analyzers = relations
                .each_ref()
                .map(|r| Analyzer::with_thread_budget(r, ThreadBudget::serial()));
            let expects: Vec<Expect> = specs
                .iter()
                .map(|s| reference(s, &analyzers[s.entry]))
                .collect();
            let stream = stream(seed, specs.len(), reps);
            let mut digest = Digest::default();
            for r in &relations {
                data::digest_relation(&mut digest, r);
            }
            for &i in &stream {
                digest.bytes(lines[i].as_bytes());
            }
            out.digest = digest.value();
            timed_window(client, &specs, &lines, &expects, &stream, tracer, &mut out);
        });
    }
    out
}

/// The op stream: `reps` passes over the pool, each a fresh seeded shuffle.
fn stream(seed: u64, pool: usize, reps: usize) -> Vec<usize> {
    let mut rng = data::rng(seed, 12);
    let mut order: Vec<usize> = (0..pool).collect();
    let mut stream = Vec::with_capacity(pool * reps);
    for _ in 0..reps {
        data::shuffle(&mut rng, &mut order);
        stream.extend_from_slice(&order);
    }
    stream
}

fn timed_window(
    client: &mut ajd_server::Client,
    specs: &[Spec],
    lines: &[String],
    expects: &[Expect],
    stream: &[usize],
    tracer: Option<&Tracer>,
    out: &mut Outcome,
) {
    let before = data::wire_stats(client);
    for &i in stream {
        if let Some(t) = tracer {
            t.begin_op(out.attempted);
        }
        let _op = span(tracer, "serve_warm.op");
        let t = Instant::now();
        let frame = {
            let _wire = span(tracer, "client.roundtrip");
            data::send(client, &lines[i])
        };
        out.record(specs[i].class(), ms_since(t));
        out.attempted += 1;
        let _verify = span(tracer, "verify");
        if !check(frame.as_ref(), expects[i]) {
            out.failed += 1;
        }
    }
    let after = data::wire_stats(client);
    warm_guard(before, after, out);
}

/// Every timed request must be a cache hit: no context or shard misses, and
/// the single client never queues or is refused.
fn warm_guard(before: Option<WireStats>, after: Option<WireStats>, out: &mut Outcome) {
    let (Some(b), Some(a)) = (before, after) else {
        out.guard_violations
            .push("stats frame unreadable".to_owned());
        return;
    };
    let d = a.since(&b);
    let checks = [
        ("context misses", d.misses),
        ("shard misses", d.shard_misses),
        ("admission queued", d.queued),
        ("admission rejected", d.rejected),
    ];
    for (what, delta) in checks {
        if delta != 0 {
            out.guard_violations
                .push(format!("{what} in the warm window: {delta}"));
        }
    }
}
