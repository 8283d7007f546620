//! Per-layer probes of the traced run.
//!
//! Each probe times a call into one layer's public functions from outside
//! the program (every timing is a span of the run's [`Tracer`]) or reads a
//! layer's counters, on the same seeded inputs as the workload the layer
//! serves.  Every traced run reports every probe, whichever workload it
//! replayed.

use crate::data::{self, WireStats};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{analyze_cold, live_ingest, metric, serve_warm, Metric};
use ajd_core::{Analyzer, EstimatedAnalyzer, SchemaMiner};
use ajd_relation::{Relation, ThreadBudget};
use ajd_server::{Json, Request};
use std::hint::black_box;

/// Passes over the `serve_warm` request pool.
const SERVE_PASSES: usize = 3;
/// Appends timed on the library and on the wire.
const APPENDS: usize = 8;
/// Fresh mines timed.
const MINES: usize = 3;
/// Pins per timed `relation.snapshot.pin` span.
const PIN_BATCH: usize = 1_000;

/// Measures every per-layer metric.
pub fn measure(seed: u64, t: &Tracer) -> Vec<Metric> {
    let mut out = Vec::new();
    let relations = serve_warm::relations(seed);
    let admission = serve_layers(seed, &relations, t, &mut out);
    cold_layers(&relations[0], t, &mut out);
    let live_admission = live_layers(seed, t, &mut out);
    out.extend([
        metric(
            "server.admission_queued",
            (admission.queued + live_admission.queued) as f64,
            "count",
        ),
        metric(
            "server.admission_rejected",
            (admission.rejected + live_admission.rejected) as f64,
            "count",
        ),
    ]);
    out
}

fn p50_ms(t: &Tracer, span: &str) -> f64 {
    median(&t.durations_ms(span))
}

/// Metric `<span>_p50_<unit>`: the median duration of the spans named
/// `span`, in `unit` (`ms` or `us`).
fn span_p50(t: &Tracer, span: &str, unit: &'static str) -> Metric {
    let scale = if unit == "us" { 1e3 } else { 1.0 };
    metric(format!("{span}_p50_{unit}"), p50_ms(t, span) * scale, unit)
}

/// Transport, protocol, dispatch, warm measures and estimator builds, on
/// the `serve_warm` catalog.  Returns the admission counter deltas.
fn serve_layers(
    seed: u64,
    relations: &[Relation; 2],
    t: &Tracer,
    out: &mut Vec<Metric>,
) -> WireStats {
    let specs = serve_warm::specs(seed);
    let lines: Vec<String> = specs.iter().map(serve_warm::line).collect();
    let stores = serve_warm::stores(relations);
    let mut transport = Vec::new();
    let delta = data::with_server(&stores, |server, client| {
        for line in &lines {
            data::send(client, line);
        }
        let before = data::wire_stats(client).unwrap_or_default();
        for _ in 0..SERVE_PASSES {
            for line in &lines {
                let (_, round) = t.time("server.roundtrip", || data::send(client, line));
                let (frame, dispatch) = t.time("server.dispatch", || server.handle_line(line));
                transport.push(round - dispatch);
                t.time("server.protocol_parse", || {
                    let json = Json::parse(black_box(line));
                    black_box(json.map(|j| Request::parse(&j)).is_ok())
                });
                t.time("server.protocol_render", || black_box(frame.to_string()));
            }
        }
        data::wire_stats(client).unwrap_or_default().since(&before)
    });
    let lookups = (delta.hits + delta.misses).max(1);
    out.extend([
        metric("server.transport_p50_ms", median(&transport), "ms"),
        span_p50(t, "server.protocol_parse", "us"),
        span_p50(t, "server.protocol_render", "us"),
        span_p50(t, "server.dispatch", "ms"),
        metric(
            "relation.context.hit_ratio",
            delta.hits as f64 / lookups as f64,
            "ratio",
        ),
    ]);

    // The same measures through a library analyzer over the flat storage,
    // warmed by one pass, then timed.
    let serial = ThreadBudget::serial();
    let an = Analyzer::with_thread_budget(&relations[0], serial);
    let trees: Vec<Option<ajd_jointree::JoinTree>> = specs
        .iter()
        .map(|s| (!s.bags.is_empty()).then(|| data::tree_of(&s.bags)))
        .collect();
    for pass in 0..=SERVE_PASSES {
        for (spec, tree) in specs.iter().zip(&trees) {
            if let (serve_warm::Kind::Estimate, Some(tree)) = (spec.kind, tree) {
                let (ea, _) = t.time("core.estimate.build", || {
                    EstimatedAnalyzer::with_thread_budget(
                        &relations[spec.entry],
                        serve_warm::estimate_config(spec),
                        serial,
                    )
                    .expect("estimator builds")
                });
                t.time("core.estimate.measure", || black_box(ea.j_measure(tree)))
                    .0
                    .expect("estimate");
                continue;
            }
            let measure = || match (spec.kind, tree) {
                (serve_warm::Kind::J, Some(tree)) => an.j_measure(tree),
                (serve_warm::Kind::Loss, Some(tree)) => an.loss(tree),
                _ => an.entropy(&data::attr_set(&spec.attrs)),
            };
            if pass == 0 {
                // Warm-up pass: not timed.
                black_box(measure()).expect("warm-up measure");
                continue;
            }
            let name = match spec.kind {
                serve_warm::Kind::Entropy => "core.analysis.entropy_warm",
                serve_warm::Kind::J => "core.analysis.j_warm",
                _ => "core.analysis.loss_warm",
            };
            t.time(name, || black_box(measure()))
                .0
                .expect("warm measure");
        }
    }
    out.extend([
        span_p50(t, "core.analysis.entropy_warm", "us"),
        span_p50(t, "core.analysis.j_warm", "us"),
        span_p50(t, "core.analysis.loss_warm", "us"),
        span_p50(t, "core.estimate.build", "ms"),
        span_p50(t, "core.estimate.measure", "ms"),
    ]);
    delta
}

/// Grouping kernel, shard merge, context misses, join counting, KL and
/// J, full `analyze` per layout and `mine`, on the `analyze_cold` inputs.
fn cold_layers(flat: &Relation, t: &Tracer, out: &mut Vec<Metric>) {
    let serial = ThreadBudget::serial();
    let mut merge = Vec::new();
    let mut misses = Vec::new();
    for bags in analyze_cold::trees() {
        let tree = data::tree_of(&bags);
        let sharded = analyze_cold::fresh_shards(flat, 8);
        for set in data::tree_sets(&tree) {
            t.time("relation.kernel.group", || {
                black_box(flat.group_ids_with(&set, serial))
            })
            .0
            .expect("flat grouping");
            let (_, uncached) = t.time("relation.shard.group_uncached", || {
                black_box(sharded.group_ids_uncached_with(&set, serial))
            });
            let local: f64 = sharded
                .shards()
                .iter()
                .map(|s| {
                    t.time("relation.shard.local_group", || {
                        black_box(s.relation().group_ids_with(&set, serial))
                    })
                    .1
                })
                .sum();
            merge.push(uncached - local);
        }

        let an = Analyzer::with_thread_budget(flat, serial);
        t.time("core.analysis.analyze_flat", || {
            black_box(an.analyze(&tree))
        })
        .0
        .expect("analyze");
        misses.push(an.cache_stats().misses as f64);
        t.time("jointree.count.join_size", || {
            black_box(an.join_size(&tree))
        })
        .0
        .expect("join size");
        t.time("info.kl", || black_box(an.kl_report(&tree)))
            .0
            .expect("kl report");
        t.time("info.jmeasure", || black_box(an.j_measure(&tree)))
            .0
            .expect("j measure");
        for (shards, name) in [
            (1, "core.analysis.analyze_shard1"),
            (8, "core.analysis.analyze_shard8"),
        ] {
            let fresh = analyze_cold::fresh_shards(flat, shards);
            let an = Analyzer::with_thread_budget(&fresh, serial);
            t.time(name, || black_box(an.analyze(&tree)))
                .0
                .expect("analyze");
            misses.push(an.cache_stats().misses as f64);
        }
    }
    for _ in 0..MINES {
        let an = Analyzer::with_thread_budget(flat, serial);
        let miner = SchemaMiner::new(analyze_cold::discovery_config());
        t.time("core.discovery.mine", || {
            black_box(miner.mine_with(&an.batch().with_threads(1)))
        })
        .0
        .expect("mine");
        misses.push(an.cache_stats().misses as f64);
    }
    out.extend([
        span_p50(t, "relation.kernel.group", "ms"),
        span_p50(t, "relation.shard.group_uncached", "ms"),
        metric("relation.shard.merge_p50_ms", median(&merge), "ms"),
        metric(
            "relation.context.misses_per_op",
            misses.iter().sum::<f64>() / misses.len() as f64,
            "count",
        ),
        span_p50(t, "jointree.count.join_size", "ms"),
        span_p50(t, "info.kl", "ms"),
        span_p50(t, "info.jmeasure", "ms"),
        span_p50(t, "core.analysis.analyze_flat", "ms"),
        span_p50(t, "core.analysis.analyze_shard1", "ms"),
        span_p50(t, "core.analysis.analyze_shard8", "ms"),
        span_p50(t, "core.discovery.mine", "ms"),
    ]);
}

/// Appends, snapshot pins and post-append reads on the library, and the
/// same appends over the wire, on the `live_ingest` inputs.  Returns the
/// wire admission counter deltas.
fn live_layers(seed: u64, t: &Tracer, out: &mut Vec<Metric>) -> WireStats {
    let inputs = live_ingest::Inputs::new(seed, APPENDS);
    let live = live_ingest::replica(&inputs);
    for c in 0..APPENDS {
        let shard = inputs.batches[c].clone();
        t.time("core.live.append", || live.append_shard(shard))
            .0
            .expect("library append");
        // A pin is tens of ns: time a batch so the clock resolves it.
        t.time("relation.snapshot.pin", || {
            for _ in 0..PIN_BATCH {
                black_box(live.pin());
            }
        });
        let pinned = live.pin();
        t.time("relation.shard.post_append_read", || {
            black_box(inputs.read_value(&pinned, inputs.reads[c][0]))
        });
    }

    let appends: Vec<String> = inputs
        .batches
        .iter()
        .map(live_ingest::append_line)
        .collect();
    let stores = vec![ajd_server::RelationStore::sharded(
        live_ingest::ENTRY,
        data::catalog(),
        inputs.sharded(),
    )
    .expect("catalog matches the relation")];
    let (delta, per_table) = data::with_server(&stores, |_, client| {
        for read in live_ingest::pool_reads() {
            data::send(client, &inputs.read_line(read));
        }
        let start = data::wire_stats(client).unwrap_or_default();
        let mut ratios = Vec::new();
        for (c, append) in appends.iter().enumerate() {
            let before = data::wire_stats(client).unwrap_or_default();
            t.time("server.append_roundtrip", || data::send(client, append));
            for &read in &inputs.reads[c] {
                data::send(client, &inputs.read_line(read));
            }
            let d = data::wire_stats(client).unwrap_or_default().since(&before);
            ratios.push(d.shard_misses as f64 / d.shard_entries.max(1) as f64);
        }
        let end = data::wire_stats(client).unwrap_or_default();
        (end.since(&start), ratios)
    });
    let append = p50_ms(t, "core.live.append");
    out.extend([
        metric("core.live.append_p50_ms", append, "ms"),
        metric(
            "server.append_decode_p50_ms",
            p50_ms(t, "server.append_roundtrip") - append,
            "ms",
        ),
        metric(
            "relation.snapshot.pin_p50_us",
            p50_ms(t, "relation.snapshot.pin") * 1e3 / PIN_BATCH as f64,
            "us",
        ),
        span_p50(t, "relation.shard.post_append_read", "ms"),
        metric(
            "relation.shard.misses_per_append",
            per_table.iter().sum::<f64>() / per_table.len() as f64,
            "ratio",
        ),
    ]);
    delta
}
