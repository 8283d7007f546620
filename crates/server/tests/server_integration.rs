//! End-to-end tests over a real TCP socket on an ephemeral port:
//! single-flight deduplication observed through the wire, admission
//! behaviour under a mine burst, and the never-close-on-error guarantee.

use ajd_core::{Analyzer, DiscoveryConfig, EstimateConfig, EstimatedAnalyzer, SchemaMiner};
use ajd_jointree::JoinTree;
use ajd_relation::{AttrSet, ReadOptions};
use ajd_server::{Client, Json, RelationStore, Server, ServerConfig, ShutdownToken};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Barrier};
use std::time::Duration;

/// A relation with enough rows that a cold grouping is real work, and a
/// lossless 2-bag schema (`a` determines `b`) plus lossy alternatives.
fn demo_csv(rows: usize) -> String {
    let mut text = String::from("a,b,c\n");
    for i in 0..rows {
        text.push_str(&format!("{},{},{}\n", i % 7, (i % 7) * 2, i % 5));
    }
    text
}

fn demo_stores() -> Vec<RelationStore> {
    vec![RelationStore::from_delimited("demo", &demo_csv(500), ReadOptions::default()).unwrap()]
}

/// Runs `body` against a server listening on an ephemeral port; shuts the
/// server down cleanly afterwards — also when `body` panics, so a failed
/// assertion fails the test instead of leaving the scope waiting on the
/// accept loop forever.
fn with_server<F>(stores: &[RelationStore], config: ServerConfig, body: F)
where
    F: FnOnce(SocketAddr),
{
    /// Signals shutdown when dropped, on return and on unwind alike.
    struct StopOnDrop<'t> {
        shutdown: &'t ShutdownToken,
        addr: SocketAddr,
    }
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.shutdown.signal(self.addr);
        }
    }

    let server = Server::new(stores, config).unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let shutdown = ShutdownToken::new();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(listener, &shutdown));
        let stop = StopOnDrop {
            shutdown: &shutdown,
            addr,
        };
        body(addr);
        drop(stop);
        handle.join().unwrap();
    });
}

/// Regression: a panic inside `with_server`'s body must propagate (failing
/// the test) within a bounded time, not hang on the serve thread.
#[test]
fn with_server_fails_fast_when_the_body_panics() {
    let (tx, rx) = mpsc::channel();
    // Joined only after it has answered: a hanging `with_server` never
    // returns, and the timeout below fails the test instead.
    let helper = std::thread::spawn(move || {
        let stores = demo_stores();
        let run = || with_server(&stores, ServerConfig::default(), |_| panic!("failed"));
        let _ = tx.send(std::panic::catch_unwind(run).is_err());
    });
    let panicked = rx.recv_timeout(Duration::from_secs(30));
    assert_eq!(panicked, Ok(true), "with_server hung or lost the panic");
    helper.join().expect("the helper catches the body's panic");
}

fn misses(client: &mut Client, relation: &str) -> u64 {
    let frame = client
        .request_line(&format!(r#"{{"op":"stats","relation":"{relation}"}}"#))
        .unwrap();
    assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true));
    frame.get("relations").and_then(Json::as_arr).unwrap()[0]
        .get("cache")
        .unwrap()
        .get("misses")
        .and_then(Json::as_u64)
        .unwrap()
}

const COLD_LOSS: &str = r#"{"op":"loss","relation":"demo","schema":[["a","b"],["a","c"]]}"#;

/// The single-flight cache over the wire: N concurrent clients issuing the
/// same cold query must produce exactly as many cache misses as ONE client
/// issuing it once — racing cold lookups coalesce into one computation.
#[test]
fn concurrent_cold_queries_dedup_to_one_computation() {
    // Baseline: one client, one cold query.
    let baseline_stores = demo_stores();
    let mut baseline = 0;
    with_server(&baseline_stores, ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr).unwrap();
        let frame = client.request_line(COLD_LOSS).unwrap();
        assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(frame.get("rho").and_then(Json::as_f64), Some(0.0));
        baseline = misses(&mut client, "demo");
    });
    assert!(baseline > 0, "a cold loss query must miss at least once");

    // Burst: 8 concurrent clients, same cold query, fresh server.
    let burst_stores = demo_stores();
    with_server(&burst_stores, ServerConfig::default(), |addr| {
        const CLIENTS: usize = 8;
        let barrier = Barrier::new(CLIENTS);
        std::thread::scope(|scope| {
            let barrier = &barrier;
            for _ in 0..CLIENTS {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    barrier.wait();
                    let frame = client.request_line(COLD_LOSS).unwrap();
                    assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true));
                    assert_eq!(frame.get("rho").and_then(Json::as_f64), Some(0.0));
                });
            }
        });
        let mut client = Client::connect(addr).unwrap();
        let burst_misses = misses(&mut client, "demo");
        assert_eq!(
            burst_misses, baseline,
            "{CLIENTS} racing cold clients must coalesce to the 1-client miss count"
        );
    });
}

/// A mine burst saturating its own pool must neither overrun `mine_slots`
/// (peak_in_flight proves it) nor starve point queries (their pool rejects
/// nothing and every answer is ok).
#[test]
fn mine_burst_does_not_starve_point_queries() {
    let stores = demo_stores();
    let mut config = ServerConfig::default();
    config.admission.mine_slots = 1;
    config.admission.point_slots = 4;
    config.admission.queue_depth = 64;
    with_server(&stores, config, |addr| {
        const MINERS: usize = 4;
        const POINTS: usize = 4;
        let barrier = Barrier::new(MINERS + POINTS);
        std::thread::scope(|scope| {
            let barrier = &barrier;
            for _ in 0..MINERS {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    barrier.wait();
                    let frame = client
                        .request_line(r#"{"op":"mine","relation":"demo","max_bag_size":2}"#)
                        .unwrap();
                    assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true));
                });
            }
            for i in 0..POINTS {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    barrier.wait();
                    for _ in 0..3 {
                        let frame = client
                            .request_line(&format!(
                                r#"{{"id":{i},"op":"entropy","relation":"demo","attrs":["a"]}}"#
                            ))
                            .unwrap();
                        assert_eq!(
                            frame.get("ok").and_then(Json::as_bool),
                            Some(true),
                            "point queries must keep working during a mine burst: {frame}"
                        );
                    }
                });
            }
        });
        let mut client = Client::connect(addr).unwrap();
        let frame = client.request_line(r#"{"op":"stats"}"#).unwrap();
        let admission = frame.get("admission").unwrap();
        let mine = admission.get("mine").unwrap();
        let point = admission.get("point").unwrap();
        assert_eq!(
            mine.get("peak_in_flight").and_then(Json::as_u64),
            Some(1),
            "mine burst overran mine_slots"
        );
        assert_eq!(
            mine.get("admitted").and_then(Json::as_u64),
            Some(MINERS as u64)
        );
        assert_eq!(point.get("rejected").and_then(Json::as_u64), Some(0));
        assert_eq!(
            point.get("admitted").and_then(Json::as_u64),
            Some((POINTS * 3) as u64)
        );
    });
}

/// An overloaded pool with no queue answers `busy` instead of hanging or
/// closing the connection.
#[test]
fn saturated_pool_answers_busy() {
    let stores = demo_stores();
    let mut config = ServerConfig::default();
    config.admission.mine_slots = 1;
    config.admission.queue_depth = 0;
    with_server(&stores, config, |addr| {
        // Hold the only mine slot by issuing a long mine from one client
        // while a second client races in. Deterministic alternative:
        // saturate via the admission API is unit-tested; over the wire we
        // only assert the busy frame shape using a queue_depth of 0 and a
        // slot held by a concurrent miner. To avoid timing flakiness, we
        // instead check that `busy` is a well-formed error by forcing
        // rejection through a zero-depth queue under contention.
        let barrier = Barrier::new(2);
        let mut saw_busy = false;
        std::thread::scope(|scope| {
            let barrier = &barrier;
            let fast = scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                let mut frames = Vec::new();
                for _ in 0..10 {
                    frames.push(
                        client
                            .request_line(r#"{"op":"mine","relation":"demo"}"#)
                            .unwrap(),
                    );
                }
                frames
            });
            let slow = scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                barrier.wait();
                let mut frames = Vec::new();
                for _ in 0..10 {
                    frames.push(
                        client
                            .request_line(r#"{"op":"mine","relation":"demo"}"#)
                            .unwrap(),
                    );
                }
                frames
            });
            for frame in fast.join().unwrap().into_iter().chain(slow.join().unwrap()) {
                match frame.get("ok").and_then(Json::as_bool) {
                    Some(true) => {}
                    Some(false) => {
                        let error = frame.get("error").unwrap();
                        assert_eq!(error.get("code").and_then(Json::as_str), Some("busy"));
                        saw_busy = true;
                    }
                    None => panic!("frame without ok: {frame}"),
                }
            }
        });
        // Whether busy occurs depends on interleaving; the invariant under
        // either outcome: the connection survived all 20 requests and
        // every frame was well-formed. When contention did happen, the
        // error had the documented shape (asserted above).
        let _ = saw_busy;
        let mut client = Client::connect(addr).unwrap();
        let frame = client.request_line(r#"{"op":"catalog"}"#).unwrap();
        assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true));
    });
}

/// Protocol errors — including lines that are not JSON at all — are
/// answered with error frames on the same connection, which stays usable.
#[test]
fn errors_never_close_the_connection() {
    let stores = demo_stores();
    with_server(&stores, ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr).unwrap();
        let bad_lines = [
            "this is not json",
            "{\"op\":",
            r#"{"op":"teleport"}"#,
            r#"{"v":3,"op":"catalog"}"#,
            r#"{"op":"loss","relation":"demo"}"#,
            r#"{"op":"loss","relation":"ghost","schema":[["a"]]}"#,
            r#"{"op":"entropy","relation":"demo","attrs":["zzz"]}"#,
            r#"{"op":"loss","relation":"demo","schema":[["a","b"]]}"#,
            "[1,2,3]",
            // Parser edge cases: the truncated-literal, leading-zero and
            // unterminated-string paths must answer a parse-error frame,
            // never panic the connection thread.
            "tru",
            "nul",
            r#"{"op":007}"#,
            r#"{"op":"catalog""#,
            "\"unterminated",
            "-",
        ];
        for line in bad_lines {
            let frame = client.request_line(line).unwrap();
            assert_eq!(
                frame.get("ok").and_then(Json::as_bool),
                Some(false),
                "line {line:?} must produce an error frame"
            );
            assert!(
                frame.get("error").is_some(),
                "error envelope missing for {line:?}"
            );
        }
        // The same connection still answers real queries.
        let frame = client.request_line(COLD_LOSS).unwrap();
        assert_eq!(frame.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(frame.get("rho").and_then(Json::as_f64), Some(0.0));
    });
}

/// Sends `bad` and then a `catalog` request as raw bytes on one socket,
/// and returns the two response frames; `None` stands for a frame that
/// never came.  Nothing here panics: a panic inside [`with_server`] would
/// skip the shutdown and hang the test instead of failing it.
fn raw_exchange(stores: &[RelationStore], bad: &[u8]) -> [Option<Json>; 2] {
    let mut frames = [None, None];
    with_server(stores, ServerConfig::default(), |addr| {
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return;
        };
        let _ = stream
            .write_all(bad)
            .and_then(|()| stream.write_all(b"{\"op\":\"catalog\"}\n"));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        for frame in &mut frames {
            let mut line = String::new();
            *frame = match reader.read_line(&mut line) {
                Ok(1..) => Json::parse(&line).ok(),
                _ => None,
            };
        }
    });
    frames
}

fn ok_field(frame: &Option<Json>) -> Option<bool> {
    frame.as_ref()?.get("ok").and_then(Json::as_bool)
}

fn error_field<'a>(frame: &'a Option<Json>, key: &str) -> Option<&'a str> {
    frame
        .as_ref()?
        .get("error")?
        .get(key)
        .and_then(Json::as_str)
}

/// A line that is not UTF-8 gets a `bad_request` frame; the connection
/// stays open and answers the next request.
#[test]
fn non_utf8_line_is_answered_and_keeps_the_connection() {
    let [bad, next] = raw_exchange(&demo_stores(), b"\xff\xfe\n");
    assert_eq!(ok_field(&bad), Some(false), "{bad:?}");
    assert_eq!(error_field(&bad, "code"), Some("bad_request"));
    assert_eq!(ok_field(&next), Some(true), "{next:?}");
}

/// A valid request padded past the 16 MiB line cap is refused with a
/// `bad_request` frame naming the cap, its tail is skipped, and the next
/// request on the connection is answered.
#[test]
fn over_cap_line_is_refused_and_keeps_the_connection() {
    let mut padded = b"{\"op\":\"catalog\"}".to_vec();
    padded.resize(padded.len() + (16 << 20), b' ');
    padded.push(b'\n');
    let [bad, next] = raw_exchange(&demo_stores(), &padded);
    assert_eq!(ok_field(&bad), Some(false), "{bad:?}");
    assert_eq!(error_field(&bad, "code"), Some("bad_request"));
    let message = error_field(&bad, "message").unwrap_or_default();
    assert!(message.contains("16777216"), "{message}");
    assert_eq!(ok_field(&next), Some(true), "{next:?}");
}

/// Request ids of any JSON type are echoed verbatim, and pipelined
/// requests are answered in order.
#[test]
fn ids_echo_and_pipelining_preserves_order() {
    let stores = demo_stores();
    with_server(&stores, ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr).unwrap();
        for (id_json, line) in [
            ("7", r#"{"id":7,"op":"catalog"}"#),
            (r#""q-42""#, r#"{"id":"q-42","op":"stats"}"#),
            (r#"{"tag":[1,2]}"#, r#"{"id":{"tag":[1,2]},"op":"catalog"}"#),
        ] {
            let frame = client.request_line(line).unwrap();
            assert_eq!(frame.get("id").unwrap().to_string(), id_json);
        }
        // Sequential requests on one connection come back in issue order
        // (checked via distinct ids).
        for i in 0..20 {
            let frame = client
                .request_line(&format!(
                    r#"{{"id":{i},"op":"entropy","relation":"demo","attrs":["b"]}}"#
                ))
                .unwrap();
            assert_eq!(frame.get("id").and_then(Json::as_u64), Some(i));
        }
    });
}

/// Both entry kinds answer over the wire exactly as the library's
/// `Analyzer<&Relation>` does over the same rows: `analyze`, `mine` and a
/// sampled `estimate`, bit for bit, for a flat entry and a 4-shard entry.
#[test]
fn sharded_entry_matches_flat_over_the_wire() {
    let text = demo_csv(200);
    let (catalog, relation) =
        ajd_relation::io::read_delimited(&text, ReadOptions::default()).unwrap();
    let stores = vec![
        RelationStore::from_delimited("flat", &text, ReadOptions::default()).unwrap(),
        RelationStore::sharded(
            "sharded",
            catalog.clone(),
            relation.clone().into_shards(4).unwrap(),
        )
        .unwrap(),
    ];

    // The reference: the library over the flat rows, no server involved.
    let reference = Analyzer::new(&relation);
    let bags: Vec<AttrSet> = [["a", "b"], ["b", "c"]]
        .iter()
        .map(|bag| catalog.attrs(bag).unwrap())
        .collect();
    let tree = JoinTree::from_acyclic_schema(&bags).unwrap();
    let report = reference.analyze(&tree).unwrap();
    let mined = SchemaMiner::new(DiscoveryConfig::default())
        .mine_with(&reference)
        .unwrap();
    let config = EstimateConfig::default().with_epsilon(2.0).with_seed(5);
    let estimate = EstimatedAnalyzer::from_analyzer(&reference, config)
        .unwrap()
        .j_measure(&tree)
        .unwrap();
    assert!(!estimate.is_exact(), "the reference estimate must sample");
    let names = |set: &AttrSet| -> Vec<String> {
        set.iter()
            .map(|a| catalog.name(a).unwrap().to_owned())
            .collect()
    };
    let mined_schema: Vec<Vec<String>> = mined.tree.bags().iter().map(names).collect();

    let num = |frame: &Json, field: &str| -> f64 {
        frame
            .get(field)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no number {field} in {frame}"))
    };
    with_server(&stores, ServerConfig::default(), |addr| {
        let mut client = Client::connect(addr).unwrap();
        for name in ["flat", "sharded"] {
            let mut ask = |line: String| {
                let frame = client.request_line(&line).unwrap();
                assert_eq!(
                    frame.get("ok").and_then(Json::as_bool),
                    Some(true),
                    "{name}: {frame}"
                );
                frame
            };
            let schema = r#"[["a","b"],["b","c"]]"#;

            let frame = ask(format!(
                r#"{{"op":"analyze","relation":"{name}","schema":{schema}}}"#
            ));
            let got = frame.get("report").unwrap();
            for (field, want) in [
                ("rows", report.n as f64),
                ("distinct_rows", report.distinct_n as f64),
                ("rho", report.rho),
                ("log1p_rho", report.log1p_rho),
                ("j_nats", report.j_measure),
                ("kl_nats", report.kl_nats),
                ("rho_lower_bound", report.rho_lower_bound),
                ("prop51_bound", report.prop51_bound),
            ] {
                assert_eq!(num(got, field).to_bits(), want.to_bits(), "{name}: {field}");
            }
            let join_size = report.join_size.to_string();
            assert_eq!(
                got.get("join_size").and_then(Json::as_str),
                Some(&*join_size)
            );
            let per_mvd = got.get("per_mvd").and_then(Json::as_arr).unwrap();
            assert_eq!(per_mvd.len(), report.per_mvd.len(), "{name}");
            for (got, want) in per_mvd.iter().zip(&report.per_mvd) {
                assert_eq!(
                    num(got, "cmi_nats").to_bits(),
                    want.cmi_nats.to_bits(),
                    "{name}"
                );
                assert_eq!(num(got, "rho").to_bits(), want.rho.to_bits(), "{name}");
            }

            let frame = ask(format!(r#"{{"op":"mine","relation":"{name}"}}"#));
            assert_eq!(
                num(&frame, "j_nats").to_bits(),
                mined.j_measure.to_bits(),
                "{name}"
            );
            assert_eq!(
                num(&frame, "rho_lower_bound").to_bits(),
                mined.rho_lower_bound.to_bits(),
                "{name}"
            );
            let schema_names: Vec<Vec<String>> = frame
                .get("schema")
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|bag| {
                    let bag = bag.as_arr().unwrap();
                    bag.iter().map(|a| a.as_str().unwrap().to_owned()).collect()
                })
                .collect();
            assert_eq!(schema_names, mined_schema, "{name}");

            let frame = ask(format!(
                r#"{{"op":"estimate","relation":"{name}","measure":"j","schema":{schema},"epsilon":2,"seed":5}}"#
            ));
            assert_eq!(
                num(&frame, "value").to_bits(),
                estimate.value.to_bits(),
                "{name}"
            );
            assert_eq!(
                num(&frame, "epsilon").to_bits(),
                estimate.epsilon.to_bits(),
                "{name}"
            );
            assert_eq!(
                frame.get("sample_rows").and_then(Json::as_u64),
                Some(estimate.sample_rows),
                "{name}"
            );
            assert_eq!(frame.get("exact").and_then(Json::as_bool), Some(false));
        }
    });
}
