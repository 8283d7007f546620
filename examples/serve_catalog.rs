//! Serve a catalog of delimited files as a loss-analysis service.
//!
//! ```text
//! cargo run --release --example serve_catalog -- [flags] [FILE.csv ...]
//!
//!   --port P          listen on 127.0.0.1:P (default 4321)
//!   --shard-rows N    load each file sharded, N rows per shard (default: flat)
//!   --point-slots N   concurrent point queries (loss/j/entropy/analyze)
//!   --mine-slots N    concurrent mine sweeps
//!   --queue-depth N   waiters allowed per pool before `busy`
//!   --mine-threads N  kernel threads per admitted mine sweep
//!   --demo            no files, no flags needed: serve a built-in relation
//!                     on an ephemeral port, run a short scripted session
//!                     against it, and exit (used by CI)
//! ```
//!
//! Each `FILE.csv` (first line = attribute names) becomes a catalog entry
//! named after its file stem. The wire format is `docs/PROTOCOL.md`; try
//! `cargo run --release --example query_client -- 127.0.0.1:4321 '{"op":"catalog"}'`.

use ajd::prelude::*;
use ajd::server::{Client, RelationStore, Server, ServerConfig, ShutdownToken};
use std::net::TcpListener;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--demo") {
        demo();
        return;
    }

    let mut config = ServerConfig::default();
    let mut port: u16 = 4321;
    let mut shard_rows: Option<usize> = None;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut num = |what: &str| -> usize {
            it.next()
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{what} needs a number"))
        };
        match arg.as_str() {
            "--port" => port = num("--port") as u16,
            "--shard-rows" => shard_rows = Some(num("--shard-rows")),
            "--point-slots" => config.admission.point_slots = num("--point-slots"),
            "--mine-slots" => config.admission.mine_slots = num("--mine-slots"),
            "--queue-depth" => config.admission.queue_depth = num("--queue-depth"),
            "--mine-threads" => config.admission.mine_threads = num("--mine-threads"),
            other => files.push(other.to_owned()),
        }
    }
    if files.is_empty() {
        eprintln!("no files given; run with --demo or pass CSV paths (see the example's docs)");
        std::process::exit(2);
    }

    let stores: Vec<RelationStore> = files
        .iter()
        .map(|file| {
            let name = Path::new(file)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
                .unwrap_or_else(|| file.clone());
            let store = match shard_rows {
                Some(rows) => RelationStore::from_delimited_sharded(
                    &name,
                    file,
                    ReadOptions::default(),
                    ShardPolicy::RowCount(rows),
                ),
                None => RelationStore::from_delimited_path(&name, file, ReadOptions::default()),
            }
            .unwrap_or_else(|e| panic!("loading {file}: {e}"));
            println!(
                "loaded '{}': {} rows x {} attrs ({} shard(s))",
                store.name(),
                store.relation().len(),
                store.relation().arity(),
                store.relation().num_shards()
            );
            store
        })
        .collect();

    let server = Server::new(&stores, config).expect("catalog names must be unique");
    let listener = TcpListener::bind(("127.0.0.1", port)).expect("bind");
    println!(
        "serving {} relation(s) on {} (protocol: docs/PROTOCOL.md); Ctrl-C to stop",
        stores.len(),
        listener.local_addr().unwrap()
    );
    let shutdown = ShutdownToken::new();
    server.serve(listener, &shutdown);
}

/// Self-contained demo: serve one in-memory relation, query it over a real
/// socket, print the session, exit. Deterministic, no arguments, no files.
fn demo() {
    let mut csv = String::from("course,teacher,room\n");
    for i in 0..120 {
        // teacher is determined by course: {course,teacher},{course,room}
        // is lossless.
        csv.push_str(&format!("c{},t{},r{}\n", i % 6, i % 6, i % 4));
    }
    let stores = vec![
        RelationStore::from_delimited("courses", &csv, ReadOptions::default()).expect("demo csv"),
    ];
    let server = Server::new(&stores, ServerConfig::default()).expect("demo server");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().unwrap();
    let shutdown = ShutdownToken::new();
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| server.serve(listener, &shutdown));
        let mut client = Client::connect(addr).expect("connect");
        for request in [
            r#"{"op":"catalog"}"#.to_owned(),
            r#"{"id":1,"op":"loss","relation":"courses","schema":[["course","teacher"],["course","room"]]}"#.to_owned(),
            r#"{"id":2,"op":"entropy","relation":"courses","attrs":["course"]}"#.to_owned(),
            r#"{"id":3,"op":"mine","relation":"courses","max_bag_size":2}"#.to_owned(),
            r#"{"op":"stats","relation":"courses"}"#.to_owned(),
        ] {
            println!("> {request}");
            let response = client.request_line(&request).expect("response");
            println!("< {response}");
            assert_eq!(
                response.get("ok").and_then(|o| o.as_bool()),
                Some(true),
                "demo request failed"
            );
        }
        // Drop the client first: the per-connection thread blocks on its
        // next read until the peer hangs up, and `serve` joins all
        // connection threads before returning.
        drop(client);
        shutdown.signal(addr);
        handle.join().unwrap();
    });
    println!("demo ok");
}
