//! Serving figure: connection scaling of the readiness-driven reactor
//! behind `utk serve`. The reactor holds thousands of sockets on one
//! thread, with no OS thread per connection, and sheds the rest with
//! a *typed* busy line, never a silent drop.
//!
//! Two phases against an in-process server on TCP:
//!
//! 1. **scaling** — opens 1088 concurrent connections (past the 1024
//!    mark), then serves a query on every one of them, twice,
//!    asserting all answers are identical — every connection stays
//!    live end to end;
//! 2. **shedding** — caps the server at 256 connections and opens the
//!    same 1088: exactly the cap is served, every over-cap connection
//!    reads a typed `busy` error line (then EOF), and the observed
//!    split matches the server's own `busy_rejections` counter.
//!
//! Counter-based metrics stay meaningful on noisy single-core
//! containers; wall-clock connections/sec is recorded but is *not*
//! the load-bearing number there.
//!
//! Usage: `cargo run --release -p utk-bench --bin evented_scaling
//! [--scale f] [--seed s]`
//!
//! Prints Markdown tables and records the raw numbers in
//! `BENCH_EVENTED.json` in the working directory.

use std::path::{Path, PathBuf};
use std::time::Instant;
use utk_bench::{secs, Config, Table};
use utk_data::csv::write_csv;
use utk_data::synthetic::{generate, Distribution};
use utk_server::client::Connection;
use utk_server::proto::{code, Request, Response};
use utk_server::server::{Bind, Server, ServerConfig, ServerHandle};

const D: usize = 3;
const K: usize = 10;
/// Concurrent connections in the scaling phase: past 1024.
const CONNECTIONS: usize = 1088;
/// The connection cap in the shedding phase.
const SHED_CAP: usize = 256;

fn dataset_dir(cfg: &Config, n: usize) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("utk_evented_bench_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("bench dir");
    let csv = write_csv(&generate(Distribution::Ind, n, D, cfg.seed), None);
    std::fs::write(dir.join("ind.csv"), csv).expect("bench dataset");
    dir
}

fn start_server(dir: &Path, max_connections: usize) -> ServerHandle {
    let mut config = ServerConfig::new(Bind::Tcp(0), dir.to_path_buf());
    config.max_connections = max_connections;
    Server::bind(config).expect("bind bench server").spawn()
}

fn shutdown(handle: ServerHandle) -> utk_server::ServeSnapshot {
    let mut conn = Connection::connect(handle.bind_addr()).expect("shutdown connection");
    conn.round_trip(&Request::Shutdown.to_json())
        .expect("shutdown request");
    handle.join().expect("clean server exit")
}

fn query_line() -> String {
    Request::Query {
        dataset: "ind".into(),
        q: format!("topk --k {K} --weights 0.3,0.4"),
    }
    .to_json()
}

fn main() {
    let cfg = Config::from_args();
    let n = cfg.n(2_000);
    let dir = dataset_dir(&cfg, n);

    // --- phase 1: connection scaling ---------------------------------
    let handle = start_server(&dir, 2 * CONNECTIONS);
    let bind = handle.bind_addr().clone();
    // Force the dataset resident so per-connection queries measure the
    // transport, not loading.
    Connection::connect(&bind)
        .expect("load connection")
        .round_trip(
            &Request::Load {
                dataset: "ind".into(),
            }
            .to_json(),
        )
        .expect("load");

    let t0 = Instant::now();
    let mut conns: Vec<Connection> = (0..CONNECTIONS)
        .map(|i| Connection::connect(&bind).unwrap_or_else(|e| panic!("connection {i}: {e}")))
        .collect();
    let open_elapsed = t0.elapsed().as_secs_f64();

    // Two query rounds over every open connection: the second round
    // proves each socket is still live after the sweep touched all of
    // them, not just accept-then-forgotten.
    let line = query_line();
    let t1 = Instant::now();
    let mut answers = 0usize;
    let mut first: Option<String> = None;
    for round in 0..2 {
        for (i, conn) in conns.iter_mut().enumerate() {
            let got = conn
                .round_trip(&line)
                .unwrap_or_else(|e| panic!("round {round}, connection {i}: {e}"));
            assert!(
                got.starts_with(r#"{"query":"topk""#),
                "connection {i} got a non-result: {got}"
            );
            match &first {
                None => first = Some(got),
                Some(want) => assert_eq!(&got, want, "answers diverged on connection {i}"),
            }
            answers += 1;
        }
    }
    let query_elapsed = t1.elapsed().as_secs_f64();
    drop(conns);
    let scaling_snap = shutdown(handle);
    // load + 2 rounds of queries + shutdown, zero sheds.
    assert_eq!(
        scaling_snap.requests_served as usize,
        1 + 2 * CONNECTIONS + 1,
        "{scaling_snap:?}"
    );
    assert_eq!(scaling_snap.busy_rejections, 0, "{scaling_snap:?}");

    // --- phase 2: typed shedding over the cap ------------------------
    let handle = start_server(&dir, SHED_CAP);
    let bind = handle.bind_addr().clone();
    let mut held: Vec<Connection> = Vec::new();
    let (mut served, mut shed) = (0usize, 0usize);
    for i in 0..CONNECTIONS {
        let mut conn = Connection::connect(&bind).unwrap_or_else(|e| panic!("shed conn {i}: {e}"));
        // Held connections answer; over-cap ones were sent a typed
        // busy line before we even wrote (read here as the response).
        let got = conn
            .round_trip(&Request::Stats.to_json())
            .unwrap_or_else(|e| panic!("shed probe {i}: {e}"));
        match Response::parse(&got).expect("parseable response") {
            Response::Stats(_) => {
                served += 1;
                held.push(conn);
            }
            Response::Error(e) if e.code == code::BUSY => shed += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    let shed_snap = {
        let first = held.first_mut().expect("held connection");
        first
            .round_trip(&Request::Shutdown.to_json())
            .expect("shutdown request");
        drop(held);
        handle.join().expect("clean server exit")
    };
    assert_eq!(served, SHED_CAP, "exactly the cap is served");
    assert_eq!(
        shed,
        CONNECTIONS - SHED_CAP,
        "everything over the cap sheds"
    );
    assert_eq!(
        shed_snap.busy_rejections as usize, shed,
        "server counter must match observed sheds"
    );

    // --- report ------------------------------------------------------
    println!("Evented connection scaling (n = {n}, d = {D}, k = {K})");
    let mut table = Table::new(vec!["phase", "connections", "served", "busy", "elapsed"]);
    table.row(vec![
        "scaling (2 query rounds)".into(),
        CONNECTIONS.to_string(),
        answers.to_string(),
        "0".into(),
        secs(open_elapsed + query_elapsed),
    ]);
    table.row(vec![
        format!("shedding (cap={SHED_CAP})"),
        CONNECTIONS.to_string(),
        served.to_string(),
        shed.to_string(),
        "-".into(),
    ]);
    table.print();

    let cores = utk_bench::recorded_parallelism();
    let json = format!(
        concat!(
            r#"{{"schema_version":1,"figure":"evented_scaling","n":{},"d":{},"k":{},"#,
            r#""seed":{},"available_parallelism":{},"transport":"evented","#,
            r#""scaling":{{"concurrent_connections":{},"query_rounds":2,"answers":{},"#,
            r#""open_seconds":{:.6},"query_seconds":{:.6},"requests_served":{},"#,
            r#""busy_rejections":0,"all_answers_identical":true}},"#,
            r#""shedding":{{"max_connections":{},"attempted":{},"served":{},"shed":{},"#,
            r#""busy_counter_matches_observed":true,"shed_errors_typed":true}},"#,
            r#""note":"counter-based metrics are the load-bearing part; timings are "#,
            r#"noise-dominated on single-core containers"}}"#
        ),
        n,
        D,
        K,
        cfg.seed,
        cores,
        CONNECTIONS,
        answers,
        open_elapsed,
        query_elapsed,
        scaling_snap.requests_served,
        SHED_CAP,
        CONNECTIONS,
        served,
        shed,
    );
    std::fs::write("BENCH_EVENTED.json", json + "\n").expect("write figure json");
    eprintln!("wrote BENCH_EVENTED.json (available_parallelism = {cores})");
}
