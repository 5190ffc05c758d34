//! End-to-end tests of the `utk serve` subsystem: the binary-level
//! serve/client/batch triangle (byte-identity), admission control
//! under concurrency, and the protocol ops.

use std::io::Read;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use utk::data::csv::parse_csv;
use utk::data::synthetic::{generate, Distribution};
use utk::prelude::*;
use utk::server::client::{BatchReply, Connection};
use utk::server::proto::{code, Request, Response};
use utk::server::server::{Bind, Server, ServerConfig};
use utk::server::spec;
use utk_testdir::TestDir;

const HOTELS_CSV: &str = "\
hotel,service,cleanliness,location
p1,8.3,9.1,7.2
p2,2.4,9.6,8.6
p3,5.4,1.6,4.1
p4,2.6,6.9,9.4
p5,7.3,3.1,2.4
p6,7.9,6.4,6.6
p7,8.6,7.1,4.3
";

/// The mixed batch the CLI tests use: valid, malformed, and
/// engine-rejected lines.
const QUERY_FILE: &str = "\
# mixed batch: valid, malformed, engine-rejected
utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25

frobnicate --k 2
topk --k 2 --weights 0.3,0.5,0.2
utk2 --k 2 --lo 0.05,0.05 --hi 0.45,0.25 --parallel
utk1 --k 0 --lo 0.05,0.05 --hi 0.45,0.25
utk2 --k 2 --center 0.25,0.15 --width 0.2 --algo jaa
";

/// A fresh fixture directory holding a `hotels` dataset; `extra`
/// adds more `<name>.csv` files.
fn datasets_dir(tag: &str, extra: &[(&str, String)]) -> TestDir {
    let dir = TestDir::new(&format!("serve_{tag}"));
    std::fs::write(dir.join("hotels.csv"), HOTELS_CSV).unwrap();
    for (name, text) in extra {
        std::fs::write(dir.join(format!("{name}.csv")), text).unwrap();
    }
    dir
}

fn utk_bin(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_utk"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Spawns `utk serve` on a Unix socket and waits for the socket
/// file, which appears only once the server listens. The wait spins
/// instead of sleeping, so a gap between the file appearing and the
/// server listening would be caught by the first connect.
#[cfg(unix)]
fn spawn_serve(dir: &Path, socket: &Path, extra_flags: &[&str]) -> Child {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_utk"));
    cmd.args([
        "serve",
        "--datasets",
        dir.to_str().unwrap(),
        "--socket",
        socket.to_str().unwrap(),
    ])
    .args(extra_flags)
    .stdout(Stdio::null())
    .stderr(Stdio::piped());
    let child = cmd.spawn().expect("serve spawns");
    let deadline = Instant::now() + Duration::from_secs(20);
    while !socket.exists() {
        assert!(Instant::now() < deadline, "server never bound {socket:?}");
        std::thread::yield_now();
    }
    child
}

/// Waits for a child to exit, failing the test (and killing it) on
/// timeout — the "no leaked server" check.
fn assert_exits_cleanly(mut child: Child, within: Duration) {
    let deadline = Instant::now() + within;
    loop {
        match child.try_wait().expect("try_wait") {
            Some(status) => {
                let mut stderr = String::new();
                if let Some(mut pipe) = child.stderr.take() {
                    let _ = pipe.read_to_string(&mut stderr);
                }
                assert!(status.success(), "server exited with {status}: {stderr}");
                return;
            }
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                panic!("server did not exit within {within:?} after shutdown");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// The acceptance-criteria test: the same query file through
/// `utk client` → `utk serve` and through `utk batch` produces
/// byte-identical JSON lines; shutdown is clean.
#[cfg(unix)]
#[test]
fn serving_is_byte_identical_to_batch() {
    let fixture = datasets_dir("e2e", &[]);
    let dir = fixture.path().to_path_buf();
    let socket = dir.join("utk.sock");
    let qfile = dir.join("queries.txt");
    std::fs::write(&qfile, QUERY_FILE).unwrap();
    let server = spawn_serve(&dir, &socket, &["--max-inflight", "4"]);

    let (served, stderr, ok) = utk_bin(&[
        "client",
        "--socket",
        socket.to_str().unwrap(),
        "--dataset",
        "hotels",
        "--file",
        qfile.to_str().unwrap(),
    ]);
    assert!(ok, "client batch failed: {stderr}");

    let hotels = dir.join("hotels.csv");
    let (batch, stderr, ok) = utk_bin(&[
        "batch",
        "--data",
        hotels.to_str().unwrap(),
        "--file",
        qfile.to_str().unwrap(),
    ]);
    assert!(ok, "batch failed: {stderr}");
    assert_eq!(served, batch, "served output must be byte-identical");
    assert_eq!(served.lines().count(), 6, "one line per query:\n{served}");

    // A control op round-trips through the client binary too.
    let (stats, _, ok) = utk_bin(&[
        "client",
        "--socket",
        socket.to_str().unwrap(),
        "--op",
        "stats",
    ]);
    assert!(ok);
    assert!(stats.contains(r#""requests_served":"#), "{stats}");
    assert!(stats.contains(r#""datasets":["hotels"]"#), "{stats}");

    // A server-side protocol error is exactly one JSON line on
    // stdout (the server's coded object, never a second wrapper) and
    // a nonzero exit.
    let (out, _, ok) = utk_bin(&[
        "client",
        "--socket",
        socket.to_str().unwrap(),
        "--op",
        "load",
        "--dataset",
        "nope",
    ]);
    assert!(!ok);
    assert_eq!(out.lines().count(), 1, "one line per response:\n{out}");
    assert!(out.contains(r#""code":"unknown_dataset""#), "{out}");

    let (out, _, ok) = utk_bin(&[
        "client",
        "--socket",
        socket.to_str().unwrap(),
        "--op",
        "shutdown",
    ]);
    assert!(ok);
    assert!(out.contains(r#"{"ok":"shutdown"}"#), "{out}");
    assert_exits_cleanly(server, Duration::from_secs(10));
    assert!(!socket.exists(), "socket file must be removed on shutdown");
}

/// Admission control: with `--max-inflight 1`, a concurrent client
/// observes typed `busy` errors while a heavy batch holds the slot,
/// and every accepted query still returns a correct result.
#[cfg(unix)]
#[test]
fn admission_control_sheds_load_with_busy_errors() {
    let anti = generate(Distribution::Anti, 1500, 3, 42);
    let anti_csv = utk::data::csv::write_csv(&anti, None);
    let fixture = datasets_dir("busy", &[("anti", anti_csv.clone())]);
    let dir = fixture.path().to_path_buf();
    let socket = dir.join("busy.sock");

    let mut config = ServerConfig::new(Bind::Unix(socket.clone()), dir.clone());
    config.max_inflight = 1;
    config.pool_threads = 1;
    let handle = Server::bind(config).expect("bind").spawn();

    // A batch heavy enough to hold the admission slot for a while.
    let heavy: String = (0..6)
        .map(|i| format!("utk2 --k 6 --center 0.3{i},0.2{i} --width 0.08\n"))
        .collect();
    let heavy_clone = heavy.clone();
    let bind = handle.bind_addr().clone();
    let batcher = std::thread::spawn(move || {
        let mut conn = Connection::connect(&bind).expect("batch connection");
        conn.batch("anti", &heavy_clone).expect("batch request")
    });

    // Wait until the batch actually occupies the slot, then probe.
    let deadline = Instant::now() + Duration::from_secs(20);
    while handle.snapshot().inflight == 0 {
        assert!(
            Instant::now() < deadline,
            "batch never became in-flight: {:?}",
            handle.snapshot()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut probe = Connection::connect(handle.bind_addr()).expect("probe connection");
    let mut saw_busy = false;
    let mut accepted: Vec<String> = Vec::new();
    let probe_line = "topk --k 2 --weights 0.3,0.5,0.2";
    while Instant::now() < deadline {
        let request = Request::Query {
            dataset: "anti".into(),
            q: probe_line.into(),
        };
        let line = probe.round_trip(&request.to_json()).expect("probe");
        match Response::parse(&line).expect("parseable response") {
            Response::Error(e) if e.code == code::BUSY => {
                saw_busy = true;
                break;
            }
            Response::Result(l) => accepted.push(l),
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(saw_busy, "probe never saw a busy rejection");

    // The heavy batch drains to completion with correct results:
    // identical to answering the same file on a fresh local engine.
    let BatchReply::Lines(served) = batcher.join().expect("batcher thread") else {
        panic!("the first batch must be admitted");
    };
    let data = parse_csv(&anti_csv, "anti").unwrap();
    let engine = UtkEngine::new(data.dataset.points.clone())
        .unwrap()
        .with_pool_threads(1);
    let parsed = spec::parse_query_file(&heavy, 3);
    let expected = spec::answer_query_file(&engine, &data, &parsed);
    assert_eq!(served, expected, "accepted batch must be exact");

    // Once the slot frees, the probe query is accepted and exact.
    let expected_probe = spec::answer_query_line(&engine, &data, probe_line);
    let deadline = Instant::now() + Duration::from_secs(20);
    let accepted_after = loop {
        assert!(Instant::now() < deadline, "probe never got admitted");
        let request = Request::Query {
            dataset: "anti".into(),
            q: probe_line.into(),
        };
        let line = probe.round_trip(&request.to_json()).expect("probe");
        match Response::parse(&line).expect("parseable response") {
            Response::Error(e) if e.code == code::BUSY => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Response::Result(l) => break l,
            other => panic!("unexpected response {other:?}"),
        }
    };
    assert_eq!(accepted_after, expected_probe);
    for line in accepted {
        assert_eq!(line, expected_probe, "every accepted probe must be exact");
    }

    let snap = handle.snapshot();
    assert!(snap.busy_rejections >= 1, "{snap:?}");
    probe
        .round_trip(&Request::Shutdown.to_json())
        .expect("shutdown");
    let final_snap = handle.join().expect("clean exit");
    assert!(final_snap.requests_served >= 2, "{final_snap:?}");
    assert!(final_snap.busy_rejections >= 1, "{final_snap:?}");
}

/// `--file` and `--op` on the client are rejected up front — `--op`
/// would otherwise be silently ignored.
#[test]
fn client_rejects_file_op_combination() {
    let (stdout, stderr, ok) = utk_bin(&[
        "client",
        "--socket",
        "/nonexistent.sock",
        "--dataset",
        "d",
        "--file",
        "q.txt",
        "--op",
        "shutdown",
    ]);
    assert!(!ok);
    assert!(stderr.contains("mutually exclusive"), "{stderr}");
    // Validated before connecting (the socket does not exist), and
    // reported as a JSON error (client is an always-JSON command).
    assert!(stdout.starts_with(r#"{"error":""#), "{stdout}");
}

/// Binding refuses to hijack a live server's Unix socket but cleans
/// up a stale file.
#[cfg(unix)]
#[test]
fn bind_refuses_live_socket_and_reclaims_stale_one() {
    let fixture = datasets_dir("bindrace", &[]);
    let dir = fixture.path().to_path_buf();
    let socket = dir.join("race.sock");
    let first = Server::bind(ServerConfig::new(Bind::Unix(socket.clone()), dir.clone()))
        .expect("first bind")
        .spawn();

    let err = match Server::bind(ServerConfig::new(Bind::Unix(socket.clone()), dir.clone())) {
        Err(e) => e,
        Ok(_) => panic!("second bind on a live socket must fail"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    // The live server is untouched.
    let mut conn = Connection::connect(first.bind_addr()).expect("still reachable");
    conn.round_trip(&Request::Shutdown.to_json()).unwrap();
    first.join().expect("clean exit");
    assert!(!socket.exists());

    // A stale file (no listener behind it) is reclaimed.
    std::fs::write(&socket, b"").unwrap();
    let reclaimed = Server::bind(ServerConfig::new(Bind::Unix(socket.clone()), dir))
        .expect("stale socket reclaimed")
        .spawn();
    let mut conn = Connection::connect(reclaimed.bind_addr()).expect("reachable");
    conn.round_trip(&Request::Shutdown.to_json()).unwrap();
    reclaimed.join().expect("clean exit");
}

/// Readiness: the socket file appears only once the server listens,
/// so one connect attempt as soon as the file exists must succeed —
/// on every one of 16 fresh starts. No temporary bind file is left
/// behind, and shutdown removes the socket.
#[cfg(unix)]
#[test]
fn socket_file_means_the_server_is_listening() {
    let fixture = datasets_dir("ready", &[]);
    let dir = fixture.path().to_path_buf();
    let socket = dir.join("ready.sock");
    for start in 0..16 {
        let server = spawn_serve(&dir, &socket, &[]);
        let mut conn = Connection::connect(&Bind::Unix(socket.clone())).unwrap_or_else(|e| {
            panic!("start {start}: socket file exists but connect failed: {e}")
        });
        let reply = conn.round_trip(&Request::Shutdown.to_json()).unwrap();
        assert!(reply.contains(r#""ok":"shutdown""#), "{reply}");
        assert_exits_cleanly(server, Duration::from_secs(10));
        assert!(!socket.exists(), "start {start}: socket file left behind");
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names, ["hotels.csv"], "start {start}: stray files");
    }
}

/// Protocol ops against an in-process server: lazy load, stats
/// accounting, evict, empty batches, and typed error codes.
#[test]
fn protocol_ops_and_error_codes() {
    let fixture = datasets_dir("proto", &[]);
    let dir = fixture.path().to_path_buf();
    let handle = Server::bind(ServerConfig::new(Bind::Tcp(0), dir))
        .expect("bind")
        .spawn();
    let mut conn = Connection::connect(handle.bind_addr()).expect("connect");

    // Nothing is resident until asked for.
    assert_eq!(handle.snapshot().datasets_loaded, 0);
    let loaded = conn
        .request(&Request::Load {
            dataset: "hotels".into(),
        })
        .unwrap();
    assert_eq!(
        loaded,
        Response::Load {
            dataset: "hotels".into(),
            n: 7,
            d: 3,
            already_loaded: false,
        }
    );
    let again = conn
        .request(&Request::Load {
            dataset: "hotels".into(),
        })
        .unwrap();
    assert!(matches!(
        again,
        Response::Load {
            already_loaded: true,
            ..
        }
    ));

    // A query on the loaded dataset, straight through the protocol.
    let line = conn
        .round_trip(
            &Request::Query {
                dataset: "hotels".into(),
                q: "utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25".into(),
            }
            .to_json(),
        )
        .unwrap();
    for p in ["p1", "p2", "p4", "p6"] {
        assert!(line.contains(p), "missing {p}: {line}");
    }

    // An empty batch is answered, not crashed on (the run_many([])
    // regression surface).
    let reply = conn.batch("hotels", "# only comments\n\n").unwrap();
    assert_eq!(reply, BatchReply::Lines(Vec::new()));

    // Typed error codes.
    let err = |req: &Request, conn: &mut Connection| -> utk::server::proto::ProtoError {
        match conn.request(req).unwrap() {
            Response::Error(e) => e,
            other => panic!("expected an error, got {other:?}"),
        }
    };
    assert_eq!(
        err(
            &Request::Load {
                dataset: "missing".into()
            },
            &mut conn
        )
        .code,
        code::UNKNOWN_DATASET
    );
    assert_eq!(
        err(
            &Request::Load {
                dataset: "../escape".into()
            },
            &mut conn
        )
        .code,
        code::BAD_REQUEST
    );
    let bad = conn.round_trip(r#"{"op":"frobnicate"}"#).unwrap();
    assert!(bad.contains(r#""code":"bad_request""#), "{bad}");
    let not_json = conn.round_trip("hello there").unwrap();
    assert!(not_json.contains(r#""code":"bad_request""#), "{not_json}");

    // A malformed query line is a per-query error (plain shape, no
    // code) — exactly what a batch line would produce.
    let qerr = conn
        .round_trip(
            &Request::Query {
                dataset: "hotels".into(),
                q: "utk1 --k 2".into(),
            }
            .to_json(),
        )
        .unwrap();
    assert!(qerr.starts_with(r#"{"error":""#), "{qerr}");
    assert!(!qerr.contains(r#""code""#), "{qerr}");

    // Evict unloads; stats reflect all of the above.
    let evicted = conn
        .request(&Request::Evict {
            dataset: "hotels".into(),
        })
        .unwrap();
    assert_eq!(
        evicted,
        Response::Evict {
            dataset: "hotels".into(),
            evicted: true,
        }
    );
    let Response::Stats(stats) = conn.request(&Request::Stats).unwrap() else {
        panic!("stats expected");
    };
    assert_eq!(stats.datasets_loaded, 0);
    assert!(stats.requests_served >= 6, "{stats:?}");
    assert_eq!(stats.busy_rejections, 0);
    assert_eq!(stats.max_inflight, 64);

    assert_eq!(
        conn.request(&Request::Shutdown).unwrap(),
        Response::Shutdown
    );
    handle.join().expect("clean exit");
}

/// The `update` op end to end: mutate a served dataset, observe the
/// post-mutation answers (names included) track a locally mutated
/// engine exactly, and confirm evicting the mutated dataset is
/// *refused* with a typed error when no WAL backs it — the old
/// behavior silently reverted to the disk CSV, losing every update.
#[test]
fn update_op_mutates_answers_and_evict_refuses_to_lose_them() {
    let fixture = datasets_dir("update", &[]);
    let dir = fixture.path().to_path_buf();
    let handle = Server::bind(ServerConfig::new(Bind::Tcp(0), dir))
        .expect("bind")
        .spawn();
    let mut conn = Connection::connect(handle.bind_addr()).expect("connect");
    let probe = "utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25";

    let before = conn
        .round_trip(
            &Request::Query {
                dataset: "hotels".into(),
                q: probe.into(),
            }
            .to_json(),
        )
        .unwrap();

    // Delete p3 (id 2) and append a dominant hotel "p8".
    let update = Request::Update {
        dataset: "hotels".into(),
        delete: vec![2],
        insert: vec![vec![9.9, 9.8, 9.7]],
        labels: Some(vec!["p8".into()]),
    };
    let reply = conn.request(&update).unwrap();
    let Response::Update {
        epoch,
        n,
        inserted,
        deleted,
        ..
    } = reply
    else {
        panic!("expected an update receipt, got {reply:?}");
    };
    assert_eq!((epoch, n, inserted, deleted), (1, 7, 1, 1));

    // The served answer now matches a local engine mutated the same
    // way — byte for byte, labels shifted with their rows.
    let mut data = parse_csv(HOTELS_CSV, "hotels").unwrap();
    data.apply_update(&[2], &[vec![9.9, 9.8, 9.7]], Some(&["p8".to_string()]))
        .unwrap();
    let engine = UtkEngine::new(data.dataset.points.clone()).unwrap();
    let expected = spec::answer_query_line(&engine, &data, probe);
    let after = conn
        .round_trip(
            &Request::Query {
                dataset: "hotels".into(),
                q: probe.into(),
            }
            .to_json(),
        )
        .unwrap();
    // Everything up to the stats object is byte-identical; the work
    // counters legitimately differ (the server's engine reads its
    // R-tree through the mutation overlay, the fresh build does not).
    let result_part = |line: &str| line.split(r#","stats":"#).next().unwrap().to_string();
    assert_eq!(result_part(&after), result_part(&expected));
    assert_ne!(after, before, "a dominant insert must change the answer");
    assert!(after.contains("p8"), "{after}");

    // Label policy and bad ids are typed bad_request errors.
    for bad in [
        Request::Update {
            dataset: "hotels".into(),
            delete: vec![],
            insert: vec![vec![1.0, 1.0, 1.0]],
            labels: None, // labeled dataset needs labels
        },
        Request::Update {
            dataset: "hotels".into(),
            delete: vec![99],
            insert: vec![],
            labels: None,
        },
        Request::Update {
            dataset: "hotels".into(),
            delete: vec![],
            insert: vec![vec![1.0, 1.0, 1.0]],
            labels: Some(vec!["p8".into()]), // duplicate identity
        },
    ] {
        match conn.request(&bad).unwrap() {
            Response::Error(e) => assert_eq!(e.code, code::BAD_REQUEST),
            other => panic!("expected bad_request, got {other:?}"),
        }
    }

    // Without a WAL, evicting now would silently revert the dataset
    // to the disk CSV. The server refuses with a typed error instead
    // (regression lock on the silent-revert bug).
    match conn
        .request(&Request::Evict {
            dataset: "hotels".into(),
        })
        .unwrap()
    {
        Response::Error(e) => {
            assert_eq!(e.code, code::WOULD_LOSE_UPDATES, "{e:?}");
            assert!(e.message.contains("--wal-dir"), "{e:?}");
        }
        other => panic!("expected would_lose_updates, got {other:?}"),
    }
    // The refusal left the mutated dataset resident and serving.
    let still = conn
        .round_trip(
            &Request::Query {
                dataset: "hotels".into(),
                q: probe.into(),
            }
            .to_json(),
        )
        .unwrap();
    assert_eq!(still, after, "refused evict must not disturb the engine");

    conn.request(&Request::Shutdown).unwrap();
    handle.join().expect("clean exit");
}

/// The WAL-backed serving path end to end, through the real binary
/// and the `--wal-dir` flag: updates are durable, evicting a mutated
/// dataset is allowed (the log replays it on reload), and a full
/// server restart serves the updated answers — not the disk CSV.
#[cfg(unix)]
#[test]
fn wal_backed_evict_and_restart_replay_updates() {
    let fixture = datasets_dir("wal_e2e", &[]);
    let dir = fixture.path().to_path_buf();
    let wal_dir = dir.join("wal");
    let socket = dir.join("wal.sock");
    let server = spawn_serve(&dir, &socket, &["--wal-dir", wal_dir.to_str().unwrap()]);
    let bind = Bind::Unix(socket.clone());
    let mut conn = Connection::connect(&bind).expect("connect");
    let probe = "utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25";
    let query = Request::Query {
        dataset: "hotels".into(),
        q: probe.into(),
    }
    .to_json();

    // Mutate: delete p3 (id 2), insert a dominant "p8".
    let reply = conn
        .request(&Request::Update {
            dataset: "hotels".into(),
            delete: vec![2],
            insert: vec![vec![9.9, 9.8, 9.7]],
            labels: Some(vec!["p8".into()]),
        })
        .unwrap();
    assert!(
        matches!(reply, Response::Update { epoch: 1, .. }),
        "{reply:?}"
    );
    let after = conn.round_trip(&query).unwrap();
    assert!(after.contains("p8"), "{after}");

    // Stats surface the log state.
    let Response::Stats(stats) = conn.request(&Request::Stats).unwrap() else {
        panic!("stats expected");
    };
    assert!(stats.wal_enabled, "{stats:?}");
    assert_eq!(stats.wal_datasets, 1, "{stats:?}");
    assert!(stats.wal_records >= 1, "{stats:?}");
    assert!(stats.wal_bytes > 0, "{stats:?}");
    // …and the per-dataset stanza breaks the totals down.
    assert_eq!(stats.wal.len(), 1, "{stats:?}");
    assert_eq!(stats.wal[0].dataset, "hotels", "{stats:?}");
    assert_eq!(stats.wal[0].records, stats.wal_records, "{stats:?}");
    assert_eq!(stats.wal[0].bytes, stats.wal_bytes, "{stats:?}");
    assert_eq!(stats.wal[0].last_epoch, 1, "{stats:?}");

    // With a WAL the evict is safe — and the lazily reloaded engine
    // replays the log, so the *updated* answer comes back.
    assert_eq!(
        conn.request(&Request::Evict {
            dataset: "hotels".into()
        })
        .unwrap(),
        Response::Evict {
            dataset: "hotels".into(),
            evicted: true
        }
    );
    let reloaded = conn.round_trip(&query).unwrap();
    assert_eq!(reloaded, after, "evict-then-query must replay the WAL");

    conn.round_trip(&Request::Shutdown.to_json()).unwrap();
    assert_exits_cleanly(server, Duration::from_secs(10));

    // Durability across a process restart: a brand-new server over
    // the same directories serves the updated dataset.
    let server = spawn_serve(&dir, &socket, &["--wal-dir", wal_dir.to_str().unwrap()]);
    let mut conn = Connection::connect(&bind).expect("reconnect");
    let replayed = conn.round_trip(&query).unwrap();
    assert_eq!(replayed, after, "restart must replay the WAL");
    conn.round_trip(&Request::Shutdown.to_json()).unwrap();
    assert_exits_cleanly(server, Duration::from_secs(10));
}

/// The shared cache budget is re-dealt when an `update` changes a
/// dataset's size: the proportional deal shifts budget between the
/// resident engines in place, keeping surviving entries warm.
#[test]
fn update_redeals_the_shared_budget_as_sizes_change() {
    use utk::server::DatasetRegistry;
    let anti = generate(Distribution::Anti, 200, 3, 7);
    let fixture = datasets_dir(
        "redeal",
        &[("anti", utk::data::csv::write_csv(&anti, None))],
    );
    let dir = fixture.path().to_path_buf();
    const BUDGET: usize = 1 << 20;
    let registry = DatasetRegistry::new(dir, BUDGET, 1);
    let (hotels, _) = registry.get_or_load("hotels").unwrap();
    let (anti_ds, _) = registry.get_or_load("anti").unwrap();
    // 7×3 vs 200×3 cells.
    assert_eq!(hotels.engine.filter_cache_budget(), BUDGET * 7 / 207);
    assert_eq!(anti_ds.engine.filter_cache_budget(), BUDGET * 200 / 207);

    // Warm an entry on hotels, then grow hotels past anti: its slice
    // must grow, and the warm entry must survive the in-place resize.
    let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
    hotels.engine.utk1(&region, 2).unwrap();
    let inserts: Vec<Vec<f64>> = (0..393).map(|i| vec![i as f64 * 1e-3; 3]).collect();
    let labels: Vec<String> = (0..393).map(|i| format!("x{i}")).collect();
    let (_, report) = registry
        .update("hotels", &[], inserts, Some(labels))
        .unwrap();
    assert_eq!(report.n, 400);
    assert_eq!(hotels.engine.filter_cache_budget(), BUDGET * 400 / 600);
    assert_eq!(anti_ds.engine.filter_cache_budget(), BUDGET * 200 / 600);
    // All 393 inserts are deep in the dominated interior: the warm
    // r-skyband entry was provably unaffected and is still a hit.
    let res = hotels.engine.utk1(&region, 2).unwrap();
    assert_eq!(res.stats.filter_cache_hits, 1);
}

/// `utk update` (the CLI client) against a live `utk serve`, plus a
/// batch replay: the binary surface of the mutation seam.
#[cfg(unix)]
#[test]
fn update_binary_and_mutation_replay_agree() {
    let fixture = datasets_dir("update_bin", &[]);
    let dir = fixture.path().to_path_buf();
    let socket = dir.join("utk.sock");
    let serve = spawn_serve(&dir, &socket, &[]);
    let sock = socket.to_str().unwrap();

    // Mutate over the socket: delete p3, insert p8.
    let (stdout, stderr, ok) = utk_bin(&[
        "update",
        "--socket",
        sock,
        "--dataset",
        "hotels",
        "--delete",
        "2",
        "--insert",
        "9.9,9.8,9.7",
        "--labels",
        "p8",
    ]);
    assert!(ok, "update failed: {stderr}");
    assert!(stdout.contains(r#""ok":"update""#), "{stdout}");
    assert!(stdout.contains(r#""epoch":1"#), "{stdout}");

    // The served post-update answer equals `utk batch --mutations`
    // replaying the same mutation locally (both byte-exact wire).
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, "utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25\n").unwrap();
    let mutations = dir.join("mutations.txt");
    std::fs::write(&mutations, "delete 2\ninsert p8,9.9,9.8,9.7\n").unwrap();
    let data_csv = dir.join("hotels.csv");
    let (replayed, stderr, ok) = utk_bin(&[
        "batch",
        "--data",
        data_csv.to_str().unwrap(),
        "--file",
        queries.to_str().unwrap(),
        "--mutations",
        mutations.to_str().unwrap(),
    ]);
    assert!(ok, "batch --mutations failed: {stderr}");
    let replay_lines: Vec<&str> = replayed.lines().collect();
    assert_eq!(replay_lines.len(), 3, "{replayed}");
    assert!(replay_lines[0].contains(r#"{"update":"#), "{replayed}");
    assert!(replay_lines[1].contains(r#"{"update":"#), "{replayed}");

    let (served, stderr, ok) = utk_bin(&[
        "client",
        "--socket",
        sock,
        "--dataset",
        "hotels",
        "--file",
        queries.to_str().unwrap(),
    ]);
    assert!(ok, "client failed: {stderr}");
    assert_eq!(served.lines().next().unwrap(), replay_lines[2]);

    let (_, _, ok) = utk_bin(&["client", "--socket", sock, "--op", "shutdown"]);
    assert!(ok);
    assert_exits_cleanly(serve, Duration::from_secs(20));
}
