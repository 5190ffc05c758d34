//! Golden-bytes lock on the serving protocol: one representative
//! response of each kind — `query`, `batch`, `stats`, `update` —
//! pinned to its exact JSON bytes.
//!
//! The round-trip and determinism suites prove responses are
//! *self-consistent* (parse → re-serialize is identity, server ≡
//! `utk batch`); this test pins the bytes themselves, so an
//! accidental field reorder, float reformat, or renamed key — which
//! would round-trip just fine — still fails loudly. If a golden
//! changes, that is a wire-format break: old clients and recorded
//! sessions stop matching. Update the bytes only with a deliberate
//! protocol version decision.

#![cfg(unix)]

use utk::server::client::{BatchReply, Connection};
use utk::server::server::{Bind, Server, ServerConfig};

/// The hotels fixture shared with the serve tests: 7 records, 3
/// criteria, labelled rows.
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

/// Exact bytes of one `query` response (a UTK1 wire line).
/// `rdom_tests` counts at block granularity under the default blocked
/// kernel (no mid-block early exit), so the pinned count is above the
/// scalar kernel's 14.
const GOLDEN_QUERY: &str = concat!(
    r#"{"query":"utk1","k":2,"algo":"rsa","n":7,"d":3,"#,
    r#""records":[{"id":0,"name":"p1"},{"id":1,"name":"p2"},{"id":3,"name":"p4"},{"id":5,"name":"p6"}],"#,
    r#""stats":{"candidates":4,"bbs_pops":8,"rdom_tests":18,"halfspaces_inserted":0,"#,
    r#""lp_solves":0,"lp_rows":0,"cells_created":0,"arrangements_built":0,"drills":3,"drill_hits":3,"#,
    r#""peak_arrangement_bytes":0,"kspr_calls":0,"filter_cache_hits":0,"superset_hits":0,"#,
    r#""filter_cache_bytes":1080,"evictions":0,"screen_prefix_skips":0,"kernel_blocks":6,"#,
    r#""pool_threads":0,"#,
    r#""batch_group_count":0}}"#
);

/// Exact bytes of one `batch` response body (one wire line per input
/// line, in input order).
const GOLDEN_BATCH: &[&str] = &[
    concat!(
        r#"{"query":"utk2","k":2,"algo":"jaa","n":7,"d":3,"partitions":8,"distinct_sets":4,"#,
        r#""records":[{"id":0,"name":"p1"},{"id":1,"name":"p2"},{"id":3,"name":"p4"},{"id":5,"name":"p6"}],"#,
        r#""cells":[{"interior":[0.26749884149913783,0.2166008469005007],"top_k":[0,1],"names":["p1","p2"]},"#,
        r#"{"interior":[0.153531969481394,0.24160118462227798],"top_k":[0,1],"names":["p1","p2"]},"#,
        r#"{"interior":[0.4049081862892773,0.20490818628927732],"top_k":[0,5],"names":["p1","p6"]},"#,
        r#"{"interior":[0.3094009695557296,0.15000000000000002],"top_k":[0,5],"names":["p1","p6"]},"#,
        r#"{"interior":[0.2574151794828624,0.13598326624050777],"top_k":[0,3],"names":["p1","p4"]},"#,
        r#"{"interior":[0.12665573721996015,0.22858569858786384],"top_k":[1,3],"names":["p2","p4"]},"#,
        r#"{"interior":[0.20784980473414225,0.07514280100500509],"top_k":[0,3],"names":["p1","p4"]},"#,
        r#"{"interior":[0.15000000000000002,0.15000000000000002],"top_k":[1,3],"names":["p2","p4"]}],"#,
        r#""stats":{"candidates":4,"bbs_pops":0,"rdom_tests":0,"halfspaces_inserted":10,"#,
        r#""lp_solves":12,"lp_rows":89,"cells_created":22,"arrangements_built":8,"drills":7,"drill_hits":0,"#,
        r#""peak_arrangement_bytes":4440,"kspr_calls":0,"filter_cache_hits":1,"superset_hits":0,"#,
        r#""filter_cache_bytes":1080,"evictions":0,"screen_prefix_skips":0,"kernel_blocks":0,"#,
        r#""pool_threads":0,"#,
        r#""batch_group_count":2}}"#
    ),
    concat!(
        r#"{"query":"topk","k":2,"weights":[0.3,0.5,0.2],"#,
        r#""ranking":[{"rank":1,"id":0,"name":"p1"},{"rank":2,"id":1,"name":"p2"}]}"#
    ),
];

/// Exact bytes of one `update` response.
const GOLDEN_UPDATE: &str = concat!(
    r#"{"ok":"update","dataset":"hotels","epoch":1,"n":7,"inserted":1,"deleted":1,"#,
    r#""filter_invalidated":0,"filter_retained":1,"index_rebuilt":false}"#
);

/// Exact bytes of one `stats` response, taken at a fixed point in the
/// request sequence below. Deliberate format change with the WAL
/// subsystem: `stats` now reports write-ahead-log state (this server
/// runs without a WAL directory, so the counters are zero), and — a
/// second deliberate change — a per-dataset `wal` array (empty here,
/// no WAL-backed datasets).
const GOLDEN_STATS: &str = concat!(
    r#"{"ok":"stats","requests_served":4,"busy_rejections":0,"inflight":0,"#,
    r#""max_inflight":64,"datasets_loaded":1,"datasets":["hotels"],"#,
    r#""registry_cache_bytes":1080,"wal_enabled":false,"wal_datasets":0,"#,
    r#""wal_records":0,"wal_bytes":0,"wal":[]}"#
);

#[test]
fn protocol_responses_are_byte_stable() {
    let dir = std::env::temp_dir().join(format!("utk_wire_golden_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("hotels.csv"), HOTELS_CSV).unwrap();
    let socket = dir.join("golden.sock");
    let _ = std::fs::remove_file(&socket);

    let mut config = ServerConfig::new(Bind::Unix(socket.clone()), dir.clone());
    config.pool_threads = 1;
    let handle = Server::bind(config).expect("bind").spawn();
    let mut conn = Connection::connect(handle.bind_addr()).expect("connect");

    // The sequence is part of the fixture: `stats` counts requests.
    let load = conn
        .round_trip(r#"{"op":"load","dataset":"hotels"}"#)
        .expect("load");
    assert_eq!(
        load, r#"{"ok":"load","dataset":"hotels","n":7,"d":3,"already_loaded":false}"#,
        "load response bytes changed"
    );

    let query = conn
        .round_trip(
            r#"{"op":"query","dataset":"hotels","q":"utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25"}"#,
        )
        .expect("query");
    assert_eq!(query, GOLDEN_QUERY, "query response bytes changed");

    let batch = conn
        .batch(
            "hotels",
            "utk2 --k 2 --lo 0.05,0.05 --hi 0.45,0.25\ntopk --k 2 --weights 0.3,0.5,0.2\n",
        )
        .expect("batch");
    match batch {
        BatchReply::Lines(lines) => {
            assert_eq!(lines, GOLDEN_BATCH, "batch response bytes changed")
        }
        BatchReply::Rejected(e) => panic!("batch rejected: {e}"),
    }

    let update = conn
        .round_trip(
            r#"{"op":"update","dataset":"hotels","delete":[2],"insert":[[5.0,5.0,5.0]],"labels":["p8"]}"#,
        )
        .expect("update");
    assert_eq!(update, GOLDEN_UPDATE, "update response bytes changed");

    let stats = conn.round_trip(r#"{"op":"stats"}"#).expect("stats");
    assert_eq!(stats, GOLDEN_STATS, "stats response bytes changed");

    let bye = conn.round_trip(r#"{"op":"shutdown"}"#).expect("shutdown");
    assert_eq!(
        bye, r#"{"ok":"shutdown"}"#,
        "shutdown response bytes changed"
    );

    handle.join().expect("server exits");
    let _ = std::fs::remove_dir_all(&dir);
}
