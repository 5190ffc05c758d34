//! Observability integration: engine phase timings under a scripted
//! clock, histogram properties, the slow-query log (threshold,
//! rotation, degraded-sink behavior), and the `utk report` renderer.
//!
//! The byte-level contracts live elsewhere — `tests/metrics_golden.rs`
//! pins the exposition under a frozen clock and `tests/wire_golden.rs`
//! pins the wire bytes. This suite exercises the *behavioral* side:
//! time actually flows into the right places, and the slow-query path
//! can never take a request down with it.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use utk::core::obs::{Clock, Histogram, Phase, TestClock};
use utk::prelude::*;
use utk::server::client::{BatchReply, Connection};
use utk::server::json;
use utk::server::proto::MetricsFormat;
use utk::server::server::{Bind, Server, ServerConfig};
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

const HOTEL_POINTS: [[f64; 3]; 7] = [
    [8.3, 9.1, 7.2],
    [2.4, 9.6, 8.6],
    [5.4, 1.6, 4.1],
    [2.6, 6.9, 9.4],
    [7.3, 3.1, 2.4],
    [7.9, 6.4, 6.6],
    [8.6, 7.1, 4.3],
];

fn fixture_dir(tag: &str) -> TestDir {
    let dir = TestDir::new(&format!("obs_{tag}"));
    std::fs::write(dir.join("hotels.csv"), HOTELS_CSV).expect("fixture csv");
    dir
}

fn hotels_engine() -> UtkEngine {
    let points: Vec<Vec<f64>> = HOTEL_POINTS.iter().map(|p| p.to_vec()).collect();
    UtkEngine::new(points).expect("engine builds")
}

fn region() -> Region {
    Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25])
}

// ---------------------------------------------------------------- //
// engine tracing                                                   //
// ---------------------------------------------------------------- //

#[test]
fn engine_attributes_phase_time_under_a_stepping_clock() {
    // Every clock read advances 10 ns, so any span that opens at all
    // records a nonzero, fully deterministic duration.
    let engine = hotels_engine().with_clock(Arc::new(TestClock::with_step(10)) as Arc<dyn Clock>);
    let utk1 = engine
        .run(&UtkQuery::utk1(2).region(region()))
        .expect("utk1 runs");
    let timings = utk1.stats().timings;
    assert!(timings.total_nanos > 0, "trace window must be nonzero");
    assert!(
        timings.nanos(Phase::Filter) > 0,
        "a cold query spends time filtering: {timings:?}"
    );
    let phase_sum: u64 = Phase::ALL.iter().map(|&p| timings.nanos(p)).sum();
    assert!(
        phase_sum <= timings.total_nanos,
        "exclusive phase times cannot exceed the traced window: {timings:?}"
    );

    // UTK2 reaches the arrangement machinery; the graph/drill/arrange
    // group must see time (which phase dominates is an engine detail).
    let utk2 = engine
        .run(&UtkQuery::utk2(2).region(region()))
        .expect("utk2 runs");
    let t2 = utk2.stats().timings;
    let refine = t2.nanos(Phase::Graph) + t2.nanos(Phase::Drill) + t2.nanos(Phase::Arrange);
    assert!(refine > 0, "UTK2 refinement phases saw no time: {t2:?}");
}

#[test]
fn frozen_clock_engine_reports_zero_timings_and_identical_answers() {
    // A frozen clock zeroes every duration but must not perturb the
    // answer — the tracing layer is observation only.
    let traced = hotels_engine().with_clock(Arc::new(TestClock::new()) as Arc<dyn Clock>);
    let plain = hotels_engine();
    let q = UtkQuery::utk1(2).region(region());
    let a = traced.run(&q).expect("traced run");
    let b = plain.run(&q).expect("plain run");
    assert!(a.stats().timings.is_zero());
    assert_eq!(a.records(), b.records(), "tracing changed the answer");
}

// ---------------------------------------------------------------- //
// histogram properties                                             //
// ---------------------------------------------------------------- //

proptest! {
    /// Fixed boundaries make merging exact: recording a sample stream
    /// is indistinguishable from recording arbitrary shards of it and
    /// merging the results — the property that lets per-thread shards
    /// aggregate without a determinism loss.
    #[test]
    fn histogram_record_equals_merge_of_shards(
        samples in prop::collection::vec(0u64..u64::MAX, 0..200usize),
        lanes in prop::collection::vec(0usize..4, 0..200usize),
    ) {
        let mut whole = Histogram::new();
        let mut shards = [
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
            Histogram::new(),
        ];
        for (i, &sample) in samples.iter().enumerate() {
            whole.record(sample);
            shards[lanes.get(i).copied().unwrap_or(0) % shards.len()].record(sample);
        }
        let mut merged = Histogram::new();
        for shard in &shards {
            merged.merge(shard);
        }
        prop_assert_eq!(&merged, &whole);
        prop_assert_eq!(whole.count(), samples.len() as u64);
    }

    /// Every sample lands in exactly the bucket whose bounds bracket
    /// it: `upper_bound(i-1) < v <= upper_bound(i)`.
    #[test]
    fn histogram_bucket_bounds_bracket_every_sample(v in 0u64..u64::MAX) {
        let i = Histogram::bucket_index(v);
        prop_assert!(v <= Histogram::bucket_upper_bound(i));
        if i > 0 {
            prop_assert!(v > Histogram::bucket_upper_bound(i - 1));
        }
    }
}

// ---------------------------------------------------------------- //
// the slow-query log                                               //
// ---------------------------------------------------------------- //

/// Starts a server over a fresh fixture with the given slow-query
/// settings, runs 3 queries + 1 batch, and returns the scraped
/// metrics after a clean shutdown.
fn run_slow_query_server(
    dir: &TestDir,
    log_path: Option<PathBuf>,
    max_bytes: Option<u64>,
) -> String {
    let mut config = ServerConfig::new(Bind::Tcp(0), dir.path().to_path_buf());
    config.pool_threads = 1;
    config.slow_query_ms = Some(0); // threshold 0: log every query
    config.slow_query_log = log_path;
    if let Some(n) = max_bytes {
        config.slow_query_log_max_bytes = n;
    }
    let handle = Server::bind(config).expect("bind").spawn();
    let mut conn = Connection::connect(handle.bind_addr()).expect("connect");
    for _ in 0..3 {
        let line = conn
            .round_trip(
                r#"{"op":"query","dataset":"hotels","q":"utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25"}"#,
            )
            .expect("query");
        assert!(line.starts_with(r#"{"query""#), "query failed: {line}");
    }
    match conn
        .batch("hotels", "topk --k 2 --weights 0.3,0.5,0.2\n")
        .expect("batch")
    {
        BatchReply::Lines(lines) => assert_eq!(lines.len(), 1),
        BatchReply::Rejected(e) => panic!("batch rejected: {e}"),
    }
    let metrics = conn
        .metrics(MetricsFormat::Prometheus)
        .expect("metrics scrape");
    conn.round_trip(r#"{"op":"shutdown"}"#).expect("shutdown");
    handle.join().expect("server exits");
    metrics
}

#[test]
fn slow_query_log_records_every_query_past_the_threshold() {
    let dir = fixture_dir("slowlog");
    let log = dir.join("slow.jsonl");
    let metrics = run_slow_query_server(&dir, Some(log.clone()), None);

    let text = std::fs::read_to_string(&log).expect("slow-query log exists");
    let records: Vec<&str> = text.lines().collect();
    // 3 query ops + 1 batch op, threshold 0 ⇒ 4 records.
    assert_eq!(records.len(), 4, "one record per answered op:\n{text}");
    for (i, record) in records.iter().enumerate() {
        let value = json::parse(record).expect("slow-query records are JSON");
        let op = value.get("op").and_then(json::Value::as_str).expect("op");
        assert_eq!(op, if i < 3 { "query" } else { "batch" });
        assert_eq!(
            value.get("dataset").and_then(json::Value::as_str),
            Some("hotels")
        );
        assert!(value
            .get("ts_nanos")
            .and_then(json::Value::as_u64)
            .is_some());
        let timings = value.get("timings").expect("timings object");
        assert!(
            timings
                .get("total_nanos")
                .and_then(json::Value::as_u64)
                .is_some(),
            "per-phase breakdown missing: {record}"
        );
        assert!(timings.get("filter_nanos").is_some(), "{record}");
    }
    // The batch record carries its query count, query records their line.
    assert!(records[0].contains(r#""q":"utk1"#), "{}", records[0]);
    assert!(records[3].contains(r#""queries":1"#), "{}", records[3]);
    // Nothing was dropped: the counter family never materialized.
    assert!(
        !metrics.contains("utk_slow_query_dropped_total"),
        "{metrics}"
    );
}

#[test]
fn slow_query_log_rotates_at_the_size_bound() {
    let dir = fixture_dir("rotate");
    let log = dir.join("slow.jsonl");
    let rotated = log.with_extension("jsonl.1");
    // A 1-byte bound: every record exceeds it, so each append (after
    // the first) rotates — but a record is never split or dropped.
    let metrics = run_slow_query_server(&dir, Some(log.clone()), Some(1));

    let current = std::fs::read_to_string(&log).expect("current log exists");
    let previous = std::fs::read_to_string(&rotated).expect("rotated log exists");
    assert_eq!(current.lines().count(), 1, "post-rotation file: {current}");
    assert_eq!(previous.lines().count(), 1, "rotated-out file: {previous}");
    for line in current.lines().chain(previous.lines()) {
        json::parse(line).expect("rotation never tears a record");
    }
    assert!(
        !metrics.contains("utk_slow_query_dropped_total"),
        "{metrics}"
    );
}

#[test]
fn slow_query_rotation_is_serialized_under_concurrent_writers() {
    // Many connections race slow-query appends while every single
    // append crosses the rotation bound. The sink serializes rotation
    // behind its state lock, so however the races land: records are
    // never torn across files, the current/rotated pair looks exactly
    // like the sequential case, and no append is mistaken for a
    // double rotation (the dropped-records counter stays silent).
    let dir = fixture_dir("rotate_mt");
    let log = dir.join("slow.jsonl");
    let rotated = log.with_extension("jsonl.1");

    let mut config = ServerConfig::new(Bind::Tcp(0), dir.path().to_path_buf());
    config.pool_threads = 1;
    config.max_inflight = 8;
    // The stepping clock drives every query over the 0ms threshold
    // deterministically — timings come from the script, not the host.
    config.clock = Arc::new(TestClock::with_step(1000)) as Arc<dyn Clock>;
    config.slow_query_ms = Some(0);
    config.slow_query_log = Some(log.clone());
    config.slow_query_log_max_bytes = 1; // every append rotates
    let handle = Server::bind(config).expect("bind").spawn();

    let writers: Vec<std::thread::JoinHandle<()>> = (0..4)
        .map(|t| {
            let bind = handle.bind_addr().clone();
            std::thread::spawn(move || {
                let mut conn = Connection::connect(&bind).expect("writer connect");
                for i in 0..8 {
                    let line = conn
                        .round_trip(
                            r#"{"op":"query","dataset":"hotels","q":"topk --k 2 --weights 0.3,0.5,0.2"}"#,
                        )
                        .unwrap_or_else(|e| panic!("writer {t} query {i}: {e}"));
                    assert!(line.starts_with(r#"{"query""#), "writer {t}: {line}");
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().expect("writer thread");
    }

    let mut conn = Connection::connect(handle.bind_addr()).expect("connect");
    let metrics = conn
        .metrics(MetricsFormat::Prometheus)
        .expect("metrics scrape");
    conn.round_trip(r#"{"op":"shutdown"}"#).expect("shutdown");
    handle.join().expect("server exits");

    // 32 racing appends, each rotating: the end state is exactly the
    // sequential end state — one whole record per file, both parseable.
    let current = std::fs::read_to_string(&log).expect("current log exists");
    let previous = std::fs::read_to_string(&rotated).expect("rotated log exists");
    assert_eq!(current.lines().count(), 1, "post-rotation file: {current}");
    assert_eq!(previous.lines().count(), 1, "rotated-out file: {previous}");
    for line in current.lines().chain(previous.lines()) {
        let value = json::parse(line).expect("concurrent rotation never tears a record");
        assert_eq!(
            value.get("op").and_then(json::Value::as_str),
            Some("query"),
            "{line}"
        );
    }
    assert!(
        !metrics.contains("utk_slow_query_dropped_total"),
        "no append may be misread as a double rotation: {metrics}"
    );
}

#[test]
fn unwritable_slow_query_log_drops_records_but_never_requests() {
    // Point the log at a directory: every open fails. Requests must
    // still succeed, with the loss visible as a dropped-records
    // counter instead of an error or a panic.
    let dir = fixture_dir("degraded");
    let unwritable = dir.join("decoy");
    std::fs::create_dir_all(&unwritable).expect("decoy dir");
    let metrics = run_slow_query_server(&dir, Some(unwritable), None);
    assert!(
        metrics.contains("utk_slow_query_dropped_total 4\n"),
        "all 4 records drop, counted: {metrics}"
    );
}

// ---------------------------------------------------------------- //
// utk report                                                       //
// ---------------------------------------------------------------- //

#[test]
fn report_loads_a_bench_directory_with_schema_warnings() {
    let dir = TestDir::new("obs_report");
    std::fs::write(
        dir.join("BENCH_GOOD.json"),
        r#"{"schema_version":1,"figure":"good","rows":[{"x":1,"y":2}]}"#,
    )
    .expect("good file");
    std::fs::write(dir.join("BENCH_OLD.json"), r#"{"figure":"old"}"#).expect("old file");
    std::fs::write(dir.join("BENCH_BROKEN.json"), "{not json").expect("broken file");
    std::fs::write(dir.join("NOTES.json"), r#"{"ignored":true}"#).expect("decoy file");

    let benches = utk::report::load_bench_dir(dir.path()).expect("scan succeeds");
    let names: Vec<&str> = benches.iter().map(|b| b.name.as_str()).collect();
    // Sorted, decoy excluded.
    assert_eq!(
        names,
        ["BENCH_BROKEN.json", "BENCH_GOOD.json", "BENCH_OLD.json"]
    );
    assert!(benches[0].warnings[0].contains("not valid JSON"));
    assert!(benches[1].warnings.is_empty());
    assert!(benches[2].warnings[0].contains("missing schema_version"));

    let md = utk::report::render_report(&benches, None);
    assert!(md.contains("### `BENCH_GOOD.json`"));
    assert!(md.contains("| `x` | `y` |"), "rows table rendered: {md}");
    assert!(md.contains("> **warning:**"));
}

#[test]
fn report_binary_renders_checked_in_figures_and_a_live_server() {
    // The repo's own BENCH_*.json files (all stamped schema_version 1)
    // must render warning-free, and a live scrape must fold in.
    let dir = fixture_dir("report_live");
    let mut config = ServerConfig::new(Bind::Tcp(0), dir.path().to_path_buf());
    config.pool_threads = 1;
    let handle = Server::bind(config).expect("bind").spawn();
    let port = match handle.bind_addr() {
        Bind::Tcp(p) => *p,
        other => panic!("expected a TCP bind, got {other}"),
    };
    let mut conn = Connection::connect(handle.bind_addr()).expect("connect");
    conn.round_trip(r#"{"op":"load","dataset":"hotels"}"#)
        .expect("load");

    let out_path = dir.join("report.md");
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_utk"))
        .args([
            "report",
            "--bench-dir",
            env!("CARGO_MANIFEST_DIR"),
            "--port",
            &port.to_string(),
            "--out",
            out_path.to_str().expect("utf-8 path"),
        ])
        .output()
        .expect("utk report runs");
    assert!(
        output.status.success(),
        "utk report failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        !stderr.contains("schema_version"),
        "checked-in figures must be schema-clean: {stderr}"
    );
    let md = std::fs::read_to_string(&out_path).expect("report written");
    assert!(md.starts_with("# utk report"), "{md}");
    for figure in [
        "BENCH_BATCH_THROUGHPUT.json",
        "BENCH_FILTER_CACHE.json",
        "BENCH_SERVE_THROUGHPUT.json",
        "BENCH_WAL_REPAIR.json",
    ] {
        assert!(md.contains(figure), "figure section missing: {figure}");
    }
    assert!(md.contains("## Live server"), "{md}");
    assert!(
        md.contains("utk_requests_total"),
        "live metrics table: {md}"
    );

    conn.round_trip(r#"{"op":"shutdown"}"#).expect("shutdown");
    handle.join().expect("server exits");
}
