// utk-lint: class=bench
//! The served workloads: one client connection to an in-process
//! `utk serve` ([`Server`]) over a Unix socket, exploring the
//! preference space in zoom sessions.
//!
//! * `served_explore` — IND, n = 400,000, a fresh σ = 2% base region
//!   per session: the filter cache, the top-k path, the transport and
//!   the batch pool carry the time.
//! * `update_mix` — ANTI, n = 100,000, sixteen hot σ = 1% base regions
//!   and an fsynced, WAL-logged `update` after every other zoom step:
//!   the write path runs beside reads that share its cache.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use utk_core::engine::UtkEngine;
use utk_core::obs::Phase;
use utk_data::csv::{parse_csv, CsvData};
use utk_data::synthetic::Distribution;
use utk_server::json::{self, Value};
use utk_server::spec;
use utk_server::{
    BatchReply, Bind, Connection, MetricsFormat, Request, Response, Server, ServerConfig,
    ServerHandle,
};

use crate::gate::{answer_part, check_lines, tamper};
use crate::inputs::{
    dataset_csv, mutation, zoom_session, Mutation, QBox, Rng, Step, UTK2_MAX_RECORDS,
};
use crate::measure::{ms, peak_rss_mb, ratio, Samples, Tracer};
use crate::paper::overhead_pct;
use crate::report::{Counters, Layers, Outcome};
use crate::Config;

/// What varies between the two served workloads.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    pub name: &'static str,
    pub dist: Distribution,
    /// Side of every session's base region, as a fraction of the axis.
    pub base_sigma: f64,
    /// Hot base regions sessions start from; 0 draws a fresh base
    /// region per session.
    pub hot: usize,
    /// Send an update after every other zoom step, with a WAL.
    pub updates: bool,
}

pub const SERVED_EXPLORE: Served = Served {
    name: "served_explore",
    dist: Distribution::Ind,
    base_sigma: 0.02,
    hot: 0,
    updates: false,
};

/// σ = 1% rather than 2%: on ANTI a 2% region's UTK2 reached 674 ms
/// among 100 regions, and a hot region is asked again every visit.
pub const UPDATE_MIX: Served = Served {
    name: "update_mix",
    dist: Distribution::Anti,
    base_sigma: 0.01,
    hot: 16,
    updates: true,
};

/// The dataset name the server serves the generated file under.
const DATASET: &str = "bench";
/// Zoom steps per session, the base region included.
const ZOOM_STEPS: usize = 4;
/// Seeds the hot regions. They are part of the workload's definition,
/// not drawn per run: with only sixteen of them, a per-seed draw let
/// their sizes decide the run's tail (UTK1 p90 ranged 1.2–3.8 ms over
/// five seeds).
const HOT_SEED: u64 = 0x0068_6f74;

/// A pause of 1–2 ms before each request, drawn from its own seeded
/// stream: the caller's think time. It puts every request's arrival at
/// a random phase of the server's event-loop tick instead of racing
/// the loop's last sweep, so the latency distribution repeats from run
/// to run. Think time is excluded from `queries_per_s`.
fn think(rng: &mut Rng) -> f64 {
    let pause = Duration::from_micros(1_000 + rng.below(1_000));
    let t = Instant::now();
    std::thread::sleep(pause);
    t.elapsed().as_secs_f64()
}

/// One request of the timed phase with the reply it got, kept for the
/// correctness gate and the replays.
enum Entry {
    Query {
        kind: &'static str,
        line: String,
        reply: String,
    },
    Batch {
        lines: Vec<String>,
        replies: Vec<String>,
    },
    Update {
        mutation: Mutation,
        epoch: u64,
        n: u64,
    },
}

/// A running server and the one client connection to it.
struct Running {
    handle: ServerHandle,
    conn: Connection,
}

fn io(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Binds a server on `socket`, connects, and loads the dataset: the
/// served workloads' cold start. Returns it with its duration.
fn start(dir: &Path, socket: &str, wal: bool) -> Result<(Running, f64), String> {
    let mut config = ServerConfig::new(Bind::Unix(dir.join(socket)), dir.join("data"));
    if wal {
        config.wal_dir = Some(dir.join("wal"));
    }
    let t = Instant::now();
    let handle = Server::bind(config).map_err(io("bind"))?.spawn();
    let mut conn = Connection::connect(handle.bind_addr()).map_err(io("connect"))?;
    let load = Request::Load {
        dataset: DATASET.to_string(),
    };
    match conn.request(&load).map_err(io("load"))? {
        Response::Load { .. } => {}
        other => return Err(format!("load answered {}", other.to_json())),
    }
    let took = t.elapsed().as_secs_f64();
    Ok((Running { handle, conn }, took))
}

/// Shuts the server down and waits for its serving loop to end.
fn stop(mut running: Running) -> Result<(), String> {
    match running
        .conn
        .request(&Request::Shutdown)
        .map_err(io("shutdown"))?
    {
        Response::Shutdown => {}
        other => return Err(format!("shutdown answered {}", other.to_json())),
    }
    drop(running.conn);
    running.handle.join().map_err(io("server exit"))?;
    Ok(())
}

/// Scrapes the `metrics` op: `(count, sum)` of every latency histogram
/// series, keyed `family{labels}`.
fn scrape(conn: &mut Connection) -> Result<Vec<(String, u64, u64)>, String> {
    let body = conn.metrics(MetricsFormat::Json).map_err(io("metrics"))?;
    let value = json::parse(&body).map_err(|e| format!("metrics body: {e}"))?;
    let mut out = Vec::new();
    for h in value
        .get("histograms")
        .and_then(Value::as_array)
        .unwrap_or_default()
    {
        let name = h.get("name").and_then(Value::as_str).unwrap_or_default();
        let labels = h.get("labels").and_then(Value::as_str).unwrap_or_default();
        let count = h.get("count").and_then(Value::as_u64).unwrap_or(0);
        let sum = h.get("sum").and_then(Value::as_u64).unwrap_or(0);
        out.push((format!("{name}{{{labels}}}"), count, sum));
    }
    Ok(out)
}

/// Server-side mean latency of one op between two scrapes, in ms
/// (`utk_request_nanos`).
fn server_mean_ms(before: &[(String, u64, u64)], after: &[(String, u64, u64)], op: &str) -> f64 {
    let key = format!("utk_request_nanos{{op=\"{op}\"}}");
    let find = |s: &[(String, u64, u64)]| {
        s.iter()
            .find(|(k, _, _)| *k == key)
            .map_or((0, 0), |(_, c, s)| (*c, *s))
    };
    let (c0, s0) = find(before);
    let (c1, s1) = find(after);
    ratio((s1 - s0) as f64 / 1e6, (c1 - c0) as f64)
}

/// The per-workload scratch directory: the dataset file, sockets and
/// the WAL. Removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn run(cfg: &Config, w: Served) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers = Layers::default();

    // Input preparation: the dataset file the server loads.
    let work = WorkDir(cfg.work.join(format!("{}-{}", w.name, std::process::id())));
    let dir = work.0.as_path();
    std::fs::create_dir_all(dir.join("data")).map_err(io("work dir"))?;
    let text = dataset_csv(w.dist, cfg.n, cfg.seed);
    std::fs::write(dir.join("data").join(format!("{DATASET}.csv")), &text)
        .map_err(io("dataset file"))?;

    // Set-up: bind + load, repeated on fresh servers; the last serves.
    let mut running = None;
    for rep in 0..cfg.setups {
        if let Some(r) = running.take() {
            stop(r)?;
        }
        let (r, took) = start(dir, &format!("s{rep}.sock"), w.updates)?;
        out.e2e.setup_s.push(took);
        running = Some(r);
    }
    let Running { handle, mut conn } = running.ok_or("no set-up repetitions")?;

    let mut tracer = Tracer::new(cfg.trace);
    let mut request = 0u64;
    let before = tracer.time("metrics", "control", request, || scrape(&mut conn))?;
    let mut scenario = Rng::new(HOT_SEED);
    let hot: Vec<QBox> = (0..w.hot)
        .map(|_| QBox::random(&mut scenario, w.base_sigma))
        .collect();
    let mut rng = Rng::new(cfg.seed);
    let mut thinking = Rng::new(cfg.seed ^ 3);
    let mut n = cfg.n;
    let (mut traced_utk1, mut plain_utk1) = (Samples::default(), Samples::default());
    let mut round_trips = Samples::default();
    let mut log: Vec<Entry> = Vec::new();
    let mut session = 0usize;
    let began = Instant::now();
    while began.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && session.is_multiple_of(2);
        tracer.set_enabled(traced);
        session += 1;
        let base = match w.hot {
            0 => QBox::random(&mut rng, w.base_sigma),
            h => hot[rng.below(h as u64) as usize].clone(),
        };
        let steps = zoom_session(&mut rng, &base, ZOOM_STEPS);
        let mut sent: Vec<String> = Vec::new();
        for (i, step) in steps.iter().enumerate() {
            let mut utk1_records = 0;
            for (kind, line) in step_queries(step) {
                if kind == "utk2" && utk1_records > UTK2_MAX_RECORDS {
                    layers.utk2_skipped += 1;
                    continue;
                }
                request += 1;
                out.e2e.attempted += 1;
                let req = Request::Query {
                    dataset: DATASET.to_string(),
                    q: line.to_string(),
                }
                .to_json();
                out.e2e.think_s += think(&mut thinking);
                let t0 = Instant::now();
                let reply = tracer
                    .time("round_trip", kind, request, || conn.round_trip(&req))
                    .map_err(io("query"))?;
                let took = ms(t0.elapsed());
                round_trips.push(took);
                match kind {
                    "utk1" => {
                        out.e2e.utk1.push(took);
                        if traced {
                            traced_utk1.push(took);
                        } else {
                            plain_utk1.push(took);
                        }
                    }
                    "utk2" => out.e2e.utk2.push(took),
                    _ => out.e2e.topk.push(took),
                }
                if reply.starts_with(r#"{"error""#) {
                    out.e2e.failed += 1;
                }
                if kind == "utk1" {
                    utk1_records = answer_part(&reply).matches(r#"{"id":"#).count();
                }
                sent.push(line.to_string());
                log.push(Entry::Query {
                    kind,
                    line: line.to_string(),
                    reply,
                });
            }
            if w.updates && i % 2 == 1 {
                request += 1;
                out.e2e.attempted += 1;
                let m = mutation(&mut rng, n, w.dist);
                let req = Request::Update {
                    dataset: DATASET.to_string(),
                    delete: m.deletes.clone(),
                    insert: m.inserts.clone(),
                    labels: None,
                };
                out.e2e.think_s += think(&mut thinking);
                let t0 = Instant::now();
                let reply = tracer
                    .time("round_trip", "update", request, || conn.request(&req))
                    .map_err(io("update"))?;
                out.e2e.update.push(ms(t0.elapsed()));
                match reply {
                    Response::Update {
                        epoch,
                        n: after,
                        filter_invalidated,
                        filter_retained,
                        index_rebuilt,
                        ..
                    } => {
                        n = after as usize;
                        layers.filter_invalidated += filter_invalidated;
                        layers.filter_retained += filter_retained;
                        layers.index_rebuilds += u64::from(index_rebuilt);
                        log.push(Entry::Update {
                            mutation: m,
                            epoch,
                            n: after,
                        });
                    }
                    other => {
                        out.e2e.failed += 1;
                        out.mismatches
                            .push(format!("update answered {}", other.to_json()));
                    }
                }
            }
        }
        // The session ends by re-fetching every line it sent as one
        // batch.
        let lines = sent;
        request += 1;
        out.e2e.attempted += lines.len() as u64;
        out.e2e.think_s += think(&mut thinking);
        let t0 = Instant::now();
        let reply = tracer
            .time("round_trip", "batch", request, || {
                conn.batch(DATASET, &lines.join("\n"))
            })
            .map_err(io("batch"))?;
        out.e2e.batch.push(ms(t0.elapsed()));
        match reply {
            BatchReply::Lines(replies) => {
                out.e2e.failed += replies
                    .iter()
                    .filter(|r| r.starts_with(r#"{"error""#))
                    .count() as u64;
                out.e2e.failed += (lines.len() as u64).saturating_sub(replies.len() as u64);
                log.push(Entry::Batch { lines, replies });
            }
            BatchReply::Rejected(e) => {
                out.e2e.failed += lines.len() as u64;
                out.mismatches.push(format!("batch rejected: {e}"));
            }
        }
    }
    out.e2e.elapsed_s = began.elapsed().as_secs_f64();
    out.e2e.peak_rss_mb = peak_rss_mb();
    black_box(&log);

    // Control ops after the timed phase.
    tracer.set_enabled(cfg.trace);
    request += 1;
    let after = tracer.time("metrics", "control", request, || scrape(&mut conn))?;
    let stats = match conn.request(&Request::Stats).map_err(io("stats"))? {
        Response::Stats(body) => body,
        other => return Err(format!("stats answered {}", other.to_json())),
    };
    layers.server_query_ms = server_mean_ms(&before, &after, "query");
    layers.server_batch_ms = server_mean_ms(&before, &after, "batch");
    layers.server_update_ms = server_mean_ms(&before, &after, "update");
    layers.server_wait_ms = round_trips.mean() - layers.server_query_ms;
    layers.wal_bytes_per_update = ratio(stats.wal_bytes as f64, stats.wal_records as f64);
    stop(Running { handle, conn })?;

    // Answer counters, as the server reported them.
    for entry in &log {
        match entry {
            Entry::Query { kind, reply, .. } => {
                if let Some(c) = Counters::from_line(reply) {
                    match *kind {
                        "utk1" => layers.utk1.add_counters(&c),
                        "utk2" => layers.utk2.add_counters(&c),
                        _ => {}
                    }
                }
            }
            Entry::Batch { replies, .. } => {
                if let Some(c) = replies.iter().find_map(|r| Counters::from_line(r)) {
                    layers.batch_groups.push(c.batch_groups as f64);
                }
            }
            Entry::Update { .. } => {}
        }
    }

    if cfg.tamper {
        if let Some(Entry::Query { reply, .. }) = log
            .iter_mut()
            .find(|e| matches!(e, Entry::Query { kind: "utk1", .. }))
        {
            *reply = tamper(reply);
        }
    }

    let t = Instant::now();
    let original = parse_csv(&text, DATASET).map_err(|e| e.to_string())?;
    layers.csv_parse_ms.push(ms(t.elapsed()));
    drop(text);

    if w.updates {
        durability(
            cfg,
            dir,
            &original,
            &log,
            &hot,
            &mut layers,
            &mut out.mismatches,
        )?;
    }
    gate(&original, &log, &mut layers, &mut out.mismatches)?;
    if cfg.trace {
        observed_replay(&original, &log, &mut layers, &mut tracer, request + 1)?;
        layers.overhead_pct = overhead_pct(&traced_utk1, &plain_utk1);
        layers.spans = tracer.len();
        tracer
            .write_jsonl(&cfg.trace_path(w.name))
            .map_err(|e| format!("writing spans: {e}"))?;
        out.layers = Some(layers);
    }
    Ok(out)
}

/// The four queries of a zoom step, in the order they are sent: UTK1,
/// UTK2, the same UTK1 again (an exact filter-cache hit), and a top-k
/// at weights inside the zoom.
fn step_queries(step: &Step) -> impl Iterator<Item = (&'static str, &str)> {
    [
        ("utk1", step.utk1.as_str()),
        ("utk2", step.utk2.as_str()),
        ("utk1", step.utk1.as_str()),
        ("topk", step.topk.as_str()),
    ]
    .into_iter()
}

/// Builds a local engine from the dataset text, timing the build.
fn local_engine(data: &CsvData, layers: &mut Layers) -> Result<UtkEngine, String> {
    let t = Instant::now();
    let engine = UtkEngine::new(data.dataset.points.clone()).map_err(|e| e.to_string())?;
    layers.engine_build_ms.push(ms(t.elapsed()));
    Ok(engine)
}

/// Applies one logged mutation to a local engine and its payload.
fn apply(engine: &UtkEngine, data: &mut CsvData, m: &Mutation) -> Result<(u64, u64, f64), String> {
    let t = Instant::now();
    let report = engine
        .apply_update(&m.deletes, m.inserts.clone())
        .map_err(|e| e.to_string())?;
    let took = ms(t.elapsed());
    data.apply_update(&m.deletes, &m.inserts, None)?;
    Ok((report.epoch, report.n as u64, took))
}

/// The correctness gate: a local engine answers the same lines, in the
/// same order and between the same mutations, through
/// `spec::answer_query_file`. Every served answer must match it up to
/// its `stats` object, and every update receipt its epoch and size.
fn gate(
    original: &CsvData,
    log: &[Entry],
    layers: &mut Layers,
    mismatches: &mut Vec<String>,
) -> Result<(), String> {
    let mut data = original.clone();
    let engine = local_engine(&data, layers)?;
    let mut lines: Vec<&str> = Vec::new();
    let mut replies: Vec<&str> = Vec::new();
    for entry in log {
        match entry {
            Entry::Query { line, reply, .. } => {
                lines.push(line);
                replies.push(reply);
            }
            Entry::Batch {
                lines: batch,
                replies: got,
            } => {
                check_lines(&engine, &data, &lines, &replies, mismatches);
                lines.clear();
                replies.clear();
                let batch: Vec<&str> = batch.iter().map(String::as_str).collect();
                let got: Vec<&str> = got.iter().map(String::as_str).collect();
                check_lines(&engine, &data, &batch, &got, mismatches);
            }
            Entry::Update { mutation, epoch, n } => {
                check_lines(&engine, &data, &lines, &replies, mismatches);
                lines.clear();
                replies.clear();
                let (local_epoch, local_n, _) = apply(&engine, &mut data, mutation)?;
                if (local_epoch, local_n) != (*epoch, *n) {
                    mismatches.push(format!(
                        "update: served epoch {epoch} n {n} / local epoch {local_epoch} n {local_n}"
                    ));
                }
            }
        }
    }
    check_lines(&engine, &data, &lines, &replies, mismatches);
    Ok(())
}

/// The durability check: restart the server on the same WAL directory
/// and ask a fixed set of queries. The replies must be byte-identical
/// to a fresh local engine that applied the same mutations.
fn durability(
    cfg: &Config,
    dir: &Path,
    original: &CsvData,
    log: &[Entry],
    hot: &[QBox],
    layers: &mut Layers,
    mismatches: &mut Vec<String>,
) -> Result<(), String> {
    let (mut running, took) = start(dir, "restart.sock", true)?;
    layers.wal_replay_ms = took * 1e3;
    // Per hot region: UTK1 and top-k over the region, and UTK2 over
    // its deepest zoom, whose small answer keeps UTK2 cheap.
    let mut rng = Rng::new(cfg.seed ^ 2);
    let lines: Vec<String> = hot
        .iter()
        .flat_map(|base| {
            let mut steps = zoom_session(&mut rng, base, ZOOM_STEPS);
            let deepest = steps.pop().map(|s| s.utk2).unwrap_or_default();
            let outer = steps.swap_remove(0);
            [outer.utk1, deepest, outer.topk]
        })
        .collect();
    // One `query` op at a time: a `batch` runs its groups concurrently,
    // so the cache counters in its `stats` objects (`filter_cache_bytes`,
    // superset hits) depend on scheduling and could not be compared
    // byte for byte.
    let mut served = Vec::with_capacity(lines.len());
    for line in &lines {
        let req = Request::Query {
            dataset: DATASET.to_string(),
            q: line.clone(),
        }
        .to_json();
        served.push(
            running
                .conn
                .round_trip(&req)
                .map_err(io("durability query"))?,
        );
    }
    stop(running)?;

    let mut data = original.clone();
    let engine = UtkEngine::new(data.dataset.points.clone()).map_err(|e| e.to_string())?;
    for entry in log {
        if let Entry::Update { mutation, .. } = entry {
            apply(&engine, &mut data, mutation)?;
        }
    }
    for (line, got) in lines.iter().zip(&served) {
        let want = spec::answer_query_line(&engine, &data, line);
        if *got != want {
            mismatches.push(format!(
                "durability: {line:?}: served {got:.160} / local {want:.160}"
            ));
        }
    }
    Ok(())
}

/// Traced runs only: a second local engine replays the log in order,
/// query lines through `spec::answer_query_line_observed` (what the
/// server's `query` op runs), so each request kind's engine time splits
/// into phases; mutations replay through `apply_update`. Spans number
/// their requests from `first_request` on.
fn observed_replay(
    original: &CsvData,
    log: &[Entry],
    layers: &mut Layers,
    tracer: &mut Tracer,
    first_request: u64,
) -> Result<(), String> {
    let mut data = original.clone();
    let engine = local_engine(&data, layers)?;
    let clock = engine.clock();
    let dim = data.dataset.dim();
    tracer.set_enabled(true);
    for (request, entry) in (first_request..).zip(log) {
        match entry {
            Entry::Query { kind, line, .. } => {
                tracer
                    .time("parse", kind, request, || {
                        black_box(spec::parse_query_line(line, dim))
                    })
                    .map_err(|e| format!("{line:?}: {e}"))?;
                let (local, timings) = tracer.time("run", kind, request, || {
                    spec::answer_query_line_observed(&data, line, &clock, |q| engine.run(q))
                });
                black_box(local);
                let Some(timings) = timings else { continue };
                match *kind {
                    "utk1" => layers.utk1.add_timings(&timings),
                    "utk2" => {
                        layers.utk2.add_timings(&timings);
                        layers
                            .serialize
                            .push(timings.nanos(Phase::Serialize) as f64 / 1e6);
                    }
                    _ => layers.topk.add_timings(&timings),
                }
            }
            Entry::Batch { lines, .. } => {
                let parsed = spec::parse_query_file(&lines.join("\n"), dim);
                black_box(spec::answer_query_file(&engine, &data, &parsed));
            }
            Entry::Update { mutation, .. } => {
                let (_, _, took) = tracer.time("apply_update", "update", request, || {
                    apply(&engine, &mut data, mutation)
                })?;
                layers.apply_update.push(took);
            }
        }
    }
    layers.parse = tracer.self_ms("parse", "utk2");
    Ok(())
}
