//! `utk` — command-line uncertain top-k queries over CSV data.
//!
//! ```text
//! utk utk1 --data hotels.csv --k 2 --lo 0.05,0.05 --hi 0.45,0.25
//! utk utk1 --data hotels.csv --k 2 --center 0.3,0.5 --width 0.2 --algo sk
//! utk utk2 --data hotels.csv --k 2 --center 0.3,0.5 --width 0.2 --json
//! utk topk --data hotels.csv --k 2 --weights 0.3,0.5,0.2
//! utk generate --dist anti --n 1000 --d 4 --seed 7 > data.csv
//! utk serve --datasets data/ --socket /tmp/utk.sock --max-inflight 8
//! utk client --socket /tmp/utk.sock --dataset hotels --file queries.txt
//! ```
//!
//! The data file holds one record per line, comma-separated, with an
//! optional header row and an optional leading label column. Weights
//! refer to the first `d − 1` attributes (the last is implied, §3.1
//! of the paper); `--center/--width` build an uncertainty box around
//! indicative weights, clipped to the preference simplex.
//!
//! All queries run through [`utk::core::engine::UtkEngine`]; `--algo`
//! selects the processing algorithm and `--json` switches to
//! machine-readable output. The query-line syntax of `batch` files
//! lives in [`utk::server::spec`], shared with the `utk serve`
//! protocol, so a query line means the same thing on the command
//! line, in a batch file, and over a socket.

use std::path::Path;
use std::process::ExitCode;
use utk::data::csv::{parse_csv, write_csv, CsvData};
use utk::data::synthetic::{generate, Distribution};
use utk::data::wal::{WalFile, WalRecord};
use utk::prelude::*;
use utk::report;
use utk::server::client::{BatchReply, Connection};
use utk::server::proto::{MetricsFormat, Request, Response};
use utk::server::server::{Bind, Server, ServerConfig, Transport};
use utk::server::spec::{self, build_topk_query, build_utk_query, ParsedArgs};
use utk::wire;

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("run `utk help` for usage");
    ExitCode::FAILURE
}

/// A command failure: the human-readable message, plus whether a
/// machine-readable error line already reached stdout (the client
/// prints the *server's* error object verbatim — emitting a second
/// object for the same failure would break the one-line-per-response
/// contract).
struct CliError {
    message: String,
    json_emitted: bool,
}

impl CliError {
    /// A failure whose JSON error object (if the invocation is in
    /// JSON mode) still needs emitting.
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            json_emitted: false,
        }
    }

    /// A failure already reported on stdout as a JSON line.
    fn already_emitted(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            json_emitted: true,
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::new(message)
    }
}

const HELP: &str = "utk — exact uncertain top-k queries (Mouratidis & Tang, VLDB 2018)

USAGE:
  utk utk1     --data <csv> --k <n> <REGION> [OPTIONS]      minimal set of possible top-k records
  utk utk2     --data <csv> --k <n> <REGION> [OPTIONS]      exact top-k set per preference partition
  utk topk     --data <csv> --k <n> --weights w1,..,wd [OPTIONS]   plain top-k (for comparison)
  utk batch    --data <csv> --file <queries> [--threads <n>] [--mutations <file>] [--wal <log>]
                                                                   batched queries, one JSON line each
  utk serve    --datasets <dir> (--socket <path> | --port <p>) [SERVE OPTIONS]
  utk client   (--socket <path> | --port <p>) [--dataset <name>] [--file <queries>] [--op <o>]
  utk update   (--socket <path> | --port <p>) --dataset <name> [--delete ids] [--insert rows] [--labels l1,..]
  utk report   [--bench-dir <dir>] [--socket <path> | --port <p>] [--out <file>]
                                                                   markdown dashboard from BENCH_*.json (+ live server)
  utk generate --dist <ind|cor|anti> --n <n> --d <d> [--seed <s>]  benchmark data to stdout
  utk help

REGION (preference domain has d-1 coordinates; the last weight is implied):
  --lo a,b,..  --hi a,b,..     explicit box corners
  --center a,b,..  --width w   box of side w around indicative weights (clipped to the simplex)

OPTIONS:
  --algo <a>   processing algorithm: auto (default), rsa, jaa, sk, on
  --json       machine-readable JSON output (records, cells, stats; includes the
               cache/filter counters superset_hits, filter_cache_bytes, evictions,
               screen_prefix_skips). Errors become {\"error\":…} objects on stdout.
  --parallel   fan refinement out over the engine's worker pool (utk1 and utk2)
  --threads <n> worker pool size (implies --parallel; default: all cores)
  --cache-budget <mib>  byte budget of the engine's LRU filter cache, in MiB
               (default 64; relevant to repeated/contained regions and batch runs)
  --lp <p>     score with sum of w_i * x_i^p instead of linear attributes (p > 0)

BATCH FILE (one query per line; `#` comments and blank lines skipped):
  utk1 --k <n> <REGION> [--algo <a>] [--lp <p>] [--parallel]
  utk2 --k <n> <REGION> [--algo <a>] [--lp <p>] [--parallel]
  topk --k <n> --weights w1,..,wd [--lp <p>]
Queries sharing (k, region, scoring) are grouped to reuse one filter
computation; groups run concurrently on the engine's pool. Output is
one JSON object per input line, in input order (--json wire format;
failed lines yield {\"error\":…} without aborting the rest).

MUTATIONS FILE (--mutations; replayed against the in-memory engine):
  insert <row> [; <row>]..   append rows (CSV fields; a non-numeric first
                             field is the record label, required iff the
                             dataset has a label column)
  delete id[,id..]           remove records by current id (survivors shift down)
  run                        answer the whole query file at this point
Steps apply in order; a file without `run` runs the queries once at the
end. Each mutation prints one {\"update\":…} JSON line; every query answer
is byte-identical to a fresh engine on the mutated data. The CSV file on
disk is never modified. With --wal <log>, mutations already in the log
are replayed first and every new mutation is appended + fsynced to it
*before* it applies — a killed run resumes exactly where it crashed
(a torn tail record is truncated away on reopen).

UPDATE (mutates a dataset on a running server; one atomic engine epoch):
  --delete 1,5              record ids to remove (against the current data)
  --insert \"r1;r2\"          rows to append, ';'-separated, CSV fields each
  --labels a,b              one label per inserted row (iff dataset is labeled)
Prints the server's {\"ok\":\"update\",…} receipt. Durable when the server
runs with --wal-dir; otherwise in-memory, and evicting a mutated dataset
is refused ({\"code\":\"would_lose_updates\"}) instead of silently reverting.

SERVE (long-running multi-dataset server; newline-delimited JSON protocol):
  --datasets <dir>      directory of <name>.csv datasets, engines built lazily
  --socket <path> | --port <p>   Unix socket or 127.0.0.1 TCP (port 0 = ephemeral)
  --max-inflight <n>    admission limit; excess queries get {\"error\":…,\"code\":\"busy\"}
                        instead of queueing (default 64)
  --transport <t>       serving front end: evented (default; readiness-driven event
                        loop, scales past thousands of connections) | threads (one
                        OS thread per connection — the legacy differential oracle)
  --max-connections <n> connection cap; excess connections get a busy line and close
                        (default: 4096 evented, 256 threads)
  --cache-budget <mib>  filter-cache budget SHARED across all dataset engines (default 64)
  --threads <n>         worker-pool size per engine (default: all cores)
  --wal-dir <dir>       crash-safe updates: every mutation is appended + fsynced to
                        <dir>/<name>.wal before it commits, loads replay the log, and
                        the log is compacted into <dir>/<name>.snapshot.csv whenever
                        the engine rebuilds its index
  --wal-compact-every <n>   also compact a dataset's log once it exceeds n records,
                        bounding replay time between index rebuilds (requires --wal-dir)
  --slow-query-ms <ms>  log every query/batch whose total phase time reaches <ms>
                        milliseconds as one JSON line with the per-phase breakdown
                        (0 logs everything); to stderr unless --slow-query-log is set
  --slow-query-log <file>   append slow-query lines here instead of stderr; when the
                        file would exceed --slow-query-log-max-bytes it is rotated
                        to <file>.1 first. Write failures drop the record (counted
                        in utk_slow_query_dropped_total) — never block a request.
  --slow-query-log-max-bytes <n>   rotation threshold (default 16 MiB; 0 = never)
Protocol ops: load, query, batch, stats, metrics, evict, shutdown — see
the utk-server crate docs for the grammar. Server `batch` output is
byte-identical to `utk batch` on the same file; timings only ever leave
the server through `metrics` and the slow-query log.

CLIENT (drives a running server; prints one JSON line per response):
  --file <queries>      send the file as one batch op (requires --dataset)
  --op <o>              stats (default) | load | evict | metrics | shutdown
  --dataset <name>      dataset for --file / load / evict
  --format <f>          metrics exposition: prometheus (default) | json
                        (--op metrics prints the body verbatim, not a JSON line)

REPORT (renders an offline markdown dashboard; no server required):
  --bench-dir <dir>     directory scanned for BENCH_*.json files (default .)
  --socket | --port     also scrape a live server's stats + metrics into the report
  --out <file>          write the markdown here instead of stdout
";

/// The flags each command actually reads; anything else is rejected
/// rather than silently ignored.
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    match command {
        "help" | "--help" | "-h" => Some(&[]),
        "utk1" => Some(&[
            "data",
            "k",
            "lo",
            "hi",
            "center",
            "width",
            "lp",
            "algo",
            "json",
            "parallel",
            "threads",
            "cache-budget",
        ]),
        // Parallel JAA work-steals the partition recursion: utk2 takes
        // the same parallelism flags as utk1.
        "utk2" => Some(&[
            "data",
            "k",
            "lo",
            "hi",
            "center",
            "width",
            "lp",
            "algo",
            "json",
            "parallel",
            "threads",
            "cache-budget",
        ]),
        "topk" => Some(&["data", "k", "weights", "lp", "json"]),
        "batch" => Some(&[
            "data",
            "file",
            "threads",
            "cache-budget",
            "mutations",
            "wal",
        ]),
        "serve" => Some(&[
            "datasets",
            "socket",
            "port",
            "transport",
            "max-connections",
            "max-inflight",
            "cache-budget",
            "threads",
            "wal-dir",
            "wal-compact-every",
            "slow-query-ms",
            "slow-query-log",
            "slow-query-log-max-bytes",
        ]),
        "client" => Some(&["socket", "port", "dataset", "file", "op", "format"]),
        "report" => Some(&["bench-dir", "socket", "port", "out"]),
        "update" => Some(&["socket", "port", "dataset", "insert", "delete", "labels"]),
        "generate" => Some(&["dist", "n", "d", "seed"]),
        _ => None,
    }
}

/// Parses the process arguments against the per-command allow-list.
fn parse_cli() -> Result<ParsedArgs, String> {
    let mut it = std::env::args().skip(1);
    let Some(command) = it.next() else {
        return Err("missing command".into());
    };
    let Some(allowed) = command_flags(&command) else {
        return Err(format!("unknown command {command:?}"));
    };
    ParsedArgs::from_tokens(command, allowed, it)
}

fn load(args: &ParsedArgs) -> Result<CsvData, String> {
    let path = args.get("data").ok_or("missing --data <csv>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_csv(&text, path).map_err(|e| e.to_string())
}

/// Builds the engine, applying `--threads` to its worker pool and
/// `--cache-budget` (MiB) to its filter cache.
fn engine_from(args: &ParsedArgs, data: &CsvData) -> Result<UtkEngine, String> {
    let mut engine = UtkEngine::from_slice(&data.dataset.points).map_err(|e| e.to_string())?;
    if let Some(t) = args.get("threads") {
        let t: usize = t.parse().map_err(|_| "--threads must be an integer")?;
        engine = engine.with_pool_threads(t);
    }
    if let Some(bytes) = cache_budget_bytes(args)? {
        engine = engine.with_filter_cache_budget(bytes);
    }
    Ok(engine)
}

/// `--cache-budget <MiB>` as bytes, if passed.
fn cache_budget_bytes(args: &ParsedArgs) -> Result<Option<usize>, String> {
    let Some(mib) = args.get("cache-budget") else {
        return Ok(None);
    };
    let mib: usize = mib
        .parse()
        .map_err(|_| "--cache-budget must be an integer (MiB)")?;
    let bytes = mib
        .checked_mul(1 << 20)
        .ok_or_else(|| format!("--cache-budget {mib} MiB overflows the byte budget"))?;
    Ok(Some(bytes))
}

// --- commands --------------------------------------------------------

fn run_topk(args: &ParsedArgs) -> Result<(), String> {
    let data = load(args)?;
    let d = data.dataset.dim();
    let prepared = build_topk_query(args, d)?;
    let engine = engine_from(args, &data)?;
    let QueryResult::TopK(res) = engine.run(&prepared.query).map_err(|e| e.to_string())? else {
        unreachable!("top-k query returned a non-top-k result");
    };
    if args.has("json") {
        let name = |id| data.name(id);
        println!(
            "{}",
            wire::topk_json(prepared.k, &prepared.weights, &res, &name)
        );
    } else {
        for (rank, id) in res.records.iter().enumerate() {
            println!("{:>3}. {}", rank + 1, data.name(*id));
        }
    }
    Ok(())
}

fn run_utk(args: &ParsedArgs, kind: QueryKind) -> Result<(), String> {
    let data = load(args)?;
    let d = data.dataset.dim();
    let prepared = build_utk_query(args, kind, d)?;
    let k = prepared.k;
    // Report the algorithm that actually answered, not the "auto"
    // request.
    let ran = prepared.algo.resolved_for(kind);
    let engine = engine_from(args, &data)?;
    let n = data.dataset.len();
    let name = |id| data.name(id);
    match engine.run(&prepared.query).map_err(|e| e.to_string())? {
        QueryResult::Utk1(res) => {
            if args.has("json") {
                println!("{}", wire::utk1_json(k, ran, n, d, &res, &name));
            } else {
                println!(
                    "{} records can enter the top-{k} within the region:",
                    res.records.len()
                );
                for id in &res.records {
                    println!("  {}", data.name(*id));
                }
            }
        }
        QueryResult::Utk2(res) => {
            if args.has("json") {
                println!("{}", wire::utk2_json(k, ran, n, d, &res, &name));
            } else {
                println!(
                    "{} preference partitions, {} distinct top-{k} sets:",
                    res.num_partitions(),
                    res.num_distinct_sets()
                );
                let mut seen: Vec<&[u32]> = Vec::new();
                for cell in &res.cells {
                    if seen.contains(&cell.top_k.as_slice()) {
                        continue;
                    }
                    seen.push(&cell.top_k);
                    let names: Vec<String> = cell.top_k.iter().map(|&i| data.name(i)).collect();
                    let w: Vec<String> = cell.interior.iter().map(|v| format!("{v:.4}")).collect();
                    println!("  around w = ({}): {{{}}}", w.join(", "), names.join(", "));
                }
            }
        }
        QueryResult::TopK(_) => unreachable!("UTK query returned a top-k result"),
    }
    Ok(())
}

/// `utk batch`: answers a query file through
/// [`UtkEngine::run_many`], one JSON wire object per line, in input
/// order. The parsing and serialization live in
/// [`utk::server::spec`], shared with `utk serve`'s `batch` op —
/// the two produce byte-identical output for the same file.
fn run_batch(args: &ParsedArgs) -> Result<(), String> {
    let mut data = load(args)?;
    let d = data.dataset.dim();
    let path = args.get("file").ok_or("missing --file <queries>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let parsed = spec::parse_query_file(&text, d);
    let engine = engine_from(args, &data)?;
    // `--wal <log>`: reopen the mutation log (truncating a torn tail
    // record), replay whatever a previous — possibly killed — run
    // already committed, and append every new mutation before it
    // applies.
    let mut replayed = 0usize;
    let mut wal = match args.get("wal") {
        None => None,
        Some(wal_path) => {
            let opened =
                WalFile::open(Path::new(wal_path)).map_err(|e| format!("{wal_path}: {e}"))?;
            for record in &opened.records {
                if matches!(record, WalRecord::Compact { .. }) {
                    continue;
                }
                let (deletes, inserts, labels) = record.mutation();
                let mut staged = data.clone();
                staged
                    .apply_update(deletes, inserts, labels)
                    .map_err(|e| format!("{wal_path}: replay: {e}"))?;
                engine
                    .apply_update(deletes, inserts.to_vec())
                    .map_err(|e| format!("{wal_path}: replay: {e}"))?;
                data = staged;
                replayed += 1;
            }
            Some(opened.wal)
        }
    };
    let Some(mutations_path) = args.get("mutations") else {
        for line in spec::answer_query_file(&engine, &data, &parsed) {
            println!("{line}");
        }
        return Ok(());
    };
    // Mutation replay: apply insert/delete steps to the live engine
    // (and the CSV payload, so names and `n` track it), answering the
    // query file at each `run` point. Disk is never written.
    let mtext =
        std::fs::read_to_string(mutations_path).map_err(|e| format!("{mutations_path}: {e}"))?;
    let steps = spec::parse_mutation_file(&mtext).map_err(|e| format!("{mutations_path}: {e}"))?;
    for step in steps {
        match step {
            spec::MutationStep::Run => {
                // Run points inside the committed prefix were already
                // answered (at their interleaved epochs) by the run
                // that wrote the log; re-answering here would see the
                // fully replayed state instead.
                if replayed > 0 {
                    continue;
                }
                for line in spec::answer_query_file(&engine, &data, &parsed) {
                    println!("{line}");
                }
            }
            spec::MutationStep::Update {
                deletes,
                inserts,
                labels,
            } => {
                // Steps already committed to the log were replayed
                // above (with their receipts printed by the killed
                // run); resume past them instead of re-applying.
                if replayed > 0 {
                    replayed -= 1;
                    continue;
                }
                // Stage the CSV-side change first so engine and
                // payload succeed or fail together.
                let mut staged = data.clone();
                staged
                    .apply_update(&deletes, &inserts, labels.as_deref())
                    .map_err(|e| format!("{mutations_path}: {e}"))?;
                // Durability before visibility: the validated record
                // reaches disk before the engine applies it.
                if let Some(wal) = wal.as_mut() {
                    let record = WalRecord::for_update(
                        wal.epoch() + 1,
                        &deletes,
                        &inserts,
                        labels.as_deref(),
                    );
                    wal.append(&record).map_err(|e| format!("wal: {e}"))?;
                }
                let report = engine
                    .apply_update(&deletes, inserts)
                    .map_err(|e| format!("{mutations_path}: {e}"))?;
                data = staged;
                println!("{}", wire::update_json(&report));
            }
        }
    }
    Ok(())
}

/// The `--socket`/`--port` pair as a server bind address.
fn bind_from(args: &ParsedArgs) -> Result<Bind, String> {
    match (args.get("socket"), args.get("port")) {
        (Some(_), Some(_)) => Err("pass --socket or --port, not both".into()),
        #[cfg(unix)]
        (Some(path), None) => Ok(Bind::Unix(path.into())),
        #[cfg(not(unix))]
        (Some(_), None) => {
            Err("--socket needs Unix domain sockets (unavailable here); use --port".into())
        }
        (None, Some(port)) => Ok(Bind::Tcp(
            port.parse().map_err(|_| "--port must be an integer")?,
        )),
        (None, None) => Err("specify where to listen: --socket <path> or --port <p>".into()),
    }
}

fn run_serve(args: &ParsedArgs) -> Result<(), String> {
    let dir = args.get("datasets").ok_or("missing --datasets <dir>")?;
    let mut config = ServerConfig::new(bind_from(args)?, dir.into());
    if let Some(n) = args.get("max-inflight") {
        config.max_inflight = n.parse().map_err(|_| "--max-inflight must be an integer")?;
        if config.max_inflight == 0 {
            return Err("--max-inflight must be at least 1".into());
        }
    }
    if let Some(label) = args.get("transport") {
        config.transport =
            Transport::from_label(label).ok_or("--transport must be one of: evented, threads")?;
    }
    if let Some(n) = args.get("max-connections") {
        config.max_connections = n
            .parse()
            .map_err(|_| "--max-connections must be an integer")?;
        if config.max_connections == 0 {
            return Err("--max-connections must be at least 1".into());
        }
    }
    if let Some(bytes) = cache_budget_bytes(args)? {
        config.cache_budget = bytes;
    }
    if let Some(t) = args.get("threads") {
        config.pool_threads = t.parse().map_err(|_| "--threads must be an integer")?;
    }
    if let Some(wal_dir) = args.get("wal-dir") {
        config.wal_dir = Some(wal_dir.into());
    }
    if let Some(n) = args.get("wal-compact-every") {
        let n: u64 = n
            .parse()
            .map_err(|_| "--wal-compact-every must be an integer")?;
        if n == 0 {
            return Err("--wal-compact-every must be at least 1".into());
        }
        if config.wal_dir.is_none() {
            return Err("--wal-compact-every requires --wal-dir".into());
        }
        config.wal_compact_every = Some(n);
    }
    if let Some(ms) = args.get("slow-query-ms") {
        config.slow_query_ms = Some(
            ms.parse()
                .map_err(|_| "--slow-query-ms must be an integer (milliseconds)")?,
        );
    }
    if let Some(path) = args.get("slow-query-log") {
        if config.slow_query_ms.is_none() {
            return Err("--slow-query-log requires --slow-query-ms".into());
        }
        config.slow_query_log = Some(path.into());
    }
    if let Some(n) = args.get("slow-query-log-max-bytes") {
        if config.slow_query_log.is_none() {
            return Err("--slow-query-log-max-bytes requires --slow-query-log".into());
        }
        config.slow_query_log_max_bytes = n
            .parse()
            .map_err(|_| "--slow-query-log-max-bytes must be an integer (bytes)")?;
    }
    let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
    eprintln!(
        "utk serve: listening on {} ({} datasets available in {dir})",
        server.bind_addr(),
        server.available_datasets().len(),
    );
    let snapshot = server.run().map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "utk serve: shut down after {} requests ({} busy rejections)",
        snapshot.requests_served, snapshot.busy_rejections
    );
    Ok(())
}

fn run_client(args: &ParsedArgs) -> Result<(), CliError> {
    // Flag validation before any I/O: --file *is* the batch op, so a
    // simultaneous --op would be silently ignored otherwise.
    if let (Some(_), Some(op)) = (args.get("file"), args.get("op")) {
        return Err(CliError::new(format!(
            "--file (a batch op) and --op {op} are mutually exclusive"
        )));
    }
    let bind = bind_from(args)?;
    let mut conn =
        Connection::connect(&bind).map_err(|e| CliError::new(format!("connect {bind}: {e}")))?;
    let dataset = |what: &str| -> Result<String, String> {
        args.get("dataset")
            .map(str::to_string)
            .ok_or(format!("{what} needs --dataset <name>"))
    };
    if let Some(path) = args.get("file") {
        let dataset = dataset("--file")?;
        let text =
            std::fs::read_to_string(path).map_err(|e| CliError::new(format!("{path}: {e}")))?;
        match conn
            .batch(&dataset, &text)
            .map_err(|e| CliError::new(format!("batch: {e}")))?
        {
            BatchReply::Lines(lines) => {
                for line in lines {
                    println!("{line}");
                }
                return Ok(());
            }
            BatchReply::Rejected(e) => {
                // The server's coded error object *is* the response;
                // print it once and only add the human message.
                println!("{}", e.to_json());
                return Err(CliError::already_emitted(format!(
                    "server rejected the batch: {e}"
                )));
            }
        }
    }
    let op = args.get("op").unwrap_or("stats");
    if args.get("format").is_some() && op != "metrics" {
        return Err(CliError::new("--format only applies to --op metrics"));
    }
    if op == "metrics" {
        // The metrics body is the payload, printed verbatim — a
        // Prometheus exposition is text, not a JSON response line.
        let format = match args.get("format") {
            None => MetricsFormat::Prometheus,
            Some(label) => MetricsFormat::from_label(label).ok_or_else(|| {
                CliError::new(format!(
                    "unknown --format {label:?} (expected prometheus or json)"
                ))
            })?,
        };
        let body = conn
            .metrics(format)
            .map_err(|e| CliError::new(format!("metrics: {e}")))?;
        print!("{body}");
        if !body.ends_with('\n') {
            println!();
        }
        return Ok(());
    }
    let request = match op {
        "stats" => Request::Stats,
        "load" => Request::Load {
            dataset: dataset("op load")?,
        },
        "evict" => Request::Evict {
            dataset: dataset("op evict")?,
        },
        "shutdown" => Request::Shutdown,
        other => {
            return Err(CliError::new(format!(
                "unknown --op {other:?} (expected stats, load, evict, metrics or shutdown)"
            )))
        }
    };
    let line = conn
        .round_trip(&request.to_json())
        .map_err(|e| CliError::new(format!("request: {e}")))?;
    println!("{line}");
    if let Ok(Response::Error(e)) = Response::parse(&line) {
        return Err(CliError::already_emitted(format!(
            "server returned a protocol error: {e}"
        )));
    }
    Ok(())
}

/// `utk update`: sends one `update` op to a running server and prints
/// its receipt line.
fn run_update(args: &ParsedArgs) -> Result<(), CliError> {
    let bind = bind_from(args)?;
    let dataset = args
        .get("dataset")
        .ok_or_else(|| CliError::new("update needs --dataset <name>"))?
        .to_string();
    let delete: Vec<u32> = match args.get("delete") {
        None => Vec::new(),
        Some(raw) => raw
            .split(',')
            .map(|v| {
                v.trim().parse::<u32>().map_err(|_| {
                    CliError::new(format!("--delete: {:?} is not a record id", v.trim()))
                })
            })
            .collect::<Result<_, CliError>>()?,
    };
    let insert: Vec<Vec<f64>> = match args.get("insert") {
        None => Vec::new(),
        Some(raw) => raw
            .split(';')
            .map(|row| {
                row.split(',')
                    .map(|v| {
                        v.trim().parse::<f64>().map_err(|_| {
                            CliError::new(format!("--insert: {:?} is not a number", v.trim()))
                        })
                    })
                    .collect::<Result<Vec<f64>, CliError>>()
            })
            .collect::<Result<_, CliError>>()?,
    };
    let labels: Option<Vec<String>> = args
        .get("labels")
        .map(|raw| raw.split(',').map(|l| l.trim().to_string()).collect());
    if delete.is_empty() && insert.is_empty() {
        return Err(CliError::new(
            "update needs --delete and/or --insert (nothing to do)",
        ));
    }
    let request = Request::Update {
        dataset,
        delete,
        insert,
        labels,
    };
    let mut conn =
        Connection::connect(&bind).map_err(|e| CliError::new(format!("connect {bind}: {e}")))?;
    let line = conn
        .round_trip(&request.to_json())
        .map_err(|e| CliError::new(format!("request: {e}")))?;
    println!("{line}");
    if let Ok(Response::Error(e)) = Response::parse(&line) {
        return Err(CliError::already_emitted(format!(
            "server rejected the update: {e}"
        )));
    }
    Ok(())
}

/// `utk report`: renders `BENCH_*.json` figures (and, with
/// `--socket`/`--port`, a live server's stats + metrics) into one
/// markdown dashboard. See [`utk::report`].
fn run_report(args: &ParsedArgs) -> Result<(), String> {
    let dir = args.get("bench-dir").unwrap_or(".");
    let benches = report::load_bench_dir(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
    for bench in &benches {
        for warning in &bench.warnings {
            eprintln!("utk report: {}: {warning}", bench.name);
        }
    }
    let live = if args.get("socket").is_some() || args.get("port").is_some() {
        let bind = bind_from(args)?;
        let mut conn = Connection::connect(&bind).map_err(|e| format!("connect {bind}: {e}"))?;
        Some(report::scrape_live(&mut conn).map_err(|e| format!("scrape: {e}"))?)
    } else {
        None
    };
    let markdown = report::render_report(&benches, live.as_ref());
    match args.get("out") {
        Some(path) => std::fs::write(path, &markdown).map_err(|e| format!("{path}: {e}"))?,
        None => print!("{markdown}"),
    }
    Ok(())
}

fn run_generate(args: &ParsedArgs) -> Result<(), String> {
    let dist = match args.get("dist").unwrap_or("ind") {
        "ind" => Distribution::Ind,
        "cor" => Distribution::Cor,
        "anti" => Distribution::Anti,
        other => return Err(format!("unknown distribution {other:?}")),
    };
    let n: usize = args
        .get("n")
        .unwrap_or("1000")
        .parse()
        .map_err(|_| "--n must be an integer")?;
    let d: usize = args
        .get("d")
        .unwrap_or("4")
        .parse()
        .map_err(|_| "--d must be an integer")?;
    let seed: u64 = args
        .get("seed")
        .unwrap_or("2018")
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let ds = generate(dist, n, d, seed);
    print!("{}", write_csv(&ds, None));
    Ok(())
}

fn run() -> Result<(), CliError> {
    let args = parse_cli()?;
    match args.command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{HELP}");
            Ok(())
        }
        "topk" => run_topk(&args).map_err(CliError::from),
        "utk1" => run_utk(&args, QueryKind::Utk1).map_err(CliError::from),
        "utk2" => run_utk(&args, QueryKind::Utk2).map_err(CliError::from),
        "batch" => run_batch(&args).map_err(CliError::from),
        "serve" => run_serve(&args).map_err(CliError::from),
        "client" => run_client(&args),
        "update" => run_update(&args),
        "report" => run_report(&args).map_err(CliError::from),
        "generate" => run_generate(&args).map_err(CliError::from),
        other => Err(CliError::new(format!("unknown command {other:?}"))),
    }
}

/// Whether this invocation promised machine-readable output: `--json`
/// anywhere in the arguments, or a command whose output is always
/// JSON lines. Checked on the raw argv so even arg-parse failures
/// (unknown command, malformed flag) keep the promise.
fn json_mode() -> bool {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_default();
    matches!(command.as_str(), "batch" | "client" | "update") || args.any(|a| a == "--json")
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // Machine-readable invocations get a machine-readable
            // error on stdout — the same {"error":…} object a failed
            // batch line produces — alongside the human message on
            // stderr. The server protocol reuses this shape. Failures
            // the client already printed as a server error line are
            // not emitted twice.
            if json_mode() && !e.json_emitted {
                println!("{}", wire::error_json(&e.message));
            }
            fail(&e.message)
        }
    }
}
