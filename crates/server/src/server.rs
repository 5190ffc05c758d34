//! The serving loop: accept connections on a TCP or Unix socket,
//! answer newline-delimited JSON requests ([`crate::proto`]), shed
//! overload, drain cleanly on shutdown.
//!
//! Deliberately std-only, matching the workspace's offline-shim
//! policy. Two transports share every layer above the sockets — the
//! protocol, the [`DatasetRegistry`], admission control, and the wire
//! bytes are transport-independent, with the `Listener`/`Stream`
//! enums as the seam:
//!
//! * [`Transport::Evented`] (the default) — a readiness-driven event
//!   loop (`crate::reactor`): one reactor thread drives every
//!   connection as a non-blocking state machine
//!   (`crate::conn::Conn`), and admitted requests execute on a
//!   small executor pool, so the open-connection count is bounded by
//!   [`ServerConfig::max_connections`] (default 4096), not by OS
//!   threads.
//! * [`Transport::Threads`] — the original thread-per-connection
//!   loop, kept as a differential oracle for one release: the accept
//!   loop polls a non-blocking listener, connection reads run under a
//!   short timeout so every thread notices the shutdown flag, and
//!   each connection gets one OS thread for its I/O.
//!
//! Under both transports the *query work* is not tied to transport
//! threads — `batch` ops run through [`UtkEngine::run_many`] and
//! `query` ops are spawned onto the engine's persistent work-stealing
//! pool, so compute parallelism is governed by the per-engine pool
//! size, not by the connection count.
//!
//! # Admission control
//!
//! `query`, `batch` and `load` requests (the ops that do real work —
//! a first load is a CSV parse + R-tree build) are admitted against a
//! bounded in-flight counter; past `max_inflight` the server responds
//! `{"error":…,"code":"busy"}` **immediately** instead of queueing —
//! under overload clients get a fast typed signal to back off, and
//! the work the server takes on stays bounded. Cheap control ops
//! (`stats`, `evict`, `shutdown`) are always admitted. Per-connection
//! resources are bounded separately: at most [`MAX_CONNECTIONS`]
//! connections are open at once (excess ones are refused with a
//! `busy` line), request lines are capped at [`MAX_REQUEST_BYTES`],
//! and responses stream line-by-line.
//!
//! # Shutdown
//!
//! A `shutdown` request flips a flag. The accept loop stops
//! accepting; each connection thread finishes the request it is
//! executing (in-flight queries drain, never abort), notices the flag
//! at its next poll tick, and exits; [`Server::run`] joins every
//! connection thread, removes a Unix socket file, and returns the
//! final counters.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::proto::{
    code, MetricsFormat, ProtoError, Request, Response, StatsBody, WalDatasetStats,
};
use crate::registry::{DatasetRegistry, LoadedDataset};
use crate::spec;
use utk_core::engine::{QueryResult, UtkEngine, UtkQuery};
use utk_core::error::UtkError;
use utk_core::obs::{Clock, MetricsRegistry, MonotonicClock, Phase, PhaseTimings};
use utk_core::wire::escape;

/// How long a blocked connection read waits before re-checking the
/// shutdown flag.
pub(crate) const POLL: Duration = Duration::from_millis(25);

/// Hard cap on one request line's bytes. Admission control bounds
/// concurrent *compute*; this bounds per-connection *memory* — a
/// client streaming an endless unterminated line (or an enormous
/// `batch` array) is disconnected at the cap instead of growing the
/// read buffer without bound. Generous enough for six-figure batch
/// files.
pub const MAX_REQUEST_BYTES: usize = 32 << 20;

/// Default bound on zero-progress response writing. A client that
/// requests a large batch and then stops *reading* would otherwise
/// park the response writer forever — and graceful shutdown waits for
/// in-flight responses, so one stuck writer would wedge the whole
/// drain. Thirty seconds with not a single byte accepted means the
/// peer is gone; the socket is shut down (so the peer sees a clean
/// EOF mid-line, never a torn prefix passing as a complete response)
/// and the connection dropped. Partial writes inside the window are
/// *progress* and always resume — a slow-but-alive reader gets its
/// whole response (see [`PatientWriter`]).
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default connection cap for [`Transport::Threads`]. Each connection
/// costs one OS thread and up to [`MAX_REQUEST_BYTES`] of read
/// buffer, so without a cap a connection flood (which never trips
/// admission control — that gates *requests*) could exhaust threads
/// and memory. Excess connections get a best-effort `busy` error line
/// and are closed immediately.
pub const MAX_CONNECTIONS: usize = 256;

/// Default connection cap for [`Transport::Evented`]. Connections
/// there cost buffers, not threads, so the ceiling is set by memory
/// and file descriptors rather than the scheduler.
pub const MAX_EVENTED_CONNECTIONS: usize = 4096;

/// Which serving front end [`Server::run`] drives. Everything above
/// the sockets is shared; `batch` output is byte-identical across
/// transports (CI diffs them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Transport {
    /// Readiness-driven event loop (the default): one reactor thread,
    /// non-blocking sockets, per-connection state machines, admitted
    /// work on a bounded executor pool.
    #[default]
    Evented,
    /// One OS thread per connection — the pre-reactor transport, kept
    /// as a differential oracle for one release.
    Threads,
}

impl Transport {
    /// The wire spelling used by `--transport`.
    pub fn label(self) -> &'static str {
        match self {
            Transport::Evented => "evented",
            Transport::Threads => "threads",
        }
    }

    /// Parses the `--transport` flag value.
    pub fn from_label(label: &str) -> Option<Transport> {
        match label {
            "evented" => Some(Transport::Evented),
            "threads" => Some(Transport::Threads),
            _ => None,
        }
    }

    /// The transport's default connection cap (used when
    /// [`ServerConfig::max_connections`] is 0).
    pub fn default_max_connections(self) -> usize {
        match self {
            Transport::Evented => MAX_EVENTED_CONNECTIONS,
            Transport::Threads => MAX_CONNECTIONS,
        }
    }
}

/// Where the server listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Bind {
    /// A Unix-domain socket at this path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// TCP on 127.0.0.1 at this port (0 = ephemeral; the resolved
    /// port is reported by [`Server::bind_addr`]).
    Tcp(u16),
}

impl std::fmt::Display for Bind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            #[cfg(unix)]
            Bind::Unix(path) => write!(f, "unix:{}", path.display()),
            Bind::Tcp(port) => write!(f, "tcp:127.0.0.1:{port}"),
        }
    }
}

pub(crate) enum Listener {
    #[cfg(unix)]
    Unix(UnixListener),
    Tcp(TcpListener),
}

impl Listener {
    pub(crate) fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(on),
            Listener::Tcp(l) => l.set_nonblocking(on),
        }
    }

    pub(crate) fn accept(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        }
    }
}

/// One accepted connection, either flavor.
pub(crate) enum Stream {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    pub(crate) fn try_clone(&self) -> std::io::Result<Stream> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
        }
    }

    pub(crate) fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(dur),
            Stream::Tcp(s) => s.set_read_timeout(dur),
        }
    }

    pub(crate) fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(dur),
            Stream::Tcp(s) => s.set_write_timeout(dur),
        }
    }

    pub(crate) fn set_nonblocking(&self, on: bool) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.set_nonblocking(on),
            Stream::Tcp(s) => s.set_nonblocking(on),
        }
    }

    /// Best-effort full shutdown: the peer sees EOF on its next read,
    /// so an abandoned response is a detectably torn line (no
    /// terminating newline), never a prefix that parses as complete.
    pub(crate) fn shutdown(&self) {
        let _ = match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

pub(crate) fn connect(bind: &Bind) -> std::io::Result<Stream> {
    match bind {
        #[cfg(unix)]
        Bind::Unix(path) => UnixStream::connect(path).map(Stream::Unix),
        Bind::Tcp(port) => TcpStream::connect(("127.0.0.1", *port)).map(Stream::Tcp),
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub bind: Bind,
    /// Directory of `<name>.csv` datasets.
    pub datasets_dir: PathBuf,
    /// Admission limit on concurrently executing query/batch/load
    /// requests.
    pub max_inflight: usize,
    /// Total filter-cache bytes shared across resident engines.
    pub cache_budget: usize,
    /// Worker-pool size per engine (0 = one worker per core).
    pub pool_threads: usize,
    /// Per-dataset write-ahead logs live here when set (crash-safe
    /// updates); `None` serves memory-only.
    pub wal_dir: Option<PathBuf>,
    /// Compact a dataset's log into a snapshot once it exceeds this
    /// many records (in addition to the index-rebuild trigger);
    /// `None` compacts on rebuilds only. No effect without `wal_dir`.
    pub wal_compact_every: Option<u64>,
    /// The clock behind every timing the server takes: request
    /// latencies, query phase tracing, slow-query thresholds. The
    /// default [`MonotonicClock`] reads real time; tests inject a
    /// frozen [`utk_core::obs::TestClock`] so the `metrics`
    /// exposition is byte-stable.
    pub clock: Arc<dyn Clock>,
    /// Log queries whose traced total reaches this many milliseconds
    /// as structured JSON lines (0 logs every query); `None` disables
    /// the slow-query log.
    pub slow_query_ms: Option<u64>,
    /// Where slow-query records go. `None` writes them to stderr;
    /// with a path they go to a size-rotated file (see
    /// [`ServerConfig::slow_query_log_max_bytes`]).
    pub slow_query_log: Option<PathBuf>,
    /// Rotate the slow-query log file once it would exceed this many
    /// bytes (the current file moves to `<path>.1`); 0 never rotates.
    pub slow_query_log_max_bytes: u64,
    /// Which serving front end to run (see [`Transport`]).
    pub transport: Transport,
    /// Cap on concurrently open connections; 0 uses the transport's
    /// default ([`MAX_EVENTED_CONNECTIONS`] / [`MAX_CONNECTIONS`]).
    /// Excess connections get a best-effort `busy` line and close.
    pub max_connections: usize,
    /// Bound on *zero-progress* response writing: once a peer has
    /// accepted no bytes for this long, its socket is shut down and
    /// the connection dropped. Partial writes reset the window, so a
    /// slow-but-alive reader always gets a complete, untorn response.
    pub write_timeout: Duration,
}

impl ServerConfig {
    /// A config with serving defaults: 64 in-flight requests, a
    /// 64 MiB shared cache budget, per-core pools.
    pub fn new(bind: Bind, datasets_dir: PathBuf) -> Self {
        Self {
            bind,
            datasets_dir,
            max_inflight: 64,
            cache_budget: 64 << 20,
            pool_threads: 0,
            wal_dir: None,
            wal_compact_every: None,
            clock: Arc::new(MonotonicClock::new()),
            slow_query_ms: None,
            slow_query_log: None,
            slow_query_log_max_bytes: 16 << 20,
            transport: Transport::default(),
            max_connections: 0,
            write_timeout: WRITE_TIMEOUT,
        }
    }
}

/// A snapshot of the server's counters (the `stats` response body is
/// built from this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSnapshot {
    /// Requests fully processed.
    pub requests_served: u64,
    /// Requests shed by admission control.
    pub busy_rejections: u64,
    /// Query/batch requests executing right now.
    pub inflight: usize,
    /// The admission limit.
    pub max_inflight: usize,
    /// Resident dataset count.
    pub datasets_loaded: usize,
    /// Resident dataset names, sorted.
    pub datasets: Vec<String>,
    /// Filter-cache bytes across resident engines.
    pub registry_cache_bytes: usize,
}

pub(crate) struct Shared {
    registry: DatasetRegistry,
    max_inflight: usize,
    inflight: AtomicUsize,
    requests_served: AtomicU64,
    pub(crate) busy_rejections: AtomicU64,
    shutdown: AtomicBool,
    pub(crate) clock: Arc<dyn Clock>,
    metrics: MetricsRegistry,
    slow_query: Option<SlowQueryLog>,
}

/// The structured slow-query log: one JSON line per query/batch op
/// whose traced total reached the threshold, carrying the per-phase
/// breakdown. Strictly best-effort — a failed write or rotation
/// increments `utk_slow_query_dropped_total` and drops the record;
/// the request path never blocks on logging and never panics.
struct SlowQueryLog {
    threshold_nanos: u64,
    /// `None` writes records to stderr (no rotation).
    sink: Option<SlowQuerySink>,
}

/// What one slow-query append attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct AppendReport {
    /// The record landed in the log (possibly after a rotation).
    written: bool,
    /// A rotation was skipped because the on-disk file turned out to
    /// be fresh already: a concurrent rotator on the same path (a
    /// second process, an external logrotate) got there first.
    /// Renaming anyway would clobber the `.1` generation with a
    /// near-empty file — the averted clobber is counted instead.
    averted_double_rotation: bool,
}

impl SlowQueryLog {
    /// Appends one record; the report says whether it was dropped.
    fn append(&self, record: &str) -> AppendReport {
        match &self.sink {
            None => {
                eprintln!("{record}");
                AppendReport {
                    written: true,
                    averted_double_rotation: false,
                }
            }
            Some(sink) => sink.append(record),
        }
    }
}

/// A size-rotated JSON-lines file sink.
struct SlowQuerySink {
    path: PathBuf,
    /// Rotate once the file would exceed this (0 = never rotate).
    max_bytes: u64,
    state: Mutex<SlowSinkState>,
}

#[derive(Default)]
struct SlowSinkState {
    file: Option<std::fs::File>,
    bytes: u64,
}

impl SlowQuerySink {
    fn open(&self, state: &mut SlowSinkState) -> bool {
        match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
        {
            Ok(file) => {
                state.bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
                state.file = Some(file);
                true
            }
            Err(_) => false,
        }
    }

    fn append(&self, record: &str) -> AppendReport {
        let mut report = AppendReport::default();
        let Ok(mut state) = self.state.lock() else {
            return report;
        };
        let record_bytes = record.len() as u64 + 1;
        if state.file.is_none() && !self.open(&mut state) {
            return report;
        }
        // Rotate before the file would exceed the cap. A single
        // record larger than the cap still lands (alone) in a fresh
        // file — the `bytes > 0` guard prevents rotating forever.
        // In-process writers are fully serialized by the `state` lock
        // held across this whole decide-rename-reopen sequence, so
        // two threads can never both rotate for the same crossing.
        if self.max_bytes > 0
            && state.bytes > 0
            && state.bytes.saturating_add(record_bytes) > self.max_bytes
        {
            // The byte counter is authoritative only in-process; a
            // concurrent rotator on the same *path* (second process,
            // external logrotate) can leave it stale. Re-check the
            // on-disk size under the lock before renaming: a fresh
            // file means the rotation already happened, and renaming
            // again would clobber the `.1` generation with a
            // near-empty file — skip, adopt the fresh file, and let
            // the caller count the averted double-rotation.
            let disk_bytes = std::fs::metadata(&self.path)
                .map(|m| m.len())
                .unwrap_or(state.bytes);
            if disk_bytes > 0 && disk_bytes.saturating_add(record_bytes) > self.max_bytes {
                state.file = None;
                let mut rotated = self.path.clone().into_os_string();
                rotated.push(".1");
                if std::fs::rename(&self.path, PathBuf::from(rotated)).is_err() {
                    return report;
                }
                state.bytes = 0;
                if !self.open(&mut state) {
                    return report;
                }
            } else {
                report.averted_double_rotation = true;
                state.file = None;
                if !self.open(&mut state) {
                    return report;
                }
            }
        }
        let Some(file) = state.file.as_mut() else {
            return report;
        };
        let mut line = Vec::with_capacity(record.len() + 1);
        line.extend_from_slice(record.as_bytes());
        line.push(b'\n');
        // utk-lint: allow(guard-blocking) -- deliberate: this leaf lock IS the log writer; it serializes whole records and the rotation sequence, guards the byte counter, never nests, and is reached only past the slow-query threshold
        if file.write_all(&line).is_err() {
            // Drop the handle so the next record retries a fresh open.
            state.file = None;
            return report;
        }
        state.bytes = state.bytes.saturating_add(record_bytes);
        report.written = true;
        report
    }
}

impl Shared {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The admission limit (also bounds the evented executor pool).
    pub(crate) fn max_inflight(&self) -> usize {
        self.max_inflight
    }

    fn snapshot(&self) -> ServeSnapshot {
        let datasets = self.registry.loaded_names();
        ServeSnapshot {
            requests_served: self.requests_served.load(Ordering::SeqCst),
            busy_rejections: self.busy_rejections.load(Ordering::SeqCst),
            inflight: self.inflight.load(Ordering::SeqCst),
            max_inflight: self.max_inflight,
            datasets_loaded: datasets.len(),
            datasets,
            registry_cache_bytes: self.registry.cache_bytes(),
        }
    }

    fn stats_body(&self) -> StatsBody {
        let snap = self.snapshot();
        let (wal_datasets, wal_records, wal_bytes) = self.registry.wal_totals();
        let wal = self
            .registry
            .wal_datasets()
            .into_iter()
            .map(|(dataset, records, bytes, last_epoch)| WalDatasetStats {
                dataset,
                records,
                bytes,
                last_epoch,
            })
            .collect();
        StatsBody {
            requests_served: snap.requests_served,
            busy_rejections: snap.busy_rejections,
            inflight: snap.inflight as u64,
            max_inflight: snap.max_inflight as u64,
            datasets_loaded: snap.datasets_loaded as u64,
            datasets: snap.datasets,
            registry_cache_bytes: snap.registry_cache_bytes as u64,
            wal_enabled: self.registry.wal_dir().is_some(),
            wal_datasets,
            wal_records,
            wal_bytes,
            wal,
        }
    }

    /// Counts one handled request of `op` and observes its wall-clock
    /// latency (from `started_at` to now, on the injected clock) —
    /// per op, and per dataset for the ops that name one.
    pub(crate) fn observe_request(&self, op: &'static str, dataset: Option<&str>, started_at: u64) {
        let labels = format!("op=\"{op}\"");
        let elapsed = self.clock.now_nanos().saturating_sub(started_at);
        self.metrics.counter_add(
            "utk_requests_total",
            "Requests handled, by protocol op (coded-error answers included).",
            &labels,
            1,
        );
        self.metrics.observe(
            "utk_request_nanos",
            "Request latency in nanoseconds, by protocol op.",
            &labels,
            elapsed,
        );
        if let Some(dataset) = dataset {
            self.metrics.observe(
                "utk_dataset_request_nanos",
                "Request latency in nanoseconds, by dataset (dataset-addressed ops only).",
                &format!("dataset=\"{}\"", escape(dataset)),
                elapsed,
            );
        }
    }

    /// Counts one coded protocol error.
    pub(crate) fn count_error(&self, code: &str) {
        self.metrics.counter_add(
            "utk_errors_total",
            "Coded protocol errors, by code.",
            &format!("code=\"{code}\""),
            1,
        );
    }

    /// Records the engine-side observability of one answered
    /// query/batch op: the per-dataset answer count, per-phase time
    /// accumulation, and — past the threshold — a slow-query log
    /// record. `detail` is a pre-rendered JSON fragment for the log
    /// line (`"q":…` or `"queries":…`). Every phase counter is bumped
    /// (by 0 if the phase saw no time), so which series exist depends
    /// only on whether queries ran, never on scheduling.
    fn observe_answers(
        &self,
        op: &'static str,
        dataset: &str,
        answers: u64,
        timings: Option<&PhaseTimings>,
        detail: &str,
    ) {
        self.metrics.counter_add(
            "utk_queries_total",
            "Query lines answered (result or error line), by dataset.",
            &format!("dataset=\"{dataset}\""),
            answers,
        );
        let Some(timings) = timings else { return };
        for phase in Phase::ALL {
            self.metrics.counter_add(
                "utk_phase_nanos_total",
                "Cumulative nanoseconds in each query pipeline phase.",
                &format!("phase=\"{}\"", phase.label()),
                timings.nanos(phase),
            );
        }
        let Some(slow) = &self.slow_query else { return };
        if timings.total_nanos < slow.threshold_nanos {
            return;
        }
        let record = format!(
            r#"{{"ts_nanos":{},"op":"{op}","dataset":"{}",{detail},"timings":{}}}"#,
            self.clock.now_nanos(),
            escape(dataset),
            timings.to_json(),
        );
        let report = slow.append(&record);
        if !report.written {
            self.metrics.counter_add(
                "utk_slow_query_dropped_total",
                "Slow-query records dropped because the log could not be written.",
                "",
                1,
            );
        }
        if report.averted_double_rotation {
            self.metrics.counter_add(
                "utk_slow_query_dropped_total",
                "Slow-query records dropped because the log could not be written.",
                "reason=\"double_rotation\"",
                1,
            );
        }
    }
}

/// RAII slot in the in-flight admission window. Owns its handle on
/// [`Shared`] so the evented transport can claim it on the reactor
/// thread (shed-or-admit happens *before* any queueing) and release
/// it on the executor thread that finishes the request.
pub(crate) struct AdmitSlot(Arc<Shared>);

impl AdmitSlot {
    /// Tries to claim a slot; `None` means the request must be shed.
    fn claim(shared: &Arc<Shared>) -> Option<Self> {
        shared
            .inflight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < shared.max_inflight).then_some(n + 1)
            })
            .ok()
            .map(|_| AdmitSlot(Arc::clone(shared)))
    }
}

impl Drop for AdmitSlot {
    fn drop(&mut self) {
        self.0.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Decides admission for one parsed request. Control ops (`stats`,
/// `metrics`, `evict`, `shutdown`) are always admitted slot-free;
/// work ops (`load`/`query`/`batch`/`update` — the ones that parse
/// CSVs, build indexes, run queries) are refused while draining and
/// shed with a typed `busy` error when the in-flight window is full.
/// The claim happens *here*, before any dispatch, so overload is
/// answered immediately — never queued.
pub(crate) fn claim_admission(
    shared: &Arc<Shared>,
    request: &Request,
) -> Result<Option<AdmitSlot>, ProtoError> {
    let is_work = matches!(
        request,
        Request::Load { .. }
            | Request::Query { .. }
            | Request::Batch { .. }
            | Request::Update { .. }
    );
    if !is_work {
        return Ok(None);
    }
    if shared.shutting_down() {
        return Err(ProtoError {
            code: code::SHUTTING_DOWN,
            message: "server is draining after a shutdown request".into(),
        });
    }
    AdmitSlot::claim(shared)
        .map(Some)
        .ok_or_else(|| ProtoError {
            code: code::BUSY,
            message: format!(
                "server is at capacity ({} requests in flight)",
                shared.max_inflight
            ),
        })
}

/// Binds a listening Unix socket at `path` without ever exposing a
/// file that refuses connections: `bind(2)` creates the file before
/// `listen(2)`, so the socket is bound under a temporary sibling name
/// and renamed into place once it listens. A failed rename removes
/// the temporary file.
#[cfg(unix)]
fn bind_listening(path: &Path) -> std::io::Result<UnixListener> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".{}-{}.tmp",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let _ = std::fs::remove_file(&tmp);
    let listener = UnixListener::bind(&tmp)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
    }
    Ok(listener)
}

/// A bound, not-yet-running server. [`Server::run`] blocks;
/// [`Server::spawn`] runs it on a thread and hands back a
/// [`ServerHandle`] (the in-process test/bench driver).
pub struct Server {
    listener: Listener,
    bind: Bind,
    shared: Arc<Shared>,
    transport: Transport,
    max_connections: usize,
    write_timeout: Duration,
    #[cfg(unix)]
    socket_path: Option<PathBuf>,
}

impl Server {
    /// Binds the listener and builds the registry (no datasets are
    /// loaded yet). A **stale** Unix socket file at the requested
    /// path (left by a crashed server) is removed first; a *live* one
    /// — something is still accepting on it — is an `AddrInUse`
    /// error, so a second server can neither hijack a running
    /// server's path nor unlink its socket on shutdown.
    ///
    /// The Unix socket file appears only once it is listening, so a
    /// client may treat the file existing as readiness.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        #[cfg(unix)]
        let mut socket_path = None;
        let (listener, bind) = match &config.bind {
            #[cfg(unix)]
            Bind::Unix(path) => {
                if path.exists() {
                    if UnixStream::connect(path).is_ok() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::AddrInUse,
                            format!("{} is served by a live process", path.display()),
                        ));
                    }
                    std::fs::remove_file(path)?;
                }
                socket_path = Some(path.clone());
                (
                    Listener::Unix(bind_listening(path)?),
                    Bind::Unix(path.clone()),
                )
            }
            Bind::Tcp(port) => {
                let listener = TcpListener::bind(("127.0.0.1", *port))?;
                let resolved = listener.local_addr()?.port();
                (Listener::Tcp(listener), Bind::Tcp(resolved))
            }
        };
        Ok(Server {
            listener,
            bind,
            transport: config.transport,
            max_connections: match config.max_connections {
                0 => config.transport.default_max_connections(),
                n => n,
            },
            write_timeout: config.write_timeout,
            shared: Arc::new(Shared {
                registry: {
                    let registry = DatasetRegistry::new(
                        config.datasets_dir,
                        config.cache_budget,
                        config.pool_threads,
                    )
                    .with_clock(Arc::clone(&config.clock));
                    let registry = match config.wal_dir {
                        Some(dir) => registry.with_wal_dir(dir),
                        None => registry,
                    };
                    match config.wal_compact_every {
                        Some(n) => registry.with_wal_compact_every(n),
                        None => registry,
                    }
                },
                max_inflight: config.max_inflight.max(1),
                inflight: AtomicUsize::new(0),
                requests_served: AtomicU64::new(0),
                busy_rejections: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                clock: Arc::clone(&config.clock),
                metrics: MetricsRegistry::new(),
                slow_query: config.slow_query_ms.map(|ms| SlowQueryLog {
                    threshold_nanos: ms.saturating_mul(1_000_000),
                    sink: config.slow_query_log.map(|path| SlowQuerySink {
                        path,
                        max_bytes: config.slow_query_log_max_bytes,
                        state: Mutex::new(SlowSinkState::default()),
                    }),
                }),
            }),
            #[cfg(unix)]
            socket_path,
        })
    }

    /// The resolved bind address (with the ephemeral TCP port filled
    /// in).
    pub fn bind_addr(&self) -> &Bind {
        &self.bind
    }

    /// Dataset names available in the served directory.
    pub fn available_datasets(&self) -> Vec<String> {
        self.shared.registry.available()
    }

    /// Runs the configured transport until a `shutdown` request, then
    /// drains in-flight work and returns the final counters.
    pub fn run(self) -> std::io::Result<ServeSnapshot> {
        self.listener.set_nonblocking(true)?;
        match self.transport {
            Transport::Threads => self.run_threads()?,
            Transport::Evented => crate::reactor::run(
                &self.listener,
                &self.shared,
                self.max_connections,
                self.write_timeout,
            )?,
        }
        drop(self.listener);
        #[cfg(unix)]
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
        Ok(self.shared.snapshot())
    }

    /// The thread-per-connection accept loop (the differential oracle
    /// for the evented transport).
    fn run_threads(&self) -> std::io::Result<()> {
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.shutting_down() {
            match self.listener.accept() {
                Ok(mut stream) => {
                    // Reap finished connection threads so the handle
                    // list (and the cap below) tracks *live*
                    // connections.
                    connections.retain(|conn| !conn.is_finished());
                    if connections.len() >= self.max_connections {
                        let refusal = ProtoError {
                            code: code::BUSY,
                            message: format!("server is at {} connections", self.max_connections),
                        };
                        let _ = stream.set_write_timeout(Some(POLL));
                        let _ = write_line(&mut stream, &refusal.to_json());
                        self.shared.busy_rejections.fetch_add(1, Ordering::SeqCst);
                        continue;
                    }
                    let shared = Arc::clone(&self.shared);
                    let write_timeout = self.write_timeout;
                    connections.push(std::thread::spawn(move || {
                        handle_connection(stream, &shared, write_timeout);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    // Transient accept failures (EMFILE under an FD
                    // burst, ECONNABORTED, …) must shed, not kill the
                    // server: overload is a condition to ride out.
                    eprintln!("utk serve: accept error (retrying): {e}");
                    std::thread::sleep(POLL);
                }
            }
        }
        // Drain: let every connection finish its in-flight request
        // and notice the flag.
        for conn in connections {
            let _ = conn.join();
        }
        Ok(())
    }

    /// Runs the server on a background thread, returning a handle for
    /// in-process drivers (tests, benches).
    pub fn spawn(self) -> ServerHandle {
        let bind = self.bind.clone();
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::spawn(move || self.run());
        ServerHandle {
            bind,
            shared,
            thread,
        }
    }
}

/// Handle onto a [`Server::spawn`]ed server.
pub struct ServerHandle {
    bind: Bind,
    shared: Arc<Shared>,
    thread: std::thread::JoinHandle<std::io::Result<ServeSnapshot>>,
}

impl ServerHandle {
    /// The resolved bind address.
    pub fn bind_addr(&self) -> &Bind {
        &self.bind
    }

    /// Live counters.
    pub fn snapshot(&self) -> ServeSnapshot {
        self.shared.snapshot()
    }

    /// Waits for the serving loop to exit (after a `shutdown`
    /// request) and returns its final counters.
    pub fn join(self) -> std::io::Result<ServeSnapshot> {
        self.thread
            .join()
            .unwrap_or_else(|e| std::panic::resume_unwind(e))
    }
}

/// Runs one query on the engine's persistent worker pool (so compute
/// lands on pool workers, not the connection's I/O thread) and waits
/// for it.
fn run_on_pool(engine: &UtkEngine, query: &UtkQuery) -> Result<QueryResult, UtkError> {
    let slot: Arc<Mutex<Option<Result<QueryResult, UtkError>>>> = Arc::new(Mutex::new(None));
    let set = engine.pool().task_set();
    {
        let engine = engine.clone();
        let query = query.clone();
        let slot = Arc::clone(&slot);
        set.spawn(move || {
            *slot.lock().expect("query slot") = Some(engine.run(&query));
        });
    }
    set.wait();
    let result = slot
        .lock()
        .expect("query slot")
        .take()
        // utk-lint: allow(panic) -- invariant: wait() returns only after the task stored its slot
        .expect("pool task filled the slot before wait() returned");
    result
}

/// What one [`read_request_line`] call produced.
enum LineRead {
    /// A complete, newline-terminated line is in the buffer.
    Line,
    /// EOF; the buffer may hold a final unterminated line.
    Eof,
    /// The connection must close: oversized line, or shutdown while a
    /// line was still incomplete.
    Closed,
}

/// Reads one request line into `buf`, checking the shutdown flag and
/// the byte cap between *every* socket read — a peer trickling bytes
/// without a newline can neither stall shutdown (the drain joins this
/// thread) nor grow the buffer past [`MAX_REQUEST_BYTES`]. Bytes, not
/// a `String`: `read_line` discards a tick's consumed bytes when a
/// timeout lands mid-UTF-8-character, silently corrupting the
/// request; raw bytes survive any split.
///
/// `ErrorKind::Interrupted` (EINTR) is a pure retry — a signal landing
/// mid-read is not a poll tick, counts against nothing, and can never
/// close the connection.
fn read_request_line<R: BufRead>(
    reader: &mut R,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> std::io::Result<LineRead> {
    loop {
        let chunk = match reader.fill_buf() {
            Ok([]) => return Ok(LineRead::Eof),
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(LineRead::Closed);
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        let (consume, complete) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (i + 1, true),
            None => (chunk.len(), false),
        };
        if buf.len() + consume > MAX_REQUEST_BYTES {
            return Ok(LineRead::Closed); // oversized request line
        }
        // utk-lint: allow(index) -- invariant: consume <= chunk.len() by construction above
        buf.extend_from_slice(&chunk[..consume]);
        reader.consume(consume);
        if complete {
            return Ok(LineRead::Line);
        }
        if shutdown.load(Ordering::SeqCst) {
            return Ok(LineRead::Closed);
        }
    }
}

/// The write half of a connection: a plain byte sink plus the
/// half-close hook [`PatientWriter`] pulls when a peer stops taking
/// bytes. Implemented by [`Stream`] and by test mocks.
pub(crate) trait StallStream: Write {
    /// Best-effort shutdown so the peer sees EOF instead of a torn
    /// line masquerading as a complete response.
    fn stall_shutdown(&mut self);
}

impl StallStream for Stream {
    fn stall_shutdown(&mut self) {
        self.shutdown();
    }
}

/// Response writer for the threads transport: resumes partial writes
/// instead of dropping the connection mid-line.
///
/// The underlying stream runs a short per-syscall timeout
/// ([`POLL`]-sized), so each `write` call returns quickly with either
/// progress or a timeout kind. A short write is *progress* — the
/// remainder is retried, so a slow-but-alive reader receives its
/// whole response where the old `write_all`-under-`SO_SNDTIMEO` path
/// tore the line. Only a full [`ServerConfig::write_timeout`] window
/// with **zero** bytes accepted means the peer is gone: the socket is
/// shut down first (the peer sees EOF mid-line, never a prefix
/// passing as a complete response), then the connection closes.
/// `ErrorKind::Interrupted` (EINTR) always retries and never counts
/// against the stall window.
pub(crate) struct PatientWriter<S> {
    stream: S,
    clock: Arc<dyn Clock>,
    stall_nanos: u64,
}

impl<S: StallStream> PatientWriter<S> {
    pub(crate) fn new(stream: S, clock: Arc<dyn Clock>, write_timeout: Duration) -> Self {
        PatientWriter {
            stream,
            clock,
            stall_nanos: write_timeout.as_nanos().min(u64::MAX as u128) as u64,
        }
    }
}

impl<S: StallStream> Write for PatientWriter<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut written = 0usize;
        let mut stalled_since: Option<u64> = None;
        while written < buf.len() {
            let pending = buf.get(written..).unwrap_or(&[]);
            match self.stream.write(pending) {
                Ok(0) => {
                    self.stream.stall_shutdown();
                    return Err(std::io::ErrorKind::WriteZero.into());
                }
                Ok(n) => {
                    written += n;
                    stalled_since = None;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    let now = self.clock.now_nanos();
                    let since = *stalled_since.get_or_insert(now);
                    if now.saturating_sub(since) >= self.stall_nanos {
                        self.stream.stall_shutdown();
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(written)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Serves one connection: read a request line, write its response
/// line(s), repeat until EOF, error, or shutdown.
fn handle_connection(stream: Stream, shared: &Arc<Shared>, write_timeout: Duration) {
    // Short per-syscall timeouts on both halves: reads poll the
    // shutdown flag, writes poll for progress (the *stall* bound is
    // `write_timeout`, enforced by `PatientWriter` across syscalls).
    if stream.set_read_timeout(Some(POLL)).is_err() || stream.set_write_timeout(Some(POLL)).is_err()
    {
        return;
    }
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let mut writer = PatientWriter::new(writer, Arc::clone(&shared.clock), write_timeout);
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    loop {
        let status = match read_request_line(&mut reader, &mut buf, &shared.shutdown) {
            Ok(LineRead::Closed) | Err(_) => return,
            Ok(status) => status,
        };
        // A final unterminated line (EOF mid-line) is still a
        // request. Invalid UTF-8 becomes U+FFFD, which
        // `Request::parse` rejects as a `bad_request` like any other
        // bad byte.
        let line = String::from_utf8_lossy(&buf).into_owned();
        buf.clear();
        let line = line.trim();
        if !line.is_empty() && respond(line, shared, &mut writer).is_err() {
            return;
        }
        if matches!(status, LineRead::Eof) || shared.shutting_down() {
            return;
        }
    }
}

/// Writes one response line. Streaming each line as it is produced —
/// rather than accumulating a whole batch response in memory — keeps
/// per-connection response memory at one line on the threads
/// transport (the evented transport buffers one whole *response*; see
/// [`crate::reactor`]).
pub(crate) fn write_line<W: Write>(writer: &mut W, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")
}

/// Answers one request line, streaming the response line(s) to
/// `writer`. An `Err` means the peer stopped taking bytes; the
/// connection is closed.
pub(crate) fn respond<W: Write>(
    line: &str,
    shared: &Arc<Shared>,
    writer: &mut W,
) -> std::io::Result<()> {
    let started_at = shared.clock.now_nanos();
    let request = match Request::parse(line) {
        Ok(req) => req,
        Err(e) => {
            shared.count_error(e.code);
            write_line(writer, &e.to_json())?;
            return writer.flush();
        }
    };
    let admission = claim_admission(shared, &request);
    respond_admitted(&request, admission, shared, writer, started_at)
}

/// The transport-shared back half of [`respond`]: executes a parsed
/// request whose admission has already been decided, streams its
/// response line(s), and does every piece of bookkeeping (served /
/// busy / error counters, latency observation). The evented transport
/// calls this from executor threads with a slot claimed on the
/// reactor; the threads transport calls it inline.
pub(crate) fn respond_admitted<W: Write>(
    request: &Request,
    admission: Result<Option<AdmitSlot>, ProtoError>,
    shared: &Arc<Shared>,
    writer: &mut W,
    started_at: u64,
) -> std::io::Result<()> {
    let outcome = match admission {
        Ok(slot) => handle_request(request, shared, writer, slot),
        Err(e) => Err(Handled::Proto(e)),
    };
    match outcome {
        Ok(()) => {
            shared.requests_served.fetch_add(1, Ordering::SeqCst);
        }
        Err(Handled::Proto(e)) => {
            if e.code == code::BUSY {
                shared.busy_rejections.fetch_add(1, Ordering::SeqCst);
            }
            shared.count_error(e.code);
            write_line(writer, &e.to_json())?;
        }
        Err(Handled::Io(e)) => return Err(e),
    }
    shared.observe_request(request.op(), request.dataset(), started_at);
    writer.flush()
}

/// Why a request produced no complete response: a protocol error (to
/// be written back) or a transport failure (to close the connection).
enum Handled {
    Proto(ProtoError),
    Io(std::io::Error),
}

impl From<ProtoError> for Handled {
    fn from(e: ProtoError) -> Self {
        Handled::Proto(e)
    }
}

impl From<std::io::Error> for Handled {
    fn from(e: std::io::Error) -> Self {
        Handled::Io(e)
    }
}

/// Executes a request whose admission was already decided by
/// [`claim_admission`]. `slot` is `Some` for work ops (load / query /
/// batch / update) and held for the duration of execution; control
/// ops (stats / metrics / evict / shutdown) run slot-free.
fn handle_request<W: Write>(
    request: &Request,
    shared: &Shared,
    writer: &mut W,
    slot: Option<AdmitSlot>,
) -> Result<(), Handled> {
    // Held (not consumed) so the inflight gauge covers execution on
    // every arm below, whichever transport called us.
    let _slot = slot;
    match request {
        Request::Load { dataset } => {
            // A first load is a CSV parse + R-tree build — real work,
            // admitted like a query (only stats/evict/shutdown are
            // always-on control ops).
            let (ds, already_loaded) = shared.registry.get_or_load(dataset)?;
            write_line(
                writer,
                &Response::Load {
                    dataset: ds.name.clone(),
                    n: ds.engine.len() as u64,
                    d: ds.engine.dim() as u64,
                    already_loaded,
                }
                .to_json(),
            )?;
            Ok(())
        }
        Request::Query { dataset, q } => {
            let ds = shared.registry.get_or_load(dataset)?.0;
            let (line, timings) = answer_query(&ds, q, &shared.clock);
            write_line(writer, &line)?;
            shared.observe_answers(
                "query",
                &ds.name,
                1,
                timings.as_ref(),
                &format!(r#""q":"{}""#, escape(q)),
            );
            Ok(())
        }
        Request::Batch { dataset, queries } => {
            let ds = shared.registry.get_or_load(dataset)?.0;
            let text = queries.join("\n");
            let parsed = spec::parse_query_file(&text, ds.engine.dim());
            // A payload snapshot, not a held lock: a concurrent
            // `update` never waits on this batch (nor vice versa).
            let data = ds.data_snapshot();
            let (lines, timings) = spec::answer_query_file_observed(&ds.engine, &data, &parsed);
            write_line(
                writer,
                &Response::BatchHeader {
                    dataset: ds.name.clone(),
                    count: lines.len() as u64,
                }
                .to_json(),
            )?;
            for line in &lines {
                write_line(writer, line)?;
            }
            shared.observe_answers(
                "batch",
                &ds.name,
                lines.len() as u64,
                Some(&timings),
                &format!(r#""queries":{}"#, lines.len()),
            );
            Ok(())
        }
        Request::Update {
            dataset,
            delete,
            insert,
            labels,
        } => {
            // A mutation rebuilds indexes and re-screens caches —
            // real work, admitted like a query.
            let (ds, report) =
                shared
                    .registry
                    .update(dataset, delete, insert.clone(), labels.clone())?;
            write_line(
                writer,
                &Response::Update {
                    dataset: ds.name.clone(),
                    epoch: report.epoch,
                    n: report.n as u64,
                    inserted: report.inserted as u64,
                    deleted: report.deleted as u64,
                    filter_invalidated: report.filter_invalidated as u64,
                    filter_retained: report.filter_retained as u64,
                    index_rebuilt: report.index_rebuilt,
                }
                .to_json(),
            )?;
            Ok(())
        }
        Request::Stats => {
            write_line(writer, &Response::Stats(shared.stats_body()).to_json())?;
            Ok(())
        }
        Request::Metrics { format } => {
            // A cheap control op, always admitted (like `stats`).
            // Scrape-time gauges reflect this instant; the op's own
            // request counter lands after rendering, so a scrape
            // never counts itself.
            let snap = shared.snapshot();
            let m = &shared.metrics;
            m.gauge_set(
                "utk_inflight",
                "Query/batch/load requests executing right now.",
                "",
                snap.inflight as u64,
            );
            m.gauge_set(
                "utk_requests_served",
                "Requests fully processed since startup.",
                "",
                snap.requests_served,
            );
            m.gauge_set(
                "utk_busy_rejections",
                "Requests shed by admission control since startup.",
                "",
                snap.busy_rejections,
            );
            m.gauge_set(
                "utk_datasets_loaded",
                "Datasets currently resident.",
                "",
                snap.datasets_loaded as u64,
            );
            let body = match format {
                MetricsFormat::Prometheus => m.render_prometheus(),
                MetricsFormat::Json => m.render_json(),
            };
            write_line(
                writer,
                &Response::Metrics {
                    format: *format,
                    body,
                }
                .to_json(),
            )?;
            Ok(())
        }
        Request::Evict { dataset } => {
            let evicted = shared.registry.evict(dataset)?;
            write_line(
                writer,
                &Response::Evict {
                    dataset: dataset.clone(),
                    evicted,
                }
                .to_json(),
            )?;
            Ok(())
        }
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            write_line(writer, &Response::Shutdown.to_json())?;
            Ok(())
        }
    }
}

/// Answers one `query` op on the dataset's engine pool (on a payload
/// snapshot — no lock held across execution), returning the wire line
/// plus the query's timing breakdown for the metrics/slow-query side
/// channels. The line itself never carries timings.
fn answer_query(
    ds: &LoadedDataset,
    q: &str,
    clock: &Arc<dyn Clock>,
) -> (String, Option<PhaseTimings>) {
    let data = ds.data_snapshot();
    spec::answer_query_line_observed(&data, q, clock, |query| run_on_pool(&ds.engine, query))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use utk_core::obs::TestClock;

    /// A `BufRead` whose `fill_buf` plays back a script of errors and
    /// byte chunks — the EINTR/timeout injection harness for
    /// [`read_request_line`].
    struct ScriptedReader {
        script: VecDeque<std::io::Result<Vec<u8>>>,
        current: Vec<u8>,
    }

    impl ScriptedReader {
        fn new(script: Vec<std::io::Result<Vec<u8>>>) -> Self {
            ScriptedReader {
                script: script.into(),
                current: Vec::new(),
            }
        }
    }

    impl Read for ScriptedReader {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let n = {
                let chunk = self.fill_buf()?;
                let n = chunk.len().min(out.len());
                out[..n].copy_from_slice(&chunk[..n]);
                n
            };
            self.consume(n);
            Ok(n)
        }
    }

    impl BufRead for ScriptedReader {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.current.is_empty() {
                match self.script.pop_front() {
                    Some(Ok(bytes)) => self.current = bytes,
                    Some(Err(e)) => return Err(e),
                    None => {} // EOF: empty slice
                }
            }
            Ok(&self.current)
        }

        fn consume(&mut self, n: usize) {
            self.current.drain(..n);
        }
    }

    fn err(kind: std::io::ErrorKind) -> std::io::Result<Vec<u8>> {
        Err(kind.into())
    }

    #[test]
    fn eintr_is_a_pure_retry_in_read_request_line() {
        // EINTR between chunks must not kill the connection: the
        // interrupted reads retry and the complete line arrives.
        let shutdown = AtomicBool::new(false);
        let mut reader = ScriptedReader::new(vec![
            err(std::io::ErrorKind::Interrupted),
            Ok(b"{\"op\":".to_vec()),
            err(std::io::ErrorKind::Interrupted),
            err(std::io::ErrorKind::Interrupted),
            Ok(b"\"stats\"}\n".to_vec()),
        ]);
        let mut buf = Vec::new();
        let status = read_request_line(&mut reader, &mut buf, &shutdown).expect("line");
        assert!(matches!(status, LineRead::Line));
        assert_eq!(buf, b"{\"op\":\"stats\"}\n");

        // And EINTR is not a poll tick: unlike WouldBlock (see the
        // companion test), an interrupted read never consults the
        // shutdown flag — with shutdown already requested it still
        // retries straight through to the line.
        let shutdown = AtomicBool::new(true);
        let mut reader = ScriptedReader::new(vec![
            err(std::io::ErrorKind::Interrupted),
            err(std::io::ErrorKind::Interrupted),
            Ok(b"{\"op\":\"stats\"}\n".to_vec()),
        ]);
        let mut buf = Vec::new();
        let status = read_request_line(&mut reader, &mut buf, &shutdown).expect("line");
        assert!(matches!(status, LineRead::Line));
        assert_eq!(buf, b"{\"op\":\"stats\"}\n");
    }

    #[test]
    fn timeout_mid_line_closes_only_on_shutdown() {
        // A WouldBlock *is* a poll tick: with shutdown requested and
        // the line incomplete, the connection closes...
        let shutdown = AtomicBool::new(true);
        let mut reader = ScriptedReader::new(vec![
            Ok(b"{\"op\":".to_vec()),
            err(std::io::ErrorKind::WouldBlock),
        ]);
        let mut buf = Vec::new();
        let status = read_request_line(&mut reader, &mut buf, &shutdown).expect("closed");
        assert!(matches!(status, LineRead::Closed));

        // ...but without shutdown the same timeout just retries.
        let shutdown = AtomicBool::new(false);
        let mut reader = ScriptedReader::new(vec![
            Ok(b"{\"op\":".to_vec()),
            err(std::io::ErrorKind::TimedOut),
            Ok(b"\"stats\"}\n".to_vec()),
        ]);
        let mut buf = Vec::new();
        let status = read_request_line(&mut reader, &mut buf, &shutdown).expect("line");
        assert!(matches!(status, LineRead::Line));
        assert_eq!(buf, b"{\"op\":\"stats\"}\n");
    }

    /// A write sink that plays back a script of short writes and
    /// errors, recording every byte it accepts and every half-close.
    struct FlakyStream {
        script: VecDeque<std::io::Result<usize>>,
        accepted: Vec<u8>,
        shutdowns: usize,
    }

    impl FlakyStream {
        fn new(script: Vec<std::io::Result<usize>>) -> Self {
            FlakyStream {
                script: script.into(),
                accepted: Vec::new(),
                shutdowns: 0,
            }
        }
    }

    impl Write for FlakyStream {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match self.script.pop_front() {
                Some(Ok(n)) => {
                    let n = n.min(buf.len());
                    self.accepted.extend_from_slice(&buf[..n]);
                    Ok(n)
                }
                Some(Err(e)) => Err(e),
                None => {
                    self.accepted.extend_from_slice(buf);
                    Ok(buf.len())
                }
            }
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl StallStream for FlakyStream {
        fn stall_shutdown(&mut self) {
            self.shutdowns += 1;
        }
    }

    #[test]
    fn patient_writer_resumes_partial_writes() {
        // The satellite-1 regression in miniature: short writes and
        // timeouts interleave, yet the full line arrives untorn — the
        // writer tracks the written offset and resumes, and timeouts
        // with *progress* in between never trip the stall bound.
        let clock = Arc::new(TestClock::new());
        let stream = FlakyStream::new(vec![
            Ok(3),
            Err(std::io::ErrorKind::TimedOut.into()),
            Ok(4),
            Err(std::io::ErrorKind::WouldBlock.into()),
            Ok(2),
        ]);
        let mut writer = PatientWriter::new(stream, clock as Arc<dyn Clock>, WRITE_TIMEOUT);
        writer.write_all(b"0123456789\n").expect("untorn write");
        assert_eq!(writer.stream.accepted, b"0123456789\n");
        assert_eq!(writer.stream.shutdowns, 0);
    }

    #[test]
    fn patient_writer_retries_eintr_without_consulting_the_clock() {
        // EINTR is a pure retry: a burst of signals neither counts
        // against the stall window nor reaches the clock at all.
        let clock = Arc::new(TestClock::with_step(u64::MAX / 4)); // any read would trip the stall
        let mut script: Vec<std::io::Result<usize>> = Vec::new();
        for _ in 0..16 {
            script.push(Err(std::io::ErrorKind::Interrupted.into()));
        }
        let stream = FlakyStream::new(script);
        let mut writer =
            PatientWriter::new(stream, clock as Arc<dyn Clock>, Duration::from_nanos(1));
        writer.write_all(b"{\"ok\":\"stats\"}\n").expect("written");
        assert_eq!(writer.stream.accepted, b"{\"ok\":\"stats\"}\n");
        assert_eq!(writer.stream.shutdowns, 0);
    }

    #[test]
    fn patient_writer_half_closes_on_a_zero_progress_stall() {
        // Zero progress for a full write_timeout window: the socket is
        // shut down FIRST (peer sees EOF, not a torn prefix passing as
        // a complete response), then the write errors out.
        let clock = Arc::new(TestClock::with_step(600_000)); // 0.6 ms per read
        let stream = FlakyStream::new(vec![
            Err(std::io::ErrorKind::TimedOut.into()),
            Err(std::io::ErrorKind::TimedOut.into()),
            Err(std::io::ErrorKind::TimedOut.into()),
        ]);
        let mut writer =
            PatientWriter::new(stream, clock as Arc<dyn Clock>, Duration::from_millis(1));
        let e = writer.write_all(b"response\n").expect_err("stall");
        assert_eq!(e.kind(), std::io::ErrorKind::TimedOut);
        assert_eq!(writer.stream.shutdowns, 1, "half-close precedes the error");
        assert!(writer.stream.accepted.is_empty());
    }

    #[test]
    fn slow_query_sink_adopts_an_externally_rotated_file() {
        // The satellite-3 hardening: the in-process byte counter says
        // "rotate", but the on-disk file is already fresh — a
        // concurrent rotator (second process, external logrotate) got
        // there first. Renaming anyway would clobber the `.1`
        // generation; instead the sink adopts the fresh file, reports
        // the averted double-rotation, and still writes the record.
        let dir = utk_testdir::TestDir::new("server_sink_rotate");
        let path = dir.join("slow.jsonl");
        let rotated = dir.join("slow.jsonl.1");

        let sink = SlowQuerySink {
            path: path.clone(),
            max_bytes: 100,
            state: Mutex::new(SlowSinkState::default()),
        };
        let first = "f".repeat(59);
        let report = sink.append(&first);
        assert!(report.written && !report.averted_double_rotation);

        // An external rotator crosses the sink: rename + fresh file.
        std::fs::rename(&path, &rotated).expect("external rotation");
        std::fs::write(&path, b"fresh\n").expect("fresh file");

        let second = "s".repeat(59);
        let report = sink.append(&second);
        assert!(report.written, "record still lands");
        assert!(report.averted_double_rotation, "clobber averted");
        let kept = std::fs::read_to_string(&rotated).expect(".1 generation");
        assert_eq!(kept, format!("{first}\n"), ".1 generation not clobbered");
        let current = std::fs::read_to_string(&path).expect("current file");
        assert_eq!(current, format!("fresh\n{second}\n"));

        // And a genuine crossing (no concurrent rotator) still
        // rotates: the re-check confirms against the disk.
        let third = "t".repeat(80);
        let report = sink.append(&third);
        assert!(report.written && !report.averted_double_rotation);
        let kept = std::fs::read_to_string(&rotated).expect(".1 generation");
        assert_eq!(kept, format!("fresh\n{second}\n"), "real rotation renames");
        let current = std::fs::read_to_string(&path).expect("current file");
        assert_eq!(current, format!("{third}\n"));
    }
}
