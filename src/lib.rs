//! # utk — Exact Processing of Uncertain Top-k Queries
//!
//! A Rust implementation of Mouratidis & Tang, *Exact Processing of
//! Uncertain Top-k Queries in Multi-criteria Settings*, PVLDB 11(8),
//! VLDB 2018 — including the full substrate stack (geometry kernel and
//! LP solver, R-tree, workload generators) and the complete
//! experimental harness (see `crates/bench`).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`core`] — the [`UtkEngine`](core::engine::UtkEngine) query API,
//!   the UTK algorithms behind it (RSA for UTK1, JAA for UTK2, the
//!   SK/ON baselines), and their building blocks;
//! * [`geom`] — preference-domain geometry: regions, half-spaces,
//!   arrangements, LP;
//! * [`rtree`] — the spatial index;
//! * [`data`] — benchmark datasets and query workloads.
//!
//! ## Quick start
//!
//! Build a [`UtkEngine`](core::engine::UtkEngine) once per dataset,
//! then describe each query with the
//! [`UtkQuery`](core::engine::UtkQuery) builder. The engine keeps the
//! R-tree and memoizes per-`(k, region)` filtering state, so repeated
//! queries — the production serving pattern — skip the expensive
//! phases. All entry points return `Result<_, UtkError>`: malformed
//! input is a typed error, never a panic.
//!
//! ```
//! use utk::prelude::*;
//!
//! // Figure 1 of the paper: uncertain top-2 over a region of
//! // plausible user preferences.
//! let hotels = utk::data::embedded::figure1_hotels();
//! let engine = UtkEngine::from_slice(&hotels.points)?;
//! let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
//!
//! // UTK1: which hotels can make the top-2 at all?
//! let utk1 = engine.run(&UtkQuery::utk1(2).region(region.clone()))?;
//! assert_eq!(utk1.records(), &[0, 1, 3, 5]); // {p1, p2, p4, p6}
//!
//! // UTK2: the exact top-2 set for every possible weight vector —
//! // served off the memoized r-skyband of the UTK1 query above.
//! let utk2 = engine.run(&UtkQuery::utk2(2).region(region))?;
//! assert_eq!(utk2.records(), utk1.records());
//! assert_eq!(utk2.stats().filter_cache_hits, 1);
//! # Ok::<(), UtkError>(())
//! ```
//!
//! The query builder selects algorithm ([`Algo`](core::engine::Algo):
//! RSA, JAA, the SK/ON baselines, or `Auto`), parallelism
//! (`.parallel(true)`), and generalized scoring (`.scoring(...)`,
//! §6 of the paper). The pre-engine free functions (`rsa`, `jaa`,
//! `baseline_utk1`, …) remain available for existing call sites.
//!
//! ## Parallelism and batching
//!
//! Every engine owns one persistent work-stealing
//! [`ThreadPool`](core::parallel::ThreadPool), built lazily on the
//! first parallel query and sized with
//! [`UtkEngine::with_pool_threads`](core::engine::UtkEngine::with_pool_threads)
//! (default: one worker per core) — thread count is **never**
//! re-resolved per query. `.parallel(true)` fans RSA's candidate
//! verification (UTK1) or JAA's partition recursion (UTK2) out over
//! that pool; outputs are cell-for-cell identical to the sequential
//! runs.
//!
//! [`UtkEngine::run_many`](core::engine::UtkEngine::run_many) answers
//! a whole batch: queries are grouped by `(k, region, scoring)` so
//! each group pays filtering once, groups execute concurrently on the
//! pool, and results come back in input order with per-query errors
//! (a malformed query never aborts its siblings). Engines are `Sync`
//! *and* cheaply `Clone` (handles onto shared state), so one engine
//! can serve threads and batches simultaneously.
//!
//! Which [`Stats`](core::stats::Stats) counters a query populates:
//! filtering counters (`candidates`, `bbs_pops`, `rdom_tests`) on
//! every non-cached query; arrangement counters
//! (`halfspaces_inserted`, `lp_solves`, `lp_rows`, `cells_created`,
//! `arrangements_built`, `drills`, `peak_arrangement_bytes`) during
//! RSA/JAA refinement (and the LP and cell counters in kSPR too);
//! `kspr_calls` only in the SK/ON baselines; `filter_cache_hits` on
//! engine cache hits; `pool_threads` and `stolen_tasks` only on
//! parallel queries; `batch_group_count` only through `run_many`.
//! Results are always deterministic; work counters are deterministic
//! except `stolen_tasks` (on any parallel query) and parallel RSA's
//! verification counters, both scheduling-dependent — see the
//! [`wire`] module docs for the exact JSON determinism contract.
//!
//! ## Serving
//!
//! [`server`] (the `utk-server` crate) turns the library into a
//! long-running multi-dataset service. `utk serve` holds one lazily
//! built engine per CSV in a directory — a
//! [`DatasetRegistry`](server::DatasetRegistry) sharing one
//! filter-cache byte budget across all of them, re-dealt as datasets
//! load and evict — behind a Unix or TCP socket speaking
//! newline-delimited JSON:
//!
//! ```text
//! → {"op":"load","dataset":NAME}
//! → {"op":"query","dataset":NAME,"q":"utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25"}
//! → {"op":"batch","dataset":NAME,"queries":[LINE,...]}
//! → {"op":"stats"} | {"op":"metrics"} | {"op":"evict","dataset":NAME} | {"op":"shutdown"}
//! ← one wire result/error line per query ({"ok":…} envelopes for
//!   control ops; {"error":…,"code":"busy"|…} for protocol errors)
//! ```
//!
//! Query lines use the `utk batch` syntax — the parser lives in
//! [`server::spec`] and is shared by the CLI, so a server `batch`
//! response is **byte-identical** to `utk batch` on the same file.
//! Admission control bounds concurrently executing query/batch/load
//! requests (`--max-inflight`): overload is shed immediately with a
//! typed `busy` error instead of queueing unboundedly, and a
//! `shutdown` request drains in-flight queries before the process
//! exits. End-to-end:
//!
//! ```text
//! utk serve  --datasets data/ --socket /tmp/utk.sock --max-inflight 8 &
//! utk client --socket /tmp/utk.sock --dataset hotels --file queries.txt
//! utk client --socket /tmp/utk.sock --op stats
//! utk client --socket /tmp/utk.sock --op shutdown
//! ```
//!
//! See the [`server`] crate docs for the full protocol grammar.
//!
//! ## Incremental updates
//!
//! Engines are **mutable**:
//! [`UtkEngine::apply_update`](core::engine::UtkEngine::apply_update)
//! (and its `insert_points` / `delete_points` shorthands) removes
//! records by id and appends new ones as one atomic dataset epoch.
//! Deletes apply simultaneously against current ids; survivors keep
//! their order and renumber densely; inserts append — exactly the
//! semantics of rebuilding the dataset by hand, which is the
//! contract the `tests/dynamic.rs` oracle locks: **every query on a
//! mutated engine is wire-identical to a fresh engine built from the
//! post-mutation dataset** (work counters may differ on the
//! incremental path; after
//! [`compact()`](core::engine::UtkEngine::compact) +
//! [`clear_caches()`](core::engine::UtkEngine::clear_caches) even
//! those match, byte for byte).
//!
//! Under the hood, queries snapshot an immutable dataset version (no
//! torn reads; [`Stats::dataset_epoch`](core::stats::Stats) reports
//! which). A version holds its records once, as one flat
//! [`PointStore`](geom::PointStore) that the filter, the SK/ON
//! baselines and the scoring transforms all read (the latter two
//! through [`Rows`](geom::Rows)); a mutation builds the next store
//! with one bulk copy per run of surviving rows plus the inserts, no
//! per-row allocation. The R-tree absorbs mutations through a
//! tombstone/append overlay until a rebuild threshold
//! ([`TreeView`](core::skyband::TreeView) — exact by the
//! tree-independence of BBS record pop order), and the filter cache
//! is invalidated *surgically*: an entry survives iff no deleted id
//! is a cached member and every insert is provably screened out by
//! cached members
//! ([`rejected_by_members`](core::skyband::rejected_by_members));
//! survivors are id-remapped in place and re-keyed under the new
//! epoch.
//! Entries a mutation *does* touch are **spliced**, not dropped:
//! [`r_skyband`](core::skyband::r_skyband) over a
//! [`Source::Repair`](core::skyband::Source::Repair) keeps the member
//! prefix the mutation cannot reach, merges live inserts in pop order
//! and re-screens only the rest, producing a candidate set
//! **byte-identical** to a cold run — or `None`, in which case the
//! engine drops the entry and the next query that needs it recomputes
//! it (repair may only ever be a pure optimization). Serving (`update` op,
//! re-dealing the shared cache budget as sizes change), `utk update`,
//! and `utk batch --mutations` expose the same seam end to end.
//!
//! Updates are **crash-safe** when a write-ahead log is configured
//! (`utk serve --wal-dir <dir>`, `utk batch --wal <log>`): every
//! mutation is appended and fsynced to a per-dataset
//! [`WalFile`](data::wal::WalFile) (length-prefixed, checksummed,
//! strict-epoch records) *before* the engine commits its epoch bump,
//! loads replay the log over the base CSV (tolerating a torn tail),
//! and an index rebuild folds the log into a snapshot + leading
//! `compact` marker. Without a WAL, evicting a dataset holding
//! in-memory updates is refused with a typed `would_lose_updates`
//! error instead of silently reverting to disk.
//!
//! ## Invariants & how they're enforced
//!
//! The workspace runs on a small set of contracts; each one is
//! backed by a test that would fail if it broke **and** a `utk-lint`
//! rule (`crates/lint`, run as `cargo run -p utk-lint`, first job in
//! CI) that statically rejects the code patterns able to break it:
//!
//! * **Determinism / byte-identity.** Identical inputs produce
//!   identical output bytes everywhere: server `batch` ≡ `utk batch`
//!   (`tests/serve.rs`), repeated runs and parallel runs match serial
//!   ones (`tests/determinism.rs`), responses re-serialize
//!   byte-exactly (`tests/wire_roundtrip.rs`), and one representative
//!   response of each kind is pinned to its exact bytes
//!   (`tests/wire_golden.rs`). A batch's stats do not depend on pool
//!   scheduling: `UtkEngine::run_many` filters and refines groups
//!   concurrently against the cache as it stood when the batch began,
//!   then writes the filter steps to the cache in input order
//!   (`tests/determinism.rs`). Enforced by the lint's `float-cmp`
//!   rule (float comparisons must be total — `total_cmp`, never bare
//!   `partial_cmp` in sorts) and `hash-iter` rule (no
//!   `HashMap`/`HashSet` in wire-feeding modules, where iteration
//!   order would leak into output bytes).
//! * **Top-k ≡ brute force, byte for byte.** The engine's `topk`
//!   answers and its degenerate-region shortcut come from a
//!   best-first search over the R-tree
//!   ([`core::skyband::top_k_tree`]), and they equal
//!   [`core::topk::top_k_brute`] exactly: score descending under
//!   `total_cmp`, ties to the smaller id. Node bounds come from
//!   [`geom::score_upper_bound`] (sign-aware corner plus rounding
//!   slack), and the search stops only when the best bound is strictly
//!   below the k-th score. Locked by `tests/topk.rs` (distributions ×
//!   d × k, duplicates, boundary weights, every overlay state, legacy
//!   entry points), the bound's unit tests and proptest in
//!   `crates/geom`, and the work-bound test in `core::topk`.
//! * **Panic-freedom in library code.** Query evaluation returns
//!   typed errors ([`core::error::UtkError`]); servers must not be
//!   killable by a request. Locked by `tests/edge_cases.rs` and the
//!   `utk batch` error-line contract; enforced by the lint's `panic`
//!   rule (no `unwrap`/`expect`/`panic!` outside tests — lock-poison
//!   propagation excepted) and `index` rule (no bare slice indexing
//!   on server request paths). Invariant-backed exceptions carry an
//!   inline `utk-lint: allow(rule) -- reason` with the reason
//!   mandatory.
//! * **Concurrency discipline.** Lock guards never span blocking
//!   calls, and locks nest in one global order (declared in
//!   `crates/lint/lock-order.toml`: engine mutation → data →
//!   filter cache → scoring cache; pool gate → deques → latch).
//!   Exercised under load by `tests/serve.rs` admission-control and
//!   `tests/dynamic.rs` concurrency tests; enforced by the lint's
//!   `guard-blocking` and `lock-order` rules.
//! * **Durability / incremental repair.** Two contracts added with
//!   the WAL subsystem. (1) *Epoch `N` visible ⇒ the log replays to
//!   `N`*: a mutation reaches the per-dataset write-ahead log
//!   (appended and fsynced) before the engine's epoch bump makes it
//!   visible, so any
//!   crash recovers to the exact pre- or post-mutation epoch, never a
//!   torn state. Locked by the `wal_` fault-injection proptests in
//!   `tests/dynamic.rs` (kill at every byte offset via
//!   `fail_after_n_bytes`, replay, compare wire-identically to a
//!   fresh build), the corruption suite in `tests/edge_cases.rs`
//!   (torn tail → clean truncation; bad checksum / duplicate epoch /
//!   bad magic → typed `WalError`, never a panic), and
//!   `tests/wal_golden.rs` pinning the log bytes of every record
//!   kind. (2) *Splice repair ≡ recompute*: a repaired filter-cache
//!   entry is byte-identical to a freshly computed `r_skyband` — the
//!   repair returns `None` (full recompute) whenever it cannot prove
//!   identity. Property-locked over random mutation interleavings in
//!   `tests/dynamic.rs` against a `without_cache_repair()` twin.
//! * **The screen kernel never changes bytes.** The default blocked
//!   sweep ([`core::rdominance::blocked_dominates_mask`]) classifies
//!   every lane exactly as the scalar oracle does, ±EPS boundaries and
//!   NaN scores included. Locked by `tests/screen_kernel.rs`: whole
//!   r-skyband byte-identity (fresh, superset re-screen, engine splice
//!   repair) against a
//!   [`without_blocked_kernel`](core::engine::UtkEngine::without_blocked_kernel)
//!   scalar twin — the CI `screen-kernel-fuzz` job re-runs the suite
//!   at 256 cases in release mode.
//! * **A vertex certificate implies the LP finds no interior.** An
//!   arrangement cell with a vertex list settles a half-space as
//!   covering or missing it when every vertex clears the hyperplane by
//!   a margin ([`geom::CellGeom::certify`]); the Chebyshev LP it
//!   replaces would have returned `None` on the certified-away side.
//!   Splits still solve that LP, so records, cells and interior points
//!   are byte-identical with or without certificates; only
//!   `lp_solves`/`lp_rows` fall. Enforced at two seams: debug builds
//!   re-solve the LP for every certificate inside
//!   [`geom::Arrangement::insert`] and assert it, which makes the whole
//!   debug test suite a differential test; and the
//!   `certificate_agrees_with_lp` proptest in
//!   `crates/geom/tests/certificates.rs` checks certificates and vertex
//!   lists against the LP in release (CI job `arrangement-cert-fuzz`,
//!   256 cases).
//! * **Timings never enter the deterministic wire format.** Query
//!   phase timings ([`core::obs::PhaseTimings`], carried on
//!   [`Stats::timings`](core::stats::Stats)) are scheduling- and
//!   hardware-dependent, so — exactly like `stolen_tasks` and
//!   `dataset_epoch` — they are excluded from every wire line; they
//!   leave the process only through the server's `metrics` op and the
//!   slow-query log. Enforced by the lint's `wall-clock` rule (no
//!   `Instant::now()`/`SystemTime::now()` in wire-feeding modules —
//!   all timing flows through the injectable [`core::obs::Clock`],
//!   whose one blessed ambient read is
//!   [`core::obs::MonotonicClock`]), by `tests/wire_golden.rs`
//!   pinning response bytes, and by `tests/metrics_golden.rs`
//!   asserting the `metrics` exposition is byte-stable under a frozen
//!   [`core::obs::TestClock`] while the wire lines stay
//!   timing-free.
//! * **No `unsafe`.** The audit accompanying the lint found zero
//!   `unsafe` blocks workspace-wide; every crate now declares
//!   `#![forbid(unsafe_code)]`, and the lint's `safety-comment` rule
//!   requires a `// SAFETY:` comment on any future block (in crates
//!   that deliberately relax the forbid).
//!
//! ## Command line
//!
//! The `utk` binary answers the same queries over CSV files, with
//! `--algo` to pick the algorithm, `--json` for machine-readable
//! output (errors included: under `--json`, usage and query failures
//! become `{"error":…}` objects on stdout), `--parallel`/`--threads`
//! for the worker pool, a `batch` command that streams a query file
//! through [`run_many`](core::engine::UtkEngine::run_many) — one
//! JSON line per query, in input order — and the `serve`/`client`
//! pair above; see `utk help`.

#![warn(missing_docs)]
// The 2026 unsafe audit found zero unsafe blocks workspace-wide;
// keep it that way. Any future unsafe must demote this to deny,
// carry a `// SAFETY:` comment (utk-lint enforces it), and say why
// no safe formulation works.
#![forbid(unsafe_code)]

pub use utk_core as core;
pub use utk_data as data;
pub use utk_geom as geom;
pub use utk_rtree as rtree;
pub use utk_server as server;

pub mod report;
pub mod wire;

/// Common imports: the engine API (including batched `run_many` and
/// the worker-pool types behind `.parallel(true)`), the legacy free
/// functions, and regions.
pub mod prelude {
    pub use utk_core::baseline::{baseline_utk1, baseline_utk2, FilterKind};
    pub use utk_core::cache::ByteLru;
    pub use utk_core::engine::{
        Algo, DatasetSnapshot, QueryKind, QueryResult, TopKResult, UpdateReport, UtkEngine,
        UtkQuery,
    };
    pub use utk_core::error::UtkError;
    pub use utk_core::jaa::{jaa, jaa_parallel, jaa_with_tree, JaaOptions, Utk2Cell, Utk2Result};
    pub use utk_core::parallel::{rsa_parallel, rsa_parallel_with_tree, TaskSet, ThreadPool};
    pub use utk_core::rdominance::ScreenKernel;
    pub use utk_core::rsa::{rsa, rsa_with_tree, RsaOptions, Utk1Result};
    pub use utk_core::scoring::GeneralScoring;
    pub use utk_core::skyband::{
        k_skyband, r_skyband, rejected_by_members, CandidateSet, Source, TreeView,
    };
    pub use utk_core::stats::Stats;
    pub use utk_data::Dataset;
    pub use utk_geom::{PointStore, PointStoreBuilder, Region};
    pub use utk_rtree::RTree;
}
