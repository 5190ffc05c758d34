//! `utk-server` — the multi-dataset serving subsystem: a long-running
//! process holding one [`UtkEngine`](utk_core::engine::UtkEngine) per
//! dataset behind a TCP or Unix socket, speaking a newline-delimited
//! JSON protocol that reuses the `utk::wire` result format.
//!
//! The pieces, bottom-up:
//!
//! * [`json`] — a minimal, byte-round-trip-faithful JSON reader (the
//!   workspace vendors no `serde`);
//! * [`proto`] — the typed request/response protocol
//!   (`load` / `query` / `batch` / `update` / `stats` / `metrics` /
//!   `evict` / `shutdown`) with its grammar documented on the module;
//! * [`spec`] — the `utk batch` query-line syntax, moved here from
//!   the CLI so both parse identically and server `batch` output is
//!   **byte-identical** to `utk batch`;
//! * [`registry`] — lazily loaded engines under one shared
//!   filter-cache byte budget, dealt proportionally to dataset size
//!   and re-dealt on load/evict and on every `update` (mutations
//!   change dataset sizes); `update` mutates the resident engine and
//!   its CSV payload in memory only — evict-then-reload reverts to
//!   disk;
//! * [`server`] — the serving front end: a readiness-driven reactor
//!   (one event-loop thread, non-blocking sockets, per-connection
//!   state machines, admitted work on a bounded executor pool) with
//!   queries on the engines' work-stealing pools, bounded in-flight
//!   **admission control** (overload is shed with a typed `busy`
//!   error, never queued unboundedly), and graceful drain on
//!   shutdown; `batch` output is byte-identical to `utk batch`;
//! * [`client`] — the blocking protocol client behind `utk client`.
//!
//! ```no_run
//! use utk_server::server::{Bind, Server, ServerConfig};
//!
//! let config = ServerConfig::new(Bind::Tcp(0), "datasets/".into());
//! let server = Server::bind(config)?;
//! println!("listening on {}", server.bind_addr());
//! let final_stats = server.run()?; // blocks until a shutdown request
//! println!("served {} requests", final_stats.requests_served);
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
// The 2026 unsafe audit found zero unsafe blocks workspace-wide;
// keep it that way. Any future unsafe must demote this to deny,
// carry a `// SAFETY:` comment (utk-lint enforces it), and say why
// no safe formulation works.
#![forbid(unsafe_code)]

pub mod client;
pub(crate) mod conn;
pub mod json;
pub mod proto;
pub(crate) mod reactor;
pub mod registry;
pub mod server;
pub mod spec;

pub use client::{BatchReply, Connection};
pub use proto::{MetricsFormat, ProtoError, Request, Response, StatsBody, WalDatasetStats};
pub use registry::{DatasetRegistry, LoadedDataset};
pub use server::{Bind, ServeSnapshot, Server, ServerConfig, ServerHandle};
