//! Exact processing of uncertain top-k queries (UTK) in multi-criteria
//! settings — a Rust implementation of Mouratidis & Tang, PVLDB 11(8),
//! VLDB 2018.
//!
//! Given a dataset of `d`-dimensional records, a value `k`, and a
//! convex region `R` of the preference domain (approximate user
//! preferences), the **uncertain top-k query** comes in two versions:
//!
//! * **UTK1** — the minimal set of records appearing in the top-k set
//!   for at least one weight vector in `R`;
//! * **UTK2** — the partitioning of `R` into cells, each labelled with
//!   its exact top-k set.
//!
//! # Quick start: the engine
//!
//! [`engine::UtkEngine`] is the public entry point: it owns the
//! dataset, builds the R-tree once, memoizes the per-`(k, R)`
//! r-skyband state, and answers queries described by the
//! [`engine::UtkQuery`] builder with typed results and
//! [`error::UtkError`] errors instead of panics.
//!
//! ```
//! use utk_core::prelude::*;
//!
//! // Figure 1 of the paper: 7 hotels, k = 2,
//! // R = [0.05, 0.45] × [0.05, 0.25].
//! let hotels = vec![
//!     vec![8.3, 9.1, 7.2], vec![2.4, 9.6, 8.6], vec![5.4, 1.6, 4.1],
//!     vec![2.6, 6.9, 9.4], vec![7.3, 3.1, 2.4], vec![7.9, 6.4, 6.6],
//!     vec![8.6, 7.1, 4.3],
//! ];
//! let engine = UtkEngine::new(hotels)?;
//! let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
//!
//! // UTK1: {p1, p2, p4, p6} can enter the top-2 somewhere in R.
//! let utk1 = engine.run(&UtkQuery::utk1(2).region(region.clone()))?;
//! assert_eq!(utk1.records(), &[0, 1, 3, 5]);
//!
//! // UTK2 reuses the engine's memoized r-skyband for the same (k, R).
//! let utk2 = engine.run(&UtkQuery::utk2(2).region(region))?;
//! assert_eq!(utk2.records(), utk1.records());
//! assert_eq!(utk2.stats().filter_cache_hits, 1);
//! # Ok::<(), utk_core::UtkError>(())
//! ```
//!
//! The pre-engine free functions ([`rsa::rsa`], [`jaa::jaa`],
//! [`baseline::baseline_utk1`], …) remain as thin wrappers over the
//! same machinery for existing call sites; they rebuild all state per
//! call and panic on malformed input.
//!
//! # Paper map
//!
//! | module | paper section |
//! |---|---|
//! | [`engine`] | unified query API (extension beyond the paper) |
//! | [`error`] | typed query errors (extension beyond the paper) |
//! | [`rdominance`] | Definition 1 (r-dominance) |
//! | [`skyband`] | §2 BBS k-skyband, §4.1 r-skyband filtering |
//! | [`graph`] | §4.1 r-dominance graph `G` |
//! | [`drill`] | §4.3 drill optimization (graph top-k) |
//! | [`rsa`](mod@rsa) | §4 RSA algorithm (UTK1) |
//! | [`jaa`](mod@jaa) | §5 JAA algorithm (UTK2) |
//! | [`scoring`] | §6 generalized scoring functions |
//! | [`parallel`] | work-stealing pool, parallel RSA/JAA (extension beyond the paper) |
//! | [`obs`] | §6 wall-clock measurement substrate (extension beyond the paper) |
//! | [`onion`] | §3.3 onion layers (filter of the ON baseline) |
//! | [`kspr`] | §3.3 kSPR building block \[45\] |
//! | [`baseline`] | §3.3 SK and ON baselines |
//! | [`oracle`] | §3.2 exact `d = 2` sweep (ground truth for tests) |

#![warn(missing_docs)]
// The 2026 unsafe audit found zero unsafe blocks workspace-wide;
// keep it that way. Any future unsafe must demote this to deny,
// carry a `// SAFETY:` comment (utk-lint enforces it), and say why
// no safe formulation works.
#![forbid(unsafe_code)]

pub mod baseline;
pub mod cache;
pub mod drill;
pub mod engine;
pub mod error;
pub mod graph;
pub mod jaa;
pub mod kspr;
pub mod obs;
pub mod onion;
pub mod oracle;
pub mod parallel;
pub mod rdominance;
pub mod rsa;
pub mod scoring;
pub mod skyband;
pub mod stats;
pub mod topk;
pub mod wire;

/// One-stop imports for typical use: the engine API, the legacy free
/// functions, and the shared substrate types.
pub mod prelude {
    pub use crate::baseline::{baseline_utk1, baseline_utk2, FilterKind};
    pub use crate::cache::ByteLru;
    pub use crate::engine::{Algo, QueryKind, QueryResult, TopKResult, UtkEngine, UtkQuery};
    pub use crate::error::UtkError;
    pub use crate::jaa::{jaa, jaa_parallel, jaa_with_tree, JaaOptions, Utk2Cell, Utk2Result};
    pub use crate::obs::{
        Clock, Histogram, MetricsRegistry, MonotonicClock, Phase, PhaseTimings, TestClock,
    };
    pub use crate::parallel::{rsa_parallel, rsa_parallel_with_tree, TaskSet, ThreadPool};
    pub use crate::rdominance::ScreenKernel;
    pub use crate::rsa::{rsa, rsa_with_tree, RsaOptions, Utk1Result};
    pub use crate::scoring::GeneralScoring;
    pub use crate::skyband::{k_skyband, r_skyband, CandidateSet, Source};
    pub use crate::stats::Stats;
    pub use utk_geom::{PointStore, PointStoreBuilder, Region};
}

pub use prelude::*;
