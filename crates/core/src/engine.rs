//! The unified query engine: build the expensive per-dataset state
//! once, answer many queries against it.
//!
//! The paper's framework shares one substrate across all its
//! algorithms — the R-tree over the dataset, and per `(k, R)` the
//! r-skyband candidate set with its r-dominance graph (§4.1). The
//! legacy free functions (`rsa`, `jaa`, `baseline_utk1`, …) rebuild
//! all of it on every call; [`UtkEngine`] owns it instead:
//!
//! * the dataset and its R-tree are built **once**, at engine
//!   construction;
//! * the r-skyband + graph of each `(k, R)` pair is **memoized** in a
//!   byte-budgeted LRU cache ([`crate::cache::ByteLru`]), so repeating
//!   a region with a different algorithm, or re-running a query, skips
//!   the filtering phase entirely; on an exact miss, a cached
//!   *containing* region's candidate set is re-screened into the exact
//!   answer (superset reuse) instead of re-running BBS over the tree;
//! * generalized-scoring transforms (§6) of the dataset, and their
//!   R-trees, are memoized the same way;
//! * a persistent work-stealing [`ThreadPool`] is built lazily for
//!   parallel queries ([`UtkQuery::parallel`]) and batches
//!   ([`UtkEngine::run_many`]) — never one per query.
//!
//! Queries are described by the [`UtkQuery`] builder and return a
//! typed [`QueryResult`] carrying [`Stats`]; every entry point returns
//! `Result<_, UtkError>` — malformed input (wrong dimensionality, NaN,
//! `k = 0`, empty region) is reported, never panicked on.
//!
//! ```
//! use utk_core::engine::{Algo, QueryResult, UtkEngine, UtkQuery};
//! use utk_geom::Region;
//!
//! // Figure 1 of the paper: 7 hotels, k = 2.
//! let hotels = vec![
//!     vec![8.3, 9.1, 7.2], vec![2.4, 9.6, 8.6], vec![5.4, 1.6, 4.1],
//!     vec![2.6, 6.9, 9.4], vec![7.3, 3.1, 2.4], vec![7.9, 6.4, 6.6],
//!     vec![8.6, 7.1, 4.3],
//! ];
//! let engine = UtkEngine::new(hotels)?;
//! let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
//!
//! // UTK1: which hotels can make the top-2 at all?
//! let utk1 = engine.run(&UtkQuery::utk1(2).region(region.clone()))?;
//! assert_eq!(utk1.records(), &[0, 1, 3, 5]);
//!
//! // UTK2 over the same region reuses the memoized r-skyband.
//! let utk2 = engine.run(&UtkQuery::utk2(2).region(region))?;
//! assert_eq!(utk2.records(), &[0, 1, 3, 5]);
//! assert_eq!(utk2.stats().filter_cache_hits, 1);
//! # Ok::<(), utk_core::UtkError>(())
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::baseline::{baseline_utk1, FilterKind};
use crate::cache::ByteLru;
use crate::error::UtkError;
use crate::jaa::{jaa_parallel_refine, jaa_refine, records_of, JaaOptions, Utk2Cell, Utk2Result};
use crate::obs::{self, Clock, MonotonicClock, Phase, PhaseTimings};
use crate::parallel::{TaskSet, ThreadPool};
use crate::rdominance::ScreenKernel;
use crate::rsa::{rsa_refine, RsaOptions, Utk1Result};
use crate::scoring::GeneralScoring;
use crate::skyband::{
    r_skyband, rejected_by_members, top_k_tree, CandidateSet, Source, TreeView, TOMBSTONE,
};
use crate::stats::Stats;
use utk_geom::tol::INTERIOR_EPS;
use utk_geom::{PointStore, Region};
use utk_rtree::RTree;

/// Default byte budget of the r-skyband filter cache (payload bytes
/// of the cached [`CandidateSet`]s plus their region keys).
pub const DEFAULT_FILTER_CACHE_BUDGET: usize = 64 << 20;
/// Default byte budget of the transformed-dataset (generalized
/// scoring) cache — entries are full dataset copies plus an R-tree,
/// so the budget is wider.
pub const DEFAULT_SCORING_CACHE_BUDGET: usize = 256 << 20;

/// When the R-tree overlay's corrections (tombstoned base records
/// plus appended records) exceed this fraction of the live dataset, a
/// mutation rebuilds the tree instead of growing the overlay. Results
/// are exact either way (see [`TreeView`]); the threshold only bounds
/// the traversal overhead of reading through stale geometry.
const OVERLAY_REBUILD_NUM: usize = 1;
const OVERLAY_REBUILD_DEN: usize = 2;

/// Which processing algorithm answers the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// Pick per query kind: RSA for UTK1, JAA for UTK2.
    Auto,
    /// The r-skyband algorithm (§4). UTK1 only.
    Rsa,
    /// The joint-arrangement algorithm (§5). Answers UTK2, and UTK1
    /// via the partition union.
    Jaa,
    /// The SK baseline (§3.3): k-skyband filter + kSPR. UTK1 only.
    Sk,
    /// The ON baseline (§3.3): onion-layers filter + kSPR. UTK1 only.
    On,
}

impl Algo {
    /// The concrete algorithm [`Algo::Auto`] resolves to for `kind`
    /// (RSA for UTK1, JAA for UTK2); non-`Auto` values pass through.
    pub fn resolved_for(self, kind: QueryKind) -> Algo {
        match (self, kind) {
            (Algo::Auto, QueryKind::Utk1) => Algo::Rsa,
            (Algo::Auto, QueryKind::Utk2) => Algo::Jaa,
            (a, _) => a,
        }
    }

    /// Display label (`auto`, `rsa`, `jaa`, `sk`, `on`).
    pub fn label(self) -> &'static str {
        match self {
            Algo::Auto => "auto",
            Algo::Rsa => "rsa",
            Algo::Jaa => "jaa",
            Algo::Sk => "sk",
            Algo::On => "on",
        }
    }
}

impl std::str::FromStr for Algo {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s.to_ascii_lowercase().as_str() {
            "auto" => Ok(Algo::Auto),
            "rsa" => Ok(Algo::Rsa),
            "jaa" => Ok(Algo::Jaa),
            "sk" => Ok(Algo::Sk),
            "on" => Ok(Algo::On),
            other => Err(format!(
                "unknown algorithm {other:?} (expected auto, rsa, jaa, sk or on)"
            )),
        }
    }
}

/// The three query kinds the engine answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// UTK1: the minimal set of possible top-k records over `R`.
    Utk1,
    /// UTK2: the partitioning of `R` by exact top-k set.
    Utk2,
    /// Plain top-k at one weight vector (for comparison workloads).
    TopK,
}

impl QueryKind {
    /// Display label (`utk1`, `utk2`, `topk`).
    pub fn label(self) -> &'static str {
        match self {
            QueryKind::Utk1 => "utk1",
            QueryKind::Utk2 => "utk2",
            QueryKind::TopK => "topk",
        }
    }
}

/// A query description, built fluently and handed to
/// [`UtkEngine::run`].
///
/// ```
/// use utk_core::engine::{Algo, UtkQuery};
/// use utk_geom::Region;
///
/// let query = UtkQuery::utk1(10)
///     .region(Region::hyperrect(vec![0.2, 0.2], vec![0.3, 0.3]))
///     .algorithm(Algo::Auto)
///     .parallel(true);
/// ```
#[derive(Debug, Clone)]
pub struct UtkQuery {
    kind: QueryKind,
    k: usize,
    region: Option<Region>,
    weights: Option<Vec<f64>>,
    algo: Algo,
    parallel: bool,
    threads: usize,
    scoring: Option<GeneralScoring>,
    rsa_options: RsaOptions,
    jaa_options: JaaOptions,
}

impl UtkQuery {
    fn new(kind: QueryKind, k: usize) -> Self {
        Self {
            kind,
            k,
            region: None,
            weights: None,
            algo: Algo::Auto,
            parallel: false,
            threads: 0,
            scoring: None,
            rsa_options: RsaOptions::default(),
            jaa_options: JaaOptions::default(),
        }
    }

    /// A UTK1 query: the minimal set of records appearing in some
    /// top-`k` over the region (set with [`UtkQuery::region`]).
    pub fn utk1(k: usize) -> Self {
        Self::new(QueryKind::Utk1, k)
    }

    /// A UTK2 query: the partitioning of the region (set with
    /// [`UtkQuery::region`]) into cells labelled with exact top-`k`
    /// sets.
    pub fn utk2(k: usize) -> Self {
        Self::new(QueryKind::Utk2, k)
    }

    /// A plain top-`k` query at one weight vector (set with
    /// [`UtkQuery::weights`]).
    pub fn topk(k: usize) -> Self {
        Self::new(QueryKind::TopK, k)
    }

    /// The uncertainty region `R` of the preference domain (required
    /// for UTK1/UTK2).
    pub fn region(mut self, region: Region) -> Self {
        self.region = Some(region);
        self
    }

    /// The weight vector for top-k queries: either the reduced `d − 1`
    /// preference-domain form, or all `d` weights (the implied last
    /// weight is dropped, §3.1).
    pub fn weights(mut self, weights: Vec<f64>) -> Self {
        self.weights = Some(weights);
        self
    }

    /// Selects the processing algorithm (default [`Algo::Auto`]).
    pub fn algorithm(mut self, algo: Algo) -> Self {
        self.algo = algo;
        self
    }

    /// Fans refinement out over the engine's worker pool: RSA verifies
    /// candidates concurrently (UTK1) and JAA work-steals partition
    /// tasks (UTK2), with output identical to the sequential runs.
    /// The baselines stay sequential. Defaults to off.
    pub fn parallel(mut self, parallel: bool) -> Self {
        self.parallel = parallel;
        self
    }

    /// Worker thread count. Engine queries run on the engine's
    /// persistent pool, sized once via
    /// [`UtkEngine::with_pool_threads`] — a per-query count has no
    /// effect there, which is why this builder is deprecated rather
    /// than silently honored sometimes.
    #[deprecated(
        since = "0.1.0",
        note = "engine queries run on the engine's persistent pool; \
                size it with UtkEngine::with_pool_threads instead"
    )]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Generalized scoring (§6): the dataset is transformed through
    /// the monotone per-attribute functions and the query runs on the
    /// transformed data. The engine memoizes the transform.
    pub fn scoring(mut self, scoring: GeneralScoring) -> Self {
        self.scoring = Some(scoring);
        self
    }

    /// Tuning/ablation switches for RSA.
    pub fn rsa_options(mut self, opts: RsaOptions) -> Self {
        self.rsa_options = opts;
        self
    }

    /// Tuning/ablation switches for JAA.
    pub fn jaa_options(mut self, opts: JaaOptions) -> Self {
        self.jaa_options = opts;
        self
    }

    /// The query kind.
    pub fn kind(&self) -> QueryKind {
        self.kind
    }

    /// The rank bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    fn pivot_order(&self) -> bool {
        match self.kind {
            QueryKind::Utk2 => self.jaa_options.pivot_order,
            _ => self.rsa_options.pivot_order,
        }
    }
}

/// Output of a plain top-k query.
#[derive(Debug, Clone)]
pub struct TopKResult {
    /// The top-k record ids, in descending score order (ties toward
    /// the smaller id).
    pub records: Vec<u32>,
    /// Work counters.
    pub stats: Stats,
}

/// The typed result of [`UtkEngine::run`], one variant per
/// [`QueryKind`].
#[derive(Debug, Clone)]
pub enum QueryResult {
    /// A UTK1 answer.
    Utk1(Utk1Result),
    /// A UTK2 answer.
    Utk2(Utk2Result),
    /// A plain top-k answer.
    TopK(TopKResult),
}

impl QueryResult {
    /// The answer's record ids: the UTK1 set, the union over UTK2
    /// cells, or the ranked top-k.
    pub fn records(&self) -> &[u32] {
        match self {
            QueryResult::Utk1(r) => &r.records,
            QueryResult::Utk2(r) => &r.records,
            QueryResult::TopK(r) => &r.records,
        }
    }

    /// Work counters of this query.
    pub fn stats(&self) -> &Stats {
        match self {
            QueryResult::Utk1(r) => &r.stats,
            QueryResult::Utk2(r) => &r.stats,
            QueryResult::TopK(r) => &r.stats,
        }
    }

    fn stats_mut(&mut self) -> &mut Stats {
        match self {
            QueryResult::Utk1(r) => &mut r.stats,
            QueryResult::Utk2(r) => &mut r.stats,
            QueryResult::TopK(r) => &mut r.stats,
        }
    }

    /// The UTK2 partitioning, when this is a UTK2 result.
    pub fn cells(&self) -> Option<&[Utk2Cell]> {
        match self {
            QueryResult::Utk2(r) => Some(&r.cells),
            _ => None,
        }
    }

    /// This result as UTK1 output, if it is one.
    pub fn as_utk1(&self) -> Option<&Utk1Result> {
        match self {
            QueryResult::Utk1(r) => Some(r),
            _ => None,
        }
    }

    /// This result as UTK2 output, if it is one.
    pub fn as_utk2(&self) -> Option<&Utk2Result> {
        match self {
            QueryResult::Utk2(r) => Some(r),
            _ => None,
        }
    }
}

/// One scoring's view of the dataset: the transformed records, flat
/// (the only copy; the baselines read it through
/// [`Rows`](utk_geom::Rows)), and their R-tree. Tagged with the epoch
/// of the dataset snapshot it was derived from.
#[derive(Debug)]
struct Scored {
    epoch: u64,
    store: PointStore,
    tree: RTree,
}

impl Scored {
    /// Payload bytes for the scoring cache's budget accounting.
    fn approx_bytes(&self) -> usize {
        self.store.approx_bytes() + self.tree.approx_bytes()
    }
}

/// An STR R-tree packed over the records of `store`.
fn pack(store: &PointStore) -> RTree {
    let rows: Vec<&[f64]> = store.iter().collect();
    RTree::bulk_load(&rows)
}

/// The spatial index of one dataset version: a tree packed over
/// exactly the live records, or the last-packed tree read through a
/// tombstone/append overlay (see [`TreeView`]).
#[derive(Debug)]
enum TreeIndex {
    /// Record ids in the tree *are* current dataset ids.
    Packed(Arc<RTree>),
    /// A stale base tree plus corrections accumulated by mutations.
    Overlay {
        /// The tree as last built.
        base: Arc<RTree>,
        /// Base record id → current dataset id ([`TOMBSTONE`] =
        /// deleted); `None` while no delete has happened since the
        /// last rebuild.
        remap: Option<Vec<u32>>,
        /// Current dataset ids appended since the last rebuild.
        extra: Vec<u32>,
        /// A tree packed over the live records, built on demand for
        /// consumers that need plain tree geometry (the SK/ON
        /// baselines, [`DatasetSnapshot::tree`]). Built at most once
        /// per version.
        packed: OnceLock<Arc<RTree>>,
    },
}

/// One immutable version of the engine's dataset. Queries snapshot
/// the current version (an `Arc` clone) and run entirely against it,
/// so a concurrent [`UtkEngine::apply_update`] never tears a query:
/// it swaps in a *new* version while in-flight queries finish on the
/// old one.
#[derive(Debug)]
struct DatasetVersion {
    /// Content version: 0 at construction, +1 per mutation. Keys the
    /// engine caches — an entry is only ever served to queries whose
    /// snapshot has the same epoch.
    epoch: u64,
    /// Live records in id order, flat: the engine's only copy of the
    /// dataset. Shared with [`UtkEngine::compact`]'s repacked version,
    /// which changes the index and nothing else.
    store: Arc<PointStore>,
    /// The spatial index.
    index: TreeIndex,
}

impl DatasetVersion {
    fn packed(epoch: u64, store: Arc<PointStore>, tree: Arc<RTree>) -> Self {
        Self {
            epoch,
            store,
            index: TreeIndex::Packed(tree),
        }
    }

    /// The BBS view of this version's index.
    fn tree_view(&self) -> TreeView<'_> {
        match &self.index {
            TreeIndex::Packed(tree) => TreeView::packed(tree),
            TreeIndex::Overlay {
                base, remap, extra, ..
            } => TreeView::overlay(base, remap.as_deref(), extra),
        }
    }

    /// A tree packed over exactly the live records, building (and
    /// memoizing) one if the index is an overlay.
    fn packed_tree(&self) -> &RTree {
        match &self.index {
            TreeIndex::Packed(tree) => tree,
            TreeIndex::Overlay { packed, .. } => packed.get_or_init(|| Arc::new(pack(&self.store))),
        }
    }
}

/// A read-only view of one dataset version, handed out by
/// [`UtkEngine::snapshot`]. Cheap to clone; keeps its version alive
/// (and its answers coherent) however many mutations happen after it
/// was taken.
#[derive(Debug, Clone)]
pub struct DatasetSnapshot {
    version: Arc<DatasetVersion>,
}

impl DatasetSnapshot {
    /// The records of this version, in id order (flat; read rows with
    /// [`PointStore::point`] or through [`Rows`](utk_geom::Rows)).
    pub fn store(&self) -> &PointStore {
        &self.version.store
    }

    /// An R-tree packed over exactly these records (built on demand
    /// if the live index is an overlay).
    pub fn tree(&self) -> &RTree {
        self.version.packed_tree()
    }

    /// This version's epoch.
    pub fn epoch(&self) -> u64 {
        self.version.epoch
    }

    /// Number of records in this version.
    pub fn len(&self) -> usize {
        self.version.store.len()
    }

    /// Never true: engines never hold an empty dataset.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// What one [`UtkEngine::apply_update`] did — the mutation seam's
/// receipt, surfaced through `utk update`, the serving protocol's
/// `update` op, and the dynamic test oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// The dataset epoch after the mutation (unchanged for a no-op).
    pub epoch: u64,
    /// Live records after the mutation.
    pub n: usize,
    /// Records appended.
    pub inserted: usize,
    /// Records removed.
    pub deleted: usize,
    /// Filter-cache entries whose r-skyband could have changed and
    /// were dropped outright (no splice repair applied).
    pub filter_invalidated: usize,
    /// Filter-cache entries carried into the new epoch — proven
    /// unaffected and re-keyed, or splice-repaired in place. (Repaired
    /// entries count here *and* in [`UpdateReport::filter_repaired`];
    /// only this field is on the wire.)
    pub filter_retained: usize,
    /// Of the retained entries, how many were splice-repaired
    /// (re-screened incrementally) rather than merely re-keyed. Not
    /// part of the wire format.
    pub filter_repaired: usize,
    /// Whether the mutation rebuilt the R-tree (overlay overhead past
    /// the threshold) instead of extending the overlay.
    pub index_rebuilt: bool,
}

/// A validated region's interior, or the shortcut answer when it has
/// none (see [`UtkEngine::interior_or_degenerate`]).
#[derive(Clone)]
enum RegionInterior {
    /// Full-dimensional region: max-slack interior point.
    Full { interior: Vec<f64>, slack: f64 },
    /// Degenerate region: the pivot `w` and the sorted top-k there.
    Degenerate { w: Vec<f64>, top_k: Vec<u32> },
}

/// A query's filter step: its candidate set plus the stats of
/// obtaining it (see [`UtkEngine::candidates`]).
type Filtered = (Arc<CandidateSet>, Stats);

/// What a query's pipeline would compute first, settled ahead of the
/// run by [`UtkEngine::run_many`]: the region's interior (or its
/// degenerate shortcut) and, for a full region, the filter step.
struct Prepared {
    interior: RegionInterior,
    filtered: Option<Filtered>,
}

/// How a batch leader's filter step was served, so the batch's
/// in-order commit can replay its cache effects.
enum FilterOrigin {
    /// An exact cache hit.
    Hit,
    /// Computed cold or re-screened from a superset, for `region`;
    /// `touch` is the key of the superset the re-screen read.
    Miss {
        region: Region,
        touch: Option<FilterKey>,
    },
}

/// A batch group's filter step as its nested groups and the commit
/// see it: the candidate set, its key, and how it was served.
struct StagedFilter {
    key: FilterKey,
    cands: Arc<CandidateSet>,
    origin: FilterOrigin,
}

/// A batch group's shared pre-work: its leader's prepared interior and
/// filter step, handed to every member that needs the same filter.
struct GroupPrep {
    leader: usize,
    data: DataRef,
    interior: RegionInterior,
    filtered: Option<Filtered>,
    timings: PhaseTimings,
}

impl GroupPrep {
    /// The prepared run of batch query `slot`: the leader keeps its
    /// own filter stats and timings; a member reports an exact hit,
    /// its `filter_cache_bytes` set at the commit.
    fn job_for(&self, slot: usize) -> Job {
        let leader = slot == self.leader;
        let filtered = self.filtered.as_ref().map(|(cands, stats)| {
            let stats = if leader {
                stats.clone()
            } else {
                hit_stats(cands, 0)
            };
            (Arc::clone(cands), stats)
        });
        let prepared = Prepared {
            interior: self.interior.clone(),
            filtered,
        };
        let timings = if leader {
            self.timings
        } else {
            PhaseTimings::default()
        };
        (self.data.clone(), prepared, timings)
    }
}

/// A batch query's prepared run: its dataset view, prepared steps and
/// the timings of preparing them.
type Job = (DataRef, Prepared, PhaseTimings);

/// One [`UtkEngine::run_many`] call in flight: its groups, which
/// leaders' regions nest in which, and the slots its tasks fill.
struct Batch {
    engine: UtkEngine,
    queries: Vec<UtkQuery>,
    groups: Vec<Vec<usize>>,
    /// Each query's group.
    group_of: Vec<usize>,
    /// Each group's leader: its first query that shares the filter
    /// step (see [`UtkEngine::shares_filter`]). With the filter cache
    /// off there is nothing to share, and no group has one.
    leaders: Vec<Option<usize>>,
    /// Groups whose leader comes earlier in input order and whose
    /// region contains this group's (same `k` and scoring): the
    /// candidate sets its filter step may re-screen.
    outer: Vec<Vec<usize>>,
    /// The reverse edges: later groups nested in this one.
    nested: Vec<Vec<usize>>,
    /// Outer groups still to stage; a group starts at zero.
    waiting: Vec<AtomicUsize>,
    staged: Vec<Mutex<Option<StagedFilter>>>,
    /// One pre-allocated slot per query keeps answers in input order
    /// however the groups are scheduled.
    results: Vec<Mutex<Option<Result<QueryResult, UtkError>>>>,
}

impl Batch {
    fn new(engine: &UtkEngine, queries: &[UtkQuery], groups: Vec<Vec<usize>>, epoch: u64) -> Self {
        let leaders: Vec<Option<usize>> = groups
            .iter()
            .map(|members| {
                members
                    .iter()
                    .copied()
                    .find(|&i| engine.shares_filter(&queries[i]))
                    .filter(|_| engine.inner.cache_enabled)
            })
            .collect();
        let led: Vec<(usize, usize, FilterKey)> = leaders
            .iter()
            .enumerate()
            .filter_map(|(g, l)| l.map(|i| (g, i, FilterKey::of(&queries[i], epoch))))
            .collect();
        let mut outer = vec![Vec::new(); groups.len()];
        let mut nested = vec![Vec::new(); groups.len()];
        // Pairwise over the leaders, as a one-by-one run's superset
        // probe scans every cached entry on each miss. Only a leader
        // earlier in input order has filtered by the time a one-by-one
        // run reaches this one.
        for (g, i, key) in &led {
            for (h, j, outer_key) in &led {
                if j < i
                    && outer_key.may_contain(key)
                    && matches!(
                        (&queries[*j].region, &queries[*i].region),
                        (Some(a), Some(b)) if a.contains_region(b)
                    )
                {
                    outer[*g].push(*h);
                    nested[*h].push(*g);
                }
            }
        }
        let mut group_of = vec![0; queries.len()];
        for (g, members) in groups.iter().enumerate() {
            for &i in members {
                group_of[i] = g;
            }
        }
        Batch {
            engine: engine.clone(),
            queries: queries.to_vec(),
            group_of,
            waiting: outer.iter().map(|o| AtomicUsize::new(o.len())).collect(),
            staged: groups.iter().map(|_| Mutex::new(None)).collect(),
            results: queries.iter().map(|_| Mutex::new(None)).collect(),
            groups,
            leaders,
            outer,
            nested,
        }
    }

    /// Runs group `g` once its outer groups have staged: stages the
    /// leader's filter step, starts the groups nested in it, then
    /// answers the other members on the pool and the leader here.
    fn run_group(self: &Arc<Self>, tasks: &TaskSet, g: usize) {
        let leader = self.leaders[g];
        let prep = leader.and_then(|leader| self.stage(g, leader));
        for &n in &self.nested[g] {
            if self.waiting[n].fetch_sub(1, Ordering::AcqRel) == 1 {
                let batch = Arc::clone(self);
                let nested_tasks = tasks.clone();
                tasks.spawn(move || batch.run_group(&nested_tasks, n));
            }
        }
        // The leader, or else the first query, answers here.
        let here = leader.unwrap_or(self.groups[g][0]);
        for &slot in self.groups[g].iter().filter(|&&i| i != here) {
            let job = prep
                .as_ref()
                .filter(|_| self.engine.shares_filter(&self.queries[slot]))
                .map(|p| p.job_for(slot));
            let batch = Arc::clone(self);
            tasks.spawn(move || batch.answer(slot, job));
        }
        self.answer(here, prep.map(|p| p.job_for(here)));
    }

    /// Group `g`'s leader's interior and filter step, read against the
    /// filter cache without changing it: an exact hit, else a
    /// re-screen of the smallest containing candidate set — cached, or
    /// an outer group's — else a cold BBS. Files the filter step for
    /// the nested groups and the commit, and returns what the group's
    /// queries share; `None` when the leader fails before its filter
    /// step.
    fn stage(&self, g: usize, leader: usize) -> Option<GroupPrep> {
        let engine = &self.engine;
        let query = &self.queries[leader];
        let region = engine.checked_region(query).ok()?;
        let data = engine.data_for(query.scoring.as_ref()).ok()?;
        let key = FilterKey::of(query, data.epoch());
        let (staged, timings) = obs::trace(&engine.inner.clock, || {
            let interior = engine.interior_or_degenerate(&data, region, query.k).ok()?;
            if matches!(interior, RegionInterior::Degenerate { .. }) {
                return Some((interior, None));
            }
            let cached = {
                let cache = engine.inner.filter_cache.lock().expect("cache lock");
                if let Some(hit) = cache.peek(&key) {
                    let cands = Arc::clone(&hit.cands);
                    let stats = hit_stats(&cands, 0);
                    return Some((interior, Some((cands, stats, FilterOrigin::Hit))));
                }
                cached_superset(&cache, &key, region)
            };
            // The choice `candidates` makes, over the cache and the
            // outer groups, which have all staged by now.
            let outer = self.outer[g].iter().filter_map(|&h| {
                let staged = self.staged[h].lock().expect("batch stage slot");
                let s = staged.as_ref().filter(|s| s.key.epoch == key.epoch)?;
                Some((s.key.clone(), Arc::clone(&s.cands)))
            });
            let best = cached
                .into_iter()
                .chain(outer)
                .min_by(|(a, a_cands), (b, b_cands)| {
                    (a_cands.len(), &a.region).cmp(&(b_cands.len(), &b.region))
                });
            let superset = best.as_ref().map(|(_, sup)| &**sup);
            let mut stats = Stats::new();
            let cands = engine.filter_from(&data, region, query, superset, &mut stats);
            let origin = FilterOrigin::Miss {
                region: region.clone(),
                touch: best.map(|(ck, _)| ck),
            };
            Some((interior, Some((cands, stats, origin))))
        });
        let (interior, filter) = staged?;
        let filtered = filter.map(|(cands, stats, origin)| {
            let kept = StagedFilter {
                key,
                cands: Arc::clone(&cands),
                origin,
            };
            *self.staged[g].lock().expect("batch stage slot") = Some(kept);
            (cands, stats)
        });
        Some(GroupPrep {
            leader,
            data,
            interior,
            filtered,
            timings,
        })
    }

    fn answer(&self, slot: usize, job: Option<Job>) {
        let query = &self.queries[slot];
        let result = match job {
            Some((data, prepared, timings)) => {
                self.engine.run_prepared(query, &data, prepared, &timings)
            }
            None => self.engine.run(query),
        };
        *self.results[slot].lock().expect("batch result slot") = Some(result);
    }

    /// After every task: replays the batch's cache effects in input
    /// order, as the queries' own runs would have them one after
    /// another — each leader's filter step written (or its hit
    /// touched), each member's hit touched — and completes the stats
    /// that depend on them: `filter_cache_bytes`, and a leader's
    /// `evictions`.
    fn commit(&self) {
        let engine = &self.engine.inner;
        let staged: Vec<Option<StagedFilter>> = self
            .staged
            .iter()
            .map(|slot| slot.lock().expect("batch stage slot").take())
            .collect();
        for (slot, &g) in self.group_of.iter().enumerate() {
            let Some(filter) = &staged[g] else { continue };
            if !self.engine.shares_filter(&self.queries[slot]) {
                continue;
            }
            let (evictions, bytes) = match &filter.origin {
                FilterOrigin::Miss { region, touch } if Some(slot) == self.leaders[g] => {
                    let key = filter.key.clone();
                    self.engine
                        .commit_filter(key, region, &filter.cands, touch.as_ref())
                }
                _ => {
                    engine.filter_hits.fetch_add(1, Ordering::Relaxed);
                    let mut cache = engine.filter_cache.lock().expect("cache lock");
                    cache.touch(&filter.key);
                    (0, cache.bytes_used())
                }
            };
            let mut result = self.results[slot].lock().expect("batch result slot");
            if let Some(Ok(result)) = result.as_mut() {
                let stats = result.stats_mut();
                stats.filter_cache_bytes = bytes;
                stats.evictions = evictions;
            }
        }
    }

    fn take_results(&self) -> Vec<Result<QueryResult, UtkError>> {
        self.results
            .iter()
            .map(|slot| {
                slot.lock()
                    .expect("batch result slot")
                    .take()
                    // utk-lint: allow(panic) -- invariant: wait() returns only after every task stored its slot
                    .expect("every batch slot is filled before wait() returns")
            })
            .collect()
    }
}

/// The smallest cached candidate set that may serve `key` (see
/// [`FilterKey::may_contain`]) and whose region contains `region`,
/// with its key.
fn cached_superset(
    cache: &ByteLru<FilterKey, FilterEntry>,
    key: &FilterKey,
    region: &Region,
) -> Option<(FilterKey, Arc<CandidateSet>)> {
    cache
        .scan()
        .filter(|(ck, entry)| ck.may_contain(key) && entry.region.contains_region(region))
        // Smallest candidate set re-screens cheapest; the fingerprint
        // tie-break keeps the choice deterministic under HashMap
        // iteration order.
        .min_by_key(|(ck, entry)| (entry.cands.len(), ck.region.clone()))
        .map(|(ck, entry)| (ck.clone(), Arc::clone(&entry.cands)))
}

/// Renumbers a cached candidate set's ids through a mutation's
/// `shift` (old id → new id), in place unless an in-flight query still
/// holds the set: its points and graph are indexed by candidate
/// position, not by id, so nothing else changes.
fn renumber(cands: &mut Arc<CandidateSet>, shift: &[u32]) {
    for id in &mut Arc::make_mut(cands).ids {
        *id = shift[*id as usize];
    }
}

/// The filter stats of an exact cache hit on `cands`.
fn hit_stats(cands: &CandidateSet, filter_cache_bytes: usize) -> Stats {
    let mut stats = Stats::new();
    stats.filter_cache_hits = 1;
    stats.candidates = cands.len();
    stats.filter_cache_bytes = filter_cache_bytes;
    stats
}

/// Snapshot-or-transformed access to a query's dataset view. Either
/// way the view is immutable and epoch-tagged: a query runs start to
/// finish against one dataset version.
#[derive(Clone)]
enum DataRef {
    Snapshot(Arc<DatasetVersion>),
    Transformed(Arc<Scored>),
}

impl DataRef {
    /// The records of the (possibly transformed) dataset, flat.
    fn store(&self) -> &PointStore {
        match self {
            DataRef::Snapshot(v) => &v.store,
            DataRef::Transformed(s) => &s.store,
        }
    }

    /// The BBS view of the index (overlay-aware for the base data;
    /// transformed datasets always carry a freshly packed tree).
    fn tree_view(&self) -> TreeView<'_> {
        match self {
            DataRef::Snapshot(v) => v.tree_view(),
            DataRef::Transformed(s) => TreeView::packed(&s.tree),
        }
    }

    /// A plain packed tree (the SK/ON baselines' input).
    fn packed_tree(&self) -> &RTree {
        match self {
            DataRef::Snapshot(v) => v.packed_tree(),
            DataRef::Transformed(s) => &s.tree,
        }
    }

    /// The epoch of the underlying dataset version.
    fn epoch(&self) -> u64 {
        match self {
            DataRef::Snapshot(v) => v.epoch,
            DataRef::Transformed(s) => s.epoch,
        }
    }
}

/// Identity of a memoized r-skyband: everything the filter output
/// depends on — including the dataset epoch, so an entry computed
/// before a mutation can never answer a query running after it (and
/// vice versa: an in-flight query on an old snapshot that completes
/// a miss after the swap inserts under its *own* epoch, where current
/// queries never look). Region geometry is keyed on the exact bit
/// patterns of its constraints.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct FilterKey {
    epoch: u64,
    k: usize,
    pivot_order: bool,
    scoring: ScoringKey,
    region: Vec<u64>,
}

impl FilterKey {
    /// The filter identity of a query at dataset `epoch`: everything
    /// its r-skyband output depends on. Shared by the cache lookup
    /// and `run_many`'s grouping so "same group" always means "same
    /// cache entry".
    fn of(query: &UtkQuery, epoch: u64) -> Self {
        FilterKey {
            epoch,
            k: query.k,
            pivot_order: query.pivot_order(),
            // An all-identity scoring computes exactly what no scoring
            // does: normalize both to the empty key so they share
            // entries.
            scoring: query
                .scoring
                .as_ref()
                .filter(|s| !s.is_identity())
                .map(|s| s.fingerprint())
                .unwrap_or_default(),
            region: query
                .region
                .as_ref()
                .map(region_fingerprint)
                .unwrap_or_default(),
        }
    }

    /// Whether this entry's candidate set may serve `other` by
    /// superset re-screen, region containment aside: same epoch, `k`
    /// and scoring, and both under the pivot heap key — the re-screen
    /// reproduces cold pop order from pivot scores, which the sum-key
    /// ablation does not bound.
    fn may_contain(&self, other: &FilterKey) -> bool {
        self.epoch == other.epoch
            && self.k == other.k
            && self.pivot_order
            && other.pivot_order
            && self.scoring == other.scoring
    }
}

/// Identity of a memoized scoring transform (empty = plain linear).
type ScoringKey = Vec<(u8, u64)>;

fn region_fingerprint(region: &Region) -> Vec<u64> {
    let mut bits = Vec::with_capacity(1 + region.constraints().len() * (region.dim() + 1));
    bits.push(region.dim() as u64);
    for c in region.constraints() {
        for &a in &c.a {
            bits.push(a.to_bits());
        }
        bits.push(c.b.to_bits());
    }
    bits
}

/// Validates a query region against the preference domain: correct
/// dimensionality, finite, feasible, and inside `{w ≥ 0, Σ w ≤ 1}`
/// (§3.1). Shared with the legacy entry points, which panic on the
/// error it returns.
pub(crate) fn check_region(region: &Region, dp: usize) -> Result<(), UtkError> {
    if region.dim() != dp {
        return Err(UtkError::DimensionMismatch {
            what: "query region (d − 1 preference-domain coordinates)",
            expected: dp,
            got: region.dim(),
        });
    }
    for c in region.constraints() {
        if !c.b.is_finite() || c.a.iter().any(|a| !a.is_finite()) {
            return Err(UtkError::NonFiniteInput {
                what: "query region",
            });
        }
    }
    let ones = vec![1.0; dp];
    let Some((_, max)) = region.linear_range(&ones, 0.0) else {
        return Err(UtkError::EmptyRegion);
    };
    if max > 1.0 + 1e-9 {
        return Err(UtkError::RegionOutsideDomain {
            detail: format!("weights sum up to {max:.6} > 1 inside the region"),
        });
    }
    for i in 0..dp {
        let mut e = vec![0.0; dp];
        e[i] = 1.0;
        let Some((min, _)) = region.linear_range(&e, 0.0) else {
            return Err(UtkError::EmptyRegion);
        };
        if min < -1e-9 {
            return Err(UtkError::RegionOutsideDomain {
                detail: format!("weight {i} reaches {min:.6} < 0 inside the region"),
            });
        }
    }
    Ok(())
}

/// One filter-cache payload: the candidate set plus the region it was
/// filtered for (the geometry the superset-containment probe tests).
#[derive(Debug, Clone)]
struct FilterEntry {
    region: Region,
    cands: Arc<CandidateSet>,
}

impl FilterEntry {
    fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.region.approx_bytes() + self.cands.approx_bytes()
    }
}

/// The engine's shared state: one allocation behind the [`UtkEngine`]
/// handle, so clones of the handle (and [`UtkEngine::run_many`] batch
/// jobs on the worker pool) all serve the same dataset, caches and
/// pool.
#[derive(Debug)]
struct EngineInner {
    /// The current dataset version. Queries take a read lock just
    /// long enough to clone the `Arc`; mutations take the write lock
    /// only to swap in the next version atomically with the cache
    /// re-key — the expensive version *construction* happens outside
    /// it, under [`EngineInner::mutation`].
    data: RwLock<Arc<DatasetVersion>>,
    /// Serializes mutators ([`UtkEngine::apply_update`],
    /// [`UtkEngine::compact`]) so they can build the next version
    /// (the flat store copy, possibly an R-tree bulk load) without
    /// holding the `data` write lock — queries keep snapshotting
    /// freely while a mutation prepares.
    mutation: Mutex<()>,
    /// Dataset dimensionality — invariant across mutations (every
    /// insert is validated against it).
    dim: usize,
    cache_enabled: bool,
    /// Whether a mutation that invalidates a filter-cache entry may
    /// splice-repair it (incremental re-screen) instead of dropping
    /// it. On by default; benchmarks disable it to measure the
    /// drop-and-recompute baseline.
    repair_enabled: bool,
    /// Which dominance kernel the r-skyband screen runs
    /// ([`ScreenKernel::Blocked`] by default). Candidate sets
    /// are byte-identical across kernels; the scalar oracle stays
    /// reachable through [`UtkEngine::without_blocked_kernel`] for the
    /// identity property suite and ablation benches.
    kernel: ScreenKernel,
    filter_cache: Mutex<ByteLru<FilterKey, FilterEntry>>,
    scoring_cache: Mutex<ByteLru<(u64, ScoringKey), Arc<Scored>>>,
    filter_hits: AtomicUsize,
    filter_misses: AtomicUsize,
    /// Filter-cache entries splice-repaired across all mutations.
    filter_repairs: AtomicUsize,
    /// r-dominance tests spent inside splice repairs (the incremental
    /// maintenance cost a drop-and-recompute baseline pays many times
    /// over on the next query).
    repair_screens: AtomicUsize,
    /// Mutations that rebuilt the R-tree (vs extending the overlay).
    index_rebuilds: AtomicUsize,
    /// Cache misses answered by re-screening a containing region's
    /// cached candidate set instead of a full BBS run.
    superset_hits: AtomicUsize,
    /// Requested pool size (0 = one worker per available core);
    /// applied when the pool is first needed.
    pool_threads_cfg: usize,
    /// The persistent worker pool, built lazily on the first parallel
    /// query or batch — sequential engines never spawn threads.
    pool: OnceLock<Arc<ThreadPool>>,
    /// How many pools this engine ever built (regression guard: must
    /// never exceed 1).
    pool_builds: AtomicUsize,
    /// Nanosecond source for the per-query phase tracer
    /// ([`crate::obs`]). [`MonotonicClock`] in production; tests
    /// inject a [`crate::obs::TestClock`] via [`UtkEngine::with_clock`]
    /// for deterministic timing breakdowns. Timings never enter the
    /// wire format, so the clock cannot affect query results.
    clock: Arc<dyn Clock>,
}

/// The build-once / query-many UTK engine. See the [module
/// docs](crate::engine) for the overall picture and an example.
///
/// The engine is `Sync`: one instance can serve queries from many
/// threads, sharing its caches. It is also cheap to `Clone` — clones
/// are handles onto the same dataset, caches and worker pool.
///
/// Parallel queries ([`UtkQuery::parallel`]) and batches
/// ([`UtkEngine::run_many`]) run on a persistent work-stealing
/// [`ThreadPool`] owned by the engine, built lazily on first use and
/// sized by [`UtkEngine::with_pool_threads`] (default: one worker per
/// available core). No engine query ever constructs a pool per query.
#[derive(Debug, Clone)]
pub struct UtkEngine {
    inner: Arc<EngineInner>,
}

impl UtkEngine {
    /// Builds an engine from `points`: validates the dataset and
    /// bulk-loads the R-tree. The engine keeps its own flat copy, so
    /// this is [`UtkEngine::from_slice`] with the rows dropped after.
    pub fn new(points: Vec<Vec<f64>>) -> Result<Self, UtkError> {
        Self::from_slice(&points)
    }

    /// Builds an engine from borrowed rows, copying them once into the
    /// engine's flat store.
    pub fn from_slice(points: &[Vec<f64>]) -> Result<Self, UtkError> {
        if points.is_empty() {
            return Err(UtkError::EmptyDataset);
        }
        let dim = points[0].len();
        if dim < 2 {
            return Err(UtkError::DatasetTooFlat { got: dim });
        }
        for p in points {
            if p.len() != dim {
                return Err(UtkError::DimensionMismatch {
                    what: "record",
                    expected: dim,
                    got: p.len(),
                });
            }
            if p.iter().any(|x| !x.is_finite()) {
                return Err(UtkError::NonFiniteInput { what: "dataset" });
            }
        }
        let tree = Arc::new(RTree::bulk_load(points));
        let store = Arc::new(PointStore::from_rows(points));
        let version = DatasetVersion::packed(0, store, tree);
        Ok(Self {
            inner: Arc::new(EngineInner {
                data: RwLock::new(Arc::new(version)),
                mutation: Mutex::new(()),
                dim,
                cache_enabled: true,
                repair_enabled: true,
                kernel: ScreenKernel::default(),
                filter_cache: Mutex::new(ByteLru::new(DEFAULT_FILTER_CACHE_BUDGET)),
                scoring_cache: Mutex::new(ByteLru::new(DEFAULT_SCORING_CACHE_BUDGET)),
                filter_hits: AtomicUsize::new(0),
                filter_misses: AtomicUsize::new(0),
                filter_repairs: AtomicUsize::new(0),
                repair_screens: AtomicUsize::new(0),
                index_rebuilds: AtomicUsize::new(0),
                superset_hits: AtomicUsize::new(0),
                pool_threads_cfg: 0,
                pool: OnceLock::new(),
                pool_builds: AtomicUsize::new(0),
                clock: Arc::new(MonotonicClock::new()),
            }),
        })
    }

    /// Disables the r-skyband/scoring memoization: every query
    /// recomputes its filtering from scratch. Useful for benchmarks
    /// that measure per-query cost. Builder-style: call right after
    /// construction, before the engine is cloned or queried.
    pub fn without_filter_cache(mut self) -> Self {
        Arc::get_mut(&mut self.inner)
            // utk-lint: allow(panic) -- documented builder contract: must precede any clone
            .expect("without_filter_cache must be called before the engine is cloned")
            .cache_enabled = false;
        self
    }

    /// Disables splice repair of invalidated filter-cache entries:
    /// mutations fall back to drop-and-recompute (the pre-repair
    /// behavior). Used by benchmarks to measure what repair saves.
    /// Builder-style: call right after construction, before the
    /// engine is cloned or queried.
    pub fn without_cache_repair(mut self) -> Self {
        Arc::get_mut(&mut self.inner)
            // utk-lint: allow(panic) -- documented builder contract: must precede any clone
            .expect("without_cache_repair must be called before the engine is cloned")
            .repair_enabled = false;
        self
    }

    /// Runs every r-skyband screen on the scalar oracle kernel
    /// instead of the default blocked sweep. The
    /// candidate sets (and hence all query results) are byte-identical
    /// either way — this twin exists so the property suite can assert
    /// exactly that, and so benches can measure what blocking buys.
    /// Builder-style: call right after construction, before the
    /// engine is cloned or queried.
    pub fn without_blocked_kernel(mut self) -> Self {
        Arc::get_mut(&mut self.inner)
            // utk-lint: allow(panic) -- documented builder contract: must precede any clone
            .expect("without_blocked_kernel must be called before the engine is cloned")
            .kernel = ScreenKernel::Scalar;
        self
    }

    /// Seeds the initial dataset epoch (default 0). The serving
    /// registry uses this when rebuilding an engine from a compacted
    /// write-ahead-log snapshot, so epochs stay absolute across
    /// restarts: a snapshot captured at epoch `B` reloads at epoch
    /// `B`, and replaying the log's tail lands the engine on exactly
    /// the epoch the log ends at. Builder-style: call right after
    /// construction, before the engine is cloned, queried or mutated.
    pub fn with_base_epoch(mut self, epoch: u64) -> Self {
        let inner = Arc::get_mut(&mut self.inner)
            // utk-lint: allow(panic) -- documented builder contract: must precede any clone
            .expect("with_base_epoch must be called before the engine is cloned");
        let slot = inner
            .data
            .get_mut()
            // utk-lint: allow(panic) -- poison propagation: get_mut is the exclusive-access form of .read()
            .expect("dataset lock");
        Arc::get_mut(slot)
            // utk-lint: allow(panic) -- the version Arc is unshared until the first query
            .expect("with_base_epoch must be called before the first query")
            .epoch = epoch;
        self
    }

    /// Sets the byte budget of the r-skyband filter cache (default
    /// [`DEFAULT_FILTER_CACHE_BUDGET`]). Accounting covers the cached
    /// `CandidateSet` payloads (ids, flat points, graph) plus their
    /// region keys; least-recently-used entries are evicted once the
    /// budget is exceeded. Builder-style: call right after
    /// construction, before the engine is cloned or queried.
    pub fn with_filter_cache_budget(self, bytes: usize) -> Self {
        *self.inner.filter_cache.lock().expect("cache lock") = ByteLru::new(bytes);
        self
    }

    /// Sets the byte budget of the transformed-dataset (generalized
    /// scoring) cache (default [`DEFAULT_SCORING_CACHE_BUDGET`]).
    /// Builder-style, like [`UtkEngine::with_filter_cache_budget`].
    pub fn with_scoring_cache_budget(self, bytes: usize) -> Self {
        *self.inner.scoring_cache.lock().expect("cache lock") = ByteLru::new(bytes);
        self
    }

    /// Re-sizes the filter cache's byte budget **in place** on a live
    /// (possibly shared) engine: cached entries survive, shrinking
    /// evicts LRU-first down to the new budget, growing is free.
    /// Returns how many entries were evicted. This is the registry
    /// hook for serving many datasets under one shared budget — the
    /// per-engine slice is re-dealt whenever a dataset loads or
    /// unloads, unlike the builder
    /// [`UtkEngine::with_filter_cache_budget`], which replaces the
    /// cache wholesale and must run before the engine is shared.
    pub fn set_filter_cache_budget(&self, bytes: usize) -> usize {
        self.inner
            .filter_cache
            .lock()
            .expect("cache lock")
            .set_budget(bytes)
    }

    /// The filter cache's current byte budget.
    pub fn filter_cache_budget(&self) -> usize {
        self.inner.filter_cache.lock().expect("cache lock").budget()
    }

    /// Sizes the worker pool backing parallel queries and
    /// [`UtkEngine::run_many`] (0 = one worker per available core, the
    /// default). Builder-style: call right after construction, before
    /// the first parallel query builds the pool.
    pub fn with_pool_threads(mut self, threads: usize) -> Self {
        let inner = Arc::get_mut(&mut self.inner)
            // utk-lint: allow(panic) -- documented builder contract: must precede any clone
            .expect("with_pool_threads must be called before the engine is cloned");
        assert!(
            inner.pool.get().is_none(),
            "with_pool_threads must be called before the pool is first used"
        );
        inner.pool_threads_cfg = threads;
        self
    }

    /// Replaces the engine's nanosecond source for query-phase
    /// tracing (default: a fresh [`MonotonicClock`]). Tests inject a
    /// [`crate::obs::TestClock`] to make `Stats::timings` exactly
    /// reproducible; results and wire bytes are clock-independent.
    /// Builder-style: call right after construction, before the
    /// engine is cloned or queried.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        Arc::get_mut(&mut self.inner)
            // utk-lint: allow(panic) -- documented builder contract: must precede any clone
            .expect("with_clock must be called before the engine is cloned")
            .clock = clock;
        self
    }

    /// The engine's tracing clock (shared with the serving layer so
    /// slow-query thresholds and metrics observe the same time base).
    pub fn clock(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.inner.clock)
    }

    /// The engine's persistent worker pool, built on first use.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        self.inner.pool.get_or_init(|| {
            self.inner.pool_builds.fetch_add(1, Ordering::Relaxed);
            Arc::new(ThreadPool::new(self.inner.pool_threads_cfg))
        })
    }

    /// Worker threads the engine's pool has (or will have once built).
    pub fn pool_threads(&self) -> usize {
        match self.inner.pool.get() {
            Some(pool) => pool.threads(),
            None if self.inner.pool_threads_cfg != 0 => self.inner.pool_threads_cfg,
            None => std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// How many worker pools this engine ever constructed: 0 before
    /// the first parallel query, 1 after — never more (the regression
    /// the counter guards against is per-query pool construction).
    pub fn pool_builds(&self) -> usize {
        self.inner.pool_builds.load(Ordering::Relaxed)
    }

    /// The current dataset version (an `Arc` clone under a momentary
    /// read lock).
    fn current(&self) -> Arc<DatasetVersion> {
        Arc::clone(&self.inner.data.read().expect("dataset lock"))
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.current().store.len()
    }

    /// Always false: empty datasets are rejected at construction and
    /// a mutation may never delete the last record without inserting.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Dataset dimensionality `d` (invariant across mutations).
    pub fn dim(&self) -> usize {
        self.inner.dim
    }

    /// A coherent read-only view of the current dataset version:
    /// flat records, packed R-tree and epoch. The snapshot
    /// stays valid (and internally consistent) across concurrent
    /// mutations.
    pub fn snapshot(&self) -> DatasetSnapshot {
        DatasetSnapshot {
            version: self.current(),
        }
    }

    /// The current dataset epoch: 0 at construction, +1 per
    /// [`UtkEngine::apply_update`] that changed anything.
    pub fn dataset_epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Mutations that rebuilt the R-tree outright instead of
    /// extending the tombstone/append overlay.
    pub fn index_rebuilds(&self) -> usize {
        self.inner.index_rebuilds.load(Ordering::Relaxed)
    }

    /// Whether the current index is packed over exactly the live
    /// records (false while mutations are riding the overlay).
    pub fn index_is_packed(&self) -> bool {
        matches!(self.current().index, TreeIndex::Packed(_))
    }

    /// Appends records to the dataset. Equivalent to
    /// [`UtkEngine::apply_update`] with no deletions; the new records
    /// take ids `len..len + rows.len()`.
    pub fn insert_points(&self, rows: Vec<Vec<f64>>) -> Result<UpdateReport, UtkError> {
        self.apply_update(&[], rows)
    }

    /// Removes records by id. Equivalent to
    /// [`UtkEngine::apply_update`] with no insertions.
    pub fn delete_points(&self, ids: &[u32]) -> Result<UpdateReport, UtkError> {
        self.apply_update(ids, Vec::new())
    }

    /// The mutation seam: atomically removes the records named by
    /// `deletes` and appends `inserts`, as **one** epoch bump.
    ///
    /// Semantics — the contract the dynamic test oracle locks:
    ///
    /// * `deletes` are ids in the *current* dataset, applied
    ///   simultaneously (an unknown id or a repeat is a typed error
    ///   and nothing changes); survivors keep their relative order
    ///   and are renumbered densely, exactly as if the dataset had
    ///   been rebuilt without those rows.
    /// * `inserts` are appended after the surviving rows (validated
    ///   for dimensionality and finiteness first).
    /// * Every query thereafter answers **byte-identically** to a
    ///   fresh engine built from the post-mutation dataset (modulo
    ///   engine-history work counters): the R-tree is either rebuilt
    ///   or read through a tombstone/append overlay whose candidate
    ///   sets are provably identical ([`TreeView`]), and the filter
    ///   cache keeps exactly the entries whose r-skyband cannot have
    ///   changed — a deleted record that is **not** a cached member,
    ///   and inserted records r-dominated by ≥ k earlier-popping
    ///   members ([`rejected_by_members`]) leave an entry valid; its
    ///   member ids are remapped and it is re-keyed under the new
    ///   epoch. Anything else (including every entry under a scoring
    ///   transform when records are inserted, where the cached view
    ///   cannot evaluate the new rows) is dropped. The
    ///   transformed-dataset cache is flushed wholesale.
    ///
    /// In-flight queries are never torn: they finish on the snapshot
    /// they started with, and epoch-tagged cache keys keep the two
    /// versions' entries apart.
    pub fn apply_update(
        &self,
        deletes: &[u32],
        inserts: Vec<Vec<f64>>,
    ) -> Result<UpdateReport, UtkError> {
        for row in &inserts {
            if row.len() != self.inner.dim {
                return Err(UtkError::DimensionMismatch {
                    what: "inserted record",
                    expected: self.inner.dim,
                    got: row.len(),
                });
            }
            if row.iter().any(|x| !x.is_finite()) {
                return Err(UtkError::NonFiniteInput {
                    what: "inserted record",
                });
            }
        }
        // Serialize mutators without blocking queries: the heavy
        // construction below (the flat store copy, possibly an R-tree
        // bulk load) runs under the mutation lock only;
        // `current()` keeps serving snapshots throughout, and the
        // `data` write lock is taken just for the cache re-key +
        // version swap at the end.
        let _mutating = self.inner.mutation.lock().expect("mutation lock");
        let cur = self.current();
        let n = cur.store.len();
        let mut deleted_mask = vec![false; n];
        for &id in deletes {
            if (id as usize) >= n {
                return Err(UtkError::UnknownRecordId { id, len: n });
            }
            if deleted_mask[id as usize] {
                return Err(UtkError::DuplicateRecordId { id: id.to_string() });
            }
            deleted_mask[id as usize] = true;
        }
        if deletes.is_empty() && inserts.is_empty() {
            return Ok(UpdateReport {
                epoch: cur.epoch,
                n,
                inserted: 0,
                deleted: 0,
                filter_invalidated: 0,
                filter_retained: 0,
                filter_repaired: 0,
                index_rebuilt: false,
            });
        }
        if deletes.len() == n && inserts.is_empty() {
            return Err(UtkError::EmptyDataset);
        }

        // Dense renumbering of the survivors: old id → new id.
        let mut shift = vec![TOMBSTONE; n];
        let mut survivors = 0u32;
        for (slot, &gone) in shift.iter_mut().zip(&deleted_mask) {
            if !gone {
                *slot = survivors;
                survivors += 1;
            }
        }
        let first_inserted = survivors;
        let store = Arc::new(cur.store.spliced(&deleted_mask, &inserts));
        let epoch = cur.epoch + 1;

        // Compose the index overlay (or rebuild past the threshold).
        let (base, mut remap, mut extra) = match &cur.index {
            TreeIndex::Packed(tree) => (Arc::clone(tree), None, Vec::new()),
            TreeIndex::Overlay {
                base, remap, extra, ..
            } => (Arc::clone(base), remap.clone(), extra.clone()),
        };
        if !deletes.is_empty() {
            let composed: Vec<u32> = match remap {
                None => shift.clone(),
                Some(old) => old
                    .iter()
                    .map(|&id| {
                        if id == TOMBSTONE {
                            TOMBSTONE
                        } else {
                            shift[id as usize]
                        }
                    })
                    .collect(),
            };
            remap = Some(composed);
            extra.retain_mut(|id| {
                *id = shift[*id as usize];
                *id != TOMBSTONE
            });
        }
        extra.extend(first_inserted..first_inserted + inserts.len() as u32);
        let dead = remap
            .as_ref()
            .map_or(0, |m| m.iter().filter(|&&id| id == TOMBSTONE).count());
        let overhead = dead + extra.len();
        let rebuild = overhead * OVERLAY_REBUILD_DEN > store.len() * OVERLAY_REBUILD_NUM;
        let index = if rebuild {
            self.inner.index_rebuilds.fetch_add(1, Ordering::Relaxed);
            TreeIndex::Packed(Arc::new(pack(&store)))
        } else {
            TreeIndex::Overlay {
                base,
                remap,
                extra,
                packed: OnceLock::new(),
            }
        };

        let next = Arc::new(DatasetVersion {
            epoch,
            store,
            index,
        });

        // Publish: targeted cache invalidation atomic with the
        // version swap, under a write lock held only for this final,
        // cheap step.
        let mut guard = self.inner.data.write().expect("dataset lock");
        debug_assert!(
            Arc::ptr_eq(&guard, &cur),
            "mutators are serialized by the mutation lock"
        );
        let (filter_invalidated, filter_retained, filter_repaired) = if self.inner.cache_enabled {
            self.rekey_filter_cache(
                cur.epoch,
                &next,
                &deleted_mask,
                &shift,
                first_inserted,
                deletes,
                &inserts,
            )
        } else {
            (0, 0, 0)
        };
        self.inner.scoring_cache.lock().expect("cache lock").clear();
        let report = UpdateReport {
            epoch,
            n: next.store.len(),
            inserted: inserts.len(),
            deleted: deletes.len(),
            filter_invalidated,
            filter_retained,
            filter_repaired,
            index_rebuilt: rebuild,
        };
        *guard = next;
        Ok(report)
    }

    /// Drains the filter cache and carries every entry it can into
    /// the new epoch, preserving LRU order. Three outcomes per entry:
    /// provably unaffected → re-keyed (ids remapped) as-is;
    /// affected but plain-scoring → **splice-repaired** — re-screened
    /// incrementally against the next version
    /// ([`crate::skyband::Source::Repair`]), byte-identical to a cold
    /// run on the new dataset; otherwise dropped. Returns
    /// `(invalidated, retained, repaired)`, where repaired entries also
    /// count as retained.
    #[allow(clippy::too_many_arguments)]
    fn rekey_filter_cache(
        &self,
        old_epoch: u64,
        next: &DatasetVersion,
        deleted_mask: &[bool],
        shift: &[u32],
        first_inserted: u32,
        deletes: &[u32],
        inserts: &[Vec<f64>],
    ) -> (usize, usize, usize) {
        let new_epoch = next.epoch;
        let mut cache = self.inner.filter_cache.lock().expect("cache lock");
        let mut invalidated = 0;
        let mut retained = 0;
        let mut repaired = 0;
        for (key, mut entry, bytes) in cache.take_entries() {
            // Stragglers inserted by in-flight queries on older
            // snapshots are unreachable already; drop them without
            // counting — this mutation never evaluated them, so they
            // belong in neither `invalidated` nor `retained`.
            if key.epoch != old_epoch {
                continue;
            }
            // A deleted record that is a cached member changes the
            // member list by definition.
            let member_deleted = entry.cands.ids.iter().any(|&id| deleted_mask[id as usize]);
            // Inserts that escape the exact rejection test would join
            // this entry's r-skyband. Transformed-space entries cannot
            // evaluate new rows at all (the transform is only known by
            // fingerprint here): conservative fallback.
            let scoring_blocked = !key.scoring.is_empty() && !inserts.is_empty();
            let mut live_inserts: Vec<u32> = Vec::new();
            if key.scoring.is_empty() {
                for (j, row) in inserts.iter().enumerate() {
                    if !rejected_by_members(
                        &entry.cands,
                        row,
                        &entry.region,
                        key.k,
                        key.pivot_order,
                    ) {
                        live_inserts.push(first_inserted + j as u32);
                    }
                }
            }
            if !member_deleted && !scoring_blocked && live_inserts.is_empty() {
                if !deletes.is_empty() {
                    renumber(&mut entry.cands, shift);
                }
                let key = FilterKey {
                    epoch: new_epoch,
                    ..key
                };
                cache.insert(key, entry, bytes);
                retained += 1;
                continue;
            }
            // The entry's r-skyband did (or may) change: splice-repair
            // it instead of dropping, when the repair preconditions
            // hold. The repaired set is byte-identical to a cold run,
            // so a later cache hit answers exactly like a fresh build.
            if self.inner.repair_enabled && key.scoring.is_empty() {
                let old_ids_new: Vec<u32> = entry
                    .cands
                    .ids
                    .iter()
                    .map(|&id| shift[id as usize])
                    .collect();
                let source = Source::Repair {
                    old: &entry.cands,
                    old_ids_new: &old_ids_new,
                    live_inserts: &live_inserts,
                    points: &next.store,
                    view: next.tree_view(),
                };
                let mut rstats = Stats::new();
                let repaired_set = r_skyband(
                    source,
                    &entry.region,
                    key.k,
                    key.pivot_order,
                    self.inner.kernel,
                    &mut rstats,
                );
                if let Some(cands) = repaired_set {
                    self.inner
                        .repair_screens
                        .fetch_add(rstats.rdom_tests, Ordering::Relaxed);
                    self.inner.filter_repairs.fetch_add(1, Ordering::Relaxed);
                    let entry = FilterEntry {
                        region: entry.region,
                        cands: Arc::new(cands),
                    };
                    let bytes = entry.approx_bytes();
                    let key = FilterKey {
                        epoch: new_epoch,
                        ..key
                    };
                    cache.insert(key, entry, bytes);
                    retained += 1;
                    repaired += 1;
                    continue;
                }
            }
            invalidated += 1;
        }
        (invalidated, retained, repaired)
    }

    /// Forces the index packed: if mutations left the R-tree reading
    /// through a tombstone/append overlay, rebuild it over exactly
    /// the live records now. Content (and epoch, and caches) are
    /// unchanged — this trades one bulk load for leaner traversals.
    pub fn compact(&self) {
        let _mutating = self.inner.mutation.lock().expect("mutation lock");
        let cur = self.current();
        if matches!(cur.index, TreeIndex::Packed(_)) {
            return;
        }
        self.inner.index_rebuilds.fetch_add(1, Ordering::Relaxed);
        // Build outside the data lock (queries keep snapshotting);
        // swap under a momentary write lock.
        let tree = Arc::new(pack(&cur.store));
        let next = Arc::new(DatasetVersion::packed(
            cur.epoch,
            Arc::clone(&cur.store),
            tree,
        ));
        *self.inner.data.write().expect("dataset lock") = next;
    }

    /// Drops every memoized r-skyband and transformed dataset,
    /// keeping budgets and lifetime counters. After `compact()` +
    /// `clear_caches()` the engine is observationally identical to a
    /// freshly built one (the dynamic suite asserts exactly that,
    /// byte for byte on the wire).
    pub fn clear_caches(&self) {
        self.inner.filter_cache.lock().expect("cache lock").clear();
        self.inner.scoring_cache.lock().expect("cache lock").clear();
    }

    /// `(hits, misses)` of the r-skyband cache over this engine's
    /// lifetime. Superset reuses count as misses (the exact entry was
    /// absent) — see [`UtkEngine::filter_superset_hits`].
    pub fn filter_cache_counters(&self) -> (usize, usize) {
        (
            self.inner.filter_hits.load(Ordering::Relaxed),
            self.inner.filter_misses.load(Ordering::Relaxed),
        )
    }

    /// Cache misses served by re-screening a cached candidate set of
    /// a containing region (`R' ⊇ R`) instead of a full BBS run.
    pub fn filter_superset_hits(&self) -> usize {
        self.inner.superset_hits.load(Ordering::Relaxed)
    }

    /// Filter-cache entries splice-repaired (incrementally
    /// re-screened instead of dropped) across this engine's lifetime.
    pub fn filter_repairs(&self) -> usize {
        self.inner.filter_repairs.load(Ordering::Relaxed)
    }

    /// r-dominance tests spent inside splice repairs over this
    /// engine's lifetime — the incremental maintenance cost to weigh
    /// against the full recomputes it avoided.
    pub fn repair_screen_tests(&self) -> usize {
        self.inner.repair_screens.load(Ordering::Relaxed)
    }

    /// Payload bytes currently held by the r-skyband filter cache.
    pub fn filter_cache_bytes(&self) -> usize {
        self.inner
            .filter_cache
            .lock()
            .expect("cache lock")
            .bytes_used()
    }

    /// LRU evictions of the r-skyband filter cache over this engine's
    /// lifetime.
    pub fn filter_cache_evictions(&self) -> usize {
        self.inner
            .filter_cache
            .lock()
            .expect("cache lock")
            .evictions()
    }

    /// Number of memoized r-skyband candidate sets currently held.
    pub fn cached_filters(&self) -> usize {
        self.inner.filter_cache.lock().expect("cache lock").len()
    }

    /// Runs a query, returning its typed result. The whole run is
    /// traced against the engine's [`Clock`]; the per-phase breakdown
    /// lands on `Stats::timings` (off the wire format — see
    /// [`crate::obs`]).
    pub fn run(&self, query: &UtkQuery) -> Result<QueryResult, UtkError> {
        let (result, timings) = obs::trace(&self.inner.clock, || self.run_untraced(query));
        let mut result = result?;
        result.stats_mut().timings = timings;
        Ok(result)
    }

    /// [`UtkEngine::run`] for a query whose interior and filter step
    /// [`UtkEngine::run_many`] already settled on `data`;
    /// `pre_timings` (the leader's share of that work) join the run's
    /// own.
    fn run_prepared(
        &self,
        query: &UtkQuery,
        data: &DataRef,
        prepared: Prepared,
        pre_timings: &PhaseTimings,
    ) -> Result<QueryResult, UtkError> {
        let (result, mut timings) = obs::trace(&self.inner.clock, || {
            self.answer(query, data, Some(prepared))
        });
        let mut result = result?;
        timings.absorb(pre_timings);
        result.stats_mut().timings = timings;
        Ok(result)
    }

    fn run_untraced(&self, query: &UtkQuery) -> Result<QueryResult, UtkError> {
        if query.k == 0 {
            return Err(UtkError::InvalidK { k: 0 });
        }
        // One dataset view for the whole query: concurrent mutations
        // swap in new versions without tearing this run.
        let data = self.data_for(query.scoring.as_ref())?;
        self.answer(query, &data, None)
    }

    /// Answers `query` on `data`; `prepared` holds the pipeline's
    /// first steps when [`UtkEngine::run_many`] already took them.
    fn answer(
        &self,
        query: &UtkQuery,
        data: &DataRef,
        prepared: Option<Prepared>,
    ) -> Result<QueryResult, UtkError> {
        let mut result = match query.kind {
            QueryKind::TopK => self.run_topk(query, data).map(QueryResult::TopK),
            QueryKind::Utk1 => self.run_utk1(query, data, prepared).map(QueryResult::Utk1),
            QueryKind::Utk2 => self.run_utk2(query, data, prepared).map(QueryResult::Utk2),
        }?;
        result.stats_mut().dataset_epoch = data.epoch() as usize;
        Ok(result)
    }

    /// Whether `query` runs the RSA/JAA pipeline through the filter
    /// cache with a valid `k` and a scoring of the engine's dimension
    /// — the queries of a [`UtkEngine::run_many`] group that can share
    /// one prepared filter step. Anything else runs on its own.
    fn shares_filter(&self, query: &UtkQuery) -> bool {
        let pipeline = match query.kind {
            QueryKind::TopK => false,
            QueryKind::Utk1 => !matches!(
                query.algo.resolved_for(QueryKind::Utk1),
                Algo::Sk | Algo::On
            ),
            QueryKind::Utk2 => matches!(query.algo, Algo::Auto | Algo::Jaa),
        };
        pipeline
            && query.k != 0
            && query
                .scoring
                .as_ref()
                .is_none_or(|s| s.dim() == self.inner.dim)
    }

    /// Answers a batch of queries, returning per-query results **in
    /// input order** — element `i` is exactly what `run(&queries[i])`
    /// returns, including per-query errors (one malformed query never
    /// aborts or poisons its siblings).
    ///
    /// Queries are grouped by `(k, region, scoring)` so each group
    /// pays the filter-cache lock and the r-skyband prefiltering once,
    /// and groups execute concurrently on the engine's worker pool.
    /// Each successful result's [`Stats::batch_group_count`] records
    /// how many groups the batch split into.
    ///
    /// The answer bytes, stats included, do not depend on scheduling,
    /// and equal those of running the queries one by one. Each
    /// group's leader (its first query that needs the filter) takes
    /// its interior and filter step on the pool, reading the filter
    /// cache as it stood when the batch began. A leader whose region
    /// lies inside an earlier leader's starts once that one's filter
    /// step is done, and may re-screen its candidate set. The leader
    /// then hands its candidate set to its group's members as an
    /// exact hit and refines. Once every query is answered, the
    /// calling thread replays the cache effects in input order and
    /// fills in the stats that depend on them (`filter_cache_bytes`,
    /// `evictions`). (Only a batch that overflows the filter-cache
    /// budget can re-screen a cached superset that a one-by-one run
    /// would already have evicted.)
    pub fn run_many(&self, queries: &[UtkQuery]) -> Vec<Result<QueryResult, UtkError>> {
        // An empty batch is a legitimate request (a server `batch` op
        // with no parseable lines): answer it without building the
        // pool or taking a cache lock.
        if queries.is_empty() {
            return Vec::new();
        }
        // Group by filter identity at the current epoch: same-group
        // queries reuse one memoized r-skyband and never race on the
        // same cache miss. (If a mutation lands mid-batch, a leader
        // prepares on its own snapshot and its members run on that
        // same snapshot, so a pre-mutation r-skyband is never served
        // against a newer version.) Top-k queries never touch the
        // filter, so grouping them would only serialize independent
        // work — they fan out one per slot.
        let epoch = self.current().epoch;
        let mut group_of: HashMap<FilterKey, usize> = HashMap::new();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, query) in queries.iter().enumerate() {
            if query.kind == QueryKind::TopK {
                groups.push(vec![i]);
                continue;
            }
            match group_of.get(&FilterKey::of(query, epoch)) {
                Some(&g) => groups[g].push(i),
                None => {
                    group_of.insert(FilterKey::of(query, epoch), groups.len());
                    groups.push(vec![i]);
                }
            }
        }
        let group_count = groups.len();
        let mut out: Vec<Result<QueryResult, UtkError>> = if queries.len() <= 1 {
            // A batch of one needs no pool.
            queries.iter().map(|q| self.run(q)).collect()
        } else {
            let batch = Arc::new(Batch::new(self, queries, groups, epoch));
            let tasks = self.pool().task_set();
            for g in (0..group_count).filter(|&g| batch.outer[g].is_empty()) {
                let batch = Arc::clone(&batch);
                let group_tasks = tasks.clone();
                tasks.spawn(move || batch.run_group(&group_tasks, g));
            }
            tasks.wait();
            batch.commit();
            batch.take_results()
        };
        for result in out.iter_mut().flatten() {
            result.stats_mut().batch_group_count = group_count;
        }
        out
    }

    /// Convenience: UTK1 with default options.
    pub fn utk1(&self, region: &Region, k: usize) -> Result<Utk1Result, UtkError> {
        match self.run(&UtkQuery::utk1(k).region(region.clone()))? {
            QueryResult::Utk1(r) => Ok(r),
            _ => unreachable!("UTK1 query returned a non-UTK1 result"),
        }
    }

    /// Convenience: UTK2 with default options.
    pub fn utk2(&self, region: &Region, k: usize) -> Result<Utk2Result, UtkError> {
        match self.run(&UtkQuery::utk2(k).region(region.clone()))? {
            QueryResult::Utk2(r) => Ok(r),
            _ => unreachable!("UTK2 query returned a non-UTK2 result"),
        }
    }

    /// Convenience: plain top-k at `weights` (reduced `d − 1` form or
    /// all `d` weights).
    pub fn top_k(&self, weights: &[f64], k: usize) -> Result<TopKResult, UtkError> {
        match self.run(&UtkQuery::topk(k).weights(weights.to_vec()))? {
            QueryResult::TopK(r) => Ok(r),
            _ => unreachable!("top-k query returned a non-top-k result"),
        }
    }

    fn run_topk(&self, query: &UtkQuery, data: &DataRef) -> Result<TopKResult, UtkError> {
        if query.algo != Algo::Auto {
            return Err(UtkError::UnsupportedAlgorithm {
                algo: query.algo.label(),
                kind: query.kind.label(),
            });
        }
        let weights = query.weights.as_ref().ok_or(UtkError::MissingParameter {
            what: "weight vector",
        })?;
        let reduced = self.reduced_weights(weights)?;
        let (records, _) = top_k_tree(data.store(), &data.tree_view(), reduced, query.k);
        Ok(TopKResult {
            records,
            stats: Stats::new(),
        })
    }

    /// Accepts `d − 1` reduced weights, or all `d` weights with the
    /// implied last one dropped.
    fn reduced_weights<'w>(&self, weights: &'w [f64]) -> Result<&'w [f64], UtkError> {
        const EPS: f64 = 1e-6;
        if weights.iter().any(|w| !w.is_finite()) {
            return Err(UtkError::NonFiniteInput {
                what: "weight vector",
            });
        }
        let dp = self.inner.dim - 1;
        let reduced = if weights.len() == dp {
            weights
        } else if weights.len() == self.inner.dim {
            // Full d-weight form: the dropped last weight must be the
            // implied 1 − Σ of the others, or the caller's intent and
            // the ranking would silently disagree.
            let implied = 1.0 - weights[..dp].iter().sum::<f64>();
            if (weights[dp] - implied).abs() > EPS {
                return Err(UtkError::WeightsOutsideDomain {
                    detail: format!(
                        "last weight {} is not the implied 1 − Σ = {implied:.6} \
                         (weights must sum to 1)",
                        weights[dp]
                    ),
                });
            }
            &weights[..dp]
        } else {
            return Err(UtkError::DimensionMismatch {
                what: "weight vector",
                expected: dp,
                got: weights.len(),
            });
        };
        if let Some(w) = reduced.iter().find(|w| **w < -EPS) {
            return Err(UtkError::WeightsOutsideDomain {
                detail: format!("negative weight {w}"),
            });
        }
        let total: f64 = reduced.iter().sum();
        if total > 1.0 + EPS {
            return Err(UtkError::WeightsOutsideDomain {
                detail: format!("reduced weights sum to {total:.6} > 1"),
            });
        }
        Ok(reduced)
    }

    fn run_utk1(
        &self,
        query: &UtkQuery,
        data: &DataRef,
        prepared: Option<Prepared>,
    ) -> Result<Utk1Result, UtkError> {
        let region = self.checked_region(query)?;
        match query.algo.resolved_for(QueryKind::Utk1) {
            algo @ (Algo::Sk | Algo::On) => {
                let filter = if algo == Algo::Sk {
                    FilterKind::Skyband
                } else {
                    FilterKind::Onion
                };
                Ok(baseline_utk1(
                    data.store(),
                    data.packed_tree(),
                    region,
                    query.k,
                    filter,
                ))
            }
            Algo::Jaa => {
                let r = self.jaa_pipeline(data, region, query, prepared)?;
                Ok(Utk1Result {
                    records: r.records,
                    stats: r.stats,
                })
            }
            _ => self.rsa_pipeline(data, region, query, prepared),
        }
    }

    fn run_utk2(
        &self,
        query: &UtkQuery,
        data: &DataRef,
        prepared: Option<Prepared>,
    ) -> Result<Utk2Result, UtkError> {
        match query.algo {
            Algo::Auto | Algo::Jaa => {}
            other => {
                return Err(UtkError::UnsupportedAlgorithm {
                    algo: other.label(),
                    kind: query.kind.label(),
                })
            }
        }
        let region = self.checked_region(query)?;
        self.jaa_pipeline(data, region, query, prepared)
    }

    fn checked_region<'q>(&self, query: &'q UtkQuery) -> Result<&'q Region, UtkError> {
        let region = query
            .region
            .as_ref()
            .ok_or(UtkError::MissingParameter { what: "region" })?;
        check_region(region, self.inner.dim - 1)?;
        Ok(region)
    }

    /// The interior of a validated region, or — for a degenerate `R`
    /// with no interior — the single sorted top-k (at the pivot `w`)
    /// that answers any UTK query over it.
    fn interior_or_degenerate(
        &self,
        data: &DataRef,
        region: &Region,
        k: usize,
    ) -> Result<RegionInterior, UtkError> {
        let Some((interior, slack)) = region.interior_point() else {
            return Err(UtkError::EmptyRegion);
        };
        if slack <= INTERIOR_EPS {
            let w = region.pivot().ok_or(UtkError::EmptyRegion)?;
            let (mut top_k, _) = top_k_tree(data.store(), &data.tree_view(), &w, k);
            top_k.sort_unstable();
            return Ok(RegionInterior::Degenerate { w, top_k });
        }
        Ok(RegionInterior::Full { interior, slack })
    }

    /// RSA processing of a UTK1 query: degenerate-region shortcut,
    /// (cached) filtering, then sequential or parallel refinement.
    ///
    /// NOTE: mirrors [`crate::skyband::prefilter`] (the legacy entry
    /// points' pre-refinement pipeline) with the candidate step routed
    /// through the cache — a shortcut changed in one place must change
    /// in the other.
    fn rsa_pipeline(
        &self,
        data: &DataRef,
        region: &Region,
        query: &UtkQuery,
        prepared: Option<Prepared>,
    ) -> Result<Utk1Result, UtkError> {
        let k = query.k;
        let (interior, filtered) = match prepared {
            Some(p) => (p.interior, p.filtered),
            None => (self.interior_or_degenerate(data, region, k)?, None),
        };
        let (interior, slack) = match interior {
            RegionInterior::Degenerate { top_k, .. } => {
                return Ok(Utk1Result {
                    records: top_k,
                    stats: Stats::new(),
                })
            }
            RegionInterior::Full { interior, slack } => (interior, slack),
        };
        let (cands, mut stats) = match filtered {
            Some(filtered) => filtered,
            None => self.candidates(data, region, query)?,
        };
        let records = if cands.len() <= k {
            let mut records = cands.ids.clone();
            records.sort_unstable();
            records
        } else if query.parallel {
            // The engine's persistent pool: thread count is resolved
            // once at pool construction, never per query.
            crate::parallel::rsa_parallel_refine(
                &cands,
                region,
                &interior,
                slack,
                k,
                &query.rsa_options,
                self.pool(),
                &mut stats,
            )
        } else {
            rsa_refine(
                &cands,
                region,
                &interior,
                slack,
                k,
                &query.rsa_options,
                &mut stats,
            )
        };
        Ok(Utk1Result { records, stats })
    }

    /// JAA processing of a UTK2 (or JAA-selected UTK1) query.
    fn jaa_pipeline(
        &self,
        data: &DataRef,
        region: &Region,
        query: &UtkQuery,
        prepared: Option<Prepared>,
    ) -> Result<Utk2Result, UtkError> {
        let k = query.k;
        let (interior, filtered) = match prepared {
            Some(p) => (p.interior, p.filtered),
            None => (self.interior_or_degenerate(data, region, k)?, None),
        };
        let (interior, slack) = match interior {
            RegionInterior::Degenerate { w, top_k } => {
                return Ok(Utk2Result {
                    records: top_k.clone(),
                    cells: vec![Utk2Cell {
                        region: region.clone(),
                        interior: w,
                        top_k,
                    }],
                    stats: Stats::new(),
                })
            }
            RegionInterior::Full { interior, slack } => (interior, slack),
        };
        let (cands, mut stats) = match filtered {
            Some(filtered) => filtered,
            None => self.candidates(data, region, query)?,
        };
        if cands.len() <= k {
            let mut top_k = cands.ids.clone();
            top_k.sort_unstable();
            return Ok(Utk2Result {
                records: top_k.clone(),
                cells: vec![Utk2Cell {
                    region: region.clone(),
                    interior,
                    top_k,
                }],
                stats,
            });
        }
        let cells = if query.parallel {
            jaa_parallel_refine(
                &cands,
                region,
                &interior,
                slack,
                k,
                &query.jaa_options,
                self.pool(),
                &mut stats,
            )
        } else {
            jaa_refine(
                &cands,
                region,
                &interior,
                slack,
                k,
                &query.jaa_options,
                &mut stats,
            )
        };
        let records = records_of(&cells);
        Ok(Utk2Result {
            cells,
            records,
            stats,
        })
    }

    /// The r-skyband + r-dominance graph for `(k, region)`, memoized
    /// in the byte-budgeted LRU filter cache. Returns the candidate
    /// set plus the stats of obtaining it.
    ///
    /// Lookup order:
    /// 1. exact `(k, region, scoring)` entry — a hit serves the
    ///    memoized set directly;
    /// 2. **superset reuse** (pivot order only): a cached entry whose
    ///    region *contains* this query's region, with the same `k` and
    ///    scoring, is re-screened via
    ///    [`crate::skyband::Source::Superset`] — byte-identical to a
    ///    cold run at a fraction of the dominance tests;
    /// 3. a cold BBS run over the R-tree.
    ///
    /// Both miss paths insert their result (evicting LRU entries past
    /// the byte budget) and count toward [`Stats::evictions`] /
    /// [`Stats::filter_cache_bytes`].
    fn candidates(
        &self,
        data: &DataRef,
        region: &Region,
        query: &UtkQuery,
    ) -> Result<Filtered, UtkError> {
        let mut stats = Stats::new();
        if !self.inner.cache_enabled {
            let cands = self.filter_from(data, region, query, None, &mut stats);
            return Ok((cands, stats));
        }
        debug_assert_eq!(
            region_fingerprint(region),
            query
                .region
                .as_ref()
                .map(region_fingerprint)
                .unwrap_or_default(),
            "candidates() must be keyed on the query's own region"
        );
        let key = FilterKey::of(query, data.epoch());
        let superset = {
            let mut cache = self.inner.filter_cache.lock().expect("cache lock");
            if let Some(cands) = cache.get(&key).map(|hit| Arc::clone(&hit.cands)) {
                self.inner.filter_hits.fetch_add(1, Ordering::Relaxed);
                let stats = hit_stats(&cands, cache.bytes_used());
                return Ok((cands, stats));
            }
            // Exact miss: probe for a cached containing region *of
            // the same dataset epoch*.
            cached_superset(&cache, &key, region)
        };
        let cands = self.filter_from(
            data,
            region,
            query,
            superset.as_ref().map(|(_, sup)| &**sup),
            &mut stats,
        );
        let touch = superset.as_ref().map(|(ck, _)| ck);
        (stats.evictions, stats.filter_cache_bytes) =
            self.commit_filter(key, region, &cands, touch);
        Ok((cands, stats))
    }

    /// A filter step computed rather than looked up: a re-screen of
    /// `superset` when given, else a cold BBS over the R-tree.
    fn filter_from(
        &self,
        data: &DataRef,
        region: &Region,
        query: &UtkQuery,
        superset: Option<&CandidateSet>,
        stats: &mut Stats,
    ) -> Arc<CandidateSet> {
        let (source, phase) = match superset {
            Some(sup) => {
                self.inner.superset_hits.fetch_add(1, Ordering::Relaxed);
                stats.superset_hits = 1;
                // Pure screen-kernel work (no BBS): its own phase.
                (Source::Superset(sup), Phase::Screen)
            }
            None => {
                let source = Source::Tree {
                    points: data.store(),
                    view: data.tree_view(),
                };
                (source, Phase::Filter)
            }
        };
        let (k, pivot_order, kernel) = (query.k, query.pivot_order(), self.inner.kernel);
        let cands = obs::span(phase, || {
            r_skyband(source, region, k, pivot_order, kernel, stats)
        });
        // utk-lint: allow(panic) -- invariant: only a repair source yields None
        Arc::new(cands.expect("tree or superset source"))
    }

    /// Caches a computed filter step under `key`, first marking
    /// `touch`, the superset it re-screened, recently used.
    /// Returns the evictions and the cache's bytes after the insert.
    fn commit_filter(
        &self,
        key: FilterKey,
        region: &Region,
        cands: &Arc<CandidateSet>,
        touch: Option<&FilterKey>,
    ) -> (usize, usize) {
        self.inner.filter_misses.fetch_add(1, Ordering::Relaxed);
        let entry = FilterEntry {
            region: region.clone(),
            cands: Arc::clone(cands),
        };
        let bytes = entry.approx_bytes();
        let mut cache = self.inner.filter_cache.lock().expect("cache lock");
        if let Some(ck) = touch {
            cache.touch(ck);
        }
        let evictions = cache.insert(key, entry, bytes);
        (evictions, cache.bytes_used())
    }

    /// The dataset view for a scoring: the current snapshot for plain
    /// linear scoring, a memoized transformed copy (points + R-tree)
    /// otherwise. Transform entries are keyed by `(epoch,
    /// fingerprint)` — a mutation makes every old transform
    /// unreachable (and flushes them eagerly).
    fn data_for(&self, scoring: Option<&GeneralScoring>) -> Result<DataRef, UtkError> {
        let snapshot = self.current();
        let Some(scoring) = scoring else {
            return Ok(DataRef::Snapshot(snapshot));
        };
        if scoring.dim() != self.inner.dim {
            return Err(UtkError::DimensionMismatch {
                what: "scoring function",
                expected: self.inner.dim,
                got: scoring.dim(),
            });
        }
        if scoring.is_identity() {
            return Ok(DataRef::Snapshot(snapshot));
        }
        let key = (snapshot.epoch, scoring.fingerprint());
        if self.inner.cache_enabled {
            if let Some(hit) = self
                .inner
                .scoring_cache
                .lock()
                .expect("cache lock")
                .get(&key)
            {
                return Ok(DataRef::Transformed(Arc::clone(hit)));
            }
        }
        let store = scoring.transform_store(&snapshot.store);
        if store.as_flat().iter().any(|x| !x.is_finite()) {
            return Err(UtkError::NonFiniteInput {
                what: "transformed dataset (scoring function)",
            });
        }
        let tree = pack(&store);
        let scored = Arc::new(Scored {
            epoch: snapshot.epoch,
            store,
            tree,
        });
        if self.inner.cache_enabled {
            let bytes = scored.approx_bytes();
            let mut cache = self.inner.scoring_cache.lock().expect("cache lock");
            cache.insert(key, Arc::clone(&scored), bytes);
        }
        Ok(DataRef::Transformed(scored))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_hotels() -> Vec<Vec<f64>> {
        vec![
            vec![8.3, 9.1, 7.2],
            vec![2.4, 9.6, 8.6],
            vec![5.4, 1.6, 4.1],
            vec![2.6, 6.9, 9.4],
            vec![7.3, 3.1, 2.4],
            vec![7.9, 6.4, 6.6],
            vec![8.6, 7.1, 4.3],
        ]
    }

    fn figure1_region() -> Region {
        Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25])
    }

    #[test]
    fn figure1_through_all_algorithms() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        for algo in [Algo::Auto, Algo::Rsa, Algo::Jaa, Algo::Sk, Algo::On] {
            let res = engine
                .run(&UtkQuery::utk1(2).region(figure1_region()).algorithm(algo))
                .unwrap();
            assert_eq!(res.records(), &[0, 1, 3, 5], "{}", algo.label());
        }
    }

    #[test]
    fn utk2_reuses_utk1_filter() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        let u1 = engine.utk1(&figure1_region(), 2).unwrap();
        assert_eq!(u1.stats.filter_cache_hits, 0);
        let u2 = engine.utk2(&figure1_region(), 2).unwrap();
        assert_eq!(u2.stats.filter_cache_hits, 1);
        assert_eq!(u2.records, u1.records);
        assert_eq!(engine.filter_cache_counters(), (1, 1));
    }

    #[test]
    fn cache_disabled_engine_never_hits() {
        let engine = UtkEngine::new(figure1_hotels())
            .unwrap()
            .without_filter_cache();
        engine.utk1(&figure1_region(), 2).unwrap();
        let u2 = engine.utk2(&figure1_region(), 2).unwrap();
        assert_eq!(u2.stats.filter_cache_hits, 0);
        assert_eq!(engine.filter_cache_counters(), (0, 0));
        assert_eq!(engine.cached_filters(), 0);
    }

    #[test]
    fn run_many_on_an_empty_slice_is_a_true_no_op() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        let out = engine.run_many(&[]);
        assert!(out.is_empty());
        // Neither the pool nor the caches were touched.
        assert_eq!(engine.pool_builds(), 0);
        assert_eq!(engine.filter_cache_counters(), (0, 0));
        assert_eq!(engine.cached_filters(), 0);
    }

    #[test]
    fn runtime_budget_resize_preserves_entries() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        engine.utk1(&figure1_region(), 2).unwrap();
        assert_eq!(engine.cached_filters(), 1);
        let bytes = engine.filter_cache_bytes();
        assert!(bytes > 0);
        // Growing (or shrinking to just above the resident bytes)
        // keeps the entry; the very next same-region query is a hit.
        assert_eq!(engine.set_filter_cache_budget(bytes + 1), 0);
        assert_eq!(engine.filter_cache_budget(), bytes + 1);
        let u2 = engine.utk2(&figure1_region(), 2).unwrap();
        assert_eq!(u2.stats.filter_cache_hits, 1);
        // Shrinking below the resident bytes evicts.
        assert_eq!(engine.set_filter_cache_budget(bytes - 1), 1);
        assert_eq!(engine.cached_filters(), 0);
    }

    #[test]
    fn topk_matches_brute_force_order() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        // Reduced and full weight forms agree.
        let a = engine.top_k(&[0.3, 0.5], 2).unwrap();
        let b = engine.top_k(&[0.3, 0.5, 0.2], 2).unwrap();
        assert_eq!(a.records, vec![0, 1]);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn topk_weights_must_lie_in_the_preference_domain() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        // Full form whose last weight contradicts 1 − Σ.
        assert!(matches!(
            engine.top_k(&[2.0, 3.0, 5.0], 2).unwrap_err(),
            UtkError::WeightsOutsideDomain { .. }
        ));
        // Reduced form outside the simplex.
        assert!(matches!(
            engine.top_k(&[0.8, 0.7], 2).unwrap_err(),
            UtkError::WeightsOutsideDomain { .. }
        ));
        assert!(matches!(
            engine.top_k(&[-0.1, 0.5], 2).unwrap_err(),
            UtkError::WeightsOutsideDomain { .. }
        ));
        // A consistent full form still passes.
        assert!(engine.top_k(&[0.2, 0.3, 0.5], 2).is_ok());
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert_eq!(UtkEngine::new(vec![]).unwrap_err(), UtkError::EmptyDataset);
        assert_eq!(
            UtkEngine::new(vec![vec![1.0]]).unwrap_err(),
            UtkError::DatasetTooFlat { got: 1 }
        );
        assert!(matches!(
            UtkEngine::new(vec![vec![1.0, 2.0], vec![1.0]]).unwrap_err(),
            UtkError::DimensionMismatch { .. }
        ));
        assert_eq!(
            UtkEngine::new(vec![vec![1.0, f64::NAN]]).unwrap_err(),
            UtkError::NonFiniteInput { what: "dataset" }
        );

        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        assert_eq!(
            engine
                .run(&UtkQuery::utk1(0).region(figure1_region()))
                .unwrap_err(),
            UtkError::InvalidK { k: 0 }
        );
        assert_eq!(
            engine.run(&UtkQuery::utk1(2)).unwrap_err(),
            UtkError::MissingParameter { what: "region" }
        );
        assert!(matches!(
            engine
                .run(&UtkQuery::utk1(2).region(Region::hyperrect(vec![0.1], vec![0.2])))
                .unwrap_err(),
            UtkError::DimensionMismatch { .. }
        ));
        assert!(matches!(
            engine
                .run(
                    &UtkQuery::utk2(2)
                        .region(figure1_region())
                        .algorithm(Algo::Rsa)
                )
                .unwrap_err(),
            UtkError::UnsupportedAlgorithm { .. }
        ));
    }

    #[test]
    fn algo_parses_from_str() {
        assert_eq!("RSA".parse::<Algo>().unwrap(), Algo::Rsa);
        assert_eq!("auto".parse::<Algo>().unwrap(), Algo::Auto);
        assert!("frobnicate".parse::<Algo>().is_err());
    }

    #[test]
    fn auto_resolves_per_query_kind() {
        assert_eq!(Algo::Auto.resolved_for(QueryKind::Utk1), Algo::Rsa);
        assert_eq!(Algo::Auto.resolved_for(QueryKind::Utk2), Algo::Jaa);
        assert_eq!(Algo::Sk.resolved_for(QueryKind::Utk1), Algo::Sk);
    }

    #[test]
    fn mutations_match_a_fresh_engine_and_bump_the_epoch() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        assert_eq!(engine.dataset_epoch(), 0);
        // Delete p3 (id 2, never in the Figure 1 answer) and insert a
        // dominant hotel.
        let report = engine
            .apply_update(&[2], vec![vec![9.9, 9.9, 9.9]])
            .unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.n, 7);
        assert_eq!((report.deleted, report.inserted), (1, 1));
        assert_eq!(engine.dataset_epoch(), 1);

        let mut model = figure1_hotels();
        model.remove(2);
        model.push(vec![9.9, 9.9, 9.9]);
        let fresh = UtkEngine::new(model).unwrap();
        let q = UtkQuery::utk1(2).region(figure1_region());
        let mutated = engine.run(&q).unwrap();
        let rebuilt = fresh.run(&q).unwrap();
        assert_eq!(mutated.records(), rebuilt.records());
        assert_eq!(mutated.stats().dataset_epoch, 1);
        assert_eq!(rebuilt.stats().dataset_epoch, 0);
    }

    #[test]
    fn targeted_invalidation_keeps_unaffected_entries_warm() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        let warm = engine.utk1(&figure1_region(), 2).unwrap();
        assert_eq!(engine.cached_filters(), 1);

        // p3 (id 2) and p5 (id 4) are not r-skyband members here;
        // deleting p5 must keep the entry (ids remapped), and the
        // very next query is a cache hit with the same member set.
        let report = engine.delete_points(&[4]).unwrap();
        assert_eq!(report.filter_retained, 1);
        assert_eq!(report.filter_invalidated, 0);
        let hit = engine.utk1(&figure1_region(), 2).unwrap();
        assert_eq!(hit.stats.filter_cache_hits, 1);
        // Same members, ids above the deleted one shifted down.
        let expected: Vec<u32> = warm
            .records
            .iter()
            .map(|&id| if id > 4 { id - 1 } else { id })
            .collect();
        assert_eq!(hit.records, expected);

        // Deleting a member (p1 = id 0) can change the r-skyband —
        // the entry is splice-repaired in place, and the very next
        // query is a cache hit answering like a fresh build.
        let report = engine.delete_points(&[0]).unwrap();
        assert_eq!(report.filter_retained, 1);
        assert_eq!(report.filter_repaired, 1);
        assert_eq!(report.filter_invalidated, 0);
        let repaired = engine.utk1(&figure1_region(), 2).unwrap();
        assert_eq!(repaired.stats.filter_cache_hits, 1);
        let mut model = figure1_hotels();
        model.remove(4); // p5 (first delete above)
        model.remove(0); // p1
        let fresh = UtkEngine::new(model).unwrap();
        assert_eq!(
            repaired.records,
            fresh.utk1(&figure1_region(), 2).unwrap().records
        );

        // Inserting a clearly dominated record keeps the entry
        // without repair work; a dominant one splices it in.
        assert_eq!(engine.cached_filters(), 1);
        let report = engine.insert_points(vec![vec![0.1, 0.1, 0.1]]).unwrap();
        assert_eq!(report.filter_retained, 1);
        assert_eq!(report.filter_repaired, 0);
        let report = engine.insert_points(vec![vec![9.9, 9.9, 9.9]]).unwrap();
        assert_eq!(report.filter_retained, 1);
        assert_eq!(report.filter_repaired, 1);
        assert_eq!(report.filter_invalidated, 0);
        assert_eq!(engine.filter_repairs(), 2);
        assert!(engine.repair_screen_tests() > 0);

        // With repair disabled the same mutations drop the entry —
        // the drop-and-recompute baseline benchmarks measure against.
        let baseline = UtkEngine::new(figure1_hotels())
            .unwrap()
            .without_cache_repair();
        baseline.utk1(&figure1_region(), 2).unwrap();
        let report = baseline.delete_points(&[0]).unwrap();
        assert_eq!(report.filter_invalidated, 1);
        assert_eq!(report.filter_retained, 0);
        assert_eq!(baseline.filter_repairs(), 0);
    }

    #[test]
    fn mutation_error_paths_leave_the_engine_untouched() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        assert_eq!(
            engine.delete_points(&[7]).unwrap_err(),
            UtkError::UnknownRecordId { id: 7, len: 7 }
        );
        assert_eq!(
            engine.delete_points(&[3, 3]).unwrap_err(),
            UtkError::DuplicateRecordId { id: "3".into() }
        );
        assert!(matches!(
            engine.insert_points(vec![vec![1.0, 2.0]]).unwrap_err(),
            UtkError::DimensionMismatch { .. }
        ));
        assert_eq!(
            engine
                .insert_points(vec![vec![1.0, f64::NAN, 2.0]])
                .unwrap_err(),
            UtkError::NonFiniteInput {
                what: "inserted record"
            }
        );
        assert_eq!(
            engine.delete_points(&[0, 1, 2, 3, 4, 5, 6]).unwrap_err(),
            UtkError::EmptyDataset
        );
        assert_eq!(engine.dataset_epoch(), 0, "failed mutations change nothing");
        assert_eq!(engine.len(), 7);
        // And the no-op shape: nothing happened, no epoch bump.
        let report = engine.apply_update(&[], vec![]).unwrap();
        assert_eq!(report.epoch, 0);
        assert_eq!(engine.dataset_epoch(), 0);
    }

    /// The one cached filter entry's `CandidateSet` allocation, its
    /// flat points buffer, and its ids.
    fn sole_entry(engine: &UtkEngine) -> (*const CandidateSet, *const f64, Vec<u32>) {
        let cache = engine.inner.filter_cache.lock().unwrap();
        let entries: Vec<_> = cache.scan().collect();
        assert_eq!(entries.len(), 1);
        let cands = &entries[0].1.cands;
        (
            Arc::as_ptr(cands),
            cands.points.as_flat().as_ptr(),
            cands.ids.clone(),
        )
    }

    #[test]
    fn rekey_renumbers_a_retained_entry_in_place() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        let utk1 = UtkQuery::utk1(2).region(figure1_region());
        engine.run(&utk1).unwrap();
        let (set, points, ids) = sole_entry(&engine);
        // p5 (id 4) is not a member; members above it shift down.
        assert!(!ids.contains(&4) && ids.iter().any(|&id| id > 4));

        let report = engine.delete_points(&[4]).unwrap();
        assert_eq!((report.filter_retained, report.filter_repaired), (1, 0));
        let (set_after, points_after, ids_after) = sole_entry(&engine);
        assert!(std::ptr::eq(set, set_after), "entry was copied");
        assert!(std::ptr::eq(points, points_after), "points were copied");
        let shifted: Vec<u32> = ids.iter().map(|&id| id - u32::from(id > 4)).collect();
        assert_eq!(ids_after, shifted);

        // Answers off the renumbered entry equal a fresh build's,
        // byte for byte on the wire (engine-history stats aside).
        let mut rows = figure1_hotels();
        rows.remove(4);
        let fresh = UtkEngine::new(rows).unwrap();
        let utk2 = UtkQuery::utk2(2).region(figure1_region());
        for query in [&utk1, &utk2] {
            let line = |engine: &UtkEngine| {
                let mut result = engine.run(query).unwrap();
                *result.stats_mut() = Stats::new();
                let name = |id: u32| format!("#{id}");
                crate::wire::result_json(&result, 2, Algo::Auto, 6, 3, &[], &name)
            };
            assert_eq!(line(&engine), line(&fresh));
        }
        assert_eq!(engine.filter_cache_counters().0, 2);
    }

    #[test]
    fn default_engine_screens_with_the_blocked_kernel() {
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let rows: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let region = Region::hyperrect(vec![0.2, 0.3], vec![0.3, 0.4]);
        let query = UtkQuery::utk1(5).region(region);
        let blocked = UtkEngine::new(rows.clone()).unwrap().run(&query).unwrap();
        let scalar = UtkEngine::new(rows)
            .unwrap()
            .without_blocked_kernel()
            .run(&query)
            .unwrap();
        assert!(blocked.stats().kernel_blocks > 0);
        assert_eq!(blocked.stats().prefilter_rejects, 0);
        assert_eq!(scalar.stats().kernel_blocks, 0);
        assert_eq!(blocked.stats().candidates, scalar.stats().candidates);
        // The wire lines agree byte for byte once the work counters,
        // which differ by kernel, are set aside.
        let line = |mut result: QueryResult| {
            *result.stats_mut() = Stats::new();
            let name = |id: u32| format!("#{id}");
            crate::wire::result_json(&result, 5, Algo::Auto, 300, 3, &[], &name)
        };
        assert_eq!(line(blocked), line(scalar));
    }

    #[test]
    fn overlay_rides_small_mutations_and_rebuilds_past_threshold() {
        let points: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i % 10) as f64, (i / 10) as f64, (i % 7) as f64])
            .collect();
        let engine = UtkEngine::new(points).unwrap();
        assert!(engine.index_is_packed());
        engine.delete_points(&[3]).unwrap();
        assert!(!engine.index_is_packed(), "one delete rides the overlay");
        assert_eq!(engine.index_rebuilds(), 0);
        // Pile up deletions until the overlay overhead crosses 1/2.
        let ids: Vec<u32> = (0..40).collect();
        engine.delete_points(&ids).unwrap();
        assert!(
            engine.index_rebuilds() >= 1,
            "threshold must trigger a rebuild"
        );
        // compact() packs on demand and is idempotent.
        engine.insert_points(vec![vec![1.0, 1.0, 1.0]]).unwrap();
        assert!(!engine.index_is_packed());
        engine.compact();
        assert!(engine.index_is_packed());
        let rebuilds = engine.index_rebuilds();
        engine.compact();
        assert_eq!(engine.index_rebuilds(), rebuilds);
    }

    #[test]
    fn identity_scoring_shares_cache_with_plain_queries() {
        let engine = UtkEngine::new(figure1_hotels()).unwrap();
        let plain = engine.utk1(&figure1_region(), 2).unwrap();
        let scored = engine
            .run(
                &UtkQuery::utk1(2)
                    .region(figure1_region())
                    .scoring(GeneralScoring::linear(3)),
            )
            .unwrap();
        assert_eq!(scored.records(), plain.records);
        assert_eq!(scored.stats().filter_cache_hits, 1, "identity must share");
    }
}
