//! BBS skyband computation (§2) and its r-skyband adaptation (§4.1).
//!
//! Both run the branch-and-bound skyline paradigm of Papadias et al.
//! over an R-tree: entries pop from a max-heap under a monotone key;
//! a popped record joins the skyband iff fewer than `k` current
//! members (r-)dominate it; a popped node is expanded iff its MBB top
//! corner is (r-)dominated by fewer than `k` members.
//!
//! The r-skyband differs in two ways (§4.1): dominance tests are
//! r-dominance tests, and the heap key is the score under the *pivot*
//! vector of `R` (its vertex average), which steers the search toward
//! likely members first. Because every potential r-dominator scores at
//! least as high at the pivot, it pops no later than its dominatees —
//! so, as the paper observes, the r-dominance graph arcs come for free
//! from the membership tests.
//!
//! The plain monotone top-k search of §3.1 ([`top_k_tree`]) lives here
//! too: it reads the index through the same overlay-aware
//! [`TreeView`].
//!
//! # The flat screen loop
//!
//! The screen — "how many current members r-dominate this probe?" —
//! is the hot loop of every UTK query, so it runs on a flat layout
//! with zero per-test allocations (`BandScreen`):
//!
//! * the dataset and the admitted members live in row-major
//!   [`PointStore`]s (one contiguous `f64` buffer, stride `d`);
//! * when the region has a vertex list (box corners, polytope
//!   vertices), each member's scores at those vertices are computed
//!   **once on admission**; a probe's scores are computed once per
//!   pop, and each r-dominance test is a sweep over two cached score
//!   slices with early exit — no coordinate access, no `Vec` per test;
//! * the pivot-order invariant (an r-dominator scores at least as
//!   high as its dominatee at the pivot, strictly so over
//!   full-dimensional regions) cuts each screen to the prefix of
//!   members whose pivot score reaches the probe's. Under the pivot
//!   heap key that prefix is the entire member list — BBS already
//!   pops dominators first — so the cut costs one binary search and
//!   pays off where admission order and pivot order part ways: the
//!   coordinate-sum ablation key, and NaN-degraded probes;
//! * the cached vertex scores live in a structure-of-arrays
//!   [`ScorePanel`] (member blocks of [`SCORE_LANES`] lanes,
//!   vertex-major), and when admission order matches pivot order the
//!   sweep runs the branch-free blocked kernel
//!   ([`blocked_dominates_mask`]), selected by [`ScreenKernel`] and
//!   byte-identical to the scalar oracle by construction.
//!
//! # One entry point, two passes
//!
//! [`r_skyband`] is the only way in; a [`Source`] says where the
//! records come from, and two passes serve every source through the
//! same screen:
//!
//! * the **tree pass** is the BBS above over a [`TreeView`]: a cold
//!   run ([`Source::Tree`]), or a splice repair after a member delete;
//! * the **list pass** replays a list of records in the tree pass's
//!   record pop order — descending heap key, ties to the smaller id:
//!   a re-screen of a cached candidate set of a containing region
//!   ([`Source::Superset`]; for `R ⊆ R'` the r-skyband over `R` is a
//!   subset of the one over `R'`, since records only gain dominators
//!   as the region shrinks), or a splice repair after inserts only.
//!
//! A splice repair ([`Source::Repair`]) admits the members that pop
//! before anything the mutation changed with their old dominator
//! rows — the *free prefix* — and re-screens the rest. A cold run is
//! the tree pass with an empty free prefix that ends at the first
//! pop; a superset re-screen is the list pass with none. Every source
//! yields the candidate set (ids, points, graph) of a cold run over
//! the same records byte for byte; only the work counters differ.

use crate::graph::DominanceGraph;
use crate::rdominance::{
    blocked_dominates_mask, classify_member_scores, dominates, r_dominance_scratch, RDominance,
    ScreenKernel,
};
use crate::stats::Stats;
use utk_geom::{
    pref_score, score_upper_bound, PointStore, PointStoreBuilder, Region, Rows, ScorePanel,
    SCORE_LANES,
};
use utk_rtree::RTree;

/// Vertex-list cap for the corner-score fast path: boxes above this
/// many corners (`2^dim`) and polytopes above this many vertices fall
/// back to the allocation-free affine-delta test. Covers the paper's
/// whole dimensionality range (`d ≤ 7` ⇒ ≤ 64 corners) with room.
const CORNER_CAP: usize = 256;

/// Safety margin of the pivot-score prefix cut. A member can only
/// r-dominate a probe if its score delta at the pivot is at least
/// `-EPS` (the classification tolerance); member and probe scores are
/// computed to ~1e-13 absolute error on this workspace's normalized
/// data, so a member whose cached pivot score falls more than this
/// margin below the probe's provably cannot dominate it.
const PREFIX_MARGIN: f64 = 1e-6;

/// Output of the filtering step: the r-skyband records, their
/// attribute vectors (flat, row-major), and the r-dominance graph
/// over them.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateSet {
    /// Dataset ids of the candidates, in BBS pop (descending pivot
    /// score) order.
    pub ids: Vec<u32>,
    /// Candidate attribute vectors, parallel to `ids`, in a flat
    /// [`PointStore`] (index `i` yields the `d`-length slice of
    /// candidate `i`).
    pub points: PointStore,
    /// r-dominance graph over candidate indices `0..ids.len()`.
    pub graph: DominanceGraph,
}

impl CandidateSet {
    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the filter retained nothing (empty dataset edge).
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Heap bytes held by the candidate set — the payload size the
    /// engine's byte-budgeted filter cache accounts with.
    pub fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.ids.len() * std::mem::size_of::<u32>()
            + self.points.approx_bytes()
            + self.graph.approx_bytes()
    }
}

/// Outcome of the pre-refinement pipeline shared by every UTK entry
/// point: the degenerate-region and small-candidate-set shortcuts, or
/// a candidate set ready for refinement.
pub(crate) enum Prefilter {
    /// `R` has no interior: the answer is one plain top-k at the
    /// region's pivot `w` (ids sorted ascending).
    Degenerate {
        /// The pivot weight vector the top-k was evaluated at.
        w: Vec<f64>,
        /// The sorted top-k at `w`.
        top_k: Vec<u32>,
    },
    /// The r-skyband has at most `k` members: every candidate fills
    /// one of the k slots everywhere in `R` (ids sorted ascending).
    Trivial {
        /// The sorted candidate ids.
        ids: Vec<u32>,
        /// An interior point of `R`.
        interior: Vec<f64>,
    },
    /// Refinement is needed.
    Refine {
        /// The r-skyband with its r-dominance graph.
        cands: CandidateSet,
        /// An interior point of `R`.
        interior: Vec<f64>,
        /// The interior point's slack.
        slack: f64,
    },
}

/// Runs the shared pre-refinement pipeline over a validated region:
/// interior computation, the degenerate-`R` shortcut (§3.1), the
/// r-skyband filter (§4.1), and the `|candidates| ≤ k` shortcut.
///
/// Builds a fresh flat [`PointStore`] per call — the legacy free
/// functions this serves rebuild all state per call by design; the
/// engine path holds a prebuilt store and calls [`r_skyband`]
/// directly.
///
/// # Panics
/// Panics if the region is empty (the legacy contract; the engine
/// validates regions before calling in).
pub(crate) fn prefilter(
    points: &[Vec<f64>],
    tree: &RTree,
    region: &Region,
    k: usize,
    pivot_order: bool,
    stats: &mut Stats,
) -> Prefilter {
    use utk_geom::tol::INTERIOR_EPS;
    let Some((interior, slack)) = region.interior_point() else {
        // utk-lint: allow(panic) -- documented # Panics contract; the engine validates first
        panic!("query region is empty");
    };
    let store = PointStore::from_rows(points);
    if slack <= INTERIOR_EPS {
        // utk-lint: allow(panic) -- invariant: interior_point() above proved the region non-empty
        let w = region.pivot().expect("non-empty region");
        let (mut top_k, _) = top_k_tree(&store, &TreeView::packed(tree), &w, k);
        top_k.sort_unstable();
        return Prefilter::Degenerate { w, top_k };
    }
    let source = Source::Tree {
        points: &store,
        view: TreeView::packed(tree),
    };
    let kernel = ScreenKernel::default();
    // utk-lint: allow(panic) -- invariant: only a repair source yields None
    let cands = r_skyband(source, region, k, pivot_order, kernel, stats).expect("tree source");
    if cands.len() <= k {
        let mut ids = cands.ids.clone();
        ids.sort_unstable();
        return Prefilter::Trivial { ids, interior };
    }
    Prefilter::Refine {
        cands,
        interior,
        slack,
    }
}

/// Classical k-skyband via BBS: ids of records dominated by fewer
/// than `k` others. Heap key: coordinate sum (a monotone surrogate of
/// the distance-to-top-corner order of the original BBS).
pub fn k_skyband<R: Rows + ?Sized>(
    points: &R,
    tree: &RTree,
    k: usize,
    stats: &mut Stats,
) -> Vec<u32> {
    let mut band: Vec<u32> = Vec::new();
    let sum = |p: &[f64]| p.iter().sum::<f64>();
    tree.search_descending(
        |mbb| sum(&mbb.hi),
        |id| sum(points.row(id as usize)),
        |id, _| {
            stats.bbs_pops += 1;
            let p = points.row(id as usize);
            let mut count = 0;
            for &m in &band {
                stats.rdom_tests += 1;
                if dominates(points.row(m as usize), p) {
                    count += 1;
                    if count >= k {
                        break;
                    }
                }
            }
            if count < k {
                band.push(id);
            }
            true
        },
    );
    // No subtree is pruned: `search_descending` expands every node,
    // so every record pops and is screened (the SK baseline's work
    // counters depend on that). The membership test alone makes the
    // result a k-skyband.
    band
}

/// The allocation-free r-skyband screen: admitted members in flat
/// storage, per-member region-vertex scores cached on admission, and
/// the pivot-score prefix cut. See the [module docs](self).
///
/// Protocol per probe: call [`BandScreen::screen`]; if it returns
/// `true` (fewer than `k` dominators) and the probe is a record,
/// immediately call [`BandScreen::admit_last`] — it consumes the
/// probe state (corner scores, pivot score, dominator list) left by
/// that `screen` call.
struct BandScreen<'r> {
    region: &'r Region,
    k: usize,
    /// Which dominance kernel sweeps the members (see
    /// [`ScreenKernel`]); both produce byte-identical candidate
    /// sets.
    kernel: ScreenKernel,
    pivot: Vec<f64>,
    /// Region vertices (box corners / polytope vertices), when small
    /// enough to cache scores against; `None` falls back to the
    /// scratch affine-delta test.
    corners: Option<PointStore>,
    member_points: PointStoreBuilder,
    member_ids: Vec<u32>,
    member_pivot_scores: Vec<f64>,
    /// Member indices by descending pivot score (NaN last). Under the
    /// pivot heap key this stays the identity permutation.
    by_pivot: Vec<u32>,
    /// True while `by_pivot` is the identity permutation — the
    /// precondition of the blocked sweep (block `b` must cover exactly
    /// members `b*SCORE_LANES..`, so the prefix cut is a member-index
    /// prefix). The pivot heap key preserves it; the sum-key ablation
    /// and NaN-degraded orders break it and drop to the scalar oracle,
    /// which also keeps the dominator lists in `by_pivot` order there.
    by_pivot_identity: bool,
    /// Member scores at the region vertices, in SoA blocks.
    panel: ScorePanel,
    dominator_lists: Vec<Vec<u32>>,
    // Per-probe scratch (no allocations after warm-up).
    probe_corner_scores: Vec<f64>,
    probe_pivot_score: f64,
    doms_scratch: Vec<u32>,
    delta_scratch: Vec<f64>,
    gather_scratch: Vec<f64>,
}

impl<'r> BandScreen<'r> {
    fn new(region: &'r Region, k: usize, kernel: ScreenKernel) -> Self {
        // utk-lint: allow(panic) -- invariant: the engine rejects empty regions before filtering
        let pivot = region.pivot().expect("query region must be non-empty");
        let corners = region.vertex_store(CORNER_CAP);
        let nv = corners.as_ref().map_or(0, |c| c.len());
        Self {
            region,
            k,
            kernel,
            pivot,
            corners,
            member_points: PointStoreBuilder::default(),
            member_ids: Vec::new(),
            member_pivot_scores: Vec::new(),
            by_pivot: Vec::new(),
            by_pivot_identity: true,
            panel: ScorePanel::new(nv),
            dominator_lists: Vec::new(),
            probe_corner_scores: Vec::new(),
            probe_pivot_score: f64::NAN,
            doms_scratch: Vec::new(),
            delta_scratch: Vec::new(),
            gather_scratch: Vec::new(),
        }
    }

    /// Screens probe `p` (a record or a node MBB top corner) against
    /// the current members: `true` iff fewer than `k` members
    /// r-dominate it. Fills the probe state [`BandScreen::admit_last`]
    /// consumes.
    fn screen(&mut self, p: &[f64], stats: &mut Stats) -> bool {
        if let Some(corners) = &self.corners {
            self.probe_corner_scores.clear();
            self.probe_corner_scores
                .extend(corners.iter().map(|v| pref_score(p, v)));
        }
        let s_piv = pref_score(p, &self.pivot);
        self.probe_pivot_score = s_piv;
        // Prefix cut: members below the probe's pivot score (beyond
        // the safety margin) provably cannot dominate it. NaN probes
        // scan everything — the invariant says nothing about them.
        let cut = if s_piv.is_nan() {
            self.by_pivot.len()
        } else {
            let scores = &self.member_pivot_scores;
            self.by_pivot
                .partition_point(|&mi| scores[mi as usize] >= s_piv - PREFIX_MARGIN)
        };
        stats.screen_prefix_skips += self.by_pivot.len() - cut;
        self.doms_scratch.clear();
        if self.kernel != ScreenKernel::Scalar && self.corners.is_some() && self.by_pivot_identity {
            return self.screen_blocked(cut, stats);
        }
        for idx in 0..cut {
            let mi = self.by_pivot[idx];
            stats.rdom_tests += 1;
            let dominates = if self.corners.is_some() {
                classify_member_scores(
                    &self.panel,
                    mi as usize,
                    &self.probe_corner_scores,
                    &mut self.gather_scratch,
                ) == RDominance::Dominates
            } else {
                r_dominance_scratch(
                    self.member_points.point(mi as usize),
                    p,
                    self.region,
                    &mut self.delta_scratch,
                ) == RDominance::Dominates
            };
            if dominates {
                self.doms_scratch.push(mi);
                if self.doms_scratch.len() >= self.k {
                    return false;
                }
            }
        }
        true
    }

    /// The branch-free blocked sweep over the score panel.
    /// Precondition: `by_pivot` is the identity permutation, so the
    /// prefix cut `0..cut` is a member-index prefix and block `b`
    /// covers members `b*SCORE_LANES..` in admission (= dominator
    /// list) order.
    ///
    /// Counting contract: every processed block adds its live-lane
    /// count to `rdom_tests` and one to `kernel_blocks` — there is no
    /// mid-block early exit (that is what makes the inner loops
    /// vectorizable), so a probe collecting its k-th dominator stops
    /// at block granularity and the counters stay deterministic.
    /// Rejected probes never expose their dominator lists (only
    /// admitted probes do, and those sweep every block), so stopping
    /// early cannot change any output byte.
    fn screen_blocked(&mut self, cut: usize, stats: &mut Stats) -> bool {
        for b in 0..cut.div_ceil(SCORE_LANES) {
            let live = (cut - b * SCORE_LANES).min(SCORE_LANES);
            let live_mask: u8 = if live == SCORE_LANES {
                u8::MAX
            } else {
                (1u8 << live) - 1
            };
            stats.rdom_tests += live;
            stats.kernel_blocks += 1;
            let mask = blocked_dominates_mask(self.panel.block_f64(b), &self.probe_corner_scores)
                & live_mask;
            let mut bits = mask;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.doms_scratch.push((b * SCORE_LANES + l) as u32);
                if self.doms_scratch.len() >= self.k {
                    return false;
                }
            }
        }
        true
    }

    /// Admits the record probed by the immediately preceding
    /// [`BandScreen::screen`] call: appends its coordinates, cached
    /// vertex scores, pivot score, and dominator list.
    fn admit_last(&mut self, id: u32, p: &[f64]) {
        if self.member_ids.is_empty() {
            // First admission fixes the stride.
            self.member_points = PointStoreBuilder::new(p.len());
        }
        let mi = self.member_ids.len() as u32;
        self.member_ids.push(id);
        self.member_points.push(p);
        if self.corners.is_some() {
            self.panel.push(&self.probe_corner_scores);
        }
        let s = self.probe_pivot_score;
        self.member_pivot_scores.push(s);
        // Keep `by_pivot` descending (NaN last), inserting after
        // equal scores so the pivot heap key keeps it the identity.
        let pos = if s.is_nan() {
            self.by_pivot.len()
        } else {
            let scores = &self.member_pivot_scores;
            self.by_pivot.partition_point(|&m| scores[m as usize] >= s)
        };
        self.by_pivot.insert(pos, mi);
        // An out-of-place insert ends the identity permutation — and
        // with it the blocked sweep's eligibility — for good.
        self.by_pivot_identity &= pos == mi as usize;
        self.dominator_lists.push(self.doms_scratch.clone());
    }

    /// Admits a record whose screen outcome is already known from a
    /// previous run (the free prefix of a splice repair): recomputes
    /// the probe state exactly as [`BandScreen::screen`] would — same
    /// `pref_score` calls, so bitwise-identical cached vertex scores —
    /// and takes `doms` as the dominator list instead of re-testing.
    fn admit_free(&mut self, id: u32, p: &[f64], doms: &[u32]) {
        if let Some(corners) = &self.corners {
            self.probe_corner_scores.clear();
            self.probe_corner_scores
                .extend(corners.iter().map(|v| pref_score(p, v)));
        }
        self.probe_pivot_score = pref_score(p, &self.pivot);
        self.doms_scratch.clear();
        self.doms_scratch.extend_from_slice(doms);
        self.admit_last(id, p);
    }

    /// The finish tail of every pass: the members as a candidate set
    /// with their r-dominance graph. Records `candidates`.
    fn finish(self, dim: usize, stats: &mut Stats) -> CandidateSet {
        let points = if self.member_ids.is_empty() {
            PointStoreBuilder::new(dim).finish()
        } else {
            self.member_points.finish()
        };
        stats.candidates = self.member_ids.len();
        let graph = crate::obs::span(crate::obs::Phase::Graph, || {
            DominanceGraph::build(self.dominator_lists)
        });
        CandidateSet {
            ids: self.member_ids,
            points,
            graph,
        }
    }
}

/// One BBS heap entry: a record or a node under a max-heap key.
///
/// The ordering is total and fully deterministic: descending key with
/// NaN keys last (a pathological record degrades the search order
/// instead of aborting it), then nodes before records, then smaller
/// id first — which makes the record pop order exactly "descending
/// key, ties by ascending id", the order [`pop_cmp`] states and the
/// list pass reproduces.
///
/// The node key is the unpadded `pref_score(mbb.hi, pivot)`, which is
/// an upper bound on the records below only up to rounding: in `f64`
/// a record a few ulps under the top corner can score a few ulps above
/// it, and a negative implied pivot weight flips the maximizing corner
/// (see [`utk_geom::score_upper_bound`]). "A node pops before every
/// record below it" therefore holds up to ulps here. [`top_k_tree`]
/// keys its nodes by the conservative bound instead; this BBS and its
/// work counters are unchanged.
#[derive(Debug)]
struct Entry {
    key: f64,
    is_node: bool,
    id: usize,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        match (self.key.is_nan(), other.key.is_nan()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            (false, false) => self.key.total_cmp(&other.key),
        }
        // Larger compares greater ⇒ pops first from the max-heap; on
        // key ties, *nodes pop before records*, then smaller ids
        // first. Nodes-before-records is load-bearing: a node's key
        // upper-bounds every record inside it, so by the time the
        // first record at key κ pops, every node at key ≥ κ has
        // expanded and every key-κ record sits in the heap — records
        // at equal keys therefore pop in ascending id order, the
        // exact order the list pass reproduces.
        .then(self.is_node.cmp(&other.is_node))
        .then(other.id.cmp(&self.id))
    }
}

/// Sentinel in a [`TreeView`] remap marking a tombstoned (deleted)
/// base-tree record.
pub const TOMBSTONE: u32 = u32::MAX;

/// A possibly stale R-tree plus the corrections that make it serve
/// the *current* dataset — the incremental-update seam of the BBS
/// traversals.
///
/// After insertions and deletions the engine does not rebuild its
/// R-tree immediately; instead it reads the last-built tree through a
/// view: `remap` translates each base-tree record id to its current
/// dataset id ([`TOMBSTONE`] = deleted; `None` = identity), and
/// `extra` lists current ids appended since the tree was built. The
/// BBS seeds `extra` records straight into its heap and drops
/// tombstoned records at leaf expansion.
///
/// **Why results stay exact and byte-identical to a fresh tree:**
/// record pop order is tree-shape independent — records pop in
/// descending key order with ties to the smaller (current) id,
/// because every node's key (its MBB top corner, possibly stale but
/// still an upper bound over the live records inside — up to ulps,
/// see `Entry`) pops before the records below it. A subtree pruned
/// via its (stale) top corner only hides records that same screen
/// would have rejected, since a member r-dominating the corner
/// r-dominates everything under it. Only the work counters
/// (`bbs_pops`, node screens) depend on the tree shape.
///
/// [`top_k_tree`] reads the same view: it scores `extra` records up
/// front, skips tombstones, and ranks by current ids.
#[derive(Debug, Clone, Copy)]
pub struct TreeView<'a> {
    tree: &'a RTree,
    remap: Option<&'a [u32]>,
    extra: &'a [u32],
}

impl<'a> TreeView<'a> {
    /// A view of a freshly built tree: record ids are dataset ids.
    pub fn packed(tree: &'a RTree) -> Self {
        Self {
            tree,
            remap: None,
            extra: &[],
        }
    }

    /// A stale tree corrected by `remap` (base record id → current
    /// dataset id, [`TOMBSTONE`] = deleted) and `extra` (current ids
    /// absent from the tree).
    pub fn overlay(tree: &'a RTree, remap: Option<&'a [u32]>, extra: &'a [u32]) -> Self {
        Self { tree, remap, extra }
    }

    /// The current dataset id of base-tree record `rid`, or `None`
    /// for a tombstoned one.
    #[inline]
    fn current_id(&self, rid: u32) -> Option<u32> {
        match self.remap {
            None => Some(rid),
            Some(map) => {
                let id = map[rid as usize];
                (id != TOMBSTONE).then_some(id)
            }
        }
    }
}

/// Work counters of one [`top_k_tree`] search. Deterministic — they
/// depend only on the records, the tree shape and `w` — and kept off
/// the wire: the engine's `topk` stats object stays all zeros.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TopKWork {
    /// Records scored (overlay `extra` records included).
    pub scored: usize,
    /// R-tree nodes expanded.
    pub expanded: usize,
}

/// A record in [`top_k_tree`]'s best-k heap. Ordered so that the
/// *worse* record compares greater — lower score under `total_cmp`,
/// then larger id — putting the current k-th best on top of the
/// max-heap.
#[derive(Debug, Clone, Copy)]
struct Ranked {
    score: f64,
    id: u32,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then(self.id.cmp(&other.id))
    }
}

/// The `k` highest-scoring records under reduced weights `w`, in
/// descending score order (`total_cmp`) with ties to the smaller
/// current id — byte-identical to [`crate::topk::top_k_brute`] over
/// the same records — found by best-first search over `view` (the
/// plain monotone top-k of §3.1).
///
/// Nodes expand from a max-heap keyed by [`score_upper_bound`] over
/// their MBB, which bounds every record below them *as computed*, so
/// a record in an unexpanded node never outranks the k-th best. The
/// search stops only when the best remaining bound is **strictly**
/// below the current k-th score: a node that could hold a tie is still
/// expanded, so the id tie-break sees every tied record. Overlay
/// `extra` records are scored up front and tombstoned base records are
/// skipped; ids are current ids throughout. A stale base tree's MBBs
/// still contain its live records, so the bound stays valid.
pub fn top_k_tree(
    points: &PointStore,
    view: &TreeView<'_>,
    w: &[f64],
    k: usize,
) -> (Vec<u32>, TopKWork) {
    let mut work = TopKWork::default();
    if k == 0 {
        return (Vec::new(), work);
    }
    let mut best = std::collections::BinaryHeap::with_capacity(k.min(points.len()) + 1);
    let offer = |best: &mut std::collections::BinaryHeap<Ranked>, id: u32| {
        let cand = Ranked {
            score: pref_score(&points[id as usize], w),
            id,
        };
        if best.len() < k {
            best.push(cand);
        } else if let Some(mut worst) = best.peek_mut() {
            if cand < *worst {
                *worst = cand;
            }
        }
    };
    for &id in view.extra {
        offer(&mut best, id);
    }
    work.scored += view.extra.len();
    let tree = view.tree;
    let bound_of = |node: usize| {
        let mbb = &tree.node(node).mbb;
        score_upper_bound(&mbb.lo, &mbb.hi, w)
    };
    // Node entries only; bounds are never NaN, so `Entry`'s order is
    // descending bound, then ascending node id.
    let mut frontier = std::collections::BinaryHeap::new();
    frontier.push(Entry {
        key: bound_of(tree.root()),
        is_node: true,
        id: tree.root(),
    });
    while let Some(Entry {
        key: bound,
        id: node,
        ..
    }) = frontier.pop()
    {
        // IEEE `<`: equal bounds still expand (ties), and a NaN k-th
        // score never prunes.
        if best.len() == k && best.peek().is_some_and(|kth| bound < kth.score) {
            break;
        }
        work.expanded += 1;
        match &tree.node(node).kind {
            utk_rtree::NodeKind::Inner { children } => {
                for &c in children {
                    frontier.push(Entry {
                        key: bound_of(c),
                        is_node: true,
                        id: c,
                    });
                }
            }
            utk_rtree::NodeKind::Leaf { items } => {
                for &rid in items {
                    if let Some(cur) = view.current_id(rid) {
                        work.scored += 1;
                        offer(&mut best, cur);
                    }
                }
            }
        }
    }
    (
        best.into_sorted_vec().into_iter().map(|r| r.id).collect(),
        work,
    )
}

/// Where an [`r_skyband`] run takes its records from.
#[derive(Debug, Clone, Copy)]
pub enum Source<'a> {
    /// A cold run: BBS over every record of `points`, read through
    /// `view` — a packed tree, or a stale one with its overlay (see
    /// [`TreeView`] for why both give the same candidate set).
    Tree {
        /// The flat dataset the view's record ids index.
        points: &'a PointStore,
        /// The index to traverse.
        view: TreeView<'a>,
    },
    /// A re-screen of a cached candidate set of a *containing* region
    /// (`R' ⊇ R`, same `k`, pivot order): the engine's cross-region
    /// superset reuse. Only `|superset|` records are screened and no
    /// tree is traversed.
    ///
    /// Soundness: shrinking the region only adds r-dominance pairs
    /// (`a·w + c ≥ 0` over `R'` implies it over `R`; strictness
    /// transfers because both regions are full-dimensional), so every
    /// member of the r-skyband over `R` is a member over `R'` — no
    /// record outside the superset can survive a cold run. One honest
    /// caveat: that argument is exact-arithmetic, while classification
    /// runs with the `EPS` tolerance — a pair whose delta range shrinks
    /// *into* the `±EPS` band over `R` (score gaps of ~1e-9 on
    /// normalized data) degrades from `Dominates` to `Equivalent`
    /// there, which could in principle admit a record over `R` that
    /// the `R'` filter already dropped. Such near-tie pairs sit on the
    /// same tolerance knife-edge as every other predicate in this
    /// workspace (cold runs included) and do not arise away from it.
    Superset(&'a CandidateSet),
    /// A splice repair of `old`, the r-skyband of the same region and
    /// `k` before a mutation, against the mutated dataset `points`
    /// (indexed by `view`). `old_ids_new` maps each member to its new
    /// id ([`TOMBSTONE`] = deleted) and must preserve the members'
    /// relative id order, as a dense renumbering of survivors does;
    /// `live_inserts` are the new ids of inserts that escaped
    /// [`rejected_by_members`] against `old`.
    ///
    /// Members that pop before anything the mutation changed are
    /// admitted with their old dominator rows, unscreened; everything
    /// from the first changed pop on is re-screened. Byte-identical to
    /// a cold run over `points`:
    /// * a cold run's member set is contained in `old ∪ live_inserts`
    ///   — an old *non*-member had ≥ `k` earlier-popping member
    ///   dominators, and by induction on pop order each of those is
    ///   either admitted (counts against it) or was itself rejected by
    ///   ≥ `k` admitted dominators, which r-dominate it transitively
    ///   and pop even earlier; a classified-rejected insert is
    ///   rejected by the same argument;
    /// * a record that pops before the first change sees exactly the
    ///   old admitted prefix ahead of it, so its old outcome stands.
    ///
    /// With no member deleted the repair is the list pass over the
    /// members merged with `live_inserts` — no traversal at all; the
    /// free prefix ends at the first insert. With a member deleted it
    /// is the tree pass over `view` with a free phase down to the
    /// splice key `k*`, the largest heap key over deleted members and
    /// live inserts: pops strictly above `k*` expand nodes and admit
    /// the expected members unscreened, skipping any other record (an
    /// old non-member or a classified-rejected insert, whose ≥ `k`
    /// member dominators all pop above `k*`, hence none was deleted).
    /// Records from subtrees a cold run would have pruned still screen
    /// to rejection, so only work counters differ.
    Repair {
        /// The cached candidate set, in its old id space.
        old: &'a CandidateSet,
        /// `old.ids` mapped to the new id space.
        old_ids_new: &'a [u32],
        /// New ids of the inserts `old` cannot reject.
        live_inserts: &'a [u32],
        /// The mutated dataset.
        points: &'a PointStore,
        /// The index over `points`.
        view: TreeView<'a>,
    },
}

/// r-skyband via the adapted BBS (§4.1): the records r-dominated by
/// fewer than `k` others over `region`, along with all r-dominance
/// arcs among them. Every [`Source`] yields the same candidate set
/// (ids, points and graph) for the same records; only the work
/// counters differ.
///
/// `pivot_order` selects the paper's pivot-score heap key. `false`
/// falls back to the classic coordinate-sum key (ablation): that key
/// does *not* upper-bound r-dominance (a later-popped record can still
/// r-dominate an earlier one), so some dominators go uncounted and the
/// filter returns a superset of the r-skyband — still a safe input to
/// refinement, just looser, which is exactly the paper's argument for
/// the pivot order. [`Source::Superset`] is exact under the pivot key
/// only.
///
/// `kernel` picks how the screen sweeps members ([`ScreenKernel`]); it
/// never changes the candidate set, only which work counters tick.
///
/// Returns `None` only for [`Source::Repair`], when a consistency
/// check fails: the cached sequence is out of pop order, a deleted
/// member sits above its own splice key, or the traversal does not
/// deliver the expected prefix exactly. The caller then drops the
/// cached set.
pub fn r_skyband(
    source: Source<'_>,
    region: &Region,
    k: usize,
    pivot_order: bool,
    kernel: ScreenKernel,
    stats: &mut Stats,
) -> Option<CandidateSet> {
    let mut screen = BandScreen::new(region, k, kernel);
    let pivot = screen.pivot.clone();
    let key = |p: &[f64]| heap_key(p, &pivot, pivot_order);
    let dim = match source {
        Source::Tree { points, view } => {
            tree_pass(
                &mut screen,
                points,
                &view,
                &key,
                f64::INFINITY,
                FreePrefix::NONE,
                stats,
            )?;
            points.dim()
        }
        Source::Superset(sup) => {
            let items = (0..sup.len())
                .map(|i| (key(&sup.points[i]), sup.ids[i], &sup.points[i]))
                .collect();
            list_pass(&mut screen, items, FreePrefix::NONE, stats);
            sup.points.dim()
        }
        Source::Repair {
            old,
            old_ids_new,
            live_inserts,
            points,
            view,
        } => {
            if old_ids_new.len() != old.len() {
                return None;
            }
            let mkeys: Vec<f64> = (0..old.len()).map(|i| key(&old.points[i])).collect();
            let list = !old_ids_new.contains(&TOMBSTONE);
            let ids = if list { old_ids_new } else { &old.ids };
            if (1..old.len()).any(|w| pop_cmp(mkeys[w - 1], ids[w - 1], mkeys[w], ids[w]).is_ge()) {
                return None; // cached sequence is not in pop order
            }
            let free = FreePrefix {
                ids: old_ids_new,
                rows: Some(&old.graph),
            };
            let inserts = live_inserts
                .iter()
                .map(|&id| (key(&points[id as usize]), id, &points[id as usize]));
            if list {
                let members = (0..old.len()).map(|i| (mkeys[i], old_ids_new[i], &old.points[i]));
                list_pass(&mut screen, members.chain(inserts).collect(), free, stats);
            } else {
                let deleted = old_ids_new
                    .iter()
                    .zip(&mkeys)
                    .filter(|(&id, _)| id == TOMBSTONE);
                let kstar = deleted
                    .map(|(_, &kk)| kk)
                    .chain(inserts.map(|(kk, _, _)| kk))
                    .fold(f64::NEG_INFINITY, f64::max);
                // Descending NaN-last keys (checked above) make this
                // predicate monotone: the partition point is the
                // free-prefix length.
                let prefix = mkeys.partition_point(|&kk| kk > kstar);
                if old_ids_new[..prefix].contains(&TOMBSTONE) {
                    return None; // a deleted member above its own splice key
                }
                let free = FreePrefix {
                    ids: &old_ids_new[..prefix],
                    ..free
                };
                tree_pass(&mut screen, points, &view, &key, kstar, free, stats)?;
            }
            points.dim()
        }
    };
    Some(screen.finish(dim, stats))
}

/// Members a previous run admitted, in pop order, whose screen
/// outcome a splice reuses: `ids[i]` is admitted with row `i` of
/// `rows` as its dominator list instead of a screen test.
#[derive(Clone, Copy)]
struct FreePrefix<'a> {
    ids: &'a [u32],
    rows: Option<&'a DominanceGraph>,
}

impl FreePrefix<'_> {
    /// A cold run's prefix: nothing is known.
    const NONE: Self = FreePrefix {
        ids: &[],
        rows: None,
    };

    /// Free-admits member `i` at point `p`.
    fn admit(&self, screen: &mut BandScreen<'_>, i: usize, p: &[f64]) {
        let row = self.rows.map_or(&[][..], |g| g.ancestors(i as u32));
        screen.admit_free(self.ids[i], p, row);
    }
}

/// The tree pass: one best-first BBS over `view`, screening records
/// and node top corners against the current members. Records the tree
/// does not know about yet (`view.extra`) enter the heap directly.
///
/// Pops strictly above `kstar` are the free phase: nodes expand
/// unscreened, `free`'s members are admitted as they arrive, and other
/// records are skipped. The first pop at or below `kstar` ends it — at
/// `kstar = +∞` that is the first pop, a cold run. `None` when the
/// free phase does not deliver `free.ids` exactly.
fn tree_pass(
    screen: &mut BandScreen<'_>,
    points: &PointStore,
    view: &TreeView<'_>,
    key: &impl Fn(&[f64]) -> f64,
    kstar: f64,
    free: FreePrefix<'_>,
    stats: &mut Stats,
) -> Option<()> {
    let tree = view.tree;
    let mut heap = std::collections::BinaryHeap::new();
    let root = tree.root();
    heap.push(Entry {
        key: key(&tree.node(root).mbb.hi),
        is_node: true,
        id: root,
    });
    for &id in view.extra {
        heap.push(Entry {
            key: key(&points[id as usize]),
            is_node: false,
            id: id as usize,
        });
    }
    let mut admitted = 0; // free-prefix members admitted so far
    let mut freeing = true;
    while let Some(Entry {
        key: kk,
        is_node,
        id,
    }) = heap.pop()
    {
        stats.bbs_pops += 1;
        if freeing {
            if kk > kstar {
                if is_node {
                    expand(&mut heap, view, id, points, key);
                } else if free.ids.get(admitted) == Some(&(id as u32)) {
                    free.admit(screen, admitted, &points[id]);
                    admitted += 1;
                }
                continue;
            }
            if admitted != free.ids.len() {
                return None;
            }
            freeing = false;
        }
        if is_node {
            if screen.screen(&tree.node(id).mbb.hi, stats) {
                expand(&mut heap, view, id, points, key);
            } // else: subtree fully r-dominated ≥ k times
        } else if screen.screen(&points[id], stats) {
            screen.admit_last(id as u32, &points[id]);
        }
    }
    (admitted == free.ids.len()).then_some(())
}

/// Pushes the children of node `id`: child nodes keyed by their MBB
/// top corner, leaf records by their point. Tombstoned records never
/// reach the heap; survivors carry their *current* id, so the
/// ascending-id tie-break matches a fresh tree.
#[inline]
fn expand(
    heap: &mut std::collections::BinaryHeap<Entry>,
    view: &TreeView<'_>,
    id: usize,
    points: &PointStore,
    key: &impl Fn(&[f64]) -> f64,
) {
    match &view.tree.node(id).kind {
        utk_rtree::NodeKind::Inner { children } => {
            for &c in children {
                heap.push(Entry {
                    key: key(&view.tree.node(c).mbb.hi),
                    is_node: true,
                    id: c,
                });
            }
        }
        utk_rtree::NodeKind::Leaf { items } => {
            for &rid in items {
                if let Some(cur) = view.current_id(rid) {
                    heap.push(Entry {
                        key: key(&points[cur as usize]),
                        is_node: false,
                        id: cur as usize,
                    });
                }
            }
        }
    }
}

/// The list pass: screens `(key, id, point)` records in the order the
/// tree pass would pop them ([`pop_cmp`]; ids must be distinct, which
/// makes it total). The longest sorted prefix that matches `free.ids`
/// is admitted unscreened.
fn list_pass(
    screen: &mut BandScreen<'_>,
    mut items: Vec<(f64, u32, &[f64])>,
    free: FreePrefix<'_>,
    stats: &mut Stats,
) {
    // utk-lint: allow(float-cmp) -- pop_cmp is the deterministic total pop order (total_cmp inside)
    items.sort_by(|a, b| pop_cmp(a.0, a.1, b.0, b.1));
    let mut freeing = true;
    for (i, &(_, id, p)) in items.iter().enumerate() {
        freeing &= free.ids.get(i) == Some(&id);
        if freeing {
            free.admit(screen, i, p);
        } else if screen.screen(p, stats) {
            screen.admit_last(id, p);
        }
    }
}

/// Whether a fresh BBS run over `region` would reject a probe `p`
/// appended to the dataset, judged against the members of `cands`
/// alone: true iff at least `k` members that would pop *before* `p`
/// (heap key strictly greater under `total_cmp`, or equal — an
/// appended record carries the largest id, so every tie pops first)
/// r-dominate it.
///
/// This is the engine's **exact** insert-invalidation test for a
/// cached r-skyband. If it holds, a cold run on the grown dataset
/// admits exactly the cached member sequence and rejects `p` when it
/// pops (its pre-`p` dominators are all members, all already
/// admitted); if it fails, `p` joins the r-skyband (under the pivot
/// key; under the sum-key ablation it at least *may*), so the entry
/// must be dropped or repaired either way. The key and the pop order
/// are the heap's own, so there is no tolerance gap between this test
/// and a real run.
pub fn rejected_by_members(
    cands: &CandidateSet,
    p: &[f64],
    region: &Region,
    k: usize,
    pivot_order: bool,
) -> bool {
    // utk-lint: allow(panic) -- invariant: the engine rejects empty regions before filtering
    let pivot = region.pivot().expect("query region must be non-empty");
    let kp = heap_key(p, &pivot, pivot_order);
    if kp.is_nan() {
        // A NaN key pops last and is never r-dominated under the
        // screen's classification: a fresh run would admit it.
        return false;
    }
    let mut count = 0;
    for i in 0..cands.len() {
        let m = &cands.points[i];
        // `p` is appended last, so its id exceeds every member's.
        if pop_cmp(heap_key(m, &pivot, pivot_order), cands.ids[i], kp, u32::MAX).is_gt() {
            continue; // pops after p: cannot have been admitted yet
        }
        if crate::rdominance::r_dominance(m, p, region) == RDominance::Dominates {
            count += 1;
            if count >= k {
                return true;
            }
        }
    }
    false
}

/// The BBS heap key of a record: its score at `pivot` under the
/// paper's pivot order, or the coordinate sum under the ablation key.
/// The tree pass keys node top corners the same way.
fn heap_key(p: &[f64], pivot: &[f64], pivot_order: bool) -> f64 {
    if pivot_order {
        pref_score(p, pivot)
    } else {
        p.iter().sum()
    }
}

/// Record pop order under a heap key, mirroring [`Entry`]'s `Ord` bit
/// for bit: descending key via `total_cmp` with NaN keys last, ties to
/// the smaller id. `Less` means "pops earlier".
fn pop_cmp(ka: f64, ia: u32, kb: f64, ib: u32) -> std::cmp::Ordering {
    match (ka.is_nan(), kb.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => kb.total_cmp(&ka),
    }
    .then(ia.cmp(&ib))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdominance::r_dominance;
    use rand::prelude::*;

    fn brute_k_skyband(points: &[Vec<f64>], k: usize) -> Vec<u32> {
        (0..points.len())
            .filter(|&i| points.iter().filter(|q| dominates(q, &points[i])).count() < k)
            .map(|i| i as u32)
            .collect()
    }

    fn brute_r_skyband(points: &[Vec<f64>], region: &Region, k: usize) -> Vec<u32> {
        (0..points.len())
            .filter(|&i| {
                points
                    .iter()
                    .enumerate()
                    .filter(|(j, q)| {
                        *j != i && r_dominance(q, &points[i], region) == RDominance::Dominates
                    })
                    .count()
                    < k
            })
            .map(|i| i as u32)
            .collect()
    }

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect()
    }

    fn flat(points: &[Vec<f64>]) -> PointStore {
        PointStore::from_rows(points)
    }

    /// A cold run over a packed tree with the default kernel.
    fn tree_run(
        points: &PointStore,
        tree: &RTree,
        region: &Region,
        k: usize,
        pivot_order: bool,
        stats: &mut Stats,
    ) -> CandidateSet {
        let source = Source::Tree {
            points,
            view: TreeView::packed(tree),
        };
        r_skyband(
            source,
            region,
            k,
            pivot_order,
            ScreenKernel::default(),
            stats,
        )
        .unwrap()
    }

    #[test]
    fn k_skyband_matches_brute_force() {
        for k in [1, 2, 4] {
            let pts = random_points(300, 3, 21 + k as u64);
            let tree = RTree::bulk_load(&pts);
            let mut got = k_skyband(&pts, &tree, k, &mut Stats::new());
            got.sort_unstable();
            assert_eq!(got, brute_k_skyband(&pts, k), "k = {k}");
        }
    }

    #[test]
    fn r_skyband_matches_brute_force() {
        let region = Region::hyperrect(vec![0.1, 0.2], vec![0.3, 0.4]);
        for k in [1, 3] {
            let pts = random_points(250, 3, 31 + k as u64);
            let tree = RTree::bulk_load(&pts);
            let cs = tree_run(&flat(&pts), &tree, &region, k, true, &mut Stats::new());
            let mut got = cs.ids.clone();
            got.sort_unstable();
            assert_eq!(got, brute_r_skyband(&pts, &region, k), "k = {k}");
        }
    }

    #[test]
    fn r_skyband_subset_of_k_skyband() {
        let region = Region::hyperrect(vec![0.2, 0.1], vec![0.25, 0.2]);
        let pts = random_points(400, 3, 41);
        let tree = RTree::bulk_load(&pts);
        let mut stats = Stats::new();
        let sky: std::collections::HashSet<u32> =
            k_skyband(&pts, &tree, 3, &mut stats).into_iter().collect();
        let rsky = tree_run(&flat(&pts), &tree, &region, 3, true, &mut stats);
        assert!(rsky.ids.iter().all(|id| sky.contains(id)));
        assert!(rsky.len() <= sky.len());
    }

    #[test]
    fn graph_arcs_are_true_r_dominances() {
        let region = Region::hyperrect(vec![0.15, 0.15], vec![0.35, 0.3]);
        let pts = random_points(200, 3, 51);
        let tree = RTree::bulk_load(&pts);
        let cs = tree_run(&flat(&pts), &tree, &region, 4, true, &mut Stats::new());
        for v in 0..cs.len() as u32 {
            for &a in cs.graph.ancestors(v) {
                assert_eq!(
                    r_dominance(&cs.points[a as usize], &cs.points[v as usize], &region),
                    RDominance::Dominates
                );
            }
        }
    }

    #[test]
    fn graph_captures_all_arcs_among_members() {
        // The BBS-order argument: every r-dominance pair among members
        // must appear as an ancestor relation.
        let region = Region::hyperrect(vec![0.1, 0.1], vec![0.2, 0.3]);
        let pts = random_points(150, 3, 61);
        let tree = RTree::bulk_load(&pts);
        let cs = tree_run(&flat(&pts), &tree, &region, 3, true, &mut Stats::new());
        for a in 0..cs.len() as u32 {
            for b in 0..cs.len() as u32 {
                if a != b
                    && r_dominance(&cs.points[a as usize], &cs.points[b as usize], &region)
                        == RDominance::Dominates
                {
                    assert!(cs.graph.ancestors(b).contains(&a), "missing arc {a} → {b}");
                }
            }
        }
    }

    #[test]
    fn ordering_ablation_gives_superset() {
        // The coordinate-sum key misses dominators that pop late, so
        // its output is a (typically strict) superset of the true
        // r-skyband; the pivot key is exact.
        let region = Region::hyperrect(vec![0.1, 0.25], vec![0.2, 0.35]);
        let pts = random_points(300, 3, 71);
        let tree = RTree::bulk_load(&pts);
        let a = tree_run(&flat(&pts), &tree, &region, 5, true, &mut Stats::new());
        let b = tree_run(&flat(&pts), &tree, &region, 5, false, &mut Stats::new());
        let mut ia = a.ids.clone();
        ia.sort_unstable();
        assert_eq!(ia, brute_r_skyband(&pts, &region, 5));
        let ib: std::collections::HashSet<u32> = b.ids.iter().copied().collect();
        assert!(ia.iter().all(|id| ib.contains(id)), "must stay a superset");
        // And any arcs it does record are true dominances.
        for v in 0..b.len() as u32 {
            for &anc in b.graph.ancestors(v) {
                assert_eq!(
                    r_dominance(&b.points[anc as usize], &b.points[v as usize], &region),
                    RDominance::Dominates
                );
            }
        }
    }

    #[test]
    fn ablation_order_exercises_prefix_cut() {
        // Under the coordinate-sum key, admission order and pivot
        // order disagree, so the pivot-score prefix cut skips real
        // work; under the pivot key the prefix is the whole list.
        let region = Region::hyperrect(vec![0.05, 0.3], vec![0.1, 0.45]);
        let pts = random_points(400, 3, 91);
        let tree = RTree::bulk_load(&pts);
        let mut ablation_stats = Stats::new();
        tree_run(&flat(&pts), &tree, &region, 6, false, &mut ablation_stats);
        assert!(
            ablation_stats.screen_prefix_skips > 0,
            "sum-key ordering must trigger prefix skips"
        );
        let mut pivot_stats = Stats::new();
        tree_run(&flat(&pts), &tree, &region, 6, true, &mut pivot_stats);
        assert_eq!(
            pivot_stats.screen_prefix_skips, 0,
            "pivot order already delivers the prefix invariant"
        );
    }

    #[test]
    fn k1_r_skyband_members_have_no_dominators() {
        let region = Region::hyperrect(vec![0.3, 0.1], vec![0.4, 0.2]);
        let pts = random_points(200, 3, 81);
        let tree = RTree::bulk_load(&pts);
        let cs = tree_run(&flat(&pts), &tree, &region, 1, true, &mut Stats::new());
        for v in 0..cs.len() as u32 {
            assert!(cs.graph.ancestors(v).is_empty());
        }
    }

    #[test]
    fn nan_keys_degrade_instead_of_aborting() {
        // Regression: the BBS heap `Ord` used to panic on non-finite
        // keys. A record poisoned to NaN *after* tree construction
        // (stale but finite MBBs) must neither panic nor disturb the
        // finite records' skyband — NaN probes order last and admit
        // harmlessly (they never dominate and are never dominated).
        let region = Region::hyperrect(vec![0.1, 0.1], vec![0.3, 0.3]);
        let mut pts = random_points(120, 3, 101);
        let tree = RTree::bulk_load(&pts);
        let poisoned = 17;
        pts[poisoned][1] = f64::NAN;
        let cs = tree_run(&flat(&pts), &tree, &region, 3, true, &mut Stats::new());
        // Finite-only reference (drop the poisoned record).
        let finite: Vec<Vec<f64>> = pts
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != poisoned)
            .map(|(_, p)| p.clone())
            .collect();
        let want: std::collections::HashSet<Vec<u64>> = brute_r_skyband(&finite, &region, 3)
            .into_iter()
            .map(|i| finite[i as usize].iter().map(|x| x.to_bits()).collect())
            .collect();
        let got: std::collections::HashSet<Vec<u64>> = cs
            .ids
            .iter()
            .filter(|&&id| id as usize != poisoned)
            .map(|&id| pts[id as usize].iter().map(|x| x.to_bits()).collect())
            .collect();
        assert_eq!(got, want, "finite sub-skyband must be preserved");
    }

    #[test]
    fn superset_rescreen_is_byte_identical_to_cold() {
        let outer = Region::hyperrect(vec![0.05, 0.05], vec![0.4, 0.4]);
        let inner = Region::hyperrect(vec![0.1, 0.15], vec![0.25, 0.3]);
        assert!(outer.contains_region(&inner));
        for k in [1, 2, 5] {
            let pts = random_points(350, 3, 200 + k as u64);
            let tree = RTree::bulk_load(&pts);
            let store = flat(&pts);
            let sup = tree_run(&store, &tree, &outer, k, true, &mut Stats::new());
            let mut cold_stats = Stats::new();
            let cold = tree_run(&store, &tree, &inner, k, true, &mut cold_stats);
            let mut warm_stats = Stats::new();
            let warm = r_skyband(
                Source::Superset(&sup),
                &inner,
                k,
                true,
                ScreenKernel::default(),
                &mut warm_stats,
            )
            .unwrap();
            assert_eq!(warm, cold, "k = {k}");
            assert_eq!(warm_stats.candidates, cold_stats.candidates);
            assert!(
                warm_stats.rdom_tests <= cold_stats.rdom_tests,
                "re-screen must not do more dominance work (k = {k}: {} vs {})",
                warm_stats.rdom_tests,
                cold_stats.rdom_tests
            );
        }
    }

    #[test]
    fn superset_rescreen_identical_on_pivot_score_ties() {
        // Exact-duplicate records produce bitwise-equal pivot scores
        // spanning leaf boundaries — the tie case where pop order is
        // decided purely by the Entry tie-break (nodes before
        // records, then ascending id). The re-screen must still
        // reproduce cold admission order byte for byte.
        let outer = Region::hyperrect(vec![0.05, 0.05], vec![0.4, 0.4]);
        let inner = Region::hyperrect(vec![0.1, 0.12], vec![0.3, 0.28]);
        let mut pts = random_points(200, 3, 401);
        for i in 0..60 {
            pts[3 * i] = vec![0.8, 0.8, 0.8]; // 60 duplicates, ids spread out
        }
        let tree = RTree::bulk_load(&pts);
        let store = flat(&pts);
        for k in [2, 8, 65] {
            let sup = tree_run(&store, &tree, &outer, k, true, &mut Stats::new());
            let cold = tree_run(&store, &tree, &inner, k, true, &mut Stats::new());
            let warm = r_skyband(
                Source::Superset(&sup),
                &inner,
                k,
                true,
                ScreenKernel::default(),
                &mut Stats::new(),
            )
            .unwrap();
            assert_eq!(warm, cold, "k = {k}");
        }
    }

    #[test]
    fn overlay_view_is_byte_identical_to_a_fresh_tree() {
        // Delete a third of the records and append a handful, then
        // answer through the stale base tree + remap/extra overlay:
        // the candidate set must equal a cold run over a tree built
        // from scratch on the live data — ids, points and graph.
        let region = Region::hyperrect(vec![0.1, 0.1], vec![0.35, 0.3]);
        let base = random_points(240, 3, 501);
        let base_tree = RTree::bulk_load(&base);
        let appended = random_points(15, 3, 502);
        for k in [1, 3, 6] {
            let mut remap = vec![TOMBSTONE; base.len()];
            let mut live: Vec<Vec<f64>> = Vec::new();
            for (i, p) in base.iter().enumerate() {
                if i % 3 == 0 {
                    continue; // deleted
                }
                remap[i] = live.len() as u32;
                live.push(p.clone());
            }
            let extra: Vec<u32> = (0..appended.len() as u32)
                .map(|i| live.len() as u32 + i)
                .collect();
            live.extend(appended.iter().cloned());
            let store = flat(&live);

            let fresh_tree = RTree::bulk_load(&live);
            let cold = tree_run(&store, &fresh_tree, &region, k, true, &mut Stats::new());
            let view = TreeView::overlay(&base_tree, Some(&remap), &extra);
            let warm = r_skyband(
                Source::Tree {
                    points: &store,
                    view,
                },
                &region,
                k,
                true,
                ScreenKernel::default(),
                &mut Stats::new(),
            )
            .unwrap();
            assert_eq!(warm, cold, "k = {k}");
            // The sum-key ablation must agree with its own fresh run
            // too (the tree-independence argument does not depend on
            // the key bounding dominance).
            let cold_sum = tree_run(&store, &fresh_tree, &region, k, false, &mut Stats::new());
            let warm_sum = r_skyband(
                Source::Tree {
                    points: &store,
                    view,
                },
                &region,
                k,
                false,
                ScreenKernel::default(),
                &mut Stats::new(),
            )
            .unwrap();
            assert_eq!(warm_sum, cold_sum, "sum key, k = {k}");
        }
    }

    #[test]
    fn rejected_by_members_predicts_fresh_membership_exactly() {
        // Under the pivot key, the invalidation predicate must agree
        // with ground truth: an appended probe stays out of the fresh
        // r-skyband iff ≥ k earlier-popping members dominate it.
        let region = Region::hyperrect(vec![0.1, 0.15], vec![0.3, 0.35]);
        let pts = random_points(200, 3, 601);
        let tree = RTree::bulk_load(&pts);
        let probes = random_points(40, 3, 602);
        for k in [1, 2, 4] {
            let cands = tree_run(&flat(&pts), &tree, &region, k, true, &mut Stats::new());
            for p in &probes {
                let rejected = rejected_by_members(&cands, p, &region, k, true);
                let mut grown = pts.clone();
                grown.push(p.clone());
                let grown_tree = RTree::bulk_load(&grown);
                let fresh = tree_run(
                    &flat(&grown),
                    &grown_tree,
                    &region,
                    k,
                    true,
                    &mut Stats::new(),
                );
                let admitted = fresh.ids.contains(&(pts.len() as u32));
                assert_eq!(rejected, !admitted, "k = {k}, probe {p:?}");
            }
        }
    }

    #[test]
    fn insert_splice_repair_is_byte_identical_to_cold() {
        // Insert-only mutations: the no-traversal merge repair must
        // reproduce a cold run on the grown dataset byte for byte —
        // including inserts strong enough to evict old members, and
        // under both heap keys.
        let region = Region::hyperrect(vec![0.1, 0.15], vec![0.3, 0.35]);
        for (k, pivot_order) in [(1, true), (3, true), (2, false), (5, false)] {
            let pts = random_points(250, 3, 700 + k as u64);
            let tree = RTree::bulk_load(&pts);
            let old = tree_run(
                &flat(&pts),
                &tree,
                &region,
                k,
                pivot_order,
                &mut Stats::new(),
            );
            let mut grown = pts.clone();
            grown.extend(random_points(12, 3, 800 + k as u64));
            grown.push(vec![0.95, 0.95, 0.95]); // dominant: must evict
            let store = flat(&grown);
            let live: Vec<u32> = (pts.len() as u32..grown.len() as u32)
                .filter(|&id| {
                    !rejected_by_members(&old, &grown[id as usize], &region, k, pivot_order)
                })
                .collect();
            assert!(!live.is_empty(), "fixture must exercise the splice");
            let grown_tree = RTree::bulk_load(&grown);
            let mut cold_stats = Stats::new();
            let cold = tree_run(
                &store,
                &grown_tree,
                &region,
                k,
                pivot_order,
                &mut cold_stats,
            );
            let mut repair_stats = Stats::new();
            let source = Source::Repair {
                old: &old,
                old_ids_new: &old.ids,
                live_inserts: &live,
                points: &store,
                view: TreeView::packed(&grown_tree),
            };
            let kernel = ScreenKernel::default();
            let got = r_skyband(source, &region, k, pivot_order, kernel, &mut repair_stats)
                .expect("repair applies");
            assert_eq!(got, cold, "k = {k}, pivot_order = {pivot_order}");
            assert!(
                repair_stats.rdom_tests < cold_stats.rdom_tests,
                "repair must screen less than a cold run (k = {k}: {} vs {})",
                repair_stats.rdom_tests,
                cold_stats.rdom_tests
            );
        }
    }

    #[test]
    fn delete_splice_repair_is_byte_identical_to_cold() {
        // Member deletions (mixed with non-member deletes and
        // inserts): the free-prefix BBS repair must reproduce a cold
        // run over the renumbered dataset byte for byte, through both
        // a fresh tree and a stale-overlay view.
        let region = Region::hyperrect(vec![0.1, 0.1], vec![0.32, 0.3]);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(900);
        let (mut total_repair_tests, mut total_cold_tests) = (0usize, 0usize);
        for round in 0..12 {
            let k = [1, 2, 4][round % 3];
            let pivot_order = round % 2 == 0;
            let pts = random_points(220, 3, 1000 + round as u64);
            let tree = RTree::bulk_load(&pts);
            let old = tree_run(
                &flat(&pts),
                &tree,
                &region,
                k,
                pivot_order,
                &mut Stats::new(),
            );
            if old.len() < 3 {
                continue;
            }
            // Victims: one mid member, one late member, one random
            // non-member; inserts: a couple of ordinary records.
            let mut deleted = vec![false; pts.len()];
            deleted[old.ids[old.len() / 3] as usize] = true;
            deleted[old.ids[old.len() - 1] as usize] = true;
            loop {
                let v = rng.gen_range(0..pts.len());
                if !deleted[v] && !old.ids.contains(&(v as u32)) {
                    deleted[v] = true;
                    break;
                }
            }
            let inserts = random_points(4, 3, 2000 + round as u64);
            let mut shift = vec![TOMBSTONE; pts.len()];
            let mut live_pts: Vec<Vec<f64>> = Vec::new();
            for (i, p) in pts.iter().enumerate() {
                if !deleted[i] {
                    shift[i] = live_pts.len() as u32;
                    live_pts.push(p.clone());
                }
            }
            let first_inserted = live_pts.len() as u32;
            live_pts.extend(inserts.iter().cloned());
            let store = flat(&live_pts);
            let old_ids_new: Vec<u32> = old.ids.iter().map(|&id| shift[id as usize]).collect();
            let live_inserts: Vec<u32> = (first_inserted..live_pts.len() as u32)
                .filter(|&id| {
                    !rejected_by_members(&old, &live_pts[id as usize], &region, k, pivot_order)
                })
                .collect();

            let fresh_tree = RTree::bulk_load(&live_pts);
            let mut cold_stats = Stats::new();
            let cold = tree_run(
                &store,
                &fresh_tree,
                &region,
                k,
                pivot_order,
                &mut cold_stats,
            );
            let mut repair_stats = Stats::new();
            let source = Source::Repair {
                old: &old,
                old_ids_new: &old_ids_new,
                live_inserts: &live_inserts,
                points: &store,
                view: TreeView::packed(&fresh_tree),
            };
            let kernel = ScreenKernel::default();
            let got = r_skyband(source, &region, k, pivot_order, kernel, &mut repair_stats)
                .expect("repair applies");
            assert_eq!(got, cold, "round {round} (fresh tree)");
            total_repair_tests += repair_stats.rdom_tests;
            total_cold_tests += cold_stats.rdom_tests;

            // Same repair through the stale base tree + overlay.
            let extra: Vec<u32> = (first_inserted..live_pts.len() as u32).collect();
            let overlay = TreeView::overlay(&tree, Some(&shift), &extra);
            let source = Source::Repair {
                old: &old,
                old_ids_new: &old_ids_new,
                live_inserts: &live_inserts,
                points: &store,
                view: overlay,
            };
            let got_overlay = r_skyband(source, &region, k, pivot_order, kernel, &mut Stats::new())
                .expect("repair applies through the overlay");
            assert_eq!(got_overlay, cold, "round {round} (overlay view)");
        }
        // Per-round savings depend on where the victims sat in pop
        // order (an early victim can make the free prefix empty), but
        // across the workload repair must do strictly less screening.
        assert!(
            total_repair_tests < total_cold_tests,
            "repair must screen less in aggregate ({total_repair_tests} vs {total_cold_tests})"
        );
    }

    #[test]
    fn work_counters_are_pinned_per_source() {
        // One seeded query through each source, default kernel. The
        // expected values were recorded before the five sources shared
        // one driver; a change means the pop order or the screen
        // protocol moved. Repairs pin what `repair_screens` reads.
        let region = Region::hyperrect(vec![0.1, 0.15], vec![0.3, 0.35]);
        let inner = Region::hyperrect(vec![0.15, 0.2], vec![0.25, 0.3]);
        let (k, kernel) = (6, ScreenKernel::default());
        let pts = random_points(600, 3, 1200);
        let tree = RTree::bulk_load(&pts);
        let tree_work = |s: &Stats| {
            [
                s.bbs_pops,
                s.rdom_tests,
                s.kernel_blocks,
                s.screen_prefix_skips,
                s.candidates,
            ]
        };
        let repair_work = |s: &Stats| [s.rdom_tests, s.kernel_blocks];

        let mut s = Stats::new();
        let cold = tree_run(&flat(&pts), &tree, &region, k, true, &mut s);
        assert_eq!(tree_work(&s), [157, 1219, 161, 0, 14], "packed tree");

        let mut s = Stats::new();
        r_skyband(Source::Superset(&cold), &inner, k, true, kernel, &mut s).unwrap();
        assert_eq!(tree_work(&s), [0, 76, 13, 0, 8], "superset");

        // Insert-only: a few ordinary records and one that must evict.
        let mut grown = pts.clone();
        grown.extend(random_points(10, 3, 1201));
        grown.push(vec![0.95, 0.95, 0.95]);
        let live: Vec<u32> = (pts.len() as u32..grown.len() as u32)
            .filter(|&id| !rejected_by_members(&cold, &grown[id as usize], &region, k, true))
            .collect();
        assert!(!live.is_empty(), "fixture must exercise the splice");
        let extra: Vec<u32> = (pts.len() as u32..grown.len() as u32).collect();
        let source = Source::Repair {
            old: &cold,
            old_ids_new: &cold.ids,
            live_inserts: &live,
            points: &flat(&grown),
            view: TreeView::overlay(&tree, None, &extra),
        };
        let mut s = Stats::new();
        r_skyband(source, &region, k, true, kernel, &mut s).expect("insert repair applies");
        assert_eq!(repair_work(&s), [86, 16], "insert-only repair");

        // Member delete: the middle member, every seventh non-member,
        // and three appended records, read through the stale tree.
        let victim = cold.ids[cold.len() / 2];
        let mut shift = vec![TOMBSTONE; pts.len()];
        let mut live_pts: Vec<Vec<f64>> = Vec::new();
        for (i, p) in pts.iter().enumerate() {
            let member = cold.ids.contains(&(i as u32));
            if i as u32 != victim && (member || i % 7 != 0) {
                shift[i] = live_pts.len() as u32;
                live_pts.push(p.clone());
            }
        }
        let first_inserted = live_pts.len() as u32;
        live_pts.extend(random_points(3, 3, 1202));
        let store = flat(&live_pts);
        let extra: Vec<u32> = (first_inserted..live_pts.len() as u32).collect();
        let view = TreeView::overlay(&tree, Some(&shift), &extra);

        let mut s = Stats::new();
        let source = Source::Tree {
            points: &store,
            view,
        };
        r_skyband(source, &region, k, true, kernel, &mut s).unwrap();
        assert_eq!(tree_work(&s), [140, 1083, 144, 0, 13], "overlay tree");

        let old_ids_new: Vec<u32> = cold.ids.iter().map(|&id| shift[id as usize]).collect();
        let live: Vec<u32> = extra
            .iter()
            .copied()
            .filter(|&id| !rejected_by_members(&cold, &live_pts[id as usize], &region, k, true))
            .collect();
        let source = Source::Repair {
            old: &cold,
            old_ids_new: &old_ids_new,
            live_inserts: &live,
            points: &store,
            view,
        };
        let mut s = Stats::new();
        r_skyband(source, &region, k, true, kernel, &mut s).expect("delete repair applies");
        assert_eq!(repair_work(&s), [1059, 137], "member-delete repair");
    }

    #[test]
    fn vertexless_region_takes_the_scratch_path() {
        // A region built from raw constraints has no vertex list: the
        // screen must fall back to the allocation-free affine-delta
        // test and still match brute force.
        let boxy = Region::hyperrect(vec![0.1, 0.2], vec![0.3, 0.4]);
        let raw = Region::from_constraints(2, boxy.constraints().to_vec());
        assert!(raw.vertex_store(CORNER_CAP).is_none());
        let pts = random_points(200, 3, 301);
        let tree = RTree::bulk_load(&pts);
        let cs = tree_run(&flat(&pts), &tree, &raw, 3, true, &mut Stats::new());
        let mut got = cs.ids.clone();
        got.sort_unstable();
        assert_eq!(got, brute_r_skyband(&pts, &boxy, 3));
    }
}
