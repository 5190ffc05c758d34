//! JAA — the joint-arrangement algorithm for UTK2 (§5 of the paper).
//!
//! JAA shares RSA's filtering step but refines differently: it grows a
//! single *common global arrangement* of `R`. An **anchor** candidate
//! partitions the current region via the half-spaces of its minimal
//! competitors; every resulting partition is classified as
//!
//! * **equal-to** — the anchor ranks exactly k-th, the top-k set is
//!   fully known: the partition is finalized in the output;
//! * **less-than** — the anchor ranks `k′ < k`-th: the top-`k′` prefix
//!   is known, a new anchor (the k-th scorer at a drill vector, §5.1)
//!   recursively resolves the remaining `k − k′` slots;
//! * **greater-than** — at least `k` competitors cover the partition:
//!   the anchor is out; a new anchor restarts the partition (ignoring
//!   the old anchor and its graph descendants);
//! * unclassifiable (Lemma 1 cannot yet confirm the rank) — recurse
//!   on the same anchor with the next competitor batch.
//!
//! The recursion's leaf partitions — all equal-to — tile `R` and form
//! the UTK2 answer: the exact top-k set for every possible weight
//! vector in `R`.
//!
//! The recursion is materialized as an explicit task model
//! ([`PartitionTask`]/[`expand`]): a task is one `Partition` call,
//! its children are the leaves needing further work. The sequential
//! driver runs tasks depth-first on one thread; the parallel driver
//! ([`jaa_parallel`], or [`crate::engine::UtkQuery::parallel`] on an
//! engine) work-steals them across a
//! [`crate::parallel::ThreadPool`]. Both produce cell-for-cell
//! identical output: tasks are pure functions of their inputs, and
//! cells are tagged with their position in the partition tree and
//! sorted back into depth-first order.

use crate::drill::graph_top_k;
use crate::parallel::ThreadPool;
use crate::skyband::{prefilter, CandidateSet, Prefilter};
use crate::stats::Stats;
use std::sync::{Arc, Mutex};
use utk_geom::{Arrangement, CellId, Region};
use utk_rtree::RTree;

/// Tuning/ablation switches for JAA.
#[derive(Debug, Clone)]
pub struct JaaOptions {
    /// Pivot-score BBS ordering for the filter step (§4.1).
    pub pivot_order: bool,
    /// The §5.1 anchor strategy: the *k-th* scorer at the drill
    /// vector (guarantees an equal-to partition). Off picks the top-1
    /// scorer instead — still correct, but finalizes nothing directly
    /// (the paper's "poorly chosen anchor" scenario, for ablation).
    pub kth_anchor: bool,
}

impl Default for JaaOptions {
    fn default() -> Self {
        Self {
            pivot_order: true,
            kth_anchor: true,
        }
    }
}

/// One finalized partition of `R` with its exact top-k set.
#[derive(Debug, Clone)]
pub struct Utk2Cell {
    /// The partition's geometry (R's constraints plus the half-space
    /// sides accumulated along the recursion).
    pub region: Region,
    /// A point strictly inside the partition.
    pub interior: Vec<f64>,
    /// The exact top-k set (dataset ids, ascending) for every weight
    /// vector inside the partition.
    pub top_k: Vec<u32>,
}

/// UTK2 output: the partitioning of `R`.
#[derive(Debug, Clone)]
pub struct Utk2Result {
    /// Finalized partitions tiling `R`.
    pub cells: Vec<Utk2Cell>,
    /// Union of all top-k sets (equals the UTK1 answer), ascending.
    pub records: Vec<u32>,
    /// Work counters.
    pub stats: Stats,
}

impl Utk2Result {
    /// Number of partitions — the paper's "number of top-k sets"
    /// output-size metric.
    pub fn num_partitions(&self) -> usize {
        self.cells.len()
    }

    /// Number of *distinct* top-k sets across partitions.
    pub fn num_distinct_sets(&self) -> usize {
        let mut sets: Vec<&[u32]> = self.cells.iter().map(|c| c.top_k.as_slice()).collect();
        sets.sort_unstable();
        sets.dedup();
        sets.len()
    }

    /// The cell containing `w`, if any (boundary points may match the
    /// first of several adjacent cells).
    pub fn cell_containing(&self, w: &[f64]) -> Option<&Utk2Cell> {
        self.cells.iter().find(|c| c.region.contains(w))
    }
}

/// Runs UTK2 via JAA, building a fresh R-tree over `points`.
///
/// Legacy convenience: panics on malformed input and rebuilds all
/// per-dataset state from scratch. Prefer [`crate::engine::UtkEngine`],
/// which returns typed errors and reuses the index and the r-skyband
/// across queries.
pub fn jaa(points: &[Vec<f64>], region: &Region, k: usize, opts: &JaaOptions) -> Utk2Result {
    let tree = RTree::bulk_load(points);
    jaa_with_tree(points, &tree, region, k, opts)
}

/// Runs UTK2 via JAA over a pre-built index.
pub fn jaa_with_tree(
    points: &[Vec<f64>],
    tree: &RTree,
    region: &Region,
    k: usize,
    opts: &JaaOptions,
) -> Utk2Result {
    jaa_driver(
        points,
        tree,
        region,
        k,
        opts,
        |cands, interior, slack, stats| {
            jaa_refine(&cands, region, &interior, slack, k, opts, stats)
        },
    )
}

/// Runs UTK2 via JAA with the partition refinement fanned out over
/// `threads` worker threads (0 = one per available core). Builds a
/// fresh R-tree *and a fresh one-shot pool*; cell-for-cell identical
/// to [`jaa`].
///
/// Legacy convenience: panics on malformed input. Prefer
/// [`crate::engine::UtkEngine`] with
/// [`crate::engine::UtkQuery::parallel`], which returns typed errors
/// and runs on the engine's persistent pool instead of constructing
/// one per query.
pub fn jaa_parallel(
    points: &[Vec<f64>],
    region: &Region,
    k: usize,
    opts: &JaaOptions,
    threads: usize,
) -> Utk2Result {
    let tree = RTree::bulk_load(points);
    jaa_driver(
        points,
        &tree,
        region,
        k,
        opts,
        |cands, interior, slack, stats| {
            let pool = ThreadPool::new(threads);
            jaa_parallel_refine(
                &Arc::new(cands),
                region,
                &interior,
                slack,
                k,
                opts,
                &pool,
                stats,
            )
        },
    )
}

/// The shared JAA pipeline: validate, prefilter, handle the
/// degenerate/trivial shortcuts, and hand real work to `refine` (the
/// sequential worklist or a pool driver). One body keeps the two
/// entry points incapable of diverging anywhere but the refine step.
fn jaa_driver<F>(
    points: &[Vec<f64>],
    tree: &RTree,
    region: &Region,
    k: usize,
    opts: &JaaOptions,
    refine: F,
) -> Utk2Result
where
    F: FnOnce(CandidateSet, Vec<f64>, f64, &mut Stats) -> Vec<Utk2Cell>,
{
    assert!(k >= 1, "k must be positive");
    let d = points[0].len();
    crate::rsa::validate_region(region, d - 1);
    let mut stats = Stats::new();
    let cells = match prefilter(points, tree, region, k, opts.pivot_order, &mut stats) {
        // Degenerate R: a single top-k query answers UTK2 with one
        // all-covering cell.
        Prefilter::Degenerate { w, top_k } => vec![Utk2Cell {
            region: region.clone(),
            interior: w,
            top_k,
        }],
        Prefilter::Trivial { ids, interior } => vec![Utk2Cell {
            region: region.clone(),
            interior,
            top_k: ids,
        }],
        Prefilter::Refine {
            cands,
            interior,
            slack,
        } => refine(cands, interior, slack, &mut stats),
    };
    let records = records_of(&cells);
    Utk2Result {
        cells,
        records,
        stats,
    }
}

/// Sorted, deduplicated union of the cells' top-k sets (the implied
/// UTK1 answer).
pub(crate) fn records_of(cells: &[Utk2Cell]) -> Vec<u32> {
    let mut records: Vec<u32> = cells.iter().flat_map(|c| c.top_k.iter().copied()).collect();
    records.sort_unstable();
    records.dedup();
    records
}

/// One pending `Partition` call (Algorithm 4) in the explicit task
/// model: everything the call needs, owned, so tasks can run on any
/// worker of a [`ThreadPool`] — or one at a time on the caller.
///
/// `path` is the task's position in the partition tree (the leaf
/// index at every split along the way). Paths are prefix-free across
/// finalized cells, and their lexicographic order equals the
/// depth-first order of the original recursion — sorting cells by
/// path makes the output independent of execution order, so the
/// parallel driver is cell-for-cell identical to the sequential one.
struct PartitionTask {
    anchor: u32,
    region: Region,
    interior: Vec<f64>,
    slack: f64,
    quota: usize,
    excluded: Vec<bool>,
    known_above: Vec<u32>,
    path: Vec<u32>,
}

/// Builds the root task: the §5.1 initial anchor (k-th scorer at R's
/// pivot) over the whole region.
fn root_task(
    cands: &CandidateSet,
    k: usize,
    opts: &JaaOptions,
    stats: &mut Stats,
    region: &Region,
    interior: &[f64],
    slack: f64,
) -> PartitionTask {
    let n = cands.len();
    // utk-lint: allow(panic) -- invariant: the engine rejects empty regions before partitioning
    let pivot = region.pivot().expect("non-empty region");
    stats.drills += 1;
    let top = crate::obs::span(crate::obs::Phase::Drill, || {
        graph_top_k(cands, &pivot, k, &vec![false; n])
    });
    debug_assert_eq!(top.len(), k);
    let anchor = if opts.kth_anchor { top[k - 1] } else { top[0] };
    let mut excluded = vec![false; n];
    excluded[anchor as usize] = true;
    let known_above: Vec<u32> = cands.graph.ancestors(anchor).to_vec();
    for &a in &known_above {
        excluded[a as usize] = true;
    }
    for &v in cands.graph.descendants(anchor) {
        excluded[v as usize] = true;
    }
    let quota = k - known_above.len();
    PartitionTask {
        anchor,
        region: region.clone(),
        interior: interior.to_vec(),
        slack,
        quota,
        excluded,
        known_above,
        path: Vec::new(),
    }
}

/// Executes one `Partition` call: builds the anchor's arrangement over
/// the task's region, finalizes equal-to leaves into `out` (tagged
/// with their path), and emits one child task per leaf that needs
/// further work. Pure function of the task — the sequential worklist
/// and the pool driver share it, which is what makes them provably
/// equivalent.
#[allow(clippy::too_many_arguments)]
fn expand(
    cands: &CandidateSet,
    k: usize,
    opts: &JaaOptions,
    none_removed: &[bool],
    stats: &mut Stats,
    mut task: PartitionTask,
    out: &mut Vec<(Vec<u32>, Utk2Cell)>,
    children: &mut Vec<PartitionTask>,
) {
    debug_assert!(task.quota >= 1);
    debug_assert_eq!(
        task.known_above.len() + task.quota,
        k,
        "rank bookkeeping broke"
    );
    assert!(task.path.len() < 10_000, "partition recursion runaway");
    let n = cands.len();
    debug_assert_eq!(none_removed.len(), n);

    // Insert the half-spaces of the minimal-count competitors.
    let batch: Vec<u32> = cands.graph.minimal_competitors(&task.excluded);
    let (arr, bytes) = crate::obs::span(crate::obs::Phase::Arrange, || {
        let mut arr =
            Arrangement::with_interior(task.region.clone(), task.interior.clone(), task.slack);
        stats.arrangements_built += 1;
        let anchor_pt = &cands.points[task.anchor as usize];
        let anchor_id = cands.ids[task.anchor as usize];
        for &q in &batch {
            let hs = crate::rdominance::outranks_halfspace(
                &cands.points[q as usize],
                cands.ids[q as usize],
                anchor_pt,
                anchor_id,
            );
            arr.insert(hs, q);
            stats.halfspaces_inserted += 1;
            // Count ≥ quota ⇒ greater-than regardless of later
            // insertions (§5: no Lemma-1 confirmation needed): stop
            // splitting them.
            let dead: Vec<CellId> = arr
                .live_cells()
                .filter(|(_, c)| c.count() >= task.quota)
                .map(|(id, _)| id)
                .collect();
            for id in dead {
                arr.prune(id);
            }
        }
        stats.count_arrangement(&arr);
        let bytes = arr.approx_bytes();
        stats.arrangement_grew(bytes);
        (arr, bytes)
    });

    // The task owns `excluded`: mark the inserted batch once, no
    // restore needed (children that must not see it build fresh sets).
    for &q in &batch {
        task.excluded[q as usize] = true;
    }

    // Classify every leaf partition.
    let leaves: Vec<CellId> = arr.leaf_cells().map(|(id, _)| id).collect();
    for (li, cid) in leaves.into_iter().enumerate() {
        let cell = arr.cell(cid);
        let cnt = cell.count();
        let covered: Vec<u32> = cell.covered().iter().map(|&h| arr.tag(h)).collect();
        let mut path = task.path.clone();
        path.push(li as u32);

        if cnt >= task.quota {
            // Greater-than: restart with a fresh anchor, ignoring the
            // old anchor and its descendants.
            stats.drills += 1;
            let top = crate::obs::span(crate::obs::Phase::Drill, || {
                graph_top_k(cands, cell.interior(), k, none_removed)
            });
            let new_anchor = if opts.kth_anchor { top[k - 1] } else { top[0] };
            debug_assert_ne!(new_anchor, task.anchor);
            let mut fresh = vec![false; n];
            fresh[task.anchor as usize] = true;
            for &v in cands.graph.descendants(task.anchor) {
                fresh[v as usize] = true;
            }
            fresh[new_anchor as usize] = true;
            let known: Vec<u32> = cands.graph.ancestors(new_anchor).to_vec();
            for &a in &known {
                fresh[a as usize] = true;
            }
            for &v in cands.graph.descendants(new_anchor) {
                fresh[v as usize] = true;
            }
            children.push(PartitionTask {
                anchor: new_anchor,
                region: cell.region().clone(),
                interior: cell.interior().to_vec(),
                slack: cell.slack(),
                quota: k - known.len(),
                excluded: fresh,
                known_above: known,
                path,
            });
            continue;
        }

        // Lemma-1 confirmation: which non-excluded competitors could
        // still induce half-spaces overlapping this partition?
        let mut outside_tag = vec![false; n];
        for &h in cell.outside() {
            outside_tag[arr.tag(h) as usize] = true;
        }
        let mut disregarded = Vec::new();
        let mut remaining = false;
        for q in 0..n as u32 {
            if task.excluded[q as usize] {
                continue;
            }
            if cands
                .graph
                .ancestors(q)
                .iter()
                .any(|&a| outside_tag[a as usize])
            {
                disregarded.push(q);
            } else {
                remaining = true;
            }
        }

        if !remaining {
            // Rank confirmed: cnt + 1 relative to quota.
            if cnt + 1 == task.quota {
                // Equal-to: finalize.
                let mut top_k: Vec<u32> = task
                    .known_above
                    .iter()
                    .chain(covered.iter())
                    .chain(std::iter::once(&task.anchor))
                    .map(|&ci| cands.ids[ci as usize])
                    .collect();
                debug_assert_eq!(top_k.len(), k, "equal-to cell must know k records");
                top_k.sort_unstable();
                out.push((
                    path,
                    Utk2Cell {
                        region: cell.region().clone(),
                        interior: cell.interior().to_vec(),
                        top_k,
                    },
                ));
            } else {
                // Less-than: the top-k′ prefix is known; a new anchor
                // resolves the remaining slots.
                let mut itop: Vec<u32> = task.known_above.clone();
                itop.extend_from_slice(&covered);
                itop.push(task.anchor);
                let k_prime = itop.len();
                debug_assert!(k_prime < k);
                let new_anchor = {
                    stats.drills += 1;
                    let top = crate::obs::span(crate::obs::Phase::Drill, || {
                        graph_top_k(cands, cell.interior(), k, none_removed)
                    });
                    if opts.kth_anchor {
                        top[k - 1]
                    } else {
                        top[k_prime] // best scorer outside the prefix
                    }
                };
                debug_assert!(!itop.contains(&new_anchor));
                let mut fresh = vec![false; n];
                for &v in &itop {
                    fresh[v as usize] = true;
                }
                fresh[new_anchor as usize] = true;
                for &v in cands.graph.descendants(new_anchor) {
                    fresh[v as usize] = true;
                }
                // Ancestors of the new anchor outside Itop are plain
                // competitors (their half-spaces cover everything and
                // simply raise counts), exactly as in Algorithm 4.
                children.push(PartitionTask {
                    anchor: new_anchor,
                    region: cell.region().clone(),
                    interior: cell.interior().to_vec(),
                    slack: cell.slack(),
                    quota: k - k_prime,
                    excluded: fresh,
                    known_above: itop,
                    path,
                });
            }
        } else {
            // Unclassifiable: same anchor, next competitor batch,
            // rank quota reduced by this partition's count.
            let mut known: Vec<u32> = task.known_above.clone();
            known.extend_from_slice(&covered);
            let mut excluded = task.excluded.clone();
            for &q in &disregarded {
                excluded[q as usize] = true;
            }
            children.push(PartitionTask {
                anchor: task.anchor,
                region: cell.region().clone(),
                interior: cell.interior().to_vec(),
                slack: cell.slack(),
                quota: task.quota - cnt,
                excluded,
                known_above: known,
                path,
            });
        }
    }

    stats.arrangement_dropped(bytes);
}

/// JAA's refinement step (§5) over an already-filtered candidate set:
/// grows the common arrangement from the initial anchor and returns
/// the finalized partitions tiling `region`, in depth-first order.
/// Shared between the legacy entry points and
/// [`crate::engine::UtkEngine`], whose cache hands in memoized
/// candidate sets.
pub(crate) fn jaa_refine(
    cands: &CandidateSet,
    region: &Region,
    base_interior: &[f64],
    base_slack: f64,
    k: usize,
    opts: &JaaOptions,
    stats: &mut Stats,
) -> Vec<Utk2Cell> {
    debug_assert!(cands.len() > k);
    let mut worklist = vec![root_task(
        cands,
        k,
        opts,
        stats,
        region,
        base_interior,
        base_slack,
    )];
    let none_removed = vec![false; cands.len()];
    let mut tagged = Vec::new();
    let mut children = Vec::new();
    while let Some(task) = worklist.pop() {
        expand(
            cands,
            k,
            opts,
            &none_removed,
            stats,
            task,
            &mut tagged,
            &mut children,
        );
        // LIFO worklist: reversed children keep the depth-first order
        // of the original recursion.
        children.reverse();
        worklist.append(&mut children);
    }
    finish_cells(tagged)
}

/// Sorts path-tagged cells into depth-first order and strips the tags.
fn finish_cells(mut tagged: Vec<(Vec<u32>, Utk2Cell)>) -> Vec<Utk2Cell> {
    tagged.sort_by(|a, b| a.0.cmp(&b.0));
    tagged.into_iter().map(|(_, c)| c).collect()
}

/// Shared state of one parallel JAA refinement.
struct JaaShared {
    cands: Arc<CandidateSet>,
    k: usize,
    opts: JaaOptions,
    /// All-false "removed" mask shared by every task's drill calls
    /// (JAA never removes candidates) — allocated once per refinement.
    none_removed: Vec<bool>,
    out: Mutex<Vec<(Vec<u32>, Utk2Cell)>>,
    stats: Mutex<Stats>,
}

/// Queues one partition task; its children are queued recursively, so
/// independent arrangement leaves refine concurrently (and idle
/// workers steal them).
fn spawn_partition(set: &crate::parallel::TaskSet, shared: &Arc<JaaShared>, task: PartitionTask) {
    let nested = set.clone();
    let sh = Arc::clone(shared);
    set.spawn(move || {
        let mut local = Stats::new();
        let mut out = Vec::new();
        let mut children = Vec::new();
        expand(
            &sh.cands,
            sh.k,
            &sh.opts,
            &sh.none_removed,
            &mut local,
            task,
            &mut out,
            &mut children,
        );
        sh.out.lock().expect("jaa cell sink").extend(out);
        sh.stats.lock().expect("jaa stats sink").absorb(&local);
        for child in children {
            spawn_partition(&nested, &sh, child);
        }
    });
}

/// Parallel JAA refinement over a [`ThreadPool`]: work-stealing over
/// the partition tree, cell-for-cell identical to [`jaa_refine`]
/// (tasks are pure, and cells are path-sorted back into depth-first
/// order). Work counters are deterministic too — every task's work
/// depends only on its own inputs — except `stolen_tasks`, which is
/// scheduling-dependent by nature.
#[allow(clippy::too_many_arguments)]
pub(crate) fn jaa_parallel_refine(
    cands: &Arc<CandidateSet>,
    region: &Region,
    base_interior: &[f64],
    base_slack: f64,
    k: usize,
    opts: &JaaOptions,
    pool: &ThreadPool,
    stats: &mut Stats,
) -> Vec<Utk2Cell> {
    debug_assert!(cands.len() > k);
    let root = root_task(cands, k, opts, stats, region, base_interior, base_slack);
    let shared = Arc::new(JaaShared {
        cands: Arc::clone(cands),
        k,
        opts: opts.clone(),
        none_removed: vec![false; cands.len()],
        out: Mutex::new(Vec::new()),
        stats: Mutex::new(Stats::new()),
    });
    let set = pool.task_set();
    spawn_partition(&set, &shared, root);
    set.wait();
    stats.absorb(&shared.stats.lock().expect("jaa stats sink"));
    stats.pool_threads = pool.threads();
    stats.stolen_tasks += set.stolen();
    let tagged = std::mem::take(&mut *shared.out.lock().expect("jaa cell sink"));
    finish_cells(tagged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::top_k_brute;

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

    #[test]
    fn figure1_partitioning_matches_paper() {
        // Figure 1(b): four partitions with top-2 sets
        // {p2,p4}, {p1,p4}, {p1,p2}, {p1,p6}.
        let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
        let res = jaa(&figure1_hotels(), &region, 2, &JaaOptions::default());
        let mut sets: Vec<Vec<u32>> = res.cells.iter().map(|c| c.top_k.clone()).collect();
        sets.sort();
        sets.dedup();
        assert_eq!(
            sets,
            vec![vec![0, 1], vec![0, 3], vec![0, 5], vec![1, 3]],
            "expected the paper's four top-2 sets"
        );
        assert_eq!(res.records, vec![0, 1, 3, 5]);
    }

    #[test]
    fn cells_agree_with_brute_force_at_interiors() {
        let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
        let hotels = figure1_hotels();
        let res = jaa(&hotels, &region, 2, &JaaOptions::default());
        for cell in &res.cells {
            let mut want = top_k_brute(&hotels, &cell.interior, 2);
            want.sort_unstable();
            assert_eq!(cell.top_k, want, "at {:?}", cell.interior);
        }
    }

    #[test]
    fn random_data_cells_cover_region_and_label_correctly() {
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
        let pts: Vec<Vec<f64>> = (0..150)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let region = Region::hyperrect(vec![0.15, 0.2], vec![0.3, 0.35]);
        let k = 4;
        let res = jaa(&pts, &region, k, &JaaOptions::default());
        assert!(!res.cells.is_empty());
        // Sample points of R: each must land in a cell whose label is
        // the true top-k there.
        for _ in 0..200 {
            let w = [rng.gen_range(0.15..0.3), rng.gen_range(0.2..0.35)];
            let cell = res
                .cell_containing(&w)
                .unwrap_or_else(|| panic!("no cell contains {w:?}"));
            let mut want = top_k_brute(&pts, &w, k);
            want.sort_unstable();
            assert_eq!(cell.top_k, want, "wrong label at {w:?}");
        }
    }

    #[test]
    fn jaa_union_equals_rsa() {
        use crate::rsa::{rsa, RsaOptions};
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        for trial in 0..5 {
            let pts: Vec<Vec<f64>> = (0..120)
                .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let lo = [rng.gen_range(0.05..0.3), rng.gen_range(0.05..0.3)];
            let region = Region::hyperrect(lo.to_vec(), lo.iter().map(|l| l + 0.1).collect());
            let k = 3;
            let u2 = jaa(&pts, &region, k, &JaaOptions::default());
            let u1 = rsa(&pts, &region, k, &RsaOptions::default());
            assert_eq!(u2.records, u1.records, "trial {trial}");
        }
    }

    #[test]
    fn anchor_ablation_produces_same_partition_labels() {
        let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
        let hotels = figure1_hotels();
        let paper = jaa(&hotels, &region, 2, &JaaOptions::default());
        let ablated = jaa(
            &hotels,
            &region,
            2,
            &JaaOptions {
                kth_anchor: false,
                ..Default::default()
            },
        );
        // Same set of distinct top-k sets, whatever the partitioning.
        let norm = |r: &Utk2Result| {
            let mut s: Vec<Vec<u32>> = r.cells.iter().map(|c| c.top_k.clone()).collect();
            s.sort();
            s.dedup();
            s
        };
        assert_eq!(norm(&paper), norm(&ablated));
        assert_eq!(paper.records, ablated.records);
    }

    #[test]
    fn tiny_dataset_single_cell() {
        let pts = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let region = Region::hyperrect(vec![0.3], vec![0.6]);
        let res = jaa(&pts, &region, 5, &JaaOptions::default());
        assert_eq!(res.cells.len(), 1);
        assert_eq!(res.cells[0].top_k, vec![0, 1]);
    }

    #[test]
    fn one_dim_preference_domain() {
        // d = 2 data: preference domain is an interval.
        let pts = vec![
            vec![9.0, 1.0],
            vec![1.0, 9.0],
            vec![6.0, 6.0],
            vec![5.0, 5.0],
        ];
        let region = Region::hyperrect(vec![0.2], vec![0.8]);
        let res = jaa(&pts, &region, 1, &JaaOptions::default());
        // Top-1 moves 1 → 2 → 0 as w grows; all three appear.
        assert_eq!(res.records, vec![0, 1, 2]);
        for cell in &res.cells {
            let want = top_k_brute(&pts, &cell.interior, 1);
            assert_eq!(cell.top_k, want);
        }
    }
}
