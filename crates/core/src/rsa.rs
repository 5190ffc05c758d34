//! RSA — the r-skyband algorithm for UTK1 (§4 of the paper).
//!
//! Pipeline:
//!
//! 1. **Filter** (§4.1): compute the r-skyband and the r-dominance
//!    graph `G` with pivot-ordered BBS.
//! 2. **Refine** (§4.2): consider candidates in decreasing r-dominance
//!    count order (confirming one candidate confirms all its
//!    ancestors). Each candidate is verified by the recursive
//!    `verify` procedure: a drill probe first (§4.3), then a local
//!    half-space arrangement over the competitors with the smallest
//!    contextual r-dominance count; promising partitions are either
//!    confirmed outright via Lemma 1 or recursed into with a reduced
//!    rank quota and a grown ignore set. Disqualified candidates are
//!    removed from `G` so later verifications never consider them.
//!
//! The implementation fixes the obvious typo in the paper's
//! Algorithm 2 (line 11 discards the recursive return value; the
//! intended propagation is implemented).

use crate::drill::graph_top_k;
use crate::skyband::{prefilter, CandidateSet, Prefilter};
use crate::stats::Stats;
use utk_geom::{Arrangement, CellGeom, CellId, Region};
use utk_rtree::RTree;

/// Tuning/ablation switches for RSA. Defaults reproduce the paper's
/// algorithm; individual features can be disabled for the ablation
/// benches (results are identical either way, only work changes).
#[derive(Debug, Clone)]
pub struct RsaOptions {
    /// Drill probe before building each local arrangement (§4.3).
    pub drill: bool,
    /// Lemma-1 disregarding of competitors dominated by an inserted
    /// competitor whose half-space misses the partition (§4.2). With
    /// this off, confirmation requires exhausting the competitor list.
    pub lemma1: bool,
    /// Pivot-score heap ordering for the r-skyband BBS (§4.1); off
    /// falls back to the classic coordinate-sum order.
    pub pivot_order: bool,
    /// Insert the minimal-count competitors first (§4.2); off inserts
    /// an arbitrary (index-ordered) batch of the same size.
    pub min_count_selection: bool,
}

impl Default for RsaOptions {
    fn default() -> Self {
        Self {
            drill: true,
            lemma1: true,
            pivot_order: true,
            min_count_selection: true,
        }
    }
}

/// UTK1 output: the minimal set of records that can appear in a top-k
/// set for some `w ∈ R`.
#[derive(Debug, Clone)]
pub struct Utk1Result {
    /// Dataset ids, ascending.
    pub records: Vec<u32>,
    /// Work counters.
    pub stats: Stats,
}

/// Validates that the query region sits inside the preference domain
/// (`w ≥ 0`, `Σ w ≤ 1`), as §3.1 requires.
pub(crate) fn validate_region(region: &Region, dp: usize) {
    // utk-lint: allow(panic) -- documented # Panics contract of the legacy rsa entry points
    crate::engine::check_region(region, dp).unwrap_or_else(|e| panic!("{e}"));
}

/// Runs UTK1 via RSA, building a fresh R-tree over `points`.
///
/// Legacy convenience: panics on malformed input and rebuilds the
/// index per call, but runs the same validate → prefilter → refine
/// pipeline as the engine. Prefer [`crate::engine::UtkEngine`], which
/// returns typed errors and reuses the index and the r-skyband across
/// queries.
pub fn rsa(points: &[Vec<f64>], region: &Region, k: usize, opts: &RsaOptions) -> Utk1Result {
    let tree = RTree::bulk_load(points);
    rsa_with_tree(points, &tree, region, k, opts)
}

/// Runs UTK1 via RSA over a pre-built index.
pub fn rsa_with_tree(
    points: &[Vec<f64>],
    tree: &RTree,
    region: &Region,
    k: usize,
    opts: &RsaOptions,
) -> Utk1Result {
    assert!(k >= 1, "k must be positive");
    let d = points[0].len();
    validate_region(region, d - 1);
    let mut stats = Stats::new();
    let records = match prefilter(points, tree, region, k, opts.pivot_order, &mut stats) {
        Prefilter::Degenerate { top_k, .. } => top_k,
        Prefilter::Trivial { ids, .. } => ids,
        Prefilter::Refine {
            cands,
            interior,
            slack,
        } => rsa_refine(&cands, region, &interior, slack, k, opts, &mut stats),
    };
    Utk1Result { records, stats }
}

/// RSA's refinement step (§4.2) over an already-filtered candidate
/// set: verifies candidates in decreasing r-dominance count order and
/// returns the confirmed dataset ids, ascending. Shared between the
/// legacy entry points and [`crate::engine::UtkEngine`], whose cache
/// hands in memoized candidate sets.
pub(crate) fn rsa_refine(
    cands: &CandidateSet,
    region: &Region,
    base_interior: &[f64],
    base_slack: f64,
    k: usize,
    opts: &RsaOptions,
    stats: &mut Stats,
) -> Vec<u32> {
    let n = cands.len();
    debug_assert!(n > k);

    #[derive(Clone, Copy, PartialEq)]
    enum Status {
        Unverified,
        Confirmed,
        Disqualified,
    }
    let mut status = vec![Status::Unverified; n];
    let mut removed = vec![false; n];
    let root = CellGeom::new(region.clone(), base_interior.to_vec(), base_slack);

    // Candidates in decreasing r-dominance count (§4.2); ties by index.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(cands.graph.dominance_count(v)));

    for &v in &order {
        if status[v as usize] != Status::Unverified {
            continue;
        }
        let anc = cands.graph.ancestors(v);
        let mut excluded = removed.clone();
        excluded[v as usize] = true;
        for &a in anc {
            excluded[a as usize] = true;
        }
        let quota = k - anc.len();
        let ok = verify(
            cands,
            opts,
            stats,
            v,
            &root,
            quota,
            k,
            &mut excluded,
            &removed,
            0,
        );
        if ok {
            status[v as usize] = Status::Confirmed;
            for &a in anc {
                status[a as usize] = Status::Confirmed;
            }
        } else {
            status[v as usize] = Status::Disqualified;
            removed[v as usize] = true;
        }
    }

    let mut records: Vec<u32> = (0..n)
        .filter(|&i| status[i] == Status::Confirmed)
        .map(|i| cands.ids[i])
        .collect();
    records.sort_unstable();
    records
}

/// Entry point to the verification recursion, shared with the
/// parallel driver ([`crate::parallel::rsa_parallel`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn verify_candidate(
    cands: &CandidateSet,
    opts: &RsaOptions,
    stats: &mut Stats,
    cand: u32,
    rho: &CellGeom,
    quota: usize,
    k: usize,
    excluded: &mut [bool],
    removed: &[bool],
) -> bool {
    verify(
        cands, opts, stats, cand, rho, quota, k, excluded, removed, 0,
    )
}

/// The recursive verification procedure (Algorithm 2).
///
/// Decides whether candidate `cand` enters the top-k somewhere inside
/// `rho`, given `quota` remaining rank slots (`k` minus the records
/// known to outscore `cand` everywhere in `rho`) and the `excluded`
/// competitors (ancestors, previously considered/inserted, Lemma-1
/// disregarded, and removed candidates).
#[allow(clippy::too_many_arguments)]
fn verify(
    cands: &CandidateSet,
    opts: &RsaOptions,
    stats: &mut Stats,
    cand: u32,
    rho: &CellGeom,
    quota: usize,
    k: usize,
    excluded: &mut [bool],
    removed: &[bool],
    depth: usize,
) -> bool {
    debug_assert!(quota >= 1);
    debug_assert!(depth <= 2 * cands.len() + 8, "verify recursion runaway");

    // Drill (§4.3): top-k at the in-region vector maximizing the
    // candidate's score; success verifies immediately.
    if opts.drill {
        stats.drills += 1;
        let hit = crate::obs::span(crate::obs::Phase::Drill, || {
            let p = &cands.points[cand as usize];
            let d = p.len();
            let obj: Vec<f64> = (0..d - 1).map(|i| p[i] - p[d - 1]).collect();
            match rho.region().max_linear(&obj) {
                Some((w, _)) => graph_top_k(cands, &w, k, removed).contains(&cand),
                None => false,
            }
        });
        if hit {
            stats.drill_hits += 1;
            return true;
        }
    }

    // Competitor batch: minimal contextual r-dominance count (always 0
    // on the remaining sub-DAG).
    let batch: Vec<u32> = if opts.min_count_selection {
        cands.graph.minimal_competitors(excluded)
    } else {
        let minimal = cands.graph.minimal_competitors(excluded).len();
        (0..cands.len() as u32)
            .filter(|&q| !excluded[q as usize])
            .take(minimal.max(1))
            .collect()
    };
    if batch.is_empty() {
        // No competitors left at all: the whole partition has count 0
        // < quota, so the candidate ranks within its quota here.
        return true;
    }

    // Local arrangement over rho (§4.5: small and disposable).
    let (arr, bytes) = crate::obs::span(crate::obs::Phase::Arrange, || {
        let mut arr = Arrangement::from_geom(rho.clone());
        stats.arrangements_built += 1;
        let cand_pt = &cands.points[cand as usize];
        let cand_id = cands.ids[cand as usize];
        for &q in &batch {
            let hs = crate::rdominance::outranks_halfspace(
                &cands.points[q as usize],
                cands.ids[q as usize],
                cand_pt,
                cand_id,
            );
            arr.insert(hs, q);
            stats.halfspaces_inserted += 1;
            // Partitions at or past the quota can never become
            // promising: retire them so later insertions skip them.
            let dead: Vec<CellId> = arr
                .live_cells()
                .filter(|(_, c)| c.count() >= quota)
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

    for &q in &batch {
        excluded[q as usize] = true;
    }

    // Promising partitions, most covered first (§4.2 optimization).
    let mut promising: Vec<(CellId, usize)> = arr
        .live_cells()
        .filter(|(_, c)| c.count() < quota)
        .map(|(id, c)| (id, c.count()))
        .collect();
    promising.sort_by_key(|&(_, cnt)| std::cmp::Reverse(cnt));

    let mut result = false;
    'cells: for (cid, cnt) in promising {
        let cell = arr.cell(cid);
        // Which candidates can Lemma 1 disregard for this partition?
        // Those r-dominated by an inserted competitor whose half-space
        // does not cover the partition.
        let mut outside_tag = vec![false; cands.len()];
        for &hs in cell.outside() {
            outside_tag[arr.tag(hs) as usize] = true;
        }
        let mut disregarded = Vec::new();
        let mut remaining = false;
        for q in 0..cands.len() as u32 {
            if excluded[q as usize] {
                continue;
            }
            let dis = opts.lemma1
                && cands
                    .graph
                    .ancestors(q)
                    .iter()
                    .any(|&a| outside_tag[a as usize]);
            if dis {
                disregarded.push(q);
            } else {
                remaining = true;
            }
        }
        if !remaining {
            // Lemma 1 confirms the partition's count: below quota.
            result = true;
            break 'cells;
        }
        for &q in &disregarded {
            excluded[q as usize] = true;
        }
        let ok = verify(
            cands,
            opts,
            stats,
            cand,
            cell.geom(),
            quota - cnt,
            k,
            excluded,
            removed,
            depth + 1,
        );
        for &q in &disregarded {
            excluded[q as usize] = false;
        }
        if ok {
            result = true;
            break 'cells;
        }
    }

    for &q in &batch {
        excluded[q as usize] = false;
    }
    stats.arrangement_dropped(bytes);
    result
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

    #[test]
    fn figure1_utk1_is_p1_p2_p4_p6() {
        let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
        let res = rsa(&figure1_hotels(), &region, 2, &RsaOptions::default());
        assert_eq!(res.records, vec![0, 1, 3, 5]);
    }

    #[test]
    fn figure1_all_option_combinations_agree() {
        let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
        for drill in [true, false] {
            for lemma1 in [true, false] {
                for pivot in [true, false] {
                    for minsel in [true, false] {
                        let opts = RsaOptions {
                            drill,
                            lemma1,
                            pivot_order: pivot,
                            min_count_selection: minsel,
                        };
                        let res = rsa(&figure1_hotels(), &region, 2, &opts);
                        assert_eq!(
                            res.records,
                            vec![0, 1, 3, 5],
                            "opts {drill}/{lemma1}/{pivot}/{minsel}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn k1_reduces_to_in_region_top1_union() {
        // For k = 1 the result is exactly the records that are top-1
        // somewhere in R; cross-check by dense sampling.
        use crate::topk::top_k_brute;
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let pts: Vec<Vec<f64>> = (0..120)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let region = Region::hyperrect(vec![0.1, 0.2], vec![0.4, 0.45]);
        let res = rsa(&pts, &region, 1, &RsaOptions::default());
        let mut sampled = std::collections::BTreeSet::new();
        for i in 0..=20 {
            for j in 0..=20 {
                let w = [0.1 + 0.3 * i as f64 / 20.0, 0.2 + 0.25 * j as f64 / 20.0];
                sampled.insert(top_k_brute(&pts, &w, 1)[0]);
            }
        }
        // Every sampled winner must be reported (sampling is a lower
        // bound on the exact result).
        for id in &sampled {
            assert!(res.records.contains(id), "missing top-1 winner {id}");
        }
        assert!(res.records.len() >= sampled.len());
    }

    #[test]
    fn result_is_superset_of_sampled_topk_and_subset_of_rskyband() {
        use crate::rdominance::ScreenKernel;
        use crate::skyband::{r_skyband, Source, TreeView};
        use crate::topk::top_k_brute;
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(23);
        let pts: Vec<Vec<f64>> = (0..200)
            .map(|_| (0..4).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let region = Region::hyperrect(vec![0.1, 0.1, 0.1], vec![0.2, 0.25, 0.3]);
        let k = 3;
        let res = rsa(&pts, &region, k, &RsaOptions::default());

        let tree = RTree::bulk_load(&pts);
        let store = utk_geom::PointStore::from_rows(&pts);
        let cs = r_skyband(
            Source::Tree {
                points: &store,
                view: TreeView::packed(&tree),
            },
            &region,
            k,
            true,
            ScreenKernel::default(),
            &mut Stats::new(),
        )
        .unwrap();
        for id in &res.records {
            assert!(cs.ids.contains(id), "UTK1 must be inside the r-skyband");
        }

        let mut rng2 = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        for _ in 0..300 {
            let w = [
                rng2.gen_range(0.1..0.2),
                rng2.gen_range(0.1..0.25),
                rng2.gen_range(0.1..0.3),
            ];
            for id in top_k_brute(&pts, &w, k) {
                assert!(res.records.contains(&id), "sampled top-k member missing");
            }
        }
    }

    #[test]
    fn tiny_dataset_returns_everything() {
        let pts = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let region = Region::hyperrect(vec![0.3], vec![0.6]);
        let res = rsa(&pts, &region, 5, &RsaOptions::default());
        assert_eq!(res.records, vec![0, 1]);
    }

    #[test]
    fn degenerate_point_region_is_single_topk() {
        let pts = figure1_hotels();
        let region = Region::hyperrect(vec![0.3, 0.5], vec![0.3, 0.5]);
        let res = rsa(&pts, &region, 2, &RsaOptions::default());
        // Top-2 at (0.3, 0.5) is {p1, p2}: 8.48 and 7.24.
        assert_eq!(res.records, vec![0, 1]);
    }
}
