//! The drill operation (§4.3 of the paper).
//!
//! A *drill* is a regular top-k query for a carefully chosen weight
//! vector: the vector inside the current region/partition that
//! maximizes the candidate's score (one LP). If the candidate makes
//! the top-k there, it is verified immediately and the arrangement
//! machinery is skipped.
//!
//! Crucially, the top-k query never touches the dataset or its R-tree
//! index: it runs branch-and-bound **on the r-dominance graph** `G`.
//! Scores are monotone along the graph's arcs for any `w ∈ R`
//! (a dominator outscores its dominatees), so a max-heap seeded with
//! the roots pops candidates in globally non-increasing score order,
//! and the first `k` pops are exactly the top-k. The r-skyband
//! contains every record that can enter a top-k set anywhere in `R`,
//! so the graph search is exact for every drill vector.

use crate::skyband::CandidateSet;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use utk_geom::pref_score;

#[derive(PartialEq)]
struct Scored {
    score: f64,
    node: u32,
    /// Dataset id, for the workspace-wide deterministic tie-break
    /// (higher score first, smaller dataset id on exact ties).
    id: u32,
}
impl Eq for Scored {}
impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score
            .total_cmp(&other.score)
            .then(other.id.cmp(&self.id))
    }
}

/// Top-k candidate indices at drill vector `w`, in descending score
/// order, via branch-and-bound over the r-dominance graph.
///
/// `removed` marks graph nodes disqualified earlier by RSA; removed
/// records rank below the k-th everywhere in `R` by construction, so
/// skipping them leaves every top-k set unchanged. Their children are
/// reached by pass-through expansion.
pub fn graph_top_k(cands: &CandidateSet, w: &[f64], k: usize, removed: &[bool]) -> Vec<u32> {
    let n = cands.len();
    let mut result = Vec::with_capacity(k.min(n));
    if n == 0 || k == 0 {
        return result;
    }
    let mut in_heap = vec![false; n];
    let mut heap = BinaryHeap::with_capacity(64);

    // Seeds `v` (or, if removed, its children transitively).
    fn push(
        v: u32,
        cands: &CandidateSet,
        w: &[f64],
        removed: &[bool],
        in_heap: &mut [bool],
        heap: &mut BinaryHeap<Scored>,
    ) {
        if in_heap[v as usize] {
            return;
        }
        in_heap[v as usize] = true;
        if removed[v as usize] {
            for &c in cands.graph.children(v) {
                push(c, cands, w, removed, in_heap, heap);
            }
        } else {
            heap.push(Scored {
                score: pref_score(&cands.points[v as usize], w),
                node: v,
                id: cands.ids[v as usize],
            });
        }
    }

    for &r in cands.graph.roots() {
        push(r, cands, w, removed, &mut in_heap, &mut heap);
    }
    while let Some(Scored { node, .. }) = heap.pop() {
        result.push(node);
        if result.len() == k {
            break;
        }
        for &c in cands.graph.children(node) {
            push(c, cands, w, removed, &mut in_heap, &mut heap);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rdominance::ScreenKernel;
    use crate::skyband::{r_skyband, Source, TreeView};
    use crate::stats::Stats;
    use crate::topk::top_k_brute;
    use rand::prelude::*;
    use utk_geom::Region;
    use utk_rtree::RTree;

    fn setup(seed: u64) -> (Vec<Vec<f64>>, Region, CandidateSet) {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let pts: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let region = Region::hyperrect(vec![0.2, 0.15], vec![0.35, 0.3]);
        let tree = RTree::bulk_load(&pts);
        let store = utk_geom::PointStore::from_rows(&pts);
        let cands = r_skyband(
            Source::Tree {
                points: &store,
                view: TreeView::packed(&tree),
            },
            &region,
            5,
            true,
            ScreenKernel::default(),
            &mut Stats::new(),
        )
        .unwrap();
        (pts, region, cands)
    }

    #[test]
    fn graph_top_k_matches_brute_force() {
        let (pts, region, cands) = setup(3);
        let removed = vec![false; cands.len()];
        let pivot = region.pivot().unwrap();
        for w in [
            pivot.clone(),
            vec![0.2, 0.15],
            vec![0.35, 0.3],
            vec![0.25, 0.22],
        ] {
            for k in [1, 3, 5] {
                let got: Vec<u32> = graph_top_k(&cands, &w, k, &removed)
                    .iter()
                    .map(|&ci| cands.ids[ci as usize])
                    .collect();
                let want = top_k_brute(&pts, &w, k);
                // Scores must agree (ids may differ under exact ties).
                let score = |id: u32| utk_geom::pref_score(&pts[id as usize], &w);
                for (g, t) in got.iter().zip(&want) {
                    assert!((score(*g) - score(*t)).abs() < 1e-12, "w = {w:?}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn removed_nodes_are_skipped_but_children_reachable() {
        let (pts, region, cands) = setup(7);
        let pivot = region.pivot().unwrap();
        // Remove the top-1 node at the pivot; next pops shift up.
        let removed0 = vec![false; cands.len()];
        let base = graph_top_k(&cands, &pivot, 5, &removed0);
        let mut removed = vec![false; cands.len()];
        removed[base[0] as usize] = true;
        let got = graph_top_k(&cands, &pivot, 4, &removed);
        assert_eq!(got, base[1..5].to_vec());
        let _ = pts;
    }

    #[test]
    fn k_larger_than_graph_returns_all() {
        let (_, region, cands) = setup(11);
        let removed = vec![false; cands.len()];
        let got = graph_top_k(&cands, &region.pivot().unwrap(), 10_000, &removed);
        assert_eq!(got.len(), cands.len());
        // Descending scores.
        let w = region.pivot().unwrap();
        let scores: Vec<f64> = got
            .iter()
            .map(|&ci| pref_score(&cands.points[ci as usize], &w))
            .collect();
        assert!(scores.windows(2).all(|s| s[0] >= s[1] - 1e-12));
    }
}
