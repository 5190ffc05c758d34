//! Plain top-k by brute force: score every record, sort, truncate.
//!
//! This is the **oracle**, not the production path. The engine answers
//! `topk` queries and the degenerate-region shortcut with
//! [`crate::skyband::top_k_tree`], a best-first search over its R-tree
//! that returns these functions' answers byte for byte (score desc
//! under `total_cmp`, ties to the smaller id); the tests below and
//! `tests/topk.rs` hold it to that. The oracle also serves the tests,
//! the examples and the Figure 10(b) incremental-top-k comparison as
//! an independent reference.

use utk_geom::pref_score;

/// The `k` highest-scoring record indices under reduced weights `w`,
/// in descending score order; ties break toward the smaller index
/// (deterministic).
pub fn top_k_brute(points: &[Vec<f64>], w: &[f64], k: usize) -> Vec<u32> {
    let mut scored: Vec<(f64, u32)> = points
        .iter()
        .enumerate()
        .map(|(i, p)| (pref_score(p, w), i as u32))
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.into_iter().map(|(_, i)| i).collect()
}

/// Top-k over a subset of record indices.
pub fn top_k_brute_subset(points: &[Vec<f64>], subset: &[u32], w: &[f64], k: usize) -> Vec<u32> {
    let mut scored: Vec<(f64, u32)> = subset
        .iter()
        .map(|&i| (pref_score(&points[i as usize], w), i))
        .collect();
    scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.truncate(k);
    scored.into_iter().map(|(_, i)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_top2_at_weights() {
        // Figure 1: at the user's indicative weights (0.3, 0.5, 0.2)
        // the top-2 hotels are p1 (8.48) and p2 (7.24).
        let hotels = vec![
            vec![8.3, 9.1, 7.2],
            vec![2.4, 9.6, 8.6],
            vec![5.4, 1.6, 4.1],
            vec![2.6, 6.9, 9.4],
            vec![7.3, 3.1, 2.4],
            vec![7.9, 6.4, 6.6],
            vec![8.6, 7.1, 4.3],
        ];
        let top = top_k_brute(&hotels, &[0.3, 0.5], 2);
        assert_eq!(top, vec![0, 1]);
    }

    #[test]
    fn deterministic_tie_break() {
        let pts = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![0.0, 0.0]];
        assert_eq!(top_k_brute(&pts, &[0.5], 2), vec![0, 1]);
    }

    #[test]
    fn subset_restricts_candidates() {
        let pts = vec![vec![9.0], vec![5.0], vec![7.0]];
        assert_eq!(top_k_brute_subset(&pts, &[1, 2], &[], 1), vec![2]);
    }

    #[test]
    fn tree_search_matches_brute_force() {
        use crate::skyband::{top_k_tree, TreeView};
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(9);
        let mut pts: Vec<Vec<f64>> = (0..300)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        // Duplicates tie exactly and must come out in ascending id order.
        pts.extend(pts[..40].to_vec());
        let store = utk_geom::PointStore::from_rows(&pts);
        let tree = utk_rtree::RTree::bulk_load(&pts);
        for w in [[0.2, 0.3], [0.0, 0.0], [1.0, 0.0], [0.5, 0.5]] {
            for k in [1, 5, 20, 340, 400] {
                let (got, _) = top_k_tree(&store, &TreeView::packed(&tree), &w, k);
                assert_eq!(got, top_k_brute(&pts, &w, k), "w = {w:?}, k = {k}");
            }
        }
    }

    /// The deterministic work bound: at k = 10 on 50K uniform records
    /// the tree search scores and expands a small fraction of `n`. A
    /// regression back to a full scan fails here.
    #[test]
    fn tree_search_touches_a_small_fraction_of_the_records() {
        use crate::skyband::{top_k_tree, TreeView};
        use rand::prelude::*;
        const N: usize = 50_000;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(50);
        let pts: Vec<Vec<f64>> = (0..N)
            .map(|_| (0..4).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let store = utk_geom::PointStore::from_rows(&pts);
        let tree = utk_rtree::RTree::bulk_load(&pts);
        let w = [0.25, 0.25, 0.25];
        let (got, work) = top_k_tree(&store, &TreeView::packed(&tree), &w, 10);
        assert_eq!(got, top_k_brute(&pts, &w, 10));
        let touched = work.scored + work.expanded;
        assert!(touched < N / 20, "{work:?}");
    }
}
