//! Onion layers (§2, §3.3): the filter of the ON baseline.
//!
//! Layer `i` holds the records on the convex hull of the dataset with
//! layers `1..i` removed — restricted to the facets with normal in the
//! first quadrant, the only ones reachable by non-negative weights.
//! The first `k` layers are a superset of every top-k result (for any
//! weights, unconstrained by `R`), and always a subset of the
//! k-skyband \[38\].
//!
//! Per the paper's implementation note, layers are computed *off the
//! k-skyband*: `d = 2` uses the exact upper-hull chain, `d > 2` the
//! LP membership test (a record defines a first-quadrant facet iff a
//! top-1 witness weight vector exists for it).

use utk_geom::hull::{hull_membership, upper_hull_2d};
use utk_geom::Rows;

/// Computes the first `k` onion layers over `candidates` (record
/// indices into `points`). Returns the layers in order; records not in
/// any of the `k` layers are dropped.
pub fn onion_layers<R: Rows + ?Sized>(points: &R, candidates: &[u32], k: usize) -> Vec<Vec<u32>> {
    let d = if points.is_empty() {
        0
    } else {
        points.row(0).len()
    };
    let mut active: Vec<u32> = candidates.to_vec();
    let mut layers = Vec::with_capacity(k);
    for _ in 0..k {
        if active.is_empty() {
            break;
        }
        let layer: Vec<u32> = if d == 2 {
            let pts: Vec<(f64, f64)> = active
                .iter()
                .map(|&i| (points.row(i as usize)[0], points.row(i as usize)[1]))
                .collect();
            upper_hull_2d(&pts)
                .into_iter()
                .map(|local| active[local])
                .collect()
        } else {
            let idx: Vec<usize> = active.iter().map(|&i| i as usize).collect();
            active
                .iter()
                .filter(|&&i| hull_membership(points, &idx, i as usize))
                .copied()
                .collect()
        };
        if layer.is_empty() {
            // Degenerate (e.g. all remaining records coincide): place
            // everything in one final layer to preserve the superset
            // property.
            layers.push(active.clone());
            break;
        }
        active.retain(|i| !layer.contains(i));
        layers.push(layer);
    }
    layers
}

/// Union of the first `k` onion layers, ascending.
pub fn onion_candidates<R: Rows + ?Sized>(points: &R, candidates: &[u32], k: usize) -> Vec<u32> {
    let mut out: Vec<u32> = onion_layers(points, candidates, k)
        .into_iter()
        .flatten()
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skyband::k_skyband;
    use crate::stats::Stats;
    use crate::topk::top_k_brute;
    use rand::prelude::*;
    use utk_rtree::RTree;

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn layers_are_disjoint_and_nested() {
        let pts = random_points(200, 2, 1);
        let all: Vec<u32> = (0..200).collect();
        let layers = onion_layers(&pts, &all, 3);
        let mut seen = std::collections::HashSet::new();
        for layer in &layers {
            for &i in layer {
                assert!(seen.insert(i), "record {i} in two layers");
            }
        }
    }

    #[test]
    fn first_layer_contains_every_top1() {
        let pts = random_points(150, 3, 2);
        let all: Vec<u32> = (0..150).collect();
        let layers = onion_layers(&pts, &all, 1);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        for _ in 0..100 {
            let a: f64 = rng.gen_range(0.0..1.0);
            let b: f64 = rng.gen_range(0.0..1.0 - a);
            let top1 = top_k_brute(&pts, &[a, b], 1)[0];
            assert!(layers[0].contains(&top1), "top-1 {top1} not on layer 1");
        }
    }

    #[test]
    fn k_layers_contain_every_topk() {
        let pts = random_points(120, 3, 3);
        let all: Vec<u32> = (0..120).collect();
        let k = 3;
        let cands = onion_candidates(&pts, &all, k);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(88);
        for _ in 0..100 {
            let a: f64 = rng.gen_range(0.0..1.0);
            let b: f64 = rng.gen_range(0.0..1.0 - a);
            for id in top_k_brute(&pts, &[a, b], k) {
                assert!(cands.contains(&id), "top-{k} member {id} missing");
            }
        }
    }

    #[test]
    fn onion_off_skyband_is_tighter_filter() {
        // The baseline pipeline (§3.3): layers computed off the
        // k-skyband. The result is a subset of the skyband by
        // construction and usually strictly smaller — and must still
        // cover every sampled top-k result.
        let pts = random_points(300, 3, 4);
        let tree = RTree::bulk_load(&pts);
        let k = 3;
        let mut sky = k_skyband(&pts, &tree, k, &mut Stats::new());
        sky.sort_unstable();
        let onion = onion_candidates(&pts, &sky, k);
        for i in &onion {
            assert!(sky.binary_search(i).is_ok());
        }
        assert!(onion.len() <= sky.len());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            let a: f64 = rng.gen_range(0.01..0.98);
            let b: f64 = rng.gen_range(0.01..0.99 - a);
            for id in top_k_brute(&pts, &[a, b], k) {
                assert!(onion.contains(&id), "top-{k} member {id} filtered out");
            }
        }
    }

    #[test]
    fn figure3_style_example() {
        // The paper's Figure 3 observation: the 2 onion layers can be
        // a strict subset of the 2-skyband.
        let pts: Vec<Vec<f64>> = vec![
            vec![1.0, 9.0], // p1
            vec![4.0, 7.0], // p2
            vec![5.5, 5.5], // p3 (skyband but interior of hull layers)
            vec![8.0, 4.0], // p4
            vec![9.0, 1.0], // p5
            vec![2.0, 8.0], // p6
            vec![6.0, 3.0], // p7
            vec![3.0, 6.0], // p8
            vec![1.5, 1.5], // p9 (deep interior)
            vec![2.0, 2.0], // p10
        ];
        let tree = RTree::bulk_load(&pts);
        let sky = k_skyband(&pts, &tree, 2, &mut Stats::new());
        let all: Vec<u32> = (0..10).collect();
        let onion = onion_candidates(&pts, &all, 2);
        assert!(onion.len() <= sky.len());
        for i in &onion {
            assert!(sky.contains(i));
        }
    }

    #[test]
    fn lp_and_2d_paths_agree() {
        let pts = random_points(80, 2, 9);
        let all: Vec<u32> = (0..80).collect();
        // Force the LP path by treating the data as d=2 via the
        // generic function vs the chain path.
        let chain = onion_layers(&pts, &all, 2);
        let idx: Vec<usize> = (0..80).collect();
        let lp_layer1: Vec<u32> = (0..80u32)
            .filter(|&i| hull_membership(&pts, &idx, i as usize))
            .collect();
        let mut a = chain[0].clone();
        a.sort_unstable();
        let mut b = lp_layer1;
        b.sort_unstable();
        assert_eq!(a, b);
    }
}
