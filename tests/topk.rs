//! Differential oracle for the engine's top-k: the best-first R-tree
//! search behind `topk` queries and the degenerate-region shortcut
//! must return `top_k_brute`'s answer **byte for byte** — descending
//! score under `total_cmp`, ties to the smaller id — across the
//! benchmark distributions, duplicate rows, boundary weights, every
//! overlay state of a mutated engine, and the legacy free functions.

use utk::core::stats::Stats;
use utk::core::topk::top_k_brute;
use utk::data::synthetic::{generate, Distribution};
use utk::prelude::*;
use utk::wire;

/// The engine's tolerance on reduced weights (each `≥ −EPS`,
/// `Σ ≤ 1 + EPS`).
const WEIGHT_EPS: f64 = 1e-6;

/// The same mutation semantics as `UtkEngine::apply_update`: deletes
/// are simultaneous current ids, survivors renumber densely, inserts
/// append.
fn apply_to_model(model: &mut Vec<Vec<f64>>, deletes: &[u32], inserts: &[Vec<f64>]) {
    let mut i = 0;
    model.retain(|_| {
        i += 1;
        !deletes.contains(&(i - 1))
    });
    model.extend(inserts.iter().cloned());
}

/// Reduced weight vectors for `dp = d − 1` covering the interior, the
/// zero vector, the simplex vertices, the `Σ = 1` facet, and the
/// engine's tolerance band just outside the domain.
fn weight_grid(dp: usize) -> Vec<Vec<f64>> {
    let mut grid = vec![
        vec![0.0; dp],
        vec![1.0 / (dp + 1) as f64; dp],
        vec![1.0 / dp as f64; dp],
    ];
    for i in 0..dp {
        let mut vertex = vec![0.0; dp];
        vertex[i] = 1.0;
        grid.push(vertex);
    }
    // Slightly negative first weight, and a sum just above 1 (implied
    // last weight slightly negative).
    let mut below = vec![0.9 / dp as f64; dp];
    below[0] = -WEIGHT_EPS / 2.0;
    grid.push(below);
    let mut above = vec![1.0 / dp as f64; dp];
    above[dp - 1] += WEIGHT_EPS / 2.0;
    grid.push(above);
    // An uneven interior vector.
    grid.push(
        (0..dp)
            .map(|i| (i + 1) as f64 / (dp * (dp + 2)) as f64)
            .collect(),
    );
    grid
}

/// A dataset with exact duplicates, including of its best rows, so
/// ties reach the top-k boundary.
fn with_duplicates(mut points: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let mut best = points.clone();
    best.sort_by(|a, b| b.iter().sum::<f64>().total_cmp(&a.iter().sum::<f64>()));
    points.extend(best[..5].iter().cloned());
    points.extend(best[..5].iter().cloned());
    points.extend(points[..20].to_vec());
    points
}

/// Every `topk` answer and every degenerate-region UTK1/UTK2 answer
/// of `engine` equals the brute-force oracle over `model`.
fn assert_matches_brute(engine: &UtkEngine, model: &[Vec<f64>], what: &str) {
    let n = model.len();
    let dp = model[0].len() - 1;
    for w in weight_grid(dp) {
        for k in [1, 10, n, n + 5] {
            let got = engine.top_k(&w, k).unwrap();
            assert_eq!(
                got.records,
                top_k_brute(model, &w, k),
                "{what}: w = {w:?}, k = {k}"
            );
            // The search's work counters stay off the wire.
            assert_eq!(
                wire::stats_json(&got.stats),
                wire::stats_json(&Stats::new())
            );
        }
        if w.iter().any(|x| *x < 0.0) || w.iter().sum::<f64>() > 1.0 {
            continue; // a point region must lie inside the simplex
        }
        let point = Region::hyperrect(w.clone(), w.clone());
        for k in [1, 10] {
            let mut want = top_k_brute(model, &w, k);
            want.sort_unstable();
            assert_eq!(
                engine.utk1(&point, k).unwrap().records,
                want,
                "{what}: utk1 at {w:?}"
            );
            let u2 = engine.utk2(&point, k).unwrap();
            assert_eq!(u2.records, want, "{what}: utk2 at {w:?}");
            assert_eq!(u2.cells.len(), 1);
            assert_eq!(u2.cells[0].top_k, want);
        }
    }
}

#[test]
fn tree_top_k_matches_brute_force_on_fresh_engines() {
    for dist in Distribution::all() {
        for d in [2, 3, 4, 6] {
            let model = with_duplicates(generate(dist, 400, d, 17).points);
            let engine = UtkEngine::new(model.clone()).unwrap();
            assert_matches_brute(&engine, &model, &format!("{} d={d}", dist.label()));
        }
    }
}

#[test]
fn ties_come_out_in_ascending_id_order() {
    // Three identical best rows at ids 1, 3, 4 and a weaker one.
    let points = vec![
        vec![0.2, 0.2, 0.2],
        vec![0.9, 0.8, 0.7],
        vec![0.1, 0.1, 0.1],
        vec![0.9, 0.8, 0.7],
        vec![0.9, 0.8, 0.7],
    ];
    let engine = UtkEngine::new(points).unwrap();
    assert_eq!(engine.top_k(&[0.3, 0.3], 3).unwrap().records, vec![1, 3, 4]);
    assert_eq!(
        engine.top_k(&[0.3, 0.3], 4).unwrap().records,
        vec![1, 3, 4, 0]
    );
}

#[test]
fn tree_top_k_matches_brute_force_in_every_overlay_state() {
    for dist in Distribution::all() {
        for d in [2, 4] {
            let mut model = with_duplicates(generate(dist, 300, d, 29).points);
            let engine = UtkEngine::new(model.clone()).unwrap();
            let fresh = generate(dist, 40, d, 31).points;
            let label = dist.label();

            // Deletes only: a remapped stale tree with tombstones.
            let deletes: Vec<u32> = (0..model.len() as u32).step_by(17).collect();
            let report = engine.apply_update(&deletes, Vec::new()).unwrap();
            assert!(!report.index_rebuilt);
            apply_to_model(&mut model, &deletes, &[]);
            assert_matches_brute(&engine, &model, &format!("{label} d={d} deletes"));

            // Inserts only: records the tree does not hold yet,
            // duplicates of live rows among them.
            let mut inserts = fresh[..20].to_vec();
            inserts.push(model[0].clone());
            let report = engine.apply_update(&[], inserts.clone()).unwrap();
            assert!(!report.index_rebuilt);
            apply_to_model(&mut model, &[], &inserts);
            assert_matches_brute(&engine, &model, &format!("{label} d={d} inserts"));

            // Both at once, deleting some of the appended records.
            let last = model.len() as u32 - 1;
            let deletes = vec![1, 2, last, last - 3];
            let inserts = fresh[20..].to_vec();
            let report = engine.apply_update(&deletes, inserts.clone()).unwrap();
            assert!(!report.index_rebuilt);
            apply_to_model(&mut model, &deletes, &inserts);
            assert_matches_brute(&engine, &model, &format!("{label} d={d} both"));

            // Past the rebuild threshold.
            let deletes: Vec<u32> = (0..model.len() as u32).filter(|i| i % 3 != 0).collect();
            let report = engine.apply_update(&deletes, Vec::new()).unwrap();
            assert!(report.index_rebuilt);
            apply_to_model(&mut model, &deletes, &[]);
            assert_matches_brute(&engine, &model, &format!("{label} d={d} rebuilt"));

            // A fresh overlay, then compacted away.
            let inserts = fresh[..10].to_vec();
            engine.apply_update(&[0], inserts.clone()).unwrap();
            apply_to_model(&mut model, &[0], &inserts);
            engine.compact();
            assert_matches_brute(&engine, &model, &format!("{label} d={d} compacted"));
        }
    }
}

#[test]
fn legacy_degenerate_shortcut_matches_brute_force() {
    for dist in Distribution::all() {
        let points = with_duplicates(generate(dist, 300, 3, 43).points);
        for w in weight_grid(2) {
            if w.iter().any(|x| *x < 0.0) || w.iter().sum::<f64>() > 1.0 {
                continue;
            }
            let point = Region::hyperrect(w.clone(), w.clone());
            let mut want = top_k_brute(&points, &w, 10);
            want.sort_unstable();
            assert_eq!(
                rsa(&points, &point, 10, &RsaOptions::default()).records,
                want
            );
            assert_eq!(
                jaa(&points, &point, 10, &JaaOptions::default()).records,
                want
            );
        }
    }
}
