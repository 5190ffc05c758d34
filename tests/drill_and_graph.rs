//! Integration tests of the drill machinery (§4.3) and the
//! r-dominance graph across realistic workloads.

use rand::prelude::*;
use utk::core::drill::graph_top_k;
use utk::core::topk::top_k_brute;
use utk::data::synthetic::{generate, Distribution};
use utk::geom::pref_score;
use utk::prelude::*;

fn workload(dist: Distribution, n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, RTree, Region) {
    let ds = generate(dist, n, d, seed);
    let tree = RTree::bulk_load(&ds.points);
    let lo = vec![0.15; d - 1];
    let hi = vec![0.28; d - 1];
    (ds.points, tree, Region::hyperrect(lo, hi))
}

#[test]
fn graph_topk_equals_rtree_topk_everywhere_in_r() {
    // The paper's claim behind §4.3: drills run purely on G yet return
    // the exact dataset top-k for any w ∈ R.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(31);
    for dist in Distribution::all() {
        let (points, tree, region) = workload(dist, 2_000, 3, 40);
        let k = 5;
        let cands = r_skyband(
            Source::Tree {
                points: &PointStore::from_rows(&points),
                view: TreeView::packed(&tree),
            },
            &region,
            k,
            true,
            ScreenKernel::default(),
            &mut Stats::new(),
        )
        .unwrap();
        let removed = vec![false; cands.len()];
        for _ in 0..50 {
            let w = vec![rng.gen_range(0.15..0.28), rng.gen_range(0.15..0.28)];
            let via_graph: Vec<u32> = graph_top_k(&cands, &w, k, &removed)
                .iter()
                .map(|&ci| cands.ids[ci as usize])
                .collect();
            let via_tree: Vec<u32> = tree
                .top_k(
                    k,
                    |mbb| pref_score(&mbb.hi, &w),
                    |id| pref_score(&points[id as usize], &w),
                )
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            // Scores must coincide position by position (ids may swap
            // only under exact ties).
            for (g, t) in via_graph.iter().zip(&via_tree) {
                let sg = pref_score(&points[*g as usize], &w);
                let st = pref_score(&points[*t as usize], &w);
                assert!((sg - st).abs() < 1e-12, "{} at {w:?}", dist.label());
            }
        }
    }
}

#[test]
fn removing_non_utk_records_never_changes_topk() {
    // RSA removes disqualified candidates from G; the paper argues the
    // remaining UTK1 records suffice. Verify: top-k with all non-UTK1
    // candidates removed equals the brute-force top-k at many w ∈ R.
    let (points, tree, region) = workload(Distribution::Ind, 1_500, 3, 41);
    let k = 4;
    let utk1 = rsa_with_tree(&points, &tree, &region, k, &RsaOptions::default());
    let cands = r_skyband(
        Source::Tree {
            points: &PointStore::from_rows(&points),
            view: TreeView::packed(&tree),
        },
        &region,
        k,
        true,
        ScreenKernel::default(),
        &mut Stats::new(),
    )
    .unwrap();
    let removed: Vec<bool> = (0..cands.len())
        .map(|ci| !utk1.records.contains(&cands.ids[ci]))
        .collect();
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(42);
    for _ in 0..100 {
        let w = vec![rng.gen_range(0.15..0.28), rng.gen_range(0.15..0.28)];
        let got: Vec<u32> = graph_top_k(&cands, &w, k, &removed)
            .iter()
            .map(|&ci| cands.ids[ci as usize])
            .collect();
        let want = top_k_brute(&points, &w, k);
        for (g, t) in got.iter().zip(&want) {
            let sg = pref_score(&points[*g as usize], &w);
            let st = pref_score(&points[*t as usize], &w);
            assert!((sg - st).abs() < 1e-12);
        }
    }
}

#[test]
fn graph_structure_invariants_on_real_workloads() {
    for (dist, seed) in [(Distribution::Cor, 50u64), (Distribution::Anti, 51)] {
        let (points, tree, region) = workload(dist, 1_000, 4, seed);
        let cands = r_skyband(
            Source::Tree {
                points: &PointStore::from_rows(&points),
                view: TreeView::packed(&tree),
            },
            &region,
            6,
            true,
            ScreenKernel::default(),
            &mut Stats::new(),
        )
        .unwrap();
        let g = &cands.graph;
        for v in 0..cands.len() as u32 {
            // Children are descendants, and their ancestor sets
            // contain v.
            for &c in g.children(v) {
                assert!(g.descendants(v).contains(&c));
                assert!(g.ancestors(c).contains(&v));
            }
            // Transitive reduction: no child is reachable through
            // another child.
            for &c1 in g.children(v) {
                for &c2 in g.children(v) {
                    if c1 != c2 {
                        assert!(
                            !g.ancestors(c2).contains(&c1),
                            "{}: child {c1} covers child {c2}",
                            dist.label()
                        );
                    }
                }
            }
            // Every non-root reaches a root through ancestors.
            if !g.ancestors(v).is_empty() {
                assert!(g
                    .ancestors(v)
                    .iter()
                    .any(|&a| g.ancestors(a).is_empty() || !g.ancestors(a).is_empty()));
            }
        }
        // Roots partition reachability: every node is a root or has a
        // root ancestor.
        for v in 0..cands.len() as u32 {
            let ok = g.ancestors(v).is_empty()
                || g.ancestors(v).iter().any(|&a| g.ancestors(a).is_empty());
            assert!(ok, "node {v} unreachable from roots");
        }
    }
}

#[test]
fn drill_hits_short_circuit_most_confirmations() {
    // On correlated data nearly every candidate is confirmed by its
    // drill; the stats must reflect that (the §4.3 motivation). The
    // workload is pinned to one where the r-skyband exceeds k, so
    // refinement — and with it the drill probe — actually runs.
    let (points, tree, _) = workload(Distribution::Cor, 5_000, 3, 7);
    let region = Region::hyperrect(vec![0.15, 0.15], vec![0.35, 0.35]);
    let res = rsa_with_tree(&points, &tree, &region, 12, &RsaOptions::default());
    assert!(res.stats.drills > 0);
    assert!(
        res.stats.drill_hits * 2 >= res.stats.drills,
        "expected most drills to hit on correlated data: {}/{}",
        res.stats.drill_hits,
        res.stats.drills
    );
}
