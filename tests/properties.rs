//! Property-based tests (proptest) over the UTK invariants.

use proptest::prelude::*;
use utk::core::rdominance::{r_dominance, RDominance};
use utk::core::topk::top_k_brute;
use utk::prelude::*;

/// A small random dataset in the unit cube.
fn dataset(n: usize, d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, d), n)
}

/// A random query box in the (d−1)-dimensional preference domain.
fn query_box(dp: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (
        prop::collection::vec(0.02f64..0.5, dp),
        prop::collection::vec(0.02f64..0.2, dp),
    )
        .prop_map(move |(lo, side)| {
            // Shrink so the box stays inside the simplex.
            let mut lo = lo;
            let mut hi: Vec<f64> = lo.iter().zip(&side).map(|(l, s)| l + s).collect();
            let total: f64 = hi.iter().sum();
            if total > 0.95 {
                let scale = 0.95 / total;
                for (l, h) in lo.iter_mut().zip(hi.iter_mut()) {
                    *l *= scale;
                    *h *= scale;
                }
            }
            (lo, hi)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// r-dominance is antisymmetric and consistent with score order
    /// at the region's pivot.
    #[test]
    fn rdominance_is_a_strict_partial_order(
        pts in dataset(12, 3),
        (lo, hi) in query_box(2),
    ) {
        let region = Region::hyperrect(lo, hi);
        let pivot = region.pivot().unwrap();
        for a in 0..pts.len() {
            for b in 0..pts.len() {
                if a == b { continue; }
                let ab = r_dominance(&pts[a], &pts[b], &region);
                let ba = r_dominance(&pts[b], &pts[a], &region);
                if ab == RDominance::Dominates {
                    prop_assert_eq!(ba, RDominance::DominatedBy);
                    // Dominator scores at least as high at the pivot.
                    let sa = utk::geom::pref_score(&pts[a], &pivot);
                    let sb = utk::geom::pref_score(&pts[b], &pivot);
                    prop_assert!(sa >= sb - 1e-9);
                }
            }
        }
    }

    /// UTK1 contains every sampled top-k set and stays inside the
    /// r-skyband (minimality spot-check: superset of the sampled
    /// union, subset of the filter).
    #[test]
    fn utk1_sandwich(
        pts in dataset(60, 3),
        (lo, hi) in query_box(2),
        k in 1usize..5,
    ) {
        let region = Region::hyperrect(lo.clone(), hi.clone());
        let res = rsa(&pts, &region, k, &RsaOptions::default());

        let tree = RTree::bulk_load(&pts);
        let store = PointStore::from_rows(&pts);
        let cs = r_skyband(Source::Tree { points: &store, view: TreeView::packed(&tree) }, &region, k, true, ScreenKernel::default(), &mut Stats::new()).unwrap();
        for id in &res.records {
            prop_assert!(cs.ids.contains(id));
        }

        for i in 0..4 {
            for j in 0..4 {
                let w: Vec<f64> = lo.iter().zip(&hi).enumerate().map(|(dim, (l, h))| {
                    let t = if dim == 0 { i } else { j } as f64 / 3.0;
                    l + t * (h - l)
                }).collect();
                for id in top_k_brute(&pts, &w, k) {
                    prop_assert!(res.records.contains(&id), "missing {} at {:?}", id, w);
                }
            }
        }
    }

    /// JAA's union is RSA's answer; each cell's interior label is the
    /// brute-force top-k.
    #[test]
    fn jaa_consistency(
        pts in dataset(50, 3),
        (lo, hi) in query_box(2),
        k in 1usize..4,
    ) {
        let region = Region::hyperrect(lo, hi);
        let u1 = rsa(&pts, &region, k, &RsaOptions::default());
        let u2 = jaa(&pts, &region, k, &JaaOptions::default());
        prop_assert_eq!(&u2.records, &u1.records);
        for cell in &u2.cells {
            let mut want = top_k_brute(&pts, &cell.interior, k);
            want.sort_unstable();
            prop_assert_eq!(&cell.top_k, &want);
        }
    }

    /// Growing R can only grow the UTK1 answer (monotonicity).
    #[test]
    fn utk1_monotone_in_region(
        pts in dataset(50, 3),
        (lo, hi) in query_box(2),
        k in 1usize..4,
    ) {
        let small = Region::hyperrect(lo.clone(), hi.clone());
        // Grow only the lower corner: a guaranteed superset that
        // cannot leave the preference simplex.
        let big = Region::hyperrect(
            lo.iter().map(|l| (l - 0.02).max(0.0)).collect(),
            hi.clone(),
        );
        let rs = rsa(&pts, &small, k, &RsaOptions::default());
        let rb = rsa(&pts, &big, k, &RsaOptions::default());
        for id in &rs.records {
            prop_assert!(rb.records.contains(id), "record {} lost when R grew", id);
        }
    }

    /// Growing k can only grow the UTK1 answer.
    #[test]
    fn utk1_monotone_in_k(
        pts in dataset(50, 3),
        (lo, hi) in query_box(2),
    ) {
        let region = Region::hyperrect(lo, hi);
        let r1 = rsa(&pts, &region, 2, &RsaOptions::default());
        let r2 = rsa(&pts, &region, 3, &RsaOptions::default());
        for id in &r1.records {
            prop_assert!(r2.records.contains(id));
        }
    }

    /// The 2-D oracle agrees with RSA on arbitrary instances.
    #[test]
    fn oracle_agreement_2d(
        pts in dataset(40, 2),
        lo in 0.05f64..0.6,
        width in 0.05f64..0.3,
        k in 1usize..4,
    ) {
        let hi = (lo + width).min(0.95);
        let (_, want) = utk::core::oracle::sweep_2d(&pts, lo, hi, k);
        let region = Region::hyperrect(vec![lo], vec![hi]);
        let got = rsa(&pts, &region, k, &RsaOptions::default());
        prop_assert_eq!(got.records, want);
    }

    /// Parallel JAA is **cell-for-cell** identical to sequential JAA
    /// — same cell count, order, interiors and top-k labels — through
    /// the engine and through the legacy entry point, and both agree
    /// with RSA on the record union. Deterministic work counters
    /// (everything but `stolen_tasks`) agree too.
    #[test]
    fn parallel_jaa_equals_sequential_cell_for_cell(
        pts in dataset(60, 3),
        (lo, hi) in query_box(2),
        k in 1usize..5,
        threads in 1usize..5,
    ) {
        let region = Region::hyperrect(lo, hi);
        let engine = UtkEngine::new(pts.clone()).unwrap().with_pool_threads(threads);
        let seq = engine
            .run(&UtkQuery::utk2(k).region(region.clone()))
            .unwrap();
        let par = engine
            .run(&UtkQuery::utk2(k).region(region.clone()).parallel(true))
            .unwrap();
        let (seq, par) = (seq.as_utk2().unwrap(), par.as_utk2().unwrap());
        prop_assert_eq!(seq.cells.len(), par.cells.len());
        for (a, b) in seq.cells.iter().zip(&par.cells) {
            prop_assert_eq!(&a.top_k, &b.top_k);
            prop_assert_eq!(&a.interior, &b.interior);
        }
        prop_assert_eq!(&seq.records, &par.records);
        prop_assert_eq!(seq.stats.drills, par.stats.drills);
        prop_assert_eq!(seq.stats.arrangements_built, par.stats.arrangements_built);
        prop_assert_eq!(seq.stats.halfspaces_inserted, par.stats.halfspaces_inserted);
        prop_assert_eq!(seq.stats.cells_created, par.stats.cells_created);
        prop_assert_eq!(seq.stats.peak_arrangement_bytes, par.stats.peak_arrangement_bytes);

        let free = jaa_parallel(&pts, &region, k, &JaaOptions::default(), threads);
        prop_assert_eq!(free.cells.len(), seq.cells.len());
        for (a, b) in seq.cells.iter().zip(&free.cells) {
            prop_assert_eq!(&a.top_k, &b.top_k);
            prop_assert_eq!(&a.interior, &b.interior);
        }

        let u1 = rsa(&pts, &region, k, &RsaOptions::default());
        prop_assert_eq!(&par.records, &u1.records);
    }

    /// `run_many` is exactly `map(run)` — per-query results in input
    /// order — including duplicate queries and arbitrary rotations of
    /// the batch.
    #[test]
    fn run_many_equals_mapping_run(
        pts in dataset(50, 3),
        (lo, hi) in query_box(2),
        (lo2, hi2) in query_box(2),
        k in 1usize..4,
        rot in 0usize..8,
    ) {
        let engine = UtkEngine::new(pts).unwrap().with_pool_threads(2);
        let r1 = Region::hyperrect(lo, hi);
        let r2 = Region::hyperrect(lo2, hi2);
        let mut queries = vec![
            UtkQuery::utk1(k).region(r1.clone()),
            UtkQuery::utk2(k).region(r1.clone()),
            UtkQuery::utk1(k + 1).region(r2.clone()),
            UtkQuery::utk1(k).region(r1.clone()),           // duplicate
            UtkQuery::utk2(k).region(r2.clone()).parallel(true),
            UtkQuery::utk2(k).region(r1.clone()),           // duplicate
        ];
        let n = queries.len();
        queries.rotate_left(rot % n);                       // permuted batch
        let batch = engine.run_many(&queries);
        prop_assert_eq!(batch.len(), n);
        for (q, r) in queries.iter().zip(&batch) {
            let single = engine.run(q).unwrap();
            let r = r.as_ref().unwrap();
            prop_assert_eq!(r.records(), single.records());
            match (r.cells(), single.cells()) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(b) {
                        prop_assert_eq!(&x.top_k, &y.top_k);
                        prop_assert_eq!(&x.interior, &y.interior);
                    }
                }
                (None, None) => {}
                _ => prop_assert!(false, "batch and single disagree on result shape"),
            }
        }
    }

    /// The r-skyband graph is sound: arcs are true r-dominances and
    /// counts are below k.
    #[test]
    fn rskyband_graph_sound(
        pts in dataset(40, 3),
        (lo, hi) in query_box(2),
        k in 1usize..4,
    ) {
        let region = Region::hyperrect(lo, hi);
        let tree = RTree::bulk_load(&pts);
        let store = PointStore::from_rows(&pts);
        let cs = r_skyband(Source::Tree { points: &store, view: TreeView::packed(&tree) }, &region, k, true, ScreenKernel::default(), &mut Stats::new()).unwrap();
        for v in 0..cs.len() as u32 {
            prop_assert!(cs.graph.dominance_count(v) < k);
            for &a in cs.graph.ancestors(v) {
                prop_assert_eq!(
                    r_dominance(&cs.points[a as usize], &cs.points[v as usize], &region),
                    RDominance::Dominates
                );
            }
        }
    }

    /// The corner-score fast path of the filter screen — classifying
    /// r-dominance from per-vertex scores cached on admission — agrees
    /// with `r_dominance`'s range computation on random box regions
    /// and random vertex-listed polytopes (axis-legged triangles).
    #[test]
    fn corner_score_sweep_classifies_like_r_dominance(
        pts in dataset(16, 3),
        (lo, hi) in query_box(2),
        tri in ((0.02f64..0.4, 0.02f64..0.4), (0.02f64..0.25, 0.02f64..0.25)),
    ) {
        use utk::core::rdominance::classify_corner_scores;
        use utk::geom::{pref_score, Constraint};

        // An axis-legged triangle with vertices A=(x,y), B=(x+s,y),
        // C=(x,y+t): w1 ≥ x, w2 ≥ y, t·w1 + s·w2 ≤ t·x + s·y + s·t.
        let ((x, y), (s, t)) = tri;
        let (s, t) = (s.min(0.9 - x - y), t.min(0.9 - x - y));
        let triangle = Region::with_vertices(
            2,
            vec![
                Constraint::ge(&[1.0, 0.0], x),
                Constraint::ge(&[0.0, 1.0], y),
                Constraint::le(vec![t, s], t * x + s * y + s * t),
            ],
            vec![vec![x, y], vec![x + s, y], vec![x, y + t]],
        );
        let boxed = Region::hyperrect(lo, hi);
        for region in [&boxed, &triangle] {
            let corners = region.vertex_store(256).unwrap();
            let scores = |p: &[f64]| -> Vec<f64> {
                corners.iter().map(|v| pref_score(p, v)).collect()
            };
            for a in 0..pts.len() {
                for b in 0..pts.len() {
                    let fast = classify_corner_scores(&scores(&pts[a]), &scores(&pts[b]));
                    let slow = r_dominance(&pts[a], &pts[b], region);
                    prop_assert_eq!(fast, slow, "pair ({}, {})", a, b);
                }
            }
        }
    }

    /// A superset-reuse hit reproduces the cold r-skyband exactly:
    /// same ids in the same order, same flat points, same graph arcs.
    #[test]
    fn superset_rescreen_equals_cold_bbs(
        pts in dataset(80, 3),
        (lo, hi) in query_box(2),
        shrink in (0.1f64..0.45, 0.1f64..0.45),
        k in 1usize..5,
    ) {
        // Inner box: the outer box shrunk from both ends.
        let (a, b) = shrink;
        let ilo: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| l + a * (h - l)).collect();
        let ihi: Vec<f64> = ilo.iter().zip(&hi).map(|(l, h)| l + (1.0 - b) * (h - l).max(0.0)).collect();
        let ihi: Vec<f64> = ilo.iter().zip(ihi.iter()).map(|(l, h)| h.max(*l)).collect();
        let outer = Region::hyperrect(lo, hi);
        let inner = Region::hyperrect(ilo, ihi);
        prop_assert!(outer.contains_region(&inner));

        let tree = RTree::bulk_load(&pts);
        let store = PointStore::from_rows(&pts);
        let sup = r_skyband(Source::Tree { points: &store, view: TreeView::packed(&tree) }, &outer, k, true, ScreenKernel::default(), &mut Stats::new()).unwrap();
        let cold = r_skyband(Source::Tree { points: &store, view: TreeView::packed(&tree) }, &inner, k, true, ScreenKernel::default(), &mut Stats::new()).unwrap();
        let warm = r_skyband(Source::Superset(&sup), &inner, k, true, ScreenKernel::default(), &mut Stats::new()).unwrap();
        prop_assert_eq!(&warm.ids, &cold.ids);
        prop_assert_eq!(&warm.points, &cold.points);
        prop_assert_eq!(&warm.graph, &cold.graph);
    }
}
