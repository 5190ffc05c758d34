//! Oracle-locked screen-kernel tests: the blocked (vectorizable)
//! r-dominance classifier must be observationally invisible — every
//! lane of every block agrees with the scalar `classify_corner_scores`
//! oracle, and whole r-skyband outputs (fresh build, superset
//! re-screen, both splice repairs) are byte-identical
//! across both [`ScreenKernel`] settings.

use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use utk::core::rdominance::{blocked_dominates_mask, classify_corner_scores, RDominance};
use utk::core::skyband::TOMBSTONE;
use utk::geom::tol::EPS;
use utk::geom::{ScorePanel, SCORE_LANES};
use utk::prelude::*;

/// Per-vertex deltas that stress the classifier: exact ±EPS/±2·EPS
/// boundaries (the tolerance band of Definition 1), zero, and
/// ordinary magnitudes. NaN-free by construction — NaN degradation
/// has its own unit tests in `utk_core::rdominance`.
const BOUNDARY_DELTAS: [f64; 7] = [-2.0 * EPS, -EPS, 0.0, EPS, 2.0 * EPS, -0.25, 0.25];

/// A random probe score vector plus member score rows built as
/// probe-plus-delta, with deltas drawn from the boundary set — so blocked and
/// scalar paths both compute `member − probe` over the same
/// tolerance-critical inputs. The member count deliberately straddles
/// block boundaries (partial last block included).
fn boundary_panel(rng: &mut ChaCha8Rng) -> (Vec<f64>, Vec<Vec<f64>>) {
    let nv = rng.gen_range(1..6);
    let members = rng.gen_range(1..2 * SCORE_LANES + 6);
    let probe: Vec<f64> = (0..nv).map(|_| rng.gen_range(0.1..0.9)).collect();
    let rows: Vec<Vec<f64>> = (0..members)
        .map(|_| {
            probe
                .iter()
                .map(|&qs| qs + BOUNDARY_DELTAS[rng.gen_range(0..BOUNDARY_DELTAS.len())])
                .collect()
        })
        .collect();
    (probe, rows)
}

/// The blocked mask for member `m` of a panel, extracted lane-wise.
fn blocked_says_dominates(panel: &ScorePanel, probe: &[f64], m: usize) -> bool {
    let b = m / SCORE_LANES;
    let mask = blocked_dominates_mask(panel.block_f64(b), probe);
    mask >> (m % SCORE_LANES) & 1 == 1
}

proptest! {
    // Default 32 cases; the CI `screen-kernel-fuzz` job raises this
    // via PROPTEST_CASES=256 in release mode.

    /// Lane-exact equivalence: for every member of a random panel —
    /// including exact ±EPS boundary deltas — the blocked kernel's
    /// dominance bit equals the scalar classifier's verdict.
    #[test]
    fn blocked_kernel_matches_scalar_classifier(seed in 0u64..1 << 32) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5CA1);
        let (probe, rows) = boundary_panel(&mut rng);
        let nv = probe.len();
        let mut panel = ScorePanel::new(nv);
        for row in &rows {
            panel.push(row);
        }
        for (m, row) in rows.iter().enumerate() {
            let scalar = classify_corner_scores(row, &probe);
            let blocked = blocked_says_dominates(&panel, &probe, m);
            prop_assert_eq!(
                blocked,
                scalar == RDominance::Dominates,
                "member {} (scores {:?} vs probe {:?}) classified {:?} by the oracle",
                m, row, &probe, scalar
            );
        }
        // Padding lanes of the last block must never read as
        // dominating the probe.
        let last = panel.blocks() - 1;
        let mask = blocked_dominates_mask(panel.block_f64(last), &probe);
        let live = rows.len() - last * SCORE_LANES;
        prop_assert_eq!(u32::from(mask) >> live, 0, "padding lane claimed dominance");
    }

    /// Whole-output byte-identity for every r-skyband source: the
    /// `CandidateSet` (ids, points, dominator graph) of the blocked
    /// kernel equals the scalar oracle's on a fresh tree walk, when
    /// re-screening a cached superset for a nested region, and when
    /// splice-repairing the fresh set after inserts or a member delete.
    #[test]
    fn rskyband_is_identical_across_kernels(
        seed in 0u64..1 << 32,
        k in 1usize..4,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xB10C);
        let d = 3;
        let pts: Vec<Vec<f64>> = (0..60)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let tree = RTree::bulk_load(&pts);
        let store = PointStore::from_rows(&pts);
        let lo: Vec<f64> = (0..d - 1).map(|_| rng.gen_range(0.03..0.15)).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.05..0.2)).collect();
        let outer = Region::hyperrect(lo.clone(), hi.clone());
        let kernels = [ScreenKernel::Scalar, ScreenKernel::Blocked];
        let fresh: Vec<CandidateSet> = kernels
            .iter()
            .map(|&kernel| {
                r_skyband(Source::Tree { points: &store, view: TreeView::packed(&tree) }, &outer, k, true, kernel, &mut Stats::new()).unwrap()
            })
            .collect();
        prop_assert_eq!(&fresh[1], &fresh[0], "blocked diverged from scalar (fresh)");

        // Nested region strictly inside `outer`: the superset
        // re-screen path, where the panel is rebuilt per admit.
        let ilo: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| l + 0.25 * (h - l)).collect();
        let ihi: Vec<f64> = lo.iter().zip(&hi).map(|(l, h)| l + 0.75 * (h - l)).collect();
        let inner = Region::hyperrect(ilo, ihi);
        let warm: Vec<CandidateSet> = kernels
            .iter()
            .zip(&fresh)
            .map(|(&kernel, sup)| {
                r_skyband(Source::Superset(sup), &inner, k, true, kernel, &mut Stats::new()).unwrap()
            })
            .collect();
        prop_assert_eq!(&warm[1], &warm[0], "blocked diverged from scalar (superset)");

        // Splice repairs of the fresh set, both branches: inserts only
        // (the list pass) and a member delete (the tree pass, through
        // the stale tree's overlay). One insert dominates everything,
        // so the splice always has work to do.
        let old = &fresh[0];
        let mut inserts: Vec<Vec<f64>> = (0..3)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        inserts.push(vec![0.99; d]);
        let victim = old.ids[old.len() / 2];
        for delete in [false, true] {
            let mut shift = vec![TOMBSTONE; pts.len()];
            let mut rows: Vec<Vec<f64>> = Vec::new();
            for (i, p) in pts.iter().enumerate() {
                if !(delete && i as u32 == victim) {
                    shift[i] = rows.len() as u32;
                    rows.push(p.clone());
                }
            }
            let extra: Vec<u32> = (rows.len() as u32..(rows.len() + inserts.len()) as u32).collect();
            rows.extend(inserts.iter().cloned());
            let store = PointStore::from_rows(&rows);
            let old_ids_new: Vec<u32> = old.ids.iter().map(|&id| shift[id as usize]).collect();
            let live_inserts: Vec<u32> = extra
                .iter()
                .copied()
                .filter(|&id| !rejected_by_members(old, &rows[id as usize], &outer, k, true))
                .collect();
            let repaired: Vec<Option<CandidateSet>> = kernels
                .iter()
                .map(|&kernel| {
                    let source = Source::Repair {
                        old,
                        old_ids_new: &old_ids_new,
                        live_inserts: &live_inserts,
                        points: &store,
                        view: TreeView::overlay(&tree, Some(&shift), &extra),
                    };
                    r_skyband(source, &outer, k, true, kernel, &mut Stats::new())
                })
                .collect();
            prop_assert!(repaired[0].is_some(), "repair refused (delete = {})", delete);
            prop_assert_eq!(
                &repaired[1], &repaired[0],
                "blocked diverged from scalar (repair, delete = {})", delete
            );
        }
    }

    /// End-to-end engine twins over random mutation interleavings: a
    /// default (blocked) engine and a `without_blocked_kernel`
    /// scalar twin walk the same update/query sequence — warm-cache
    /// queries, splice repairs, superset re-screens — and must agree
    /// on every answer and on the candidate-set size that pins the
    /// filtered r-skyband itself.
    #[test]
    fn engine_twin_agrees_through_mutations(
        seed in 0u64..1 << 32,
        steps in 1usize..5,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xFA57);
        let d = 3;
        let n0 = rng.gen_range(24..48);
        let model: Vec<Vec<f64>> = (0..n0)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let fast = UtkEngine::new(model.clone()).unwrap();
        let scalar = UtkEngine::new(model).unwrap().without_blocked_kernel();
        let lo: Vec<f64> = (0..d - 1).map(|_| rng.gen_range(0.03..0.15)).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.05..0.15)).collect();
        let warm = Region::hyperrect(lo.clone(), hi.clone());
        let inner = Region::hyperrect(
            lo.iter().zip(&hi).map(|(l, h)| l + 0.3 * (h - l)).collect(),
            lo.iter().zip(&hi).map(|(l, h)| l + 0.7 * (h - l)).collect(),
        );
        let k = rng.gen_range(1..4);
        fast.utk1(&warm, k).unwrap();
        scalar.utk1(&warm, k).unwrap();
        for step in 0..steps {
            let len = fast.len();
            let n_del = if len > 8 { rng.gen_range(0..4) } else { 0 };
            let mut deletes: Vec<u32> = Vec::new();
            while deletes.len() < n_del {
                let id = rng.gen_range(0..len as u32);
                if !deletes.contains(&id) {
                    deletes.push(id);
                }
            }
            let inserts: Vec<Vec<f64>> = (0..rng.gen_range(0..4))
                .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            let a = fast.apply_update(&deletes, inserts.clone()).unwrap();
            let b = scalar.apply_update(&deletes, inserts).unwrap();
            prop_assert_eq!(a.epoch, b.epoch);
            // Warm query: repair or superset reuse on both twins.
            let ra = fast.utk1(&warm, k).unwrap();
            let rb = scalar.utk1(&warm, k).unwrap();
            prop_assert_eq!(&ra.records, &rb.records, "records diverged at step {}", step);
            prop_assert_eq!(
                ra.stats.candidates, rb.stats.candidates,
                "candidate sets diverged at step {}", step
            );
            // Nested query: the superset re-screen path.
            let na = fast.utk1(&inner, k).unwrap();
            let nb = scalar.utk1(&inner, k).unwrap();
            prop_assert_eq!(&na.records, &nb.records, "nested records diverged at step {}", step);
            prop_assert_eq!(na.stats.candidates, nb.stats.candidates);
        }
    }
}
