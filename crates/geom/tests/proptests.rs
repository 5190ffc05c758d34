//! Property-based tests for the geometry kernel.

use proptest::prelude::*;
use utk_geom::{
    pref_score, score_upper_bound, Arrangement, Constraint, Halfspace, LinearProgram, LpOutcome,
    Region,
};

fn small_coef() -> impl Strategy<Value = f64> {
    -1.0f64..1.0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The LP maximum over a box is never beaten by any sampled
    /// feasible point, and is attained within the box.
    #[test]
    fn lp_max_dominates_grid_samples(
        c0 in small_coef(), c1 in small_coef(), c2 in small_coef(),
        cut_a in prop::collection::vec(-1.0f64..1.0, 3),
        cut_b in -0.5f64..1.5,
    ) {
        let mut lp = LinearProgram::new(3);
        for i in 0..3 {
            let mut e = vec![0.0; 3];
            e[i] = 1.0;
            lp.add_le(e, 1.0); // unit box (x ≥ 0 implicit)
        }
        lp.add_le(cut_a.clone(), cut_b);
        let c = [c0, c1, c2];
        match lp.maximize(&c) {
            LpOutcome::Optimal { x, value } => {
                // Optimum is feasible.
                prop_assert!(x.iter().all(|v| *v >= -1e-9 && *v <= 1.0 + 1e-9));
                let cut: f64 = cut_a.iter().zip(&x).map(|(a, v)| a * v).sum();
                prop_assert!(cut <= cut_b + 1e-7);
                // No grid point beats it.
                for i in 0..=4 {
                    for j in 0..=4 {
                        for l in 0..=4 {
                            let p = [i as f64 / 4.0, j as f64 / 4.0, l as f64 / 4.0];
                            let pc: f64 = cut_a.iter().zip(&p).map(|(a, v)| a * v).sum();
                            if pc <= cut_b + 1e-12 {
                                let val: f64 =
                                    c.iter().zip(&p).map(|(ci, v)| ci * v).sum();
                                prop_assert!(val <= value + 1e-7);
                            }
                        }
                    }
                }
            }
            LpOutcome::Infeasible => {
                // Then no grid point may be feasible either.
                for i in 0..=4 {
                    for j in 0..=4 {
                        for l in 0..=4 {
                            let p = [i as f64 / 4.0, j as f64 / 4.0, l as f64 / 4.0];
                            let pc: f64 = cut_a.iter().zip(&p).map(|(a, v)| a * v).sum();
                            prop_assert!(pc > cut_b - 1e-9);
                        }
                    }
                }
            }
            LpOutcome::Unbounded => prop_assert!(false, "box LPs are bounded"),
        }
    }

    /// An interior point returned with positive slack satisfies all
    /// constraints strictly.
    #[test]
    fn interior_points_are_strictly_inside(
        cuts in prop::collection::vec((prop::collection::vec(-1.0f64..1.0, 2), 0.0f64..1.0), 0..4),
    ) {
        let mut region = Region::hyperrect(vec![0.0, 0.0], vec![1.0, 1.0]);
        for (a, b) in &cuts {
            region = region.with_constraint(Constraint::le(a.clone(), *b));
        }
        if let Some((p, slack)) = region.interior_point() {
            if slack > 1e-8 {
                for c in region.constraints() {
                    prop_assert!(c.eval(&p) < 0.0, "constraint active at interior point");
                }
            }
        }
    }

    /// Arrangement cell counts equal pointwise half-space membership
    /// at the cached interior points, in 3-D.
    #[test]
    fn arrangement_counts_pointwise_3d(
        hss in prop::collection::vec(
            (prop::collection::vec(-1.0f64..1.0, 3), -0.5f64..0.5),
            1..6
        ),
    ) {
        let base = Region::hyperrect(vec![0.0; 3], vec![1.0; 3]);
        let mut arr = Arrangement::new(base).unwrap();
        let halfspaces: Vec<Halfspace> = hss
            .iter()
            .map(|(a, b)| Halfspace::ge(a.clone(), *b))
            .collect();
        for (i, h) in halfspaces.iter().enumerate() {
            if h.is_degenerate() {
                continue;
            }
            arr.insert(h.clone(), i as u32);
        }
        for (_, cell) in arr.live_cells() {
            let direct = halfspaces
                .iter()
                .filter(|h| !h.is_degenerate() && h.contains(cell.interior()))
                .count();
            prop_assert_eq!(cell.count(), direct);
            prop_assert!(cell.region().contains(cell.interior()));
        }
    }

    /// Halfspace::beats is consistent with direct score comparison at
    /// random weights.
    #[test]
    fn beats_halfspace_pointwise(
        p in prop::collection::vec(0.0f64..1.0, 4),
        q in prop::collection::vec(0.0f64..1.0, 4),
        w in prop::collection::vec(0.01f64..0.3, 3),
    ) {
        let h = Halfspace::beats(&p, &q);
        let sp = utk_geom::pref_score(&p, &w);
        let sq = utk_geom::pref_score(&q, &w);
        if (sp - sq).abs() > 1e-9 && !h.is_degenerate() {
            prop_assert_eq!(h.contains(&w), sp >= sq);
        }
    }

    /// linear_range over a box bounds every sampled value.
    #[test]
    fn linear_range_bounds_samples(
        lo in prop::collection::vec(0.0f64..0.4, 3),
        side in 0.05f64..0.4,
        a in prop::collection::vec(-2.0f64..2.0, 3),
        c in -1.0f64..1.0,
    ) {
        let hi: Vec<f64> = lo.iter().map(|l| l + side).collect();
        let region = Region::hyperrect(lo.clone(), hi.clone());
        let (min, max) = region.linear_range(&a, c).unwrap();
        for mask in 0..8u32 {
            let w: Vec<f64> = (0..3)
                .map(|i| if mask >> i & 1 == 1 { hi[i] } else { lo[i] })
                .collect();
            let v: f64 = a.iter().zip(&w).map(|(ai, wi)| ai * wi).sum::<f64>() + c;
            prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
        }
    }
}

/// One coordinate pair `(lo, hi)` with `lo ≤ hi`.
fn axis() -> impl Strategy<Value = (f64, f64)> {
    (-10.0f64..10.0, 0.0f64..5.0).prop_map(|(lo, span)| (lo, lo + span))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `score_upper_bound` is never beaten, as computed, by a record in
    /// its box — at the box corners, one ulp inside them, and at an
    /// interior point — for weights anywhere in the engine's admitted
    /// domain (each `≥ −1e-6`, summing to at most `1 + 1e-6`).
    #[test]
    fn score_upper_bound_covers_its_box(
        axes in prop::collection::vec(axis(), 2..7),
        raw in prop::collection::vec(-1e-6f64..1.0, 6),
        t in prop::collection::vec(0.0f64..1.0, 7),
    ) {
        let d = axes.len();
        let (lo, hi): (Vec<f64>, Vec<f64>) = axes.iter().copied().unzip();
        // Scale the raw weights so their sum lands in the admitted
        // range, keeping every weight at or above −1e-6.
        let mut w: Vec<f64> = raw[..d - 1].to_vec();
        let sum: f64 = w.iter().sum();
        if sum > 1.0 + 1e-6 {
            for wi in &mut w {
                if *wi > 0.0 {
                    *wi *= (1.0 + 5e-7) / sum;
                }
            }
        }
        let bound = score_upper_bound(&lo, &hi, &w);
        for mask in 0..(1u32 << d) {
            let corner: Vec<f64> =
                (0..d).map(|i| if mask >> i & 1 == 1 { hi[i] } else { lo[i] }).collect();
            prop_assert!(pref_score(&corner, &w) <= bound);
            let nudged: Vec<f64> = (0..d)
                .map(|i| {
                    if mask >> i & 1 == 1 {
                        hi[i].next_down().max(lo[i])
                    } else {
                        lo[i].next_up().min(hi[i])
                    }
                })
                .collect();
            prop_assert!(pref_score(&nudged, &w) <= bound);
        }
        let inner: Vec<f64> = (0..d).map(|i| (lo[i] + t[i] * (hi[i] - lo[i])).min(hi[i])).collect();
        prop_assert!(pref_score(&inner, &w) <= bound);
    }
}
