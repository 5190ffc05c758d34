//! Convex-hull utilities for the onion baseline (§3.3 of the paper).
//!
//! The onion technique only needs, per layer, the records that define
//! convex-hull facets whose normal lies in the first quadrant —
//! exactly the records that can rank first for some non-negative
//! weight vector. Two implementations are provided:
//!
//! * [`upper_hull_2d`]: the exact upper-right convex chain for `d = 2`
//!   (a quickhull/monotone-chain specialisation);
//! * [`hull_membership`]: an LP feasibility test for arbitrary `d`
//!   (does a top-1 witness weight vector exist for this record?).
//!
//! They agree for `d = 2`, which the tests exploit.

use crate::lp::{LinearProgram, LpOutcome};
use crate::pref::{pref_score, pref_score_delta};
use crate::store::Rows;
use crate::tol::EPS;

/// Indices of the points on the *upper-right* convex chain — the part
/// of the hull with facet normals in the (closed) first quadrant,
/// i.e. the records that maximize `w1·x + w2·y` for some `w ≥ 0`.
///
/// Returned in decreasing-`y` (equivalently increasing-`x`) order.
/// Duplicate points contribute a single representative (smallest
/// index).
pub fn upper_hull_2d(points: &[(f64, f64)]) -> Vec<usize> {
    if points.is_empty() {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..points.len()).collect();
    // Sort by x ascending; among equal x keep the max-y first so the
    // chain scan can skip the dominated duplicates below it.
    idx.sort_by(|&i, &j| {
        points[i]
            .0
            .total_cmp(&points[j].0)
            .then(points[j].1.total_cmp(&points[i].1))
            .then(i.cmp(&j))
    });
    idx.dedup_by(|&mut b, &mut a| points[a].0 == points[b].0); // keep max-y per x

    // Upper hull via monotone chain (right turns only).
    let cross = |o: usize, a: usize, b: usize| -> f64 {
        let (ox, oy) = points[o];
        let (ax, ay) = points[a];
        let (bx, by) = points[b];
        (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
    };
    let mut hull: Vec<usize> = Vec::new();
    for &i in &idx {
        while hull.len() >= 2 && cross(hull[hull.len() - 2], hull[hull.len() - 1], i) >= 0.0 {
            hull.pop();
        }
        hull.push(i);
    }

    // Keep only the chain from the max-y vertex onward: vertices
    // before it face directions with a negative x-component.
    let top = hull
        .iter()
        .enumerate()
        .max_by(|(_, &a), (_, &b)| {
            points[a]
                .1
                .total_cmp(&points[b].1)
                .then(points[a].0.total_cmp(&points[b].0))
        })
        .map(|(pos, _)| pos)
        .unwrap_or(0);
    hull.split_off(top)
}

/// LP-based hull membership for arbitrary dimension: true iff record
/// `candidate` (an index into `data`) can rank first among
/// `data[active]` for some weight vector of the closed preference
/// simplex — equivalently, iff it defines a convex-hull facet with
/// normal in the *closed* first quadrant (the part the onion baseline
/// keeps). The closed test admits records that only tie for the top
/// on a simplex boundary (zero weights); for a filter that must be a
/// superset of all top-k results this looseness is harmless.
///
/// Uses lazy constraint generation: instead of one LP with `|active|`
/// constraints (prohibitive for skyband-sized candidate sets), it
/// solves a sequence of small LPs over a working set, adding the most
/// violated competitor after each round. Exact, and in practice the
/// working set stays near the dimensionality.
///
/// `active` must contain `candidate`.
pub fn hull_membership<R: Rows + ?Sized>(data: &R, active: &[usize], candidate: usize) -> bool {
    let cand = data.row(candidate);
    let dp = cand.len() - 1;

    // Working set of competitor constraints (indices into `data`).
    let mut working: Vec<usize> = Vec::new();
    let mut in_working = vec![false; data.len()];

    // Iterations are bounded by |active| (each adds one competitor);
    // a couple of extra rounds guard against tolerance ping-pong.
    for _ in 0..active.len() + 4 {
        // Variables: w (dp entries, ≥ 0 implicit) and slack t ≥ 0.
        // maximize t  s.t.  Σw ≤ 1,  t ≤ 1,
        //                   S(cand)(w) − S(q)(w) ≥ t  ∀ q ∈ working.
        let mut lp = LinearProgram::new(dp + 1);
        let mut simplex_row = vec![1.0; dp + 1];
        simplex_row[dp] = 0.0;
        lp.add_le(simplex_row, 1.0);
        let mut t_cap = vec![0.0; dp + 1];
        t_cap[dp] = 1.0;
        lp.add_le(t_cap, 1.0);
        for &q in &working {
            let (a, c0) = pref_score_delta(cand, data.row(q));
            // a·w + c0 ≥ t  ⇔  −a·w + t ≤ c0
            let mut row: Vec<f64> = a.iter().map(|v| -v).collect();
            row.push(1.0);
            lp.add_le(row, c0);
        }
        let mut obj = vec![0.0; dp + 1];
        obj[dp] = 1.0;
        let w = match lp.maximize(&obj) {
            LpOutcome::Optimal { x, value } => {
                if value < -EPS {
                    return false; // even the working set is infeasible
                }
                x[..dp].to_vec()
            }
            LpOutcome::Infeasible => return false,
            LpOutcome::Unbounded => unreachable!("t is capped at 1"),
        };

        // Scan for the most violated competitor at the witness w.
        let s_cand = pref_score(cand, &w);
        let mut worst: Option<(f64, usize)> = None;
        for &q in active {
            if q == candidate || in_working[q] {
                continue;
            }
            let delta = s_cand - pref_score(data.row(q), &w);
            if delta < -EPS && worst.is_none_or(|(d, _)| delta < d) {
                worst = Some((delta, q));
            }
        }
        match worst {
            None => return true, // w certifies top-1 among all active
            Some((_, q)) => {
                working.push(q);
                in_working[q] = true;
            }
        }
    }
    // Tolerance ping-pong exhausted the budget: classify by a final
    // full feasibility check over the working set only (conservative:
    // keep the candidate — a filter may only err toward supersets).
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staircase_upper_hull() {
        // Figure 3-style staircase: hull should be the outer maxima
        // chain p1(1,9), p2(4,7), p6(8,4), p9(9,1) — indices 0,1,2,3.
        let pts = vec![
            (1.0, 9.0),
            (4.0, 7.0),
            (8.0, 4.0),
            (9.0, 1.0),
            (2.0, 6.0), // dominated interior
            (5.0, 3.0),
        ];
        let hull = upper_hull_2d(&pts);
        assert_eq!(hull, vec![0, 1, 2, 3]);
    }

    #[test]
    fn collinear_points_are_dropped() {
        let pts = vec![(0.0, 2.0), (1.0, 1.0), (2.0, 0.0)];
        // (1,1) lies on the segment: not a vertex (ties only on a
        // measure-zero direction), chain keeps endpoints.
        let hull = upper_hull_2d(&pts);
        assert_eq!(hull, vec![0, 2]);
    }

    #[test]
    fn single_point_and_duplicates() {
        assert_eq!(upper_hull_2d(&[(3.0, 4.0)]), vec![0]);
        let hull = upper_hull_2d(&[(3.0, 4.0), (3.0, 4.0)]);
        assert_eq!(hull, vec![0]);
    }

    #[test]
    fn dominated_point_never_on_hull() {
        let pts = vec![(5.0, 5.0), (4.0, 4.0)];
        assert_eq!(upper_hull_2d(&pts), vec![0]);
    }

    #[test]
    fn left_arm_of_full_hull_excluded() {
        // (0,0) is a hull vertex of the full convex hull but faces
        // directions with negative weights only.
        let pts = vec![(0.0, 0.0), (0.0, 5.0), (5.0, 0.0), (3.0, 3.5)];
        let hull = upper_hull_2d(&pts);
        assert_eq!(hull, vec![1, 3, 2]);
    }

    #[test]
    fn lp_membership_agrees_with_2d_hull() {
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for _ in 0..20 {
            let n = 12;
            let data: Vec<Vec<f64>> = (0..n)
                .map(|_| vec![rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)])
                .collect();
            let pts: Vec<(f64, f64)> = data.iter().map(|p| (p[0], p[1])).collect();
            let hull: std::collections::HashSet<usize> = upper_hull_2d(&pts).into_iter().collect();
            let active: Vec<usize> = (0..n).collect();
            for i in 0..n {
                let lp = hull_membership(&data, &active, i);
                // LP membership is the closed test: every chain vertex
                // must pass; every non-member must fail unless it lies
                // exactly on a facet (measure-zero for random reals).
                assert_eq!(
                    lp,
                    hull.contains(&i),
                    "record {i} ({:?}) hull = {hull:?}",
                    data[i]
                );
            }
        }
    }

    #[test]
    fn membership_in_higher_dimensions() {
        // (10,10,10) strictly dominates everything: always on hull.
        // (1,1,1) is strictly dominated: never on hull.
        let data = vec![
            vec![10.0, 10.0, 10.0],
            vec![1.0, 1.0, 1.0],
            vec![9.0, 2.0, 3.0],
        ];
        let active = vec![0, 1, 2];
        assert!(hull_membership(&data, &active, 0));
        assert!(!hull_membership(&data, &active, 1));
        // Record 2 loses to record 0 everywhere.
        assert!(!hull_membership(&data, &active, 2));
    }

    #[test]
    fn membership_respects_active_subset() {
        let data = vec![vec![10.0, 10.0], vec![5.0, 5.0], vec![4.0, 1.0]];
        // With the dominator removed from the active set, record 1
        // becomes hull material.
        assert!(!hull_membership(&data, &[0, 1, 2], 1));
        assert!(hull_membership(&data, &[1, 2], 1));
    }
}
