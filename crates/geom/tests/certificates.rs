//! Soundness of the arrangement's vertex certificates.
//!
//! A cell with a vertex list settles a half-space without an LP when
//! every vertex clears the hyperplane by a margin. That is only sound
//! while the list's hull contains the cell, so this suite checks both
//! halves of the argument on random arrangements, including the
//! awkward half-spaces: through existing vertices, nearly parallel to
//! a cell's constraints, and within a few margins of a vertex.
//!
//! * every certificate agrees with `Region::has_interior_with`: the
//!   certified-away side has no interior;
//! * every tracked list contains its cell: in random directions, the
//!   best vertex is at least as good as the LP optimum over the cell
//!   (when that optimum lies in the cell);
//! * every tracked vertex lies in its cell (within tolerance), so the
//!   list never over-reaches.
//!
//! Debug builds also re-solve the LP for every certificate inside
//! `Arrangement::insert`; this suite is the guard for release builds.
//! CI runs it at 256 cases in release (`PROPTEST_CASES=256`).

use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use utk_geom::{Arrangement, CellPosition, Halfspace, Region};

/// The scale of the certificate margin; "near" half-spaces land within
/// a few of these of a vertex.
const MARGIN: f64 = 1e-9;

/// How far an LP optimum may violate a cell constraint and still count
/// as a point of the cell (rounding of a basic solution).
const FEASIBLE: f64 = 1e-11;

/// One random half-space aimed at the live cells of `arr`.
fn next_halfspace(rng: &mut ChaCha8Rng, arr: &Arrangement, dim: usize) -> Halfspace {
    let live: Vec<_> = arr.live_cells().map(|(_, c)| c).collect();
    let cell = live[rng.gen_range(0..live.len())];
    let vertices: Vec<Vec<f64>> = cell
        .geom()
        .vertices()
        .map(|vs| vs.map(<[f64]>::to_vec).collect())
        .unwrap_or_default();
    let coef: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let dot = |a: &[f64], w: &[f64]| a.iter().zip(w).map(|(x, y)| x * y).sum::<f64>();
    match rng.gen_range(0..5) {
        // Through the cell's interior point.
        0 => {
            let rhs = dot(&coef, cell.interior());
            Halfspace::ge(coef, rhs)
        }
        // Through a tracked vertex.
        1 if !vertices.is_empty() => {
            let v = &vertices[rng.gen_range(0..vertices.len())];
            let rhs = dot(&coef, v);
            Halfspace::ge(coef, rhs)
        }
        // Within a few margins of a tracked vertex, either side.
        2 if !vertices.is_empty() => {
            let v = &vertices[rng.gen_range(0..vertices.len())];
            let shift = rng.gen_range(-4.0..4.0) * MARGIN;
            let rhs = dot(&coef, v) + shift;
            Halfspace::ge(coef, rhs)
        }
        // Nearly parallel to one of the cell's constraints, cutting
        // close to it.
        3 => {
            let cs = cell.region().constraints();
            let c = &cs[rng.gen_range(0..cs.len())];
            let tilt = 10f64.powi(-rng.gen_range(3..10));
            let a: Vec<f64> =
                c.a.iter()
                    .map(|x| x + tilt * rng.gen_range(-1.0..1.0))
                    .collect();
            let rhs = c.b - rng.gen_range(0.0..1e-3);
            // `a·w ≤ rhs` as a half-space `−a·w ≥ −rhs`.
            Halfspace::ge(a.iter().map(|x| -x).collect(), -rhs)
        }
        // Anywhere (often missing or covering the cell).
        _ => {
            let rhs = dot(&coef, cell.interior()) + rng.gen_range(-0.05..0.05);
            Halfspace::ge(coef, rhs)
        }
    }
}

/// Checks every live cell of `arr` against `hs`'s certificate and its
/// vertex list against the cell.
fn check_cells(rng: &mut ChaCha8Rng, arr: &Arrangement, hs: &Halfspace, dim: usize) {
    for (_, cell) in arr.live_cells() {
        let geom = cell.geom();
        let region = geom.region();
        match geom.certify(hs) {
            Some(CellPosition::Inside) => prop_assert!(
                region.has_interior_with(&hs.outside_constraint()).is_none(),
                "Inside certificate, but the outside part has interior: {hs:?} over {region:?}"
            ),
            Some(CellPosition::Outside) => prop_assert!(
                region.has_interior_with(&hs.inside_constraint()).is_none(),
                "Outside certificate, but the inside part has interior: {hs:?} over {region:?}"
            ),
            Some(CellPosition::Split(..)) => prop_assert!(false, "certificates never split"),
            None => {}
        }
        let Some(vertices) = geom.vertices() else {
            continue;
        };
        let vertices: Vec<&[f64]> = vertices.collect();
        for v in &vertices {
            for c in region.constraints() {
                prop_assert!(
                    c.eval(v) <= 1e-9,
                    "vertex {v:?} outside its cell by {}",
                    c.eval(v)
                );
            }
        }
        for _ in 0..8 {
            let dir: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let best = vertices
                .iter()
                .map(|v| dir.iter().zip(v.iter()).map(|(a, b)| a * b).sum::<f64>())
                .fold(f64::NEG_INFINITY, f64::max);
            let (x, lp_max) = region.max_linear(&dir).expect("cells are non-empty");
            // On slivers a few 1e-6 wide the simplex can return a point
            // outside the cell; only a point of the cell is a witness.
            if region.constraints().iter().all(|c| c.eval(&x) <= FEASIBLE) {
                prop_assert!(
                    best >= lp_max - 1e-8,
                    "vertex hull misses the cell in {dir:?}: {best} < {lp_max}"
                );
            }
        }
    }
}

proptest! {
    /// Random boxes in D = 2..5, cut by a mix of half-spaces; every
    /// certificate and every tracked list is checked before each cut.
    /// Midway the walk descends into a live cell's geometry, as RSA
    /// and JAA do when they recurse.
    #[test]
    fn certificate_agrees_with_lp(seed in 0u64..u64::MAX, dim in 2usize..6) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let lo: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..0.1)).collect();
        let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.005..0.1)).collect();
        let mut arr = Arrangement::new(Region::hyperrect(lo, hi)).expect("boxes have interior");
        prop_assert!(arr.cell(0).geom().vertices().is_some());
        let cuts = 10;
        for i in 0..cuts {
            if i == cuts / 2 {
                let live: Vec<_> = arr.live_cells().map(|(id, _)| id).collect();
                let pick = arr.cell(live[rng.gen_range(0..live.len())]).geom().clone();
                arr = Arrangement::from_geom(pick);
            }
            let hs = next_halfspace(&mut rng, &arr, dim);
            if hs.is_degenerate() {
                continue;
            }
            check_cells(&mut rng, &arr, &hs, dim);
            arr.insert(hs, i);
        }
    }
}
