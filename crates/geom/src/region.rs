//! Convex regions of the preference domain.
//!
//! A [`Region`] is a convex polytope given by `a·w ≤ b` constraints,
//! with two fast-path shapes: axis-parallel boxes (the query regions
//! `R` of all experiments) and vertex-listed polytopes (the full
//! preference simplex). Regions are assumed to lie inside the
//! non-negative orthant — true for every region arising in UTK
//! processing, since the preference domain itself does.

use crate::halfspace::Constraint;
use crate::lp::{max_slack_point, LinearProgram, LpOutcome};
use crate::tol::INTERIOR_EPS;

#[derive(Debug, Clone)]
enum Shape {
    /// Axis-parallel hyper-rectangle `lo ≤ w ≤ hi`.
    Box { lo: Vec<f64>, hi: Vec<f64> },
    /// General H-polytope; vertices, when known, enable exact linear
    /// ranges without LP calls.
    Poly { vertices: Option<Vec<Vec<f64>>> },
}

/// A convex region of the preference domain.
#[derive(Debug, Clone)]
pub struct Region {
    dim: usize,
    constraints: Vec<Constraint>,
    shape: Shape,
}

impl Region {
    /// Axis-parallel box `lo ≤ w ≤ hi`.
    ///
    /// # Panics
    /// Panics if the bounds are inverted or dimensions disagree.
    pub fn hyperrect(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "bound dimensions disagree");
        assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "inverted box bounds"
        );
        let dim = lo.len();
        let mut constraints = Vec::with_capacity(2 * dim);
        for i in 0..dim {
            let mut a = vec![0.0; dim];
            a[i] = 1.0;
            constraints.push(Constraint::le(a.clone(), hi[i]));
            a[i] = -1.0;
            constraints.push(Constraint::le(a, -lo[i]));
        }
        Self {
            dim,
            constraints,
            shape: Shape::Box { lo, hi },
        }
    }

    /// The full preference domain for `d`-dimensional data: the
    /// `(d−1)`-simplex `{ w ≥ 0, Σ w_i ≤ 1 }`, with its vertices
    /// (origin and unit vectors) attached.
    pub fn full_preference_domain(dim: usize) -> Self {
        let mut constraints = Vec::with_capacity(dim + 1);
        for i in 0..dim {
            let mut a = vec![0.0; dim];
            a[i] = -1.0;
            constraints.push(Constraint::le(a, 0.0));
        }
        constraints.push(Constraint::le(vec![1.0; dim], 1.0));
        let mut vertices = vec![vec![0.0; dim]];
        for i in 0..dim {
            let mut v = vec![0.0; dim];
            v[i] = 1.0;
            vertices.push(v);
        }
        Self {
            dim,
            constraints,
            shape: Shape::Poly {
                vertices: Some(vertices),
            },
        }
    }

    /// A polytope from raw constraints (no vertex information).
    pub fn from_constraints(dim: usize, constraints: Vec<Constraint>) -> Self {
        Self {
            dim,
            constraints,
            shape: Shape::Poly { vertices: None },
        }
    }

    /// A polytope from constraints with known vertices (the caller
    /// asserts the two describe the same set).
    pub fn with_vertices(
        dim: usize,
        constraints: Vec<Constraint>,
        vertices: Vec<Vec<f64>>,
    ) -> Self {
        Self {
            dim,
            constraints,
            shape: Shape::Poly {
                vertices: Some(vertices),
            },
        }
    }

    /// Preference-domain dimensionality (`d − 1`).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The defining constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Known vertices, if any (boxes report their corners lazily via
    /// [`Region::corner_vertices`], not here).
    pub fn vertices(&self) -> Option<&[Vec<f64>]> {
        match &self.shape {
            Shape::Poly { vertices } => vertices.as_deref(),
            Shape::Box { .. } => None,
        }
    }

    /// For a box region, enumerates all `2^dim` corners (used by tests
    /// and by the paper-style vertex-based r-dominance check).
    pub fn corner_vertices(&self) -> Option<Vec<Vec<f64>>> {
        let Shape::Box { lo, hi } = &self.shape else {
            return None;
        };
        let n = 1usize << self.dim;
        let mut out = Vec::with_capacity(n);
        for mask in 0..n {
            let v = (0..self.dim)
                .map(|i| if mask >> i & 1 == 1 { hi[i] } else { lo[i] })
                .collect();
            out.push(v);
        }
        Some(out)
    }

    /// The region's vertex list as a flat [`crate::PointStore`]: box
    /// corners for boxes, the attached vertices for vertex-listed
    /// polytopes, `None` otherwise (and for vertex counts above `cap`,
    /// guarding against the `2^dim` corner blow-up of high-dimensional
    /// boxes).
    ///
    /// Affine functions over a convex region attain their extremes at
    /// these vertices, which is what makes cached per-vertex scores a
    /// complete r-dominance test (§4.1's vertex test).
    pub fn vertex_store(&self, cap: usize) -> Option<crate::PointStore> {
        match &self.shape {
            Shape::Box { .. } => {
                if self.dim >= usize::BITS as usize || (1usize << self.dim) > cap {
                    return None;
                }
                let corners = self.corner_vertices()?;
                Some(crate::PointStore::from_rows(&corners))
            }
            Shape::Poly { vertices: Some(vs) } if !vs.is_empty() && vs.len() <= cap => {
                Some(crate::PointStore::from_rows(vs))
            }
            _ => None,
        }
    }

    /// True if `other ⊆ self` (both closed): every defining constraint
    /// of `self` holds over all of `other`, checked via exact linear
    /// ranges. Conservative on failure — an indeterminate range
    /// reports non-containment, never false containment.
    pub fn contains_region(&self, other: &Region) -> bool {
        if self.dim != other.dim {
            return false;
        }
        const CONTAIN_EPS: f64 = 1e-12;
        self.constraints.iter().all(|c| {
            other
                .linear_range(&c.a, 0.0)
                .is_some_and(|(_, max)| max <= c.b + CONTAIN_EPS)
        })
    }

    /// The region intersected with one more constraint. The result is
    /// a general polytope (vertex info is dropped).
    pub fn with_constraint(&self, c: Constraint) -> Region {
        let mut constraints = Vec::with_capacity(self.constraints.len() + 1);
        constraints.extend_from_slice(&self.constraints);
        constraints.push(c);
        Region {
            dim: self.dim,
            constraints,
            shape: Shape::Poly { vertices: None },
        }
    }

    /// True if `w` satisfies every constraint (within tolerance).
    pub fn contains(&self, w: &[f64]) -> bool {
        self.constraints.iter().all(|c| c.satisfied_by(w))
    }

    fn lp(&self) -> LinearProgram {
        let mut lp = LinearProgram::new(self.dim);
        for c in &self.constraints {
            lp.add_le(c.a.clone(), c.b);
        }
        lp
    }

    /// Exact range `(min, max)` of the affine function `a·w + c` over
    /// the region, or `None` if the region is empty.
    ///
    /// Boxes and vertex-listed polytopes are evaluated in closed form;
    /// general polytopes fall back to two LPs.
    pub fn linear_range(&self, a: &[f64], c: f64) -> Option<(f64, f64)> {
        debug_assert_eq!(a.len(), self.dim);
        match &self.shape {
            Shape::Box { lo, hi } => {
                let (mut min, mut max) = (c, c);
                for i in 0..self.dim {
                    if a[i] >= 0.0 {
                        min += a[i] * lo[i];
                        max += a[i] * hi[i];
                    } else {
                        min += a[i] * hi[i];
                        max += a[i] * lo[i];
                    }
                }
                Some((min, max))
            }
            Shape::Poly { vertices: Some(vs) } => {
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                for v in vs {
                    let val = a.iter().zip(v).map(|(ai, vi)| ai * vi).sum::<f64>() + c;
                    min = min.min(val);
                    max = max.max(val);
                }
                if vs.is_empty() {
                    None
                } else {
                    Some((min, max))
                }
            }
            Shape::Poly { vertices: None } => {
                let lp = self.lp();
                let max = match lp.maximize(a) {
                    LpOutcome::Optimal { value, .. } => value + c,
                    LpOutcome::Unbounded => f64::INFINITY,
                    LpOutcome::Infeasible => return None,
                };
                let min = match lp.minimize(a) {
                    LpOutcome::Optimal { value, .. } => value + c,
                    LpOutcome::Unbounded => f64::NEG_INFINITY,
                    LpOutcome::Infeasible => return None,
                };
                Some((min, max))
            }
        }
    }

    /// The paper's pivot vector: the per-dimension average of the
    /// region's vertices, guaranteed inside by convexity (§4.1). Boxes
    /// use their center; vertex-free polytopes fall back to an interior
    /// point (or any feasible point).
    pub fn pivot(&self) -> Option<Vec<f64>> {
        match &self.shape {
            Shape::Box { lo, hi } => Some(lo.iter().zip(hi).map(|(l, h)| 0.5 * (l + h)).collect()),
            Shape::Poly { vertices: Some(vs) } if !vs.is_empty() => {
                let mut p = vec![0.0; self.dim];
                for v in vs {
                    for i in 0..self.dim {
                        p[i] += v[i];
                    }
                }
                let n = vs.len() as f64;
                for x in &mut p {
                    *x /= n;
                }
                Some(p)
            }
            _ => self
                .interior_point()
                .map(|(p, _)| p)
                .or_else(|| self.lp().feasible_point()),
        }
    }

    /// Max-slack interior point: `Some((point, slack))` if the closed
    /// region is non-empty. `slack > INTERIOR_EPS` certifies a
    /// full-dimensional region.
    pub fn interior_point(&self) -> Option<(Vec<f64>, f64)> {
        max_slack_point(self.dim, self.rows())
    }

    /// The constraints as `(a, b)` rows of `a·w ≤ b`, in order.
    fn rows(&self) -> impl Iterator<Item = (&[f64], f64)> {
        self.constraints.iter().map(|c| (c.a.as_slice(), c.b))
    }

    /// True if the region contains a full-dimensional ball.
    pub fn has_interior(&self) -> bool {
        self.lp().has_interior()
    }

    /// Closed feasibility (boundary-only regions count as feasible).
    pub fn is_feasible(&self) -> bool {
        self.lp().feasible_point().is_some()
    }

    /// Maximizes `c·w` over the region: `Some((argmax, value))`.
    pub fn max_linear(&self, c: &[f64]) -> Option<(Vec<f64>, f64)> {
        match self.lp().maximize(c) {
            LpOutcome::Optimal { x, value } => Some((x, value)),
            _ => None,
        }
    }

    /// Rough live-memory estimate of this region, for the space
    /// accounting of Figure 13(b).
    pub fn approx_bytes(&self) -> usize {
        let per_constraint = std::mem::size_of::<Constraint>() + self.dim * 8;
        let shape = match &self.shape {
            Shape::Box { .. } => 2 * self.dim * 8,
            Shape::Poly { vertices } => vertices
                .as_ref()
                .map_or(0, |vs| vs.len() * (24 + self.dim * 8)),
        };
        std::mem::size_of::<Self>() + self.constraints.len() * per_constraint + shape
    }

    /// Checks whether adding `c` to the region leaves a
    /// full-dimensional set (a common arrangement sub-step).
    ///
    /// Builds the max-slack LP straight from the constraint rows plus
    /// `c`, with the same rows in the same order as
    /// `self.with_constraint(c).interior_point()`, so the two agree bit
    /// for bit.
    pub fn has_interior_with(&self, c: &Constraint) -> Option<(Vec<f64>, f64)> {
        let extra = std::iter::once((c.a.as_slice(), c.b));
        max_slack_point(self.dim, self.rows().chain(extra))
            .filter(|(_, slack)| *slack > INTERIOR_EPS)
    }
}

impl PartialEq for Region {
    /// Structural equality on the constraint lists (used in tests).
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.constraints == other.constraints
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig1_region() -> Region {
        Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25])
    }

    #[test]
    fn box_contains_and_pivot() {
        let r = fig1_region();
        assert!(r.contains(&[0.1, 0.1]));
        assert!(!r.contains(&[0.5, 0.1]));
        assert_eq!(r.pivot().unwrap(), vec![0.25, 0.15]);
    }

    #[test]
    fn box_linear_range_closed_form() {
        let r = fig1_region();
        // f(w) = 2w1 − w2 + 1 over [0.05,0.45]×[0.05,0.25]
        let (min, max) = r.linear_range(&[2.0, -1.0], 1.0).unwrap();
        assert!((min - (2.0 * 0.05 - 0.25 + 1.0)).abs() < 1e-12);
        assert!((max - (2.0 * 0.45 - 0.05 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn linear_range_lp_matches_box_path() {
        let r = fig1_region();
        let general = Region::from_constraints(2, r.constraints().to_vec());
        for (a, c) in [
            (vec![1.0, 1.0], 0.0),
            (vec![-3.0, 2.0], 0.5),
            (vec![0.0, 0.0], 1.0),
        ] {
            let (m1, x1) = r.linear_range(&a, c).unwrap();
            let (m2, x2) = general.linear_range(&a, c).unwrap();
            assert!((m1 - m2).abs() < 1e-7, "min {m1} vs {m2} for {a:?}");
            assert!((x1 - x2).abs() < 1e-7, "max {m1} vs {m2} for {a:?}");
        }
    }

    #[test]
    fn corner_vertices_of_box() {
        let r = fig1_region();
        let vs = r.corner_vertices().unwrap();
        assert_eq!(vs.len(), 4);
        assert!(vs.contains(&vec![0.05, 0.05]));
        assert!(vs.contains(&vec![0.45, 0.25]));
    }

    #[test]
    fn vertex_range_matches_constraint_range_on_simplex() {
        let s = Region::full_preference_domain(3);
        let a = [0.7, -0.2, 0.4];
        let (min_v, max_v) = s.linear_range(&a, 0.1).unwrap();
        let general = Region::from_constraints(3, s.constraints().to_vec());
        let (min_l, max_l) = general.linear_range(&a, 0.1).unwrap();
        assert!((min_v - min_l).abs() < 1e-7);
        assert!((max_v - max_l).abs() < 1e-7);
    }

    #[test]
    fn with_constraint_shrinks() {
        let r = fig1_region();
        let cut = r.with_constraint(Constraint::le(vec![1.0, 0.0], 0.2));
        assert!(cut.contains(&[0.1, 0.1]));
        assert!(!cut.contains(&[0.3, 0.1]));
        let (_, max) = cut.linear_range(&[1.0, 0.0], 0.0).unwrap();
        assert!(max <= 0.2 + 1e-7);
    }

    #[test]
    fn interior_point_slack_of_box() {
        let r = Region::hyperrect(vec![0.0, 0.0], vec![0.4, 0.2]);
        let (p, slack) = r.interior_point().unwrap();
        assert!(r.contains(&p));
        assert!((slack - 0.1).abs() < 1e-6); // inradius of a 0.4×0.2 box
    }

    #[test]
    fn empty_intersection_detected() {
        let r = fig1_region();
        let cut = r
            .with_constraint(Constraint::le(vec![1.0, 0.0], 0.01))
            .with_constraint(Constraint::ge(&[0.0, 1.0], 0.0));
        assert!(!cut.is_feasible());
        assert!(cut.linear_range(&[1.0, 0.0], 0.0).is_none());
        assert!(cut.pivot().is_none());
    }

    #[test]
    fn degenerate_slab_has_no_interior() {
        let r = Region::hyperrect(vec![0.1, 0.1], vec![0.1, 0.9]);
        assert!(r.is_feasible());
        assert!(!r.has_interior());
    }

    #[test]
    fn max_linear_on_simplex() {
        let s = Region::full_preference_domain(2);
        let (x, v) = s.max_linear(&[1.0, 2.0]).unwrap();
        assert!((v - 2.0).abs() < 1e-9);
        assert!((x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pivot_falls_back_to_interior_for_vertexless_polytopes() {
        // A polytope without vertex info: pivot must still land
        // inside via the interior-point LP.
        let r = fig1_region();
        let poly = Region::from_constraints(2, r.constraints().to_vec());
        assert!(poly.vertices().is_none());
        let p = poly.pivot().unwrap();
        assert!(poly.contains(&p));
    }

    #[test]
    fn with_vertices_uses_vertex_average_as_pivot() {
        let tri = Region::with_vertices(
            2,
            vec![
                Constraint::ge(&[1.0, 0.0], 0.0),
                Constraint::ge(&[0.0, 1.0], 0.0),
                Constraint::le(vec![1.0, 1.0], 0.3),
            ],
            vec![vec![0.0, 0.0], vec![0.3, 0.0], vec![0.0, 0.3]],
        );
        let p = tri.pivot().unwrap();
        assert!((p[0] - 0.1).abs() < 1e-12);
        assert!((p[1] - 0.1).abs() < 1e-12);
        assert!(tri.contains(&p));
    }

    #[test]
    fn contains_region_on_boxes_and_polytopes() {
        let outer = Region::hyperrect(vec![0.1, 0.1], vec![0.5, 0.5]);
        let inner = Region::hyperrect(vec![0.2, 0.2], vec![0.4, 0.4]);
        assert!(outer.contains_region(&inner));
        assert!(!inner.contains_region(&outer));
        // A region contains itself (closed semantics).
        assert!(outer.contains_region(&outer));
        // Overlap without containment.
        let shifted = Region::hyperrect(vec![0.3, 0.3], vec![0.7, 0.7]);
        assert!(!outer.contains_region(&shifted));
        // Polytope inner via an extra cut.
        let cut = inner.with_constraint(Constraint::le(vec![1.0, 1.0], 0.7));
        assert!(outer.contains_region(&cut));
        // Dimension mismatch is never containment.
        let other_dim = Region::hyperrect(vec![0.0], vec![1.0]);
        assert!(!outer.contains_region(&other_dim));
    }

    #[test]
    fn vertex_store_matches_corners() {
        let r = fig1_region();
        let store = r.vertex_store(64).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(store.dim(), 2);
        let corners = r.corner_vertices().unwrap();
        for (i, c) in corners.iter().enumerate() {
            assert_eq!(&store[i], c.as_slice());
        }
        // Cap below the corner count suppresses materialization.
        assert!(r.vertex_store(3).is_none());
        // Vertex polytopes use their vertex list; vertexless ones opt
        // out.
        let s = Region::full_preference_domain(2);
        assert_eq!(s.vertex_store(64).unwrap().len(), 3);
        let raw = Region::from_constraints(2, r.constraints().to_vec());
        assert!(raw.vertex_store(64).is_none());
    }

    #[test]
    fn has_interior_with_matches_with_constraint_bitwise() {
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(19);
        for _ in 0..200 {
            let dim = rng.gen_range(2..5);
            let lo: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..0.2)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.01..0.2)).collect();
            let mut cell = Region::hyperrect(lo, hi);
            let cut = |rng: &mut rand_chacha::ChaCha8Rng| {
                let a: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                Constraint::le(a, rng.gen_range(-0.1..0.3))
            };
            for _ in 0..rng.gen_range(0..6) {
                let c = cut(&mut rng);
                if cell.has_interior_with(&c).is_some() {
                    cell = cell.with_constraint(c);
                }
            }
            let c = cut(&mut rng);
            let fused = cell.has_interior_with(&c);
            let reference = cell
                .with_constraint(c)
                .interior_point()
                .filter(|(_, slack)| *slack > INTERIOR_EPS);
            let bits = |r: Option<(Vec<f64>, f64)>| {
                r.map(|(p, s)| {
                    (
                        p.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        s.to_bits(),
                    )
                })
            };
            assert_eq!(bits(fused), bits(reference));
        }
    }

    #[test]
    fn corner_vertices_none_for_polytopes() {
        let s = Region::full_preference_domain(2);
        assert!(s.corner_vertices().is_none());
        assert_eq!(s.vertices().unwrap().len(), 3);
    }
}
