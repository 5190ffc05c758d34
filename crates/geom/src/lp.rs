//! Convenience layer over the [`crate::simplex`] solver.
//!
//! A [`LinearProgram`] collects `a·x ≤ b` constraints over `x ≥ 0` and
//! answers maximization, feasibility and max-slack (Chebyshev-style
//! interior point) queries. All regions in this workspace live inside
//! the non-negative orthant of the preference domain, so the implicit
//! `x ≥ 0` bound of the standard form is never a restriction.

use crate::simplex::{solve_standard, SimplexOutcome};
use crate::tol::INTERIOR_EPS;

/// Outcome of an LP optimization.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// Optimum found.
    Optimal {
        /// The maximizing point.
        x: Vec<f64>,
        /// The objective value at `x`.
        value: f64,
    },
    /// No point satisfies all constraints.
    Infeasible,
    /// The objective grows without bound.
    Unbounded,
}

/// A linear program `maximize c·x  s.t.  a_i·x ≤ b_i, x ≥ 0` under
/// incremental construction.
#[derive(Debug, Clone, Default)]
pub struct LinearProgram {
    num_vars: usize,
    a: Vec<Vec<f64>>,
    b: Vec<f64>,
}

impl LinearProgram {
    /// Creates an empty program over `num_vars` non-negative variables.
    pub fn new(num_vars: usize) -> Self {
        Self {
            num_vars,
            a: Vec::new(),
            b: Vec::new(),
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of explicit constraints.
    pub fn num_constraints(&self) -> usize {
        self.a.len()
    }

    /// Adds the constraint `a·x ≤ b`.
    pub fn add_le(&mut self, a: Vec<f64>, b: f64) {
        debug_assert_eq!(a.len(), self.num_vars);
        self.a.push(a);
        self.b.push(b);
    }

    /// Adds the constraint `a·x ≥ b` (stored negated).
    pub fn add_ge(&mut self, a: &[f64], b: f64) {
        self.add_le(a.iter().map(|v| -v).collect(), -b);
    }

    /// Maximizes `c·x` over the feasible set.
    pub fn maximize(&self, c: &[f64]) -> LpOutcome {
        match solve_standard(self.num_vars, &self.a, &self.b, c) {
            SimplexOutcome::Optimal { x, value } => LpOutcome::Optimal { x, value },
            SimplexOutcome::Infeasible => LpOutcome::Infeasible,
            SimplexOutcome::Unbounded => LpOutcome::Unbounded,
        }
    }

    /// Minimizes `c·x` (by maximizing `−c·x`).
    pub fn minimize(&self, c: &[f64]) -> LpOutcome {
        let neg: Vec<f64> = c.iter().map(|v| -v).collect();
        match self.maximize(&neg) {
            LpOutcome::Optimal { x, value } => LpOutcome::Optimal { x, value: -value },
            other => other,
        }
    }

    /// Returns some feasible point, if any (closed feasibility).
    pub fn feasible_point(&self) -> Option<Vec<f64>> {
        match self.maximize(&vec![0.0; self.num_vars]) {
            LpOutcome::Optimal { x, .. } => Some(x),
            _ => None,
        }
    }

    /// Finds the point maximizing the minimal Euclidean slack to all
    /// constraint hyperplanes (a Chebyshev-center-style LP), with the
    /// slack capped at `1.0` to keep the program bounded.
    ///
    /// Returns `(point, slack)`; a slack `> INTERIOR_EPS` certifies a
    /// full-dimensional feasible region. Returns `None` if even the
    /// closed region is empty.
    pub fn interior_point(&self) -> Option<(Vec<f64>, f64)> {
        max_slack_point(
            self.num_vars,
            self.a.iter().map(Vec::as_slice).zip(self.b.iter().copied()),
        )
    }

    /// True if the region has a point with slack exceeding
    /// [`INTERIOR_EPS`] on every constraint (i.e. is full-dimensional).
    pub fn has_interior(&self) -> bool {
        self.interior_point()
            .is_some_and(|(_, slack)| slack > INTERIOR_EPS)
    }
}

/// The max-slack LP of [`LinearProgram::interior_point`] over the rows
/// `a·x ≤ b` yielded by `rows`, built in one pass: each row is copied
/// once, straight into its augmented form `a·x + t·‖a‖₂ ≤ b`.
pub(crate) fn max_slack_point<'a>(
    num_vars: usize,
    rows: impl Iterator<Item = (&'a [f64], f64)>,
) -> Option<(Vec<f64>, f64)> {
    // Augment with a slack variable t: a·x + t·‖a‖₂ ≤ b, t ≤ 1.
    let n = num_vars;
    let m = rows.size_hint().0 + 1;
    let mut a = Vec::with_capacity(m);
    let mut b = Vec::with_capacity(m);
    for (row, rhs) in rows {
        let norm = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        let mut aug = Vec::with_capacity(n + 1);
        aug.extend_from_slice(row);
        aug.push(if norm > 0.0 { norm } else { 1.0 });
        a.push(aug);
        b.push(rhs);
    }
    let mut cap = vec![0.0; n + 1];
    cap[n] = 1.0;
    a.push(cap);
    b.push(1.0);
    let mut c = vec![0.0; n + 1];
    c[n] = 1.0;
    match solve_standard(n + 1, &a, &b, &c) {
        SimplexOutcome::Optimal { mut x, value } => {
            x.truncate(n);
            Some((x, value))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maximize_over_triangle() {
        // x + y ≤ 1, x, y ≥ 0: max of x + 2y is 2 at (0, 1).
        let mut lp = LinearProgram::new(2);
        lp.add_le(vec![1.0, 1.0], 1.0);
        match lp.maximize(&[1.0, 2.0]) {
            LpOutcome::Optimal { x, value } => {
                assert!((value - 2.0).abs() < 1e-9);
                assert!((x[1] - 1.0).abs() < 1e-9);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn ge_constraints_round_trip() {
        let mut lp = LinearProgram::new(1);
        lp.add_ge(&[1.0], 0.25); // x ≥ 0.25
        lp.add_le(vec![1.0], 0.5); // x ≤ 0.5
        match lp.minimize(&[1.0]) {
            LpOutcome::Optimal { value, .. } => assert!((value - 0.25).abs() < 1e-9),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn interior_point_of_unit_box() {
        let mut lp = LinearProgram::new(2);
        lp.add_le(vec![1.0, 0.0], 1.0);
        lp.add_le(vec![0.0, 1.0], 1.0);
        lp.add_ge(&[1.0, 0.0], 0.0);
        lp.add_ge(&[0.0, 1.0], 0.0);
        let (x, slack) = lp.interior_point().unwrap();
        assert!((x[0] - 0.5).abs() < 1e-6 && (x[1] - 0.5).abs() < 1e-6);
        assert!((slack - 0.5).abs() < 1e-6);
    }

    #[test]
    fn degenerate_region_has_no_interior() {
        let mut lp = LinearProgram::new(2);
        lp.add_le(vec![1.0, 0.0], 0.5);
        lp.add_ge(&[1.0, 0.0], 0.5); // x pinned to 0.5: a segment
        lp.add_le(vec![0.0, 1.0], 1.0);
        assert!(!lp.has_interior());
        assert!(lp.feasible_point().is_some());
    }

    #[test]
    fn empty_region_reports_none() {
        let mut lp = LinearProgram::new(1);
        lp.add_le(vec![1.0], 0.2);
        lp.add_ge(&[1.0], 0.8);
        assert!(lp.feasible_point().is_none());
        assert!(lp.interior_point().is_none());
    }
}
