//! Computational-geometry kernel for UTK query processing.
//!
//! This crate provides the geometric substrate that the UTK algorithms
//! (RSA, JAA, kSPR and the baselines) of Mouratidis & Tang, *Exact
//! Processing of Uncertain Top-k Queries in Multi-criteria Settings*
//! (VLDB 2018) are built on:
//!
//! * [`pref`] — the mapping from `d`-dimensional data space to the
//!   `(d−1)`-dimensional *preference domain* (§3.1 of the paper), and
//!   score evaluation there.
//! * [`lp`] / [`simplex`] — a dense two-phase simplex solver used for
//!   cell emptiness tests, interior points, drill vectors and
//!   LP-based convex-hull membership.
//! * [`halfspace`] — half-spaces `a·w ≥ b` of the preference domain
//!   induced by pairs of records (`S(p) ≥ S(q)`).
//! * [`region`] — convex regions (axis-parallel boxes and general
//!   H-polytopes) with exact linear ranges, pivots and interior points.
//! * [`arrangement`] — the implicit half-space arrangement index
//!   (binary-subdivision cells with covering sets, §4.5).
//! * [`hull`] — exact 2-D upper hulls and LP-based hull membership for
//!   arbitrary dimension (the part of the hull the onion baseline
//!   keeps).
//! * [`store`] — flat row-major point storage ([`PointStore`]) and the
//!   structure-of-arrays score panels ([`ScorePanel`]) of the blocked
//!   screen kernel: the allocation-free data layouts of the filtering
//!   hot path.
//!
//! All computations are in `f64` with the tolerances of [`tol`].

#![warn(missing_docs)]
// The 2026 unsafe audit found zero unsafe blocks workspace-wide;
// keep it that way. Any future unsafe must demote this to deny,
// carry a `// SAFETY:` comment (utk-lint enforces it), and say why
// no safe formulation works.
#![forbid(unsafe_code)]

pub mod arrangement;
pub mod halfspace;
pub mod hull;
pub mod lp;
pub mod pref;
pub mod region;
pub mod simplex;
pub mod store;
pub mod tol;

pub use arrangement::{Arrangement, Cell, CellId, CellPosition, LpWork};
pub use halfspace::{Constraint, Halfspace};
pub use hull::{hull_membership, upper_hull_2d};
pub use lp::{LinearProgram, LpOutcome};
pub use pref::{lift_weights, pref_score, pref_score_delta, score, score_upper_bound};
pub use region::Region;
pub use store::{PointStore, PointStoreBuilder, Rows, ScorePanel, SCORE_LANES};
