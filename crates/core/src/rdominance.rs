//! r-dominance (Definition 1 of the paper).
//!
//! Record `p` *r-dominates* `p′` when `S(p) ≥ S(p′)` for every weight
//! vector in `R` and `S(p) > S(p′)` for at least one. Unlike classical
//! dominance, the relation depends on the query region and can order
//! records that are classically incomparable — the engine behind the
//! r-skyband filter and the r-dominance graph.
//!
//! The test reduces to the range of the affine function
//! `S(p) − S(p′)` over `R`: non-negative minimum plus positive maximum
//! means dominance. For box regions the range is the O(d) min/max
//! corner evaluation; for general polytopes it is a vertex sweep (the
//! paper's `O(md)` vertex test) or, lacking vertices, two LPs.

use utk_geom::{pref_score_delta, tol::EPS, Halfspace, Region, ScorePanel, SCORE_LANES};

/// Outcome of comparing two records over a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RDominance {
    /// `p` r-dominates `q` (Figure 4(a)).
    Dominates,
    /// `q` r-dominates `p` (Figure 4(c)).
    DominatedBy,
    /// Each wins somewhere in `R` (Figure 4(b)).
    Incomparable,
    /// Identical scores everywhere in `R` (measure-zero ties).
    Equivalent,
}

/// Classifies the r-dominance relation of `p` vs `q` over `region`.
pub fn r_dominance(p: &[f64], q: &[f64], region: &Region) -> RDominance {
    let (a, c) = pref_score_delta(p, q);
    let Some((min, max)) = region.linear_range(&a, c) else {
        // Empty region: vacuous; callers never compare over empty
        // regions, but classify as equivalent for totality.
        return RDominance::Equivalent;
    };
    if min >= -EPS {
        if max > EPS {
            RDominance::Dominates
        } else {
            RDominance::Equivalent
        }
    } else if max <= EPS {
        RDominance::DominatedBy
    } else {
        RDominance::Incomparable
    }
}

/// True iff `p` r-dominates `q` over `region` (strict somewhere).
#[inline]
pub fn r_dominates(p: &[f64], q: &[f64], region: &Region) -> bool {
    r_dominance(p, q, region) == RDominance::Dominates
}

/// Classifies from the `(min, max)` range of `S(p) − S(q)` over the
/// region — the shared decision rule of [`r_dominance`], its scratch
/// variant, and the cached corner-score sweep.
#[inline]
pub fn classify_delta_range(min: f64, max: f64) -> RDominance {
    if min >= -EPS {
        if max > EPS {
            RDominance::Dominates
        } else {
            RDominance::Equivalent
        }
    } else if max <= EPS {
        RDominance::DominatedBy
    } else {
        RDominance::Incomparable
    }
}

/// Allocation-free equivalent of [`r_dominance`]: the affine delta
/// coefficients are written into the caller-provided `scratch` buffer
/// instead of a fresh `Vec` per test. Identical classification, bit
/// for bit — the same arithmetic in the same order.
pub fn r_dominance_scratch(
    p: &[f64],
    q: &[f64],
    region: &Region,
    scratch: &mut Vec<f64>,
) -> RDominance {
    debug_assert_eq!(p.len(), q.len());
    let d = p.len();
    let (pd, qd) = (p[d - 1], q[d - 1]);
    scratch.clear();
    scratch.extend((0..d - 1).map(|i| (p[i] - pd) - (q[i] - qd)));
    let Some((min, max)) = region.linear_range(scratch, pd - qd) else {
        return RDominance::Equivalent;
    };
    classify_delta_range(min, max)
}

/// Classifies r-dominance from per-vertex scores cached on admission:
/// `pscores[j]` and `qscores[j]` are `S(p)` and `S(q)` at the region's
/// j-th vertex (box corner or polytope vertex). Because an affine
/// function over a convex region attains its extremes at vertices,
/// sweeping the cached scores yields the exact delta range — no
/// coordinate access, no allocation. Early-exits once the range
/// certifies `Incomparable`.
#[inline]
pub fn classify_corner_scores(pscores: &[f64], qscores: &[f64]) -> RDominance {
    debug_assert_eq!(pscores.len(), qscores.len());
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for (ps, qs) in pscores.iter().zip(qscores) {
        let delta = ps - qs;
        if delta < min {
            min = delta;
        }
        if delta > max {
            max = delta;
        }
        // Both sides witnessed beyond tolerance: incomparable, no
        // later vertex can change that.
        if min < -EPS && max > EPS {
            return RDominance::Incomparable;
        }
    }
    classify_delta_range(min, max)
}

/// Which dominance kernel drives the r-skyband screen sweep.
///
/// Both produce byte-identical candidate sets (ids, points, dominance
/// graph) — the property suite in `tests/screen_kernel.rs` locks
/// kernel choice out of every observable result except the work
/// counters. [`ScreenKernel::Scalar`] is the oracle the blocked sweep
/// is judged against, kept reachable through the engine's
/// `without_blocked_kernel()` twin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScreenKernel {
    /// Per-member [`classify_corner_scores`] sweep with early exit —
    /// the reference implementation.
    Scalar,
    /// Branch-free blocked sweep over the SoA score panel
    /// ([`blocked_dominates_mask`]).
    #[default]
    Blocked,
}

/// Branch-free blocked dominance test: which of the [`SCORE_LANES`]
/// members of `block` (one [`ScorePanel`] block, vertex-major)
/// r-dominate the probe with vertex scores `qscores`.
///
/// Exactly equivalent to running [`classify_corner_scores`] per lane
/// and testing for [`RDominance::Dominates`]: that classifies
/// `Dominates` iff `min ≥ −EPS ∧ max > EPS`, i.e. iff no vertex delta
/// falls below `−EPS` while some vertex delta exceeds `EPS` — the two
/// boolean accumulators swept here. NaN deltas update neither
/// accumulator in either formulation (NaN comparisons are false, and
/// NaN never replaces a running min/max), so the equivalence covers
/// non-finite scores too. There are **no data-dependent branches**
/// inside the vertex loop — compare → mask → accumulate per lane — so
/// rustc auto-vectorizes it; the cost is that a block never
/// early-exits, which the caller accounts for by counting whole
/// blocks.
///
/// `−∞`-padded lanes can never witness a positive delta, so their mask
/// bits are always clear.
#[inline]
pub fn blocked_dominates_mask(block: &[f64], qscores: &[f64]) -> u8 {
    debug_assert_eq!(block.len(), qscores.len() * SCORE_LANES);
    let mut no_neg = [true; SCORE_LANES]; // no vertex with delta < −EPS
    let mut any_pos = [false; SCORE_LANES]; // some vertex with delta > EPS
    for (row, &qs) in block.chunks_exact(SCORE_LANES).zip(qscores) {
        for l in 0..SCORE_LANES {
            let delta = row[l] - qs;
            // NOT `delta >= -EPS`: a NaN delta must leave the
            // accumulator untouched (both comparisons false), exactly
            // as NaN never replaces the scalar classifier's running
            // min — `>=` would flip NaN to "witnessed a negative".
            #[allow(clippy::neg_cmp_op_on_partial_ord)]
            {
                no_neg[l] &= !(delta < -EPS);
            }
            any_pos[l] |= delta > EPS;
        }
    }
    let mut mask = 0u8;
    for l in 0..SCORE_LANES {
        mask |= u8::from(no_neg[l] && any_pos[l]) << l;
    }
    mask
}

/// Scalar-oracle classification of panel member `m` against the probe
/// scores, gathering the member's lane back into row form through
/// `scratch` and running the exact per-member sweep — bit-identical to
/// the pre-panel contiguous-slice path (same values, same order).
#[inline]
pub fn classify_member_scores(
    panel: &ScorePanel,
    m: usize,
    qscores: &[f64],
    scratch: &mut Vec<f64>,
) -> RDominance {
    panel.gather_member(m, scratch);
    classify_corner_scores(scratch, qscores)
}

/// The half-space of the preference domain where record `q` (with
/// dataset id `q_id`) *outranks* record `p` (id `p_id`) under the
/// deterministic tie-break used throughout this workspace: higher
/// score first, smaller dataset id on exact ties.
///
/// For records with identical scoring functions (exact duplicates up
/// to an additive tie), the boundary hyperplane does not exist; the
/// id comparison decides whether the half-space is everything or
/// nothing. This keeps RSA/JAA/kSPR consistent with the brute-force
/// reference ranking on datasets containing duplicates.
pub fn outranks_halfspace(q: &[f64], q_id: u32, p: &[f64], p_id: u32) -> Halfspace {
    let hs = Halfspace::beats(q, p);
    if hs.is_degenerate() && hs.rhs.abs() <= EPS {
        let dp = hs.dim();
        let rhs = if q_id < p_id { -1.0 } else { 1.0 };
        return Halfspace::ge(vec![0.0; dp], rhs);
    }
    hs
}

/// Classical dominance: `p ≥ q` component-wise with at least one
/// strict coordinate (§2 of the paper).
pub fn dominates(p: &[f64], q: &[f64]) -> bool {
    let mut strict = false;
    for (a, b) in p.iter().zip(q) {
        if a < b {
            return false;
        }
        if a > b {
            strict = true;
        }
    }
    strict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> Region {
        Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25])
    }

    #[test]
    fn classical_dominance_implies_r_dominance() {
        let p = [9.0, 9.0, 9.0];
        let q = [5.0, 6.0, 7.0];
        assert!(dominates(&p, &q));
        assert_eq!(r_dominance(&p, &q, &region()), RDominance::Dominates);
        assert_eq!(r_dominance(&q, &p, &region()), RDominance::DominatedBy);
    }

    #[test]
    fn r_dominance_orders_incomparable_records() {
        // q has huge first attribute, but within R the weight w1 is at
        // most 0.45, so p's balanced profile always wins.
        let p = [8.0, 8.0, 8.0];
        let q = [9.5, 1.0, 1.0];
        assert!(!dominates(&p, &q) && !dominates(&q, &p));
        // S(p) − S(q) at w = (0.45, 0.05): 8 − (0.45·9.5 + 0.05 + 0.5·1) = 8 − 5.825 > 0.
        assert_eq!(r_dominance(&p, &q, &region()), RDominance::Dominates);
    }

    #[test]
    fn straddling_pair_is_r_incomparable() {
        // p wins for small w1, q wins for large w1 inside R.
        let p = [1.0, 5.0, 5.0];
        let q = [9.0, 2.0, 2.0];
        // At w1 = 0.05, w2 = 0.15: S(p) = 0.05 + 0.75 + 4 = 4.8;
        // S(q) = 0.45 + 0.3 + 1.6 = 2.35 → p wins.
        // At w1 = 0.45, w2 = 0.05: S(p) = 0.45 + 0.25 + 2.5 = 3.2;
        // S(q) = 4.05 + 0.1 + 1.0 = 5.15 → q wins.
        assert_eq!(r_dominance(&p, &q, &region()), RDominance::Incomparable);
        assert_eq!(r_dominance(&q, &p, &region()), RDominance::Incomparable);
    }

    #[test]
    fn identical_records_equivalent() {
        let p = [3.0, 4.0, 5.0];
        assert_eq!(r_dominance(&p, &p, &region()), RDominance::Equivalent);
        assert!(!r_dominates(&p, &p, &region()));
    }

    #[test]
    fn antisymmetry_and_transitivity_random() {
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(11);
        let reg = region();
        let pts: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..10.0)).collect())
            .collect();
        for a in 0..pts.len() {
            for b in 0..pts.len() {
                if a == b {
                    continue;
                }
                let ab = r_dominates(&pts[a], &pts[b], &reg);
                let ba = r_dominates(&pts[b], &pts[a], &reg);
                assert!(!(ab && ba), "antisymmetry violated");
                if ab {
                    for c in 0..pts.len() {
                        if c != a && c != b && r_dominates(&pts[b], &pts[c], &reg) {
                            assert!(r_dominates(&pts[a], &pts[c], &reg), "transitivity violated");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn region_size_changes_relation() {
        // Over the full domain the records straddle; over a narrow R
        // one dominates.
        let p = [1.0, 5.0, 5.0];
        let q = [9.0, 2.0, 2.0];
        let wide = Region::hyperrect(vec![0.0, 0.0], vec![0.9, 0.05]);
        assert_eq!(r_dominance(&p, &q, &wide), RDominance::Incomparable);
        let narrow = Region::hyperrect(vec![0.0, 0.0], vec![0.1, 0.05]);
        assert_eq!(r_dominance(&p, &q, &narrow), RDominance::Dominates);
    }

    #[test]
    fn blocked_mask_matches_scalar_oracle() {
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        let nv = 4;
        for round in 0..50 {
            let n = rng.gen_range(1..2 * SCORE_LANES + 4);
            let mut panel = ScorePanel::new(nv);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..nv).map(|_| rng.gen_range(0.0..1.0)).collect())
                .collect();
            for r in &rows {
                panel.push(r);
            }
            let probe: Vec<f64> = (0..nv).map(|_| rng.gen_range(0.0..1.0)).collect();
            let mut scratch = Vec::new();
            for b in 0..panel.blocks() {
                let mask = blocked_dominates_mask(panel.block_f64(b), &probe);
                for l in 0..SCORE_LANES {
                    let m = b * SCORE_LANES + l;
                    if m >= n {
                        assert_eq!(mask & (1 << l), 0, "padding lane set (round {round})");
                        continue;
                    }
                    let want = classify_member_scores(&panel, m, &probe, &mut scratch)
                        == RDominance::Dominates;
                    assert_eq!(mask & (1 << l) != 0, want, "round {round}, member {m}");
                }
            }
        }
    }

    #[test]
    fn blocked_mask_handles_eps_boundaries_and_nan() {
        // Deltas pinned to ±EPS and NaN scores: the blocked form must
        // agree with the scalar classification at the tolerance edge.
        // A zero probe makes each member score the delta verbatim —
        // no rounding between the intended ±EPS values and the sweep.
        let nv = 2;
        let probe = vec![0.0, 0.0];
        let rows: [[f64; 2]; 6] = [
            [EPS, 0.0],              // max = EPS: not strict ⇒ no
            [2.0 * EPS, 0.0],        // max > EPS, min = 0 ⇒ yes
            [2.0 * EPS, -EPS],       // min = −EPS allowed ⇒ yes
            [2.0 * EPS, -2.0 * EPS], // min < −EPS ⇒ no
            [f64::NAN, 2.0 * EPS],   // NaN vertex is a no-op ⇒ yes
            [f64::NAN, f64::NAN],    // all-NaN ⇒ Equivalent ⇒ no
        ];
        let mut panel = ScorePanel::new(nv);
        for r in &rows {
            panel.push(r);
        }
        let mut scratch = Vec::new();
        let mask = blocked_dominates_mask(panel.block_f64(0), &probe);
        for (m, _) in rows.iter().enumerate() {
            let want =
                classify_member_scores(&panel, m, &probe, &mut scratch) == RDominance::Dominates;
            assert_eq!(mask & (1 << m) != 0, want, "member {m}");
        }
        assert_eq!(mask, 0b010110);
    }

    #[test]
    fn matches_paper_vertex_test_on_boxes() {
        // The O(d) interval computation must agree with explicitly
        // checking all box corners (the paper's vertex test).
        use rand::prelude::*;
        use utk_geom::pref_score;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for _ in 0..50 {
            let d = 4;
            let p: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
            let q: Vec<f64> = (0..d).map(|_| rng.gen_range(0.0..1.0)).collect();
            let lo: Vec<f64> = (0..d - 1).map(|_| rng.gen_range(0.0..0.2)).collect();
            let hi: Vec<f64> = lo.iter().map(|l| l + 0.1).collect();
            let reg = Region::hyperrect(lo, hi);
            let fast = r_dominance(&p, &q, &reg);
            let corners = reg.corner_vertices().unwrap();
            let deltas: Vec<f64> = corners
                .iter()
                .map(|w| pref_score(&p, w) - pref_score(&q, w))
                .collect();
            let min = deltas.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = deltas.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let slow = if min >= -1e-9 {
                if max > 1e-9 {
                    RDominance::Dominates
                } else {
                    RDominance::Equivalent
                }
            } else if max <= 1e-9 {
                RDominance::DominatedBy
            } else {
                RDominance::Incomparable
            };
            assert_eq!(fast, slow);
        }
    }
}
