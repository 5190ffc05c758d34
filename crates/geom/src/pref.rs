//! The preference domain and score evaluation (§3.1 of the paper).
//!
//! A weight vector over `d` data attributes lives on the standard
//! simplex (`w_i ∈ (0,1)`, `Σ w_i = 1`). Because the last weight is
//! implied (`w_d = 1 − Σ_{i<d} w_i`), query processing operates in the
//! `(d−1)`-dimensional *preference domain*; throughout this workspace a
//! "weight vector" `w` of length `dp = d − 1` denotes that reduced
//! form.
//!
//! The score of record `p = (x_1 … x_d)` then becomes affine in `w`:
//!
//! ```text
//! S(p)(w) = x_d + Σ_{i<d} w_i · (x_i − x_d)
//! ```
//!
//! which is what makes equalities `S(p) = S(q)` hyperplanes (and
//! inequalities half-spaces) of the preference domain.

/// Scores record `p` (data-space, length `d`) under a *full* `d`-length
/// weight vector: the classical `S(p) = Σ w_i x_i`.
#[inline]
pub fn score(p: &[f64], full_w: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), full_w.len());
    p.iter().zip(full_w).map(|(x, w)| x * w).sum()
}

/// Scores record `p` (length `d`) under a reduced weight vector `w`
/// (length `d − 1`), i.e. with `w_d = 1 − Σ w_i` implied.
#[inline]
pub fn pref_score(p: &[f64], w: &[f64]) -> f64 {
    debug_assert_eq!(p.len(), w.len() + 1);
    let xd = p[p.len() - 1];
    let mut s = xd;
    for i in 0..w.len() {
        s += w[i] * (p[i] - xd);
    }
    s
}

/// A conservative upper bound on [`pref_score`] over every record in
/// the axis-parallel box `[lo, hi]` (length `d`) under reduced weights
/// `w` (length `d − 1`): `pref_score(p, w) <= bound` holds **as
/// computed in `f64`** for every `p` with `lo ≤ p ≤ hi`.
///
/// `pref_score(hi, w)` is *not* such a bound, for two reasons:
///
/// * the lifted coefficients `(w_1 … w_{d−1}, 1 − Σ w_i)` may be
///   negative — the engine admits weights down to `−1e-6` and sums up
///   to `1 + 1e-6` — so the maximizing corner takes `lo` wherever the
///   coefficient is negative;
/// * `pref_score` evaluates `x_d + Σ w_i (x_i − x_d)`, which in
///   floating point is not monotone in the coordinates: a record a few
///   ulps below `hi` can score a few ulps above it.
///
/// The bound therefore takes the exact maximum of the lifted linear
/// score over the box (choosing `lo` or `hi` per coordinate by the
/// coefficient's sign) and adds a rounding slack of
/// `4 (d + 2) ε · A`, where `ε` is [`f64::EPSILON`] and
/// `A = m_d + Σ |w_i| (m_i + m_d)` with `m_i = max(|lo_i|, |hi_i|)`.
/// `A` bounds the magnitude of every intermediate of both
/// `pref_score(p, w)` and this evaluation, and the classical summation
/// error bound (`γ_n ≈ n ε` times that magnitude, once per evaluation,
/// plus the rounding of `1 − Σ w_i`) stays below the slack.
///
/// Non-finite inputs or overflow return `+∞`, so a search pruning on
/// `bound < threshold` never prunes such a box.
pub fn score_upper_bound(lo: &[f64], hi: &[f64], w: &[f64]) -> f64 {
    debug_assert_eq!(lo.len(), hi.len());
    debug_assert_eq!(lo.len(), w.len() + 1);
    if lo.iter().chain(hi).any(|x| !x.is_finite()) {
        return f64::INFINITY;
    }
    let d = lo.len();
    let last = d - 1;
    let m_d = lo[last].abs().max(hi[last].abs());
    let mut w_sum = 0.0;
    let mut s = 0.0;
    let mut scale = m_d;
    for i in 0..last {
        let wi = w[i];
        w_sum += wi;
        s += wi * if wi >= 0.0 { hi[i] } else { lo[i] };
        scale += wi.abs() * (lo[i].abs().max(hi[i].abs()) + m_d);
    }
    let c_d = 1.0 - w_sum;
    s += c_d * if c_d >= 0.0 { hi[last] } else { lo[last] };
    let bound = s + 4.0 * (d + 2) as f64 * f64::EPSILON * scale;
    // A NaN weight makes `bound` NaN and lands here too.
    if bound.is_finite() && scale.is_finite() {
        bound
    } else {
        f64::INFINITY
    }
}

/// The affine form of `S(p) − S(q)` over the preference domain:
/// returns `(a, c)` such that `S(p)(w) − S(q)(w) = a·w + c`.
#[inline]
pub fn pref_score_delta(p: &[f64], q: &[f64]) -> (Vec<f64>, f64) {
    debug_assert_eq!(p.len(), q.len());
    let d = p.len();
    let (pd, qd) = (p[d - 1], q[d - 1]);
    let a = (0..d - 1).map(|i| (p[i] - pd) - (q[i] - qd)).collect();
    (a, pd - qd)
}

/// Lifts a reduced weight vector (length `d − 1`) back to the full
/// `d`-length simplex vector, restoring `w_d = 1 − Σ w_i`.
#[inline]
pub fn lift_weights(w: &[f64]) -> Vec<f64> {
    let mut full = Vec::with_capacity(w.len() + 1);
    full.extend_from_slice(w);
    full.push(1.0 - w.iter().sum::<f64>());
    full
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pref_score_matches_full_score() {
        let p = [8.3, 9.1, 7.2];
        let w = [0.3, 0.5];
        let full = lift_weights(&w);
        assert!((score(&p, &full) - pref_score(&p, &w)).abs() < 1e-12);
    }

    #[test]
    fn lift_weights_sums_to_one() {
        let w = [0.2, 0.3, 0.1];
        let full = lift_weights(&w);
        assert_eq!(full.len(), 4);
        assert!((full.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((full[3] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn delta_form_evaluates_to_score_difference() {
        let p = [2.4, 9.6, 8.6];
        let q = [7.9, 6.4, 6.6];
        let (a, c) = pref_score_delta(&p, &q);
        for w in [[0.1, 0.2], [0.4, 0.4], [0.0, 0.0], [0.9, 0.05]] {
            let direct = pref_score(&p, &w) - pref_score(&q, &w);
            let affine: f64 = a.iter().zip(&w).map(|(ai, wi)| ai * wi).sum::<f64>() + c;
            assert!((direct - affine).abs() < 1e-12, "w = {w:?}");
        }
    }

    /// The engine's tolerance on reduced weights: each may dip to
    /// `−WEIGHT_EPS`, and their sum may reach `1 + WEIGHT_EPS`.
    const WEIGHT_EPS: f64 = 1e-6;

    #[test]
    fn bare_top_corner_is_not_a_bound() {
        // Rounding alone: non-negative weights summing below 1, and a
        // record one ulp below the top corner in its last coordinate
        // scores above the corner.
        let hi = [0.2351895113842175, 0.9439948991237769, 0.7795398455434103];
        let p = [0.2351895113842175, 0.9439948991237769, 0.7795398455434102];
        let w = [0.357554319826011, 0.244396411386676];
        assert!(pref_score(&p, &w) > pref_score(&hi, &w));
        assert!(pref_score(&p, &w) <= score_upper_bound(&p, &hi, &w));

        // Sign: Σw above 1 makes the implied last weight negative, so
        // the record at the *bottom* of the last axis scores highest.
        let lo = [1.0, 1.0, 0.0];
        let hi = [1.0, 1.0, 1.0];
        let w = [0.5, 0.5 + WEIGHT_EPS / 2.0];
        assert!(pref_score(&lo, &w) > pref_score(&hi, &w));
        assert!(pref_score(&lo, &w) <= score_upper_bound(&lo, &hi, &w));
    }

    #[test]
    fn bound_covers_boundary_weights() {
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let half = WEIGHT_EPS / 2.0;
        let weights: [&[f64]; 4] = [
            &[-half, 0.6, 0.4],
            &[0.5, 0.5 + half, 0.0],
            &[-half, -half, 1.0 + 2.0 * half],
            &[0.0, 0.0, 0.0],
        ];
        for w in weights {
            for _ in 0..2000 {
                let (lo, hi): (Vec<f64>, Vec<f64>) = (0..4)
                    .map(|_| {
                        let a: f64 = rng.gen_range(-10.0..10.0);
                        let b: f64 = rng.gen_range(-10.0..10.0);
                        (a.min(b), a.max(b))
                    })
                    .unzip();
                let bound = score_upper_bound(&lo, &hi, w);
                // The corners (where a linear score peaks) and points
                // between them.
                for mask in 0..16u32 {
                    let corner: Vec<f64> = (0..4)
                        .map(|i| if mask >> i & 1 == 1 { hi[i] } else { lo[i] })
                        .collect();
                    assert!(pref_score(&corner, w) <= bound, "{lo:?} {hi:?} {w:?}");
                }
                let p: Vec<f64> = (0..4)
                    .map(|i| (lo[i] + rng.gen_range(0.0..1.0) * (hi[i] - lo[i])).min(hi[i]))
                    .collect();
                assert!(pref_score(&p, w) <= bound, "{p:?} in {lo:?} {hi:?} {w:?}");
            }
        }
    }

    #[test]
    fn non_finite_boxes_never_prune() {
        let w = [0.3, 0.5];
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let lo = [0.0, bad, 0.0];
            let hi = [1.0, 1.0, bad];
            assert_eq!(score_upper_bound(&lo, &[1.0; 3], &w), f64::INFINITY);
            assert_eq!(score_upper_bound(&[0.0; 3], &hi, &w), f64::INFINITY);
        }
        assert_eq!(
            score_upper_bound(&[0.0; 3], &[1.0; 3], &[f64::NAN, 0.5]),
            f64::INFINITY
        );
        // Overflow of the score itself.
        assert_eq!(
            score_upper_bound(&[0.0; 2], &[f64::MAX, f64::MAX], &[0.5]),
            f64::INFINITY
        );
    }

    #[test]
    fn figure1_example_scores() {
        // Hotel p1 from Figure 1 with the user's indicative weights
        // (0.3, 0.5, 0.2): S = 0.3*8.3 + 0.5*9.1 + 0.2*7.2 = 8.48.
        let p1 = [8.3, 9.1, 7.2];
        assert!((pref_score(&p1, &[0.3, 0.5]) - 8.48).abs() < 1e-12);
    }
}
