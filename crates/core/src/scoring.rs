//! Generalized scoring functions (§6 of the paper).
//!
//! UTK processing only needs the score to be (i) monotone in the data
//! attributes — so BBS filtering stays correct — and (ii) linear in
//! the weights — so score comparisons stay half-spaces of the
//! preference domain. That admits the whole family
//!
//! ```text
//! S(p) = Σ w_i · f_i(p_i),   f_i monotone non-decreasing,
//! ```
//!
//! which covers `Σ w_i · p_iᵖ` for `p > 0` (and thereby all weighted
//! Lp norms, whose rankings coincide with their p-th powers).
//!
//! Implementation: transform each record once through `f` and run the
//! unchanged UTK machinery on the transformed dataset — the scores of
//! the transformed records *are* the generalized scores.

use crate::jaa::{jaa, JaaOptions, Utk2Result};
use crate::rsa::{rsa, RsaOptions, Utk1Result};
use utk_geom::{PointStore, Region};

/// A monotone non-decreasing per-attribute transform.
#[derive(Debug, Clone, Copy)]
pub enum AttributeTransform {
    /// `f(x) = x` — plain linear scoring.
    Identity,
    /// `f(x) = xᵖ` for `p > 0` (requires non-negative attributes).
    Power(f64),
    /// `f(x) = ln(1 + x)` — diminishing returns.
    Log1p,
    /// Arbitrary monotone function (caller guarantees monotonicity;
    /// see [`GeneralScoring::validate_monotone`]).
    Custom(fn(f64) -> f64),
}

impl AttributeTransform {
    /// Applies the transform.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            AttributeTransform::Identity => x,
            AttributeTransform::Power(p) => x.powf(p),
            AttributeTransform::Log1p => x.ln_1p(),
            AttributeTransform::Custom(f) => f(x),
        }
    }
}

/// A generalized scoring function: one transform per dimension.
#[derive(Debug, Clone)]
pub struct GeneralScoring {
    transforms: Vec<AttributeTransform>,
}

impl GeneralScoring {
    /// One transform per dimension.
    pub fn new(transforms: Vec<AttributeTransform>) -> Self {
        assert!(!transforms.is_empty());
        Self { transforms }
    }

    /// The scoring behind the weighted Lp norm on `d` dimensions:
    /// `S(p) = Σ w_i · p_iᵖ` (rank-equivalent to the norm itself).
    pub fn weighted_lp(p: f64, d: usize) -> Self {
        assert!(p > 0.0, "Lp norms need p > 0");
        Self::new(vec![AttributeTransform::Power(p); d])
    }

    /// Plain linear scoring on `d` dimensions.
    pub fn linear(d: usize) -> Self {
        Self::new(vec![AttributeTransform::Identity; d])
    }

    /// Data dimensionality.
    pub fn dim(&self) -> usize {
        self.transforms.len()
    }

    /// Transforms one record.
    pub fn transform_record(&self, p: &[f64]) -> Vec<f64> {
        debug_assert_eq!(p.len(), self.transforms.len());
        p.iter()
            .zip(&self.transforms)
            .map(|(&x, t)| t.apply(x))
            .collect()
    }

    /// Transforms a dataset (one pass; UTK then runs unchanged).
    pub fn transform(&self, points: &[Vec<f64>]) -> Vec<Vec<f64>> {
        points.iter().map(|p| self.transform_record(p)).collect()
    }

    /// Transforms a flat store into a flat store, value by value (the
    /// engine's path: no per-record allocation).
    pub fn transform_store(&self, store: &PointStore) -> PointStore {
        debug_assert_eq!(store.dim(), self.transforms.len());
        let data = store
            .as_flat()
            .iter()
            .zip(self.transforms.iter().cycle())
            .map(|(&x, t)| t.apply(x))
            .collect();
        PointStore::from_flat(data, store.dim())
    }

    /// A hashable identity for engine-side memoization: one `(tag,
    /// parameter-bits)` pair per dimension. `Custom` transforms key on
    /// the function pointer's address.
    pub(crate) fn fingerprint(&self) -> Vec<(u8, u64)> {
        self.transforms
            .iter()
            .map(|t| match t {
                AttributeTransform::Identity => (0u8, 0u64),
                AttributeTransform::Power(p) => (1, p.to_bits()),
                AttributeTransform::Log1p => (2, 0),
                AttributeTransform::Custom(f) => (3, *f as usize as u64),
            })
            .collect()
    }

    /// True when every transform is the identity (plain linear
    /// scoring, no dataset transformation needed).
    pub fn is_identity(&self) -> bool {
        self.transforms
            .iter()
            .all(|t| matches!(t, AttributeTransform::Identity))
    }

    /// Spot-checks monotonicity of every transform over `[lo, hi]`
    /// (useful for `Custom` transforms in debug builds/tests).
    pub fn validate_monotone(&self, lo: f64, hi: f64) -> bool {
        const STEPS: usize = 64;
        self.transforms.iter().all(|t| {
            let mut prev = t.apply(lo);
            (1..=STEPS).all(|i| {
                let x = lo + (hi - lo) * i as f64 / STEPS as f64;
                let y = t.apply(x);
                let ok = y >= prev - 1e-12;
                prev = y;
                ok
            })
        })
    }
}

/// UTK1 under a generalized scoring function: RSA over the transformed
/// dataset. Returned record ids refer to the *original* dataset.
///
/// Legacy convenience; prefer [`crate::engine::UtkEngine`] with
/// [`crate::engine::UtkQuery::scoring`], which memoizes the
/// transformed dataset and its index across queries.
pub fn rsa_general(
    points: &[Vec<f64>],
    scoring: &GeneralScoring,
    region: &Region,
    k: usize,
    opts: &RsaOptions,
) -> Utk1Result {
    rsa(&scoring.transform(points), region, k, opts)
}

/// UTK2 under a generalized scoring function.
///
/// Legacy convenience; prefer [`crate::engine::UtkEngine`] with
/// [`crate::engine::UtkQuery::scoring`], which memoizes the
/// transformed dataset and its index across queries.
pub fn jaa_general(
    points: &[Vec<f64>],
    scoring: &GeneralScoring,
    region: &Region,
    k: usize,
    opts: &JaaOptions,
) -> Utk2Result {
    jaa(&scoring.transform(points), region, k, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::top_k_brute;
    use rand::prelude::*;

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn transform_store_matches_the_row_transform() {
        let pts = random_points(50, 3, 4);
        let scoring = GeneralScoring::weighted_lp(2.5, 3);
        let flat = scoring.transform_store(&PointStore::from_rows(&pts));
        assert_eq!(flat, PointStore::from_rows(&scoring.transform(&pts)));
    }

    #[test]
    fn identity_scoring_matches_plain_rsa() {
        let pts = random_points(100, 3, 1);
        let region = Region::hyperrect(vec![0.2, 0.2], vec![0.3, 0.35]);
        let plain = rsa(&pts, &region, 3, &RsaOptions::default());
        let general = rsa_general(
            &pts,
            &GeneralScoring::linear(3),
            &region,
            3,
            &RsaOptions::default(),
        );
        assert_eq!(plain.records, general.records);
    }

    #[test]
    fn weighted_l2_utk1_contains_sampled_l2_topk() {
        let pts = random_points(120, 3, 2);
        let region = Region::hyperrect(vec![0.2, 0.2], vec![0.35, 0.3]);
        let k = 3;
        let scoring = GeneralScoring::weighted_lp(2.0, 3);
        let res = rsa_general(&pts, &scoring, &region, k, &RsaOptions::default());
        // Sampled generalized top-k (scores Σ w_i x_i²) must be inside.
        let squared = scoring.transform(&pts);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        for _ in 0..100 {
            let w = [rng.gen_range(0.2..0.35), rng.gen_range(0.2..0.3)];
            for id in top_k_brute(&squared, &w, k) {
                assert!(res.records.contains(&id));
            }
        }
    }

    #[test]
    fn l2_and_linear_answers_differ_in_general() {
        // The square transform favours spiky records; on anticorrelated
        // data the answers must eventually diverge.
        let mut diverged = false;
        for seed in 0..5 {
            let pts = random_points(150, 3, 100 + seed);
            let region = Region::hyperrect(vec![0.1, 0.1], vec![0.4, 0.4]);
            let lin = rsa(&pts, &region, 3, &RsaOptions::default());
            let l2 = rsa_general(
                &pts,
                &GeneralScoring::weighted_lp(2.0, 3),
                &region,
                3,
                &RsaOptions::default(),
            );
            if lin.records != l2.records {
                diverged = true;
                break;
            }
        }
        assert!(
            diverged,
            "L2 and linear UTK1 should differ on some instance"
        );
    }

    #[test]
    fn jaa_general_cells_label_correctly() {
        let pts = random_points(80, 3, 3);
        let region = Region::hyperrect(vec![0.25, 0.2], vec![0.35, 0.3]);
        let scoring = GeneralScoring::new(vec![
            AttributeTransform::Log1p,
            AttributeTransform::Power(0.5),
            AttributeTransform::Identity,
        ]);
        assert!(scoring.validate_monotone(0.0, 1.0));
        let res = jaa_general(&pts, &scoring, &region, 2, &JaaOptions::default());
        let transformed = scoring.transform(&pts);
        for cell in &res.cells {
            let mut want = top_k_brute(&transformed, &cell.interior, 2);
            want.sort_unstable();
            assert_eq!(cell.top_k, want);
        }
    }

    #[test]
    fn monotone_validation_rejects_decreasing() {
        fn neg(x: f64) -> f64 {
            -x
        }
        let s = GeneralScoring::new(vec![AttributeTransform::Custom(neg)]);
        assert!(!s.validate_monotone(0.0, 1.0));
    }

    #[test]
    fn power_transform_preserves_order() {
        let s = GeneralScoring::weighted_lp(3.0, 2);
        assert!(s.validate_monotone(0.0, 10.0));
        let t = s.transform_record(&[2.0, 3.0]);
        assert!((t[0] - 8.0).abs() < 1e-12);
        assert!((t[1] - 27.0).abs() < 1e-12);
    }
}
