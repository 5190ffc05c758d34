//! The SK and ON baselines (§3.3 of the paper).
//!
//! Both follow filter-then-verify: the filter retains a superset of
//! every possible top-k result — the classical k-skyband (**SK**) or
//! the first k onion layers computed off the k-skyband (**ON**) — and
//! a constrained kSPR call verifies each retained candidate. The UTK2
//! variant leaves kSPR running to completion to enumerate all
//! qualifying sub-regions (the paper's "semantically equivalent"
//! output form), which is why the baselines roughly double their cost
//! there.

use crate::kspr::{kspr, KsprMode};
use crate::onion::onion_candidates;
use crate::rsa::Utk1Result;
use crate::skyband::k_skyband;
use crate::stats::Stats;
use utk_geom::{Region, Rows};
use utk_rtree::RTree;

/// Which filtering step the baseline uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    /// k-skyband filter (baseline **SK**).
    Skyband,
    /// k onion layers (baseline **ON**).
    Onion,
}

impl FilterKind {
    /// Figure label (`SK` / `ON`).
    pub fn label(self) -> &'static str {
        match self {
            FilterKind::Skyband => "SK",
            FilterKind::Onion => "ON",
        }
    }
}

fn filter_candidates<R: Rows + ?Sized>(
    points: &R,
    tree: &RTree,
    k: usize,
    filter: FilterKind,
    stats: &mut Stats,
) -> Vec<u32> {
    let sky = k_skyband(points, tree, k, stats);
    let cands = match filter {
        FilterKind::Skyband => sky,
        // Onion layers are computed off the k-skyband (§3.3).
        FilterKind::Onion => onion_candidates(points, &sky, k),
    };
    stats.candidates = cands.len();
    cands
}

/// Baseline UTK1: filter + per-candidate kSPR in witness mode.
pub fn baseline_utk1<R: Rows + ?Sized>(
    points: &R,
    tree: &RTree,
    region: &Region,
    k: usize,
    filter: FilterKind,
) -> Utk1Result {
    let mut stats = Stats::new();
    let cands = filter_candidates(points, tree, k, filter, &mut stats);
    let mut records: Vec<u32> = cands
        .into_iter()
        .filter(|&c| kspr(points, c as usize, region, k, KsprMode::Witness, &mut stats).qualified)
        .collect();
    records.sort_unstable();
    Utk1Result { records, stats }
}

/// A record's qualifying sub-regions: `(witness point, rank)` pairs.
pub type WitnessRegions = Vec<(Vec<f64>, usize)>;

/// Baseline UTK2 output: for each qualifying record, all sub-regions
/// of `R` (witness point + rank) where it is in the top-k.
#[derive(Debug, Clone)]
pub struct BaselineUtk2Result {
    /// Qualifying records with their witness regions.
    pub per_record: Vec<(u32, WitnessRegions)>,
    /// Work counters.
    pub stats: Stats,
}

impl BaselineUtk2Result {
    /// The UTK1 answer implied by the UTK2 output.
    pub fn records(&self) -> Vec<u32> {
        let mut out: Vec<u32> = self.per_record.iter().map(|(r, _)| *r).collect();
        out.sort_unstable();
        out
    }

    /// Total number of (record, region) pairs produced.
    pub fn total_regions(&self) -> usize {
        self.per_record.iter().map(|(_, r)| r.len()).sum()
    }
}

/// Baseline UTK2: filter + per-candidate kSPR run to completion.
pub fn baseline_utk2<R: Rows + ?Sized>(
    points: &R,
    tree: &RTree,
    region: &Region,
    k: usize,
    filter: FilterKind,
) -> BaselineUtk2Result {
    let mut stats = Stats::new();
    let cands = filter_candidates(points, tree, k, filter, &mut stats);
    let mut per_record = Vec::new();
    for c in cands {
        let res = kspr(points, c as usize, region, k, KsprMode::Full, &mut stats);
        if res.qualified {
            per_record.push((c, res.regions));
        }
    }
    BaselineUtk2Result { per_record, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::{rsa_with_tree, RsaOptions};
    use rand::prelude::*;

    fn random_points(n: usize, d: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect()
    }

    #[test]
    fn sk_and_on_agree_with_rsa_on_figure1() {
        let pts = vec![
            vec![8.3, 9.1, 7.2],
            vec![2.4, 9.6, 8.6],
            vec![5.4, 1.6, 4.1],
            vec![2.6, 6.9, 9.4],
            vec![7.3, 3.1, 2.4],
            vec![7.9, 6.4, 6.6],
            vec![8.6, 7.1, 4.3],
        ];
        let tree = RTree::bulk_load(&pts);
        let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
        let want = vec![0, 1, 3, 5];
        for filter in [FilterKind::Skyband, FilterKind::Onion] {
            let got = baseline_utk1(&pts, &tree, &region, 2, filter);
            assert_eq!(got.records, want, "{}", filter.label());
        }
    }

    #[test]
    fn three_pipelines_agree_on_random_instances() {
        for trial in 0..4 {
            let pts = random_points(100, 3, 101 + trial);
            let tree = RTree::bulk_load(&pts);
            let region = Region::hyperrect(vec![0.15, 0.1], vec![0.3, 0.25]);
            let k = 3;
            let r = rsa_with_tree(&pts, &tree, &region, k, &RsaOptions::default());
            let sk = baseline_utk1(&pts, &tree, &region, k, FilterKind::Skyband);
            let on = baseline_utk1(&pts, &tree, &region, k, FilterKind::Onion);
            assert_eq!(r.records, sk.records, "RSA vs SK, trial {trial}");
            assert_eq!(r.records, on.records, "RSA vs ON, trial {trial}");
        }
    }

    #[test]
    fn utk2_baseline_matches_utk1_membership() {
        let pts = random_points(80, 3, 202);
        let tree = RTree::bulk_load(&pts);
        let region = Region::hyperrect(vec![0.2, 0.2], vec![0.3, 0.35]);
        let k = 2;
        let u1 = baseline_utk1(&pts, &tree, &region, k, FilterKind::Skyband);
        let u2 = baseline_utk2(&pts, &tree, &region, k, FilterKind::Skyband);
        assert_eq!(u1.records, u2.records());
        assert!(u2.total_regions() >= u2.per_record.len());
    }

    #[test]
    fn onion_filter_is_tighter_than_skyband() {
        let pts = random_points(400, 3, 303);
        let tree = RTree::bulk_load(&pts);
        let region = Region::hyperrect(vec![0.2, 0.2], vec![0.25, 0.3]);
        let sk = baseline_utk1(&pts, &tree, &region, 5, FilterKind::Skyband);
        let on = baseline_utk1(&pts, &tree, &region, 5, FilterKind::Onion);
        assert_eq!(sk.records, on.records);
        assert!(on.stats.candidates <= sk.stats.candidates);
    }
}
