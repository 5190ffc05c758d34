//! kSPR: the monochromatic reverse top-k building block of the
//! baselines (§3.3; Tang, Mouratidis & Yiu, SIGMOD 2017 \[45\]).
//!
//! Given a focal record `p`, kSPR finds the regions of the preference
//! domain — here constrained to the query region `R` — where `p` ranks
//! among the top-k. Every competitor maps to the half-space where it
//! outscores `p`; in the arrangement of those half-spaces inside `R`,
//! the cells covered by fewer than `k` of them form the answer.
//!
//! This implementation follows the LP-CTA recipe at the level the UTK
//! paper relies on:
//!
//! * competitors that never outscore `p` inside `R` are skipped, and
//!   those that outscore it everywhere only raise a base count
//!   (disqualifying `p` outright once the base reaches `k`);
//! * straddling competitors are inserted strongest-first (by pivot
//!   score margin), so cells die (count ≥ k) as early as possible;
//! * dead cells are pruned from further subdivision;
//! * in UTK1 ("witness") mode the search stops as soon as `p` is
//!   disqualified everywhere — or runs to completion and reports
//!   whether a witness cell survived.

use crate::stats::Stats;
use utk_geom::{Arrangement, CellId, Halfspace, Region, Rows};

/// Output mode of a kSPR call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KsprMode {
    /// UTK1 verification: only qualification matters; the caller may
    /// not need the witness regions.
    Witness,
    /// UTK2: all qualifying sub-regions of `R` are materialized.
    Full,
}

/// Result of a kSPR call for one focal record.
#[derive(Debug, Clone)]
pub struct KsprResult {
    /// True iff the record is in the top-k somewhere in `R`.
    pub qualified: bool,
    /// Qualifying sub-regions: interior point and the record's rank
    /// there (base + covering half-spaces + 1). In `Witness` mode the
    /// list stops at the first region found.
    pub regions: Vec<(Vec<f64>, usize)>,
}

/// Runs kSPR for record `focal` (an index into `points`) against all
/// other records, constrained to `region`.
pub fn kspr<R: Rows + ?Sized>(
    points: &R,
    focal: usize,
    region: &Region,
    k: usize,
    mode: KsprMode,
    stats: &mut Stats,
) -> KsprResult {
    stats.kspr_calls += 1;
    let p = points.row(focal);
    // utk-lint: allow(panic) -- invariant: callers pass the validated non-empty query region
    let pivot = region.pivot().expect("non-empty region");

    // Classify every competitor by the range of S(q) − S(p) over R.
    let mut base = 0usize; // competitors beating p everywhere in R
    let mut straddlers: Vec<(u32, f64)> = Vec::new();
    for qi in 0..points.len() {
        let q = points.row(qi);
        if qi == focal {
            continue;
        }
        let (a, c) = utk_geom::pref_score_delta(q, p);
        let Some((min, max)) = region.linear_range(&a, c) else {
            return KsprResult {
                qualified: false,
                regions: Vec::new(),
            };
        };
        if max <= 1e-12 {
            if min >= -1e-12 && (qi as u32) < focal as u32 {
                // Identical scores everywhere: the smaller dataset id
                // outranks (the workspace-wide deterministic
                // tie-break).
                base += 1;
                if base >= k {
                    return KsprResult {
                        qualified: false,
                        regions: Vec::new(),
                    };
                }
            }
            continue; // never outranks p in R
        }
        if min >= -1e-12 {
            base += 1;
            if base >= k {
                return KsprResult {
                    qualified: false,
                    regions: Vec::new(),
                };
            }
        } else {
            let margin = utk_geom::pref_score(q, &pivot) - utk_geom::pref_score(p, &pivot);
            straddlers.push((qi as u32, margin));
        }
    }
    let budget = k - base; // cells die at `budget` covering half-spaces

    // Strongest competitors first: cells reach the death count sooner.
    straddlers.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut arr = match Arrangement::new(region.clone()) {
        Some(a) => a,
        None => {
            // Degenerate R: decide at the pivot directly (score order
            // with the id tie-break).
            let sp = utk_geom::pref_score(p, &pivot);
            let above = (0..points.len())
                .filter(|&qi| {
                    if qi == focal {
                        return false;
                    }
                    let sq = utk_geom::pref_score(points.row(qi), &pivot);
                    sq > sp + 1e-12 || ((sq - sp).abs() <= 1e-12 && qi < focal)
                })
                .count();
            let qualified = above < k;
            return KsprResult {
                regions: if qualified {
                    vec![(pivot, above + 1)]
                } else {
                    Vec::new()
                },
                qualified,
            };
        }
    };
    stats.arrangements_built += 1;

    for &(q, _) in &straddlers {
        let hs = Halfspace::beats(points.row(q as usize), p);
        arr.insert(hs, q);
        stats.halfspaces_inserted += 1;
        let dead: Vec<CellId> = arr
            .live_cells()
            .filter(|(_, c)| c.count() >= budget)
            .map(|(id, _)| id)
            .collect();
        for id in dead {
            arr.prune(id);
        }
        if arr.num_live() == 0 {
            // p is beaten ≥ k times everywhere: disqualified early.
            stats.cells_created += arr.all_cells().len();
            return KsprResult {
                qualified: false,
                regions: Vec::new(),
            };
        }
    }
    stats.cells_created += arr.all_cells().len();

    let mut regions = Vec::new();
    for (_, cell) in arr.live_cells() {
        regions.push((cell.interior().to_vec(), base + cell.count() + 1));
        if mode == KsprMode::Witness {
            break;
        }
    }
    KsprResult {
        qualified: !regions.is_empty(),
        regions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::top_k_brute;

    fn figure1_hotels() -> Vec<Vec<f64>> {
        vec![
            vec![8.3, 9.1, 7.2],
            vec![2.4, 9.6, 8.6],
            vec![5.4, 1.6, 4.1],
            vec![2.6, 6.9, 9.4],
            vec![7.3, 3.1, 2.4],
            vec![7.9, 6.4, 6.6],
            vec![8.6, 7.1, 4.3],
        ]
    }

    #[test]
    fn figure1_membership_matches_utk1() {
        let pts = figure1_hotels();
        let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
        let mut stats = Stats::new();
        let expected = [true, true, false, true, false, true, false];
        for (i, want) in expected.iter().enumerate() {
            let res = kspr(&pts, i, &region, 2, KsprMode::Witness, &mut stats);
            assert_eq!(res.qualified, *want, "hotel p{}", i + 1);
        }
    }

    #[test]
    fn witness_regions_are_true_witnesses() {
        let pts = figure1_hotels();
        let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
        let mut stats = Stats::new();
        for i in 0..pts.len() {
            let res = kspr(&pts, i, &region, 2, KsprMode::Full, &mut stats);
            for (w, rank) in &res.regions {
                let top = top_k_brute(&pts, w, 2);
                assert!(top.contains(&(i as u32)), "record {i} not top-2 at {w:?}");
                // Reported rank = exact rank at any interior point.
                let better = pts
                    .iter()
                    .filter(|q| {
                        utk_geom::pref_score(q, w) > utk_geom::pref_score(&pts[i], w) + 1e-12
                    })
                    .count();
                assert_eq!(better + 1, *rank, "rank mismatch for {i} at {w:?}");
            }
        }
    }

    #[test]
    fn full_mode_counts_rank_regions() {
        // For the top hotel p1, full mode should tile most of R.
        let pts = figure1_hotels();
        let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
        let mut stats = Stats::new();
        let res = kspr(&pts, 0, &region, 2, KsprMode::Full, &mut stats);
        assert!(res.qualified);
        assert!(!res.regions.is_empty());
    }

    #[test]
    fn random_agreement_with_sampling() {
        use rand::prelude::*;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(13);
        let pts: Vec<Vec<f64>> = (0..60)
            .map(|_| (0..3).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let region = Region::hyperrect(vec![0.2, 0.2], vec![0.35, 0.4]);
        let k = 3;
        let mut stats = Stats::new();
        // Sampled qualification is a lower bound of exact
        // qualification; and every exact answer must have a witness.
        let mut sampled = std::collections::HashSet::new();
        for _ in 0..400 {
            let w = [rng.gen_range(0.2..0.35), rng.gen_range(0.2..0.4)];
            for id in top_k_brute(&pts, &w, k) {
                sampled.insert(id);
            }
        }
        for i in 0..pts.len() {
            let res = kspr(&pts, i, &region, k, KsprMode::Witness, &mut stats);
            if sampled.contains(&(i as u32)) {
                assert!(res.qualified, "sampled member {i} rejected by kSPR");
            }
            if res.qualified {
                let full = kspr(&pts, i, &region, k, KsprMode::Full, &mut stats);
                let (w, _) = &full.regions[0];
                assert!(top_k_brute(&pts, w, k).contains(&(i as u32)));
            }
        }
    }
}
