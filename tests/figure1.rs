//! End-to-end reproduction of the paper's Figure 1 worked example
//! across every pipeline in the workspace.

use utk::core::kspr::{kspr, KsprMode};
use utk::data::embedded::figure1_hotels;
use utk::prelude::*;

fn region() -> Region {
    Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25])
}

const WANT: [u32; 4] = [0, 1, 3, 5]; // {p1, p2, p4, p6}

#[test]
fn rsa_reports_the_published_utk1() {
    let hotels = figure1_hotels();
    let res = rsa(&hotels.points, &region(), 2, &RsaOptions::default());
    assert_eq!(res.records, WANT);
}

#[test]
fn both_baselines_agree() {
    let hotels = figure1_hotels();
    let tree = RTree::bulk_load(&hotels.points);
    for filter in [FilterKind::Skyband, FilterKind::Onion] {
        let res = baseline_utk1(&hotels.points, &tree, &region(), 2, filter);
        assert_eq!(res.records, WANT, "{}", filter.label());
        let res2 = baseline_utk2(&hotels.points, &tree, &region(), 2, filter);
        assert_eq!(res2.records(), WANT, "{} UTK2", filter.label());
    }
}

#[test]
fn jaa_partitions_match_figure_1b() {
    let hotels = figure1_hotels();
    let res = jaa(&hotels.points, &region(), 2, &JaaOptions::default());
    assert_eq!(res.records, WANT);

    // The four distinct top-2 sets of Figure 1(b).
    let mut sets: Vec<Vec<u32>> = res.cells.iter().map(|c| c.top_k.clone()).collect();
    sets.sort();
    sets.dedup();
    assert_eq!(sets, vec![vec![0, 1], vec![0, 3], vec![0, 5], vec![1, 3]]);

    // And they appear left-to-right in the published order:
    // {p2,p4} → {p1,p4}/{p1,p2} → {p1,p6} as w1 grows.
    let leftmost = res
        .cells
        .iter()
        .min_by(|a, b| a.interior[0].partial_cmp(&b.interior[0]).unwrap())
        .unwrap();
    assert_eq!(
        leftmost.top_k,
        vec![1, 3],
        "leftmost partition is {{p2, p4}}"
    );
    let rightmost = res
        .cells
        .iter()
        .max_by(|a, b| a.interior[0].partial_cmp(&b.interior[0]).unwrap())
        .unwrap();
    assert_eq!(
        rightmost.top_k,
        vec![0, 5],
        "rightmost partition is {{p1, p6}}"
    );
}

#[test]
fn p7_is_skyline_but_not_utk() {
    // §2: p7 is on the skyline (not dominated by anyone) yet cannot
    // enter the top-2 anywhere in R — the key difference between UTK
    // and preference-blind operators.
    let hotels = figure1_hotels();
    let tree = RTree::bulk_load(&hotels.points);
    let mut stats = Stats::new();
    let sky1 = utk::core::skyband::k_skyband(&hotels.points, &tree, 1, &mut stats);
    assert!(sky1.contains(&6), "p7 must be on the skyline");
    let res = rsa(&hotels.points, &region(), 2, &RsaOptions::default());
    assert!(
        !res.records.contains(&6),
        "p7 must not be in the UTK1 result"
    );
}

#[test]
fn kspr_witnesses_match_membership() {
    let hotels = figure1_hotels();
    let mut stats = Stats::new();
    for i in 0..7u32 {
        let out = kspr(
            &hotels.points,
            i as usize,
            &region(),
            2,
            KsprMode::Witness,
            &mut stats,
        );
        assert_eq!(out.qualified, WANT.contains(&i), "hotel p{}", i + 1);
    }
}

#[test]
fn r_skyband_filter_is_exactly_the_answer_here() {
    // On this tiny example the r-skyband already equals the UTK1
    // set — the refinement step confirms all candidates.
    let hotels = figure1_hotels();
    let tree = RTree::bulk_load(&hotels.points);
    let mut stats = Stats::new();
    let cs = r_skyband(
        Source::Tree {
            points: &PointStore::from_rows(&hotels.points),
            view: TreeView::packed(&tree),
        },
        &region(),
        2,
        true,
        ScreenKernel::default(),
        &mut stats,
    )
    .unwrap();
    let mut ids = cs.ids.clone();
    ids.sort_unstable();
    assert_eq!(ids, WANT);
}
