//! Ablation benches for the design choices §4–§5 argue for (and
//! DESIGN.md indexes): each group compares the paper's choice against
//! the natural alternative on identical workloads. Correctness is
//! unchanged (the integration tests assert it); only work differs.
//!
//! Run: `cargo bench -p utk-bench --bench ablations`

use criterion::{criterion_group, criterion_main, Criterion};
use utk_core::drill::graph_top_k;
use utk_core::prelude::*;
use utk_core::skyband::TreeView;
use utk_core::stats::Stats;
use utk_data::queries::random_regions;
use utk_data::synthetic::{generate, Distribution};
use utk_geom::{pref_score, PointStore, Region};
use utk_rtree::RTree;

fn workload(dist: Distribution, n: usize, d: usize, sigma: f64) -> (Vec<Vec<f64>>, RTree, Region) {
    let ds = generate(dist, n, d, 99);
    let tree = RTree::bulk_load(&ds.points);
    let qb = &random_regions(d - 1, sigma, 1, 99)[0];
    let region = Region::hyperrect(qb.lo.clone(), qb.hi.clone());
    (ds.points, tree, region)
}

/// §4.3: drill probe on vs off (RSA). Anticorrelated data stresses
/// refinement, where the drill short-circuits confirmations.
fn ablate_drill(c: &mut Criterion) {
    let (points, tree, region) = workload(Distribution::Anti, 5_000, 4, 0.05);
    let mut g = c.benchmark_group("ablation_drill");
    g.sample_size(10);
    for (name, drill) in [("on", true), ("off", false)] {
        let opts = RsaOptions {
            drill,
            ..Default::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| rsa_with_tree(&points, &tree, &region, 10, &opts))
        });
    }
    g.finish();
}

/// §4.2: Lemma-1 competitor disregarding on vs off.
fn ablate_lemma1(c: &mut Criterion) {
    let (points, tree, region) = workload(Distribution::Anti, 5_000, 4, 0.05);
    let mut g = c.benchmark_group("ablation_lemma1");
    g.sample_size(10);
    for (name, lemma1) in [("on", true), ("off", false)] {
        let opts = RsaOptions {
            lemma1,
            ..Default::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| rsa_with_tree(&points, &tree, &region, 10, &opts))
        });
    }
    g.finish();
}

/// §4.1: pivot-score heap order vs classic coordinate-sum order for
/// the r-skyband BBS (the sum order also yields a looser filter).
fn ablate_pivot_order(c: &mut Criterion) {
    let (points, tree, region) = workload(Distribution::Ind, 20_000, 4, 0.01);
    let store = PointStore::from_rows(&points);
    let mut g = c.benchmark_group("ablation_bbs_order");
    g.sample_size(10);
    for (name, pivot) in [("pivot", true), ("coord_sum", false)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                r_skyband(
                    Source::Tree {
                        points: &store,
                        view: TreeView::packed(&tree),
                    },
                    &region,
                    10,
                    pivot,
                    ScreenKernel::default(),
                    &mut Stats::new(),
                )
                .unwrap()
            })
        });
    }
    g.finish();
}

/// §4.2: minimal-r-dominance-count competitor batches vs arbitrary
/// index-ordered batches of the same size.
fn ablate_competitor_selection(c: &mut Criterion) {
    let (points, tree, region) = workload(Distribution::Anti, 5_000, 4, 0.05);
    let mut g = c.benchmark_group("ablation_competitor_selection");
    g.sample_size(10);
    for (name, min_sel) in [("min_count", true), ("arbitrary", false)] {
        let opts = RsaOptions {
            min_count_selection: min_sel,
            ..Default::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| rsa_with_tree(&points, &tree, &region, 10, &opts))
        });
    }
    g.finish();
}

/// §5.1: k-th-scorer anchors (guarantee an equal-to partition per
/// round) vs top-1 anchors (never finalize directly).
fn ablate_anchor_strategy(c: &mut Criterion) {
    let (points, tree, region) = workload(Distribution::Anti, 5_000, 4, 0.05);
    let mut g = c.benchmark_group("ablation_anchor");
    g.sample_size(10);
    for (name, kth) in [("kth_scorer", true), ("top1_scorer", false)] {
        let opts = JaaOptions {
            kth_anchor: kth,
            ..Default::default()
        };
        g.bench_function(name, |b| {
            b.iter(|| jaa_with_tree(&points, &tree, &region, 10, &opts))
        });
    }
    g.finish();
}

/// §4.3: drill top-k via the r-dominance graph vs via the R-tree —
/// the paper's argument for never touching the dataset index during
/// drills.
fn ablate_drill_topk_source(c: &mut Criterion) {
    let (points, tree, region) = workload(Distribution::Ind, 20_000, 4, 0.05);
    let cands = r_skyband(
        Source::Tree {
            points: &PointStore::from_rows(&points),
            view: TreeView::packed(&tree),
        },
        &region,
        10,
        true,
        ScreenKernel::default(),
        &mut Stats::new(),
    )
    .unwrap();
    let removed = vec![false; cands.len()];
    let w = region.pivot().unwrap();
    let mut g = c.benchmark_group("ablation_drill_topk");
    g.sample_size(20);
    g.bench_function("graph", |b| {
        b.iter(|| graph_top_k(&cands, &w, 10, &removed))
    });
    g.bench_function("rtree", |b| {
        b.iter(|| {
            tree.top_k(
                10,
                |mbb| pref_score(&mbb.hi, &w),
                |id| pref_score(&points[id as usize], &w),
            )
        })
    });
    g.finish();
}

/// Extension: parallel RSA (std scoped threads) vs sequential, same
/// exact output.
fn ablate_parallel_rsa(c: &mut Criterion) {
    use utk_core::parallel::rsa_parallel_with_tree;
    let (points, tree, region) = workload(Distribution::Anti, 8_000, 4, 0.05);
    let mut g = c.benchmark_group("ablation_parallel_rsa");
    g.sample_size(10);
    g.bench_function("sequential", |b| {
        b.iter(|| rsa_with_tree(&points, &tree, &region, 10, &RsaOptions::default()))
    });
    for threads in [2usize, 4] {
        g.bench_function(format!("threads_{threads}"), |b| {
            b.iter(|| {
                rsa_parallel_with_tree(&points, &tree, &region, 10, &RsaOptions::default(), threads)
            })
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    ablate_drill,
    ablate_lemma1,
    ablate_pivot_order,
    ablate_competitor_selection,
    ablate_anchor_strategy,
    ablate_drill_topk_source,
    ablate_parallel_rsa,
);
criterion_main!(ablations);
