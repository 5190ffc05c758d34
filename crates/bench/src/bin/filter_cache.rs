//! Engine filter-cache figure: hit rate and dominance tests saved as
//! query locality rises — the ROADMAP follow-up figure for the LRU +
//! byte-budget + superset-reuse cache.
//!
//! Workload: `BASES` random query boxes; each base is followed by
//! `ZOOMS` progressively contained boxes (served by cross-region
//! superset reuse) and `REPEATS` exact repeats (served by exact cache
//! hits). The same sequence runs against a cache-less engine for the
//! cold per-query baseline. All comparisons use the deterministic
//! work counters (`rdom_tests`, `bbs_pops`), which stay meaningful on
//! noisy single-core containers where wall-clock is not.
//!
//! Usage: `cargo run --release -p utk-bench --bin filter_cache
//! [--scale f] [--queries n] [--seed s]`
//!
//! Prints Markdown tables and records the raw numbers — including the
//! byte-identity check of superset re-screens against cold runs and
//! the ablation-order prefix-cut savings — in
//! `BENCH_FILTER_CACHE.json` in the working directory.

use utk_bench::{query_workload, Config, Table};
use utk_core::prelude::*;
use utk_core::skyband::TreeView;
use utk_data::synthetic::{generate, Distribution};
use utk_geom::Region;
use utk_rtree::RTree;

const D: usize = 3;
const K: usize = 10;
const ZOOMS: usize = 3;
const REPEATS: usize = 2;

/// The `zoom`-th contained box of a base region: shrunk symmetrically
/// by 12% per level from each side.
fn zoom_region(lo: &[f64], hi: &[f64], zoom: usize) -> Region {
    let f = 0.12 * zoom as f64;
    let ilo: Vec<f64> = lo.iter().zip(hi).map(|(l, h)| l + f * (h - l)).collect();
    let ihi: Vec<f64> = lo.iter().zip(hi).map(|(l, h)| h - f * (h - l)).collect();
    Region::hyperrect(ilo, ihi)
}

fn main() {
    let cfg = Config::from_args();
    let n = cfg.n(400_000);
    let points = generate(Distribution::Anti, n, D, cfg.seed).points;
    let bases = query_workload(D, 0.08, &cfg);

    // The full locality sequence: base, its zooms, then repeats of the
    // base. `true` marks queries a warmed cache is expected to serve
    // without a cold BBS run (zooms via superset reuse, repeats via
    // exact hits).
    let mut sequence: Vec<(Region, bool)> = Vec::new();
    for qb in &bases {
        sequence.push((Region::hyperrect(qb.lo.clone(), qb.hi.clone()), false));
        for z in 1..=ZOOMS {
            sequence.push((zoom_region(&qb.lo, &qb.hi, z), true));
        }
        for _ in 0..REPEATS {
            sequence.push((Region::hyperrect(qb.lo.clone(), qb.hi.clone()), true));
        }
    }

    let warm_engine = UtkEngine::new(points.clone()).expect("bench dataset");
    let cold_engine = UtkEngine::new(points.clone())
        .expect("bench dataset")
        .without_filter_cache();

    let mut warm_total = Stats::new();
    let mut cold_total = Stats::new();
    // Counters restricted to the warm-served part of the sequence
    // (zooms + repeats) — the acceptance comparison.
    let mut warm_served = Stats::new();
    let mut cold_served = Stats::new();
    for (region, served_warm) in &sequence {
        let w = warm_engine.utk1(region, K).expect("warm query");
        let c = cold_engine.utk1(region, K).expect("cold query");
        assert_eq!(w.records, c.records, "cache must never change answers");
        warm_total.absorb(&w.stats);
        cold_total.absorb(&c.stats);
        if *served_warm {
            warm_served.absorb(&w.stats);
            cold_served.absorb(&c.stats);
        }
    }
    let (hits, misses) = warm_engine.filter_cache_counters();
    let superset_hits = warm_engine.filter_superset_hits();
    let cache_bytes = warm_engine.filter_cache_bytes();
    let evictions = warm_engine.filter_cache_evictions();
    let hit_rate = hits as f64 / (hits + misses) as f64;
    let ratio = cold_served.rdom_tests as f64 / warm_served.rdom_tests.max(1) as f64;

    // Byte-identity of superset re-screens, library-level: every zoom
    // region rebuilt from its base's candidate set must equal the cold
    // run exactly (ids, flat points, graph arcs).
    let tree = RTree::bulk_load(&points);
    let store = PointStore::from_rows(&points);
    let mut identical = true;
    for qb in &bases {
        let outer = Region::hyperrect(qb.lo.clone(), qb.hi.clone());
        let sup = r_skyband(
            Source::Tree {
                points: &store,
                view: TreeView::packed(&tree),
            },
            &outer,
            K,
            true,
            ScreenKernel::default(),
            &mut Stats::new(),
        )
        .unwrap();
        for z in 1..=ZOOMS {
            let inner = zoom_region(&qb.lo, &qb.hi, z);
            let cold = r_skyband(
                Source::Tree {
                    points: &store,
                    view: TreeView::packed(&tree),
                },
                &inner,
                K,
                true,
                ScreenKernel::default(),
                &mut Stats::new(),
            )
            .unwrap();
            let warm = r_skyband(
                Source::Superset(&sup),
                &inner,
                K,
                true,
                ScreenKernel::default(),
                &mut Stats::new(),
            )
            .unwrap();
            identical &= warm == cold;
        }
    }

    // Prefix-cut ablation: under the coordinate-sum heap key the
    // member list is not in pivot order, so the pivot-score prefix cut
    // skips provably-futile dominance tests. (Under the pivot key BBS
    // already delivers the invariant and skips are zero.)
    let mut ablation = Stats::new();
    for qb in &bases {
        let region = Region::hyperrect(qb.lo.clone(), qb.hi.clone());
        r_skyband(
            Source::Tree {
                points: &store,
                view: TreeView::packed(&tree),
            },
            &region,
            K,
            false,
            ScreenKernel::default(),
            &mut ablation,
        )
        .unwrap();
    }
    let ablation_saved = ablation.screen_prefix_skips as f64
        / (ablation.screen_prefix_skips + ablation.rdom_tests).max(1) as f64;

    println!(
        "Filter cache (ANTI, n = {n}, d = {D}, k = {K}, {} bases × ({ZOOMS} zooms + {REPEATS} repeats))",
        bases.len()
    );
    let mut table = Table::new(vec!["serving", "rdom_tests", "bbs_pops"]);
    table.row(vec![
        "cold (all queries)".to_string(),
        cold_total.rdom_tests.to_string(),
        cold_total.bbs_pops.to_string(),
    ]);
    table.row(vec![
        "warm (all queries)".to_string(),
        warm_total.rdom_tests.to_string(),
        warm_total.bbs_pops.to_string(),
    ]);
    table.row(vec![
        "cold (zoom+repeat)".to_string(),
        cold_served.rdom_tests.to_string(),
        cold_served.bbs_pops.to_string(),
    ]);
    table.row(vec![
        "warm (zoom+repeat)".to_string(),
        warm_served.rdom_tests.to_string(),
        warm_served.bbs_pops.to_string(),
    ]);
    table.print();
    println!(
        "hit rate {:.2} ({hits} exact hits, {superset_hits} superset reuses, {misses} misses); \
         warm-served saves {ratio:.1}x rdom_tests; superset re-screens byte-identical: {identical}; \
         cache {cache_bytes} bytes, {evictions} evictions; \
         ablation prefix cut skips {:.0}% of screen tests",
        hit_rate,
        ablation_saved * 100.0
    );

    assert!(identical, "superset re-screen diverged from cold BBS");
    assert!(
        ratio >= 2.0,
        "locality workload must save at least 2x rdom_tests (got {ratio:.2}x)"
    );

    let cores = utk_bench::recorded_parallelism();
    let json = format!(
        concat!(
            r#"{{"schema_version":1,"figure":"filter_cache","dataset":"ANTI","n":{},"d":{},"k":{},"sigma":0.08,"#,
            r#""bases":{},"zooms_per_base":{},"repeats_per_base":{},"seed":{},"#,
            r#""available_parallelism":{},"#,
            r#""cold":{{"rdom_tests":{},"bbs_pops":{}}},"#,
            r#""warm":{{"rdom_tests":{},"bbs_pops":{},"exact_hits":{},"superset_hits":{},"#,
            r#""misses":{},"hit_rate":{:.4},"cache_bytes":{},"evictions":{}}},"#,
            r#""warm_served":{{"rdom_tests":{},"rdom_tests_cold_same_queries":{},"#,
            r#""saved_ratio":{:.3}}},"superset_rescreen_byte_identical":{},"#,
            r#""ablation_prefix_cut":{{"skips":{},"tests":{},"saved_fraction":{:.4}}}}}"#
        ),
        n,
        D,
        K,
        bases.len(),
        ZOOMS,
        REPEATS,
        cfg.seed,
        cores,
        cold_total.rdom_tests,
        cold_total.bbs_pops,
        warm_total.rdom_tests,
        warm_total.bbs_pops,
        hits,
        superset_hits,
        misses,
        hit_rate,
        cache_bytes,
        evictions,
        warm_served.rdom_tests,
        cold_served.rdom_tests,
        ratio,
        identical,
        ablation.screen_prefix_skips,
        ablation.rdom_tests,
        ablation_saved,
    );
    std::fs::write("BENCH_FILTER_CACHE.json", json + "\n").expect("write figure json");
    eprintln!("wrote BENCH_FILTER_CACHE.json");
}
