//! Integration tests of the `UtkEngine` query API: cross-validation
//! against the legacy free functions and the exact `d = 2` oracle,
//! the cached-reuse path, and the typed-error contract (no panics on
//! malformed input).

use utk::core::engine::{Algo, QueryResult};
use utk::core::oracle::sweep_2d;
use utk::core::scoring::{jaa_general, rsa_general};
use utk::data::embedded::figure1_hotels;
use utk::data::queries::random_regions;
use utk::data::synthetic::{generate, Distribution};
use utk::prelude::*;

// --- cross-validation: engine ≡ legacy free functions ----------------

#[test]
fn engine_matches_legacy_on_figure1() {
    let hotels = figure1_hotels();
    let engine = UtkEngine::new(hotels.points.clone()).unwrap();
    let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);

    let legacy1 = rsa(&hotels.points, &region, 2, &RsaOptions::default());
    let got1 = engine.utk1(&region, 2).unwrap();
    assert_eq!(got1.records, legacy1.records);
    assert_eq!(got1.records, vec![0, 1, 3, 5]);

    let legacy2 = jaa(&hotels.points, &region, 2, &JaaOptions::default());
    let got2 = engine.utk2(&region, 2).unwrap();
    assert_eq!(got2.records, legacy2.records);
    let norm = |r: &Utk2Result| {
        let mut s: Vec<Vec<u32>> = r.cells.iter().map(|c| c.top_k.clone()).collect();
        s.sort();
        s
    };
    assert_eq!(norm(&got2), norm(&legacy2));
}

#[test]
fn engine_matches_legacy_on_synthetic_workloads() {
    for (dist, n, d, k, seed) in [
        (Distribution::Ind, 400, 3, 5, 1u64),
        (Distribution::Cor, 400, 4, 3, 2),
        (Distribution::Anti, 250, 3, 4, 3),
    ] {
        let ds = generate(dist, n, d, seed);
        let engine = UtkEngine::new(ds.points.clone()).unwrap();
        for (qi, qb) in random_regions(d - 1, 0.08, 2, seed ^ 0xC0FFEE)
            .into_iter()
            .enumerate()
        {
            let region = Region::hyperrect(qb.lo, qb.hi);
            let label = format!("{} n={n} d={d} k={k} q={qi}", dist.label());

            let legacy1 = rsa(&ds.points, &region, k, &RsaOptions::default());
            let got1 = engine.utk1(&region, k).unwrap();
            assert_eq!(got1.records, legacy1.records, "UTK1 [{label}]");

            let legacy2 = jaa(&ds.points, &region, k, &JaaOptions::default());
            let got2 = engine.utk2(&region, k).unwrap();
            assert_eq!(got2.records, legacy2.records, "UTK2 union [{label}]");
            assert_eq!(
                got2.num_distinct_sets(),
                legacy2.num_distinct_sets(),
                "UTK2 sets [{label}]"
            );

            // The baselines through the engine agree too.
            for algo in [Algo::Sk, Algo::On, Algo::Jaa] {
                let got = engine
                    .run(&UtkQuery::utk1(k).region(region.clone()).algorithm(algo))
                    .unwrap();
                assert_eq!(got.records(), legacy1.records, "{} [{label}]", algo.label());
            }
        }
    }
}

#[test]
fn engine_parallel_matches_sequential() {
    let ds = generate(Distribution::Ind, 500, 3, 11);
    let region = Region::hyperrect(vec![0.15, 0.2], vec![0.3, 0.35]);
    let seq = UtkEngine::new(ds.points.clone())
        .unwrap()
        .utk1(&region, 4)
        .unwrap();
    // Pool size is an engine property: one engine per size under test.
    for threads in [1, 2, 4] {
        let engine = UtkEngine::new(ds.points.clone())
            .unwrap()
            .with_pool_threads(threads);
        let par = engine
            .run(&UtkQuery::utk1(4).region(region.clone()).parallel(true))
            .unwrap();
        assert_eq!(par.records(), seq.records, "{threads} threads");
        assert_eq!(par.stats().pool_threads, threads);
    }
}

#[test]
fn engine_matches_d2_oracle() {
    for (seed, k) in [(5u64, 1usize), (6, 3), (7, 4)] {
        let ds = generate(Distribution::Ind, 150, 2, seed);
        let engine = UtkEngine::new(ds.points.clone()).unwrap();
        let (lo, hi) = (0.25, 0.6);
        let (intervals, want_union) = sweep_2d(&ds.points, lo, hi, k);
        let region = Region::hyperrect(vec![lo], vec![hi]);

        let got1 = engine.utk1(&region, k).unwrap();
        assert_eq!(got1.records, want_union, "UTK1 vs oracle, seed {seed}");

        let got2 = engine.utk2(&region, k).unwrap();
        let mut got_sets: Vec<Vec<u32>> = got2.cells.iter().map(|c| c.top_k.clone()).collect();
        got_sets.sort();
        got_sets.dedup();
        let mut want_sets: Vec<Vec<u32>> = intervals.iter().map(|(_, _, s)| s.clone()).collect();
        want_sets.sort();
        want_sets.dedup();
        assert_eq!(got_sets, want_sets, "UTK2 vs oracle, seed {seed}");
    }
}

#[test]
fn engine_general_scoring_matches_legacy() {
    let ds = generate(Distribution::Ind, 150, 3, 21);
    let engine = UtkEngine::new(ds.points.clone()).unwrap();
    let region = Region::hyperrect(vec![0.2, 0.2], vec![0.3, 0.35]);
    let scoring = GeneralScoring::weighted_lp(2.0, 3);

    let legacy1 = rsa_general(&ds.points, &scoring, &region, 3, &RsaOptions::default());
    let got1 = engine
        .run(
            &UtkQuery::utk1(3)
                .region(region.clone())
                .scoring(scoring.clone()),
        )
        .unwrap();
    assert_eq!(got1.records(), legacy1.records);

    let legacy2 = jaa_general(&ds.points, &scoring, &region, 3, &JaaOptions::default());
    let got2 = engine
        .run(&UtkQuery::utk2(3).region(region).scoring(scoring))
        .unwrap();
    assert_eq!(got2.records(), legacy2.records);
}

// --- cached reuse ----------------------------------------------------

#[test]
fn cached_filter_reuse_across_queries_is_transparent() {
    let ds = generate(Distribution::Anti, 300, 3, 31);
    let engine = UtkEngine::new(ds.points.clone()).unwrap();
    let region_a = Region::hyperrect(vec![0.15, 0.2], vec![0.3, 0.35]);
    let region_b = Region::hyperrect(vec![0.25, 0.1], vec![0.4, 0.2]);

    // Same engine, different regions and k: four distinct filter
    // computations, no false sharing.
    let a3 = engine.utk1(&region_a, 3).unwrap();
    let b3 = engine.utk1(&region_b, 3).unwrap();
    let a5 = engine.utk1(&region_a, 5).unwrap();
    let b5 = engine.utk1(&region_b, 5).unwrap();
    assert_eq!(engine.filter_cache_counters(), (0, 4));

    // Re-running each query hits the cache and returns identical
    // answers.
    for (region, k, want) in [
        (&region_a, 3, &a3),
        (&region_b, 3, &b3),
        (&region_a, 5, &a5),
        (&region_b, 5, &b5),
    ] {
        let again = engine.utk1(region, k).unwrap();
        assert_eq!(again.records, want.records);
        assert_eq!(again.stats.filter_cache_hits, 1);
        // The filter work was skipped entirely this time.
        assert_eq!(again.stats.bbs_pops, 0);
    }
    assert_eq!(engine.filter_cache_counters(), (4, 4));

    // UTK2 over a region UTK1 already filtered: cache hit, same union.
    let u2 = engine.utk2(&region_a, 3).unwrap();
    assert_eq!(u2.stats.filter_cache_hits, 1);
    assert_eq!(u2.records, a3.records);

    // Cross-check everything against fresh legacy runs.
    for (region, k, got) in [(&region_a, 3, &a3), (&region_b, 5, &b5)] {
        let legacy = rsa(&ds.points, region, k, &RsaOptions::default());
        assert_eq!(got.records, legacy.records);
    }
}

#[test]
fn cached_and_uncached_engines_agree() {
    let ds = generate(Distribution::Ind, 250, 4, 41);
    let cached = UtkEngine::new(ds.points.clone()).unwrap();
    let uncached = UtkEngine::new(ds.points.clone())
        .unwrap()
        .without_filter_cache();
    for qb in random_regions(3, 0.06, 3, 99) {
        let region = Region::hyperrect(qb.lo, qb.hi);
        for k in [2, 4] {
            let a = cached.utk1(&region, k).unwrap();
            let b = uncached.utk1(&region, k).unwrap();
            assert_eq!(a.records, b.records);
            // Run the cached engine twice to exercise the hit path.
            let a2 = cached.utk1(&region, k).unwrap();
            assert_eq!(a2.records, a.records);
        }
    }
}

// --- typed errors: no panics on malformed input ----------------------

#[test]
fn construction_rejects_malformed_datasets() {
    assert_eq!(UtkEngine::new(vec![]).unwrap_err(), UtkError::EmptyDataset);
    assert_eq!(
        UtkEngine::new(vec![vec![0.5]]).unwrap_err(),
        UtkError::DatasetTooFlat { got: 1 }
    );
    assert_eq!(
        UtkEngine::new(vec![vec![0.5, 0.5], vec![0.1, 0.2, 0.3]]).unwrap_err(),
        UtkError::DimensionMismatch {
            what: "record",
            expected: 2,
            got: 3
        }
    );
    assert_eq!(
        UtkEngine::new(vec![vec![0.5, f64::INFINITY]]).unwrap_err(),
        UtkError::NonFiniteInput { what: "dataset" }
    );
}

#[test]
fn queries_reject_malformed_input_without_panicking() {
    let engine = UtkEngine::new(figure1_hotels().points).unwrap();
    let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);

    // k = 0.
    assert_eq!(
        engine.utk1(&region, 0).unwrap_err(),
        UtkError::InvalidK { k: 0 }
    );

    // Missing parameters.
    assert_eq!(
        engine.run(&UtkQuery::utk2(2)).unwrap_err(),
        UtkError::MissingParameter { what: "region" }
    );
    assert_eq!(
        engine.run(&UtkQuery::topk(2)).unwrap_err(),
        UtkError::MissingParameter {
            what: "weight vector"
        }
    );

    // Region dimensionality.
    let bad_dim = Region::hyperrect(vec![0.1, 0.1, 0.1], vec![0.2, 0.2, 0.2]);
    assert!(matches!(
        engine.utk1(&bad_dim, 2).unwrap_err(),
        UtkError::DimensionMismatch {
            expected: 2,
            got: 3,
            ..
        }
    ));

    // Region outside the preference domain (Σw > 1).
    let outside = Region::hyperrect(vec![0.6, 0.6], vec![0.9, 0.9]);
    assert!(matches!(
        engine.utk1(&outside, 2).unwrap_err(),
        UtkError::RegionOutsideDomain { .. }
    ));

    // Empty region (contradictory constraints).
    let empty = Region::hyperrect(vec![0.1, 0.1], vec![0.2, 0.2])
        .with_constraint(utk::geom::Constraint::le(vec![1.0, 0.0], 0.05));
    assert_eq!(engine.utk1(&empty, 2).unwrap_err(), UtkError::EmptyRegion);

    // NaN region bound (hyperrect's own assertions refuse NaN, so the
    // constraint form is the way such a region can reach the engine).
    let nan_region =
        Region::from_constraints(2, vec![utk::geom::Constraint::le(vec![1.0, 0.0], f64::NAN)]);
    assert_eq!(
        engine.utk1(&nan_region, 2).unwrap_err(),
        UtkError::NonFiniteInput {
            what: "query region"
        }
    );

    // NaN / wrong-length weights.
    assert_eq!(
        engine.top_k(&[0.3, f64::NAN], 2).unwrap_err(),
        UtkError::NonFiniteInput {
            what: "weight vector"
        }
    );
    assert!(matches!(
        engine.top_k(&[0.3], 2).unwrap_err(),
        UtkError::DimensionMismatch { .. }
    ));

    // Algorithm/kind mismatches.
    for algo in [Algo::Rsa, Algo::Sk, Algo::On] {
        assert!(matches!(
            engine
                .run(&UtkQuery::utk2(2).region(region.clone()).algorithm(algo))
                .unwrap_err(),
            UtkError::UnsupportedAlgorithm { .. }
        ));
    }

    // After all those rejections the engine still answers correctly.
    assert_eq!(engine.utk1(&region, 2).unwrap().records, vec![0, 1, 3, 5]);
}

#[test]
fn degenerate_point_region_is_answered_not_rejected() {
    // A single-vector region is legal: UTK reduces to one top-k query.
    let engine = UtkEngine::new(figure1_hotels().points).unwrap();
    let point = Region::hyperrect(vec![0.3, 0.5], vec![0.3, 0.5]);
    let u1 = engine.utk1(&point, 2).unwrap();
    assert_eq!(u1.records, vec![0, 1]);
    let u2 = engine.utk2(&point, 2).unwrap();
    assert_eq!(u2.cells.len(), 1);
    assert_eq!(u2.records, vec![0, 1]);
}

#[test]
fn query_result_accessors_expose_the_right_variant() {
    let engine = UtkEngine::new(figure1_hotels().points).unwrap();
    let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
    let r1 = engine
        .run(&UtkQuery::utk1(2).region(region.clone()))
        .unwrap();
    assert!(r1.as_utk1().is_some());
    assert!(r1.cells().is_none());
    let r2 = engine.run(&UtkQuery::utk2(2).region(region)).unwrap();
    assert!(r2.as_utk2().is_some());
    assert!(r2.cells().is_some());
    let QueryResult::TopK(tk) = engine
        .run(&UtkQuery::topk(2).weights(vec![0.3, 0.5, 0.2]))
        .unwrap()
    else {
        panic!("expected a top-k result");
    };
    assert_eq!(tk.records, vec![0, 1]);
}

// --- batching & the persistent worker pool ---------------------------

#[test]
fn run_many_mixed_validity_returns_per_query_errors() {
    let engine = UtkEngine::new(figure1_hotels().points).unwrap();
    let good = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
    let bad_dim = Region::hyperrect(vec![0.1], vec![0.2]); // d − 1 = 2 required
    let queries = vec![
        UtkQuery::utk1(2).region(good.clone()),
        UtkQuery::utk1(2).region(bad_dim),
        UtkQuery::utk2(0).region(good.clone()), // invalid k
        UtkQuery::utk2(2).region(good.clone()).parallel(true),
    ];
    let out = engine.run_many(&queries);
    assert_eq!(out.len(), 4);
    assert_eq!(out[0].as_ref().unwrap().records(), &[0, 1, 3, 5]);
    assert!(matches!(
        out[1],
        Err(UtkError::DimensionMismatch {
            expected: 2,
            got: 1,
            ..
        })
    ));
    assert!(matches!(out[2], Err(UtkError::InvalidK { k: 0 })));
    assert_eq!(out[3].as_ref().unwrap().records(), &[0, 1, 3, 5]);

    // Three groups: {q0, q3} share (k=2, good); the malformed queries
    // key separately. Every successful result records the group count.
    for ok in out.iter().flatten() {
        assert_eq!(ok.stats().batch_group_count, 3);
    }

    // The failures must not have poisoned the shared cache: the next
    // standalone query over the good region is a clean hit.
    let again = engine.utk1(&good, 2).unwrap();
    assert_eq!(again.records, vec![0, 1, 3, 5]);
    assert_eq!(again.stats.filter_cache_hits, 1);
}

#[test]
fn run_many_groups_amortize_the_filter() {
    let ds = generate(Distribution::Ind, 300, 3, 21);
    let engine = UtkEngine::new(ds.points.clone()).unwrap();
    let region = Region::hyperrect(vec![0.15, 0.2], vec![0.3, 0.35]);
    // Four queries, one (k, region) group: exactly one filter miss.
    let queries: Vec<UtkQuery> = (0..4)
        .map(|i| {
            if i % 2 == 0 {
                UtkQuery::utk1(3).region(region.clone())
            } else {
                UtkQuery::utk2(3).region(region.clone())
            }
        })
        .collect();
    let out = engine.run_many(&queries);
    assert!(out.iter().all(|r| r.is_ok()));
    let (hits, misses) = engine.filter_cache_counters();
    assert_eq!(misses, 1, "one group must pay exactly one filter miss");
    assert_eq!(hits, 3);
    assert_eq!(out[0].as_ref().unwrap().stats().batch_group_count, 1);
}

#[test]
fn run_many_of_empty_and_single_batches() {
    let engine = UtkEngine::new(figure1_hotels().points).unwrap();
    assert!(engine.run_many(&[]).is_empty());
    let region = Region::hyperrect(vec![0.05, 0.05], vec![0.45, 0.25]);
    let out = engine.run_many(&[UtkQuery::utk1(2).region(region)]);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].as_ref().unwrap().records(), &[0, 1, 3, 5]);
    assert_eq!(out[0].as_ref().unwrap().stats().batch_group_count, 1);
    // A batch of one runs inline: no pool is ever constructed.
    assert_eq!(engine.pool_builds(), 0);
}

#[test]
fn engine_builds_its_pool_once_across_parallel_queries() {
    let ds = generate(Distribution::Ind, 400, 3, 9);
    let engine = UtkEngine::new(ds.points.clone())
        .unwrap()
        .with_pool_threads(2);
    assert_eq!(
        engine.pool_builds(),
        0,
        "no pool before the first parallel query"
    );
    for i in 0..5 {
        let region = Region::hyperrect(vec![0.1 + 0.01 * i as f64, 0.2], vec![0.3, 0.35]);
        let u1 = engine
            .run(&UtkQuery::utk1(3).region(region.clone()).parallel(true))
            .unwrap();
        let u2 = engine
            .run(&UtkQuery::utk2(3).region(region).parallel(true))
            .unwrap();
        // The per-query thread count is read off the engine pool, not
        // re-resolved: it matches the configured size every time.
        assert_eq!(u1.stats().pool_threads, 2);
        assert_eq!(u2.stats().pool_threads, 2);
    }
    // The regression this guards: one pool for the engine's lifetime,
    // never one per query.
    assert_eq!(engine.pool_builds(), 1);
    assert_eq!(engine.pool_threads(), 2);
}

#[test]
fn superset_reuse_serves_contained_regions_exactly() {
    let ds = generate(Distribution::Anti, 600, 3, 77);
    let warm = UtkEngine::new(ds.points.clone()).unwrap();
    let cold = UtkEngine::new(ds.points.clone())
        .unwrap()
        .without_filter_cache();
    let outer = Region::hyperrect(vec![0.1, 0.1], vec![0.35, 0.35]);
    let inner = Region::hyperrect(vec![0.15, 0.18], vec![0.25, 0.3]);
    let k = 4;

    // Warm the cache with the containing region.
    let first = warm.utk1(&outer, k).unwrap();
    assert_eq!(first.stats.superset_hits, 0);
    assert!(first.stats.filter_cache_bytes > 0, "miss inserts its entry");

    // The contained region is an exact cache miss but a superset hit:
    // rebuilt by re-screening the cached candidates, far cheaper than
    // cold BBS, with identical output.
    let via_superset = warm.utk1(&inner, k).unwrap();
    let via_cold = cold.utk1(&inner, k).unwrap();
    assert_eq!(via_superset.records, via_cold.records);
    assert_eq!(via_superset.stats.superset_hits, 1);
    assert_eq!(via_superset.stats.filter_cache_hits, 0);
    assert_eq!(via_superset.stats.candidates, via_cold.stats.candidates);
    assert!(
        via_superset.stats.rdom_tests * 2 <= via_cold.stats.rdom_tests,
        "re-screen must cost at most half the cold dominance tests: {} vs {}",
        via_superset.stats.rdom_tests,
        via_cold.stats.rdom_tests
    );
    assert_eq!(via_superset.stats.bbs_pops, 0, "no tree traversal");
    assert_eq!(warm.filter_superset_hits(), 1);
    // Both regions are now cached; a repeat of the inner query is an
    // exact hit.
    assert_eq!(warm.cached_filters(), 2);
    let repeat = warm.utk1(&inner, k).unwrap();
    assert_eq!(repeat.stats.filter_cache_hits, 1);
    assert_eq!(repeat.records, via_cold.records);
}

#[test]
fn superset_reuse_requires_matching_k_and_scoring() {
    let ds = generate(Distribution::Ind, 400, 3, 78);
    let engine = UtkEngine::new(ds.points.clone()).unwrap();
    let outer = Region::hyperrect(vec![0.1, 0.1], vec![0.35, 0.35]);
    let inner = Region::hyperrect(vec![0.15, 0.18], vec![0.25, 0.3]);
    engine.utk1(&outer, 3).unwrap();
    // Different k: no superset reuse (the dominator threshold differs).
    let other_k = engine.utk1(&inner, 5).unwrap();
    assert_eq!(other_k.stats.superset_hits, 0);
    // Same k: reuse kicks in.
    let same_k = engine.utk1(&inner, 3).unwrap();
    assert_eq!(same_k.stats.superset_hits, 1);
}

#[test]
fn lru_byte_budget_evicts_and_stays_correct() {
    let ds = generate(Distribution::Anti, 500, 3, 79);
    // A budget small enough that a handful of candidate sets overflow
    // it, but large enough to hold at least one entry.
    let engine = UtkEngine::new(ds.points.clone())
        .unwrap()
        .with_filter_cache_budget(1 << 14);
    let reference = UtkEngine::new(ds.points.clone())
        .unwrap()
        .without_filter_cache();
    let regions = random_regions(2, 0.12, 8, 4242);
    let mut saw_eviction = false;
    for qb in &regions {
        let region = Region::hyperrect(qb.lo.clone(), qb.hi.clone());
        let got = engine.utk1(&region, 6).unwrap();
        let want = reference.utk1(&region, 6).unwrap();
        assert_eq!(got.records, want.records);
        saw_eviction |= got.stats.evictions > 0;
        assert!(
            engine.filter_cache_bytes() <= 1 << 14,
            "budget must hold after every insert"
        );
    }
    assert!(
        saw_eviction || engine.filter_cache_evictions() > 0,
        "a 16 KiB budget must evict on this workload"
    );
    assert!(engine.cached_filters() >= 1, "recent entries stay cached");
}

// --- work bounds -------------------------------------------------------

/// The LP bill of one seeded ANTI UTK2 query near equal weights — the
/// arrangement's dominant cost — pinned as a deterministic work bound.
/// A change that solves fewer LPs for the same answer lowers these
/// numbers on purpose; any other change to them is a regression.
#[test]
fn anti_utk2_lp_bill_is_pinned() {
    let ds = generate(Distribution::Anti, 2_000, 4, 7);
    let engine = UtkEngine::new(ds.points).unwrap();
    let region = Region::hyperrect(vec![0.2422, 0.2462, 0.2435], vec![0.2522, 0.2562, 0.2535]);
    let res = engine.utk2(&region, 5).unwrap();
    let s = &res.stats;
    assert_eq!((res.records.len(), res.cells.len()), (17, 381));
    assert_eq!((s.halfspaces_inserted, s.cells_created), (3553, 1498));
    assert_eq!((s.lp_solves, s.lp_rows), (910, 15926));
}

/// The same dataset and box under RSA's UTK1 refinement: the other
/// path that builds arrangements (one per `verify` call), pinned as a
/// work bound like the UTK2 bill above.
#[test]
fn anti_rsa_utk1_lp_bill_is_pinned() {
    let ds = generate(Distribution::Anti, 2_000, 4, 7);
    let engine = UtkEngine::new(ds.points).unwrap();
    let region = Region::hyperrect(vec![0.2422, 0.2462, 0.2435], vec![0.2522, 0.2562, 0.2535]);
    let res = engine
        .run(&UtkQuery::utk1(5).region(region).algorithm(Algo::Rsa))
        .unwrap();
    let s = res.stats();
    assert_eq!(res.records().len(), 17);
    assert_eq!((s.halfspaces_inserted, s.cells_created), (84, 145));
    assert_eq!((s.lp_solves, s.lp_rows), (66, 656));
}
