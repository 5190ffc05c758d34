//! Oracle-locked incremental-update tests: after **any** sequence of
//! inserts and deletes, every supported query on the mutated engine
//! must be wire-byte-identical to a fresh engine built from the
//! post-mutation dataset.
//!
//! Two tiers of byte-identity:
//!
//! * **Result identity** (the proptest oracle): the full wire line
//!   with the stats object canonicalized. Work counters legitimately
//!   differ between a mutated engine and a fresh build — the overlay
//!   tree pops differently, retained cache entries turn misses into
//!   hits — but records, cells, partitions, interiors and rankings
//!   may never drift, across UTK1/UTK2/top-k × RSA/JAA ×
//!   sequential/parallel, with caches and superset reuse on.
//! * **Full identity**: after `compact()` + `clear_caches()` a
//!   mutated engine must be *observationally indistinguishable* from
//!   a fresh build — an identical query sequence produces identical
//!   wire bytes including every deterministic stats counter.
//!
//! The mutation model mirrors `UtkEngine::apply_update` exactly:
//! deletes are simultaneous current ids, survivors keep their order
//! and renumber densely, inserts append.

use proptest::prelude::*;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use utk::core::stats::Stats;
use utk::data::csv::{parse_csv, write_csv};
use utk::data::dataset::Dataset;
use utk::data::wal::{self, WalFile, WalRecord};
use utk::prelude::*;
use utk::wire;
use utk_testdir::TestDir;

/// The reference model: a plain vector mutated with the documented
/// semantics.
fn apply_to_model(model: &mut Vec<Vec<f64>>, deletes: &[u32], inserts: &[Vec<f64>]) {
    let mut dead = vec![false; model.len()];
    for &id in deletes {
        dead[id as usize] = true;
    }
    let mut next = Vec::with_capacity(model.len() - deletes.len() + inserts.len());
    for (i, row) in model.drain(..).enumerate() {
        if !dead[i] {
            next.push(row);
        }
    }
    next.extend(inserts.iter().cloned());
    *model = next;
}

/// A random box inside the preference simplex.
fn random_region(rng: &mut ChaCha8Rng, dp: usize) -> Region {
    let lo: Vec<f64> = (0..dp).map(|_| rng.gen_range(0.03..0.15)).collect();
    let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.03..0.12)).collect();
    Region::hyperrect(lo, hi)
}

/// A region strictly inside `outer` (drives the superset-reuse path).
fn shrunk(outer: &Region, rng: &mut ChaCha8Rng) -> Region {
    let pivot = outer.pivot().expect("non-empty outer region");
    // A small box around the pivot: contained in any box region whose
    // pivot it is.
    let lo: Vec<f64> = pivot
        .iter()
        .map(|c| c - rng.gen_range(0.001..0.01))
        .collect();
    let hi: Vec<f64> = pivot
        .iter()
        .map(|c| c + rng.gen_range(0.001..0.01))
        .collect();
    Region::hyperrect(lo, hi)
}

/// One random mutation: deletes (bounded, keeping ≥ 5 records) and
/// inserts (mixing clearly dominated, clearly dominant, and ordinary
/// rows so both invalidation outcomes occur).
fn random_mutation(rng: &mut ChaCha8Rng, len: usize, d: usize) -> (Vec<u32>, Vec<Vec<f64>>) {
    let n_del = if len > 8 { rng.gen_range(0..4) } else { 0 };
    let mut deletes: Vec<u32> = Vec::new();
    while deletes.len() < n_del {
        let id = rng.gen_range(0..len as u32);
        if !deletes.contains(&id) {
            deletes.push(id);
        }
    }
    let n_ins = rng.gen_range(0..4);
    let inserts: Vec<Vec<f64>> = (0..n_ins)
        .map(|_| match rng.gen_range(0..4) {
            0 => (0..d).map(|_| rng.gen_range(0.0..0.06)).collect(), // dominated
            1 => (0..d).map(|_| rng.gen_range(0.94..1.0)).collect(), // dominant
            _ => (0..d).map(|_| rng.gen_range(0.0..1.0)).collect(),
        })
        .collect();
    (deletes, inserts)
}

/// Serializes a result as its wire line with the stats object
/// canonicalized (engine-history counters zeroed).
fn result_line(
    result: &QueryResult,
    k: usize,
    algo: Algo,
    kind: QueryKind,
    n: usize,
    d: usize,
    weights: &[f64],
) -> String {
    let mut canon = result.clone();
    match &mut canon {
        QueryResult::Utk1(r) => r.stats = Stats::new(),
        QueryResult::Utk2(r) => r.stats = Stats::new(),
        QueryResult::TopK(r) => r.stats = Stats::new(),
    }
    let name = |id: u32| format!("#{id}");
    wire::result_json(&canon, k, algo.resolved_for(kind), n, d, weights, &name)
}

/// The query matrix the oracle compares: UTK1 (RSA and JAA), UTK2
/// (JAA), plain top-k — sequential and parallel.
fn query_matrix(
    rng: &mut ChaCha8Rng,
    region: &Region,
    d: usize,
) -> Vec<(UtkQuery, Algo, QueryKind, usize, Vec<f64>)> {
    let k = rng.gen_range(1..4);
    let weights: Vec<f64> = region.pivot().expect("non-empty region");
    let mut out = Vec::new();
    for parallel in [false, true] {
        for (kind, algo) in [
            (QueryKind::Utk1, Algo::Rsa),
            (QueryKind::Utk1, Algo::Jaa),
            (QueryKind::Utk2, Algo::Jaa),
        ] {
            let query = match kind {
                QueryKind::Utk1 => UtkQuery::utk1(k),
                QueryKind::Utk2 => UtkQuery::utk2(k),
                QueryKind::TopK => unreachable!(),
            };
            out.push((
                query
                    .region(region.clone())
                    .algorithm(algo)
                    .parallel(parallel),
                algo,
                kind,
                k,
                Vec::new(),
            ));
        }
    }
    out.push((
        UtkQuery::topk(k).weights(weights.clone()),
        Algo::Auto,
        QueryKind::TopK,
        k,
        weights,
    ));
    let _ = d;
    out
}

/// Runs the matrix on both engines and compares canonical wire lines.
fn assert_oracle_matches(
    mutated: &UtkEngine,
    fresh: &UtkEngine,
    rng: &mut ChaCha8Rng,
    region: &Region,
    d: usize,
    context: &str,
) {
    assert_eq!(
        mutated.len(),
        fresh.len(),
        "{context}: dataset sizes drifted"
    );
    let n = fresh.len();
    for (query, algo, kind, k, weights) in query_matrix(rng, region, d) {
        let got = mutated
            .run(&query)
            .unwrap_or_else(|e| panic!("{context}: mutated engine: {e}"));
        let want = fresh
            .run(&query)
            .unwrap_or_else(|e| panic!("{context}: fresh engine: {e}"));
        let got_line = result_line(&got, k, algo, kind, n, d, &weights);
        let want_line = result_line(&want, k, algo, kind, n, d, &weights);
        assert_eq!(
            got_line,
            want_line,
            "{context}: {} {} parallel-mixed query diverged",
            kind.label(),
            algo.label()
        );
    }
}

proptest! {
    // Default 32 cases; the CI `dynamic-fuzz` job raises this via
    // PROPTEST_CASES=256 in release mode.

    /// The headline oracle: random mutation interleavings, then the
    /// whole query matrix, must match a from-scratch build at every
    /// checkpoint — including the nested-region query that forces
    /// superset-cache reuse on both sides.
    #[test]
    fn mutated_engine_answers_like_a_fresh_build(
        seed in 0u64..1 << 32,
        steps in 1usize..4,
        threads in 1usize..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let d = rng.gen_range(3..5);
        let n0 = rng.gen_range(24..56);
        let mut model: Vec<Vec<f64>> =
            (0..n0).map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let engine = UtkEngine::new(model.clone()).unwrap().with_pool_threads(threads);

        // Warm the cache pre-mutation so retained-entry reuse and
        // invalidation both happen against real cached state.
        let warm_region = random_region(&mut rng, d - 1);
        engine.utk1(&warm_region, 2).unwrap();

        for step in 0..steps {
            let (deletes, inserts) = random_mutation(&mut rng, model.len(), d);
            let report = engine.apply_update(&deletes, inserts.clone()).unwrap();
            apply_to_model(&mut model, &deletes, &inserts);
            prop_assert_eq!(report.n, model.len());
            prop_assert_eq!(engine.len(), model.len());

            let fresh = UtkEngine::new(model.clone()).unwrap().with_pool_threads(threads);
            let outer = random_region(&mut rng, d - 1);
            let context = format!("seed {seed}, step {step}, threads {threads}");
            assert_oracle_matches(&engine, &fresh, &mut rng, &outer, d, &context);
            // Nested region: the miss probes the cached outer region
            // on both engines (superset re-screen path).
            let inner = shrunk(&outer, &mut rng);
            assert_oracle_matches(&engine, &fresh, &mut rng, &inner, d, &format!("{context} (nested)"));
        }
    }

    /// Full-byte identity: `compact()` + `clear_caches()` after any
    /// mutation sequence makes the engine observationally equal to a
    /// fresh build — an identical query sequence (with warm repeats
    /// and a nested region) produces identical wire bytes *including
    /// stats*, at each tested pool size. Parallel RSA is excluded:
    /// its work counters are scheduling-dependent by contract.
    #[test]
    fn compacted_engine_is_byte_identical_to_fresh(
        seed in 0u64..1 << 32,
        threads in 1usize..3,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD15C);
        let d = 3;
        let mut model: Vec<Vec<f64>> =
            (0..40).map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let engine = UtkEngine::new(model.clone()).unwrap().with_pool_threads(threads);
        for _ in 0..3 {
            let (deletes, inserts) = random_mutation(&mut rng, model.len(), d);
            engine.apply_update(&deletes, inserts.clone()).unwrap();
            apply_to_model(&mut model, &deletes, &inserts);
        }
        engine.compact();
        engine.clear_caches();
        let fresh = UtkEngine::new(model.clone()).unwrap().with_pool_threads(threads);

        let outer = random_region(&mut rng, d - 1);
        let inner = shrunk(&outer, &mut rng);
        let k = rng.gen_range(1..4);
        let w = outer.pivot().unwrap();
        let name = |id: u32| format!("#{id}");
        let sequence: Vec<(UtkQuery, Algo, QueryKind, Vec<f64>)> = vec![
            (UtkQuery::utk1(k).region(outer.clone()), Algo::Auto, QueryKind::Utk1, vec![]),
            // Repeat: cache hit, same bytes on both sides.
            (UtkQuery::utk1(k).region(outer.clone()), Algo::Auto, QueryKind::Utk1, vec![]),
            (UtkQuery::utk2(k).region(outer.clone()), Algo::Auto, QueryKind::Utk2, vec![]),
            // Nested: superset re-screen on both sides.
            (UtkQuery::utk1(k).region(inner.clone()), Algo::Auto, QueryKind::Utk1, vec![]),
            // Parallel JAA: deterministic stats by contract.
            (UtkQuery::utk2(k).region(outer.clone()).parallel(true), Algo::Auto, QueryKind::Utk2, vec![]),
            (UtkQuery::topk(k).weights(w.clone()), Algo::Auto, QueryKind::TopK, w),
        ];
        for (i, (query, algo, kind, weights)) in sequence.into_iter().enumerate() {
            let got = engine.run(&query).unwrap();
            let want = fresh.run(&query).unwrap();
            let got_line = wire::result_json(
                &got, k, algo.resolved_for(kind), engine.len(), d, &weights, &name);
            let want_line = wire::result_json(
                &want, k, algo.resolved_for(kind), fresh.len(), d, &weights, &name);
            prop_assert_eq!(got_line, want_line, "query {} diverged (seed {})", i, seed);
        }
    }

    /// Fault-injection kill-and-replay: a crash at ANY byte offset
    /// mid-append recovers, on reopen, to either the pre- or the
    /// post-mutation epoch — never a torn state — and every query on
    /// the recovered dataset is wire-identical to a fresh build. The
    /// dataset is labeled and every logged mutation carries labels,
    /// so replay's label path rides the same oracle: the recovered
    /// labels must line up with the reference model row for row.
    #[test]
    fn wal_kill_and_replay_recovers_a_consistent_epoch(
        seed in 0u64..1 << 32,
        cut_frac in 0.0f64..1.0,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x11A7);
        let d = 3;
        let n0 = rng.gen_range(16..32);
        let model0: Vec<Vec<f64>> =
            (0..n0).map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let labels0: Vec<String> = (0..n0).map(|i| format!("b{i}")).collect();
        let base_csv = write_csv(&Dataset::new("base", model0.clone()), Some(&labels0));

        // Labels shift exactly like rows: delete-compact, then append.
        let apply_labels = |labels: &mut Vec<String>, deletes: &[u32], fresh: &[String]| {
            let mut dead = vec![false; labels.len()];
            for &id in deletes {
                dead[id as usize] = true;
            }
            let mut next: Vec<String> = labels
                .drain(..)
                .enumerate()
                .filter_map(|(i, l)| (!dead[i]).then_some(l))
                .collect();
            next.extend(fresh.iter().cloned());
            *labels = next;
        };

        let dir = TestDir::new("dyn_wal_kill");
        let path = dir.join("log.wal");
        let mut wal_file = WalFile::open(&path).unwrap().wal;

        // A mutation that always changes something (an empty one
        // would log an epoch the engine never bumps to).
        let nonempty = |rng: &mut ChaCha8Rng, len: usize| {
            let (deletes, mut inserts) = random_mutation(rng, len, d);
            if deletes.is_empty() && inserts.is_empty() {
                inserts.push((0..d).map(|_| rng.gen_range(0.0..1.0)).collect());
            }
            (deletes, inserts)
        };

        // Commit a few mutations durably.
        let mut model = model0.clone();
        let mut label_model = labels0.clone();
        let committed = rng.gen_range(0..3u64);
        for i in 0..committed {
            let (deletes, inserts) = nonempty(&mut rng, model.len());
            let fresh: Vec<String> =
                (0..inserts.len()).map(|j| format!("c{i}_{j}")).collect();
            wal_file
                .append(&WalRecord::for_update(i + 1, &deletes, &inserts, Some(&fresh)))
                .unwrap();
            apply_to_model(&mut model, &deletes, &inserts);
            apply_labels(&mut label_model, &deletes, &fresh);
        }
        let pre_model = model.clone();
        let pre_labels = label_model.clone();

        // The victim mutation: the process "dies" after `cut` bytes.
        let (deletes, inserts) = nonempty(&mut rng, model.len());
        let victim_labels: Vec<String> =
            (0..inserts.len()).map(|j| format!("v{j}")).collect();
        let record =
            WalRecord::for_update(committed + 1, &deletes, &inserts, Some(&victim_labels));
        let full = record.encode().len() as u64;
        let cut = (cut_frac * (full as f64 + 1.0)) as u64;
        wal_file.fail_after_n_bytes(Some(cut));
        let append = wal_file.append(&record);
        drop(wal_file); // the kill: nothing else reaches the file

        // Recovery: reopen (truncating any torn tail) and replay.
        let reopened = WalFile::open(&path).unwrap();
        let mut recovered = parse_csv(&base_csv, "base").unwrap();
        let epoch = wal::replay(&mut recovered, &reopened.records).unwrap();
        let (expected_model, expected_labels) = if append.is_ok() {
            prop_assert!(cut >= full, "append succeeded despite a mid-record crash");
            prop_assert_eq!(epoch, committed + 1);
            apply_to_model(&mut model, &deletes, &inserts);
            apply_labels(&mut label_model, &deletes, &victim_labels);
            (model, label_model)
        } else {
            prop_assert_eq!(epoch, committed, "crash at byte {} of {}", cut, full);
            (pre_model, pre_labels)
        };
        prop_assert_eq!(&recovered.dataset.points, &expected_model, "torn replay state");
        for (i, want) in expected_labels.iter().enumerate() {
            prop_assert_eq!(&recovered.name(i as u32), want, "label {} diverged", i);
        }

        // Wire-identity: the recovered engine answers like a fresh
        // build on the epoch replay landed on.
        let replayed = UtkEngine::new(recovered.dataset.points.clone()).unwrap();
        let fresh = UtkEngine::new(expected_model).unwrap();
        let region = random_region(&mut rng, d - 1);
        assert_oracle_matches(
            &replayed, &fresh, &mut rng, &region, d,
            &format!("seed {seed}, cut {cut}/{full}"),
        );
    }

    /// Splice repair is byte-identical to drop-and-recompute over
    /// random mutation interleavings: a repair-enabled engine and a
    /// repair-disabled twin walk the same mutation/query sequence and
    /// must agree on every answer — including the candidate-set size,
    /// which pins the repaired r-skyband to the recomputed one.
    #[test]
    fn wal_era_splice_repair_matches_drop_and_recompute(
        seed in 0u64..1 << 32,
        steps in 1usize..5,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED);
        let d = 3;
        let n0 = rng.gen_range(24..48);
        let mut model: Vec<Vec<f64>> =
            (0..n0).map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        let repaired = UtkEngine::new(model.clone()).unwrap();
        let baseline = UtkEngine::new(model.clone()).unwrap().without_cache_repair();
        let warm = random_region(&mut rng, d - 1);
        let k = rng.gen_range(1..4);
        repaired.utk1(&warm, k).unwrap();
        baseline.utk1(&warm, k).unwrap();
        for step in 0..steps {
            let (deletes, inserts) = random_mutation(&mut rng, model.len(), d);
            let a = repaired.apply_update(&deletes, inserts.clone()).unwrap();
            let b = baseline.apply_update(&deletes, inserts.clone()).unwrap();
            prop_assert_eq!(a.epoch, b.epoch);
            prop_assert_eq!(b.filter_repaired, 0, "disabled engine must never repair");
            apply_to_model(&mut model, &deletes, &inserts);
            let ra = repaired.utk1(&warm, k).unwrap();
            let rb = baseline.utk1(&warm, k).unwrap();
            prop_assert_eq!(&ra.records, &rb.records, "records diverged at step {}", step);
            prop_assert_eq!(
                ra.stats.candidates, rb.stats.candidates,
                "candidate sets diverged at step {}", step
            );
        }
    }
}

/// A mutated-epoch `run_many` must never serve a pre-mutation cached
/// r-skyband: grouped queries re-filter under the new epoch key, and
/// every result reports the epoch it ran at.
#[test]
fn run_many_never_serves_a_stale_epoch_rskyband() {
    let mut rng = ChaCha8Rng::seed_from_u64(777);
    let d = 3;
    let mut model: Vec<Vec<f64>> = (0..40)
        .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let engine = UtkEngine::new(model.clone()).unwrap().with_pool_threads(2);
    let region = random_region(&mut rng, d - 1);
    let queries: Vec<UtkQuery> = vec![
        UtkQuery::utk1(2).region(region.clone()),
        UtkQuery::utk2(2).region(region.clone()),
        UtkQuery::utk1(2).region(region.clone()).parallel(true),
    ];

    // Warm at epoch 0: the grouped batch shares one filter pass.
    let warm = engine.run_many(&queries);
    for result in &warm {
        assert_eq!(result.as_ref().unwrap().stats().dataset_epoch, 0);
    }

    // Delete a cached member: the entry is splice-repaired to the new
    // epoch (byte-identical to a fresh r-skyband by contract), and the
    // post-mutation batch serves the repaired entry — same answers as
    // a fresh engine, nothing left of the stale epoch-0 bytes.
    let member = warm[0].as_ref().unwrap().records()[0];
    let report = engine.delete_points(&[member]).unwrap();
    assert!(
        report.filter_repaired >= 1,
        "deleting a member must splice-repair the entry"
    );
    assert_eq!(report.filter_invalidated, 0);
    apply_to_model(&mut model, &[member], &[]);
    let fresh = UtkEngine::new(model.clone()).unwrap();

    let after = engine.run_many(&queries);
    for (result, oracle) in after.iter().zip(fresh.run_many(&queries)) {
        let result = result.as_ref().unwrap();
        let oracle = oracle.as_ref().unwrap();
        assert_eq!(result.records(), oracle.records(), "stale r-skyband served");
        assert_eq!(result.stats().dataset_epoch, 1);
        assert_eq!(
            result.stats().superset_hits,
            0,
            "no cross-epoch superset reuse"
        );
    }
    // The repaired entry lives under the *new* epoch key, so both the
    // group leader and the followers hit it.
    assert_eq!(after[0].as_ref().unwrap().stats().filter_cache_hits, 1);
    assert_eq!(after[1].as_ref().unwrap().stats().filter_cache_hits, 1);
    assert_eq!(engine.filter_repairs(), 1);
}

/// Concurrent mutations against live queriers: every result must be
/// exactly a fresh-build answer for *some* published dataset version,
/// identified by the epoch the result reports — no torn reads, no
/// cross-epoch cache leaks.
#[test]
fn concurrent_queries_always_see_a_consistent_epoch() {
    let mut rng = ChaCha8Rng::seed_from_u64(4242);
    let d = 3;
    let mut model: Vec<Vec<f64>> = (0..30)
        .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let engine = UtkEngine::new(model.clone()).unwrap().with_pool_threads(2);
    let region = random_region(&mut rng, d - 1);

    // Precompute the model at every epoch the mutator will publish.
    let mut mutations: Vec<(Vec<u32>, Vec<Vec<f64>>)> = Vec::new();
    let mut versions: Vec<Vec<Vec<f64>>> = vec![model.clone()];
    for _ in 0..6 {
        let (deletes, inserts) = random_mutation(&mut rng, model.len(), d);
        mutations.push((deletes.clone(), inserts.clone()));
        apply_to_model(&mut model, &deletes, &inserts);
        versions.push(model.clone());
    }
    let oracles: Vec<Vec<u32>> = versions
        .iter()
        .map(|pts| {
            UtkEngine::new(pts.clone())
                .unwrap()
                .utk1(&region, 2)
                .unwrap()
                .records
        })
        .collect();

    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop;
        for _ in 0..2 {
            let engine = engine.clone();
            let region = region.clone();
            let oracles = &oracles;
            scope.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let res = engine.utk1(&region, 2).unwrap();
                    let epoch = res.stats.dataset_epoch;
                    assert!(epoch < oracles.len(), "unpublished epoch {epoch}");
                    assert_eq!(
                        res.records, oracles[epoch],
                        "epoch {epoch} answered with another version's records"
                    );
                }
            });
        }
        for (deletes, inserts) in &mutations {
            engine.apply_update(deletes, inserts.clone()).unwrap();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });
    assert_eq!(engine.dataset_epoch(), mutations.len() as u64);
}

/// Retained superset entries keep paying off after a harmless
/// mutation: the nested-region query re-screens the *remapped* cached
/// entry and still matches a cold fresh build byte for byte.
#[test]
fn superset_reuse_survives_harmless_mutations() {
    let mut rng = ChaCha8Rng::seed_from_u64(99);
    let d = 3;
    let mut model: Vec<Vec<f64>> = (0..50)
        .map(|_| (0..d).map(|_| rng.gen_range(0.2..0.9)).collect())
        .collect();
    let engine = UtkEngine::new(model.clone()).unwrap();
    let outer = Region::hyperrect(vec![0.05, 0.05], vec![0.3, 0.3]);
    let inner = Region::hyperrect(vec![0.12, 0.12], vec![0.2, 0.2]);

    let warm = engine.utk1(&outer, 2).unwrap();
    // A record nobody in the outer r-skyband can be displaced by.
    let dominated = vec![0.01; d];
    let report = engine.insert_points(vec![dominated.clone()]).unwrap();
    assert_eq!(
        report.filter_retained, 1,
        "dominated insert must retain the entry"
    );
    model.push(dominated);

    let res = engine.utk1(&inner, 2).unwrap();
    assert_eq!(
        res.stats.superset_hits, 1,
        "the retained outer entry must serve"
    );
    let fresh = UtkEngine::new(model.clone()).unwrap();
    let cold = fresh.utk1(&inner, 2).unwrap();
    assert_eq!(res.records, cold.records);
    assert_eq!(res.stats.candidates, cold.stats.candidates);
    drop(warm);
}

/// The scoring-transform cache is epoch-keyed and flushed: a query
/// under generalized scoring after a mutation matches a fresh build
/// (which transforms the post-mutation dataset).
#[test]
fn scoring_transforms_track_mutations() {
    let mut rng = ChaCha8Rng::seed_from_u64(1234);
    let d = 3;
    let mut model: Vec<Vec<f64>> = (0..30)
        .map(|_| (0..d).map(|_| rng.gen_range(0.1..1.0)).collect())
        .collect();
    let engine = UtkEngine::new(model.clone()).unwrap();
    let region = Region::hyperrect(vec![0.1, 0.1], vec![0.25, 0.25]);
    let scoring = GeneralScoring::weighted_lp(2.0, d);

    let q = UtkQuery::utk1(2)
        .region(region.clone())
        .scoring(scoring.clone());
    engine.run(&q).unwrap(); // warm the transform at epoch 0

    let (deletes, inserts) = random_mutation(&mut rng, model.len(), d);
    engine.apply_update(&deletes, inserts.clone()).unwrap();
    apply_to_model(&mut model, &deletes, &inserts);

    let fresh = UtkEngine::new(model).unwrap();
    let got = engine.run(&q).unwrap();
    let want = fresh.run(&q).unwrap();
    assert_eq!(got.records(), want.records(), "stale transform served");
    assert_eq!(got.stats().dataset_epoch, 1);
}
