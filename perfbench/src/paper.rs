// utk-lint: class=bench
//! `paper_anti`: the paper's default point (§7, Table 1) on an
//! in-process engine. ANTI data, n = 400,000, d = 4, k = 10, σ = 1%;
//! every region is new, and each is answered as UTK1 and then UTK2
//! (see [`UTK2_MAX_RECORDS`]), from query line to wire line.

use std::hint::black_box;
use std::time::Instant;

use utk_core::engine::{QueryResult, UtkEngine};
use utk_core::wire;
use utk_data::csv::parse_csv;
use utk_data::synthetic::Distribution;
use utk_server::spec;

use crate::gate::{check_regions, RegionAnswer};
use crate::inputs::{dataset_csv, utk_line, QBox, Rng, D, UTK2_MAX_RECORDS};
use crate::measure::{ms, peak_rss_mb, Samples, Tracer};
use crate::report::{Counters, Layers, Outcome};
use crate::Config;

/// Side of every query box, as a fraction of the axis.
const SIGMA: f64 = 0.01;

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut layers = Layers::default();

    // Input preparation: not part of set-up.
    let text = dataset_csv(Distribution::Anti, cfg.n, cfg.seed);
    let t = Instant::now();
    let data = parse_csv(&text, "anti").map_err(|e| e.to_string())?;
    layers.csv_parse_ms.push(ms(t.elapsed()));
    drop(text);

    // Set-up: a cold engine build, repeated; the last one serves.
    let mut engine = None;
    for _ in 0..cfg.setups {
        let points = data.dataset.points.clone();
        drop(engine.take());
        let t = Instant::now();
        let built = UtkEngine::new(points).map_err(|e| e.to_string())?;
        let took = t.elapsed();
        out.e2e.setup_s.push(took.as_secs_f64());
        layers.engine_build_ms.push(ms(took));
        engine = Some(built);
    }
    let engine = engine.ok_or("no set-up repetitions")?;

    // One untimed region first, so lazy initialisation is not timed.
    let mut warm = Rng::new(cfg.seed ^ 1);
    let warm_region = QBox::random(&mut warm, SIGMA);
    for kind in ["utk1", "utk2"] {
        let line = utk_line(kind, &warm_region);
        black_box(spec::answer_query_line(&engine, &data, &line));
    }

    let mut rng = Rng::new(cfg.seed);
    let mut tracer = Tracer::new(cfg.trace);
    let mut regions: Vec<RegionAnswer> = Vec::new();
    let (mut traced_utk1, mut plain_utk1) = (Samples::default(), Samples::default());
    let mut request = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        let region = QBox::random(&mut rng, SIGMA);
        // Traced runs alternate traced and untraced regions, so the
        // tracer's own cost shows as a difference within the run.
        let traced = cfg.trace && out.e2e.utk1.len() % 2 == 0;
        tracer.set_enabled(traced);
        let mut answer = RegionAnswer::default();
        for kind in ["utk1", "utk2"] {
            if kind == "utk2" && (answer.utk1.is_empty() || answer.utk1.len() > UTK2_MAX_RECORDS) {
                layers.utk2_skipped += 1;
                break;
            }
            request += 1;
            out.e2e.attempted += 1;
            let line = utk_line(kind, &region);
            let t0 = Instant::now();
            tracer.open("query", kind, request);
            let (rendered, result) = answer_line(&engine, &data, &line, &mut tracer, kind, request);
            tracer.close();
            let took = ms(t0.elapsed());
            black_box(&rendered);

            let Some(result) = result else {
                out.e2e.failed += 1;
                continue;
            };
            let counters = Counters::from_stats(result.stats());
            if kind == "utk1" {
                out.e2e.utk1.push(took);
                if traced {
                    traced_utk1.push(took);
                } else {
                    plain_utk1.push(took);
                }
                layers.utk1.add_counters(&counters);
                layers.utk1.add_timings(&result.stats().timings);
                answer.utk1 = result.records().to_vec();
                answer.utk1.sort_unstable();
            } else {
                out.e2e.utk2.push(took);
                layers.utk2.add_counters(&counters);
                layers.utk2.add_timings(&result.stats().timings);
                answer.utk2 = result.records().to_vec();
                let mut union: Vec<u32> = result
                    .cells()
                    .unwrap_or_default()
                    .iter()
                    .flat_map(|c| c.top_k.iter().copied())
                    .collect();
                union.sort_unstable();
                union.dedup();
                answer.cells_union = union;
                regions.push(std::mem::take(&mut answer));
            }
        }
    }
    out.e2e.elapsed_s = start.elapsed().as_secs_f64();
    out.e2e.peak_rss_mb = peak_rss_mb();

    if cfg.tamper {
        if let Some(first) = regions.first_mut() {
            first.utk1.push(u32::MAX);
        }
    }
    out.mismatches = check_regions(&regions);

    if cfg.trace {
        layers.parse = tracer.self_ms("parse", "utk2");
        layers.serialize = tracer.self_ms("serialize", "utk2");
        layers.overhead_pct = overhead_pct(&traced_utk1, &plain_utk1);
        layers.spans = tracer.len();
        tracer
            .write_jsonl(&cfg.trace_path("paper_anti"))
            .map_err(|e| format!("writing spans: {e}"))?;
        out.layers = Some(layers);
    }
    Ok(out)
}

/// Parses, runs and serializes one query line, as `spec` and `wire`
/// do for `utk batch`, keeping the typed result for the gate.
fn answer_line(
    engine: &UtkEngine,
    data: &utk_data::csv::CsvData,
    line: &str,
    tracer: &mut Tracer,
    kind: &'static str,
    request: u64,
) -> (String, Option<QueryResult>) {
    let prepared = match tracer.time("parse", kind, request, || spec::parse_query_line(line, D)) {
        Ok(p) => p,
        Err(e) => return (wire::error_json(&e), None),
    };
    let result = match tracer.time("run", kind, request, || engine.run(&prepared.query)) {
        Ok(r) => r,
        Err(e) => return (wire::error_json(&e.to_string()), None),
    };
    let rendered = tracer.time("serialize", kind, request, || {
        wire::result_json(
            &result,
            prepared.k,
            prepared.algo.resolved_for(prepared.kind),
            data.dataset.len(),
            data.dataset.dim(),
            &prepared.weights,
            &|id| data.name(id),
        )
    });
    (rendered, Some(result))
}

/// How much slower the traced half of a run was, in percent of the
/// untraced half's median UTK1 latency.
pub fn overhead_pct(traced: &Samples, plain: &Samples) -> f64 {
    let base = plain.quantile(0.5);
    if base == 0.0 {
        return 0.0;
    }
    (traced.quantile(0.5) - base) / base * 100.0
}
