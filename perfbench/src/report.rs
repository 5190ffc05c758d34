// utk-lint: class=bench
//! What a run measured, and how it is printed: a table of every
//! figure for people, then one JSON result line for tools.

use crate::measure::{median, ratio, Samples};
use utk_core::obs::{Phase, PhaseTimings};
use utk_core::stats::Stats;
use utk_server::json::{self, Value};

/// One named figure with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// The end-to-end figures of one run, from raw samples. Latencies are
/// as the caller sees them: query to wire line in process, request to
/// response line through the server.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// One cold start per repetition: engine build, or server bind
    /// plus `load`.
    pub setup_s: Vec<f64>,
    /// Wall-clock length of the timed phase.
    pub elapsed_s: f64,
    /// Of which the caller spent thinking between requests.
    pub think_s: f64,
    pub utk1: Samples,
    pub utk2: Samples,
    pub topk: Samples,
    pub batch: Samples,
    pub update: Samples,
    /// Queries, batch lines and updates sent.
    pub attempted: u64,
    /// Coded errors, `busy` refusals and missing answers.
    pub failed: u64,
    pub peak_rss_mb: f64,
}

impl EndToEnd {
    /// The figures `BENCHMARK.json` lists as end to end, in its order.
    /// Each is non-zero on every workload and repeats across seeds
    /// within its bound.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("setup_s", "s", median(&self.setup_s)),
            metric(
                "queries_per_s",
                "1/s",
                ratio(
                    (self.attempted - self.failed) as f64,
                    self.elapsed_s - self.think_s,
                ),
            ),
            metric("utk1_p50_ms", "ms", self.utk1.quantile(0.5)),
            metric("utk2_p50_ms", "ms", self.utk2.quantile(0.5)),
            metric("peak_rss_mb", "MB", self.peak_rss_mb),
        ]
    }

    /// The end-to-end figures that are printed but not gated: the p90
    /// tails, which moved by more than a quarter between seeds on the
    /// served workloads, the request kinds only some workloads send
    /// (0 where a kind is absent), and the error rate.
    pub fn kind_metrics(&self) -> Vec<Metric> {
        vec![
            metric("utk1_p90_ms", "ms", self.utk1.quantile(0.9)),
            metric("utk2_p90_ms", "ms", self.utk2.quantile(0.9)),
            metric("topk_p50_ms", "ms", self.topk.quantile(0.5)),
            metric("batch_p50_ms", "ms", self.batch.quantile(0.5)),
            metric("update_p50_ms", "ms", self.update.quantile(0.5)),
            metric("update_p90_ms", "ms", self.update.quantile(0.9)),
            metric(
                "error_rate",
                "ratio",
                ratio(self.failed as f64, self.attempted as f64),
            ),
        ]
    }

    /// Sample counts behind each latency figure.
    fn counts(&self) -> String {
        format!(
            "samples: utk1 {}, utk2 {}, topk {}, batch {}, update {}; setups {}",
            self.utk1.len(),
            self.utk2.len(),
            self.topk.len(),
            self.batch.len(),
            self.update.len(),
            self.setup_s.len()
        )
    }
}

/// The engine's work counters for one answered query, from its typed
/// [`Stats`] or from the `stats` object of its wire line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub candidates: u64,
    pub bbs_pops: u64,
    pub rdom_tests: u64,
    pub halfspaces: u64,
    pub cells: u64,
    pub arrangements: u64,
    pub drills: u64,
    pub drill_hits: u64,
    pub peak_arrangement_bytes: u64,
    pub cache_hits: u64,
    pub superset_hits: u64,
    pub cache_bytes: u64,
    pub evictions: u64,
    pub prefix_skips: u64,
    pub kernel_blocks: u64,
    pub prefilter_rejects: u64,
    pub batch_groups: u64,
}

impl Counters {
    pub fn from_stats(s: &Stats) -> Counters {
        Counters {
            candidates: s.candidates as u64,
            bbs_pops: s.bbs_pops as u64,
            rdom_tests: s.rdom_tests as u64,
            halfspaces: s.halfspaces_inserted as u64,
            cells: s.cells_created as u64,
            arrangements: s.arrangements_built as u64,
            drills: s.drills as u64,
            drill_hits: s.drill_hits as u64,
            peak_arrangement_bytes: s.peak_arrangement_bytes as u64,
            cache_hits: s.filter_cache_hits as u64,
            superset_hits: s.superset_hits as u64,
            cache_bytes: s.filter_cache_bytes as u64,
            evictions: s.evictions as u64,
            prefix_skips: s.screen_prefix_skips as u64,
            kernel_blocks: s.kernel_blocks as u64,
            prefilter_rejects: s.prefilter_rejects as u64,
            batch_groups: s.batch_group_count as u64,
        }
    }

    /// The counters of a UTK wire line; `None` for lines without a
    /// `stats` object (top-k results, errors).
    pub fn from_line(line: &str) -> Option<Counters> {
        let value = json::parse(line).ok()?;
        let stats = value.get("stats")?;
        let get = |key: &str| stats.get(key).and_then(Value::as_u64).unwrap_or(0);
        Some(Counters {
            candidates: get("candidates"),
            bbs_pops: get("bbs_pops"),
            rdom_tests: get("rdom_tests"),
            halfspaces: get("halfspaces_inserted"),
            cells: get("cells_created"),
            arrangements: get("arrangements_built"),
            drills: get("drills"),
            drill_hits: get("drill_hits"),
            peak_arrangement_bytes: get("peak_arrangement_bytes"),
            cache_hits: get("filter_cache_hits"),
            superset_hits: get("superset_hits"),
            cache_bytes: get("filter_cache_bytes"),
            evictions: get("evictions"),
            prefix_skips: get("screen_prefix_skips"),
            kernel_blocks: get("kernel_blocks"),
            prefilter_rejects: get("prefilter_rejects"),
            batch_groups: get("batch_group_count"),
        })
    }
}

/// Per-layer sums over the queries of one kind: work counters from the
/// answers, phase times from the engine's tracer.
#[derive(Debug, Clone, Default)]
pub struct KindLayers {
    pub queries: u64,
    pub sums: Counters,
    pub max_cache_bytes: u64,
    /// Queries whose phase times were recorded.
    pub timed: u64,
    pub timings: PhaseTimings,
}

impl KindLayers {
    pub fn add_counters(&mut self, c: &Counters) {
        let s = &mut self.sums;
        self.queries += 1;
        s.candidates += c.candidates;
        s.bbs_pops += c.bbs_pops;
        s.rdom_tests += c.rdom_tests;
        s.halfspaces += c.halfspaces;
        s.cells += c.cells;
        s.arrangements += c.arrangements;
        s.drills += c.drills;
        s.drill_hits += c.drill_hits;
        s.peak_arrangement_bytes += c.peak_arrangement_bytes;
        s.cache_hits += c.cache_hits;
        s.superset_hits += c.superset_hits;
        s.evictions += c.evictions;
        s.prefix_skips += c.prefix_skips;
        s.kernel_blocks += c.kernel_blocks;
        s.prefilter_rejects += c.prefilter_rejects;
        s.batch_groups += c.batch_groups;
        self.max_cache_bytes = self.max_cache_bytes.max(c.cache_bytes);
    }

    pub fn add_timings(&mut self, t: &PhaseTimings) {
        self.timed += 1;
        self.timings.absorb(t);
    }

    /// Mean of a counter sum per query.
    fn per_query(&self, sum: u64) -> f64 {
        ratio(sum as f64, self.queries as f64)
    }

    /// Mean milliseconds of `phase` per timed query.
    fn phase_ms(&self, phase: Phase) -> f64 {
        ratio(self.timings.nanos(phase) as f64 / 1e6, self.timed as f64)
    }

    /// Mean traced engine milliseconds per timed query.
    fn total_ms(&self) -> f64 {
        ratio(self.timings.total_nanos as f64 / 1e6, self.timed as f64)
    }

    /// Share of the traced engine time spent in `phase`.
    fn share(&self, phase: Phase) -> f64 {
        ratio(
            self.timings.nanos(phase) as f64,
            self.timings.total_nanos as f64,
        )
    }
}

/// Every per-layer figure of one traced run. Layers a workload does
/// not exercise stay at 0.
#[derive(Debug, Default)]
pub struct Layers {
    pub csv_parse_ms: Vec<f64>,
    pub engine_build_ms: Vec<f64>,
    pub utk1: KindLayers,
    pub utk2: KindLayers,
    pub topk: KindLayers,
    pub filter_retained: u64,
    pub filter_invalidated: u64,
    pub parse: Samples,
    pub serialize: Samples,
    pub batch_groups: Samples,
    pub server_query_ms: f64,
    pub server_batch_ms: f64,
    pub server_update_ms: f64,
    pub server_wait_ms: f64,
    pub apply_update: Samples,
    pub wal_bytes_per_update: f64,
    pub wal_replay_ms: f64,
    pub index_rebuilds: u64,
    /// Regions whose UTK2 was not asked (see `UTK2_MAX_RECORDS`).
    pub utk2_skipped: u64,
    pub overhead_pct: f64,
    pub spans: usize,
}

impl Layers {
    /// The figures `BENCHMARK.json` lists as per layer, in its order.
    pub fn metrics(&self, e2e: &EndToEnd) -> Vec<Metric> {
        let (u1, u2, tk) = (&self.utk1, &self.utk2, &self.topk);
        let mut out = vec![
            metric("csv.parse_ms", "ms", median(&self.csv_parse_ms)),
            metric("engine.build_ms", "ms", median(&self.engine_build_ms)),
            metric("skyband.filter_ms", "ms", u1.phase_ms(Phase::Filter)),
            metric("rtree.bbs_pops", "count", u1.per_query(u1.sums.bbs_pops)),
            metric(
                "skyband.candidates",
                "count",
                u1.per_query(u1.sums.candidates),
            ),
            metric(
                "skyband.prefix_skips",
                "count",
                u1.per_query(u1.sums.prefix_skips),
            ),
            metric(
                "rdominance.rdom_tests",
                "count",
                u1.per_query(u1.sums.rdom_tests),
            ),
            metric(
                "rdominance.kernel_blocks",
                "count",
                u1.per_query(u1.sums.kernel_blocks),
            ),
            metric(
                "rdominance.prefilter_reject_ratio",
                "ratio",
                ratio(
                    u1.sums.prefilter_rejects as f64,
                    u1.sums.kernel_blocks as f64,
                ),
            ),
            metric("graph.build_ms", "ms", u1.phase_ms(Phase::Graph)),
            metric("utk1.filter_share", "ratio", u1.share(Phase::Filter)),
            metric("rdominance.screen_ms", "ms", u1.phase_ms(Phase::Screen)),
            metric(
                "cache.exact_hit_ratio",
                "ratio",
                u1.per_query(u1.sums.cache_hits),
            ),
            metric(
                "cache.superset_hit_ratio",
                "ratio",
                u1.per_query(u1.sums.superset_hits),
            ),
            metric(
                "cache.evictions",
                "count",
                (u1.sums.evictions + u2.sums.evictions) as f64,
            ),
            metric(
                "cache.bytes",
                "bytes",
                u1.max_cache_bytes.max(u2.max_cache_bytes) as f64,
            ),
            metric(
                "cache.retained_ratio",
                "ratio",
                ratio(
                    self.filter_retained as f64,
                    (self.filter_retained + self.filter_invalidated) as f64,
                ),
            ),
            metric("drill.ms", "ms", u2.phase_ms(Phase::Drill)),
            metric("drill.count", "count", u2.per_query(u2.sums.drills)),
            metric(
                "drill.hit_ratio",
                "ratio",
                ratio(u2.sums.drill_hits as f64, u2.sums.drills as f64),
            ),
            metric("arrangement.ms", "ms", u2.phase_ms(Phase::Arrange)),
            metric(
                "arrangement.halfspaces",
                "count",
                u2.per_query(u2.sums.halfspaces),
            ),
            metric("arrangement.cells", "count", u2.per_query(u2.sums.cells)),
            metric(
                "arrangement.built",
                "count",
                u2.per_query(u2.sums.arrangements),
            ),
            metric(
                "arrangement.peak_kb",
                "KB",
                u2.per_query(u2.sums.peak_arrangement_bytes) / 1024.0,
            ),
            metric("utk2.arrange_share", "ratio", u2.share(Phase::Arrange)),
            metric(
                "utk2.skipped_ratio",
                "ratio",
                ratio(
                    self.utk2_skipped as f64,
                    (u2.queries + self.utk2_skipped) as f64,
                ),
            ),
            metric(
                "topk.engine_ms",
                "ms",
                tk.total_ms() - tk.phase_ms(Phase::Serialize),
            ),
            metric("spec.parse_ms", "ms", self.parse.mean()),
            metric("wire.serialize_ms", "ms", self.serialize.mean()),
            metric(
                "parallel.groups_per_batch",
                "count",
                self.batch_groups.mean(),
            ),
            metric("server.batch_ms", "ms", self.server_batch_ms),
            metric("server.query_ms", "ms", self.server_query_ms),
            metric("server.update_ms", "ms", self.server_update_ms),
            metric("server.wait_ms", "ms", self.server_wait_ms),
            metric("update.engine_apply_ms", "ms", self.apply_update.mean()),
            metric("wal.bytes_per_update", "bytes", self.wal_bytes_per_update),
            metric("wal.replay_ms", "ms", self.wal_replay_ms),
            metric("engine.index_rebuilds", "count", self.index_rebuilds as f64),
        ];
        out.extend(e2e.kind_metrics());
        out.push(metric("trace.overhead_pct", "%", self.overhead_pct));
        out.push(metric("trace.spans", "count", self.spans as f64));
        out
    }
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: EndToEnd,
    /// Present on traced runs only.
    pub layers: Option<Layers>,
    /// Correctness-gate and durability mismatches, one line each.
    pub mismatches: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// The metrics of the result line: end to end untraced, per layer
    /// traced.
    pub fn result_metrics(&self) -> Vec<Metric> {
        match &self.layers {
            Some(layers) => layers.metrics(&self.e2e),
            None => self.e2e.metrics(),
        }
    }

    /// The machine-readable result: the last line the benchmark prints.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .result_metrics()
            .iter()
            .map(|m| {
                format!(
                    r#""{}":{{"value":{},"unit":"{}"}}"#,
                    m.name,
                    finite(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.e2e.attempted.max(1),
            self.e2e.failed,
            metrics.join(",")
        )
    }

    /// The human-readable table printed before the result line.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!("# {workload}: {}\n", self.e2e.counts());
        let rows = match &self.layers {
            Some(layers) => layers.metrics(&self.e2e),
            None => [self.e2e.metrics(), self.e2e.kind_metrics()].concat(),
        };
        for m in rows {
            out.push_str(&format!("{:<36} {:>14.4} {}\n", m.name, m.value, m.unit));
        }
        for m in &self.mismatches {
            out.push_str(&format!("MISMATCH {m}\n"));
        }
        out
    }
}

/// JSON has no NaN or infinity; a figure that is not finite prints 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}
