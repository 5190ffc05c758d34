//! Experiment harness for the UTK paper's evaluation (§7).
//!
//! Each `figureNN` binary regenerates one figure of the paper; the
//! `report` binary runs the whole battery and emits Markdown tables
//! (the source of `EXPERIMENTS.md`). Shared here: configuration
//! (paper-scale vs scaled-down), query-workload execution, timing and
//! table formatting.
//!
//! All measurements follow the paper's §7 protocol: each data point
//! averages a batch of UTK queries over random hyper-cube regions of
//! side σ (Table 1 defaults in bold: n = 400K, d = 4, k = 10,
//! σ = 1%, 50 queries). `--paper` runs the original sizes; default is
//! a scaled-down workload with identical shape that completes on a
//! laptop in minutes.

#![warn(missing_docs)]
// The 2026 unsafe audit found zero unsafe blocks workspace-wide;
// keep it that way. Any future unsafe must demote this to deny,
// carry a `// SAFETY:` comment (utk-lint enforces it), and say why
// no safe formulation works.
#![forbid(unsafe_code)]

pub mod figures;

use std::time::{Duration, Instant};
use utk_core::engine::{Algo, QueryResult, UtkQuery};
use utk_core::prelude::*;
use utk_core::stats::Stats;
use utk_data::queries::{random_regions, QueryBox};
use utk_geom::Region;

/// Table 1 of the paper: tested parameter values, defaults in bold.
pub const PAPER_N: [usize; 5] = [100_000, 200_000, 400_000, 800_000, 1_600_000];
/// Default cardinality (bold in Table 1).
pub const PAPER_N_DEFAULT: usize = 400_000;
/// Tested dimensionalities.
pub const PAPER_D: [usize; 6] = [2, 3, 4, 5, 6, 7];
/// Default dimensionality.
pub const PAPER_D_DEFAULT: usize = 4;
/// Tested k values.
pub const PAPER_K: [usize; 6] = [1, 5, 10, 20, 50, 100];
/// Default k.
pub const PAPER_K_DEFAULT: usize = 10;
/// Tested σ values (fraction of the axis).
pub const PAPER_SIGMA: [f64; 5] = [0.001, 0.005, 0.01, 0.05, 0.1];
/// Default σ.
pub const PAPER_SIGMA_DEFAULT: f64 = 0.01;
/// Queries averaged per measurement.
pub const PAPER_QUERIES: usize = 50;

/// Harness configuration parsed from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// Cardinality multiplier applied to every dataset (1.0 = paper).
    pub scale: f64,
    /// Number of random query boxes averaged per measurement.
    pub queries: usize,
    /// Workload seed.
    pub seed: u64,
    /// True when `--paper` was passed (full Table 1 grid).
    pub paper: bool,
    /// Positional arguments (e.g. the sub-figure letter).
    pub positional: Vec<String>,
}

impl Config {
    /// Parses `argv[1..]`: positionals plus `--paper`,
    /// `--scale <f>`, `--queries <n>`, `--seed <n>`.
    pub fn from_args() -> Config {
        let mut cfg = Config {
            scale: 0.05,
            queries: 5,
            seed: 2018,
            paper: false,
            positional: Vec::new(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--paper" => {
                    cfg.paper = true;
                    cfg.scale = 1.0;
                    cfg.queries = PAPER_QUERIES;
                }
                "--scale" => {
                    cfg.scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--scale needs a float");
                }
                "--queries" => {
                    cfg.queries = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--queries needs an integer");
                }
                "--seed" => {
                    cfg.seed = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--seed needs an integer");
                }
                other => cfg.positional.push(other.to_string()),
            }
        }
        cfg
    }

    /// Scales a paper cardinality, keeping at least 1 000 records.
    pub fn n(&self, paper_n: usize) -> usize {
        ((paper_n as f64 * self.scale) as usize).max(1_000)
    }

    /// The k sweep, truncated in scaled-down mode (large k against
    /// full baselines is a paper-scale exercise).
    pub fn k_values(&self) -> Vec<usize> {
        if self.paper {
            PAPER_K.to_vec()
        } else {
            vec![1, 5, 10, 20]
        }
    }
}

/// One measured data point: mean wall-clock plus averaged counters.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    /// Mean wall-clock seconds per query.
    pub seconds: f64,
    /// Mean primary output size (records for UTK1, partitions for
    /// UTK2).
    pub output_size: f64,
    /// Aggregated counters over the batch.
    pub stats: Stats,
}

/// Runs `f` once per query region and averages.
pub fn run_batch<F>(regions: &[QueryBox], mut f: F) -> Measurement
where
    F: FnMut(&Region) -> (usize, Stats),
{
    let mut total = Duration::ZERO;
    let mut out_sum = 0usize;
    let mut stats = Stats::new();
    for qb in regions {
        let region = Region::hyperrect(qb.lo.clone(), qb.hi.clone());
        let t0 = Instant::now();
        let (out, s) = f(&region);
        total += t0.elapsed();
        out_sum += out;
        stats.absorb(&s);
    }
    let n = regions.len().max(1) as f64;
    Measurement {
        seconds: total.as_secs_f64() / n,
        output_size: out_sum as f64 / n,
        stats,
    }
}

/// Convenience: random query boxes for `d`-dimensional data.
pub fn query_workload(d: usize, sigma: f64, cfg: &Config) -> Vec<QueryBox> {
    random_regions(d - 1, sigma, cfg.queries, cfg.seed)
}

/// The four measured pipelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// RSA (UTK1).
    Rsa,
    /// JAA (UTK2).
    Jaa,
    /// Baseline SK, UTK1 or UTK2 mode per the experiment.
    SkUtk1,
    /// Baseline ON.
    OnUtk1,
    /// Baseline SK in UTK2 mode.
    SkUtk2,
    /// Baseline ON in UTK2 mode.
    OnUtk2,
}

impl Method {
    /// Figure label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Rsa => "RSA",
            Method::Jaa => "JAA",
            Method::SkUtk1 | Method::SkUtk2 => "SK",
            Method::OnUtk1 | Method::OnUtk2 => "ON",
        }
    }

    /// Runs the method through `engine`, returning `(primary output
    /// size, stats)`.
    ///
    /// Build measurement engines with [`bench_engine`] (filter cache
    /// disabled) so every query pays its full per-query cost, as the
    /// paper's protocol assumes.
    pub fn run(self, engine: &UtkEngine, region: &Region, k: usize) -> (usize, Stats) {
        let query = |algo: Algo| UtkQuery::utk1(k).region(region.clone()).algorithm(algo);
        match self {
            Method::Rsa => {
                let Ok(QueryResult::Utk1(r)) = engine.run(&query(Algo::Rsa)) else {
                    panic!("RSA benchmark query failed");
                };
                (r.records.len(), r.stats)
            }
            Method::Jaa => {
                let r = engine.utk2(region, k).expect("JAA benchmark query failed");
                // The paper's UTK2 output-size metric: the number of
                // different top-k sets.
                (r.num_distinct_sets(), r.stats)
            }
            Method::SkUtk1 => {
                let Ok(QueryResult::Utk1(r)) = engine.run(&query(Algo::Sk)) else {
                    panic!("SK benchmark query failed");
                };
                (r.records.len(), r.stats)
            }
            Method::OnUtk1 => {
                let Ok(QueryResult::Utk1(r)) = engine.run(&query(Algo::On)) else {
                    panic!("ON benchmark query failed");
                };
                (r.records.len(), r.stats)
            }
            // The baselines' UTK2 mode (kSPR run to completion) has no
            // engine counterpart — it answers with witness regions,
            // not a partitioning — so it runs off the engine's
            // substrate directly.
            Method::SkUtk2 => {
                let snap = engine.snapshot();
                let r = baseline_utk2(snap.store(), snap.tree(), region, k, FilterKind::Skyband);
                (r.total_regions(), r.stats)
            }
            Method::OnUtk2 => {
                let snap = engine.snapshot();
                let r = baseline_utk2(snap.store(), snap.tree(), region, k, FilterKind::Onion);
                (r.total_regions(), r.stats)
            }
        }
    }
}

/// An engine for measurements: owns the dataset and its R-tree, with
/// the filter cache disabled so repeated `(k, R)` queries — e.g. the
/// same workload across methods — each pay their full cost.
pub fn bench_engine(points: Vec<Vec<f64>>) -> UtkEngine {
    UtkEngine::new(points)
        .expect("benchmark dataset must be valid")
        .without_filter_cache()
}

/// Markdown/console table writer used by every figure binary.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (stringified cells).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders as a Markdown table.
    pub fn to_markdown(&self) -> String {
        let mut w: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = w[i]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = fmt_row(&self.headers);
        out.push('\n');
        let sep: Vec<String> = w.iter().map(|&wi| "-".repeat(wi)).collect();
        out.push_str(&format!("| {} |\n", sep.join(" | ")));
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Prints to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }
}

/// The core budget the container grants, warning on stderr when it is
/// a single core — parallel and batch speedup figures measured there
/// say nothing about the algorithms. Every `BENCH_*.json` records the
/// returned value (key `available_parallelism`) so a reader can judge
/// the numbers without knowing the machine they came from.
pub fn recorded_parallelism() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    if cores <= 1 {
        eprintln!(
            "warning: available_parallelism = 1 — parallel/batch speedups cannot \
             materialize on this machine; treat throughput figures as single-core"
        );
    }
    cores
}

/// Formats seconds with sensible precision.
pub fn secs(s: f64) -> String {
    if s >= 100.0 {
        format!("{s:.0}")
    } else if s >= 1.0 {
        format!("{s:.2}")
    } else {
        format!("{:.2}ms", s * 1000.0)
    }
}

/// Formats a float count.
pub fn count(c: f64) -> String {
    if c >= 100.0 {
        format!("{c:.0}")
    } else {
        format!("{c:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(vec!["k", "RSA", "SK"]);
        t.row(vec!["1", "0.5", "12.0"]);
        let md = t.to_markdown();
        assert!(md.contains("| k | RSA |"));
        assert!(md.lines().count() == 3);
    }

    #[test]
    fn batch_runs_every_region() {
        let regions = random_regions(2, 0.05, 3, 1);
        let mut calls = 0;
        let m = run_batch(&regions, |_| {
            calls += 1;
            (calls, Stats::new())
        });
        assert_eq!(calls, 3);
        assert!((m.output_size - 2.0).abs() < 1e-9);
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(secs(0.0123), "12.30ms");
        assert_eq!(secs(7.256), "7.26");
        assert_eq!(secs(250.0), "250");
    }
}
