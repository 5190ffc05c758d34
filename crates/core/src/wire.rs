//! The `utk` JSON wire format, shared by the CLI's `--json` output,
//! its `batch` mode, the `utk-server` serving protocol, and the test
//! suite. (It lives in `utk-core` so the server crate can reuse it
//! without a circular dependency; the `utk` facade re-exports it as
//! `utk::wire`.)
//!
//! One query → one JSON object on one line. Determinism contract for
//! a fixed engine and query, across runs and thread interleavings:
//!
//! * **records, cells and ranking are always byte-identical** — no
//!   parallel driver leaks scheduling into results;
//! * the **stats object is byte-identical for sequential queries and
//!   for parallel JAA** (its task model makes every work counter a
//!   pure function of the query), which is what lets the determinism
//!   tests compare concurrent parallel-JAA outputs whole-line;
//! * parallel **RSA** work counters (`rdom_tests`, `drills`, …) may
//!   vary run-to-run: workers skip candidates a sibling already
//!   confirmed, so how much verification work happens is
//!   scheduling-dependent (the confirmed set never is).
//!
//! `Stats::stolen_tasks` is scheduling-dependent on every parallel
//! query and is deliberately *not* part of the format, and neither is
//! `Stats::dataset_epoch`: it counts an *engine's* mutation history,
//! so a mutated engine and a fresh build of the same dataset — which
//! the dynamic test suite requires to be wire-byte-identical — would
//! differ on it while agreeing on everything the query actually
//! computed. `Stats::timings` (the per-phase wall-clock breakdown from
//! `utk_core::obs`) is excluded for the same reason: durations depend
//! on hardware and scheduling, so timings **never** enter the wire
//! format — they surface only through the server's `metrics` op and
//! the slow-query log, which sit outside the determinism contract.

use crate::engine::{Algo, QueryResult, TopKResult, UpdateReport};
use crate::jaa::Utk2Result;
use crate::rsa::Utk1Result;
use crate::stats::Stats;

/// Escapes a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A JSON array of floats (shortest round-trip formatting).
pub fn floats(vals: &[f64]) -> String {
    let parts: Vec<String> = vals.iter().map(|v| format!("{v}")).collect();
    format!("[{}]", parts.join(","))
}

/// A JSON array of `{"id":…,"name":…}` objects; `name` resolves a
/// record id to its display name (e.g. the CSV label column).
pub fn record_list(ids: &[u32], name: &dyn Fn(u32) -> String) -> String {
    let parts: Vec<String> = ids
        .iter()
        .map(|&id| format!(r#"{{"id":{id},"name":"{}"}}"#, escape(&name(id))))
        .collect();
    format!("[{}]", parts.join(","))
}

/// The stats object of the wire format. Deterministic counters only:
/// `stolen_tasks` depends on scheduling and is excluded by design.
/// The cache observability fields (`superset_hits`,
/// `filter_cache_bytes`, `evictions`, `screen_prefix_skips`) are
/// deterministic for a fixed engine history — on a shared engine they
/// reflect cache state at query time, which is why the determinism
/// suite warms the cache before comparing lines.
pub fn stats_json(stats: &Stats) -> String {
    format!(
        concat!(
            r#"{{"candidates":{},"bbs_pops":{},"rdom_tests":{},"halfspaces_inserted":{},"#,
            r#""lp_solves":{},"lp_rows":{},"#,
            r#""cells_created":{},"arrangements_built":{},"drills":{},"drill_hits":{},"#,
            r#""peak_arrangement_bytes":{},"kspr_calls":{},"filter_cache_hits":{},"#,
            r#""superset_hits":{},"filter_cache_bytes":{},"evictions":{},"#,
            r#""screen_prefix_skips":{},"kernel_blocks":{},"#,
            r#""pool_threads":{},"batch_group_count":{}}}"#
        ),
        stats.candidates,
        stats.bbs_pops,
        stats.rdom_tests,
        stats.halfspaces_inserted,
        stats.lp_solves,
        stats.lp_rows,
        stats.cells_created,
        stats.arrangements_built,
        stats.drills,
        stats.drill_hits,
        stats.peak_arrangement_bytes,
        stats.kspr_calls,
        stats.filter_cache_hits,
        stats.superset_hits,
        stats.filter_cache_bytes,
        stats.evictions,
        stats.screen_prefix_skips,
        stats.kernel_blocks,
        stats.pool_threads,
        stats.batch_group_count,
    )
}

/// The UTK1 wire object.
pub fn utk1_json(
    k: usize,
    algo: Algo,
    n: usize,
    d: usize,
    res: &Utk1Result,
    name: &dyn Fn(u32) -> String,
) -> String {
    format!(
        r#"{{"query":"utk1","k":{k},"algo":"{}","n":{n},"d":{d},"records":{},"stats":{}}}"#,
        algo.label(),
        record_list(&res.records, name),
        stats_json(&res.stats),
    )
}

/// The UTK2 wire object: cells in the engine's deterministic
/// depth-first order.
pub fn utk2_json(
    k: usize,
    algo: Algo,
    n: usize,
    d: usize,
    res: &Utk2Result,
    name: &dyn Fn(u32) -> String,
) -> String {
    let cells: Vec<String> = res
        .cells
        .iter()
        .map(|cell| {
            let ids: Vec<String> = cell.top_k.iter().map(|id| id.to_string()).collect();
            let names: Vec<String> = cell
                .top_k
                .iter()
                .map(|&id| format!("\"{}\"", escape(&name(id))))
                .collect();
            format!(
                r#"{{"interior":{},"top_k":[{}],"names":[{}]}}"#,
                floats(&cell.interior),
                ids.join(","),
                names.join(",")
            )
        })
        .collect();
    format!(
        concat!(
            r#"{{"query":"utk2","k":{},"algo":"{}","n":{},"d":{},"#,
            r#""partitions":{},"distinct_sets":{},"records":{},"cells":[{}],"stats":{}}}"#
        ),
        k,
        algo.label(),
        n,
        d,
        res.num_partitions(),
        res.num_distinct_sets(),
        record_list(&res.records, name),
        cells.join(","),
        stats_json(&res.stats),
    )
}

/// The plain top-k wire object (ranked records).
pub fn topk_json(
    k: usize,
    weights: &[f64],
    res: &TopKResult,
    name: &dyn Fn(u32) -> String,
) -> String {
    let ranked: Vec<String> = res
        .records
        .iter()
        .enumerate()
        .map(|(rank, &id)| {
            format!(
                r#"{{"rank":{},"id":{id},"name":"{}"}}"#,
                rank + 1,
                escape(&name(id))
            )
        })
        .collect();
    format!(
        r#"{{"query":"topk","k":{k},"weights":{},"ranking":[{}]}}"#,
        floats(weights),
        ranked.join(",")
    )
}

/// The wire object of one applied dataset mutation (`utk batch
/// --mutations` replay lines; the serving protocol wraps the same
/// fields in its `{"ok":"update",…}` envelope).
pub fn update_json(report: &UpdateReport) -> String {
    format!(
        concat!(
            r#"{{"update":{{"epoch":{},"n":{},"inserted":{},"deleted":{},"#,
            r#""filter_invalidated":{},"filter_retained":{},"index_rebuilt":{}}}}}"#
        ),
        report.epoch,
        report.n,
        report.inserted,
        report.deleted,
        report.filter_invalidated,
        report.filter_retained,
        report.index_rebuilt,
    )
}

/// The error wire object (a failed query in a `batch` run, or a CLI
/// usage error under `--json`).
pub fn error_json(message: &str) -> String {
    format!(r#"{{"error":"{}"}}"#, escape(message))
}

/// The coded error wire object used by the serving protocol for
/// errors that are *not* per-query failures (admission rejections,
/// malformed requests, unknown datasets, …). The `code` field lets
/// clients branch without parsing prose; per-query failures keep the
/// plain [`error_json`] shape so server `batch` output stays
/// byte-identical to `utk batch`.
pub fn coded_error_json(code: &str, message: &str) -> String {
    format!(
        r#"{{"error":"{}","code":"{}"}}"#,
        escape(message),
        escape(code)
    )
}

/// Serializes any [`QueryResult`] with the metadata the wire format
/// carries. `weights` is required only for top-k results.
pub fn result_json(
    result: &QueryResult,
    k: usize,
    algo: Algo,
    n: usize,
    d: usize,
    weights: &[f64],
    name: &dyn Fn(u32) -> String,
) -> String {
    match result {
        QueryResult::Utk1(r) => utk1_json(k, algo, n, d, r, name),
        QueryResult::Utk2(r) => utk2_json(k, algo, n, d, r, name),
        QueryResult::TopK(r) => topk_json(k, weights, r, name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn coded_errors_extend_the_plain_shape() {
        assert_eq!(
            coded_error_json("busy", "at capacity"),
            r#"{"error":"at capacity","code":"busy"}"#
        );
        // The plain shape stays exactly what `utk batch` emits.
        assert_eq!(error_json("boom"), r#"{"error":"boom"}"#);
    }

    #[test]
    fn stats_json_omits_stolen_tasks_and_dataset_epoch() {
        let mut stats = Stats::new();
        stats.stolen_tasks = 99;
        stats.pool_threads = 4;
        stats.dataset_epoch = 7;
        let json = stats_json(&stats);
        assert!(!json.contains("stolen"), "{json}");
        assert!(!json.contains("epoch"), "{json}");
        assert!(json.contains(r#""pool_threads":4"#), "{json}");
    }

    #[test]
    fn update_json_carries_the_report() {
        let report = UpdateReport {
            epoch: 3,
            n: 42,
            inserted: 2,
            deleted: 1,
            filter_invalidated: 1,
            filter_retained: 4,
            filter_repaired: 0,
            index_rebuilt: false,
        };
        assert_eq!(
            update_json(&report),
            r#"{"update":{"epoch":3,"n":42,"inserted":2,"deleted":1,"filter_invalidated":1,"filter_retained":4,"index_rebuilt":false}}"#
        );
    }

    #[test]
    fn stats_json_omits_timings() {
        use crate::obs::Phase;
        let mut stats = Stats::new();
        stats.timings.record(Phase::Filter, 123_456);
        stats.timings.total_nanos = 999_999;
        let json = stats_json(&stats);
        assert!(!json.contains("nanos"), "{json}");
        assert!(!json.contains("timing"), "{json}");
        // Same bytes as an untimed run: timings never enter the wire.
        assert_eq!(json, stats_json(&Stats::new()));
    }

    #[test]
    fn stats_json_carries_cache_observability() {
        let mut stats = Stats::new();
        stats.superset_hits = 1;
        stats.filter_cache_bytes = 4096;
        stats.evictions = 2;
        stats.screen_prefix_skips = 7;
        let json = stats_json(&stats);
        for frag in [
            r#""superset_hits":1"#,
            r#""filter_cache_bytes":4096"#,
            r#""evictions":2"#,
            r#""screen_prefix_skips":7"#,
        ] {
            assert!(json.contains(frag), "missing {frag} in {json}");
        }
    }

    #[test]
    fn stats_json_carries_kernel_counters() {
        let mut stats = Stats::new();
        stats.kernel_blocks = 12;
        stats.lp_solves = 9;
        stats.lp_rows = 31;
        let json = stats_json(&stats);
        for frag in [
            r#""kernel_blocks":12"#,
            r#""lp_solves":9"#,
            r#""lp_rows":31"#,
        ] {
            assert!(json.contains(frag), "missing {frag} in {json}");
        }
        assert!(
            !json.contains("prefilter"),
            "retired counter on the wire: {json}"
        );
    }
}
