// utk-lint: class=bench
//! The benchmark's self-test at smoke size: every workload emits every
//! metric `BENCHMARK.json` names, with its unit, answers without
//! errors, and fails its gate when an answer is tampered with.

use std::path::PathBuf;

use utk_server::json::{self, Value};

use crate::report::Metric;
use crate::{run, Config};

fn smoke(workload: &str, trace: bool, tamper: bool) -> Config {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    Config {
        workload: workload.to_string(),
        seed: 11,
        seconds: 0.5,
        trace,
        n: 3_000,
        setups: 2,
        tamper,
        work: root.join(".bench_work").join(format!(
            "selftest-{workload}-{}-{}",
            u8::from(trace),
            u8::from(tamper)
        )),
    }
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let value = json::parse(&text).expect("BENCHMARK.json parses");
    value
        .get(section)
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn names_and_units(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn check(workload: &str) {
    for trace in [false, true] {
        let cfg = smoke(workload, trace, false);
        let outcome = run(&cfg).unwrap();
        assert!(outcome.correct(), "{workload}: {:?}", outcome.mismatches);
        assert!(outcome.e2e.attempted > 0);
        assert_eq!(outcome.e2e.failed, 0, "{workload}: error_rate must be 0");
        let section = if trace { "per_layer" } else { "end_to_end" };
        let metrics = outcome.result_metrics();
        assert_eq!(
            names_and_units(&metrics),
            declared(section),
            "{workload} {section}"
        );
        if !trace {
            assert!(
                metrics.iter().all(|m| m.value > 0.0),
                "{workload}: an end-to-end metric read 0: {metrics:?}"
            );
        }
        let line = outcome.result_line();
        let parsed = json::parse(&line).expect("result line is JSON");
        assert!(parsed.get("correct").and_then(Value::as_bool).unwrap());
        let _ = std::fs::remove_dir_all(&cfg.work);
    }
    let cfg = smoke(workload, false, true);
    let outcome = run(&cfg).unwrap();
    assert!(
        !outcome.correct(),
        "{workload}: a tampered answer passed the gate"
    );
    assert!(outcome.result_line().starts_with(r#"{"correct":false"#));
    let _ = std::fs::remove_dir_all(&cfg.work);
}

#[test]
fn paper_anti_at_smoke_size() {
    check("paper_anti");
}

#[test]
fn served_explore_at_smoke_size() {
    check("served_explore");
}

#[test]
fn update_mix_at_smoke_size() {
    check("update_mix");
}

#[test]
fn args_select_a_workload_and_reject_nonsense() {
    let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
    let cfg = crate::parse_args(&args(
        "--workload update_mix --seed 4 --seconds 3 --trace 1",
    ))
    .unwrap();
    assert_eq!((cfg.n, cfg.seed, cfg.trace), (100_000, 4, true));
    assert_eq!(cfg.seconds, 3.0);
    for bad in [
        "--workload nope",
        "--workload paper_anti --trace 2",
        "--workload paper_anti --seconds 0",
        "--workload paper_anti --seed",
        "--workload paper_anti --frobnicate 1",
    ] {
        assert!(crate::parse_args(&args(bad)).is_err(), "{bad}");
    }
}
