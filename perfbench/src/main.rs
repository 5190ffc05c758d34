// utk-lint: class=bench
//! The repository benchmark: three workloads measured end to end, and
//! per layer on a separate traced run. See `README.md` beside this
//! package for the workloads, the metrics and what each should move.
//!
//! ```text
//! perfbench --workload <paper_anti|served_explore|update_mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every figure, then one JSON result line. Exits 1
//! when an answer is wrong (after printing), 2 on a usage or I/O error.

mod gate;
mod inputs;
mod measure;
mod paper;
mod report;
mod served;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Outcome;

/// Runtime outputs (scratch datasets, sockets, WALs, span files) live
/// under this directory of the checkout the benchmark runs in.
const WORK_DIR: &str = ".bench_work";

/// The workloads, each with its full-size record count.
const WORKLOADS: [(&str, usize); 3] = [
    ("paper_anti", 400_000),
    ("served_explore", 400_000),
    ("update_mix", 100_000),
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Records in the generated dataset.
    pub n: usize,
    /// Cold starts measured for `setup_s`; the last one serves.
    pub setups: usize,
    /// Corrupt one recorded answer before the gate (self-test only).
    pub tamper: bool,
    pub work: PathBuf,
}

impl Config {
    /// Where a traced run writes its spans.
    pub fn trace_path(&self, workload: &str) -> PathBuf {
        self.work
            .join("traces")
            .join(format!("{workload}-seed{}.jsonl", self.seed))
    }
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        n: 0,
        setups: 9,
        tamper: false,
        work: PathBuf::from(WORK_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.clone(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse::<f64>().map_err(|_| bad())?;
                if !cfg.seconds.is_finite() || cfg.seconds <= 0.0 {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.n = WORKLOADS
        .iter()
        .find(|(name, _)| *name == cfg.workload)
        .map(|(_, n)| *n)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
            format!("--workload must be one of {}", names.join(", "))
        })?;
    Ok(cfg)
}

/// Runs the configured workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    match cfg.workload.as_str() {
        "paper_anti" => paper::run(cfg),
        "served_explore" => served::run(cfg, served::SERVED_EXPLORE),
        "update_mix" => served::run(cfg, served::UPDATE_MIX),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "perfbench: {} seed {} for {}s, trace {}, n = {}, available_parallelism = {threads}, 1 caller",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.n
    );
    match run(&cfg) {
        Ok(outcome) => {
            print!("{}", outcome.table(&cfg.workload));
            println!("{}", outcome.result_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod selftest;
