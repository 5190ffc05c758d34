//! The textual query-line syntax shared by `utk batch` files, the
//! `utk` command line, and the serving protocol's `query`/`batch`
//! ops — one parser, so a query means the same thing everywhere and
//! server output stays **byte-identical** to `utk batch`.
//!
//! ```text
//! utk1 --k <n> <REGION> [--algo <a>] [--lp <p>] [--parallel]
//! utk2 --k <n> <REGION> [--algo <a>] [--lp <p>] [--parallel]
//! topk --k <n> --weights w1,..,wd [--lp <p>]
//! REGION := --lo a,b,.. --hi a,b,..  |  --center a,b,.. --width w
//! ```
//!
//! This module moved out of `src/bin/utk.rs` (which now calls it) so
//! the server crate can parse the same lines without shelling out.
//! Error message wording is part of the wire contract — `utk batch`
//! tests assert on it — so change it deliberately.

use std::sync::Arc;

use utk_core::engine::{Algo, QueryKind, QueryResult, UtkEngine, UtkQuery};
use utk_core::error::UtkError;
use utk_core::obs::{Clock, Phase, PhaseTimings};
use utk_core::scoring::GeneralScoring;
use utk_core::wire;
use utk_data::csv::CsvData;
use utk_geom::{Constraint, Region};

/// Flags that take no value.
pub const BOOL_FLAGS: &[&str] = &["json", "parallel"];
/// Flags that consume the next token as their value (the full CLI
/// vocabulary; each command allows a subset).
pub const VALUE_FLAGS: &[&str] = &[
    "data",
    "k",
    "lo",
    "hi",
    "center",
    "width",
    "weights",
    "lp",
    "algo",
    "threads",
    "dist",
    "n",
    "d",
    "seed",
    "file",
    "cache-budget",
    "datasets",
    "socket",
    "port",
    "max-connections",
    "max-inflight",
    "dataset",
    "op",
    "mutations",
    "insert",
    "delete",
    "labels",
    "wal",
    "wal-dir",
    "wal-compact-every",
    "slow-query-ms",
    "slow-query-log",
    "slow-query-log-max-bytes",
    "format",
    "bench-dir",
    "out",
];

/// The flags one query line of a `batch` file (or a server
/// `query`/`batch` op) may carry — per-query settings only: data,
/// output mode and pool size are batch-level.
pub fn query_line_flags(command: &str) -> Option<&'static [&'static str]> {
    match command {
        "utk1" | "utk2" => Some(&["k", "lo", "hi", "center", "width", "lp", "algo", "parallel"]),
        "topk" => Some(&["k", "weights", "lp"]),
        _ => None,
    }
}

/// A parsed token stream: the command plus its `--flag value` pairs.
#[derive(Debug, Clone)]
pub struct ParsedArgs {
    flags: Vec<(String, String)>,
    /// The leading command token.
    pub command: String,
}

impl ParsedArgs {
    /// Parses one token stream against an allow-list (shared by the
    /// command line proper and each line of a `batch` file),
    /// reporting exactly which token was malformed.
    pub fn from_tokens(
        command: String,
        allowed: &[&str],
        mut it: impl Iterator<Item = String>,
    ) -> Result<ParsedArgs, String> {
        let mut flags = Vec::new();
        while let Some(f) = it.next() {
            let Some(key) = f.strip_prefix("--") else {
                return Err(format!(
                    "expected a --flag, found {f:?} (values belong directly after their flag)"
                ));
            };
            if !BOOL_FLAGS.contains(&key) && !VALUE_FLAGS.contains(&key) {
                return Err(format!("unknown flag --{key}"));
            }
            if !allowed.contains(&key) {
                return Err(format!("flag --{key} does not apply to `{command}`"));
            }
            if BOOL_FLAGS.contains(&key) {
                flags.push((key.to_string(), "true".to_string()));
                continue;
            }
            let Some(val) = it.next() else {
                return Err(format!("flag --{key} is missing its value"));
            };
            flags.push((key.to_string(), val));
        }
        Ok(ParsedArgs { flags, command })
    }

    /// The value of `--key`, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether `--key` was passed.
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    /// The comma-separated float list of `--key`, if present.
    pub fn floats(&self, key: &str) -> Result<Option<Vec<f64>>, String> {
        let Some(raw) = self.get(key) else {
            return Ok(None);
        };
        raw.split(',')
            .map(|v| {
                v.trim()
                    .parse()
                    .map_err(|_| format!("--{key}: {v:?} is not a number"))
            })
            .collect::<Result<Vec<f64>, String>>()
            .map(Some)
    }
}

/// Builds the box region, reporting malformed bounds as errors —
/// `Region::hyperrect` would panic on them.
fn checked_box(lo: Vec<f64>, hi: Vec<f64>) -> Result<Region, String> {
    if lo.iter().chain(&hi).any(|v| !v.is_finite()) {
        return Err("region bounds must be finite numbers".into());
    }
    if let Some((i, (l, h))) = lo.iter().zip(&hi).enumerate().find(|(_, (l, h))| l > h) {
        return Err(format!(
            "inverted region bounds in coordinate {}: lo {l} > hi {h}",
            i + 1,
        ));
    }
    Ok(Region::hyperrect(lo, hi))
}

/// The region described by `--lo/--hi` or `--center/--width`, in a
/// `dp = d − 1`-dimensional preference domain.
pub fn region_from(args: &ParsedArgs, dp: usize) -> Result<Region, String> {
    if let (Some(lo), Some(hi)) = (args.floats("lo")?, args.floats("hi")?) {
        if lo.len() != dp || hi.len() != dp {
            return Err(format!("region needs {dp} coordinates (d − 1)"));
        }
        return checked_box(lo, hi);
    }
    if let (Some(center), Some(width)) = (args.floats("center")?, args.get("width")) {
        if center.len() != dp {
            return Err(format!("--center needs {dp} coordinates (d − 1)"));
        }
        let w: f64 = width.parse().map_err(|_| "--width must be a number")?;
        if !w.is_finite() || w < 0.0 {
            return Err("--width must be non-negative".into());
        }
        let lo: Vec<f64> = center.iter().map(|c| (c - w / 2.0).max(0.0)).collect();
        let hi: Vec<f64> = center.iter().map(|c| (c + w / 2.0).min(1.0)).collect();
        let outside = hi.iter().sum::<f64>() > 1.0;
        let boxed = checked_box(lo, hi)?;
        // Clip to the simplex when the box pokes out.
        if outside {
            return Ok(boxed.with_constraint(Constraint::le(vec![1.0; dp], 1.0)));
        }
        return Ok(boxed);
    }
    Err("specify a region: --lo/--hi or --center/--width".into())
}

/// The `--k` value.
pub fn parse_k(args: &ParsedArgs) -> Result<usize, String> {
    args.get("k")
        .ok_or("missing --k")?
        .parse()
        .map_err(|_| "--k must be an integer".into())
}

/// The `--lp <p>` generalized scoring, if requested.
pub fn scoring_from(args: &ParsedArgs, d: usize) -> Result<Option<GeneralScoring>, String> {
    match args.get("lp") {
        None => Ok(None),
        Some(p) => {
            let p: f64 = p.parse().map_err(|_| "--lp must be a number")?;
            if p <= 0.0 {
                return Err("--lp must be positive".into());
            }
            Ok(Some(GeneralScoring::weighted_lp(p, d)))
        }
    }
}

/// The `--algo` selection (default [`Algo::Auto`]).
pub fn algo_from(args: &ParsedArgs) -> Result<Algo, String> {
    match args.get("algo") {
        None => Ok(Algo::Auto),
        Some(a) => a.parse::<Algo>(),
    }
}

/// One prepared query, plus the metadata its wire-format output
/// needs.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The engine query.
    pub query: UtkQuery,
    /// Which kind it is.
    pub kind: QueryKind,
    /// The rank bound.
    pub k: usize,
    /// The requested algorithm (possibly `Auto`).
    pub algo: Algo,
    /// Top-k weights (empty for UTK queries).
    pub weights: Vec<f64>,
}

/// Builds a UTK1/UTK2 query from parsed flags.
pub fn build_utk_query(args: &ParsedArgs, kind: QueryKind, d: usize) -> Result<Prepared, String> {
    let k = parse_k(args)?;
    let algo = algo_from(args)?;
    let region = region_from(args, d - 1)?;
    let mut query = match kind {
        QueryKind::Utk1 => UtkQuery::utk1(k),
        QueryKind::Utk2 => UtkQuery::utk2(k),
        QueryKind::TopK => unreachable!("build_utk_query only handles UTK queries"),
    };
    query = query.region(region).algorithm(algo);
    if let Some(s) = scoring_from(args, d)? {
        query = query.scoring(s);
    }
    // --threads implies parallelism; requiring --parallel as well
    // would silently drop the thread count.
    if args.has("parallel") || args.has("threads") {
        query = query.parallel(true);
    }
    Ok(Prepared {
        query,
        kind,
        k,
        algo,
        weights: Vec::new(),
    })
}

/// Builds a plain top-k query from parsed flags.
pub fn build_topk_query(args: &ParsedArgs, d: usize) -> Result<Prepared, String> {
    let k = parse_k(args)?;
    let w = args.floats("weights")?.ok_or("missing --weights")?;
    if w.len() != d && w.len() != d - 1 {
        return Err(format!("--weights needs {d} (or {}) values", d - 1));
    }
    let mut query = UtkQuery::topk(k).weights(w.clone());
    if let Some(s) = scoring_from(args, d)? {
        query = query.scoring(s);
    }
    Ok(Prepared {
        query,
        kind: QueryKind::TopK,
        k,
        algo: Algo::Auto,
        weights: w,
    })
}

/// Parses one query line (no line-number prefix on errors).
pub fn parse_query_line(line: &str, d: usize) -> Result<Prepared, String> {
    let mut tokens = line.split_whitespace().map(str::to_string);
    let Some(command) = tokens.next() else {
        return Err("empty query line".into());
    };
    let Some(allowed) = query_line_flags(&command) else {
        return Err(format!("unknown query kind {command:?}"));
    };
    let line_args = ParsedArgs::from_tokens(command.clone(), allowed, tokens)?;
    match command.as_str() {
        "utk1" => build_utk_query(&line_args, QueryKind::Utk1, d),
        "utk2" => build_utk_query(&line_args, QueryKind::Utk2, d),
        "topk" => build_topk_query(&line_args, d),
        _ => unreachable!("query_line_flags vetted the command"),
    }
}

/// A parsed query file: one entry per non-blank, non-comment line,
/// parse failures keeping their slot with a `line N:`-prefixed
/// message (1-based over the *raw* file, comments included — exactly
/// `utk batch` numbering).
#[derive(Debug, Clone)]
pub struct ParsedQueryFile {
    /// Per-line outcomes, in file order.
    pub entries: Vec<Result<Prepared, String>>,
}

/// Parses a whole query file for a `d`-dimensional dataset.
pub fn parse_query_file(text: &str, d: usize) -> ParsedQueryFile {
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        entries.push(parse_query_line(line, d).map_err(|e| format!("line {}: {e}", lineno + 1)));
    }
    ParsedQueryFile { entries }
}

/// Answers a parsed query file through [`UtkEngine::run_many`]: one
/// wire-format JSON line per entry, in input order. A malformed or
/// failing line yields an `{"error":…}` object without aborting its
/// siblings. This is the single implementation behind `utk batch`
/// and the server's `batch` op — their outputs are byte-identical by
/// construction.
pub fn answer_query_file(
    engine: &UtkEngine,
    data: &CsvData,
    parsed: &ParsedQueryFile,
) -> Vec<String> {
    answer_query_file_observed(engine, data, parsed).0
}

/// [`answer_query_file`], additionally returning the file's aggregate
/// per-phase timing breakdown: the traced engine phases summed across
/// every answered query, plus the serialization of the output lines
/// (measured on the engine's injected clock, attributed to
/// [`Phase::Serialize`]). The lines are byte-identical to
/// [`answer_query_file`] — timings ride *alongside* the output and
/// never inside it (the wire-format determinism contract).
pub fn answer_query_file_observed(
    engine: &UtkEngine,
    data: &CsvData,
    parsed: &ParsedQueryFile,
) -> (Vec<String>, PhaseTimings) {
    let queries: Vec<UtkQuery> = parsed
        .entries
        .iter()
        .filter_map(|p| p.as_ref().ok())
        .map(|p| p.query.clone())
        .collect();
    let mut answers = engine.run_many(&queries).into_iter();
    let clock = engine.clock();
    let mut timings = PhaseTimings::default();

    let serialize_from = clock.now_nanos();
    let mut out = Vec::with_capacity(parsed.entries.len());
    for entry in &parsed.entries {
        match entry {
            Err(e) => out.push(wire::error_json(e)),
            Ok(p) => {
                // utk-lint: allow(panic) -- invariant: run_batch returns one answer per Ok entry
                let answer = answers.next().expect("one answer per prepared query");
                if let Ok(result) = &answer {
                    timings.absorb(&result.stats().timings);
                }
                out.push(wire_line(p, answer, data));
            }
        }
    }
    let serialized = clock.now_nanos().saturating_sub(serialize_from);
    timings.record(Phase::Serialize, serialized);
    timings.total_nanos = timings.total_nanos.saturating_add(serialized);
    (out, timings)
}

/// Serializes one answered query as its wire line: the result object
/// (reporting the algorithm that actually answered, not the "auto"
/// request) or a plain `{"error":…}` object.
pub fn wire_line(
    prepared: &Prepared,
    answer: Result<QueryResult, UtkError>,
    data: &CsvData,
) -> String {
    match answer {
        Err(e) => wire::error_json(&e.to_string()),
        Ok(result) => wire::result_json(
            &result,
            prepared.k,
            prepared.algo.resolved_for(prepared.kind),
            data.dataset.len(),
            data.dataset.dim(),
            &prepared.weights,
            &|id| data.name(id),
        ),
    }
}

/// Answers one query line (the server's `query` op shape): the wire
/// result line, or a plain `{"error":…}` line — what a one-line batch
/// would produce, minus the `line N:` prefix and batch-group marker.
/// `run` decides *where* the query executes (inline, or on a worker
/// pool — the server passes a pool dispatcher); parsing and
/// serialization stay identical either way.
pub fn answer_query_line_with(
    data: &CsvData,
    line: &str,
    run: impl FnOnce(&UtkQuery) -> Result<QueryResult, UtkError>,
) -> String {
    let prepared = match parse_query_line(line, data.dataset.dim()) {
        Ok(p) => p,
        Err(e) => return wire::error_json(&e),
    };
    let answer = run(&prepared.query);
    wire_line(&prepared, answer, data)
}

/// [`answer_query_line_with`], executing inline on `engine`.
pub fn answer_query_line(engine: &UtkEngine, data: &CsvData, line: &str) -> String {
    answer_query_line_with(data, line, |query| engine.run(query))
}

/// [`answer_query_line_with`], additionally returning the query's
/// timing breakdown: the traced engine phases from the run, plus the
/// serialization of the result line (measured on `clock`, attributed
/// to [`Phase::Serialize`]). `None` when the line failed to parse or
/// the engine erred — there is nothing meaningful to time. The
/// rendered line is byte-identical to [`answer_query_line_with`].
pub fn answer_query_line_observed(
    data: &CsvData,
    line: &str,
    clock: &Arc<dyn Clock>,
    run: impl FnOnce(&UtkQuery) -> Result<QueryResult, UtkError>,
) -> (String, Option<PhaseTimings>) {
    let prepared = match parse_query_line(line, data.dataset.dim()) {
        Ok(p) => p,
        Err(e) => return (wire::error_json(&e), None),
    };
    let answer = run(&prepared.query);
    let mut timings = answer.as_ref().ok().map(|r| r.stats().timings);
    let serialize_from = clock.now_nanos();
    let rendered = wire_line(&prepared, answer, data);
    let serialized = clock.now_nanos().saturating_sub(serialize_from);
    if let Some(t) = &mut timings {
        t.record(Phase::Serialize, serialized);
        t.total_nanos = t.total_nanos.saturating_add(serialized);
    }
    (rendered, timings)
}

/// One step of a `utk batch --mutations` replay file.
#[derive(Debug, Clone, PartialEq)]
pub enum MutationStep {
    /// Apply one dataset mutation (one engine epoch).
    Update {
        /// Ids to delete (against the dataset as of this step).
        deletes: Vec<u32>,
        /// Rows to append.
        inserts: Vec<Vec<f64>>,
        /// Labels for the appended rows, when the rows carried a
        /// leading label field (CSV dialect).
        labels: Option<Vec<String>>,
    },
    /// Run the whole query file at this point of the replay.
    Run,
}

/// Parses a mutation replay file:
///
/// ```text
/// # comments and blank lines are skipped
/// insert 0.4,0.6,0.2 ; 0.1,0.9,0.3     rows split on ';', CSV fields;
/// insert p8,0.4,0.6,0.2                a non-numeric first field is a label
/// delete 3,5                           ids against the dataset *at this step*
/// run                                  answer the whole query file now
/// ```
///
/// Steps apply in file order. A file with no `run` line gets one
/// appended, so "mutate first, then run the batch" is the default
/// shape and interleavings are opt-in. Errors carry 1-based line
/// numbers over the raw file, like query-file errors.
pub fn parse_mutation_file(text: &str) -> Result<Vec<MutationStep>, String> {
    let mut steps = Vec::new();
    let mut saw_run = false;
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let (op, rest) = match line.split_once(char::is_whitespace) {
            Some((op, rest)) => (op, rest.trim()),
            None => (line, ""),
        };
        match op {
            "run" => {
                if !rest.is_empty() {
                    return Err(at(format!("run takes no arguments, found {rest:?}")));
                }
                saw_run = true;
                steps.push(MutationStep::Run);
            }
            "delete" => {
                if rest.is_empty() {
                    return Err(at("delete needs record ids".into()));
                }
                let deletes = rest
                    .split(',')
                    .map(|v| {
                        v.trim()
                            .parse::<u32>()
                            .map_err(|_| at(format!("{:?} is not a record id", v.trim())))
                    })
                    .collect::<Result<Vec<u32>, String>>()?;
                steps.push(MutationStep::Update {
                    deletes,
                    inserts: Vec::new(),
                    labels: None,
                });
            }
            "insert" => {
                if rest.is_empty() {
                    return Err(at("insert needs at least one row".into()));
                }
                let mut inserts = Vec::new();
                let mut labels: Vec<String> = Vec::new();
                let mut labeled: Option<bool> = None;
                for row in rest.split(';') {
                    let fields: Vec<&str> = row.split(',').map(str::trim).collect();
                    let has_label = fields.first().is_some_and(|f| f.parse::<f64>().is_err());
                    match labeled {
                        None => labeled = Some(has_label),
                        Some(l) if l != has_label => {
                            return Err(at(
                                "all rows of one insert must agree on having a label".into()
                            ))
                        }
                        _ => {}
                    }
                    let start = usize::from(has_label);
                    if has_label {
                        // utk-lint: allow(index) -- invariant: has_label proved fields is non-empty
                        labels.push(fields[0].to_string());
                    }
                    if fields.len() <= start {
                        return Err(at("insert row has no values".into()));
                    }
                    let mut p = Vec::with_capacity(fields.len() - start);
                    // utk-lint: allow(index) -- invariant: start <= fields.len() checked just above
                    for f in &fields[start..] {
                        p.push(
                            f.parse::<f64>()
                                .map_err(|_| at(format!("not a number: {f:?}")))?,
                        );
                    }
                    inserts.push(p);
                }
                steps.push(MutationStep::Update {
                    deletes: Vec::new(),
                    inserts,
                    labels: (labeled == Some(true)).then_some(labels),
                });
            }
            other => {
                return Err(at(format!(
                    "unknown mutation op {other:?} (expected insert, delete or run)"
                )))
            }
        }
    }
    if !saw_run {
        steps.push(MutationStep::Run);
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use utk_data::csv::parse_csv;

    const HOTELS: &str = "\
hotel,service,cleanliness,location
p1,8.3,9.1,7.2
p2,2.4,9.6,8.6
p3,5.4,1.6,4.1
p4,2.6,6.9,9.4
p5,7.3,3.1,2.4
p6,7.9,6.4,6.6
p7,8.6,7.1,4.3
";

    #[test]
    fn query_file_keeps_slots_and_numbering() {
        let text = "# header\nutk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25\n\nfrobnicate --k 2\n";
        let parsed = parse_query_file(text, 3);
        assert_eq!(parsed.entries.len(), 2);
        assert!(parsed.entries[0].is_ok());
        let err = parsed.entries[1].as_ref().unwrap_err();
        assert!(err.starts_with("line 4:"), "{err}");
    }

    #[test]
    fn answer_query_file_matches_run_many_semantics() {
        let data = parse_csv(HOTELS, "hotels").unwrap();
        let engine = UtkEngine::from_slice(&data.dataset.points).unwrap();
        let parsed = parse_query_file(
            "utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25\nutk1 --k 0 --lo 0.1,0.1 --hi 0.2,0.2\n",
            3,
        );
        let lines = answer_query_file(&engine, &data, &parsed);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains(r#""query":"utk1""#), "{}", lines[0]);
        for p in ["p1", "p2", "p4", "p6"] {
            assert!(lines[0].contains(p), "{}", lines[0]);
        }
        assert!(lines[1].contains(r#"{"error":""#), "{}", lines[1]);
        assert!(lines[1].contains("positive"), "{}", lines[1]);
    }

    #[test]
    fn mutation_files_parse_with_line_numbers() {
        let text = "\
# replay
insert 0.5,0.5,0.5 ; 1,2,3
delete 0,2
run
insert p9,1,2,3
";
        let steps = parse_mutation_file(text).unwrap();
        assert_eq!(steps.len(), 4, "explicit run suppresses the implicit one");
        assert_eq!(
            steps[0],
            MutationStep::Update {
                deletes: vec![],
                inserts: vec![vec![0.5, 0.5, 0.5], vec![1.0, 2.0, 3.0]],
                labels: None,
            }
        );
        assert_eq!(
            steps[1],
            MutationStep::Update {
                deletes: vec![0, 2],
                inserts: vec![],
                labels: None,
            }
        );
        assert_eq!(steps[2], MutationStep::Run);
        assert_eq!(
            steps[3],
            MutationStep::Update {
                deletes: vec![],
                inserts: vec![vec![1.0, 2.0, 3.0]],
                labels: Some(vec!["p9".into()]),
            }
        );
        // A file with no `run` gets exactly one appended.
        let steps = parse_mutation_file("delete 1\n").unwrap();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[1], MutationStep::Run);

        for (bad, frag) in [
            ("frobnicate 1\n", "unknown mutation op"),
            ("delete\n", "needs record ids"),
            ("delete x\n", "not a record id"),
            ("insert\n", "needs at least one row"),
            ("insert 1,2 ; p,3,4\n", "agree on having a label"),
            ("\n\ninsert 1,x\n", "line 3"),
            ("run now\n", "no arguments"),
        ] {
            let err = parse_mutation_file(bad).unwrap_err();
            assert!(err.contains(frag), "{bad:?}: {err}");
        }
    }

    #[test]
    fn single_line_answers_have_no_batch_marker() {
        let data = parse_csv(HOTELS, "hotels").unwrap();
        let engine = UtkEngine::from_slice(&data.dataset.points).unwrap();
        let line = answer_query_line(&engine, &data, "utk1 --k 2 --lo 0.05,0.05 --hi 0.45,0.25");
        assert!(line.contains(r#""batch_group_count":0"#), "{line}");
        let err = answer_query_line(&engine, &data, "utk1 --k 2");
        assert!(err.contains("region"), "{err}");
    }
}
