// utk-lint: class=bench
//! The correctness gate: answers are checked against an independent
//! derivation, and any mismatch fails the run.

use utk_core::engine::UtkEngine;
use utk_data::csv::CsvData;
use utk_server::spec;

/// The part of a wire line before its `"stats"` object: the answer
/// itself. Work counters after it depend on cache history, which
/// legitimately differs between two engines answering the same lines.
pub fn answer_part(line: &str) -> &str {
    match line.find(r#","stats":"#) {
        Some(at) => &line[..at],
        None => line,
    }
}

/// One region of the paper workload, reduced to what the gate needs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegionAnswer {
    /// UTK1's records, sorted.
    pub utk1: Vec<u32>,
    /// UTK2's `records` field.
    pub utk2: Vec<u32>,
    /// The union of UTK2's cell top-k sets, sorted.
    pub cells_union: Vec<u32>,
}

/// UTK1 and UTK2 answer the same question two ways: the UTK1 records
/// must equal UTK2's records, which must equal the union of its
/// cells' top-k sets.
pub fn check_regions(regions: &[RegionAnswer]) -> Vec<String> {
    let mut out = Vec::new();
    for (i, r) in regions.iter().enumerate() {
        if r.utk1 != r.utk2 || r.utk2 != r.cells_union {
            out.push(format!(
                "region {i}: utk1 records {:?} / utk2 records {:?} / union of cells {:?}",
                r.utk1, r.utk2, r.cells_union
            ));
        }
    }
    out
}

/// Answers `lines` as one query file on a local engine and compares
/// each answer with what the server sent back.
pub fn check_lines(
    engine: &UtkEngine,
    data: &CsvData,
    lines: &[&str],
    served: &[&str],
    out: &mut Vec<String>,
) {
    if lines.is_empty() {
        return;
    }
    let parsed = spec::parse_query_file(&lines.join("\n"), data.dataset.dim());
    let local = spec::answer_query_file(engine, data, &parsed);
    if local.len() != served.len() {
        out.push(format!(
            "{} local answers for {} served answers",
            local.len(),
            served.len()
        ));
        return;
    }
    for ((line, got), want) in lines.iter().zip(served).zip(&local) {
        if answer_part(got) != answer_part(want) {
            out.push(format!(
                "{line:?}: served {:.120} / local {:.120}",
                answer_part(got),
                answer_part(want)
            ));
        }
    }
}

/// A deliberately wrong copy of a UTK answer line: its first record
/// id gains a digit. The self-test feeds it to the gate.
pub fn tamper(line: &str) -> String {
    line.replacen(r#""records":[{"id":"#, r#""records":[{"id":9"#, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_part_cuts_at_stats() {
        assert_eq!(
            answer_part(r#"{"query":"utk1","records":[{"id":1}],"stats":{"bbs_pops":3}}"#),
            r#"{"query":"utk1","records":[{"id":1}]"#
        );
        assert_eq!(answer_part(r#"{"error":"x"}"#), r#"{"error":"x"}"#);
    }

    #[test]
    fn tampered_region_trips_the_gate() {
        let good = RegionAnswer {
            utk1: vec![1, 4, 7],
            utk2: vec![1, 4, 7],
            cells_union: vec![1, 4, 7],
        };
        assert!(check_regions(std::slice::from_ref(&good)).is_empty());
        let mut bad = good.clone();
        bad.utk1.pop();
        assert_eq!(check_regions(&[good, bad]).len(), 1);
    }

    #[test]
    fn tampered_line_trips_the_gate() {
        let data = utk_data::csv::parse_csv(
            "0.9,0.1,0.5,0.5\n0.1,0.9,0.5,0.5\n0.5,0.5,0.9,0.1\n0.4,0.4,0.4,0.4\n",
            "t",
        )
        .unwrap();
        let engine = UtkEngine::new(data.dataset.points.clone()).unwrap();
        let line = "utk1 --k 1 --lo 0.1,0.1,0.1 --hi 0.2,0.2,0.2";
        let honest = spec::answer_query_line(&engine, &data, line);
        let mut out = Vec::new();
        check_lines(&engine, &data, &[line], &[honest.as_str()], &mut out);
        assert!(out.is_empty(), "{out:?}");
        let tampered = tamper(&honest);
        assert_ne!(tampered, honest);
        check_lines(&engine, &data, &[line], &[tampered.as_str()], &mut out);
        assert_eq!(out.len(), 1);
    }
}
