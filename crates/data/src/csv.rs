//! Minimal CSV reading/writing for the `utk` command-line tool.
//!
//! Supported dialect: comma-separated numeric columns, an optional
//! header row (detected: any non-numeric field), and an optional
//! leading label column (detected per row: non-numeric first field).
//! No quoting or escaping — record labels must not contain commas.

use crate::dataset::Dataset;

/// A parsed CSV: the dataset plus optional column names and per-record
/// labels.
#[derive(Debug, Clone)]
pub struct CsvData {
    /// The numeric payload.
    pub dataset: Dataset,
    /// Column names from the header row, if present (numeric columns
    /// only, label column excluded).
    pub columns: Option<Vec<String>>,
    /// Per-record labels from a leading non-numeric column.
    pub labels: Option<Vec<String>>,
}

impl CsvData {
    /// A display name for record `id`: its label, or `#id` (also the
    /// fallback for ids past the label column, which cannot arise
    /// from parsing but keeps a racing rename/update safe).
    pub fn name(&self, id: u32) -> String {
        match self.labels.as_ref().and_then(|l| l.get(id as usize)) {
            Some(l) => l.clone(),
            None => format!("#{id}"),
        }
    }

    /// Checks a dataset mutation against this payload without applying
    /// it: succeeds exactly when [`CsvData::apply_update`] would, and
    /// fails with the same message. The server registry checks first,
    /// logs and commits the engine, and only then applies in place.
    pub fn check_update(
        &self,
        deletes: &[u32],
        inserts: &[Vec<f64>],
        insert_labels: Option<&[String]>,
    ) -> Result<(), String> {
        self.deleted_mask(deletes, inserts, insert_labels).map(drop)
    }

    /// Applies a dataset mutation to the parsed payload, mirroring
    /// `UtkEngine::apply_update` semantics exactly: rows named by
    /// `deletes` (validated ids, applied simultaneously) are removed
    /// with survivors keeping their order, then `inserts` are
    /// appended. Labels move with their rows. The rows are moved in
    /// place, never cloned.
    ///
    /// Label policy: a labeled dataset requires one label per
    /// inserted row (and rejects duplicates — labels are record ids);
    /// an unlabeled one rejects labels. Errors leave the data
    /// unchanged: every rule is checked ([`CsvData::check_update`])
    /// before anything moves.
    ///
    /// NOTE: the id/dimension/finiteness checks here deliberately
    /// mirror `UtkEngine::apply_update` (utk-core), which cannot be
    /// referenced from this crate. The server registry checks this
    /// payload *before* the engine mutation and applies it only after
    /// the engine committed, so a divergence between the two
    /// validators degrades to a spurious error, never to labels and
    /// rows going out of step — but keep them in agreement anyway.
    pub fn apply_update(
        &mut self,
        deletes: &[u32],
        inserts: &[Vec<f64>],
        insert_labels: Option<&[String]>,
    ) -> Result<(), String> {
        let deleted = self.deleted_mask(deletes, inserts, insert_labels)?;
        retain_unflagged(&mut self.dataset.points, &deleted);
        self.dataset.points.extend_from_slice(inserts);
        if let Some(labels) = &mut self.labels {
            retain_unflagged(labels, &deleted);
            labels.extend_from_slice(insert_labels.unwrap_or(&[]));
        }
        Ok(())
    }

    /// Every rule of [`CsvData::apply_update`], in order; on success,
    /// the per-row delete flags.
    fn deleted_mask(
        &self,
        deletes: &[u32],
        inserts: &[Vec<f64>],
        insert_labels: Option<&[String]>,
    ) -> Result<Vec<bool>, String> {
        let dim = self.dataset.dim();
        for row in inserts {
            if row.len() != dim {
                return Err(format!(
                    "inserted row has {} values, dataset is {dim}-dimensional",
                    row.len()
                ));
            }
            if row.iter().any(|v| !v.is_finite()) {
                return Err("inserted row contains a NaN or infinite value".into());
            }
        }
        let n = self.dataset.points.len();
        let mut deleted = vec![false; n];
        for &id in deletes {
            if id as usize >= n {
                return Err(format!("record id {id} does not exist ({n} records)"));
            }
            if deleted[id as usize] {
                return Err(format!("duplicate record id {id}"));
            }
            deleted[id as usize] = true;
        }
        match (&self.labels, insert_labels) {
            (Some(_), None) if !inserts.is_empty() => {
                return Err("dataset has a label column; supply one label per inserted row".into())
            }
            (None, Some(_)) => {
                return Err(
                    "dataset has no label column; inserted rows must not carry labels".into(),
                )
            }
            (Some(existing), provided) => {
                let provided = provided.unwrap_or(&[]);
                if provided.len() != inserts.len() {
                    return Err(format!(
                        "{} inserted rows but {} labels",
                        inserts.len(),
                        provided.len()
                    ));
                }
                let mut seen: std::collections::HashSet<&str> = existing
                    .iter()
                    .zip(&deleted)
                    .filter(|(_, &gone)| !gone)
                    .map(|(l, _)| l.as_str())
                    .collect();
                for label in provided {
                    if !seen.insert(label.as_str()) {
                        return Err(format!("duplicate record label {label:?}"));
                    }
                }
            }
            (None, None) => {}
        }
        if n - deletes.len() + inserts.len() == 0 {
            return Err("update would leave the dataset empty".into());
        }
        Ok(deleted)
    }
}

/// Drops the entries of `v` flagged in `deleted` (one flag per entry);
/// survivors keep their order and are moved, not cloned.
fn retain_unflagged<T>(v: &mut Vec<T>, deleted: &[bool]) {
    let mut gone = deleted.iter();
    v.retain(|_| gone.next() != Some(&true));
}

/// Parsing failure with a line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CSV line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CsvError {}

fn is_numeric(field: &str) -> bool {
    field.trim().parse::<f64>().is_ok()
}

/// Parses CSV text into a dataset (see module docs for the dialect).
pub fn parse_csv(text: &str, name: &str) -> Result<CsvData, CsvError> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));

    let Some((first_no, first)) = lines.next() else {
        return Err(CsvError {
            line: 1,
            message: "no data rows".into(),
        });
    };

    // Header detection: a row with any non-numeric field beyond a
    // possible label column is a header.
    let first_fields: Vec<&str> = first.split(',').map(str::trim).collect();
    let has_header = first_fields.iter().skip(1).any(|f| !is_numeric(f))
        || (first_fields.len() == 1 && !is_numeric(first_fields[0]));

    let mut columns: Option<Vec<String>> = None;
    let mut rows: Vec<(usize, Vec<&str>)> = Vec::new();
    if has_header {
        columns = Some(first_fields.iter().map(|s| s.to_string()).collect());
    } else {
        rows.push((first_no, first_fields));
    }
    for (no, line) in lines {
        rows.push((no, line.split(',').map(str::trim).collect()));
    }
    if rows.is_empty() {
        return Err(CsvError {
            line: first_no,
            message: "header only, no data rows".into(),
        });
    }

    // Label column detection: every data row starts non-numeric.
    let has_labels = rows.iter().all(|(_, f)| !is_numeric(f[0]));
    let mut labels = if has_labels { Some(Vec::new()) } else { None };
    if has_labels {
        if let Some(c) = &mut columns {
            c.remove(0);
        }
    }

    let mut points = Vec::with_capacity(rows.len());
    let mut width = None;
    let mut seen_labels: std::collections::HashSet<String> = std::collections::HashSet::new();
    for (no, fields) in rows {
        let start = usize::from(has_labels);
        if let Some(l) = &mut labels {
            // The label column is the record's identity: a repeat
            // would make two records indistinguishable to every
            // consumer that resolves ids through names.
            if !seen_labels.insert(fields[0].to_string()) {
                return Err(CsvError {
                    line: no,
                    message: format!("duplicate record id {:?}", fields[0]),
                });
            }
            l.push(fields[0].to_string());
        }
        let mut p = Vec::with_capacity(fields.len() - start);
        for f in &fields[start..] {
            let v = f.parse::<f64>().map_err(|_| CsvError {
                line: no,
                message: format!("not a number: {f:?}"),
            })?;
            // `f64::parse` happily accepts "NaN" and "inf", which
            // would poison every score downstream; the store only
            // ever holds finite coordinates.
            if !v.is_finite() {
                return Err(CsvError {
                    line: no,
                    message: format!("non-finite value {f:?} (NaN/inf records are rejected)"),
                });
            }
            p.push(v);
        }
        match width {
            None => width = Some(p.len()),
            Some(w) if w != p.len() => {
                return Err(CsvError {
                    line: no,
                    message: format!("expected {w} values, found {}", p.len()),
                })
            }
            _ => {}
        }
        points.push(p);
    }

    Ok(CsvData {
        dataset: Dataset::new(name, points),
        columns,
        labels,
    })
}

/// Serializes a dataset (with optional labels) back to CSV.
pub fn write_csv(ds: &Dataset, labels: Option<&[String]>) -> String {
    let mut out = String::new();
    for (i, p) in ds.points.iter().enumerate() {
        if let Some(l) = labels {
            out.push_str(&l[i]);
            out.push(',');
        }
        let nums: Vec<String> = p.iter().map(|v| format!("{v}")).collect();
        out.push_str(&nums.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn plain_numeric_rows() {
        let csv = "1.0,2.0,3.0\n4.0,5.0,6.0\n";
        let d = parse_csv(csv, "t").unwrap();
        assert_eq!(d.dataset.len(), 2);
        assert_eq!(d.dataset.dim(), 3);
        assert!(d.columns.is_none());
        assert!(d.labels.is_none());
        assert_eq!(d.name(1), "#1");
    }

    #[test]
    fn header_and_labels() {
        let csv = "hotel,service,cleanliness\np1,8.3,9.1\np2,2.4,9.6\n";
        let d = parse_csv(csv, "t").unwrap();
        assert_eq!(
            d.columns,
            Some(vec!["service".into(), "cleanliness".into()])
        );
        assert_eq!(d.labels, Some(vec!["p1".into(), "p2".into()]));
        assert_eq!(d.dataset.points[1], vec![2.4, 9.6]);
        assert_eq!(d.name(0), "p1");
    }

    #[test]
    fn labels_without_header() {
        let csv = "a,1,2\nb,3,4\n";
        let d = parse_csv(csv, "t").unwrap();
        assert!(d.columns.is_none());
        assert_eq!(d.labels, Some(vec!["a".into(), "b".into()]));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let csv = "# comment\n\n1,2\n\n3,4\n";
        let d = parse_csv(csv, "t").unwrap();
        assert_eq!(d.dataset.len(), 2);
    }

    #[test]
    fn ragged_rows_rejected_with_line_number() {
        let csv = "1,2\n3,4,5\n";
        let err = parse_csv(csv, "t").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("expected 2"));
    }

    #[test]
    fn garbage_rejected() {
        let csv = "1,2\n3,x\n";
        let err = parse_csv(csv, "t").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse_csv("", "t").is_err());
        assert!(parse_csv("only,header\n", "t").is_err());
    }

    #[test]
    fn non_finite_values_rejected_with_line_numbers() {
        for bad in ["nan", "NaN", "inf", "-inf", "Infinity"] {
            let csv = format!("1,2\n3,{bad}\n");
            let err = parse_csv(&csv, "t").unwrap_err();
            assert_eq!(err.line, 2, "{bad}");
            assert!(err.message.contains("non-finite"), "{bad}: {}", err.message);
        }
    }

    #[test]
    fn duplicate_labels_rejected_with_line_numbers() {
        let err = parse_csv("a,1,2\nb,3,4\na,5,6\n", "t").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(
            err.message.contains("duplicate record id"),
            "{}",
            err.message
        );
        // Unlabeled rows can repeat freely — only identities are unique.
        assert!(parse_csv("1,2\n1,2\n", "t").is_ok());
    }

    #[test]
    fn apply_update_mirrors_engine_mutation_semantics() {
        let mut d = parse_csv("a,1,2\nb,3,4\nc,5,6\n", "t").unwrap();
        d.apply_update(&[1], &[vec![7.0, 8.0]], Some(&["d".to_string()]))
            .unwrap();
        assert_eq!(
            d.dataset.points,
            vec![vec![1.0, 2.0], vec![5.0, 6.0], vec![7.0, 8.0]]
        );
        assert_eq!(d.name(0), "a");
        assert_eq!(d.name(1), "c");
        assert_eq!(d.name(2), "d");
    }

    #[test]
    fn apply_update_rejections_leave_data_unchanged() {
        let mut d = parse_csv("a,1,2\nb,3,4\n", "t").unwrap();
        let before = d.dataset.points.clone();
        let mut rejects = |deletes: &[u32], inserts: &[Vec<f64>], labels: Option<&[String]>| {
            let checked = d.check_update(deletes, inserts, labels);
            assert!(checked.is_err(), "{deletes:?} {inserts:?} {labels:?}");
            assert_eq!(checked, d.apply_update(deletes, inserts, labels));
        };
        let a = ["a".to_string()];
        let x = ["x".to_string()];
        // Unknown id, duplicate delete, missing labels, duplicate
        // label, ragged row, non-finite row, emptying update.
        rejects(&[9], &[], None);
        rejects(&[0, 0], &[], None);
        rejects(&[], &[vec![1.0, 1.0]], None);
        rejects(&[], &[vec![1.0, 1.0]], Some(&a));
        rejects(&[], &[vec![1.0]], Some(&x));
        rejects(&[], &[vec![f64::NAN, 1.0]], Some(&x));
        rejects(&[0, 1], &[], None);
        assert_eq!(d.dataset.points, before);
        assert_eq!(d.name(1), "b");

        // An unlabeled dataset takes unlabeled inserts only.
        let mut plain = parse_csv("1,2\n3,4\n", "t").unwrap();
        assert!(plain
            .check_update(&[], &[vec![5.0, 6.0]], Some(&x))
            .is_err());
        assert!(plain
            .apply_update(&[], &[vec![5.0, 6.0]], Some(&x))
            .is_err());
        plain.check_update(&[0], &[vec![5.0, 6.0]], None).unwrap();
        plain.apply_update(&[0], &[vec![5.0, 6.0]], None).unwrap();
        assert_eq!(plain.dataset.points, vec![vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(plain.name(1), "#1");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `check_update` accepts exactly what `apply_update` accepts,
        /// with the same message; an accepted in-place update equals
        /// the rows and labels rebuilt from scratch (survivors in
        /// order, then the inserts, labels following their rows), and
        /// a rejected one changes nothing.
        #[test]
        fn check_update_agrees_with_apply_update(
            (n, labeled) in (1usize..7, 0u8..2),
            deletes in prop::collection::vec(0u32..7, 0..3),
            inserts in prop::collection::vec(prop::collection::vec(0.0f64..1.0, 3), 0..3),
            (label_mode, label_picks) in (0u8..3, prop::collection::vec(0usize..9, 0..4)),
        ) {
            let labeled = labeled == 1;
            let text: String = (0..n)
                .map(|i| {
                    let label = if labeled { format!("r{i},") } else { String::new() };
                    format!("{label}{i},{}\n", i * 2)
                })
                .collect();
            let data = parse_csv(&text, "t").unwrap();
            // The dataset is 2-dimensional: a row whose third value
            // passes 0.9 keeps it (ragged); values past 0.95 become NaN.
            let inserts: Vec<Vec<f64>> = inserts
                .into_iter()
                .map(|mut row| {
                    row.truncate(if row[2] > 0.9 { 3 } else { 2 });
                    row.into_iter().map(|v| if v > 0.95 { f64::NAN } else { v }).collect()
                })
                .collect();
            // Labels from a pool that overlaps the dataset's own names:
            // none, one per insert, or a list of arbitrary length.
            let pool = |p: usize| if p < 4 { format!("r{p}") } else { format!("x{}", p % 3) };
            let labels: Option<Vec<String>> = match label_mode {
                0 => None,
                1 => Some(label_picks.iter().cycle().take(inserts.len()).map(|&p| pool(p)).collect()),
                _ => Some(label_picks.iter().map(|&p| pool(p)).collect()),
            };

            let checked = data.check_update(&deletes, &inserts, labels.as_deref());
            let mut applied = data.clone();
            let result = applied.apply_update(&deletes, &inserts, labels.as_deref());
            prop_assert_eq!(&checked, &result);
            if result.is_err() {
                prop_assert_eq!(&applied.dataset.points, &data.dataset.points);
                prop_assert_eq!(&applied.labels, &data.labels);
                continue;
            }
            let survivors = (0..n).filter(|i| !deletes.contains(&(*i as u32)));
            let mut rows: Vec<Vec<f64>> =
                survivors.clone().map(|i| data.dataset.points[i].clone()).collect();
            rows.extend(inserts.iter().cloned());
            prop_assert_eq!(&applied.dataset.points, &rows);
            let want_labels = data.labels.as_ref().map(|existing| {
                let mut l: Vec<String> = survivors.map(|i| existing[i].clone()).collect();
                l.extend(labels.clone().unwrap_or_default());
                l
            });
            prop_assert_eq!(&applied.labels, &want_labels);
        }
    }

    #[test]
    fn round_trip() {
        let ds = Dataset::new("t", vec![vec![1.5, 2.0], vec![0.25, 4.0]]);
        let labels = vec!["a".to_string(), "b".to_string()];
        let csv = write_csv(&ds, Some(&labels));
        let back = parse_csv(&csv, "t").unwrap();
        assert_eq!(back.dataset.points, ds.points);
        assert_eq!(back.labels.as_deref(), Some(labels.as_slice()));
    }
}
