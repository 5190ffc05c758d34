// utk-lint: class=bench
//! Measurement primitives: latency samples and their percentiles,
//! peak memory, and the benchmark's own span tracer.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Raw latency samples, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, value_ms: f64) {
        self.0.push(value_ms);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The nearest-rank `p`-quantile (`0 < p ≤ 1`); 0 without samples.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = (p * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }
}

/// The median of a handful of repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut s = Samples::default();
    for &v in values {
        s.push(v);
    }
    s.quantile(0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One recorded span: a layer boundary the benchmark crossed.
#[derive(Debug, Clone)]
pub struct Span {
    /// The boundary: `query`, `parse`, `run`, `serialize`,
    /// `round_trip`, `apply_update`, `metrics`, …
    pub name: &'static str,
    /// The request kind it served (`utk1`, `utk2`, `topk`, `batch`,
    /// `update`, or `control`).
    pub kind: &'static str,
    /// Spans of one request share this id.
    pub request: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The benchmark's span tracer. Spans stay in memory and are written
/// out once, at the end of the run. A disabled tracer records nothing
/// and costs one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (between requests, never inside one).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, kind: &'static str, request: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            kind,
            request,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        kind: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.open(name, kind, request);
        let out = f();
        self.close();
        out
    }

    /// Self times (span minus its children) of every `name` span
    /// serving `kind`, in milliseconds.
    pub fn self_ms(&self, name: &str, kind: &str) -> Samples {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = Samples::default();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name && s.kind == kind {
                let self_ns = (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
                out.push(self_ns as f64 / 1e6);
            }
        }
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","kind":"{}","request":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
                s.name, s.kind, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in (1..=10).rev() {
            s.push(v as f64);
        }
        assert_eq!(s.quantile(0.5), 5.0);
        assert_eq!(s.quantile(0.9), 9.0);
        assert_eq!(s.quantile(1.0), 10.0);
        assert_eq!(Samples::default().quantile(0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.open("query", "utk1", 1);
        t.time("run", "utk1", 1, || {
            std::thread::sleep(Duration::from_millis(5))
        });
        t.close();
        let run = t.self_ms("run", "utk1");
        let query = t.self_ms("query", "utk1");
        assert_eq!((run.len(), query.len()), (1, 1));
        assert!(run.mean() >= 5.0);
        assert!(query.mean() < run.mean());
        assert_eq!(t.spans[1].parent, Some(0));

        let mut off = Tracer::new(false);
        off.time("run", "utk1", 1, || ());
        assert_eq!(off.len(), 0);
    }
}
