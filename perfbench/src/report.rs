//! Metric collection, percentile rule, and the result line.

use std::fmt::Write as _;

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Free-form annotation printed beside the value (sample counts).
    pub note: String,
}

/// Everything one run prints.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Text lines printed before the metrics (tables, notes).
    pub lines: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-gate violations other than per-operation failures.
    pub gate_errors: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.add_note(name, value, unit, String::new());
    }

    pub fn add_note(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note,
        });
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gate_errors.is_empty()
    }

    /// The human-readable block followed by the one-line JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            let _ = writeln!(out, "{l}");
        }
        for e in &self.gate_errors {
            let _ = writeln!(out, "GATE FAILED: {e}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<34} {:>18} {:<6} {}",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.note
            );
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        json.push_str("}}");
        let _ = writeln!(out, "{json}");
        out
    }
}

/// Formats a finite number with all its digits (shortest round-trip).
pub fn fmt_num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

/// Whether `name` matches the metric-name grammar: starts with a letter
/// or digit, at most 64 of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Whether `unit` matches the unit grammar: at most 16 of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// Exact percentile of `sorted` (nearest rank). Returns the value and the
/// number of samples strictly beyond it, or `None` when fewer than ten
/// samples lie beyond the percentile (the benchmark's reporting rule).
pub fn percentile(sorted: &[u64], q: f64) -> Option<(u64, usize)> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    let beyond = sorted.len() - rank;
    if beyond < 10 {
        return None;
    }
    Some((sorted[rank - 1], beyond))
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host resident-memory high-water mark of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// `|ln(simulated / paper)|`: the fidelity error of one ratio.
pub fn log_err(simulated: f64, paper: f64) -> f64 {
    (simulated / paper).ln().abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_grammar() {
        assert!(valid_name("mmio_p999_cycles"));
        assert!(valid_name("pcache.hit_ratio"));
        assert!(valid_name("9lives-ok"));
        assert!(!valid_name(""));
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("cycles"));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit("per op"));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (1..=1000).collect();
        // p99 of 1000 samples: rank 990, exactly 10 beyond.
        assert_eq!(percentile(&v, 0.99), Some((990, 10)));
        // p99.9 of 1000 samples: only 1 beyond, so not reported.
        assert_eq!(percentile(&v, 0.999), None);
        let v: Vec<u64> = (1..=10_000).collect();
        assert_eq!(percentile(&v, 0.999), Some((9990, 10)));
        assert_eq!(percentile(&v, 0.5), Some((5000, 5000)));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn median_and_log_err() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(log_err(8.37, 8.37).abs() < 1e-12);
        assert!((log_err(2.0, 1.0) - log_err(0.5, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn result_line_is_last_and_well_formed() {
        let mut r = Report {
            attempted: 4,
            ..Default::default()
        };
        r.add("latency_ms", 1.25, "ms");
        r.add("setup_s", 0.5, "s");
        let out = r.render();
        let last = out.lines().last().unwrap();
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.failed = 1;
        assert!(!r.correct());
    }
}
