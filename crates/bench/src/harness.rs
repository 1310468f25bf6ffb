//! A dependency-free micro-benchmark harness.
//!
//! The experiment targets in `benches/` are plain `harness = false`
//! executables: each calls [`bench()`] per measured variant and [`report`] to
//! print an aligned summary, keeping the whole workspace buildable offline.
//! Timings are wall-clock medians over a fixed iteration count with one
//! warm-up run — adequate for the order-of-magnitude comparisons the paper's
//! experiments make (indexed vs naive, QuT vs rebuild).

use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One measured benchmark case.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Case label, e.g. `qut/25%`.
    pub label: String,
    /// Iterations measured (after one warm-up).
    pub iters: u32,
    /// Median per-iteration time in milliseconds.
    pub median_ms: f64,
    /// 95th-percentile per-iteration time in milliseconds (nearest-rank).
    pub p95_ms: f64,
    /// Fastest observed iteration in milliseconds.
    pub min_ms: f64,
    /// Slowest observed iteration in milliseconds.
    pub max_ms: f64,
}

/// Times `f` for `iters` iterations (plus one warm-up) and returns the
/// sample. The closure's result is passed through [`black_box`] so the work
/// is not optimized away.
pub fn bench<T>(label: impl Into<String>, iters: u32, mut f: impl FnMut() -> T) -> Sample {
    let iters = iters.max(1);
    black_box(f());
    let times_ms: Vec<f64> = (0..iters)
        .map(|_| {
            let started = Instant::now();
            black_box(f());
            started.elapsed().as_secs_f64() * 1_000.0
        })
        .collect();
    sample_from(label, times_ms)
}

fn sample_from(label: impl Into<String>, mut times_ms: Vec<f64>) -> Sample {
    times_ms.sort_by(f64::total_cmp);
    // Nearest-rank p95: the smallest time ≥ 95% of observations.
    let p95_idx = ((times_ms.len() * 95).div_ceil(100)).clamp(1, times_ms.len()) - 1;
    Sample {
        label: label.into(),
        iters: times_ms.len() as u32,
        median_ms: times_ms[times_ms.len() / 2],
        p95_ms: times_ms[p95_idx],
        min_ms: times_ms[0],
        max_ms: times_ms[times_ms.len() - 1],
    }
}

/// A machine-readable benchmark report: the per-case wall-time statistics
/// plus arbitrary named counters (phase timings, speedups, correctness
/// flags), serialized as `BENCH_<name>.json` so every perf PR leaves a
/// queryable trajectory next to the human-readable table.
///
/// ```json
/// {"name":"e1_s2t_vs_naive","cases":[
///   {"label":"arena/120","iters":10,"median_ms":3.1,"p95_ms":3.4,
///    "min_ms":3.0,"max_ms":3.6,"counters":{"voting_ms":2.2}}]}
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonReport {
    name: String,
    cases: Vec<(Sample, Vec<(String, f64)>)>,
}

impl JsonReport {
    /// Starts a report named `name` (the file becomes `BENCH_<name>.json`).
    pub fn new(name: impl Into<String>) -> Self {
        JsonReport {
            name: name.into(),
            cases: Vec::new(),
        }
    }

    /// Adds a measured case with no extra counters.
    pub fn push(&mut self, sample: Sample) {
        self.cases.push((sample, Vec::new()));
    }

    /// Adds a measured case with named counters (phase breakdowns, derived
    /// ratios, gate outcomes encoded as 0/1, …).
    pub fn push_with(&mut self, sample: Sample, counters: Vec<(String, f64)>) {
        self.cases.push((sample, counters));
    }

    /// The report as a JSON string.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
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
        fn num(v: f64) -> String {
            // JSON has no NaN/Infinity; clamp to null-free zero.
            if v.is_finite() {
                format!("{v}")
            } else {
                "0".to_string()
            }
        }
        let mut out = String::new();
        out.push_str(&format!("{{\"name\":\"{}\",\"cases\":[", esc(&self.name)));
        for (i, (s, counters)) in self.cases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"label\":\"{}\",\"iters\":{},\"median_ms\":{},\"p95_ms\":{},\"min_ms\":{},\"max_ms\":{},\"counters\":{{",
                esc(&s.label),
                s.iters,
                num(s.median_ms),
                num(s.p95_ms),
                num(s.min_ms),
                num(s.max_ms),
            ));
            for (j, (k, v)) in counters.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", esc(k), num(*v)));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Writes `BENCH_<name>.json` into `dir`, returning the path.
    pub fn write_to(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Writes the report into `$HERMES_BENCH_DIR` (default: the current
    /// directory) and prints the path on stderr.
    pub fn write(&self) -> io::Result<PathBuf> {
        let dir = std::env::var("HERMES_BENCH_DIR").unwrap_or_else(|_| ".".to_string());
        let path = self.write_to(Path::new(&dir))?;
        eprintln!("wrote {}", path.display());
        Ok(path)
    }
}

/// Prints samples as an aligned table on stderr (matching the summary style
/// the experiment targets already use).
pub fn report(title: &str, samples: &[Sample]) {
    eprintln!("\n## {title}");
    let width = samples
        .iter()
        .map(|s| s.label.len())
        .max()
        .unwrap_or(0)
        .max("case".len());
    eprintln!(
        "{:>width$} {:>7} {:>12} {:>12} {:>12} {:>12}",
        "case", "iters", "median_ms", "p95_ms", "min_ms", "max_ms"
    );
    for s in samples {
        eprintln!(
            "{:>width$} {:>7} {:>12.3} {:>12.3} {:>12.3} {:>12.3}",
            s.label, s.iters, s.median_ms, s.p95_ms, s.min_ms, s.max_ms
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_and_labels() {
        let mut calls = 0u32;
        let s = bench("spin", 5, || {
            calls += 1;
            (0..1000).sum::<u64>()
        });
        assert_eq!(s.label, "spin");
        assert_eq!(s.iters, 5);
        assert_eq!(calls, 6, "one warm-up plus five measured iterations");
        assert!(s.min_ms <= s.median_ms && s.median_ms <= s.max_ms);
        assert!(s.median_ms <= s.p95_ms && s.p95_ms <= s.max_ms);
        report("test", &[s]);
    }

    #[test]
    fn zero_iterations_are_clamped() {
        let s = bench("once", 0, || 1 + 1);
        assert_eq!(s.iters, 1);
        assert_eq!(
            s.p95_ms, s.median_ms,
            "single observation: all quantiles agree"
        );
    }

    #[test]
    fn json_report_round_trips_structure() {
        let mut report = JsonReport::new("unit_test");
        report.push(Sample {
            label: "plain \"case\"".into(),
            iters: 3,
            median_ms: 1.5,
            p95_ms: 2.0,
            min_ms: 1.0,
            max_ms: 2.5,
        });
        report.push_with(
            Sample {
                label: "with/counters".into(),
                iters: 2,
                median_ms: 4.0,
                p95_ms: f64::INFINITY, // must not produce invalid JSON
                min_ms: 3.0,
                max_ms: 5.0,
            },
            vec![("voting_ms".into(), 2.25), ("speedup".into(), 3.0)],
        );
        let json = report.to_json();
        assert!(json.starts_with("{\"name\":\"unit_test\",\"cases\":["));
        assert!(json.contains("\"label\":\"plain \\\"case\\\"\""));
        assert!(json.contains("\"voting_ms\":2.25"));
        assert!(
            json.contains("\"p95_ms\":0"),
            "non-finite values are clamped: {json}"
        );
        assert!(!json.contains("inf") && !json.contains("NaN"));

        let dir = std::env::temp_dir();
        let path = report.write_to(&dir).unwrap();
        assert_eq!(
            path.file_name().and_then(|n| n.to_str()),
            Some("BENCH_unit_test.json")
        );
        assert_eq!(std::fs::read_to_string(&path).unwrap(), json);
        std::fs::remove_file(&path).ok();
    }
}
