//! The bench harness: a median timer and machine-readable output.
//!
//! Every bench under `benches/` is a plain `fn main()` that times its
//! routines with [`time_median`] and collects the results in a
//! [`BenchJson`], which prints one line per record as it is taken and
//! finally writes the records to a JSON file: `BENCH_<name>.json` for the
//! bench `bench_<name>`, or the path in the `AJD_BENCH_JSON` environment
//! variable (see [`BenchJson::default_path`]).  The file holds one record
//! per benchmark:
//!
//! ```json
//! {"records": [
//!   {"bench": "group_counts/columnar", "median_ns": 1234, "baseline_ns": 5678, "speedup": 4.60}
//! ]}
//! ```
//!
//! Several bench binaries may share one file (`AJD_BENCH_JSON` pointed at
//! it): [`BenchJson::emit`] merges by benchmark name (latest wins) using a
//! line-oriented rewrite, so no JSON parser is needed.

use std::ffi::OsString;
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// One benchmark result destined for the JSON trajectory file.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Benchmark name, e.g. `"group_counts/columnar_100k"`.
    pub bench: String,
    /// Median wall-clock time per iteration, in nanoseconds.
    pub median_ns: u128,
    /// Median of the baseline being compared against, if any.
    pub baseline_ns: Option<u128>,
}

impl BenchRecord {
    /// `baseline / median` — how many times faster than the baseline.
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_ns
            .map(|b| b as f64 / self.median_ns.max(1) as f64)
    }

    fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"bench\": \"{}\", \"median_ns\": {}",
            self.bench, self.median_ns
        );
        if let Some(b) = self.baseline_ns {
            let _ = write!(line, ", \"baseline_ns\": {b}");
        }
        if let Some(s) = self.speedup() {
            let _ = write!(line, ", \"speedup\": {s:.3}");
        }
        line.push('}');
        line
    }
}

/// Collects [`BenchRecord`]s and writes them to the trajectory file.
#[derive(Debug, Default)]
pub struct BenchJson {
    records: Vec<BenchRecord>,
}

impl BenchJson {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The output path of the bench `bench_<name>`: `$AJD_BENCH_JSON`, or
    /// `BENCH_<name>.json` in the current directory.  Cargo runs benches
    /// with the package directory (`crates/bench`) as the current
    /// directory, so set an absolute `AJD_BENCH_JSON` to collect the file
    /// elsewhere.
    pub fn default_path(name: &str) -> PathBuf {
        path_for(name, std::env::var_os("AJD_BENCH_JSON"))
    }

    /// Records a standalone measurement.
    pub fn record(&mut self, bench: &str, median: Duration) {
        self.push(bench, median, None);
    }

    /// Records a measurement next to the baseline it is compared against.
    pub fn record_vs_baseline(&mut self, bench: &str, median: Duration, baseline: Duration) {
        self.push(bench, median, Some(baseline));
    }

    /// Prints the record as one line and keeps it for [`BenchJson::emit`].
    fn push(&mut self, bench: &str, median: Duration, baseline: Option<Duration>) {
        let record = BenchRecord {
            bench: bench.to_owned(),
            median_ns: median.as_nanos(),
            baseline_ns: baseline.map(|b| b.as_nanos()),
        };
        match (baseline, record.speedup()) {
            (Some(b), Some(s)) => println!("{bench:<48} {median:>12.3?}  vs {b:.3?} ({s:.2}x)"),
            _ => println!("{bench:<48} {median:>12.3?}"),
        }
        self.records.push(record);
    }

    /// The records collected so far.
    pub fn records(&self) -> &[BenchRecord] {
        &self.records
    }

    /// Writes (merging with any records already in `path`: same-name records
    /// are replaced, others are kept).  Errors are reported but deliberately
    /// non-fatal to the caller — a bench run must not fail because CI ran it
    /// in a read-only directory.
    pub fn emit(&self, path: &Path) {
        match self.emit_inner(path) {
            Ok(()) => eprintln!(
                "wrote {} bench record(s) to {}",
                self.records.len(),
                path.display()
            ),
            Err(e) => eprintln!("could not write bench json to {}: {e}", path.display()),
        }
    }

    fn emit_inner(&self, path: &Path) -> std::io::Result<()> {
        // Keep existing records whose names this run does not overwrite.
        // Records are one per line, so a line scan is a sufficient "parser".
        let mut kept: Vec<String> = Vec::new();
        if let Ok(existing) = fs::read_to_string(path) {
            for line in existing.lines() {
                let line = line.trim().trim_end_matches(',');
                if line.starts_with("{\"bench\":")
                    && !self
                        .records
                        .iter()
                        .any(|r| line.contains(&format!("\"{}\"", r.bench)))
                {
                    kept.push(line.to_owned());
                }
            }
        }
        let mut lines = kept;
        lines.extend(self.records.iter().map(BenchRecord::to_json_line));
        let mut out = String::from("{\"records\": [\n");
        for (i, line) in lines.iter().enumerate() {
            let sep = if i + 1 < lines.len() { "," } else { "" };
            let _ = writeln!(out, "  {line}{sep}");
        }
        out.push_str("]}\n");
        fs::write(path, out)
    }
}

/// The rule behind [`BenchJson::default_path`], with the environment value
/// passed in.
fn path_for(name: &str, env: Option<OsString>) -> PathBuf {
    env.map_or_else(
        || PathBuf::from(format!("BENCH_{name}.json")),
        PathBuf::from,
    )
}

/// Times `routine` and returns the median per-iteration duration.  One
/// warm-up call sizes the batches so that five of them fill `budget`; the
/// result is the median of the five batch means.
pub fn time_median<R, F: FnMut() -> R>(budget: Duration, mut routine: F) -> Duration {
    let warmup = Instant::now();
    std::hint::black_box(routine());
    let first = warmup.elapsed().max(Duration::from_nanos(1));

    const BATCHES: usize = 5;
    let per_batch = budget / BATCHES as u32;
    let iters_per_batch = (per_batch.as_nanos() / first.as_nanos()).clamp(1, 1_000_000) as u64;
    let mut samples: Vec<Duration> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters_per_batch {
                std::hint::black_box(routine());
            }
            start.elapsed() / iters_per_batch as u32
        })
        .collect();
    samples.sort_unstable();
    samples[BATCHES / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_json(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("ajd_bench_json_{}_{tag}.json", std::process::id()))
    }

    #[test]
    fn records_render_speedup() {
        let mut j = BenchJson::new();
        j.record_vs_baseline("x", Duration::from_nanos(100), Duration::from_nanos(250));
        let r = &j.records()[0];
        assert_eq!(r.median_ns, 100);
        assert!((r.speedup().unwrap() - 2.5).abs() < 1e-9);
        assert!(r.to_json_line().contains("\"speedup\": 2.500"));
    }

    #[test]
    fn emit_merges_by_name() {
        let path = temp_json("merge");
        let _ = fs::remove_file(&path);

        let mut a = BenchJson::new();
        a.record("alpha", Duration::from_nanos(10));
        a.record("beta", Duration::from_nanos(20));
        a.emit(&path);

        let mut b = BenchJson::new();
        b.record("beta", Duration::from_nanos(99)); // overwrite
        b.record("gamma", Duration::from_nanos(30));
        b.emit(&path);

        let text = fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"alpha\""));
        assert!(text.contains("\"gamma\""));
        assert!(text.contains("\"median_ns\": 99"));
        assert!(!text.contains("\"median_ns\": 20"));
        // Well-formed wrapper.
        assert!(text.starts_with("{\"records\": ["));
        assert!(text.trim_end().ends_with("]}"));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn output_path_is_the_override_or_named_after_the_bench() {
        assert_eq!(
            path_for("sharded", None),
            PathBuf::from("BENCH_sharded.json")
        );
        assert_eq!(
            path_for("context", Some(OsString::from("out/all.json"))),
            PathBuf::from("out/all.json")
        );
    }

    #[test]
    fn time_median_measures_something() {
        let d = time_median(Duration::from_millis(5), || {
            std::hint::black_box((0..100u64).sum::<u64>())
        });
        assert!(d > Duration::ZERO);
    }
}
