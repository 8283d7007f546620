//! `ajd-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_warm|analyze_cold|live_ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run executes a fixed number of operations (a function of
//! `--seconds` only, sized so a run measures for about that long), checks
//! every answer against a reference computed outside the timed windows,
//! and prints one JSON object as the last line of standard output.  With
//! `--trace 0` it carries the end-to-end metrics; with `--trace 1` the
//! per-layer metrics of the traced run.  See `perfbench/README.md`.

mod analyze_cold;
mod data;
mod layers;
mod live_ingest;
mod serve_warm;
mod stats;
mod trace;

use stats::{median, percentile};
use std::process::ExitCode;
use trace::Tracer;

/// What one pass over a workload's op stream measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Client-side latency of each timed op, ms.
    pub latencies_ms: Vec<f64>,
    /// Latencies per op class (diagnostics, printed to stderr).
    pub classes: Vec<(&'static str, Vec<f64>)>,
    /// Ops per slice of the stream for [`Outcome::throughput`]: whole
    /// blocks of the workload's op mix, so every slice has the same
    /// composition.
    pub slice_ops: usize,
    /// Ops attempted in the timed window.
    pub attempted: u64,
    /// Ops that errored or whose answer differed from the reference.
    pub failed: u64,
    /// Cold/warm guard violations (counter checks), with a description.
    pub guard_violations: Vec<String>,
    /// Digest of the data and op stream.
    pub digest: u64,
}

impl Outcome {
    /// Records one op's latency under `class`.
    pub fn record(&mut self, class: &'static str, ms: f64) {
        self.latencies_ms.push(ms);
        match self.classes.iter_mut().find(|(c, _)| *c == class) {
            Some((_, v)) => v.push(ms),
            None => self.classes.push((class, vec![ms])),
        }
    }

    /// Correctly completed ops per second of op latency: the op stream is
    /// cut into slices of [`Outcome::slice_ops`], each slice's rate is its
    /// ops over its summed latency, and the median slice rate is scaled by
    /// the share of ops that completed correctly.  The median keeps a host
    /// stall in one slice from moving the whole run.
    pub fn throughput(&self) -> f64 {
        let rates: Vec<f64> = self
            .latencies_ms
            .chunks(self.slice_ops.max(1))
            .map(|slice| slice.len() as f64 * 1e3 / slice.iter().sum::<f64>())
            .collect();
        median(&rates) * (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }

    /// Summed latency of every timed op, s.
    fn busy_s(&self) -> f64 {
        self.latencies_ms.iter().sum::<f64>() / 1e3
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.guard_violations.is_empty()
    }

    fn report_diagnostics(&self, label: &str) {
        eprintln!(
            "[{label}] ops={} failed={} busy={:.3}s throughput={:.2}/s p50={:.3}ms p90={:.3}ms digest={:016x}",
            self.attempted,
            self.failed,
            self.busy_s(),
            self.throughput(),
            percentile(&self.latencies_ms, 0.5),
            percentile(&self.latencies_ms, 0.9),
            self.digest
        );
        let n = self.latencies_ms.len() as f64;
        for (class, v) in &self.classes {
            eprintln!(
                "[{label}]   {class:<16} share={:5.1}% p10={:.3} p50={:.3} p90={:.3} ms",
                100.0 * v.len() as f64 / n,
                percentile(v, 0.1),
                percentile(v, 0.5),
                percentile(v, 0.9)
            );
        }
        for v in &self.guard_violations {
            eprintln!("[{label}] guard violated: {v}");
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)? == 1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Runs one pass of `workload`.
fn run(workload: &str, seed: u64, seconds: u64, tracer: Option<&Tracer>) -> Option<Outcome> {
    match workload {
        "serve_warm" => Some(serve_warm::run(seed, seconds, tracer)),
        "analyze_cold" => Some(analyze_cold::run(seed, seconds, tracer)),
        "live_ingest" => Some(live_ingest::run(seed, seconds, tracer)),
        _ => None,
    }
}

/// One metric of the result line.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// glibc malloc tunable the workloads run under.  With the default
/// per-thread arenas, peak RSS depends on which arena each server thread
/// happens to get and varied by a third between identical runs; a single
/// arena makes it repeat.
const MALLOC_TUNABLE: &str = "glibc.malloc.arena_max=1";

/// glibc reads its tunables at start-up, so a process started without
/// [`MALLOC_TUNABLE`] replaces itself (`exec`, no child process) with the
/// same command under it.  Returns only if that fails.
fn exec_with_malloc_tunable() -> std::io::Error {
    use std::os::unix::process::CommandExt;
    let current = std::env::var("GLIBC_TUNABLES").unwrap_or_default();
    let tunables = if current.is_empty() {
        MALLOC_TUNABLE.to_owned()
    } else {
        format!("{current}:{MALLOC_TUNABLE}")
    };
    match std::env::current_exe() {
        Ok(exe) => std::process::Command::new(exe)
            .args(std::env::args_os().skip(1))
            .env("GLIBC_TUNABLES", tunables)
            .exec(),
        Err(e) => e,
    }
}

fn main() -> ExitCode {
    if !std::env::var("GLIBC_TUNABLES").is_ok_and(|t| t.contains("glibc.malloc.arena_max")) {
        let e = exec_with_malloc_tunable();
        eprintln!("perfbench: could not re-run with {MALLOC_TUNABLE}: {e}");
        return ExitCode::from(1);
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let probe_before = stats::host_probe_ms();
    let (outcome, metrics) = if args.trace {
        let Some(untraced) = run(&args.workload, args.seed, args.seconds, None) else {
            eprintln!("perfbench: unknown workload {:?}", args.workload);
            return ExitCode::from(2);
        };
        untraced.report_diagnostics("untraced");
        let tracer = Tracer::default();
        let traced = run(&args.workload, args.seed, args.seconds, Some(&tracer))
            .expect("workload name was accepted above");
        traced.report_diagnostics("traced");
        let mut metrics = layers::measure(args.seed, &tracer);
        let probe_after = stats::host_probe_ms();
        let untraced_tp = untraced.throughput();
        let traced_tp = traced.throughput();
        metrics.extend([
            metric(
                "workload.latency_p99_ms",
                percentile(&untraced.latencies_ms, 0.99),
                "ms",
            ),
            metric(
                "workload.latency_max_ms",
                percentile(&untraced.latencies_ms, 1.0),
                "ms",
            ),
            metric("trace.untraced_throughput_ops_s", untraced_tp, "ops/s"),
            metric("trace.traced_throughput_ops_s", traced_tp, "ops/s"),
            metric("trace.overhead_ops_s", untraced_tp - traced_tp, "ops/s"),
            metric("trace.spans", tracer.len() as f64, "count"),
            metric("host.probe_before_ms", probe_before, "ms"),
            metric("host.probe_after_ms", probe_after, "ms"),
        ]);
        let path = std::path::PathBuf::from(format!(
            "perfbench/traces/{}-seed{}.tsv",
            args.workload, args.seed
        ));
        match tracer.write_tsv(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
        let mut outcome = traced;
        outcome.attempted += untraced.attempted;
        outcome.failed += untraced.failed;
        outcome.guard_violations.extend(untraced.guard_violations);
        if outcome.digest != untraced.digest {
            outcome
                .guard_violations
                .push("traced and untraced passes ran different op streams".to_owned());
        }
        (outcome, metrics)
    } else {
        let Some(outcome) = run(&args.workload, args.seed, args.seconds, None) else {
            eprintln!("perfbench: unknown workload {:?}", args.workload);
            return ExitCode::from(2);
        };
        outcome.report_diagnostics("run");
        let probe_after = stats::host_probe_ms();
        eprintln!("host probe: before {probe_before:.3} ms, after {probe_after:.3} ms");
        let metrics = vec![
            metric("setup_s", median(&outcome.setup_s), "s"),
            metric("throughput_ops_s", outcome.throughput(), "ops/s"),
            metric(
                "latency_p50_ms",
                percentile(&outcome.latencies_ms, 0.5),
                "ms",
            ),
            metric(
                "latency_p90_ms",
                percentile(&outcome.latencies_ms, 0.9),
                "ms",
            ),
            metric("peak_rss_mb", stats::peak_rss_mb(), "MB"),
        ];
        (outcome, metrics)
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        return ExitCode::from(1);
    }
    println!(
        "workload={} seed={} stream_digest={:016x}",
        args.workload, args.seed, outcome.digest
    );
    println!(
        "{}",
        result_line(
            outcome.correct(),
            outcome.attempted,
            outcome.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}
