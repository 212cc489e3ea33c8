//! The repository benchmark: three workloads through the public crate APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <campaign-iccad12|serve-score|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the metric names, units and directions
//! come from `BENCHMARK.json` there. With `--trace 0` the last stdout line
//! carries every end-to-end metric; with `--trace 1` a separate traced run
//! carries every per-layer metric and writes its spans under
//! `perfbench/out/`. The process exits nonzero when a correctness check
//! fails. Why each workload exists, and what it should and should not move,
//! is in `perfbench/WORKLOADS.md`.

mod campaign;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use hotspot_telemetry::MetricsSnapshot;

/// Where traced runs write spans and serve workloads keep session state.
const OUT_DIR: &str = "perfbench/out";

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value),
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("bad seconds {value:?}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        })
    }

    /// How many units of work of about `nominal_s` seconds fill the time
    /// budget. The count depends on `--seconds` only, never on how fast
    /// the host happens to be, so every run of a workload does equal work.
    pub fn units(&self, nominal_s: f64) -> usize {
        ((self.seconds / nominal_s).round() as usize).max(1)
    }

    /// A per-run scratch directory under [`OUT_DIR`].
    pub fn scratch_dir(&self, what: &str) -> PathBuf {
        PathBuf::from(OUT_DIR).join(format!(
            "{what}-{}-s{}-p{}",
            self.workload,
            self.seed,
            std::process::id()
        ))
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    values: BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
    checks_failed: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Counts one operation: a framework run, a session step, an HTTP call.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Records a correctness check; a failure counts against `success_rate`.
    pub fn check(&mut self, name: &str, ok: bool, detail: &str) {
        self.op(ok);
        if ok {
            println!("check {name}: ok ({detail})");
        } else {
            self.checks_failed += 1;
            println!("check {name}: FAILED ({detail})");
        }
    }

    /// A degenerate state that lets a workload pass without exercising
    /// what it is meant to guard; printed, and counted by the caller.
    pub fn warn(&self, message: &str) {
        println!("warning: {message}");
    }
}

struct MetricSpec {
    name: String,
    unit: String,
    better: Option<String>,
}

fn metric_specs(section: &str) -> Result<Vec<MetricSpec>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let spec: serde_json::Value =
        serde_json::from_str(&text).map_err(|e| format!("bad BENCHMARK.json: {e}"))?;
    let entries = spec
        .get(section)
        .and_then(|v| v.as_array())
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    entries
        .iter()
        .map(|entry| {
            let field = |key: &str| entry.get(key).and_then(|v| v.as_str()).map(String::from);
            Ok(MetricSpec {
                name: field("name").ok_or("metric without a name")?,
                unit: field("unit").ok_or("metric without a unit")?,
                better: field("better"),
            })
        })
        .collect()
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

fn run(args: &Args) -> Result<(Outcome, bool), String> {
    let started = Instant::now();
    let specs = metric_specs(if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    })?;
    let mut outcome = Outcome::default();
    match args.workload.as_str() {
        "campaign-iccad12" => campaign::run(args, &mut outcome)?,
        "serve-score" => serve::run_score(args, &mut outcome)?,
        "serve-mixed" => serve::run_mixed(args, &mut outcome)?,
        other => return Err(format!("unknown workload {other:?}")),
    }
    if !args.trace {
        outcome.set("peak_rss_mb", peak_rss_mb()?);
        let succeeded = outcome.attempted - outcome.failed;
        outcome.set(
            "success_rate",
            succeeded as f64 / outcome.attempted.max(1) as f64,
        );
    }

    println!(
        "{} seed {} ({}), {:.1} s in all",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        started.elapsed().as_secs_f64()
    );
    let mut json = Vec::new();
    for spec in &specs {
        let value = match outcome.values.remove(&spec.name) {
            Some(value) => value,
            // Per-layer rows a workload never loads read as zero.
            None if args.trace => 0.0,
            None => return Err(format!("workload did not measure {}", spec.name)),
        };
        if !value.is_finite() {
            return Err(format!("{} is not finite ({value})", spec.name));
        }
        let direction = spec
            .better
            .as_deref()
            .map_or(String::new(), |b| format!(" [{b}]"));
        println!("  {:<32} {value:>14.6} {}{direction}", spec.name, spec.unit);
        json.push(format!(
            "{}: {{\"value\": {value:?}, \"unit\": {}}}",
            quote(&spec.name),
            quote(&spec.unit)
        ));
    }
    if let Some(name) = outcome.values.keys().next() {
        return Err(format!(
            "{name} is measured but not listed in BENCHMARK.json"
        ));
    }
    let correct = outcome.checks_failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    Ok((outcome, correct))
}

fn quote(text: &str) -> String {
    serde_json::to_string(text).unwrap_or_else(|_| "\"?\"".to_string())
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <campaign-iccad12|serve-score|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((_, true)) => ExitCode::SUCCESS,
        Ok((_, false)) => {
            eprintln!("perfbench: a correctness check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Change of a program counter between two telemetry snapshots.
pub fn counter_delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> f64 {
    let value = |s: &MetricsSnapshot| s.counter(name).unwrap_or(0);
    value(after).saturating_sub(value(before)) as f64
}

/// Change of a histogram's `(count, sum)` between two telemetry snapshots.
pub fn histogram_delta(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    name: &str,
) -> (f64, f64) {
    let value = |s: &MetricsSnapshot| {
        s.histograms
            .iter()
            .find(|h| h.name == name)
            .map_or((0, 0.0), |h| (h.count, h.sum))
    };
    let ((c0, s0), (c1, s1)) = (value(before), value(after));
    (c1.saturating_sub(c0) as f64, s1 - s0)
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated `q`-quantile of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Prints the spans' per-name totals and self times, and writes the span
/// file for the traced run.
pub fn finish_trace(args: &Args) -> Result<(), String> {
    let spans = trace::take();
    let path = PathBuf::from(OUT_DIR).join(format!("spans-{}-s{}.json", args.workload, args.seed));
    trace::write(&path, &spans).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans: {} written to {}", spans.len(), path.display());
    println!(
        "  {:<28} {:>7} {:>11} {:>11}",
        "span", "count", "total_s", "self_s"
    );
    let mut rows: Vec<_> = trace::self_times(&spans).into_iter().collect();
    rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
    for (name, (count, total, own)) in rows {
        println!("  {name:<28} {count:>7} {total:>11.4} {own:>11.4}");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn args_reject_bad_trace() {
        let raw = ["--workload", "x", "--trace", "2"].map(String::from);
        assert!(Args::parse(raw.into_iter()).is_err());
    }
}
