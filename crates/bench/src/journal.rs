//! Typed parsing of JSONL run journals (written by `--journal`) plus the
//! regression-gate evaluation used by `lithohd-report gate` and CI.
//!
//! A journal is one JSON object per line, tagged `"type":"event"` or
//! `"type":"snapshot"` (see `hotspot-telemetry`'s `JsonlSink`). This module
//! lifts the ad-hoc line filtering previously duplicated across the
//! integration tests into one parser that tolerates truncated trailing
//! lines (a killed run must still be reportable) and exposes the paper's
//! per-iteration quantities as typed rows.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;

use serde_json::Value;

use crate::MethodResult;

/// A parsed journal: raw records plus a count of unreadable lines.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    /// Every line that parsed as a JSON object, in file order.
    pub records: Vec<Value>,
    /// Lines that failed to parse (e.g. a line truncated by `kill -9`);
    /// they are skipped, never fatal.
    pub skipped_lines: usize,
}

/// One `iteration complete` journal event — the Algorithm 2 loop state
/// (temperature → Eq. 4, ω₁/ω₂ → Eq. 13) the paper's figures are built
/// from.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Run the iteration belongs to.
    pub run_id: u64,
    /// 1-based iteration number.
    pub iteration: u64,
    /// Fitted softmax temperature `T` (Eq. 4).
    pub temperature: f64,
    /// Expected calibration error on the validation split.
    pub ece: f64,
    /// Clips selected into this iteration's batch.
    pub batch_size: u64,
    /// Hotspots among the batch labels (batch yield).
    pub batch_hotspots: u64,
    /// Labelled-set size after the batch.
    pub labeled_size: u64,
    /// Final training loss of the iteration's update.
    pub train_loss: f64,
    /// Labels that never arrived (faulty oracle giveups).
    pub failed_labels: u64,
    /// Entropy weights `(ω₁, ω₂)` when the selector computes them.
    pub omega: Option<(f64, f64)>,
}

/// One `run complete` journal event: the run's headline quantities
/// (accuracy → Eq. 1, litho → Eq. 2) plus the fault meters.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Process-unique run id.
    pub run_id: u64,
    /// Batch-selector name (`entropy`, `ts`, `qp`, `random`).
    pub selector: String,
    /// Detection accuracy in `[0, 1]` (Eq. 1).
    pub accuracy: f64,
    /// Litho-clip overhead (Eq. 2).
    pub litho: u64,
    /// False alarms verified at detection time.
    pub false_alarms: u64,
    /// Validation ECE before temperature scaling.
    pub ece_before: f64,
    /// Validation ECE after temperature scaling.
    pub ece_after: f64,
    /// Whether the run degraded under oracle faults.
    pub degraded: bool,
    /// Labels that never arrived across the run.
    pub label_failures: u64,
    /// Oracle retries absorbed by the backoff policy.
    pub oracle_retries: u64,
    /// Queries abandoned after exhausting retries.
    pub oracle_giveups: u64,
    /// Labels cast as quorum votes.
    pub quorum_votes: u64,
    /// Measured PSHD wall-clock milliseconds.
    pub elapsed_ms: u64,
}

/// One `clip selected` journal event: a clip picked by the selector in one
/// sampling iteration, with the scores it was weighed by. The per-run
/// sequence of these events is the selection map of the run.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionRecord {
    /// Run the selection belongs to.
    pub run_id: u64,
    /// 1-based iteration number.
    pub iteration: u64,
    /// Benchmark clip index of the pick.
    pub clip: u64,
    /// 0-based position within the iteration's batch.
    pub rank: u64,
    /// Boundary-weighted entropy score at selection time (Eq. 7).
    pub uncertainty: f64,
    /// Embedding-space diversity score at selection time (Eq. 10).
    pub diversity: f64,
}

/// One `calibration bin` journal event: an occupied reliability-diagram bin
/// at one calibration measurement. Grouping by `(run_id, stage, iteration)`
/// reconstructs the full diagram.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationBinRecord {
    /// Run the measurement belongs to.
    pub run_id: u64,
    /// Measurement stage: `before`, `iteration`, or `after`.
    pub stage: String,
    /// Iteration number for `iteration`-stage measurements; 0 otherwise.
    pub iteration: u64,
    /// 0-based bin index.
    pub bin: u64,
    /// Inclusive lower confidence edge.
    pub lower: f64,
    /// Upper confidence edge.
    pub upper: f64,
    /// Predictions in the bin.
    pub count: u64,
    /// Mean predicted confidence in the bin.
    pub confidence: f64,
    /// Empirical accuracy in the bin.
    pub accuracy: f64,
}

/// One `benchmark ready` journal event: the generated benchmark's spec and
/// seed. Enough to re-synthesize every clip's geometry offline.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkRecord {
    /// Benchmark name (e.g. `ICCAD12`).
    pub benchmark: String,
    /// Total clips generated.
    pub clips: u64,
    /// Generation seed.
    pub seed: u64,
    /// Technology node identifier (`Tech::name`).
    pub tech: String,
    /// Requested hotspot count.
    pub hotspots: u64,
    /// Requested non-hotspot count.
    pub non_hotspots: u64,
    /// Duplicate-clip rate of the spec.
    pub dup_rate: f64,
    /// Near-miss rate of the spec.
    pub near_miss_rate: f64,
}

/// One `shard worker lost` journal event: a labelling worker that panicked
/// or hung mid-batch, and how many clips the coordinator had to reassign.
///
/// Canonical journals withhold the `shard.coordinator` target, so this list
/// is empty there by design; provenance (non-canonical) journals keep the
/// full incident log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardIncidentRecord {
    /// 1-based labelling-batch ordinal the worker was lost on.
    pub batch: u64,
    /// Shard (worker) index within the batch.
    pub shard: u64,
    /// `true` when the worker panicked; `false` when it hung past the
    /// coordinator's deadline.
    pub dead: bool,
    /// Clips reassigned to a recovery round.
    pub orphaned: u64,
}

/// Aggregate view of one histogram in a journal snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramStats {
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Mean observation.
    pub mean: f64,
    /// Smallest observation, when any.
    pub min: Option<f64>,
    /// Largest observation, when any.
    pub max: Option<f64>,
    /// Estimated median.
    pub p50: Option<f64>,
    /// Estimated 95th percentile.
    pub p95: Option<f64>,
    /// Estimated 99th percentile.
    pub p99: Option<f64>,
}

/// The counters/gauges/histograms of a `"type":"snapshot"` record.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotStats {
    /// Counter values by dotted name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by dotted name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by dotted name.
    pub histograms: BTreeMap<String, HistogramStats>,
}

fn get_u64(value: &Value, key: &str) -> Option<u64> {
    value.get(key).and_then(Value::as_u64)
}

fn get_f64(value: &Value, key: &str) -> Option<f64> {
    value.get(key).and_then(Value::as_f64)
}

fn get_str<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    value.get(key).and_then(Value::as_str)
}

impl Journal {
    /// Parses journal text, skipping (and counting) unreadable lines.
    pub fn parse_str(text: &str) -> Journal {
        let mut journal = Journal::default();
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            match serde_json::from_str::<Value>(line) {
                Ok(record) if record.get("type").is_some() => journal.records.push(record),
                _ => journal.skipped_lines += 1,
            }
        }
        journal
    }

    /// Reads and parses a journal file.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file cannot be read; unreadable
    /// *lines* are counted in [`Journal::skipped_lines`] instead.
    pub fn read(path: impl AsRef<Path>) -> io::Result<Journal> {
        Ok(Self::parse_str(&std::fs::read_to_string(path)?))
    }

    /// All `"type":"event"` records, in journal order.
    pub fn events(&self) -> impl Iterator<Item = &Value> {
        self.records
            .iter()
            .filter(|r| get_str(r, "type") == Some("event"))
    }

    /// Events with a given `message`, in journal order.
    pub fn events_with_message<'a>(&'a self, message: &'a str) -> impl Iterator<Item = &'a Value> {
        self.events()
            .filter(move |r| get_str(r, "message") == Some(message))
    }

    /// Every `iteration complete` event as a typed row, in journal order.
    pub fn iterations(&self) -> Vec<IterationRecord> {
        self.events_with_message(hotspot_telemetry::names::EVENT_ITERATION_COMPLETE)
            .filter_map(|event| {
                Some(IterationRecord {
                    run_id: get_u64(event, "run_id")?,
                    iteration: get_u64(event, "iteration")?,
                    temperature: get_f64(event, "temperature")?,
                    ece: get_f64(event, "ece").unwrap_or(f64::NAN),
                    batch_size: get_u64(event, "batch_size").unwrap_or(0),
                    batch_hotspots: get_u64(event, "batch_hotspots").unwrap_or(0),
                    labeled_size: get_u64(event, "labeled_size")?,
                    train_loss: get_f64(event, "train_loss").unwrap_or(f64::NAN),
                    failed_labels: get_u64(event, "failed_labels").unwrap_or(0),
                    omega: match (get_f64(event, "omega1"), get_f64(event, "omega2")) {
                        (Some(w1), Some(w2)) => Some((w1, w2)),
                        _ => None,
                    },
                })
            })
            .collect()
    }

    /// Every `clip selected` event as a typed row, in journal order.
    pub fn selections(&self) -> Vec<SelectionRecord> {
        self.events_with_message(hotspot_telemetry::names::EVENT_CLIP_SELECTED)
            .filter_map(|event| {
                Some(SelectionRecord {
                    run_id: get_u64(event, "run_id")?,
                    iteration: get_u64(event, "iteration")?,
                    clip: get_u64(event, "clip")?,
                    rank: get_u64(event, "rank").unwrap_or(0),
                    uncertainty: get_f64(event, "uncertainty").unwrap_or(f64::NAN),
                    diversity: get_f64(event, "diversity").unwrap_or(f64::NAN),
                })
            })
            .collect()
    }

    /// Every `calibration bin` event as a typed row, in journal order.
    pub fn calibration_bins(&self) -> Vec<CalibrationBinRecord> {
        self.events_with_message(hotspot_telemetry::names::EVENT_CALIBRATION_BIN)
            .filter_map(|event| {
                Some(CalibrationBinRecord {
                    run_id: get_u64(event, "run_id")?,
                    stage: get_str(event, "stage")?.to_string(),
                    iteration: get_u64(event, "iteration").unwrap_or(0),
                    bin: get_u64(event, "bin")?,
                    lower: get_f64(event, "lower")?,
                    upper: get_f64(event, "upper")?,
                    count: get_u64(event, "count").unwrap_or(0),
                    confidence: get_f64(event, "confidence").unwrap_or(f64::NAN),
                    accuracy: get_f64(event, "accuracy").unwrap_or(f64::NAN),
                })
            })
            .collect()
    }

    /// Every `benchmark ready` event as a typed row, in journal order.
    /// Events from journals written before the spec fields existed (no
    /// `seed`/`tech`) are skipped — their geometry is not reconstructible.
    pub fn benchmarks(&self) -> Vec<BenchmarkRecord> {
        self.events_with_message(hotspot_telemetry::names::EVENT_BENCHMARK_READY)
            .filter_map(|event| {
                Some(BenchmarkRecord {
                    benchmark: get_str(event, "benchmark")?.to_string(),
                    clips: get_u64(event, "clips")?,
                    seed: get_u64(event, "seed")?,
                    tech: get_str(event, "tech")?.to_string(),
                    hotspots: get_u64(event, "hotspots")?,
                    non_hotspots: get_u64(event, "non_hotspots")?,
                    dup_rate: get_f64(event, "dup_rate").unwrap_or(0.0),
                    near_miss_rate: get_f64(event, "near_miss_rate").unwrap_or(0.0),
                })
            })
            .collect()
    }

    /// Every `shard worker lost` event as a typed row, in journal order.
    pub fn shard_incidents(&self) -> Vec<ShardIncidentRecord> {
        self.events_with_message(hotspot_telemetry::names::EVENT_SHARD_WORKER_LOST)
            .filter_map(|event| {
                Some(ShardIncidentRecord {
                    batch: get_u64(event, "batch")?,
                    shard: get_u64(event, "shard")?,
                    dead: event.get("dead").and_then(Value::as_bool).unwrap_or(true),
                    orphaned: get_u64(event, "orphaned").unwrap_or(0),
                })
            })
            .collect()
    }

    /// Every `run complete` event as a typed row, in journal order.
    pub fn runs(&self) -> Vec<RunRecord> {
        self.events_with_message(hotspot_telemetry::names::EVENT_RUN_COMPLETE)
            .filter_map(|event| {
                Some(RunRecord {
                    run_id: get_u64(event, "run_id")?,
                    selector: get_str(event, "selector")?.to_string(),
                    accuracy: get_f64(event, "accuracy")?,
                    litho: get_u64(event, "litho")?,
                    false_alarms: get_u64(event, "false_alarms").unwrap_or(0),
                    ece_before: get_f64(event, "ece_before").unwrap_or(f64::NAN),
                    ece_after: get_f64(event, "ece_after").unwrap_or(f64::NAN),
                    degraded: event
                        .get("degraded")
                        .and_then(Value::as_bool)
                        .unwrap_or(false),
                    label_failures: get_u64(event, "label_failures").unwrap_or(0),
                    oracle_retries: get_u64(event, "oracle_retries").unwrap_or(0),
                    oracle_giveups: get_u64(event, "oracle_giveups").unwrap_or(0),
                    quorum_votes: get_u64(event, "quorum_votes").unwrap_or(0),
                    elapsed_ms: get_u64(event, "elapsed_ms").unwrap_or(0),
                })
            })
            .collect()
    }

    /// The last `"type":"snapshot"` record, decoded (a journal normally
    /// ends with exactly one).
    pub fn final_snapshot(&self) -> Option<SnapshotStats> {
        let snapshot = self
            .records
            .iter()
            .rev()
            .find(|r| get_str(r, "type") == Some("snapshot"))?;
        let metrics = snapshot.get("metrics")?;
        let mut stats = SnapshotStats::default();
        if let Some(Value::Map(counters)) = metrics.get("counters") {
            for (name, value) in counters {
                if let Some(v) = value.as_u64() {
                    stats.counters.insert(name.clone(), v);
                }
            }
        }
        if let Some(Value::Map(gauges)) = metrics.get("gauges") {
            for (name, value) in gauges {
                if let Some(v) = value.as_f64() {
                    stats.gauges.insert(name.clone(), v);
                }
            }
        }
        if let Some(Value::Map(histograms)) = metrics.get("histograms") {
            for (name, h) in histograms {
                stats.histograms.insert(
                    name.clone(),
                    HistogramStats {
                        count: get_u64(h, "count").unwrap_or(0),
                        sum: get_f64(h, "sum").unwrap_or(0.0),
                        mean: get_f64(h, "mean").unwrap_or(0.0),
                        min: get_f64(h, "min"),
                        max: get_f64(h, "max"),
                        p50: get_f64(h, "p50"),
                        p95: get_f64(h, "p95"),
                        p99: get_f64(h, "p99"),
                    },
                );
            }
        }
        Some(stats)
    }

    /// Every `"type":"resume"` header record — written when a checkpointed
    /// run continues an interrupted journal — as `(iteration, checkpoint)`
    /// pairs in journal order. Canonical journals never contain these.
    pub fn resumes(&self) -> Vec<(u64, u64)> {
        self.records
            .iter()
            .filter(|r| get_str(r, "type") == Some("resume"))
            .filter_map(|r| Some((get_u64(r, "iteration")?, get_u64(r, "checkpoint")?)))
            .collect()
    }

    /// Wall-clock microseconds of every closed span, grouped by span path
    /// (from the `profile` events journals capture at span close).
    pub fn span_durations_us(&self) -> BTreeMap<String, Vec<f64>> {
        let mut spans: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for event in self.events() {
            if get_str(event, "target") != Some("profile") {
                continue;
            }
            if let (Some(path), Some(us)) = (get_str(event, "span"), get_u64(event, "duration_us"))
            {
                spans.entry(path.to_string()).or_default().push(us as f64);
            }
        }
        spans
    }
}

/// Nearest-rank percentile of an unsorted sample (`q` in `[0, 1]`);
/// `None` when the sample is empty.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Table II method label for a journal selector name, when it maps to one
/// of the benchmarked methods.
pub fn method_for_selector(selector: &str) -> Option<&'static str> {
    match selector {
        "entropy" => Some("Ours"),
        "ts" => Some("TS"),
        "qp" => Some("QP"),
        "random" => Some("Random"),
        _ => None,
    }
}

/// Regression tolerances for [`evaluate_gate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateTolerances {
    /// Allowed accuracy drop in percentage points (e.g. `0.5`).
    pub accuracy_points: f64,
    /// Allowed Litho# increase in percent of the baseline (e.g. `0` for
    /// "not one extra simulation").
    pub litho_percent: f64,
    /// Allowed wall-time factor over the baseline (e.g. `2.0`); `None`
    /// disables the latency check (CI machines vary).
    pub time_factor: Option<f64>,
}

impl Default for GateTolerances {
    fn default() -> Self {
        GateTolerances {
            accuracy_points: 0.5,
            litho_percent: 0.0,
            time_factor: None,
        }
    }
}

/// One comparison of the gate: a (method, metric) pair against its bound.
#[derive(Debug, Clone, PartialEq)]
pub struct GateCheck {
    /// Method label (`Ours`, `TS`, …).
    pub method: String,
    /// Compared metric (`accuracy`, `litho`, `wall_time`).
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Measured value (averaged over the journal's runs of the method).
    pub measured: f64,
    /// The measured value's pass bound under the tolerances.
    pub bound: f64,
    /// Whether the measurement is within the bound.
    pub ok: bool,
}

/// Result of gating a journal against a committed baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GateOutcome {
    /// All performed comparisons.
    pub checks: Vec<GateCheck>,
    /// Structural problems (no runs, no overlapping methods, …); any entry
    /// fails the gate.
    pub errors: Vec<String>,
}

impl GateOutcome {
    /// Whether every check passed and no structural error occurred.
    pub fn passed(&self) -> bool {
        self.errors.is_empty() && self.checks.iter().all(|c| c.ok)
    }
}

/// Gates a journal against a committed baseline: every baseline method
/// must have at least one completed run in the journal (a crashed partial
/// run fails rather than passing on whatever finished), the journal's mean
/// accuracy must not drop more than `accuracy_points` below the baseline,
/// mean Litho# must not exceed the baseline by more than `litho_percent`,
/// and (when enabled) mean wall time must stay under `time_factor` × the
/// baseline.
pub fn evaluate_gate(
    journal: &Journal,
    baseline: &[MethodResult],
    tolerances: &GateTolerances,
) -> GateOutcome {
    let mut outcome = GateOutcome::default();
    let runs = journal.runs();
    if runs.is_empty() {
        outcome
            .errors
            .push("journal contains no `run complete` events".to_string());
        return outcome;
    }

    // Mean (accuracy, litho, elapsed) per mapped method label.
    let mut measured: BTreeMap<&'static str, (f64, f64, f64, usize)> = BTreeMap::new();
    for run in &runs {
        if let Some(method) = method_for_selector(&run.selector) {
            let entry = measured.entry(method).or_insert((0.0, 0.0, 0.0, 0));
            entry.0 += run.accuracy;
            entry.1 += run.litho as f64;
            entry.2 += run.elapsed_ms as f64 / 1000.0;
            entry.3 += 1;
        }
    }

    if baseline.is_empty() {
        outcome.errors.push("baseline is empty".to_string());
    }
    for entry in baseline {
        let Some((acc_sum, litho_sum, secs_sum, n)) = measured.get(entry.method.as_str()) else {
            // A method the baseline covers but the journal lacks is a
            // failure, not a skip: a crashed or partial run must not pass
            // the gate on the methods it happened to finish.
            outcome.errors.push(format!(
                "baseline method {} has no completed run in the journal",
                entry.method
            ));
            continue;
        };
        let n = *n as f64;
        let (accuracy, litho, seconds) = (acc_sum / n, litho_sum / n, secs_sum / n);

        // Sharded baseline rows gate under a distinct label: their accuracy
        // and Litho# equal the base row's by worker-count invariance (so
        // those checks re-assert the invariance at gate level), while their
        // wall-time column is what shard-scaling tracking compares against
        // once `--tolerance-time` is enabled.
        let label = match entry.workers {
            Some(workers) => format!("{}@w{workers}", entry.method),
            None => entry.method.clone(),
        };

        let acc_bound = entry.accuracy - tolerances.accuracy_points / 100.0;
        outcome.checks.push(GateCheck {
            method: label.clone(),
            metric: "accuracy",
            baseline: entry.accuracy,
            measured: accuracy,
            bound: acc_bound,
            ok: accuracy >= acc_bound - 1e-12,
        });

        let litho_bound = entry.litho as f64 * (1.0 + tolerances.litho_percent / 100.0);
        outcome.checks.push(GateCheck {
            method: label.clone(),
            metric: "litho",
            baseline: entry.litho as f64,
            measured: litho,
            bound: litho_bound,
            ok: litho <= litho_bound + 1e-9,
        });

        if let Some(factor) = tolerances.time_factor {
            let time_bound = entry.elapsed.as_secs_f64() * factor;
            outcome.checks.push(GateCheck {
                method: label,
                metric: "wall_time",
                baseline: entry.elapsed.as_secs_f64(),
                measured: seconds,
                bound: time_bound,
                ok: seconds <= time_bound,
            });
        }
    }

    outcome
}

/// Loads a committed baseline (`BENCH_*.json`): a JSON array of
/// [`MethodResult`] entries, as written by the `pshd` seeder binary.
///
/// # Errors
///
/// Returns a human-readable message on I/O or parse failure.
pub fn load_baseline(path: impl AsRef<Path>) -> Result<Vec<MethodResult>, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
    serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse baseline {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn sample_journal() -> Journal {
        let text = concat!(
            r#"{"type":"event","seq":0,"target":"core.framework","message":"iteration complete","run_id":7,"iteration":1,"temperature":1.5,"ece":0.02,"batch_size":10,"batch_hotspots":3,"labeled_size":50,"train_loss":0.4,"failed_labels":0,"omega1":0.7,"omega2":0.3}"#,
            "\n",
            r#"{"type":"event","seq":1,"target":"profile","message":"nn.train","span":"run/iteration/nn.train","duration_us":1500}"#,
            "\n",
            r#"{"type":"event","seq":2,"target":"core.framework","message":"run complete","run_id":7,"selector":"entropy","accuracy":0.95,"litho":120,"false_alarms":2,"ece_before":0.05,"ece_after":0.01,"degraded":false,"label_failures":0,"oracle_retries":0,"oracle_giveups":0,"quorum_votes":0,"elapsed_ms":2500}"#,
            "\n",
            r#"{"type":"snapshot","seq":3,"metrics":{"counters":{"litho.oracle.calls":120},"gauges":{"calibration.temperature":1.5},"histograms":{"nn.train.loss":{"count":4,"sum":2.0,"mean":0.5,"min":0.25,"max":1.0,"p50":0.5,"p95":0.9,"p99":1.0,"buckets":{"2^-2":4}}}}}"#,
            "\n",
        );
        Journal::parse_str(text)
    }

    #[test]
    fn parses_selection_calibration_and_benchmark_records() {
        let text = concat!(
            r#"{"type":"event","seq":0,"target":"bench.generate","message":"benchmark ready","benchmark":"ICCAD12","clips":100,"seed":42,"tech":"Duv28","hotspots":20,"non_hotspots":80,"dup_rate":0.1,"near_miss_rate":0.2,"elapsed_ms":5}"#,
            "\n",
            r#"{"type":"event","seq":1,"target":"bench.generate","message":"benchmark ready","benchmark":"legacy","clips":10}"#,
            "\n",
            r#"{"type":"event","seq":2,"target":"core.framework","message":"clip selected","run_id":3,"iteration":2,"clip":17,"rank":0,"uncertainty":0.9,"diversity":0.4}"#,
            "\n",
            r#"{"type":"event","seq":3,"target":"core.framework","message":"calibration bin","run_id":3,"stage":"before","iteration":0,"bin":9,"lower":0.9,"upper":1.0,"count":12,"confidence":0.95,"accuracy":0.8}"#,
            "\n",
        );
        let journal = Journal::parse_str(text);

        let benchmarks = journal.benchmarks();
        // The legacy record without spec fields is skipped, not mis-parsed.
        assert_eq!(benchmarks.len(), 1);
        assert_eq!(benchmarks[0].benchmark, "ICCAD12");
        assert_eq!(benchmarks[0].seed, 42);
        assert_eq!(benchmarks[0].tech, "Duv28");
        assert_eq!(benchmarks[0].hotspots, 20);
        assert_eq!(benchmarks[0].non_hotspots, 80);
        assert_eq!(benchmarks[0].dup_rate, 0.1);
        assert_eq!(benchmarks[0].near_miss_rate, 0.2);

        let selections = journal.selections();
        assert_eq!(selections.len(), 1);
        assert_eq!(selections[0].run_id, 3);
        assert_eq!(selections[0].iteration, 2);
        assert_eq!(selections[0].clip, 17);
        assert_eq!(selections[0].rank, 0);
        assert_eq!(selections[0].uncertainty, 0.9);
        assert_eq!(selections[0].diversity, 0.4);

        let bins = journal.calibration_bins();
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].stage, "before");
        assert_eq!(bins[0].bin, 9);
        assert_eq!(bins[0].count, 12);
        assert_eq!(bins[0].confidence, 0.95);
        assert_eq!(bins[0].accuracy, 0.8);
    }

    #[test]
    fn parses_iterations_runs_snapshot_and_spans() {
        let journal = sample_journal();
        assert_eq!(journal.skipped_lines, 0);

        let iterations = journal.iterations();
        assert_eq!(iterations.len(), 1);
        assert_eq!(iterations[0].run_id, 7);
        assert_eq!(iterations[0].omega, Some((0.7, 0.3)));
        assert_eq!(iterations[0].labeled_size, 50);

        let runs = journal.runs();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].selector, "entropy");
        assert_eq!(runs[0].litho, 120);
        assert!(!runs[0].degraded);

        let snapshot = journal.final_snapshot().unwrap();
        assert_eq!(snapshot.counters.get("litho.oracle.calls"), Some(&120));
        assert_eq!(snapshot.gauges.get("calibration.temperature"), Some(&1.5));
        let hist = snapshot.histograms.get("nn.train.loss").unwrap();
        assert_eq!(hist.count, 4);
        assert_eq!(hist.p99, Some(1.0));

        let spans = journal.span_durations_us();
        assert_eq!(spans.get("run/iteration/nn.train").unwrap(), &vec![1500.0]);
    }

    #[test]
    fn resume_records_are_tolerated_and_typed() {
        let text = concat!(
            r#"{"type":"resume","seq":5,"iteration":3,"checkpoint":12}"#,
            "\n",
            r#"{"type":"event","seq":6,"target":"core.framework","message":"run complete","run_id":7,"selector":"entropy","accuracy":0.95,"litho":120,"elapsed_ms":10}"#,
            "\n",
        );
        let journal = Journal::parse_str(text);
        assert_eq!(journal.skipped_lines, 0);
        assert_eq!(journal.resumes(), vec![(3, 12)]);
        // Typed event extraction is unaffected by the interleaved header.
        assert_eq!(journal.runs().len(), 1);
    }

    #[test]
    fn shard_incidents_are_typed_and_keep_journal_order() {
        let text = concat!(
            r#"{"type":"event","seq":0,"target":"shard.coordinator","message":"shard worker lost","batch":2,"shard":1,"dead":true,"orphaned":2}"#,
            "\n",
            r#"{"type":"event","seq":1,"target":"shard.coordinator","message":"shard worker lost","batch":5,"shard":0,"dead":false,"orphaned":7}"#,
            "\n",
        );
        let journal = Journal::parse_str(text);
        let incidents = journal.shard_incidents();
        assert_eq!(incidents.len(), 2);
        assert_eq!(incidents[0].batch, 2);
        assert_eq!(incidents[0].shard, 1);
        assert!(incidents[0].dead);
        assert_eq!(incidents[0].orphaned, 2);
        assert!(!incidents[1].dead);
        assert_eq!(incidents[1].orphaned, 7);
        // Canonical journals withhold the coordinator target entirely.
        assert!(sample_journal().shard_incidents().is_empty());
    }

    #[test]
    fn truncated_trailing_line_is_skipped_not_fatal() {
        let mut text = String::new();
        text.push_str(r#"{"type":"event","message":"run complete","run_id":1,"selector":"entropy","accuracy":0.9,"litho":100,"elapsed_ms":10}"#);
        text.push('\n');
        text.push_str(r#"{"type":"snapshot","metrics":{"counters":{"litho.ora"#); // killed mid-write
        let journal = Journal::parse_str(&text);
        assert_eq!(journal.skipped_lines, 1);
        assert_eq!(journal.runs().len(), 1);
        assert!(journal.final_snapshot().is_none());
    }

    #[test]
    fn non_journal_lines_are_counted_as_skipped() {
        let journal = Journal::parse_str("not json\n42\n{\"no_type\":true}\n\n");
        assert_eq!(journal.records.len(), 0);
        assert_eq!(journal.skipped_lines, 3);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&samples, 0.5), Some(3.0));
        assert_eq!(percentile(&samples, 0.0), Some(1.0));
        assert_eq!(percentile(&samples, 1.0), Some(5.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    fn baseline() -> Vec<MethodResult> {
        vec![MethodResult {
            method: "Ours".to_string(),
            benchmark: "ICCAD12".to_string(),
            accuracy: 0.95,
            litho: 120,
            elapsed: Duration::from_secs(3),
            workers: None,
        }]
    }

    #[test]
    fn gate_passes_on_matching_metrics() {
        let outcome = evaluate_gate(&sample_journal(), &baseline(), &GateTolerances::default());
        assert!(outcome.passed(), "checks: {:?}", outcome.checks);
        assert_eq!(outcome.checks.len(), 2);
    }

    #[test]
    fn gate_fails_on_degraded_accuracy() {
        let mut base = baseline();
        base[0].accuracy = 0.99; // journal's 0.95 is far below tolerance
        let outcome = evaluate_gate(&sample_journal(), &base, &GateTolerances::default());
        assert!(!outcome.passed());
        let acc = outcome
            .checks
            .iter()
            .find(|c| c.metric == "accuracy")
            .unwrap();
        assert!(!acc.ok);
    }

    #[test]
    fn gate_fails_on_litho_regression_at_zero_tolerance() {
        let mut base = baseline();
        base[0].litho = 119; // journal used 120 — one extra simulation
        let outcome = evaluate_gate(&sample_journal(), &base, &GateTolerances::default());
        assert!(!outcome.passed());
        // A 1% tolerance forgives the single extra clip.
        let lax = GateTolerances {
            litho_percent: 1.0,
            ..GateTolerances::default()
        };
        assert!(evaluate_gate(&sample_journal(), &base, &lax).passed());
    }

    #[test]
    fn gate_reports_structural_errors() {
        let empty = Journal::parse_str("");
        let outcome = evaluate_gate(&empty, &baseline(), &GateTolerances::default());
        assert!(!outcome.passed());
        assert!(!outcome.errors.is_empty());

        let mut base = baseline();
        base[0].method = "PM-exact".to_string(); // never journalled by runs
        let outcome = evaluate_gate(&sample_journal(), &base, &GateTolerances::default());
        assert!(!outcome.passed());

        let outcome = evaluate_gate(&sample_journal(), &[], &GateTolerances::default());
        assert!(!outcome.passed(), "an empty baseline gates nothing");
    }

    #[test]
    fn gate_fails_when_a_baseline_method_is_missing_from_the_journal() {
        // The journal only completed the entropy run; a baseline that also
        // covers TS must fail — a crashed partial run is not a pass.
        let mut base = baseline();
        base.push(MethodResult {
            method: "TS".to_string(),
            benchmark: "ICCAD12".to_string(),
            accuracy: 0.9,
            litho: 130,
            elapsed: Duration::from_secs(3),
            workers: None,
        });
        let outcome = evaluate_gate(&sample_journal(), &base, &GateTolerances::default());
        assert!(!outcome.passed());
        assert!(outcome.errors.iter().any(|e| e.contains("TS")));
        // The present method's checks still run and pass.
        assert!(outcome.checks.iter().all(|c| c.ok));
    }

    #[test]
    fn gate_time_check_is_opt_in() {
        let tolerances = GateTolerances {
            time_factor: Some(1.0),
            ..GateTolerances::default()
        };
        // Journal ran in 2.5 s vs 3 s baseline: within 1.0× budget.
        let outcome = evaluate_gate(&sample_journal(), &baseline(), &tolerances);
        assert!(outcome.passed());
        assert!(outcome.checks.iter().any(|c| c.metric == "wall_time"));
    }

    #[test]
    fn worker_rows_gate_against_the_base_method_and_carry_a_distinct_label() {
        // A baseline with shard-scaling rows (`--workers-sweep`) gates an
        // unsharded journal: worker rows match by method name (accuracy and
        // Litho# are worker-count-invariant), and their checks are labelled
        // `Ours@w<N>` so the report distinguishes them from the base row.
        let mut base = baseline();
        base.push(MethodResult {
            method: "Ours".to_string(),
            benchmark: "ICCAD12".to_string(),
            accuracy: 0.95,
            litho: 120,
            elapsed: Duration::from_secs(2),
            workers: Some(4),
        });
        let outcome = evaluate_gate(&sample_journal(), &base, &GateTolerances::default());
        assert!(outcome.passed(), "checks: {:?}", outcome.checks);
        let labels: Vec<&str> = outcome.checks.iter().map(|c| c.method.as_str()).collect();
        assert!(labels.contains(&"Ours"));
        assert!(labels.contains(&"Ours@w4"));

        // With time gating on, the worker row's wall-clock column is the
        // bound the journal is held to.
        let tolerances = GateTolerances {
            time_factor: Some(2.0),
            ..GateTolerances::default()
        };
        let outcome = evaluate_gate(&sample_journal(), &base, &tolerances);
        let timed = outcome
            .checks
            .iter()
            .find(|c| c.method == "Ours@w4" && c.metric == "wall_time")
            .expect("worker row contributes a wall_time check");
        assert_eq!(timed.baseline, 2.0);
        assert_eq!(timed.bound, 4.0);
    }

    #[test]
    fn selector_method_mapping_covers_the_active_methods() {
        assert_eq!(method_for_selector("entropy"), Some("Ours"));
        assert_eq!(method_for_selector("ts"), Some("TS"));
        assert_eq!(method_for_selector("qp"), Some("QP"));
        assert_eq!(method_for_selector("random"), Some("Random"));
        assert_eq!(method_for_selector("pattern"), None);
    }
}
