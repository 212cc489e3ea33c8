//! Per-kernel microbenchmark samples and their wall-clock regression gate.
//!
//! The `lithohd-profile` binary times the hot kernels (block DCT, GMM EM,
//! diversity, aerial convolution, one clip label, hotspot-model inference
//! and training, and the QP diversity baseline) with a fixed warmup and a
//! median over repeated batched samples, then writes the measurements as a
//! JSON array of [`KernelSample`]s. A committed copy
//! (`BENCH_kernels.json`) is the baseline that `lithohd-report gate
//! --tolerance-time` compares fresh runs against, so a kernel that silently
//! gets slower fails CI the same way an accuracy regression does.
//!
//! This module holds only the clock-free half: the sample record, baseline
//! loading, shape detection, and the gate evaluation (reusing the journal's
//! [`GateCheck`]/[`GateOutcome`] machinery). All `Instant` use stays in the
//! binary.

use crate::journal::{GateCheck, GateOutcome};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// One kernel's microbench measurement.
///
/// `median_ns` is the per-iteration wall time: each timed sample executes
/// `batch` back-to-back iterations (amortising timer overhead, the batched
/// idiom), divides by `batch`, and the median over `samples` such repeats is
/// recorded. The median makes single scheduler hiccups invisible, which is
/// what lets a CI gate use these numbers at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelSample {
    /// Kernel label: `dct`, `gmm_em`, `diversity`, `aerial`, `label`,
    /// `dense_infer`, `dense_train`, or `qp_diversity`.
    pub kernel: String,
    /// Median per-iteration wall time in nanoseconds.
    pub median_ns: u64,
    /// Number of timed samples the median was taken over.
    pub samples: usize,
    /// Iterations folded into each timed sample.
    pub batch: usize,
}

/// Median of raw per-iteration timings, in nanoseconds.
///
/// Even-length inputs take the lower middle (a real measurement rather than
/// an average of two), and an empty input yields zero.
pub fn median_ns(mut timings: Vec<u64>) -> u64 {
    if timings.is_empty() {
        return 0;
    }
    timings.sort_unstable();
    timings[(timings.len() - 1) / 2]
}

/// Loads a committed kernel baseline (a JSON array of [`KernelSample`]s).
///
/// # Errors
///
/// Returns a human-readable message when the file cannot be read or parsed.
pub fn load_kernel_baseline(path: impl AsRef<Path>) -> Result<Vec<KernelSample>, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read kernel baseline {}: {e}", path.display()))?;
    serde_json::from_str(&text)
        .map_err(|e| format!("cannot parse kernel baseline {}: {e}", path.display()))
}

/// Whether a baseline file holds kernel samples rather than method results.
///
/// `lithohd-report gate` accepts both baseline shapes and dispatches on the
/// content: a kernel baseline is a JSON array whose first object carries a
/// `kernel` key, which no [`crate::methods::MethodResult`] row has.
pub fn looks_like_kernel_baseline(text: &str) -> bool {
    let Ok(value) = serde_json::from_str::<serde_json::Value>(text) else {
        return false;
    };
    value
        .as_array()
        .and_then(|rows| rows.first())
        .is_some_and(|row| row.get("kernel").is_some())
}

/// Gates fresh kernel measurements against a committed baseline.
///
/// Every baseline kernel must appear in `measured` (a missing kernel is a
/// structural error, not a pass), and its median must stay at or under
/// `time_factor` × the baseline median. Kernels measured but absent from the
/// baseline are ignored — a new kernel lands by regenerating the baseline.
pub fn evaluate_kernel_gate(
    measured: &[KernelSample],
    baseline: &[KernelSample],
    time_factor: f64,
) -> GateOutcome {
    let mut outcome = GateOutcome::default();
    if baseline.is_empty() {
        outcome.errors.push("kernel baseline is empty".to_string());
        return outcome;
    }
    if !(time_factor.is_finite() && time_factor > 0.0) {
        outcome
            .errors
            .push(format!("time factor must be positive, got {time_factor}"));
        return outcome;
    }
    for entry in baseline {
        let Some(fresh) = measured.iter().find(|s| s.kernel == entry.kernel) else {
            outcome
                .errors
                .push(format!("kernel `{}` was not measured", entry.kernel));
            continue;
        };
        let bound = entry.median_ns as f64 * time_factor;
        outcome.checks.push(GateCheck {
            method: entry.kernel.clone(),
            metric: "kernel_ns",
            baseline: entry.median_ns as f64,
            measured: fresh.median_ns as f64,
            bound,
            ok: fresh.median_ns as f64 <= bound,
        });
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(kernel: &str, median_ns: u64) -> KernelSample {
        KernelSample {
            kernel: kernel.to_string(),
            median_ns,
            samples: 9,
            batch: 32,
        }
    }

    #[test]
    fn median_takes_the_middle_sample() {
        assert_eq!(median_ns(vec![5, 1, 9]), 5);
        assert_eq!(median_ns(vec![4, 2, 8, 6]), 4); // lower middle
        assert_eq!(median_ns(vec![7]), 7);
        assert_eq!(median_ns(vec![]), 0);
    }

    #[test]
    fn samples_roundtrip_through_json() {
        let rows = vec![sample("dct", 1200), sample("aerial", 88_000)];
        let mut buf = Vec::new();
        serde_json::to_writer(&mut buf, &rows).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let back: Vec<KernelSample> = serde_json::from_str(&text).unwrap();
        assert_eq!(back, rows);
        assert!(looks_like_kernel_baseline(&text));
    }

    #[test]
    fn method_baselines_are_not_kernel_baselines() {
        let pshd = r#"[{"method":"Ours","benchmark":"iccad-2012","accuracy":0.97,
                        "litho":312.0,"elapsed":4.2}]"#;
        assert!(!looks_like_kernel_baseline(pshd));
        assert!(!looks_like_kernel_baseline("not json"));
        assert!(!looks_like_kernel_baseline("[]"));
        assert!(!looks_like_kernel_baseline("{\"kernel\":\"dct\"}"));
    }

    #[test]
    fn gate_passes_within_the_factor_and_fails_beyond_it() {
        let baseline = vec![sample("dct", 1000), sample("aerial", 4000)];
        let ok = evaluate_kernel_gate(
            &[sample("dct", 2900), sample("aerial", 4000)],
            &baseline,
            3.0,
        );
        assert!(ok.passed(), "{:?}", ok.checks);
        assert_eq!(ok.checks.len(), 2);
        assert!(ok.checks.iter().all(|c| c.metric == "kernel_ns"));

        let slow = evaluate_kernel_gate(
            &[sample("dct", 3001), sample("aerial", 4000)],
            &baseline,
            3.0,
        );
        assert!(!slow.passed());
        let failed: Vec<_> = slow.checks.iter().filter(|c| !c.ok).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].method, "dct");
        assert_eq!(failed[0].bound, 3000.0);
    }

    #[test]
    fn missing_kernels_fail_structurally() {
        let outcome = evaluate_kernel_gate(
            &[sample("dct", 500)],
            &[sample("dct", 1000), sample("gmm_em", 2000)],
            2.0,
        );
        assert!(!outcome.passed());
        assert!(outcome.errors.iter().any(|e| e.contains("gmm_em")));
        assert_eq!(outcome.checks.len(), 1); // the present kernel still checked
    }

    #[test]
    fn degenerate_inputs_are_structural_errors() {
        assert!(!evaluate_kernel_gate(&[], &[], 2.0).passed());
        let baseline = vec![sample("dct", 1000)];
        assert!(!evaluate_kernel_gate(&baseline, &baseline, 0.0).passed());
        assert!(!evaluate_kernel_gate(&baseline, &baseline, f64::NAN).passed());
    }
}
