//! Crash/resume equivalence: a `pshd` invocation killed mid-run and resumed
//! from its newest checkpoint must reproduce the uninterrupted run exactly —
//! the canonical journal byte for byte, and every method's accuracy and
//! Litho# in the JSON results. This exercises the whole persistence stack:
//! atomic checkpoint commits, journal truncate-and-append, restored model /
//! dataset / score-order / oracle-cache state, and replay of
//! already-completed runs without re-billing a single litho simulation.

use std::path::Path;
use std::process::Command;

/// Matches `hotspot_bench::CRASH_EXIT_CODE` (integration tests run in a
/// separate process; the constant is re-stated here so a silent change to
/// the crash contract fails this test).
const CRASH_EXIT_CODE: i32 = 3;

fn pshd(out: &Path, journal: &Path, ckpt: &Path, extra: &[&str]) -> std::process::ExitStatus {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pshd"));
    cmd.args(["--scale", "0.005", "--seed", "7", "--repeats", "1", "--out"])
        .arg(out)
        .arg("--journal")
        .arg(journal)
        .arg("--canonical-journal")
        .arg("--checkpoint-dir")
        .arg(ckpt)
        .args(["--checkpoint-every", "3"])
        .args(extra);
    cmd.status().expect("spawn pshd")
}

/// Per-method `(accuracy, litho)` pairs from a `BENCH_pshd.json`-shaped file.
fn outcomes(path: &Path) -> Vec<(f64, u64)> {
    let text = std::fs::read_to_string(path).expect("read results");
    let value: serde_json::Value = serde_json::from_str(&text).expect("parse results");
    value
        .as_array()
        .expect("results are an array")
        .iter()
        .map(|m| {
            (
                m.get("accuracy")
                    .and_then(|v| v.as_f64())
                    .expect("accuracy field"),
                m.get("litho")
                    .and_then(|v| v.as_u64())
                    .expect("litho field"),
            )
        })
        .collect()
}

#[test]
fn crashed_and_resumed_run_matches_uninterrupted_run_exactly() {
    let scratch =
        std::env::temp_dir().join(format!("lithohd-resume-determinism-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    // Both invocations share one --out so path-bearing telemetry events
    // (e.g. "wrote result file") serialise identically in both journals.
    let out = scratch.join("out");
    std::fs::create_dir_all(&out).expect("create scratch dir");
    let ref_journal = scratch.join("reference.jsonl");
    let res_journal = scratch.join("resumed.jsonl");
    let ref_ckpt = scratch.join("ckpt-reference");
    let res_ckpt = scratch.join("ckpt-resumed");
    let results = out.join("BENCH_pshd.json");

    // Uninterrupted reference run, checkpointing enabled.
    let status = pshd(&out, &ref_journal, &ref_ckpt, &[]);
    assert!(status.success(), "reference pshd exited with {status}");
    let ref_results = scratch.join("reference-results.json");
    std::fs::rename(&results, &ref_results).expect("stash reference results");

    // Same invocation, killed immediately after the 5th checkpoint commit —
    // mid-way through the second of the four method runs.
    let status = pshd(
        &out,
        &res_journal,
        &res_ckpt,
        &["--crash-after-checkpoints", "5"],
    );
    assert_eq!(
        status.code(),
        Some(CRASH_EXIT_CODE),
        "crash injection must exit with the crash code, got {status}"
    );
    assert!(
        !results.exists(),
        "crashed run must not have written final results"
    );

    // Resume from the newest checkpoint and run to completion.
    let status = pshd(&out, &res_journal, &res_ckpt, &["--resume"]);
    assert!(status.success(), "resumed pshd exited with {status}");

    // The stitched journal (crashed prefix + resumed suffix) must equal the
    // uninterrupted journal byte for byte.
    let a = std::fs::read(&ref_journal).expect("read reference journal");
    let b = std::fs::read(&res_journal).expect("read resumed journal");
    assert!(!a.is_empty(), "canonical journal must not be empty");
    assert_eq!(
        a, b,
        "resumed canonical journal differs from the uninterrupted run — \
         checkpoint state or journal truncation failed to restore the stream"
    );

    // Canonical journals stay free of checkpoint provenance and wall clocks,
    // so checkpointed, crashed, and plain runs all compare equal.
    let text = String::from_utf8(b).expect("journal is UTF-8");
    for banned in ["\"type\":\"resume\"", "store.checkpoint", "checkpoint."] {
        assert!(
            !text.contains(banned),
            "canonical journal leaked checkpoint marker {banned:?}"
        );
    }

    // Outcome equivalence: identical accuracy and identical Litho# — the
    // resumed run re-billed nothing.
    let expect = outcomes(&ref_results);
    let got = outcomes(&results);
    assert_eq!(expect.len(), 4, "expected one result per method");
    assert_eq!(
        expect, got,
        "resumed accuracy/Litho# diverged from the uninterrupted run"
    );

    std::fs::remove_dir_all(&scratch).ok();
}
