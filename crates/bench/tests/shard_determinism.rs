//! Sharded-labelling determinism: the worker count, chaos-murdered
//! workers, and crash/resume must all be invisible in the canonical
//! journal and in every reported accuracy / Litho# figure.
//!
//! Three invariants, each enforced by comparing whole artifacts byte for
//! byte across separate processes:
//!
//! 1. `--workers 1` and `--workers 4` write byte-identical canonical
//!    journals and identical results (worker-count invariance).
//! 2. A campaign whose worker is murdered mid-batch (`--kill-shard`)
//!    recomputes the lost worker's clips in a recovery round and finishes
//!    equal to the undisturbed campaign (dead-shard recovery).
//! 3. A sharded run crashed after a checkpoint commit and resumed equals
//!    the uninterrupted sharded run (sharding composes with durable runs).

use std::path::Path;
use std::process::Command;

/// Matches `hotspot_bench::CRASH_EXIT_CODE` (re-stated so a silent change
/// to the crash contract fails this test).
const CRASH_EXIT_CODE: i32 = 3;

fn pshd(out: &Path, journal: &Path, extra: &[&str]) -> std::process::ExitStatus {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pshd"));
    cmd.args(["--scale", "0.005", "--seed", "7", "--repeats", "1", "--out"])
        .arg(out)
        .arg("--journal")
        .arg(journal)
        .args(["--canonical-journal", "--log", "warn"])
        .args(extra);
    cmd.status().expect("spawn pshd")
}

fn faults(out: &Path, journal: &Path, extra: &[&str]) -> std::process::ExitStatus {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_faults"));
    cmd.args(["--scale", "0.005", "--seed", "7", "--out"])
        .arg(out)
        .arg("--journal")
        .arg(journal)
        .args(["--canonical-journal", "--log", "warn"])
        .args(extra);
    cmd.status().expect("spawn faults")
}

fn read_journal(path: &Path) -> Vec<u8> {
    let bytes = std::fs::read(path).expect("read journal");
    assert!(!bytes.is_empty(), "canonical journal must not be empty");
    bytes
}

/// Per-method `(method, accuracy, litho)` triples from a
/// `BENCH_pshd.json`-shaped file — wall time is machine noise and excluded.
fn outcomes(path: &Path) -> Vec<(String, f64, u64)> {
    let text = std::fs::read_to_string(path).expect("read results");
    let value: serde_json::Value = serde_json::from_str(&text).expect("parse results");
    value
        .as_array()
        .expect("results are an array")
        .iter()
        .map(|m| {
            (
                m.get("method")
                    .and_then(|v| v.as_str())
                    .expect("method field")
                    .to_owned(),
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

/// Asserts the canonical journal carries no shard provenance: worker
/// counts, shard telemetry, and chaos events must all be withheld, or
/// differently-sharded runs could never compare equal.
fn assert_no_shard_provenance(bytes: &[u8]) {
    let text = std::str::from_utf8(bytes).expect("journal is UTF-8");
    for banned in ["shard.", "shard.coordinator", "\"workers\""] {
        assert!(
            !text.contains(banned),
            "canonical journal leaked shard marker {banned:?}"
        );
    }
}

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("lithohd-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn worker_count_does_not_change_canonical_journal_bytes() {
    let dir = scratch("shard-n-invariance");
    let out = dir.join("out");
    std::fs::create_dir_all(&out).expect("create out dir");
    let one = dir.join("workers1.jsonl");
    let four = dir.join("workers4.jsonl");

    let status = pshd(&out, &one, &["--workers", "1"]);
    assert!(status.success(), "pshd --workers 1 exited with {status}");
    let results_one = outcomes(&out.join("BENCH_pshd.json"));

    let status = pshd(&out, &four, &["--workers", "4"]);
    assert!(status.success(), "pshd --workers 4 exited with {status}");
    let results_four = outcomes(&out.join("BENCH_pshd.json"));

    let a = read_journal(&one);
    let b = read_journal(&four);
    assert_eq!(
        a, b,
        "canonical journals differ between --workers 1 and --workers 4 — \
         the deterministic merge leaked the worker count"
    );
    assert_no_shard_provenance(&a);
    assert_eq!(results_one.len(), 4, "expected one result per method");
    assert_eq!(
        results_one, results_four,
        "accuracy/Litho# differ between worker counts"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn murdered_worker_campaign_matches_the_undisturbed_one() {
    let dir = scratch("shard-chaos");
    let out = dir.join("out");
    std::fs::create_dir_all(&out).expect("create out dir");
    let calm = dir.join("calm.jsonl");
    let murdered = dir.join("murdered.jsonl");

    let status = faults(&out, &calm, &["--workers", "3"]);
    assert!(status.success(), "undisturbed faults exited with {status}");
    let calm_results = std::fs::read(out.join("faults.json")).expect("read undisturbed results");

    // Murder worker 1 on the second labelling batch of every run, with run
    // checkpoints on: recovery recomputes the lost sub-batch while the
    // runs checkpoint around it, and writes nothing of its own to disk.
    let ckpt = dir.join("ckpt");
    let status = faults(
        &out,
        &murdered,
        &[
            "--workers",
            "3",
            "--kill-shard",
            "1@2",
            "--checkpoint-dir",
            ckpt.to_str().expect("utf-8 path"),
        ],
    );
    assert!(status.success(), "murdered faults exited with {status}");
    assert!(
        !ckpt.join("shards").exists(),
        "dead-shard recovery must not write shard state"
    );
    let murdered_results = std::fs::read(out.join("faults.json")).expect("read murdered results");

    let a = read_journal(&calm);
    let b = read_journal(&murdered);
    assert_eq!(
        a, b,
        "canonical journal differs after a murdered worker — dead-shard \
         recovery changed labels, billing, or event order"
    );
    assert_no_shard_provenance(&b);
    assert_eq!(
        calm_results, murdered_results,
        "faults.json differs after a murdered worker — Litho# accounting \
         did not survive recovery exactly"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_crash_and_resume_matches_uninterrupted_sharded_run() {
    let dir = scratch("shard-resume");
    let out = dir.join("out");
    std::fs::create_dir_all(&out).expect("create out dir");
    let reference = dir.join("reference.jsonl");
    let resumed = dir.join("resumed.jsonl");
    let ref_ckpt = dir.join("ckpt-reference");
    let res_ckpt = dir.join("ckpt-resumed");
    let ref_ckpt = ref_ckpt.to_str().expect("utf-8 path");
    let res_ckpt = res_ckpt.to_str().expect("utf-8 path");
    let every = ["--checkpoint-every", "3"];

    let status = pshd(
        &out,
        &reference,
        &[
            &["--workers", "2", "--checkpoint-dir", ref_ckpt],
            &every[..],
        ]
        .concat(),
    );
    assert!(status.success(), "reference pshd exited with {status}");
    let ref_results = outcomes(&out.join("BENCH_pshd.json"));

    let status = pshd(
        &out,
        &resumed,
        &[
            &["--workers", "2", "--checkpoint-dir", res_ckpt],
            &every[..],
            &["--crash-after-checkpoints", "5"],
        ]
        .concat(),
    );
    assert_eq!(
        status.code(),
        Some(CRASH_EXIT_CODE),
        "crash injection must exit with the crash code, got {status}"
    );

    let status = pshd(
        &out,
        &resumed,
        &[
            &["--workers", "2", "--checkpoint-dir", res_ckpt],
            &every[..],
            &["--resume"],
        ]
        .concat(),
    );
    assert!(status.success(), "resumed pshd exited with {status}");
    let res_results = outcomes(&out.join("BENCH_pshd.json"));

    assert_eq!(
        read_journal(&reference),
        read_journal(&resumed),
        "sharded resumed canonical journal differs from the uninterrupted run"
    );
    assert_eq!(
        ref_results, res_results,
        "sharded resumed results differ from the uninterrupted run"
    );

    std::fs::remove_dir_all(&dir).ok();
}
