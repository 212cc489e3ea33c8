//! End-to-end tests for the `lithohd-report` binary: the real executable is
//! spawned on synthetic journals and a committed-style baseline, covering
//! the Markdown report (including truncated-journal tolerance), the diff
//! view, and both gate verdicts with their exit codes. One case spawns
//! `lithohd-profile` to check that the committed kernel baseline covers
//! every kernel it times.

use hotspot_bench::profile::{load_kernel_baseline, KernelSample};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn report_bin() -> &'static str {
    env!("CARGO_BIN_EXE_lithohd-report")
}

fn run(args: &[&str]) -> Output {
    Command::new(report_bin())
        .args(args)
        .output()
        .expect("lithohd-report spawns")
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("lithohd-report-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("fixture writes");
    path
}

fn journal_text(accuracy: f64, litho: u64) -> String {
    let mut text = String::new();
    text.push_str(&format!(
        concat!(
            r#"{{"type":"event","seq":0,"target":"core.framework","message":"iteration complete","#,
            r#""run_id":1,"iteration":1,"temperature":1.4,"ece":0.03,"batch_size":10,"#,
            r#""batch_hotspots":2,"labeled_size":60,"train_loss":0.5,"failed_labels":0,"#,
            r#""omega1":0.6,"omega2":0.4}}"#,
            "\n",
            r#"{{"type":"event","seq":1,"target":"profile","message":"nn.train","#,
            r#""span":"run/iteration/nn.train","duration_us":2000}}"#,
            "\n",
            r#"{{"type":"event","seq":2,"target":"core.framework","message":"run complete","#,
            r#""run_id":1,"selector":"entropy","accuracy":{accuracy},"litho":{litho},"#,
            r#""false_alarms":1,"ece_before":0.04,"ece_after":0.01,"degraded":false,"#,
            r#""label_failures":0,"oracle_retries":2,"oracle_giveups":0,"quorum_votes":0,"#,
            r#""elapsed_ms":1500}}"#,
            "\n",
            r#"{{"type":"snapshot","seq":3,"metrics":{{"counters":{{"litho.oracle.calls":{litho}}},"#,
            r#""gauges":{{"calibration.temperature":1.4}},"histograms":{{}}}}}}"#,
            "\n",
        ),
        accuracy = accuracy,
        litho = litho,
    ));
    text
}

fn baseline_text(accuracy: f64, litho: u64) -> String {
    format!(
        r#"[{{"method":"Ours","benchmark":"ICCAD12","accuracy":{accuracy},"litho":{litho},"elapsed":2.0}}]"#
    )
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn cleanup(paths: &[&Path]) {
    for path in paths {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn gate_passes_on_the_committed_baseline_shape() {
    let journal = temp_file("gate-pass.jsonl", &journal_text(0.95, 120));
    let baseline = temp_file("gate-pass.json", &baseline_text(0.95, 120));
    let output = run(&[
        "gate",
        journal.to_str().unwrap(),
        baseline.to_str().unwrap(),
        "--tolerance-acc",
        "0.5",
        "--tolerance-litho",
        "0",
    ]);
    cleanup(&[&journal, &baseline]);
    let text = stdout(&output);
    assert!(output.status.success(), "gate must pass: {text}");
    assert!(text.contains("gate: PASS"), "got: {text}");
    assert!(text.contains("| Ours | accuracy |"), "got: {text}");
}

#[test]
fn gate_fails_nonzero_on_degraded_accuracy() {
    // The journal ran at 93% against a 95% baseline: a 2-point drop, far
    // beyond the 0.5-point tolerance.
    let journal = temp_file("gate-acc.jsonl", &journal_text(0.93, 120));
    let baseline = temp_file("gate-acc.json", &baseline_text(0.95, 120));
    let output = run(&[
        "gate",
        journal.to_str().unwrap(),
        baseline.to_str().unwrap(),
        "--tolerance-acc",
        "0.5",
        "--tolerance-litho",
        "0",
    ]);
    cleanup(&[&journal, &baseline]);
    let text = stdout(&output);
    assert_eq!(output.status.code(), Some(1), "got: {text}");
    assert!(text.contains("gate: FAIL"), "got: {text}");
    assert!(text.contains("**REGRESSION**"), "got: {text}");
}

#[test]
fn gate_fails_nonzero_on_extra_litho_clips() {
    let journal = temp_file("gate-litho.jsonl", &journal_text(0.95, 121));
    let baseline = temp_file("gate-litho.json", &baseline_text(0.95, 120));
    let output = run(&[
        "gate",
        journal.to_str().unwrap(),
        baseline.to_str().unwrap(),
        "--tolerance-litho",
        "0",
    ]);
    cleanup(&[&journal, &baseline]);
    assert_eq!(output.status.code(), Some(1));
}

#[test]
fn report_renders_markdown_and_skips_a_truncated_trailing_line() {
    let mut text = journal_text(0.95, 120);
    text.push_str(r#"{"type":"snapshot","seq":4,"metrics":{"counters":{"litho.ora"#);
    let journal = temp_file("report.jsonl", &text);
    let output = run(&["report", journal.to_str().unwrap()]);
    cleanup(&[&journal]);
    let text = stdout(&output);
    assert!(output.status.success(), "got: {text}");
    assert!(text.contains("1 skipped line"), "got: {text}");
    assert!(text.contains("## Runs"), "got: {text}");
    assert!(text.contains("| 1 | Ours | 95.00% | 120 |"), "got: {text}");
    assert!(text.contains("## Iterations (run 1)"), "got: {text}");
    assert!(text.contains("`litho.oracle.calls`"), "got: {text}");
    assert!(text.contains("run/iteration/nn.train"), "got: {text}");
    assert!(text.contains("2 retries"), "got: {text}");
}

#[test]
fn diff_reports_per_metric_deltas() {
    let a = temp_file("diff-a.jsonl", &journal_text(0.95, 120));
    let b = temp_file("diff-b.jsonl", &journal_text(0.97, 110));
    let output = run(&["diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    cleanup(&[&a, &b]);
    let text = stdout(&output);
    assert!(output.status.success(), "got: {text}");
    assert!(
        text.contains("| Ours | accuracy | 95.00% | 97.00% | +2.00pp |"),
        "got: {text}"
    );
    assert!(
        text.contains("| Ours | litho | 120.0 | 110.0 | -10.0 |"),
        "got: {text}"
    );
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(run(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(run(&["gate", "only-one-arg"]).status.code(), Some(2));
    assert_eq!(
        run(&["gate", "a.jsonl", "b.json", "--tolerance-acc"])
            .status
            .code(),
        Some(2)
    );
    // Missing files are I/O errors, also exit 2.
    assert_eq!(
        run(&["report", "/nonexistent/journal.jsonl"]).status.code(),
        Some(2)
    );
}

#[test]
fn kernel_baseline_covers_every_profiled_kernel() {
    // The kernel gate ignores kernels the baseline lacks, so a newly
    // profiled kernel would stay ungated until the baseline is regenerated.
    let out = std::env::temp_dir().join(format!(
        "lithohd-report-{}-profile.json",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_lithohd-profile"))
        .args(["--samples", "1", "--warmup", "0", "--out"])
        .arg(&out)
        .output()
        .expect("lithohd-profile spawns");
    assert!(output.status.success(), "got: {}", stdout(&output));
    let profiled = load_kernel_baseline(&out).expect("profile output parses");
    cleanup(&[&out]);
    let committed = load_kernel_baseline(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_kernels.json"
    ))
    .expect("committed kernel baseline parses");
    let names = |rows: &[KernelSample]| {
        rows.iter()
            .map(|row| row.kernel.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(names(&profiled), names(&committed));
}
