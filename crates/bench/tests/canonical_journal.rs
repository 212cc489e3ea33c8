//! Byte-identical-journal determinism: two separate `pshd` processes with
//! the same seed and `--canonical-journal` must produce journal files that
//! are equal byte for byte. This is stronger than the outcome-level
//! determinism tests — every event, field, and metric in the telemetry
//! stream (minus wall-clock measurements, which canonical mode withholds)
//! has to replay identically.

use std::path::Path;
use std::process::Command;

fn run_pshd(out: &Path, journal: &Path) {
    run_pshd_with(out, journal, &[]);
}

fn run_pshd_with(out: &Path, journal: &Path, extra: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_pshd"))
        .args(["--scale", "0.005", "--seed", "7", "--repeats", "1", "--out"])
        .arg(out)
        .arg("--journal")
        .arg(journal)
        .arg("--canonical-journal")
        .args(extra)
        .status()
        .expect("spawn pshd");
    assert!(status.success(), "pshd exited with {status}");
}

#[test]
fn identically_seeded_runs_write_byte_identical_canonical_journals() {
    let dir =
        std::env::temp_dir().join(format!("lithohd-canonical-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let first = dir.join("run1.jsonl");
    let second = dir.join("run2.jsonl");
    // Different --out directories: the journal must not depend on them.
    run_pshd(&dir.join("out1"), &first);
    run_pshd(&dir.join("out2"), &second);

    let a = std::fs::read(&first).expect("read first journal");
    let b = std::fs::read(&second).expect("read second journal");
    assert!(!a.is_empty(), "canonical journal must not be empty");
    assert_eq!(
        a, b,
        "identically-seeded canonical journals differ — a nondeterministic \
         source (wall clock, hash order, ambient RNG) leaked into telemetry"
    );

    // Canonical mode must actually withhold wall-clock data.
    let text = String::from_utf8(a).expect("journal is UTF-8");
    assert!(text.lines().count() > 10, "journal suspiciously short");
    for banned in ["elapsed_us", "elapsed_ms", "duration_us", ".seconds"] {
        assert!(
            !text.contains(banned),
            "canonical journal leaked wall-clock marker {banned:?}"
        );
    }

    // The observability events the dashboard renders from must survive
    // canonical mode and parse into typed records.
    let journal = hotspot_bench::journal::Journal::parse_str(&text);
    let selections = journal.selections();
    assert!(
        !selections.is_empty(),
        "canonical journal carries no `clip selected` events"
    );
    assert!(
        selections
            .iter()
            .all(|s| s.uncertainty.is_finite() && s.diversity.is_finite()),
        "selection scores must be finite"
    );
    let bins = journal.calibration_bins();
    for stage in ["before", "iteration", "after"] {
        assert!(
            bins.iter().any(|b| b.stage == stage),
            "canonical journal carries no `calibration bin` events for stage {stage:?}"
        );
    }
    let benchmarks = journal.benchmarks();
    assert!(
        !benchmarks.is_empty(),
        "canonical journal carries no `benchmark ready` spec records"
    );
    assert!(
        benchmarks.iter().all(|b| !b.tech.is_empty()),
        "benchmark records must carry the tech needed for re-synthesis"
    );

    // And the dashboard rendered from each journal must itself be
    // byte-identical: same journal bytes in, same SVG bytes out.
    let dash_a = dir.join("dash_a");
    let dash_b = dir.join("dash_b");
    let summary_a = hotspot_bench::render::render_dashboard(
        &journal,
        &dash_a,
        &hotspot_bench::render::RenderOptions { max_clips: 2 },
    )
    .expect("render first dashboard");
    let summary_b = hotspot_bench::render::render_dashboard(
        &hotspot_bench::journal::Journal::parse_str(&text),
        &dash_b,
        &hotspot_bench::render::RenderOptions { max_clips: 2 },
    )
    .expect("render second dashboard");
    assert_eq!(summary_a.files, summary_b.files);
    assert!(summary_a.files.contains(&"index.html".to_string()));
    for name in &summary_a.files {
        let fa = std::fs::read(dash_a.join(name)).expect("read first rendering");
        let fb = std::fs::read(dash_b.join(name)).expect("read second rendering");
        assert_eq!(fa, fb, "rendered {name} differs between identical journals");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Tracing and kernel counters are observability provenance: turning
/// `--trace` on must not change a canonical journal by a single byte, and
/// neither the `kernel.*` counters nor the replayed `profile` span events
/// may appear in it. The trace file itself still gets written — the export
/// channel is the trace JSON, never the journal.
#[test]
fn trace_flag_and_kernel_counters_stay_out_of_canonical_journals() {
    let dir = std::env::temp_dir().join(format!("lithohd-canonical-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let traced_journal = dir.join("traced.jsonl");
    let plain_journal = dir.join("plain.jsonl");
    let trace_path = dir.join("trace.json");
    run_pshd_with(
        &dir,
        &traced_journal,
        &[
            "--workers",
            "2",
            "--trace",
            trace_path.to_str().expect("utf-8 path"),
        ],
    );
    run_pshd_with(&dir, &plain_journal, &["--workers", "2"]);

    let traced = std::fs::read(&traced_journal).expect("read traced journal");
    let plain = std::fs::read(&plain_journal).expect("read plain journal");
    assert_eq!(
        traced, plain,
        "--trace changed the canonical journal — tracing must be invisible there"
    );

    let text = String::from_utf8(traced).expect("journal is UTF-8");
    for banned in ["\"kernel.", "\"target\":\"profile\"", "shard.worker"] {
        assert!(
            !text.contains(banned),
            "canonical journal leaked perf provenance marker {banned:?}"
        );
    }

    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    assert!(
        trace.contains("\"traceEvents\"") && trace.contains("shard.worker"),
        "trace export must still carry the span stream"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The Chrome-trace export is structurally deterministic: two same-seed
/// runs emit the same spans with the same names, track layout, nesting
/// (parent names), and counts. Timestamps, durations, and raw span ids are
/// wall-clock/race artifacts and are normalised away before comparing.
#[test]
fn trace_export_structure_is_deterministic_across_same_seed_runs() {
    let dir =
        std::env::temp_dir().join(format!("lithohd-trace-determinism-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let trace_a = dir.join("a.json");
    let trace_b = dir.join("b.json");
    run_pshd_with(
        &dir,
        &dir.join("a.jsonl"),
        &[
            "--workers",
            "2",
            "--trace",
            trace_a.to_str().expect("utf-8"),
        ],
    );
    run_pshd_with(
        &dir,
        &dir.join("b.jsonl"),
        &[
            "--workers",
            "2",
            "--trace",
            trace_b.to_str().expect("utf-8"),
        ],
    );
    let a = normalized_trace(&trace_a);
    let b = normalized_trace(&trace_b);
    assert!(
        a.iter()
            .any(|(tid, name, _)| *tid > 0 && name == "shard.worker"),
        "trace must carry worker-track spans"
    );
    assert!(
        a.iter()
            .any(|(_, _, parent)| parent == "shard.worker" || parent != "<root>"),
        "trace must carry nested spans"
    );
    assert_eq!(a, b, "same-seed trace exports differ structurally");
    std::fs::remove_dir_all(&dir).ok();
}

/// Reduces a Chrome-trace JSON to its timestamp-free structure: a sorted
/// multiset of `(track, span name, parent span name)` rows.
fn normalized_trace(path: &Path) -> Vec<(u64, String, String)> {
    let text = std::fs::read_to_string(path).expect("read trace");
    let value: serde_json::Value = serde_json::from_str(&text).expect("trace parses");
    let events = value
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    let complete: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
        .collect();
    let name_by_id: std::collections::BTreeMap<u64, &str> = complete
        .iter()
        .filter_map(|e| {
            Some((
                e.get("args")?.get("span_id")?.as_u64()?,
                e.get("name")?.as_str()?,
            ))
        })
        .collect();
    let mut rows: Vec<(u64, String, String)> = complete
        .iter()
        .map(|e| {
            let args = e.get("args").expect("span args");
            let parent = args
                .get("parent_span_id")
                .and_then(|p| p.as_u64())
                .filter(|p| *p != 0)
                .and_then(|p| name_by_id.get(&p).copied())
                .unwrap_or("<root>");
            (
                e.get("tid").and_then(|t| t.as_u64()).expect("tid"),
                e.get("name")
                    .and_then(|n| n.as_str())
                    .expect("name")
                    .to_string(),
                parent.to_string(),
            )
        })
        .collect();
    rows.sort();
    rows
}
