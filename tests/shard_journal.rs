//! Sharded labelling is invisible in the canonical journal: the four
//! learning-based methods `pshd` runs, driven in process through `RunPlan`
//! with one shard worker and with four, write byte-identical canonical
//! journals, carry no shard provenance, and end on the same accuracy and
//! Litho#.
//!
//! The single-worker journal is also pinned to a digest, so a change that
//! moves any selection score, event or counter shows here, and each
//! selection is scored once even with the journal's provenance events on.
//!
//! Journals are fed by the process-wide telemetry sinks and metrics
//! registry, so this lives in its own test binary with a single test.

use std::path::Path;
use std::sync::Arc;

use hotspot_bench::{ActiveMethod, RunPlan, ShardSpec};
use hotspot_telemetry::{self as telemetry, names, JsonlSink, Sink};
use lithohd::active::SamplingConfig;
use lithohd::layout::{BenchmarkSpec, GeneratedBenchmark, Tech};

const SEED: u64 = 7;

/// FNV-1a over `bytes`: a digest that is stable across Rust versions.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn bench_and_config() -> (GeneratedBenchmark, SamplingConfig) {
    let spec = BenchmarkSpec {
        name: "shard-journal".to_owned(),
        tech: Tech::Euv7,
        hotspots: 15,
        non_hotspots: 135,
        dup_rate: 0.2,
        near_miss_rate: 0.3,
    };
    let bench = GeneratedBenchmark::generate(&spec, 4).expect("generation succeeds");
    let mut config = SamplingConfig::for_benchmark(bench.len());
    config.iterations = 2;
    config.initial_epochs = 20;
    config.update_epochs = 5;
    (bench, config)
}

/// Every method once, labelling through `workers` shard workers; returns
/// each run's `(accuracy, Litho#)`.
fn campaign(
    bench: &GeneratedBenchmark,
    config: &SamplingConfig,
    workers: usize,
) -> Vec<(f64, u64)> {
    ActiveMethod::ALL
        .iter()
        .flat_map(|&method| {
            let plan = RunPlan {
                shard: Some(ShardSpec {
                    workers,
                    kill: None,
                }),
                ..RunPlan::new(method)
            };
            plan.run(bench, config, SEED, None)
        })
        .map(|record| (record.accuracy, record.litho))
        .collect()
}

/// Runs the campaign with a canonical journal at `path` attached, closing
/// the journal with a metrics snapshot as the experiment binaries do.
fn journalled_campaign(
    path: &Path,
    bench: &GeneratedBenchmark,
    config: &SamplingConfig,
    workers: usize,
) -> (Vec<u8>, Vec<(f64, u64)>) {
    let sink: Arc<dyn Sink> = Arc::new(JsonlSink::create_canonical(path).expect("journal opens"));
    telemetry::add_sink(Arc::clone(&sink));
    let outcomes = campaign(bench, config, workers);
    telemetry::publish_snapshot();
    telemetry::flush();
    telemetry::remove_sink(&sink);
    let bytes = std::fs::read(path).expect("read journal");
    std::fs::remove_file(path).ok();
    (bytes, outcomes)
}

#[test]
fn worker_count_does_not_change_canonical_journal_bytes() {
    let (bench, config) = bench_and_config();
    // An unjournalled campaign first registers every metric a campaign
    // touches, so restoring this state resets all of them before each
    // journalled campaign, and run ids restart from the same watermark.
    campaign(&bench, &config, 1);
    let metrics = telemetry::metrics_state();
    let run_ids = telemetry::run_id_watermark();

    let dir = std::env::temp_dir();
    let mut journals = Vec::new();
    for workers in [1, 4] {
        telemetry::restore_metrics_state(&metrics);
        telemetry::set_run_id_watermark(run_ids);
        let path = dir.join(format!(
            "lithohd-shard-journal-{workers}-{}.jsonl",
            std::process::id()
        ));
        let count = |name| telemetry::counter(name).get();
        let diversity_before = count(names::KERNEL_DIVERSITY_CALLS);
        let batches_before = count(names::SELECTOR_BATCHES);
        journals.push(journalled_campaign(&path, &bench, &config, workers));
        // The `clip selected` events read the selection's own scores, so
        // every method pays exactly one Eq. 7 pass per batch: the
        // selector's, or the event's when the selector skips diversity.
        assert_eq!(
            count(names::KERNEL_DIVERSITY_CALLS) - diversity_before,
            count(names::SELECTOR_BATCHES) - batches_before,
            "diversity passes per selection with a journal attached"
        );
    }
    let (one, one_outcomes) = &journals[0];
    let (four, four_outcomes) = &journals[1];

    assert!(!one.is_empty(), "canonical journal must not be empty");
    assert_eq!(
        one, four,
        "canonical journals differ between 1 and 4 workers — the \
         deterministic merge leaked the worker count"
    );
    let text = std::str::from_utf8(one).expect("journal is UTF-8");
    for banned in ["shard.", "\"workers\""] {
        assert!(
            !text.contains(banned),
            "canonical journal leaked shard marker {banned:?}"
        );
    }
    assert_eq!(
        fnv1a(one),
        0x06b7_fa4c_2a7b_1ec7,
        "canonical journal digest {:#018x} differs from the pinned value",
        fnv1a(one)
    );
    assert_eq!(one_outcomes.len(), ActiveMethod::ALL.len());
    assert_eq!(one_outcomes, four_outcomes, "accuracy/Litho# differ");
}
