//! Resume through the durable encoding: every iteration-boundary
//! checkpoint of a run is packed into a `CheckpointBundle`, written to the
//! on-disk section format, decoded back and resumed from. Each resumed run
//! must land on the uninterrupted run's outcome, for the plain oracle and
//! for the fault-injecting retry/quorum stack.

use hotspot_store::{CheckpointBundle, CheckpointFile};
use lithohd::active::{
    EntropySelector, MemoryCheckpoints, RunCheckpoint, RunOutcome, SamplingConfig,
    SamplingFramework,
};
use lithohd::layout::{BenchmarkSpec, GeneratedBenchmark, Tech};
use lithohd::litho::{
    FaultRates, FaultyOracle, LithoOracle, RetryOracle, RetryPolicy, VirtualClock,
};

const SEED: u64 = 5;

fn bench_and_config() -> (GeneratedBenchmark, SamplingConfig) {
    let spec = BenchmarkSpec {
        name: "harness".to_owned(),
        tech: Tech::Euv7,
        hotspots: 15,
        non_hotspots: 135,
        dup_rate: 0.2,
        near_miss_rate: 0.3,
    };
    let bench = GeneratedBenchmark::generate(&spec, 4).expect("generation succeeds");
    let mut config = SamplingConfig::for_benchmark(bench.len());
    config.iterations = 3;
    config.initial_epochs = 20;
    config.update_epochs = 5;
    (bench, config)
}

/// `checkpoint` after a trip through the bundle, its section file and the
/// file's byte encoding, as a fresh process would read it from disk.
fn through_disk(checkpoint: &RunCheckpoint) -> RunCheckpoint {
    let bytes = CheckpointBundle::capture(checkpoint, None, Vec::new())
        .to_file()
        .encode();
    let file = CheckpointFile::decode(&bytes).expect("checkpoint file decodes");
    CheckpointBundle::from_file(&file)
        .expect("bundle decodes")
        .run
}

fn assert_same_outcome(resumed: &RunOutcome, reference: &RunOutcome, iteration: usize) {
    let at = format!("resumed after iteration {iteration}");
    assert_eq!(resumed.metrics, reference.metrics, "{at}");
    assert_eq!(resumed.history, reference.history, "{at}");
    assert_eq!(resumed.sampled_indices, reference.sampled_indices, "{at}");
    assert_eq!(
        resumed.predicted_hotspots, reference.predicted_hotspots,
        "{at}"
    );
    assert_eq!(
        resumed.final_temperature.to_bits(),
        reference.final_temperature.to_bits(),
        "{at}"
    );
    assert_eq!(
        resumed.ece_before.to_bits(),
        reference.ece_before.to_bits(),
        "{at}"
    );
    assert_eq!(
        resumed.ece_after.to_bits(),
        reference.ece_after.to_bits(),
        "{at}"
    );
    assert_eq!(resumed.run_id, reference.run_id, "{at}");
    assert_eq!(resumed.oracle_stats, reference.oracle_stats, "{at}");
    assert_eq!(resumed.fault_stats, reference.fault_stats, "{at}");
}

/// Runs once checkpointing every iteration, then resumes from each
/// checkpoint (after its trip through disk) against a fresh oracle.
/// Returns the uninterrupted run.
fn resume_from_every_checkpoint<O: LithoOracle>(
    make_oracle: impl Fn(&GeneratedBenchmark) -> O,
) -> RunOutcome {
    let (bench, config) = bench_and_config();
    let framework = SamplingFramework::new(config);
    let mut hook = MemoryCheckpoints::every(1);
    let reference = framework
        .run_with_oracle_checkpointed(
            &bench,
            &mut EntropySelector::new(),
            SEED,
            &mut make_oracle(&bench),
            &mut hook,
        )
        .expect("reference run succeeds");
    assert_eq!(hook.saved.len(), reference.history.len());
    assert!(!hook.saved.is_empty(), "the run must checkpoint");
    for checkpoint in &hook.saved {
        let restored = through_disk(checkpoint);
        assert_eq!(&restored, checkpoint, "the encoding loses nothing");
        let mut resume = MemoryCheckpoints::resuming_from(restored, 0);
        let resumed = framework
            .run_with_oracle_checkpointed(
                &bench,
                &mut EntropySelector::new(),
                SEED,
                &mut make_oracle(&bench),
                &mut resume,
            )
            .expect("resumed run succeeds");
        assert_same_outcome(&resumed, &reference, checkpoint.iteration);
    }
    reference
}

#[test]
fn resume_through_disk_matches_the_uninterrupted_run() {
    resume_from_every_checkpoint(GeneratedBenchmark::oracle);
}

#[test]
fn resume_through_disk_matches_under_retried_faults() {
    let rates = FaultRates {
        transient: 0.2,
        flip: 0.02,
        ..FaultRates::default()
    };
    let reference = resume_from_every_checkpoint(|bench| {
        RetryOracle::with_clock(
            FaultyOracle::new(bench.oracle(), rates, 77),
            RetryPolicy::default(),
            VirtualClock::new(),
        )
        .with_quorum(3)
    });
    assert!(
        reference.oracle_stats.retries > 0 && reference.oracle_stats.quorum_votes > 0,
        "the stack must have absorbed faults: {:?}",
        reference.oracle_stats
    );
}
