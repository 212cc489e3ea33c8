//! Equivalences of the experiment harness's one run path, `RunPlan::run`:
//! sharding, chaos recovery and checkpointing change how a run executes,
//! never what it computes. Plain runs equal sharded runs at 1 and 3
//! workers, the fault-injecting stack merges identically when sharded, a
//! worker killed mid-batch is recovered without trace, and a run driven
//! through a `CheckpointedSequence` returns the record of the plain run.

use hotspot_bench::{
    ActiveMethod, CheckpointedSequence, ExperimentArgs, RunPlan, RunRecord, ShardSpec,
};
use hotspot_shard::{FailureMode, KillSpec};
use lithohd::active::SamplingConfig;
use lithohd::layout::{BenchmarkSpec, GeneratedBenchmark, Tech};
use lithohd::litho::FaultRates;

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
    config.iterations = 2;
    config.initial_epochs = 20;
    config.update_epochs = 5;
    (bench, config)
}

fn shard(workers: usize, kill: Option<KillSpec>) -> Option<ShardSpec> {
    Some(ShardSpec { workers, kill })
}

/// A record with its wall time, the one field that is never compared,
/// zeroed.
fn timeless(records: Vec<RunRecord>) -> Vec<RunRecord> {
    records
        .into_iter()
        .map(|r| RunRecord { secs: 0.0, ..r })
        .collect()
}

#[test]
fn sharded_runs_match_sequential_outcomes() {
    let (b, config) = bench_and_config();
    let plain = RunPlan::new(ActiveMethod::Ours);
    let sequential = timeless(plain.run(&b, &config, 1, None));
    for workers in [1, 3] {
        let plan = RunPlan {
            shard: shard(workers, None),
            ..plain.clone()
        };
        let sharded = timeless(plan.run(&b, &config, 1, None));
        assert_eq!(sequential, sharded, "N={workers}");
    }

    let rates = FaultRates {
        transient: 0.2,
        flip: 0.02,
        ..FaultRates::default()
    };
    let faulty = RunPlan {
        faults: Some((rates, 3)),
        ..plain
    };
    let sequential = timeless(faulty.run(&b, &config, 1, None));
    let plan = RunPlan {
        shard: shard(3, None),
        ..faulty
    };
    let sharded = timeless(plan.run(&b, &config, 1, None));
    assert_eq!(sequential, sharded, "faulty stack must merge identically");
}

#[test]
fn killed_worker_run_matches_the_undisturbed_one() {
    let (b, config) = bench_and_config();
    let rates = FaultRates {
        transient: 0.2,
        ..FaultRates::default()
    };
    let calm = RunPlan {
        faults: Some((rates, 1)),
        shard: shard(3, None),
        ..RunPlan::new(ActiveMethod::Ours)
    };
    let chaos = RunPlan {
        shard: shard(
            3,
            Some(KillSpec {
                shard: 1,
                batch: 2,
                mode: FailureMode::Panic,
            }),
        ),
        ..calm.clone()
    };
    let undisturbed = timeless(calm.run(&b, &config, 1, None));
    let murdered = timeless(chaos.run(&b, &config, 1, None));
    assert_eq!(undisturbed, murdered, "recovery must not change anything");
}

#[test]
fn checkpointed_run_returns_the_plain_record() {
    let (b, config) = bench_and_config();
    let dir = std::env::temp_dir().join(format!("lithohd-run-plan-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let args = ExperimentArgs::parse(["--checkpoint-dir".to_owned(), dir.display().to_string()])
        .expect("flags parse");
    let mut sequence = CheckpointedSequence::from_args(&args).expect("a checkpoint dir was given");

    let plan = RunPlan {
        faults: Some((FaultRates::transient_only(0.2), 1)),
        repeats: 2,
        ..RunPlan::new(ActiveMethod::Ours)
    };
    let plain = timeless(plan.run(&b, &config, 1, None));
    let checkpointed = timeless(plan.run(&b, &config, 1, Some(&mut sequence)));
    assert_eq!(plain, checkpointed);
    let saved = std::fs::read_dir(&dir)
        .expect("checkpoint dir exists")
        .count();
    assert!(saved > 0, "the sequence committed no checkpoint");
    std::fs::remove_dir_all(&dir).ok();
}
