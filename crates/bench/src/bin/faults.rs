//! Robustness sweep — accuracy / Litho# degradation under oracle faults.
//!
//! Runs the entropy sampler on an ICCAD16-2-like benchmark against a
//! seeded fault-injecting oracle behind the retry/backoff layer, sweeping
//! two fault axes independently:
//!
//! * **Transient failures** (crashed/timed-out simulation jobs): swept at a
//!   fixed retry policy; failed jobs bill nothing, so Litho# should stay
//!   flat while retries absorb the faults.
//! * **Silent label flips** (corrupted results that *look* valid): swept
//!   with and without 3-vote quorum re-labelling; the quorum trades extra
//!   billable re-simulations for accuracy recovered from the flips.
//!
//! Each sweep prints a degradation curve against the fault-free baseline
//! and everything is written to `target/experiments/faults.json`.
//!
//! This binary doubles as the sharding chaos harness: `--workers <n>`
//! shards every labelling batch across N oracle worker threads, and
//! `--kill-shard <i>@<k>` murders worker `i` on the `k`-th labelling batch
//! of every run. Dead-shard recovery (checkpoint salvage plus deterministic
//! recomputation of the orphaned clips) makes the murdered campaign finish
//! with exactly the Litho# accounting and canonical-journal bytes of the
//! undisturbed one — the CI chaos job asserts precisely that.

use hotspot_active::SamplingConfig;
use hotspot_bench::{
    try_generate, write_json, ActiveMethod, CheckpointedSequence, ExperimentArgs,
    FaultyMethodResult, RunPlan,
};
use hotspot_layout::BenchmarkSpec;
use hotspot_litho::FaultRates;
use serde::Serialize;

const TRANSIENT_RATES: [f64; 5] = [0.0, 0.1, 0.2, 0.3, 0.4];
const FLIP_RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.1];

#[derive(Debug, Serialize)]
struct FaultsResult {
    baseline_accuracy: f64,
    baseline_litho: usize,
    transient_sweep: Vec<FaultyMethodResult>,
    flip_sweep_raw: Vec<FaultyMethodResult>,
    flip_sweep_quorum: Vec<FaultyMethodResult>,
}

fn main() {
    let args = ExperimentArgs::from_env();
    let spec = BenchmarkSpec::iccad16_2().scaled(args.scale.max(0.25));
    let bench = try_generate(&spec, args.seed).expect("benchmark generation succeeds");
    let config = SamplingConfig::for_benchmark(bench.len());
    let mut sequence = CheckpointedSequence::from_args(&args);
    // Every cell is one entropy-sampler run, sharded as `--workers` asks
    // and durable under `--checkpoint-dir`; only the oracle faults vary.
    let entropy = RunPlan {
        repeats: 1,
        ..args.plan(ActiveMethod::Ours)
    };
    let mut run = |faults: Option<(FaultRates, usize)>| {
        let plan = RunPlan {
            faults,
            ..entropy.clone()
        };
        let records = plan.run(&bench, &config, args.seed, sequence.as_mut());
        plan.faulty_result(&bench, &records)
    };

    let baseline = run(None);
    println!(
        "baseline ({}): acc {:.2}%  litho {}",
        bench.spec().name,
        baseline.accuracy * 100.0,
        baseline.litho
    );

    // Axis 1: transient failures, retry/backoff only.
    println!("\ntransient-failure sweep (retry/backoff, no quorum)");
    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "transient", "acc%", "litho", "retries", "giveups", "lost"
    );
    let transient_sweep: Vec<FaultyMethodResult> = TRANSIENT_RATES
        .iter()
        .map(|&transient| {
            let r = run(Some((FaultRates::transient_only(transient), 1)));
            print_row(&r, transient);
            r
        })
        .collect();

    // Axis 2: silent label flips, with and without quorum re-labelling.
    let flip_sweep_raw = flip_sweep(&mut run, 1);
    let flip_sweep_quorum = flip_sweep(&mut run, 3);

    write_json(
        &args.out,
        "faults",
        &FaultsResult {
            baseline_accuracy: baseline.accuracy,
            baseline_litho: baseline.litho,
            transient_sweep,
            flip_sweep_raw,
            flip_sweep_quorum,
        },
    );
    args.finish_telemetry();
}

fn flip_sweep(
    run: &mut impl FnMut(Option<(FaultRates, usize)>) -> FaultyMethodResult,
    quorum: usize,
) -> Vec<FaultyMethodResult> {
    println!(
        "\nlabel-flip sweep ({})",
        if quorum > 1 {
            "3-vote quorum re-labelling"
        } else {
            "no quorum — flips go undetected"
        }
    );
    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "flip", "acc%", "litho", "extra", "retries", "lost"
    );
    FLIP_RATES
        .iter()
        .map(|&flip| {
            let rates = FaultRates {
                flip,
                ..FaultRates::default()
            };
            let r = run(Some((rates, quorum)));
            println!(
                "{:>10.2} {:>8.2} {:>8} {:>8} {:>8} {:>8}",
                flip,
                r.accuracy * 100.0,
                r.litho,
                r.extra_simulations,
                r.retries,
                r.label_failures
            );
            r
        })
        .collect()
}

fn print_row(r: &FaultyMethodResult, rate: f64) {
    println!(
        "{:>10.2} {:>8.2} {:>8} {:>8} {:>8} {:>8}",
        rate,
        r.accuracy * 100.0,
        r.litho,
        r.retries,
        r.giveups,
        r.label_failures
    );
}
