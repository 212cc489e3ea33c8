//! `pshd` — seeds and refreshes the committed bench baseline.
//!
//! Runs the four learning-based samplers (Ours, TS, QP, Random) on the
//! ICCAD12-style benchmark and writes `BENCH_pshd.json` — the
//! accuracy / Litho# / wall-time trajectory `lithohd-report gate` (and the
//! CI `gate` job) compares later runs against. Runs are seeded, so the same
//! `--scale`/`--seed`/`--repeats` reproduce the same accuracy and Litho#
//! (wall time varies with the machine; the gate ignores it by default).
//!
//! Regenerate the committed baseline with:
//!
//! ```text
//! cargo run --release --bin pshd -- --scale 0.02 --seed 1 --repeats 1 \
//!     --workers-sweep 1,2,4 --out .
//! ```
//!
//! With `--checkpoint-dir <dir>` the harness persists crash-safe run-state
//! checkpoints every `--checkpoint-every` iterations; `--resume` continues
//! an interrupted invocation from the newest valid checkpoint without
//! re-billing a single litho simulation, reproducing the uninterrupted
//! run's metrics (and, under `--canonical-journal`, its journal bytes)
//! exactly.
//!
//! With `--workers <n>` every labelling batch is sharded across N oracle
//! worker threads and merged deterministically — accuracy, Litho#, and the
//! canonical journal are byte-identical for every N (the CI
//! shard-determinism job compares N=1 against N=4).
//!
//! With `--workers-sweep <n,n,...>` the seeder appends shard-scaling rows:
//! the paper's method re-run at each listed worker count, tagged with a
//! `workers` field in `BENCH_pshd.json`. Accuracy and Litho# in those rows
//! equal the base `Ours` row by worker-count invariance; their wall-time
//! column is what lets `lithohd-report gate --tolerance-time` track shard
//! scaling. The committed baseline carries rows for 1, 2, and 4 workers
//! (the regeneration command above).

use hotspot_active::SamplingConfig;
use hotspot_bench::{
    render_table, try_generate, write_json, ActiveMethod, CheckpointedSequence, ExperimentArgs,
    MethodResult, RunPlan, ShardSpec, TableRow,
};
use hotspot_layout::BenchmarkSpec;

fn main() {
    let args = ExperimentArgs::from_env();
    let spec = BenchmarkSpec::iccad12().scaled(args.scale);
    let bench = try_generate(&spec, args.seed).expect("benchmark generation succeeds");
    let config = SamplingConfig::for_benchmark(bench.len());

    let mut sequence = CheckpointedSequence::from_args(&args);
    let mut results: Vec<MethodResult> = ActiveMethod::ALL
        .iter()
        .map(|&method| {
            let plan = args.plan(method);
            let records = plan.run(&bench, &config, args.seed, sequence.as_mut());
            plan.method_result(&bench, &records)
        })
        .collect();

    // Shard-scaling rows: the paper's method once per swept worker count,
    // appended after the four base rows. Accuracy and Litho# are
    // worker-count-invariant, so only the wall-time column carries new
    // information — exactly what the gate's `--tolerance-time` mode reads.
    for &workers in &args.workers_sweep {
        let plan = RunPlan {
            shard: Some(ShardSpec {
                workers,
                kill: None,
                dir: None,
            }),
            repeats: args.repeats,
            ..RunPlan::new(ActiveMethod::Ours)
        };
        let records = plan.run(&bench, &config, args.seed, None);
        results.push(plan.method_result(&bench, &records));
    }

    let labels: Vec<&str> = ActiveMethod::ALL.iter().map(|m| m.label()).collect();
    let rows = vec![TableRow {
        label: spec.name.clone(),
        cells: results
            .iter()
            .take(ActiveMethod::ALL.len())
            .map(|r| (r.accuracy, r.litho as f64))
            .collect(),
        percent: true,
    }];
    println!(
        "PSHD baseline (scale {}, seed {}, {} repeats)",
        args.scale, args.seed, args.repeats
    );
    println!("{}", render_table(&labels, &rows));
    for row in results.iter().skip(ActiveMethod::ALL.len()) {
        let workers = row.workers.unwrap_or(1);
        println!(
            "shard scaling: Ours @ {workers} worker(s) — {:.2}% / Litho# {} / {:.2}s",
            row.accuracy * 100.0,
            row.litho,
            row.elapsed.as_secs_f64()
        );
    }
    write_json(&args.out, "BENCH_pshd", &results);
    args.finish_telemetry();
}
