//! Fig. 4 — trade-off of different batch-selection strategies.
//!
//! For each benchmark and each strategy (Ours, QP, TS), the framework is run
//! over several sampling budgets (iteration counts) and seeds; the runs'
//! `(accuracy, litho)` outcomes are grouped by accuracy level and the litho
//! overhead averaged per level — the paper's scatter of "average lithography
//! simulation overhead at a given detection accuracy". The expected shape:
//! Ours sits lowest, QP needs more litho at matched accuracy, TS is cheap
//! but accuracy-capped.

use hotspot_active::SamplingConfig;
use hotspot_bench::{
    evaluated_specs, try_generate, write_json, ActiveMethod, ExperimentArgs, RunPlan,
};
use serde::Serialize;
use std::collections::BTreeMap;

#[derive(Debug, Serialize)]
struct TradeoffPoint {
    benchmark: String,
    method: String,
    accuracy: f64,
    litho: f64,
    runs: usize,
}

fn main() {
    let args = ExperimentArgs::from_env();
    let specs = evaluated_specs(args.scale);
    let methods = [ActiveMethod::Ours, ActiveMethod::Qp, ActiveMethod::Ts];

    let mut points = Vec::new();
    for spec in &specs {
        let bench = try_generate(spec, args.seed).expect("benchmark generation succeeds");
        let base = SamplingConfig::for_benchmark(bench.len());
        println!("Fig. 4 ({}):", spec.name);
        for method in methods {
            // Accuracy level -> litho values observed at that level.
            let mut by_level: BTreeMap<i64, Vec<f64>> = BTreeMap::new();
            for iterations in [
                base.iterations / 2,
                base.iterations,
                base.iterations * 3 / 2,
            ] {
                let mut config = base.clone();
                config.iterations = iterations.max(1);
                let plan = RunPlan {
                    repeats: args.repeats,
                    ..RunPlan::new(method)
                };
                for record in plan.run(&bench, &config, args.seed, None) {
                    // 1% accuracy buckets.
                    let level = (record.accuracy * 100.0).round() as i64;
                    by_level.entry(level).or_default().push(record.litho as f64);
                }
            }
            println!("  {:<6} accuracy -> mean litho:", method.label());
            for (level, lithos) in &by_level {
                let mean = lithos.iter().sum::<f64>() / lithos.len() as f64;
                println!(
                    "    {:>5.1}%  {:>10.1}  ({} runs)",
                    *level as f64,
                    mean,
                    lithos.len()
                );
                points.push(TradeoffPoint {
                    benchmark: spec.name.clone(),
                    method: method.label().to_owned(),
                    accuracy: *level as f64 / 100.0,
                    litho: mean,
                    runs: lithos.len(),
                });
            }
        }
        println!();
    }
    write_json(&args.out, "fig4", &points);
    args.finish_telemetry();
}
