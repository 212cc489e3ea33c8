//! Stability analysis (supporting the Fig. 4 discussion): the paper notes
//! that CNN-based flows carry "uncertain behavior … introduced by weights
//! initialization and batch sampling", and argues its method is the most
//! stable. This binary quantifies that: each method runs over `--repeats`
//! seeds on one benchmark and reports mean ± standard deviation of both
//! accuracy and litho overhead.

use hotspot_active::SamplingConfig;
use hotspot_bench::{try_generate, write_json, ActiveMethod, ExperimentArgs, RunPlan};
use hotspot_layout::BenchmarkSpec;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct StabilityRow {
    method: String,
    accuracy_mean: f64,
    accuracy_std: f64,
    litho_mean: f64,
    litho_std: f64,
    runs: usize,
}

fn mean_std(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

fn main() {
    let args = ExperimentArgs::from_env();
    let repeats = args.repeats.max(3);
    let spec = BenchmarkSpec::iccad16_3().scaled(args.scale.max(0.25));
    let bench = try_generate(&spec, args.seed).expect("benchmark generation succeeds");
    let config = SamplingConfig::for_benchmark(bench.len());

    println!(
        "Stability of batch-selection strategies on {} ({} seeds)",
        spec.name, repeats
    );
    println!(
        "{:<8} {:>10} {:>8} {:>12} {:>10}",
        "method", "Acc(%)", "±std", "Litho#", "±std"
    );
    let mut rows = Vec::new();
    for method in [
        ActiveMethod::Ours,
        ActiveMethod::Qp,
        ActiveMethod::Ts,
        ActiveMethod::Random,
    ] {
        let plan = RunPlan {
            repeats,
            ..RunPlan::new(method)
        };
        let records = plan.run(&bench, &config, args.seed, None);
        let accuracies: Vec<f64> = records.iter().map(|r| r.accuracy).collect();
        let lithos: Vec<f64> = records.iter().map(|r| r.litho as f64).collect();
        let (acc_mean, acc_std) = mean_std(&accuracies);
        let (litho_mean, litho_std) = mean_std(&lithos);
        println!(
            "{:<8} {:>10.2} {:>8.2} {:>12.1} {:>10.1}",
            method.label(),
            acc_mean * 100.0,
            acc_std * 100.0,
            litho_mean,
            litho_std
        );
        rows.push(StabilityRow {
            method: method.label().to_owned(),
            accuracy_mean: acc_mean,
            accuracy_std: acc_std,
            litho_mean,
            litho_std,
            runs: repeats,
        });
    }

    // The paper's stability claim: Ours varies no more than the baselines.
    let std_of = |name: &str| {
        rows.iter()
            .find(|r| r.method == name)
            .expect("method ran")
            .accuracy_std
    };
    assert!(
        std_of("Ours") <= std_of("Random") + 0.02,
        "Ours should not be less stable than random sampling"
    );
    write_json(&args.out, "stability", &rows);
    args.finish_telemetry();
}
