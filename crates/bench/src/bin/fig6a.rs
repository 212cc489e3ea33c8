//! Fig. 6(a) — fixed vs dynamic score weights on ICCAD16-3.
//!
//! Compares the entropy-weighting method against fixed diversity weights
//! ω₂ ∈ {0.2, 0.4, 0.6} on an ICCAD16-3-like benchmark, reporting accuracy
//! and litho overhead averaged over seeds. Dynamic weights should match or
//! beat every fixed setting on both criteria.

use hotspot_active::{SamplingConfig, WeightMode};
use hotspot_bench::{try_generate, write_json, ActiveMethod, ExperimentArgs, RunPlan};
use hotspot_layout::BenchmarkSpec;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct WeightResult {
    setting: String,
    accuracy: f64,
    litho: f64,
}

fn main() {
    let args = ExperimentArgs::from_env();
    let spec = BenchmarkSpec::iccad16_3().scaled(args.scale.max(0.25));
    let bench = try_generate(&spec, args.seed).expect("benchmark generation succeeds");
    // A deliberately tight sampling budget: with the default (paper-profile)
    // budget every weighting reaches the accuracy ceiling and the comparison
    // degenerates; the weight choice only matters when batches are scarce.
    let mut base = SamplingConfig::for_benchmark(bench.len());
    base.batch = (base.batch / 3).max(5);
    base.query_pool = base.batch * 8;
    base.iterations = 6;

    let settings: Vec<(String, WeightMode)> = vec![
        ("0.2".to_owned(), WeightMode::Fixed { omega2: 0.2 }),
        ("0.4".to_owned(), WeightMode::Fixed { omega2: 0.4 }),
        ("0.6".to_owned(), WeightMode::Fixed { omega2: 0.6 }),
        ("Ours".to_owned(), WeightMode::Entropy),
    ];

    println!(
        "Fig. 6(a): fixed vs dynamic weights on {} ({} repeats)",
        spec.name, args.repeats
    );
    println!("{:>6} {:>10} {:>12}", "w2", "Acc(%)", "Litho#");
    let mut results = Vec::new();
    for (name, mode) in settings {
        let mut config = base.clone();
        config.weight_mode = mode;
        let plan = RunPlan {
            repeats: args.repeats,
            ..RunPlan::new(ActiveMethod::Ours)
        };
        let records = plan.run(&bench, &config, args.seed, None);
        let n = records.len() as f64;
        let acc = records.iter().map(|r| r.accuracy).sum::<f64>() / n;
        let litho = records.iter().map(|r| r.litho as f64).sum::<f64>() / n;
        println!("{:>6} {:>10.2} {:>12.1}", name, acc * 100.0, litho);
        results.push(WeightResult {
            setting: name,
            accuracy: acc,
            litho,
        });
    }
    write_json(&args.out, "fig6a", &results);
    args.finish_telemetry();
}
