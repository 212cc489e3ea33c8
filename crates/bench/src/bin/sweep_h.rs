//! Ablation beyond the paper: sweep the decision boundary `h` of the
//! hotspot-aware uncertainty (Eq. 6).
//!
//! The paper fixes `h = 0.4` "since the datasets are imbalanced" without a
//! sensitivity study; this binary supplies one. `h` controls both where the
//! uncertainty score peaks during sampling *and* the detection threshold of
//! the final full-chip pass, so too-high values depress recall and too-low
//! values inflate false alarms.

use hotspot_active::SamplingConfig;
use hotspot_bench::{try_generate, write_json, ActiveMethod, ExperimentArgs};
use hotspot_layout::BenchmarkSpec;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct SweepPoint {
    h: f32,
    accuracy: f64,
    litho: f64,
}

fn main() {
    let args = ExperimentArgs::from_env();
    let spec = BenchmarkSpec::iccad16_3().scaled(args.scale.max(0.25));
    let bench = try_generate(&spec, args.seed).expect("benchmark generation succeeds");
    let base = SamplingConfig::for_benchmark(bench.len());

    println!(
        "Sweep of the Eq. 6 decision boundary h on {} ({} repeats; paper fixes h = 0.4)",
        spec.name, args.repeats
    );
    println!("{:>6} {:>10} {:>12}", "h", "Acc(%)", "Litho#");
    let mut points = Vec::new();
    let plan = args.plan(ActiveMethod::Ours);
    for h in [0.2f32, 0.3, 0.4, 0.5, 0.6] {
        let mut config = base.clone();
        config.boundary_h = h;
        config.detect_threshold = h;
        let result = plan.method_result(&bench, &plan.run(&bench, &config, args.seed, None));
        println!(
            "{:>6.2} {:>10.2} {:>12}",
            h,
            result.accuracy * 100.0,
            result.litho
        );
        points.push(SweepPoint {
            h,
            accuracy: result.accuracy,
            litho: result.litho as f64,
        });
    }

    // The paper's operating point must not be dominated: no swept h may beat
    // h = 0.4 on accuracy by a wide margin while also costing less litho.
    let reference = points
        .iter()
        .find(|p| (p.h - 0.4).abs() < 1e-6)
        .expect("h = 0.4 swept");
    for p in &points {
        assert!(
            !(p.accuracy > reference.accuracy + 0.03 && p.litho < reference.litho * 0.95),
            "h = {} strictly dominates the paper's choice",
            p.h
        );
    }
    write_json(&args.out, "sweep_h", &points);
    args.finish_telemetry();
}
