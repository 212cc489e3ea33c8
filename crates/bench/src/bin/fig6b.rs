//! Fig. 6(b) — end-to-end runtime comparison among solutions.
//!
//! The overall runtime is modelled as 10 s per litho-clip plus the measured
//! PSHD computation time (Section IV-C of the paper). PM-exact pays for the
//! most simulations and dominates the chart; the active-learning methods
//! cluster far lower, with Ours cheapest.

use hotspot_active::SamplingConfig;
use hotspot_baselines::PatternMatcher;
use hotspot_bench::{
    evaluated_specs, run_pattern_method, runtime_seconds, try_generate, write_json, ActiveMethod,
    ExperimentArgs, RunPlan,
};
use serde::Serialize;

#[derive(Debug, Serialize)]
struct RuntimeResult {
    method: String,
    litho: usize,
    pshd_seconds: f64,
    total_seconds: f64,
}

fn main() {
    let args = ExperimentArgs::from_env();
    let specs = evaluated_specs(args.scale);

    // Aggregate litho and compute time over all four benchmarks per method.
    let mut totals: Vec<(String, usize, f64)> = vec![
        ("PM-exact".to_owned(), 0, 0.0),
        ("TS".to_owned(), 0, 0.0),
        ("QP".to_owned(), 0, 0.0),
        ("Ours".to_owned(), 0, 0.0),
    ];
    for spec in &specs {
        let bench = try_generate(spec, args.seed).expect("benchmark generation succeeds");
        let config = SamplingConfig::for_benchmark(bench.len());
        let active = |method| {
            let plan = RunPlan::new(method);
            plan.method_result(&bench, &plan.run(&bench, &config, args.seed, None))
        };
        let cells = [
            run_pattern_method(PatternMatcher::exact(), &bench),
            active(ActiveMethod::Ts),
            active(ActiveMethod::Qp),
            active(ActiveMethod::Ours),
        ];
        for (total, cell) in totals.iter_mut().zip(&cells) {
            total.1 += cell.litho;
            total.2 += cell.elapsed.as_secs_f64();
        }
    }

    println!(
        "Fig. 6(b): overall runtime (10 s per litho-clip + PSHD overhead, scale {})",
        args.scale
    );
    println!(
        "{:<10} {:>10} {:>12} {:>14}",
        "method", "Litho#", "PSHD (s)", "Total (s)"
    );
    let mut results = Vec::new();
    for (method, litho, pshd) in totals {
        let total = runtime_seconds(litho, std::time::Duration::from_secs_f64(pshd));
        println!(
            "{:<10} {:>10} {:>12.1} {:>14.1}",
            method, litho, pshd, total
        );
        results.push(RuntimeResult {
            method,
            litho,
            pshd_seconds: pshd,
            total_seconds: total,
        });
    }

    // The paper's shape: PM-exact is by far the most expensive, QP pays more
    // than Ours (more compute and at least as much litho), and Ours sits at
    // the cheap end of the learning methods (TS may tie within noise — its
    // budget is identical and only false alarms differ).
    let total_of = |name: &str| {
        results
            .iter()
            .find(|r| r.method == name)
            .expect("method ran")
            .total_seconds
    };
    assert!(
        total_of("PM-exact") > 1.5 * total_of("Ours"),
        "PM-exact must dominate"
    );
    assert!(total_of("QP") >= total_of("Ours"), "QP must not beat Ours");
    assert!(
        total_of("TS") >= total_of("Ours") * 0.99,
        "TS may only undercut Ours within noise"
    );
    write_json(&args.out, "fig6b", &results);
    args.finish_telemetry();
}
