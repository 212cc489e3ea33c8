//! Table III — component-effectiveness ablation of the entropy-based method.
//!
//! Runs the framework with each component removed — "w/o.E" (fixed equal
//! weights instead of entropy weighting), "w/o.D" (no diversity), "w/o.U"
//! (no uncertainty) — against the full method, across the four evaluated
//! benchmarks.

use hotspot_active::SamplingConfig;
use hotspot_bench::{
    evaluated_specs, ratio_row, render_table, try_generate, write_json, ActiveMethod,
    ExperimentArgs, MethodResult, TableRow,
};

const COLUMNS: [&str; 4] = ["w/o.E", "w/o.D", "w/o.U", "Full"];

fn main() {
    let args = ExperimentArgs::from_env();
    let specs = evaluated_specs(args.scale);

    let mut rows = Vec::new();
    let mut results: Vec<(String, MethodResult)> = Vec::new();
    let plan = args.plan(ActiveMethod::Ours);
    for spec in &specs {
        let bench = try_generate(spec, args.seed).expect("benchmark generation succeeds");
        let base = SamplingConfig::for_benchmark(bench.len());
        let variants = [
            ("w/o.E", base.clone().without_entropy_weighting()),
            ("w/o.D", base.clone().without_diversity()),
            ("w/o.U", base.clone().without_uncertainty()),
            ("Full", base.clone()),
        ];
        let mut cells = Vec::new();
        for (name, config) in variants {
            let result = plan.method_result(&bench, &plan.run(&bench, &config, args.seed, None));
            hotspot_telemetry::info(
                "bench.table3",
                "ablation variant finished",
                &[
                    ("benchmark", spec.name.as_str().into()),
                    ("variant", name.into()),
                    ("accuracy", result.accuracy.into()),
                    ("litho", (result.litho as u64).into()),
                ],
            );
            cells.push((result.accuracy, result.litho as f64));
            results.push((name.to_owned(), result));
        }
        rows.push(TableRow {
            label: spec.name.clone(),
            cells,
            percent: true,
        });
    }

    let (avg, ratio) = ratio_row(&rows);
    rows.push(avg);
    rows.push(ratio);

    println!(
        "Table III: components effectiveness of the entropy-based method (scale {}, seed {}, {} repeats)",
        args.scale, args.seed, args.repeats
    );
    println!("{}", render_table(&COLUMNS, &rows));
    write_json(&args.out, "table3", &results);
    args.finish_telemetry();
}
