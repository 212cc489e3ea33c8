//! Table II — full-chip pattern sampling and hotspot detection.
//!
//! Runs all seven methods of the paper's main comparison — PM-exact, PM-a95,
//! PM-a90, PM-e2, TS, QP \[14\], and Ours — over the four evaluated
//! benchmarks, printing Acc(%) / Litho# per cell plus the Average and Ratio
//! summary rows (ratios normalised by "Ours", as in the paper).

use hotspot_active::SamplingConfig;
use hotspot_baselines::PatternMatcher;
use hotspot_bench::{
    evaluated_specs, ratio_row, render_table, run_pattern_method, try_generate, write_json,
    ActiveMethod, ExperimentArgs, MethodResult, TableRow,
};

const METHODS: [&str; 7] = ["PM-exact", "PM-a95", "PM-a90", "PM-e2", "TS", "QP", "Ours"];

fn main() {
    let args = ExperimentArgs::from_env();
    let specs = evaluated_specs(args.scale);

    let mut rows = Vec::new();
    let mut results: Vec<MethodResult> = Vec::new();
    for spec in &specs {
        let bench = try_generate(spec, args.seed).expect("benchmark generation succeeds");
        let config = SamplingConfig::for_benchmark(bench.len());
        let active = |method| {
            let plan = args.plan(method);
            plan.method_result(&bench, &plan.run(&bench, &config, args.seed, None))
        };
        let cells: Vec<MethodResult> = vec![
            run_pattern_method(PatternMatcher::exact(), &bench),
            run_pattern_method(PatternMatcher::fuzzy_95(), &bench),
            run_pattern_method(PatternMatcher::fuzzy_90(), &bench),
            run_pattern_method(PatternMatcher::edge_tolerant(), &bench),
            active(ActiveMethod::Ts),
            active(ActiveMethod::Qp),
            active(ActiveMethod::Ours),
        ];
        for cell in &cells {
            hotspot_telemetry::info(
                "bench.table2",
                "method finished",
                &[
                    ("benchmark", spec.name.as_str().into()),
                    ("method", cell.method.as_str().into()),
                    ("accuracy", cell.accuracy.into()),
                    ("litho", (cell.litho as u64).into()),
                ],
            );
        }
        rows.push(TableRow {
            label: spec.name.clone(),
            cells: cells.iter().map(|c| (c.accuracy, c.litho as f64)).collect(),
            percent: true,
        });
        results.extend(cells);
    }

    let (avg, ratio) = ratio_row(&rows);
    rows.push(avg);
    rows.push(ratio);

    println!(
        "Table II: full chip pattern sampling and hotspot detection (scale {}, seed {}, {} repeats)",
        args.scale, args.seed, args.repeats
    );
    println!("{}", render_table(&METHODS, &rows));
    write_json(&args.out, "table2", &results);
    args.finish_telemetry();
}
