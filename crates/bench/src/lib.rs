//! Shared experiment harness for the table/figure reproduction binaries.
//!
//! Every `src/bin/*` target reproduces one table or figure of the paper (see
//! DESIGN.md for the index). This library holds what they share: a tiny CLI
//! parser (`--scale`, `--seed`, `--out`), benchmark construction, the one
//! [`RunPlan`] every active-learning run goes through, plain-text table
//! rendering, JSON result output, and the Fig. 6(b)
//! runtime model (10 s penalty per litho-clip plus measured PSHD seconds).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod checkpoint;
mod cli;
pub mod journal;
mod methods;
mod pca;
pub mod profile;
pub mod render;
mod report;
mod runtime;

pub use checkpoint::{CheckpointedSequence, RunRecord, CRASH_EXIT_CODE};
pub use cli::ExperimentArgs;
pub use hotspot_baselines::ActiveMethod;
pub use methods::{run_pattern_method, FaultyMethodResult, MethodResult, RunPlan, ShardSpec};
pub use pca::project_2d;
pub use report::{ratio_row, render_table, write_json, TableRow};
pub use runtime::{runtime_seconds, LITHO_SECONDS_PER_CLIP};

use hotspot_layout::{BenchmarkSpec, GeneratedBenchmark};

/// The four evaluated benchmarks of Table II (ICCAD16-1 is excluded for
/// having no hotspots, as in the paper), scaled by `scale`. The small
/// ICCAD16 suites are never scaled below a quarter so their class counts
/// stay meaningful.
pub fn evaluated_specs(scale: f64) -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec::iccad12().scaled(scale),
        BenchmarkSpec::iccad16_2().scaled(scale.max(0.25)),
        BenchmarkSpec::iccad16_3().scaled(scale.max(0.25)),
        BenchmarkSpec::iccad16_4().scaled(scale.max(0.25)),
    ]
}

/// Generates one benchmark, reporting progress as telemetry events. The
/// `benchmark ready` event carries the full spec and seed, so an offline
/// renderer can re-synthesize any clip's geometry from the journal alone.
///
/// # Errors
///
/// Propagates [`hotspot_layout::LayoutError`] from benchmark generation
/// (invalid spec or stalled geometry synthesis).
pub fn try_generate(
    spec: &BenchmarkSpec,
    seed: u64,
) -> Result<GeneratedBenchmark, hotspot_layout::LayoutError> {
    use hotspot_telemetry as telemetry;
    let _span = telemetry::span(telemetry::names::SPAN_GENERATE);
    telemetry::info(
        "bench.generate",
        "generating benchmark",
        &[
            ("benchmark", spec.name.as_str().into()),
            ("hotspots", (spec.hotspots as u64).into()),
            ("non_hotspots", (spec.non_hotspots as u64).into()),
        ],
    );
    // lithohd-lint: allow(determinism-clock) — generation time feeds a telemetry event only
    let start = std::time::Instant::now();
    let bench = GeneratedBenchmark::generate(spec, seed)?;
    telemetry::info(
        "bench.generate",
        telemetry::names::EVENT_BENCHMARK_READY,
        &[
            ("benchmark", spec.name.as_str().into()),
            ("clips", (bench.len() as u64).into()),
            ("seed", seed.into()),
            ("tech", spec.tech.name().into()),
            ("hotspots", (spec.hotspots as u64).into()),
            ("non_hotspots", (spec.non_hotspots as u64).into()),
            ("dup_rate", spec.dup_rate.into()),
            ("near_miss_rate", spec.near_miss_rate.into()),
            ("elapsed_ms", (start.elapsed().as_millis() as u64).into()),
        ],
    );
    Ok(bench)
}
