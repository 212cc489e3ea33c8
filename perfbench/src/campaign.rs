//! `campaign-iccad12`: the `pshd` flow. Generate ICCAD12 ×0.02, then one
//! run each of Ours, TS, QP and Random through
//! `SamplingFramework::run_with_oracle` with the plain metered oracle.

use std::time::Instant;

use hotspot_active::{
    BatchSelector, EntropySelector, RandomSelector, RunOutcome, SamplingConfig, SamplingFramework,
    UncertaintySelector,
};
use hotspot_baselines::QpSelector;
use hotspot_features::{run_length_histogram, FeatureExtractor, DEFAULT_RUN_BINS};
use hotspot_layout::{BenchmarkSpec, ClipRecipe, GeneratedBenchmark};
use hotspot_litho::LithoSimulator;
use hotspot_telemetry::{self as telemetry, names, MetricsSnapshot};

use crate::trace::{self, TimedOracle, TimedSelector};
use crate::{counter_delta, histogram_delta, median, quantile, Args, Outcome};

/// ICCAD12 at this scale is 3,268 clips with 2.3 % hotspots.
const SCALE: f64 = 0.02;
/// Set-up runs per process; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Clips replayed through single layers in the traced run.
const REPLAY_CLIPS: usize = 64;
/// Lower end of the temperature search (`calibration::Temperature::fit`).
pub const TEMPERATURE_FLOOR: f64 = 0.25;
const METHODS: [&str; 4] = ["ours", "ts", "qp", "random"];
/// Wall time of one four-method campaign on a 2-vCPU host, for sizing runs.
const CAMPAIGN_NOMINAL_S: f64 = 5.0;

fn selector(method: &str) -> Box<dyn BatchSelector> {
    match method {
        "ours" => Box::new(EntropySelector::new()),
        "ts" => Box::new(UncertaintySelector::new()),
        "qp" => Box::new(QpSelector::new()),
        _ => Box::new(RandomSelector::new()),
    }
}

pub fn is_pinned(temperature: f64) -> bool {
    temperature <= TEMPERATURE_FLOOR * (1.0 + 1e-6)
}

/// One framework run and what the wrappers saw of it.
struct MethodRun {
    method: &'static str,
    outcome: RunOutcome,
    wall_s: f64,
    select_s: f64,
    select_calls: u64,
    oracle_s: f64,
}

struct Campaign {
    runs: Vec<MethodRun>,
    wall_s: f64,
    oracle_calls: f64,
}

fn run_campaign(
    bench: &GeneratedBenchmark,
    config: &SamplingConfig,
    seed: u64,
) -> Result<Campaign, String> {
    let _span = trace::span("campaign");
    let before = telemetry::snapshot();
    let framework = SamplingFramework::new(config.clone());
    let started = Instant::now();
    let mut runs = Vec::new();
    for method in METHODS {
        let _run_span = trace::span(&format!("run.{method}"));
        let mut selector = TimedSelector::new(selector(method));
        let mut oracle = TimedOracle::new(bench.oracle());
        let start = Instant::now();
        let outcome = framework
            .run_with_oracle(bench, &mut selector, seed, &mut oracle)
            .map_err(|e| format!("{method} run failed: {e}"))?;
        runs.push(MethodRun {
            method,
            outcome,
            wall_s: start.elapsed().as_secs_f64(),
            select_s: selector.seconds,
            select_calls: selector.calls,
            oracle_s: oracle.seconds,
        });
    }
    let wall_s = started.elapsed().as_secs_f64();
    let oracle_calls = counter_delta(&before, &telemetry::snapshot(), names::ORACLE_CALLS);
    Ok(Campaign {
        runs,
        wall_s,
        oracle_calls,
    })
}

/// Correctness checks and degenerate-state flags of one campaign.
fn check_campaign(campaign: &Campaign, outcome: &mut Outcome) {
    for run in &campaign.runs {
        outcome.op(!run.outcome.degraded);
    }
    let litho: usize = campaign.runs.iter().map(|r| r.outcome.metrics.litho).sum();
    outcome.check(
        "litho.oracle.calls equals summed Litho#",
        campaign.oracle_calls == litho as f64,
        &format!("counter {} vs Litho# {litho}", campaign.oracle_calls),
    );
}

/// Prints warnings for states in which the campaign cannot show a
/// regression; returns `(accuracy_saturated, litho_equal, pinned_runs)`.
fn degenerate_states(campaign: &Campaign, outcome: &Outcome) -> (bool, bool, usize) {
    let saturated = campaign
        .runs
        .iter()
        .all(|r| r.outcome.metrics.accuracy >= 1.0);
    if saturated {
        outcome.warn("accuracy is saturated at 1.0 for every method; accuracy cannot regress here");
    }
    let first_litho = campaign.runs[0].outcome.metrics.litho;
    let litho_equal = campaign
        .runs
        .iter()
        .all(|r| r.outcome.metrics.litho == first_litho);
    if litho_equal {
        outcome.warn(&format!(
            "Litho# is {first_litho} for every method; a fixed budget hides sampling cost"
        ));
    }
    let pinned: Vec<&str> = campaign
        .runs
        .iter()
        .filter(|r| is_pinned(r.outcome.final_temperature))
        .map(|r| r.method)
        .collect();
    if !pinned.is_empty() {
        outcome.warn(&format!(
            "final temperature pinned at the {TEMPERATURE_FLOOR} search bound for {}",
            pinned.join(", ")
        ));
    }
    (saturated, litho_equal, pinned.len())
}

pub fn run(args: &Args, outcome: &mut Outcome) -> Result<(), String> {
    let spec = BenchmarkSpec::iccad12().scaled(SCALE);
    trace::set_enabled(args.trace);
    let mut setup_s = Vec::new();
    let mut generated = None;
    let mut aerial_calls = 0.0;
    for _ in 0..SETUP_REPEATS {
        let _span = trace::span("generate");
        let before = telemetry::snapshot();
        let start = Instant::now();
        let bench = GeneratedBenchmark::generate(&spec, args.seed)
            .map_err(|e| format!("benchmark generation failed: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        let after = telemetry::snapshot();
        aerial_calls = counter_delta(&before, &after, names::KERNEL_AERIAL_CALLS);
        if args.trace {
            for name in [
                names::KERNEL_AERIAL_CALLS,
                names::KERNEL_AERIAL_FLOPS,
                names::KERNEL_AERIAL_BYTES,
                names::KERNEL_DCT_CALLS,
                names::KERNEL_DCT_FLOPS,
            ] {
                outcome.set(name, counter_delta(&before, &after, name));
            }
        }
        generated = Some(bench);
    }
    let bench = generated.ok_or("no set-up ran")?;
    println!(
        "setup: GeneratedBenchmark::generate {} clips ({} hotspots) in {:.3} s median of {:?}",
        bench.len(),
        bench.hotspot_count(),
        median(&setup_s),
        setup_s
    );
    let config = SamplingConfig::for_benchmark(bench.len());

    if args.trace {
        return traced(args, outcome, &bench, &config, &setup_s, aerial_calls);
    }

    let mut campaigns = Vec::new();
    for _ in 0..args.units(CAMPAIGN_NOMINAL_S) {
        let campaign = run_campaign(&bench, &config, args.seed)?;
        check_campaign(&campaign, outcome);
        println!("campaign {}: {:.3} s", campaigns.len() + 1, campaign.wall_s);
        campaigns.push(campaign);
    }
    let first = &campaigns[0];
    for run in &first.runs {
        println!(
            "  {:<7} accuracy {:.4}  Litho# {}  T {:.4}  {:.3} s",
            run.method,
            run.outcome.metrics.accuracy,
            run.outcome.metrics.litho,
            run.outcome.final_temperature,
            run.wall_s
        );
    }
    degenerate_states(first, outcome);
    // A campaign is a batch job: its user waits for the whole campaign, so
    // latency is per campaign. Per-run or per-iteration waits mix methods
    // whose costs differ tenfold, and their median jumps between methods.
    let campaign_s: Vec<f64> = campaigns.iter().map(|c| c.wall_s).collect();
    let campaign_ms: Vec<f64> = campaign_s.iter().map(|s| s * 1e3).collect();
    println!("latency: {} campaigns", campaigns.len());
    outcome.set("setup_s", median(&setup_s));
    outcome.set("flow_s", median(&campaign_s));
    outcome.set("latency_p50_ms", quantile(&campaign_ms, 0.50));
    outcome.set("latency_p95_ms", quantile(&campaign_ms, 0.95));
    outcome.set(
        "throughput_rps",
        campaigns.len() as f64 / campaign_s.iter().sum::<f64>(),
    );
    let accuracy: f64 = first
        .runs
        .iter()
        .map(|r| r.outcome.metrics.accuracy)
        .sum::<f64>()
        / first.runs.len() as f64;
    outcome.set("accuracy", accuracy);
    outcome.set(
        "litho",
        first
            .runs
            .iter()
            .map(|r| r.outcome.metrics.litho as f64)
            .sum(),
    );
    Ok(())
}

fn traced(
    args: &Args,
    outcome: &mut Outcome,
    bench: &GeneratedBenchmark,
    config: &SamplingConfig,
    setup_s: &[f64],
    aerial_calls: f64,
) -> Result<(), String> {
    outcome.set("layout.generate_s", median(setup_s));
    outcome.set("layout.clips", bench.len() as f64);
    outcome.set("layout.accept_ratio", accept_ratio(bench, aerial_calls));
    replay_layers(bench, outcome);

    // The same campaign with the harness's spans off, then on.
    trace::set_enabled(false);
    let plain = run_campaign(bench, config, args.seed)?;
    check_campaign(&plain, outcome);
    trace::set_enabled(true);
    let before = telemetry::snapshot();
    let campaign = run_campaign(bench, config, args.seed)?;
    let after = telemetry::snapshot();
    check_campaign(&campaign, outcome);
    let (saturated, litho_equal, pinned) = degenerate_states(&campaign, outcome);
    outcome.set("bench.trace_overhead", campaign.wall_s / plain.wall_s);
    println!(
        "trace overhead: campaign {:.3} s traced vs {:.3} s untraced",
        campaign.wall_s, plain.wall_s
    );
    outcome.set(
        "degenerate.accuracy_saturated",
        f64::from(u8::from(saturated)),
    );
    outcome.set("degenerate.litho_equal", f64::from(u8::from(litho_equal)));
    outcome.set("calibration.pinned_runs", pinned as f64);

    let runs = &campaign.runs;
    for run in runs {
        outcome.set(&format!("core.run_s.{}", run.method), run.wall_s);
        outcome.set(&format!("core.select_s.{}", run.method), run.select_s);
    }
    outcome.set(
        "core.select.calls",
        runs.iter().map(|r| r.select_calls as f64).sum(),
    );
    framework_layers(&before, &after, outcome);
    outcome.set("litho.oracle_s", runs.iter().map(|r| r.oracle_s).sum());
    let mut paid = 0usize;
    let mut hot = 0usize;
    for run in runs {
        let mut labeled = config.initial_train;
        for stats in &run.outcome.history {
            paid += stats.labeled_size.saturating_sub(labeled);
            labeled = stats.labeled_size;
            hot += stats.batch_hotspots;
        }
    }
    outcome.set("core.batch_hotspot_ratio", hot as f64 / paid.max(1) as f64);
    outcome.set(
        "calibration.temperature",
        runs.iter()
            .map(|r| r.outcome.final_temperature)
            .sum::<f64>()
            / runs.len() as f64,
    );
    crate::finish_trace(args)
}

/// Rows the program's own counters and span histograms give for framework
/// runs between two snapshots: labels paid, training, pool inference, the
/// mixture fit, calibration and their kernels.
pub fn framework_layers(before: &MetricsSnapshot, after: &MetricsSnapshot, outcome: &mut Outcome) {
    for name in [
        names::ORACLE_CALLS,
        names::KERNEL_GMM_EM_FLOPS,
        names::KERNEL_DIVERSITY_FLOPS,
    ] {
        outcome.set(name, counter_delta(before, after, name));
    }
    let span = |name: &str| histogram_delta(before, after, &names::span_seconds(name));
    let (train_calls, train_s) = span(names::SPAN_NN_TRAIN);
    outcome.set("nn.train_s", train_s);
    outcome.set("nn.train.calls", train_calls);
    outcome.set("nn.predict_pool_s", span(names::SPAN_DETECT).1);
    outcome.set("gmm.fit_s", span(names::SPAN_GMM_FIT).1);
    outcome.set("calibration.fit_s", span(names::SPAN_CALIBRATE).1);
}

/// Fresh clips the generator kept over candidates it simulated: the share
/// of aerial-image work that was not thrown away. Duplicated clips cost no
/// simulation and are left out.
pub fn accept_ratio(bench: &GeneratedBenchmark, aerial_calls: f64) -> f64 {
    let fresh = bench
        .recipes()
        .iter()
        .filter(|r| matches!(r, ClipRecipe::Fresh { .. }))
        .count();
    fresh as f64 / aerial_calls.max(1.0)
}

/// Times single layers on a fixed sample of the workload's clips:
/// synthesis (`clip_raster`), lithography labelling, and the feature recipe.
fn replay_layers(bench: &GeneratedBenchmark, outcome: &mut Outcome) {
    let _span = trace::span("replay");
    let stride = (bench.len() / REPLAY_CLIPS).max(1);
    let sample: Vec<usize> = (0..bench.len())
        .step_by(stride)
        .take(REPLAY_CLIPS)
        .collect();
    let core = bench.core();
    let rasters = {
        let _span = trace::span("replay.synthesize");
        let start = Instant::now();
        let rasters: Vec<_> = sample.iter().map(|&i| bench.clip_raster(i)).collect();
        outcome.set(
            "layout.synthesize_us",
            start.elapsed().as_secs_f64() * 1e6 / sample.len() as f64,
        );
        rasters
    };
    {
        let _span = trace::span("replay.label");
        let sim = LithoSimulator::new(bench.spec().tech.litho_config());
        let start = Instant::now();
        for raster in &rasters {
            std::hint::black_box(sim.label(raster, core));
        }
        outcome.set(
            "litho.label_us",
            start.elapsed().as_secs_f64() * 1e6 / rasters.len() as f64,
        );
    }
    {
        let _span = trace::span("replay.extract");
        let extractor = FeatureExtractor::standard();
        let start = Instant::now();
        for raster in &rasters {
            let crop = raster.crop(&core).unwrap_or_else(|| raster.clone());
            let mut row = extractor.extract(&crop);
            row.extend(run_length_histogram(&crop, 0.5, &DEFAULT_RUN_BINS));
            std::hint::black_box(row);
        }
        outcome.set(
            "features.extract_us",
            start.elapsed().as_secs_f64() * 1e6 / rasters.len() as f64,
        );
    }
}
