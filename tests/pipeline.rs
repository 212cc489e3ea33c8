//! End-to-end integration tests spanning the whole workspace: benchmark
//! generation → active sampling → detection metrics, and the relationships
//! between methods the paper's evaluation relies on.

use lithohd::active::{
    BatchSelector, EntropySelector, RandomSelector, SamplingConfig, SamplingFramework,
    UncertaintySelector,
};
use lithohd::baselines::{PatternMatcher, QpSelector};
use lithohd::layout::{BenchmarkSpec, GeneratedBenchmark, Tech};

fn test_benchmark(seed: u64) -> GeneratedBenchmark {
    let spec = BenchmarkSpec {
        name: "integration".to_owned(),
        tech: Tech::Euv7,
        hotspots: 24,
        non_hotspots: 226,
        dup_rate: 0.2,
        near_miss_rate: 0.3,
    };
    GeneratedBenchmark::generate(&spec, seed).expect("generation succeeds")
}

fn quick_config(total: usize) -> SamplingConfig {
    let mut config = SamplingConfig::for_benchmark(total);
    config.iterations = 5;
    config.initial_epochs = 40;
    config.update_epochs = 15;
    config
}

#[test]
fn active_pipeline_accounts_litho_exactly() {
    let bench = test_benchmark(1);
    let framework = SamplingFramework::new(quick_config(bench.len()));
    let outcome = framework
        .run(&bench, &mut EntropySelector::new(), 9)
        .expect("run succeeds");
    let m = &outcome.metrics;
    // Eq. 2 and the oracle meter must agree.
    assert_eq!(m.litho, m.train_size + m.validation_size + m.false_alarms);
    assert_eq!(
        outcome.oracle_stats.unique,
        m.train_size + m.validation_size
    );
    // Eq. 1 is bounded by construction.
    assert!(m.accuracy <= 1.0);
    assert!(m.train_hotspots + m.validation_hotspots + m.hits <= m.total_hotspots);
    // Sampled indices are unique and within range.
    let mut sampled = outcome.sampled_indices.clone();
    sampled.sort_unstable();
    sampled.dedup();
    assert_eq!(sampled.len(), outcome.sampled_indices.len());
    assert!(sampled.iter().all(|&i| i < bench.len()));
}

#[test]
fn entropy_sampler_beats_random_on_average() {
    let bench = test_benchmark(2);
    let framework = SamplingFramework::new(quick_config(bench.len()));
    let mut ours_total = 0.0;
    let mut random_total = 0.0;
    for seed in 0..3 {
        ours_total += framework
            .run(&bench, &mut EntropySelector::new(), seed)
            .expect("run succeeds")
            .metrics
            .accuracy;
        random_total += framework
            .run(&bench, &mut RandomSelector::new(), seed)
            .expect("run succeeds")
            .metrics
            .accuracy;
    }
    assert!(
        ours_total >= random_total,
        "entropy {ours_total} vs random {random_total}"
    );
}

#[test]
fn all_selectors_complete_on_the_same_benchmark() {
    let bench = test_benchmark(3);
    let framework = SamplingFramework::new(quick_config(bench.len()));
    let selectors: Vec<Box<dyn BatchSelector>> = vec![
        Box::new(EntropySelector::new()),
        Box::new(UncertaintySelector::new()),
        Box::new(QpSelector::new()),
        Box::new(RandomSelector::new()),
    ];
    for mut selector in selectors {
        let outcome = framework
            .run(&bench, selector.as_mut(), 5)
            .expect("run succeeds");
        assert!(
            outcome.metrics.accuracy > 0.3,
            "{}: {}",
            outcome.selector,
            outcome.metrics.accuracy
        );
        assert!(!outcome.history.is_empty());
    }
}

#[test]
fn pattern_matching_exact_dominates_cost() {
    let bench = test_benchmark(4);
    let pm = PatternMatcher::exact().run(&bench);
    let framework = SamplingFramework::new(quick_config(bench.len()));
    let active = framework
        .run(&bench, &mut EntropySelector::new(), 1)
        .expect("run succeeds");
    // Exact matching is perfectly accurate but pays far more litho than the
    // active sampler — the paper's core claim.
    assert_eq!(pm.accuracy, 1.0);
    assert!(
        pm.litho > active.metrics.litho,
        "PM litho {} vs active {}",
        pm.litho,
        active.metrics.litho
    );
}

#[test]
fn fuzzy_matching_trades_accuracy_for_cost() {
    let bench = test_benchmark(5);
    let exact = PatternMatcher::exact().run(&bench);
    let a95 = PatternMatcher::fuzzy_95().run(&bench);
    let a90 = PatternMatcher::fuzzy_90().run(&bench);
    assert!(a95.litho < exact.litho);
    assert!(a90.litho < a95.litho);
    assert!(a90.accuracy <= a95.accuracy + 1e-12);
}

#[test]
fn calibration_component_improves_reliability_on_average() {
    let bench = test_benchmark(6);
    let framework = SamplingFramework::new(quick_config(bench.len()));
    let (mut before, mut after) = (0.0, 0.0);
    for seed in 0..3 {
        let outcome = framework
            .run(&bench, &mut EntropySelector::new(), seed)
            .expect("run succeeds");
        before += outcome.ece_before;
        after += outcome.ece_after;
    }
    assert!(
        after <= before + 0.05,
        "calibration should not hurt ECE: {before} -> {after}"
    );
}

#[test]
fn regenerated_rasters_reproduce_oracle_labels() {
    // The litho simulator, generator and oracle must agree end to end.
    let bench = test_benchmark(7);
    let sim = lithohd::litho::LithoSimulator::new(bench.spec().tech.litho_config());
    for index in (0..bench.len()).step_by(17) {
        let raster = bench.clip_raster(index);
        assert_eq!(
            sim.label(&raster, bench.core()),
            bench.labels()[index],
            "clip {index}"
        );
    }
}
