//! Head-to-head comparison of the four batch-selection strategies on one
//! benchmark: the paper's entropy sampler, the TS (calibrated-uncertainty-
//! only) baseline, the QP selector of [14], and uniform random sampling.
//!
//! ```text
//! cargo run --release --example compare_samplers
//! ```

use lithohd::active::{
    BatchSelector, EntropySelector, RandomSelector, SamplingConfig, SamplingFramework,
    UncertaintySelector,
};
use lithohd::baselines::QpSelector;
use lithohd::layout::{BenchmarkSpec, GeneratedBenchmark};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = BenchmarkSpec::iccad16_4().scaled(0.5);
    println!("generating {} ({} clips)…", spec.name, spec.total());
    let bench = GeneratedBenchmark::generate(&spec, 5)?;
    let framework = SamplingFramework::new(SamplingConfig::for_benchmark(bench.len()));

    let selectors: Vec<(&str, Box<dyn BatchSelector>)> = vec![
        ("Ours (entropy)", Box::new(EntropySelector::new())),
        ("TS", Box::new(UncertaintySelector::new())),
        ("QP [14]", Box::new(QpSelector::new())),
        ("Random", Box::new(RandomSelector::new())),
    ];

    println!();
    println!(
        "{:<16} {:>8} {:>8} {:>6} {:>6} {:>10}",
        "method", "Acc(%)", "Litho#", "hits", "FA", "PSHD (s)"
    );
    for (name, mut selector) in selectors {
        // Average over three seeds; the classifier is initialisation-
        // sensitive, which is exactly the stability point of the paper's
        // Fig. 4 study.
        let (mut acc, mut litho, mut hits, mut fa, mut secs) = (0.0, 0.0, 0.0, 0.0, 0.0);
        const SEEDS: [u64; 3] = [1, 2, 3];
        for seed in SEEDS {
            let outcome = framework.run(&bench, selector.as_mut(), seed)?;
            acc += outcome.metrics.accuracy;
            litho += outcome.metrics.litho as f64;
            hits += outcome.metrics.hits as f64;
            fa += outcome.metrics.false_alarms as f64;
            secs += outcome.elapsed.as_secs_f64();
        }
        let n = SEEDS.len() as f64;
        println!(
            "{:<16} {:>8.2} {:>8.1} {:>6.1} {:>6.1} {:>10.2}",
            name,
            acc / n * 100.0,
            litho / n,
            hits / n,
            fa / n,
            secs / n
        );
    }
    Ok(())
}
