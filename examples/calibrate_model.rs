//! Model calibration walkthrough (the Fig. 2 effect): train a hotspot
//! classifier, show how over-confident its raw softmax is, then fix it with
//! temperature scaling and watch the expected calibration error drop.
//!
//! ```text
//! cargo run --release --example calibrate_model
//! ```

use lithohd::active::{standardized_dct, HotspotModel};
use lithohd::calibration::{ReliabilityDiagram, RocCurve, Temperature};
use lithohd::layout::{BenchmarkSpec, GeneratedBenchmark};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = BenchmarkSpec::iccad16_3().scaled(0.4);
    println!("generating {} ({} clips)…", spec.name, spec.total());
    let bench = GeneratedBenchmark::generate(&spec, 3)?;

    // Standardised features; train / validation / test split.
    let (x, _, _) = standardized_dct(&bench);
    let y: Vec<usize> = bench.labels().iter().map(|l| l.class_index()).collect();
    let train: Vec<usize> = (0..bench.len()).filter(|i| i % 4 == 0).collect();
    let val: Vec<usize> = (0..bench.len()).filter(|i| i % 4 == 1).collect();
    let test: Vec<usize> = (0..bench.len()).filter(|i| i % 4 > 1).collect();

    let mut model = HotspotModel::new(x.cols(), 1, 1.0, 1e-3, 32);
    let train_labels: Vec<usize> = train.iter().map(|&i| y[i]).collect();
    model.train(&x.gather_rows(&train), &train_labels, 60, 0)?;

    // Fit T on the validation set.
    let (val_logits, _) = model.predict(&x.gather_rows(&val));
    let val_labels: Vec<usize> = val.iter().map(|&i| y[i]).collect();
    let temperature = Temperature::fit(val_logits.as_slice(), 2, &val_labels)?;
    println!("fitted {temperature}");

    // Reliability on held-out clips, before and after.
    let (test_logits, _) = model.predict(&x.gather_rows(&test));
    for (title, t) in [
        ("raw softmax (T = 1)", Temperature::identity()),
        ("calibrated", temperature),
    ] {
        let probabilities = t.probabilities_batch(test_logits.as_slice(), 2);
        let mut confidences = Vec::new();
        let mut correct = Vec::new();
        for (row, &clip) in test.iter().enumerate() {
            let p = &probabilities[row * 2..row * 2 + 2];
            let pred = (p[1] > p[0]) as usize;
            confidences.push(p[pred] as f64);
            correct.push(pred == y[clip]);
        }
        let diagram = ReliabilityDiagram::from_predictions(&confidences, &correct, 10);
        println!();
        println!("--- {title} ---");
        println!("{diagram}");
    }

    // Threshold-swept quality of the detector itself (temperature scaling
    // preserves the ranking, so the AUC is calibration-invariant).
    let probabilities = temperature.probabilities_batch(test_logits.as_slice(), 2);
    let hotspot_scores: Vec<f32> = (0..test.len())
        .map(|row| probabilities[row * 2 + 1])
        .collect();
    let truth: Vec<bool> = test.iter().map(|&i| y[i] == 1).collect();
    let roc = RocCurve::from_scores(&hotspot_scores, &truth);
    println!();
    println!("detector AUC on held-out clips: {:.4}", roc.auc());
    let operating = roc.at_threshold(0.4);
    println!(
        "operating point at the paper's h = 0.4: TPR {:.3}, FPR {:.3}",
        operating.tpr, operating.fpr
    );
    Ok(())
}
