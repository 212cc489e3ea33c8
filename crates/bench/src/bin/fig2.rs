//! Fig. 2 — reliability diagrams before and after model calibration.
//!
//! Trains the hotspot classifier on a labelled subset of an ICCAD16-3-like
//! benchmark, then bins held-out prediction confidences against empirical
//! accuracy in 10 equal-width bins: once with the raw softmax (`T = 1`,
//! Fig. 2a) and once after temperature scaling on a validation split
//! (Fig. 2b). The calibrated ECE should drop substantially.

use hotspot_active::{standardized_dct, HotspotModel};
use hotspot_bench::{try_generate, write_json, ExperimentArgs};
use hotspot_calibration::{ReliabilityDiagram, Temperature};
use hotspot_layout::BenchmarkSpec;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct Fig2Result {
    temperature: f64,
    ece_before: f64,
    ece_after: f64,
    bins_before: Vec<(f64, f64, usize)>,
    bins_after: Vec<(f64, f64, usize)>,
}

fn main() {
    let args = ExperimentArgs::from_env();
    let spec = BenchmarkSpec::iccad16_3().scaled(args.scale.max(0.25));
    let bench = try_generate(&spec, args.seed).expect("benchmark generation succeeds");

    // Standardised features and a train / validation / test split.
    let (x, _, _) = standardized_dct(&bench);
    let y: Vec<usize> = bench.labels().iter().map(|l| l.class_index()).collect();

    let n = bench.len();
    let train: Vec<usize> = (0..n).filter(|i| i % 4 == 0).collect();
    let validation: Vec<usize> = (0..n).filter(|i| i % 4 == 1).collect();
    let test: Vec<usize> = (0..n).filter(|i| i % 4 > 1).collect();

    let mut model = HotspotModel::new(x.cols(), args.seed, 1.0, 1e-3, 32);
    let labels: Vec<usize> = train.iter().map(|&i| y[i]).collect();
    model
        .train(&x.gather_rows(&train), &labels, 60, args.seed)
        .expect("training succeeds");

    // Fit the temperature on validation logits.
    let (val_logits, _) = model.predict(&x.gather_rows(&validation));
    let val_labels: Vec<usize> = validation.iter().map(|&i| y[i]).collect();
    let temperature =
        Temperature::fit(val_logits.as_slice(), 2, &val_labels).expect("temperature fit succeeds");

    // Held-out confidences, raw and calibrated.
    let (test_logits, _) = model.predict(&x.gather_rows(&test));
    let diagram = |t: Temperature| -> ReliabilityDiagram {
        let probabilities = t.probabilities_batch(test_logits.as_slice(), 2);
        let mut confidences = Vec::with_capacity(test.len());
        let mut correct = Vec::with_capacity(test.len());
        for (row, &clip) in test.iter().enumerate() {
            let p = &probabilities[row * 2..row * 2 + 2];
            let pred = (p[1] > p[0]) as usize;
            confidences.push(p[pred] as f64);
            correct.push(pred == y[clip]);
        }
        ReliabilityDiagram::from_predictions(&confidences, &correct, 10)
    };
    let before = diagram(Temperature::identity());
    let after = diagram(temperature);

    println!(
        "Fig. 2: reliability diagrams (confidence vs accuracy), {}",
        spec.name
    );
    println!();
    println!("(a) Original (T = 1)");
    println!("{before}");
    println!();
    println!("(b) Calibrated ({temperature})");
    println!("{after}");
    println!();
    println!(
        "ECE {:.4} -> {:.4} ({} held-out clips)",
        before.ece(),
        after.ece(),
        test.len()
    );

    let to_triples = |d: &ReliabilityDiagram| {
        d.bins()
            .iter()
            .map(|b| (b.mean_confidence, b.accuracy, b.count))
            .collect::<Vec<_>>()
    };
    write_json(
        &args.out,
        "fig2",
        &Fig2Result {
            temperature: temperature.value(),
            ece_before: before.ece(),
            ece_after: after.ece(),
            bins_before: to_triples(&before),
            bins_after: to_triples(&after),
        },
    );
    args.finish_telemetry();
}
