//! Fig. 3(a) — visualisation of the layout-pattern diversity metric.
//!
//! Takes a query set of clips, embeds them with a trained classifier,
//! computes the paper's min-distance diversity scores, projects the
//! embeddings to 2-D by PCA, and prints the scatter with the
//! highest-diversity points flagged (the paper colours them orange —
//! points away from clusters or on group boundaries are preferred).

use hotspot_active::{diversity_scores, standardized_dct, HotspotModel};
use hotspot_bench::{project_2d, try_generate, write_json, ExperimentArgs};
use hotspot_layout::BenchmarkSpec;
use serde::Serialize;

#[derive(Debug, Serialize)]
struct ScatterPoint {
    x: f32,
    y: f32,
    diversity: f32,
    highlighted: bool,
}

fn main() {
    let args = ExperimentArgs::from_env();
    let spec = BenchmarkSpec::iccad16_2().scaled(args.scale.max(0.25));
    let bench = try_generate(&spec, args.seed).expect("benchmark generation succeeds");

    let (x, _, _) = standardized_dct(&bench);
    let y: Vec<usize> = bench.labels().iter().map(|l| l.class_index()).collect();

    // A lightly trained model provides the embedding space.
    let train: Vec<usize> = (0..bench.len()).step_by(3).collect();
    let labels: Vec<usize> = train.iter().map(|&i| y[i]).collect();
    let mut model = HotspotModel::new(x.cols(), args.seed, 1.0, 1e-3, 32);
    model
        .train(&x.gather_rows(&train), &labels, 40, args.seed)
        .expect("training succeeds");

    // Query set: a slice of the pool.
    let query: Vec<usize> = (0..bench.len()).filter(|i| i % 3 != 0).take(200).collect();
    let (_, embeddings) = model.predict(&x.gather_rows(&query));
    let scores = diversity_scores(&embeddings);
    let planar = project_2d(embeddings.as_slice(), embeddings.cols());

    // Flag the top 15% most diverse points.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let cutoff = order.len().div_ceil(7);
    let mut highlighted = vec![false; scores.len()];
    for &i in &order[..cutoff] {
        highlighted[i] = true;
    }

    println!(
        "Fig. 3(a): layout pattern diversity ({} query clips)",
        query.len()
    );
    println!(
        "{:>10} {:>10} {:>10} {:>6}",
        "pc1", "pc2", "diversity", "flag"
    );
    let mut points = Vec::new();
    for (i, &(px, py)) in planar.iter().enumerate() {
        let flag = if highlighted[i] { "HIGH" } else { "" };
        println!("{:>10.4} {:>10.4} {:>10.4} {:>6}", px, py, scores[i], flag);
        points.push(ScatterPoint {
            x: px,
            y: py,
            diversity: scores[i],
            highlighted: highlighted[i],
        });
    }

    // Sanity property of the figure: the flagged points are more isolated on
    // average than the rest.
    let mean_of = |want: bool| -> f64 {
        let (mut sum, mut count) = (0.0f64, 0usize);
        for (i, &h) in highlighted.iter().enumerate() {
            if h == want {
                sum += scores[i] as f64;
                count += 1;
            }
        }
        sum / count.max(1) as f64
    };
    println!();
    println!(
        "mean diversity: highlighted {:.4} vs others {:.4}",
        mean_of(true),
        mean_of(false)
    );
    write_json(&args.out, "fig3a", &points);
    args.finish_telemetry();
}
