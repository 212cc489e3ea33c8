//! Fig. 3(b) — runtime of the diversity metric: QP \[14\] vs ours.
//!
//! The paper reports 153.97 vs 8.28 (×10⁻⁴ s) per diversity evaluation. This
//! binary measures both on the same query set: the paper's metric is a
//! single O(n²·d) min-distance pass; the QP baseline takes an O(n²·d) pass
//! for its step size *and* then runs the projected-gradient solve, each
//! iteration O(n·d) plus an O(n log n) projection. The gated
//! `lithohd-profile` microbench times the same comparison as its adjacent
//! `diversity` and `qp_diversity` rows.

use hotspot_active::{diversity_scores, standardized_dct, HotspotModel};
use hotspot_baselines::QpSelector;
use hotspot_bench::{try_generate, write_json, ExperimentArgs};
use hotspot_layout::BenchmarkSpec;
use hotspot_qp::QpSolver;
use serde::Serialize;
use std::time::{Duration, Instant};

/// Shortest wall time each side is timed for. A sub-millisecond call timed
/// only `--repeats` times reads mostly host noise; this many calls average
/// it out.
const MIN_WALL: Duration = Duration::from_secs(1);

#[derive(Debug, Serialize)]
struct Fig3bResult {
    query_size: usize,
    ours_seconds: f64,
    qp_seconds: f64,
    speedup: f64,
}

fn main() {
    let args = ExperimentArgs::from_env();
    let spec = BenchmarkSpec::iccad16_3().scaled(args.scale.max(0.25));
    let bench = try_generate(&spec, args.seed).expect("benchmark generation succeeds");

    let (x, _, _) = standardized_dct(&bench);
    let model = HotspotModel::new(x.cols(), args.seed, 1.0, 1e-3, 32);

    let query: Vec<usize> = (0..bench.len()).take(256).collect();
    let (_, embeddings) = model.predict(&x.gather_rows(&query));
    let uncertainty = vec![0.5f32; query.len()];
    let k = 25;

    let ours = seconds_per_call(args.repeats, || {
        std::hint::black_box(diversity_scores(&embeddings));
    });
    let selector = QpSelector::new();
    let solver = QpSolver::default();
    let qp = seconds_per_call(args.repeats, || {
        let problem = selector
            .build_problem(&embeddings, &uncertainty, k)
            .unwrap();
        std::hint::black_box(solver.solve(&problem));
    });

    println!(
        "Fig. 3(b): diversity metric runtime ({} query clips)",
        query.len()
    );
    println!("  QP [14] : {:>10.2} x 1e-4 s", qp * 1e4);
    println!("  Ours    : {:>10.2} x 1e-4 s", ours * 1e4);
    println!("  speedup : {:>10.1}x", qp / ours);
    assert!(
        qp > ours,
        "the min-distance metric must be faster than the QP solve"
    );

    write_json(
        &args.out,
        "fig3b",
        &Fig3bResult {
            query_size: query.len(),
            ours_seconds: ours,
            qp_seconds: qp,
            speedup: qp / ours,
        },
    );
    args.finish_telemetry();
}

/// Mean wall seconds per call of `f`, after one untimed warm-up call, over
/// at least `repeats` calls and at least [`MIN_WALL`].
fn seconds_per_call(repeats: usize, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut calls = 0usize;
    while calls < repeats || start.elapsed() < MIN_WALL {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / calls as f64
}
