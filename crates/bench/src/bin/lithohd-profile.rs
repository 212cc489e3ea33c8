//! `lithohd-profile` — deterministic microbench over the hot kernels.
//!
//! Times 8×8 block DCT, GMM EM, diversity scoring,
//! aerial-image convolution, one full clip label (aerial image, resist and
//! both defect checks), hotspot-model inference and training (the
//! Dense matmuls behind `/score` and `nn.train`), and the QP diversity
//! baseline of Fig. 3(b) on fixed seeded inputs with a fixed warmup and a
//! median over repeated batched samples, then writes a JSON array of
//! `KernelSample`s. No statistics framework: each
//! sample times `batch` back-to-back iterations behind
//! `std::hint::black_box` and divides, and the median over samples is the
//! reported number — the same shape `lithohd-report gate --tolerance-time`
//! compares against the committed `BENCH_kernels.json` baseline.
//!
//! The workloads are deterministic (seeded inputs, fixed shapes), so two
//! runs measure the same arithmetic; only the clock varies.

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use hotspot_active::{diversity_scores, HotspotModel};
use hotspot_baselines::QpSelector;
use hotspot_bench::profile::{median_ns, KernelSample};
use hotspot_features::Dct2d;
use hotspot_geom::{ClipWindow, Raster, Rect};
use hotspot_gmm::{GaussianMixture, GmmConfig};
use hotspot_litho::{DefectKind, GaussianKernel, LithoConfig, LithoSimulator};
use hotspot_nn::Matrix;
use hotspot_qp::QpSolver;

const USAGE: &str = "usage: lithohd-profile [--out <path>] [--samples <n>] [--warmup <n>]\n\
  --out <path>      write the JSON sample array here (default: stdout only)\n\
  --samples <n>     timed samples per kernel, median reported (default 9)\n\
  --warmup <n>      untimed warmup samples per kernel (default 2)";

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut out: Option<String> = None;
    let mut samples = 9usize;
    let mut warmup = 2usize;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .ok_or_else(|| format!("flag {flag} expects a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")?.clone()),
            "--samples" => {
                samples = value("--samples")?
                    .parse()
                    .map_err(|e| format!("bad --samples: {e}"))?;
            }
            "--warmup" => {
                warmup = value("--warmup")?
                    .parse()
                    .map_err(|e| format!("bad --warmup: {e}"))?;
            }
            other => return Err(format!("unknown flag: {other}\n{USAGE}")),
        }
    }
    if samples == 0 {
        return Err("--samples must be positive".to_string());
    }

    let results = profile_all(samples, warmup);

    println!("| kernel | median | samples | batch |");
    println!("|---|---:|---:|---:|");
    for row in &results {
        println!(
            "| {} | {} | {} | {} |",
            row.kernel,
            fmt_ns(row.median_ns),
            row.samples,
            row.batch,
        );
    }

    if let Some(path) = out {
        let mut buf = Vec::new();
        serde_json::to_writer_pretty(&mut buf, &results)
            .map_err(|e| format!("cannot serialise samples: {e}"))?;
        buf.push(b'\n');
        std::fs::write(&path, buf).map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("kernel samples written to {path}");
    }
    Ok(())
}

/// Runs every kernel workload under the same sampling policy.
fn profile_all(samples: usize, warmup: usize) -> Vec<KernelSample> {
    vec![
        bench_dct(samples, warmup),
        bench_gmm_em(samples, warmup),
        bench_diversity(samples, warmup),
        bench_aerial(samples, warmup),
        bench_label(samples, warmup),
        bench_dense_infer(samples, warmup),
        bench_dense_train(samples, warmup),
        bench_qp_diversity(samples, warmup),
    ]
}

/// Times `work` as `samples` medians-input samples of `batch` iterations
/// each, after `warmup` untimed samples. The accumulator returned by `work`
/// is folded through `black_box` so the optimiser cannot discard the loop.
fn measure(
    kernel: &str,
    samples: usize,
    warmup: usize,
    batch: usize,
    mut work: impl FnMut() -> f32,
) -> KernelSample {
    let mut timings = Vec::with_capacity(samples);
    for round in 0..warmup + samples {
        let start = Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..batch {
            acc += black_box(work());
        }
        let elapsed = start.elapsed();
        black_box(acc);
        if round >= warmup {
            timings.push((elapsed.as_nanos() / batch as u128) as u64);
        }
    }
    KernelSample {
        kernel: kernel.to_string(),
        median_ns: median_ns(timings),
        samples,
        batch,
    }
}

/// Deterministic pseudo-random fill in roughly `[-0.5, 0.5)` (Weyl-style
/// integer hash, no RNG state to keep in sync).
fn det(i: usize) -> f32 {
    ((i.wrapping_mul(2_654_435_761) >> 8) % 1000) as f32 / 1000.0 - 0.5
}

fn det_matrix(rows: usize, cols: usize) -> Matrix {
    let data: Vec<Vec<f32>> = (0..rows)
        .map(|r| (0..cols).map(|c| det(r * cols + c)).collect())
        .collect();
    Matrix::from_rows(&data).expect("deterministic matrix rows are rectangular")
}

/// Forward 8×8 block DCT, the feature-extraction inner loop.
fn bench_dct(samples: usize, warmup: usize) -> KernelSample {
    let dct = Dct2d::new(8);
    let block: Vec<f32> = (0..64).map(det).collect();
    measure("dct", samples, warmup, 512, || dct.transform(&block)[0])
}

/// GMM EM fit: 96 samples × 8 dims, 3 components, a fixed 8 iterations
/// (`tol: 0.0` disables early convergence so every run does the same work).
fn bench_gmm_em(samples: usize, warmup: usize) -> KernelSample {
    let data: Vec<f32> = (0..96 * 8).map(det).collect();
    let config = GmmConfig {
        components: 3,
        max_iters: 8,
        tol: 0.0,
        seed: 5,
        reg_covar: 1e-6,
    };
    measure("gmm_em", samples, warmup, 8, || {
        let model = GaussianMixture::fit(&data, 8, &config).expect("profile GMM config is valid");
        model.weights()[0] as f32
    })
}

/// Diversity scoring over a 96×16 embedding matrix (pairwise cosine pass).
fn bench_diversity(samples: usize, warmup: usize) -> KernelSample {
    let embeddings = det_matrix(96, 16);
    measure("diversity", samples, warmup, 32, || {
        diversity_scores(&embeddings)[0]
    })
}

/// Separable aerial-image convolution at the production shape: a 120×120
/// DUV28 clip (1200 nm at 10 nm pitch) under the DUV28 PSF (σ = 3 px).
fn bench_aerial(samples: usize, warmup: usize) -> KernelSample {
    let kernel = GaussianKernel::new(LithoConfig::duv_28nm().sigma_px());
    let src: Vec<f32> = (0..120 * 120).map(|i| det(i) + 0.5).collect();
    let mut dst = vec![0.0f32; 120 * 120];
    measure("aerial", samples, warmup, 16, || {
        kernel.convolve_2d(&src, &mut dst, 120, 120);
        dst[0]
    })
}

/// One clip label as generation pays for it: `LithoSimulator::analyze` on a
/// DUV28 clip holding a sub-resolution wire pair (a bridge) and an
/// unprintable wire (a pinch), so both defect checks find something.
fn bench_label(samples: usize, warmup: usize) -> KernelSample {
    let config = LithoConfig::duv_28nm();
    let clip = ClipWindow::new(Rect::new(0, 0, 1200, 1200).expect("valid clip"), 600)
        .expect("valid clip window");
    let mut raster = Raster::zeros_for(&clip, config.pitch).expect("clip raster fits");
    for (y0, y1) in [(330, 490), (520, 680), (780, 810)] {
        raster.fill_rect(&Rect::new(100, y0, 1100, y1).expect("valid wire"), 1.0);
    }
    let sim = LithoSimulator::new(config);
    let report = sim.analyze(&raster, clip.core());
    for kind in [DefectKind::Bridge, DefectKind::Pinch] {
        assert!(
            report.defects().iter().any(|d| d.kind == kind),
            "profile clip must show a {kind}: {:?}",
            report.defects()
        );
    }
    measure("label", samples, warmup, 8, || {
        sim.analyze(&raster, clip.core()).defects().len() as f32
    })
}

/// Hotspot-model forward pass (logits plus embedding) over 256 rows of the
/// 148-wide DCT features: the Dense matmuls behind `/score` and pool
/// prediction.
fn bench_dense_infer(samples: usize, warmup: usize) -> KernelSample {
    let model = HotspotModel::new(148, 3, 1.0, 1e-3, 32);
    let input = det_matrix(256, 148);
    measure("dense_infer", samples, warmup, 4, || {
        let (logits, _) = model.predict(&input);
        logits.row(0)[0]
    })
}

/// One `nn.train` epoch: 64 labelled rows in mini-batches of 32. The model
/// keeps training across iterations, as in the active loop's fine-tuning.
fn bench_dense_train(samples: usize, warmup: usize) -> KernelSample {
    let mut model = HotspotModel::new(148, 3, 1.0, 1e-3, 32);
    let input = det_matrix(64, 148);
    let labels: Vec<usize> = (0..64).map(|i| i % 2).collect();
    measure("dense_train", samples, warmup, 8, || {
        let report = model
            .train(&input, &labels, 1, 0)
            .expect("profile training batch is valid");
        report.final_loss() as f32
    })
}

/// The QP diversity baseline of \[14\] on the `diversity` row's 96×16
/// embeddings: build the similarity problem and run the projected-gradient
/// solve for a batch of 25, so Fig. 3(b) reads as two adjacent rows.
fn bench_qp_diversity(samples: usize, warmup: usize) -> KernelSample {
    let embeddings = det_matrix(96, 16);
    let uncertainty = vec![0.5f32; embeddings.rows()];
    let selector = QpSelector::new();
    let solver = QpSolver::default();
    measure("qp_diversity", samples, warmup, 4, || {
        let problem = selector
            .build_problem(&embeddings, &uncertainty, 25)
            .expect("profile QP shapes agree");
        solver.solve(&problem).values[0] as f32
    })
}

/// Human-readable nanoseconds for the stdout table.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}
