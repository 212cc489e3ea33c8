//! # lithohd — active entropy sampling for lithography hotspot detection
//!
//! Façade crate of the `lithohd` workspace, a from-scratch Rust reproduction
//! of *"Low-Cost Lithography Hotspot Detection with Active Entropy Sampling
//! and Model Calibration"* (DAC 2021). It re-exports every subsystem so that
//! applications — and the `examples/` in this repository — can depend on one
//! crate:
//!
//! * [`geom`] — integer Manhattan geometry and clip rasters,
//! * [`layout`] — synthetic ICCAD12/16-like benchmark generation,
//! * [`litho`] — aerial-image lithography simulation and the metered oracle,
//! * [`features`] — block-DCT and density feature extraction,
//! * [`nn`] — the minimal neural-network library (dense/ReLU/Adam),
//! * [`gmm`] — Gaussian mixture models for the posterior-driven query pool,
//! * [`qp`] — the quadratic-program solver behind the QP baseline,
//! * [`calibration`] — temperature scaling, ECE, reliability diagrams,
//! * [`active`] — the paper's contribution: calibrated uncertainty,
//!   min-distance diversity, entropy weighting, and the sampling framework,
//! * [`baselines`] — pattern matching, TS-only and QP batch samplers.
//!
//! # Quickstart
//!
//! ```
//! use lithohd::layout::{BenchmarkSpec, GeneratedBenchmark};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a small ICCAD16-2-like benchmark and inspect its statistics.
//! let spec = BenchmarkSpec::iccad16_2().scaled(0.25);
//! let bench = GeneratedBenchmark::generate(&spec, 7)?;
//! assert!(bench.hotspot_count() > 0);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/quickstart.rs` for the full sampling loop.

#![forbid(unsafe_code)]

pub use hotspot_active as active;
pub use hotspot_baselines as baselines;
pub use hotspot_calibration as calibration;
pub use hotspot_features as features;
pub use hotspot_geom as geom;
pub use hotspot_gmm as gmm;
pub use hotspot_layout as layout;
pub use hotspot_litho as litho;
pub use hotspot_nn as nn;
pub use hotspot_qp as qp;
