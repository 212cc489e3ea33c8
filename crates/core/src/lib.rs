//! Active entropy sampling with model calibration — the core contribution of
//! the DAC 2021 paper.
//!
//! The crate implements, faithfully to the paper's equations:
//!
//! * **Calibrated hotspot-aware uncertainty** (Eq. 3–6) — temperature-scaled
//!   softmax probabilities converted to a score that peaks just above the
//!   decision boundary `h = 0.4` and prefers hotspot-like samples
//!   ([`uncertainty_scores`]).
//! * **Min-distance diversity** (Eq. 7–8) — `dᵢ = min_j (1 − x̂ᵢᵀx̂ⱼ)` over
//!   ℓ2-normalised penultimate-layer embeddings ([`diversity_scores`]),
//!   replacing the QP formulation of Yang et al. \[14\].
//! * **Entropy weighting** (Eq. 10–13) — per-iteration dynamic weights from
//!   the dispersion of the two score distributions ([`entropy_weights`]).
//! * **Entropy-based sampling** (Algorithm 1) — [`EntropySelector`].
//! * **The overall sampling framework** (Algorithm 2) — [`SamplingFramework`]:
//!   GMM-driven split and query pools, iterative selection, litho-metered
//!   labelling, and full-chip detection with PSHD metrics (Eq. 1–2).
//!
//! # Example
//!
//! ```no_run
//! use hotspot_active::{SamplingConfig, SamplingFramework, EntropySelector};
//! use hotspot_layout::{BenchmarkSpec, GeneratedBenchmark};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iccad16_2(), 1)?;
//! let config = SamplingConfig::for_benchmark(bench.len());
//! let framework = SamplingFramework::new(config);
//! let outcome = framework.run(&bench, &mut EntropySelector::new(), 42)?;
//! println!("accuracy {:.2}%, litho {}", outcome.metrics.accuracy * 100.0, outcome.metrics.litho);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod checkpoint;
mod config;
mod dataset;
mod diversity;
mod error;
mod framework;
mod metrics;
mod model;
mod selector;
mod uncertainty;
mod weighting;

pub use checkpoint::{
    CheckpointHook, DatasetCheckpoint, MemoryCheckpoints, NoCheckpoint, RunCheckpoint,
};
pub use config::{AblationConfig, SamplingConfig, WeightMode};
pub use dataset::{ActiveDataset, LabelBatchReport};
pub use diversity::{diversity_matrix, diversity_scores};
pub use error::ActiveError;
pub use framework::{
    standardized_dct, IterationStats, RunFaultStats, RunOutcome, SamplingFramework,
};
pub use metrics::PshdMetrics;
pub use model::{HotspotModel, ModelState};
pub use selector::{
    BatchSelector, EntropySelector, RandomSelector, SelectionContext, UncertaintySelector,
};
pub use uncertainty::{bvsb_scores, uncertainty_scores};
pub use weighting::{entropy_weights, normalize_scores};
