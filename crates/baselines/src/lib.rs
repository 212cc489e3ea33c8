//! Baseline methods the DAC 2021 paper compares against.
//!
//! Three families:
//!
//! * **Pattern matching** ([`PatternMatcher`]) — the clustering approach of
//!   Chen et al. \[2\]: clips are grouped by pattern signature, one
//!   lithography simulation is paid per cluster, and every member inherits
//!   its cluster representative's label. Exact matching is near-perfect but
//!   pays for almost every distinct pattern; fuzzy matching (similarity
//!   0.95 / 0.90, or an edge-tolerance key) pays less and misses more —
//!   the Table II columns `PM-exact`, `PM-a95`, `PM-a90`, `PM-e2`.
//! * **TS** — calibrated-uncertainty-only batch sampling;
//!   re-exported from `hotspot-active` ([`UncertaintySelector`]).
//! * **BADGE** ([`BadgeSelector`]) — the gradient-embedding k-means++
//!   sampler of Ash et al. \[13\], the general-purpose method the paper cites
//!   as the closest prior art; provided as an extension baseline.
//! * **QP** ([`QpSelector`]) — the batch selector of Yang et al. \[14\]:
//!   uncertainty is raw (uncalibrated) BvSB, diversity enters through a
//!   relaxed quadratic program over the capped simplex, solved by projected
//!   gradient and rounded to the top-`k`. This is the method the paper's
//!   Fig. 3(b) and Fig. 6(b) runtime comparisons are measured against.
//!
//! # Example
//!
//! ```no_run
//! use hotspot_baselines::PatternMatcher;
//! use hotspot_layout::{BenchmarkSpec, GeneratedBenchmark};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let bench = GeneratedBenchmark::generate(&BenchmarkSpec::iccad16_2(), 1)?;
//! let outcome = PatternMatcher::exact().run(&bench);
//! assert!(outcome.accuracy > 0.99); // exact matching misses nothing
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod badge;
mod method;
mod pattern;
mod qp_selector;

pub use badge::BadgeSelector;
pub use hotspot_active::{RandomSelector, UncertaintySelector};
pub use method::ActiveMethod;
pub use pattern::{PatternMatchOutcome, PatternMatcher};
pub use qp_selector::QpSelector;
