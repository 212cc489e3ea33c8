//! Synthetic VLSI layout benchmark generation.
//!
//! The DAC 2021 paper evaluates on the ICCAD-2012 and ICCAD-2016 contest
//! benchmarks (proprietary GDSII layouts at 28 nm and 7 nm). Those layouts
//! are not redistributable, so this crate *generates* clip populations with
//! the same statistical shape (Table I of the paper): the same hotspot /
//! non-hotspot cardinalities, a minority defect class that is geometrically
//! induced, pattern duplicates (so exact pattern matching pays less than one
//! simulation per clip), and hard "near-miss" non-hotspots that sit close to
//! the decision boundary.
//!
//! Clips are Manhattan routing-track patterns; hotspot clips carry either a
//! sub-printable wire (pinch) or a sub-resolution gap (bridge) through the
//! clip core, and ground truth is established by actually running the
//! `hotspot-litho` simulator — "label = f(geometry)" holds exactly, as in a
//! real flow.
//!
//! Generated benchmarks store per-clip features and signatures, not rasters
//! (full-scale ICCAD12 has 163 400 clips); any clip raster can be
//! regenerated deterministically via [`GeneratedBenchmark::clip_raster`].
//! A benchmark is not saved to disk either: [`GeneratedBenchmark::generate`]
//! is deterministic in its spec and seed, so callers regenerate it.
//!
//! # Example
//!
//! ```
//! use hotspot_layout::{BenchmarkSpec, GeneratedBenchmark};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = BenchmarkSpec::iccad16_2().scaled(0.2);
//! let bench = GeneratedBenchmark::generate(&spec, 1)?;
//! assert_eq!(bench.hotspot_count() + bench.non_hotspot_count(), bench.len());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod error;
mod generate;
mod io;
mod pattern;
mod pool;
mod signature;
mod spec;
mod suite;

pub use error::LayoutError;
pub use generate::GeneratedBenchmark;
pub use io::{write_pgm, ClipFile};
pub use pattern::{ClipFamily, ClipRecipe};
pub use signature::Signature;
pub use spec::{BenchmarkSpec, GeometryParams, Tech};
pub use suite::{bench_suite, BenchmarkStats};
