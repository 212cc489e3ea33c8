//! Feature extraction for layout clips: block DCT and density features.
//!
//! Hotspot detectors in the CNN literature (including the networks the DAC
//! 2021 paper builds on) do not consume raw layout pixels; they consume a
//! compressed spectral representation. This crate provides the standard
//! pipeline:
//!
//! 1. resample the clip raster to a fixed square size,
//! 2. tile it into `B × B` blocks,
//! 3. apply an orthonormal 2-D [`Dct2d`] per block,
//! 4. keep the first `k` coefficients in zig-zag order (low frequencies
//!    carry layout shape; high frequencies carry pixel noise).
//!
//! The result is a compact [`FeatureMatrix`] consumed by the classifier, the
//! GMM pre-clustering, and the diversity metric.
//!
//! # Example
//!
//! ```
//! use hotspot_geom::{Raster, Rect};
//! use hotspot_features::FeatureExtractor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let extractor = FeatureExtractor::new(32, 8, 6)?;
//! let mut raster = Raster::zeros(Rect::new(0, 0, 1200, 1200)?, 10)?;
//! raster.fill_rect(&Rect::new(0, 0, 600, 1200)?, 1.0);
//! let features = extractor.extract(&raster);
//! assert_eq!(features.len(), extractor.dim());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod dct;
mod error;
mod extract;
mod matrix;
mod runlength;
mod zigzag;

pub use dct::Dct2d;
pub use error::FeatureError;
pub use extract::FeatureExtractor;
pub use matrix::FeatureMatrix;
pub use runlength::{run_length_histogram, DEFAULT_RUN_BINS};
pub use zigzag::zigzag_order;
