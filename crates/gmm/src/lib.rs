//! Diagonal-covariance Gaussian mixture models fit with EM.
//!
//! Algorithm 2 of the DAC 2021 paper seeds its query pool from "posterior
//! probabilities of the unlabeled dataset" under a Gaussian mixture: clips
//! whose features are *unlikely* under the mixture (outliers of the dominant
//! non-hotspot mass) are treated as hotspot-like and queried first. This
//! crate supplies that substrate:
//!
//! * [`GaussianMixture::fit`] — k-means++ seeding followed by
//!   expectation–maximisation with diagonal covariances,
//! * [`GaussianMixture::log_likelihood`] — per-sample log density, the
//!   "posterior probability" score used to rank clips,
//! * [`GaussianMixture::responsibilities`] — per-component posteriors.
//!
//! # Example
//!
//! ```
//! use hotspot_gmm::{GaussianMixture, GmmConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two obvious clusters in 1-D.
//! let data: Vec<f32> = (0..50).map(|i| if i % 2 == 0 { 0.0 } else { 10.0 }).collect();
//! let gmm = GaussianMixture::fit(&data, 1, &GmmConfig { components: 2, ..GmmConfig::default() })?;
//! // A point near a cluster centre is far more likely than a point between them.
//! assert!(gmm.log_likelihood(&[0.1]) > gmm.log_likelihood(&[5.0]));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod error;
mod kmeans;
mod model;

pub use error::GmmError;
pub use kmeans::kmeans_plus_plus;
pub use model::{GaussianMixture, GmmConfig};
