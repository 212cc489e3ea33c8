//! Box- and sum-constrained quadratic programming by projected gradient.
//!
//! The batch-sampling baseline of Yang et al. (TCAD 2020, reference \[14\] of
//! the DAC 2021 paper) selects a batch by relaxing a binary selection vector
//! to the *capped simplex*
//!
//! ```text
//!   { s ∈ ℝⁿ : 0 ≤ sᵢ ≤ 1, Σ sᵢ = k }
//! ```
//!
//! and solving `min ½ sᵀQs + cᵀs` over it, where `Q = 2λ(XXᵀ − diag(‖xᵢ‖²))`
//! penalises the similarity of selected embedding rows `X` (`n × d`). This
//! crate implements exactly that: [`QpProblem`] keeps `X` instead of the
//! `n × n` matrix, so each gradient costs O(n·d);
//! [`project_capped_simplex`] is the exact sort-and-scan Euclidean
//! projection; and [`QpSolver`] runs projected gradient descent with step
//! `1 / L`, `L` the max row 1-norm of `Q`. The paper's *own* diversity
//! metric avoids this machinery — which is the point of its runtime
//! comparison (Fig. 3b) — so this crate exists to reproduce the baseline's
//! cost and behaviour.
//!
//! # Example
//!
//! ```
//! use hotspot_qp::{QpProblem, QpSolver};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Pick k=1 of two orthogonal one-hot rows; the second has lower cost.
//! let x = vec![1.0, 0.0, 0.0, 1.0];
//! let problem = QpProblem::new(x, 2, 1.0, vec![0.0, -1.0], 1.0)?;
//! let solution = QpSolver::default().solve(&problem);
//! assert!(solution.values[1] > 0.9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod problem;
mod projection;
mod solver;

pub use problem::{QpError, QpProblem};
pub use projection::project_capped_simplex;
pub use solver::{QpSolution, QpSolver};

#[cfg(test)]
mod reference;
