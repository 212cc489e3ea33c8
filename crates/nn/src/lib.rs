//! A minimal, dependency-free neural-network library for hotspot detection.
//!
//! The DAC 2021 paper trains a small TensorFlow CNN; this workspace
//! substitutes a DCT-feature MLP for it (see DESIGN.md), so this crate
//! implements exactly that substrate from scratch: one concrete [`Mlp`]
//! (dense layers with ReLU between them), softmax cross-entropy with class
//! weighting (hotspot datasets are heavily imbalanced), the Adam optimiser,
//! seedable Gaussian initialisation (`w ~ N(0, σ)` as in Algorithm 2 of the
//! paper), and a mini-batch trainer.
//!
//! The design centres on [`Matrix`] (a batch of row vectors, standardised
//! by [`Matrix::standardize`]) flowing through an [`Mlp`]:
//!
//! * [`Mlp::infer`] — pure, `&self`, safe to call from parallel threads for
//!   pool-scale inference;
//! * [`Mlp::train_batch`] — one forward/backward/Adam step on a batch.
//!
//! Active learning additionally needs the *penultimate-layer embedding* of
//! every clip (the paper's diversity metric, Eq. 7–8); use
//! [`Mlp::infer_with_embedding`].
//!
//! # Example
//!
//! ```
//! use hotspot_nn::{Mlp, Adam, SoftmaxCrossEntropy, Matrix, InitRng};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut net = Mlp::new(&[2, 8, 2], &mut InitRng::seeded(42, 0.1));
//!
//! // Learn XOR-ish data.
//! let x = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![0.0, 1.0], vec![1.0, 0.0]])?;
//! let y = vec![0usize, 0, 1, 1];
//! let loss = SoftmaxCrossEntropy::balanced(2);
//! let mut opt = Adam::new(0.05);
//! for _ in 0..300 {
//!     net.train_batch(&x, &y, &loss, &mut opt)?;
//! }
//! let logits = net.infer(&x);
//! assert_eq!(logits.argmax_rows(), vec![0, 0, 1, 1]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod dense;
mod error;
mod init;
mod loss;
mod matrix;
mod network;
mod optim;
mod serialize;
mod trainer;

pub use error::NnError;
pub use init::InitRng;
pub use loss::SoftmaxCrossEntropy;
pub use matrix::Matrix;
pub use network::Mlp;
pub use optim::{Adam, AdamState};
pub use serialize::NetworkSnapshot;
pub use trainer::{TrainConfig, TrainReport, Trainer};
