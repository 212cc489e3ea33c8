use crate::{Adam, Matrix, Mlp, NnError, SoftmaxCrossEntropy};
use rand::seq::SliceRandom;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Mini-batch training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size (the final batch of an epoch may be smaller).
    pub batch_size: usize,
    /// Seed for per-epoch shuffling.
    pub shuffle_seed: u64,
    /// Stop early when an epoch's mean loss falls below this value.
    pub loss_target: Option<f64>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 30,
            batch_size: 32,
            shuffle_seed: 0,
            loss_target: None,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean loss of each completed epoch.
    pub epoch_losses: Vec<f64>,
    /// Whether the run stopped early at the loss target.
    pub converged_early: bool,
}

impl TrainReport {
    /// Loss of the final epoch, or NaN when zero epochs trained. NaN flows
    /// into the caller's non-finite-loss handling (rollback) rather than
    /// panicking mid-campaign.
    pub fn final_loss(&self) -> f64 {
        self.epoch_losses.last().copied().unwrap_or(f64::NAN)
    }
}

/// Deterministic mini-batch trainer with per-epoch shuffling.
///
/// ```
/// use hotspot_nn::{Trainer, TrainConfig, Mlp, InitRng, Adam, SoftmaxCrossEntropy, Matrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut net = Mlp::new(&[1, 8, 2], &mut InitRng::seeded(0, 0.5));
///
/// let x = Matrix::from_rows(&[vec![-1.0], vec![-0.5], vec![0.5], vec![1.0]])?;
/// let y = vec![0usize, 0, 1, 1];
/// let trainer = Trainer::new(TrainConfig { epochs: 100, ..TrainConfig::default() });
/// let report = trainer.fit(
///     &mut net, &x, &y,
///     &SoftmaxCrossEntropy::balanced(2),
///     &mut Adam::new(0.05),
/// )?;
/// assert!(report.final_loss() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Trainer {
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when `epochs` or `batch_size` is zero.
    pub fn new(config: TrainConfig) -> Self {
        assert!(config.epochs > 0, "epoch count must be positive");
        assert!(config.batch_size > 0, "batch size must be positive");
        Trainer { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains `net` on `(x, labels)`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::EmptyBatch`] for an empty training set and
    /// propagates shape errors from the loss.
    pub fn fit(
        &self,
        net: &mut Mlp,
        x: &Matrix,
        labels: &[usize],
        loss: &SoftmaxCrossEntropy,
        optimizer: &mut Adam,
    ) -> Result<TrainReport, NnError> {
        if x.rows() == 0 {
            return Err(NnError::EmptyBatch);
        }
        if labels.len() != x.rows() {
            return Err(NnError::LabelCountMismatch {
                batch: x.rows(),
                labels: labels.len(),
            });
        }
        let _train_span = hotspot_telemetry::span(hotspot_telemetry::names::SPAN_NN_TRAIN)
            .with("rows", x.rows() as u64)
            .with("epochs", self.config.epochs as u64);
        let epoch_counter = hotspot_telemetry::counter(hotspot_telemetry::names::NN_TRAIN_EPOCHS);
        let loss_histogram = hotspot_telemetry::histogram(hotspot_telemetry::names::NN_TRAIN_LOSS);
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.shuffle_seed);
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut epoch_losses = Vec::with_capacity(self.config.epochs);
        let mut converged_early = false;
        for _ in 0..self.config.epochs {
            order.shuffle(&mut rng);
            let mut total = 0.0f64;
            let mut batches = 0usize;
            for chunk in order.chunks(self.config.batch_size) {
                let bx = x.gather_rows(chunk);
                let by: Vec<usize> = chunk.iter().map(|&i| labels[i]).collect();
                total += net.train_batch(&bx, &by, loss, optimizer)?;
                batches += 1;
            }
            let mean = total / batches.max(1) as f64;
            epoch_counter.incr();
            loss_histogram.record(mean);
            epoch_losses.push(mean);
            if let Some(target) = self.config.loss_target {
                if mean < target {
                    converged_early = true;
                    break;
                }
            }
        }
        hotspot_telemetry::debug(
            "nn.trainer",
            "training finished",
            &[
                ("epochs_run", (epoch_losses.len() as u64).into()),
                (
                    "final_loss",
                    epoch_losses.last().copied().unwrap_or(f64::NAN).into(),
                ),
                ("converged_early", converged_early.into()),
            ],
        );
        Ok(TrainReport {
            epoch_losses,
            converged_early,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InitRng;

    fn net(seed: u64) -> Mlp {
        Mlp::new(&[2, 12, 2], &mut InitRng::seeded(seed, 0.5))
    }

    fn ring_data() -> (Matrix, Vec<usize>) {
        // Inner points class 0, outer ring class 1.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let angle = i as f64 * 0.157;
            let r = if i % 2 == 0 { 0.3 } else { 1.2 };
            rows.push(vec![(r * angle.cos()) as f32, (r * angle.sin()) as f32]);
            labels.push(i % 2);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn fit_reduces_loss() {
        let (x, y) = ring_data();
        let mut model = net(4);
        let trainer = Trainer::new(TrainConfig {
            epochs: 60,
            batch_size: 8,
            ..TrainConfig::default()
        });
        let report = trainer
            .fit(
                &mut model,
                &x,
                &y,
                &SoftmaxCrossEntropy::balanced(2),
                &mut Adam::new(0.02),
            )
            .unwrap();
        assert!(report.final_loss() < report.epoch_losses[0]);
        assert!(report.final_loss() < 0.2, "loss {}", report.final_loss());
    }

    #[test]
    fn early_stop_at_target() {
        let (x, y) = ring_data();
        let mut model = net(4);
        let trainer = Trainer::new(TrainConfig {
            epochs: 500,
            batch_size: 8,
            loss_target: Some(0.3),
            ..TrainConfig::default()
        });
        let report = trainer
            .fit(
                &mut model,
                &x,
                &y,
                &SoftmaxCrossEntropy::balanced(2),
                &mut Adam::new(0.02),
            )
            .unwrap();
        assert!(report.converged_early);
        assert!(report.epoch_losses.len() < 500);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = ring_data();
        let loss = SoftmaxCrossEntropy::balanced(2);
        let trainer = Trainer::new(TrainConfig {
            epochs: 5,
            batch_size: 8,
            shuffle_seed: 9,
            ..TrainConfig::default()
        });
        let mut a = net(4);
        let mut b = net(4);
        let ra = trainer
            .fit(&mut a, &x, &y, &loss, &mut Adam::new(0.02))
            .unwrap();
        let rb = trainer
            .fit(&mut b, &x, &y, &loss, &mut Adam::new(0.02))
            .unwrap();
        assert_eq!(ra.epoch_losses, rb.epoch_losses);
        assert_eq!(a.infer(&x), b.infer(&x));
    }

    #[test]
    fn rejects_empty_training_set() {
        let mut model = net(4);
        let trainer = Trainer::new(TrainConfig::default());
        let err = trainer
            .fit(
                &mut model,
                &Matrix::zeros(0, 2),
                &[],
                &SoftmaxCrossEntropy::balanced(2),
                &mut Adam::new(0.01),
            )
            .unwrap_err();
        assert!(matches!(err, NnError::EmptyBatch));
    }

    #[test]
    fn rejects_label_mismatch() {
        let mut model = net(4);
        let trainer = Trainer::new(TrainConfig::default());
        let x = Matrix::zeros(3, 2);
        let err = trainer
            .fit(
                &mut model,
                &x,
                &[0],
                &SoftmaxCrossEntropy::balanced(2),
                &mut Adam::new(0.01),
            )
            .unwrap_err();
        assert!(matches!(err, NnError::LabelCountMismatch { .. }));
    }
}
