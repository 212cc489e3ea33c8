use crate::ActiveError;
use hotspot_nn::{
    Adam, AdamState, InitRng, Matrix, Mlp, NetworkSnapshot, SoftmaxCrossEntropy, TrainConfig,
    TrainReport, Trainer,
};

/// The complete trainable state of a [`HotspotModel`]: weights, optimiser
/// moments, and the training-step counter. Unlike the rollback-only
/// [`HotspotModel::snapshot`], restoring this resumes training *exactly* —
/// the next update applies the same Adam bias correction and moment history
/// as the uninterrupted model would.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// Layer weights (the rollback snapshot).
    pub snapshot: NetworkSnapshot,
    /// Adam step counter and per-parameter moments.
    pub optimizer: AdamState,
    /// Training invocations so far ([`HotspotModel::steps_trained`]).
    pub steps_trained: usize,
}

/// Width of the penultimate layer, whose activations are the Eq. 7
/// diversity features.
const EMBEDDING_DIM: usize = 32;

/// The hotspot classifier: a DCT-feature MLP with a 32-dimensional
/// penultimate embedding, class-weighted loss, and Adam training.
///
/// Architecture: `input → 64 → 32 → 2`, ReLU activations. The 32-wide layer
/// feeds both the logits and the diversity metric (its activations are the
/// Eq. 7 features). The paper's TensorFlow CNN plays the same role; see
/// DESIGN.md for the substitution rationale.
#[derive(Debug)]
pub struct HotspotModel {
    net: Mlp,
    input_dim: usize,
    train_batch: usize,
    optimizer: Adam,
    steps_trained: usize,
}

impl HotspotModel {
    /// Builds a freshly initialised model (`w ~ N(0, σ)` scaled by fan-in)
    /// with the standard `input → 64 → 32 → 2` architecture.
    ///
    /// # Panics
    ///
    /// Panics when `input_dim` is zero or `sigma` is not positive.
    pub fn new(
        input_dim: usize,
        seed: u64,
        sigma: f64,
        learning_rate: f64,
        train_batch: usize,
    ) -> Self {
        assert!(input_dim > 0, "input dimension must be positive");
        let mut rng = InitRng::seeded(seed, sigma);
        HotspotModel {
            net: Mlp::new(&[input_dim, 64, EMBEDDING_DIM, 2], &mut rng),
            input_dim,
            train_batch,
            optimizer: Adam::new(learning_rate),
            steps_trained: 0,
        }
    }

    /// Width of the penultimate embedding (the diversity-metric space).
    pub fn embedding_dim(&self) -> usize {
        EMBEDDING_DIM
    }

    /// Input feature dimension.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Total training invocations so far.
    pub fn steps_trained(&self) -> usize {
        self.steps_trained
    }

    /// Class weights `n / (2 n_c)` for an imbalanced label set, clamped to
    /// `[0.5, 10]`; a single-class set falls back to uniform weights.
    pub fn class_weights(labels: &[usize]) -> Vec<f32> {
        let n = labels.len() as f32;
        let n1 = labels.iter().filter(|&&l| l == 1).count() as f32;
        let n0 = n - n1;
        // lithohd-lint: allow(float-eq) — exact zero-norm guard; any nonzero norm must take the divide
        if n0 == 0.0 || n1 == 0.0 {
            return vec![1.0, 1.0];
        }
        vec![
            (n / (2.0 * n0)).clamp(0.5, 10.0),
            (n / (2.0 * n1)).clamp(0.5, 10.0),
        ]
    }

    /// Trains (or fine-tunes — the optimiser state persists across calls,
    /// matching Algorithm 2's incremental "update" step) on the labelled set.
    ///
    /// # Errors
    ///
    /// Propagates classifier errors (empty set, shape mismatches).
    pub fn train(
        &mut self,
        x: &Matrix,
        labels: &[usize],
        epochs: usize,
        shuffle_seed: u64,
    ) -> Result<TrainReport, ActiveError> {
        let loss = SoftmaxCrossEntropy::weighted(Self::class_weights(labels));
        let trainer = Trainer::new(TrainConfig {
            epochs,
            batch_size: self.train_batch,
            shuffle_seed,
            loss_target: Some(1e-3),
        });
        let report = trainer.fit(&mut self.net, x, labels, &loss, &mut self.optimizer)?;
        self.steps_trained += 1;
        Ok(report)
    }

    /// Captures the current weights, for divergence rollback: a training
    /// step that produces a non-finite loss can be undone by restoring the
    /// last good snapshot.
    pub fn snapshot(&self) -> NetworkSnapshot {
        self.net.snapshot()
    }

    /// Restores weights captured by [`HotspotModel::snapshot`]. The Adam
    /// state is kept — after a divergence the next update re-estimates its
    /// moments from fresh gradients anyway.
    ///
    /// # Errors
    ///
    /// Propagates snapshot/architecture mismatches.
    pub fn restore(&mut self, snapshot: &NetworkSnapshot) -> Result<(), ActiveError> {
        self.net.load_snapshot(snapshot)?;
        Ok(())
    }

    /// Captures the full trainable state — weights *and* optimiser moments —
    /// for checkpointing. See [`ModelState`].
    pub fn state(&self) -> ModelState {
        ModelState {
            snapshot: self.net.snapshot(),
            optimizer: self.optimizer.state(),
            steps_trained: self.steps_trained,
        }
    }

    /// Restores state captured by [`HotspotModel::state`] into a model of the
    /// same architecture (build it with the same constructor arguments
    /// first). Training then continues bit-identically to a model that was
    /// never interrupted.
    ///
    /// # Errors
    ///
    /// Propagates snapshot/architecture mismatches.
    pub fn restore_state(&mut self, state: &ModelState) -> Result<(), ActiveError> {
        self.net.load_snapshot(&state.snapshot)?;
        self.optimizer.restore_state(&state.optimizer);
        self.steps_trained = state.steps_trained;
        Ok(())
    }

    /// Raw logits and penultimate embeddings of a clip batch.
    pub fn predict(&self, x: &Matrix) -> (Matrix, Matrix) {
        self.net.infer_with_embedding(x)
    }

    /// Pool-scale prediction in chunks of 2048 rows, run sequentially.
    pub fn predict_pool(&self, x: &Matrix) -> (Matrix, Matrix) {
        self.net.infer_pool(x, 2048)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_data() -> (Matrix, Vec<usize>) {
        // Class 1 iff the first feature is large.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let hot = i % 3 == 0;
            let base = if hot { 2.0 } else { -2.0 };
            rows.push(vec![
                base + (i % 5) as f32 * 0.1,
                (i % 7) as f32 * 0.1,
                -(i % 4) as f32 * 0.1,
            ]);
            labels.push(hot as usize);
        }
        (Matrix::from_rows(&rows).unwrap(), labels)
    }

    #[test]
    fn learns_toy_separation() {
        let (x, y) = toy_data();
        let mut model = HotspotModel::new(3, 1, 1.0, 1e-2, 16);
        model.train(&x, &y, 80, 0).unwrap();
        let (logits, _) = model.predict(&x);
        let predictions = logits.argmax_rows();
        let correct = predictions.iter().zip(&y).filter(|(a, b)| a == b).count();
        assert!(correct >= 57, "only {correct}/60 correct");
    }

    #[test]
    fn embedding_width_is_32() {
        let model = HotspotModel::new(5, 2, 1.0, 1e-3, 8);
        let (logits, emb) = model.predict(&Matrix::zeros(3, 5));
        assert_eq!(logits.cols(), 2);
        assert_eq!(emb.cols(), 32);
        assert_eq!(model.embedding_dim(), 32);
    }

    #[test]
    fn class_weights_counter_imbalance() {
        let labels = [0usize; 90]
            .iter()
            .chain([1usize; 10].iter())
            .copied()
            .collect::<Vec<_>>();
        let w = HotspotModel::class_weights(&labels);
        assert!(w[1] > w[0]);
        assert!((w[0] - 100.0 / 180.0).abs() < 1e-5);
        assert!((w[1] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn single_class_weights_are_uniform() {
        assert_eq!(HotspotModel::class_weights(&[0, 0, 0]), vec![1.0, 1.0]);
        assert_eq!(HotspotModel::class_weights(&[1]), vec![1.0, 1.0]);
    }

    #[test]
    fn incremental_training_improves_on_new_data() {
        let (x, y) = toy_data();
        let mut model = HotspotModel::new(3, 1, 1.0, 1e-2, 16);
        let first = model.train(&x, &y, 10, 0).unwrap();
        let second = model.train(&x, &y, 10, 1).unwrap();
        assert!(second.final_loss() <= first.epoch_losses[0]);
        assert_eq!(model.steps_trained(), 2);
    }

    #[test]
    fn pool_prediction_matches_direct() {
        let (x, _) = toy_data();
        let model = HotspotModel::new(3, 9, 1.0, 1e-3, 8);
        let (a, ea) = model.predict(&x);
        let (b, eb) = model.predict_pool(&x);
        assert_eq!(a, b);
        assert_eq!(ea, eb);
    }

    #[test]
    fn snapshot_restore_rolls_back_training() {
        let (x, y) = toy_data();
        let mut model = HotspotModel::new(3, 1, 1.0, 1e-2, 16);
        model.train(&x, &y, 10, 0).unwrap();
        let snap = model.snapshot();
        let (before, _) = model.predict(&x);
        model.train(&x, &y, 10, 1).unwrap();
        let (after, _) = model.predict(&x);
        assert_ne!(before, after, "training must move the weights");
        model.restore(&snap).unwrap();
        let (restored, _) = model.predict(&x);
        assert_eq!(before, restored, "restore must reproduce the snapshot");
    }

    #[test]
    fn full_state_restore_resumes_training_bit_identically() {
        let (x, y) = toy_data();
        // Reference: train 10 + 10 epochs without interruption.
        let mut reference = HotspotModel::new(3, 1, 1.0, 1e-2, 16);
        reference.train(&x, &y, 10, 0).unwrap();
        let state = reference.state();
        reference.train(&x, &y, 10, 1).unwrap();
        // Resumed: fresh same-architecture model, restore, continue.
        let mut resumed = HotspotModel::new(3, 99, 1.0, 1e-2, 16);
        resumed.restore_state(&state).unwrap();
        resumed.train(&x, &y, 10, 1).unwrap();
        assert_eq!(reference.predict(&x).0, resumed.predict(&x).0);
        assert_eq!(reference.steps_trained(), resumed.steps_trained());
        // The weight-only rollback snapshot would NOT reproduce this: Adam's
        // moments and step counter change the continued trajectory.
        let mut weights_only = HotspotModel::new(3, 99, 1.0, 1e-2, 16);
        weights_only.restore(&state.snapshot).unwrap();
        weights_only.train(&x, &y, 10, 1).unwrap();
        assert_ne!(reference.predict(&x).0, weights_only.predict(&x).0);
    }

    #[test]
    fn deterministic_in_seed() {
        let (x, y) = toy_data();
        let mut m1 = HotspotModel::new(3, 5, 1.0, 1e-2, 16);
        let mut m2 = HotspotModel::new(3, 5, 1.0, 1e-2, 16);
        m1.train(&x, &y, 5, 3).unwrap();
        m2.train(&x, &y, 5, 3).unwrap();
        assert_eq!(m1.predict(&x).0, m2.predict(&x).0);
    }
}
