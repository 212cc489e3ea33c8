use crate::{Layer, Matrix, NetworkSnapshot, NnError, Optimizer, SoftmaxCrossEntropy};

/// A feed-forward stack of layers.
///
/// See the [crate-level example](crate) for an end-to-end training loop.
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer to the stack.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Pure forward pass through all layers.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.infer(&x);
        }
        x
    }

    /// Pure forward pass that also returns the *embedding*: the activation
    /// entering the final layer. The paper's diversity metric (Eq. 7–8) runs
    /// on these penultimate features.
    ///
    /// # Panics
    ///
    /// Panics on an empty network.
    pub fn infer_with_embedding(&self, input: &Matrix) -> (Matrix, Matrix) {
        assert!(!self.layers.is_empty(), "network has no layers");
        let mut x = input.clone();
        for layer in &self.layers[..self.layers.len() - 1] {
            x = layer.infer(&x);
        }
        let embedding = x.clone();
        let logits = self.layers[self.layers.len() - 1].infer(&x);
        (logits, embedding)
    }

    /// Batch-size-1 forward pass: logits and embedding of a single input
    /// row. This is the reference point for micro-batched serving — every
    /// dense layer is a row-independent affine map, so
    /// [`Sequential::infer_with_embedding`] over a stacked batch produces
    /// bit-identical rows to calling this per input (pinned by the
    /// `batched_inference_is_bit_identical_to_single_rows` test).
    ///
    /// # Panics
    ///
    /// Panics on an empty network.
    pub fn infer_row(&self, row: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let input = Matrix::from_flat(1, row.len(), row.to_vec());
        let (logits, embedding) = self.infer_with_embedding(&input);
        (logits.as_slice().to_vec(), embedding.as_slice().to_vec())
    }

    /// Inference in row chunks — used for full-pool prediction
    /// where a benchmark holds 10⁵–10⁶ clips. Returns `(logits, embeddings)`
    /// like [`Sequential::infer_with_embedding`].
    pub fn infer_pool(&self, input: &Matrix, chunk_rows: usize) -> (Matrix, Matrix) {
        assert!(!self.layers.is_empty(), "network has no layers");
        let chunk = chunk_rows.max(1);
        let indices: Vec<usize> = (0..input.rows()).step_by(chunk).collect();
        let parts: Vec<(Matrix, Matrix)> = indices
            .iter()
            .map(|&start| {
                let end = (start + chunk).min(input.rows());
                let rows: Vec<usize> = (start..end).collect();
                let sub = input.gather_rows(&rows);
                self.infer_with_embedding(&sub)
            })
            .collect();
        // Every chunk runs through the same layers, so the widths are uniform
        // by construction — concatenate the row-major buffers directly.
        let logit_cols = parts.first().map_or(0, |(l, _)| l.cols());
        let embed_cols = parts.first().map_or(0, |(_, e)| e.cols());
        let mut logit_data = Vec::with_capacity(input.rows() * logit_cols);
        let mut embed_data = Vec::with_capacity(input.rows() * embed_cols);
        for (l, e) in &parts {
            logit_data.extend_from_slice(l.as_slice());
            embed_data.extend_from_slice(e.as_slice());
        }
        (
            Matrix::from_flat(input.rows(), logit_cols, logit_data),
            Matrix::from_flat(input.rows(), embed_cols, embed_data),
        )
    }

    /// Training forward pass (caches activations).
    pub fn forward_train(&mut self, input: &Matrix) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward_train(&x);
        }
        x
    }

    /// Backward pass; returns the gradient at the network input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardWithoutForward`] when any layer is missing
    /// its cached activations (no preceding [`Sequential::forward_train`]).
    pub fn backward(&mut self, grad_output: &Matrix) -> Result<Matrix, NnError> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// Applies accumulated gradients with the optimiser and zeroes them.
    pub fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) {
        optimizer.begin_step();
        let mut slot = 0usize;
        for layer in &mut self.layers {
            layer.visit_params(&mut |weights, grads| {
                optimizer.update(slot, weights, grads);
                for g in grads.iter_mut() {
                    *g = 0.0;
                }
                slot += 1;
            });
        }
    }

    /// One training step on a batch: forward, loss, backward, update.
    /// Returns the batch loss.
    ///
    /// # Errors
    ///
    /// Propagates loss-shape errors; see
    /// [`SoftmaxCrossEntropy::loss_and_grad`].
    pub fn train_batch(
        &mut self,
        input: &Matrix,
        labels: &[usize],
        loss: &SoftmaxCrossEntropy,
        optimizer: &mut dyn Optimizer,
    ) -> Result<f64, NnError> {
        let logits = self.forward_train(input);
        let (value, grad) = loss.loss_and_grad(&logits, labels)?;
        self.backward(&grad)?;
        self.apply_gradients(optimizer);
        Ok(value)
    }

    /// Serialises the architecture tags and weights.
    pub fn snapshot(&self) -> NetworkSnapshot {
        NetworkSnapshot::capture(&self.layers)
    }

    /// Restores weights from a snapshot taken on an identical architecture.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SnapshotMismatch`] when layer kinds, counts, or
    /// buffer shapes differ.
    pub fn load_snapshot(&mut self, snapshot: &NetworkSnapshot) -> Result<(), NnError> {
        snapshot.restore(&mut self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, Dense, InitRng, Relu, Sgd};

    fn xor_net(seed: u64) -> Sequential {
        let mut rng = InitRng::seeded(seed, 1.0);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 16, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(16, 2, &mut rng));
        net
    }

    fn xor_data() -> (Matrix, Vec<usize>) {
        let x = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ])
        .unwrap();
        (x, vec![0, 1, 1, 0])
    }

    #[test]
    fn learns_xor() {
        let mut net = xor_net(42);
        let (x, y) = xor_data();
        let loss = SoftmaxCrossEntropy::balanced(2);
        let mut opt = Adam::new(0.02);
        let mut last = f64::MAX;
        for _ in 0..500 {
            last = net.train_batch(&x, &y, &loss, &mut opt).unwrap();
        }
        assert!(last < 0.05, "final loss {last}");
        assert_eq!(net.infer(&x).argmax_rows(), y);
    }

    #[test]
    fn loss_decreases_under_sgd() {
        let mut net = xor_net(7);
        let (x, y) = xor_data();
        let loss = SoftmaxCrossEntropy::balanced(2);
        let mut opt = Sgd::with_momentum(0.1, 0.9);
        let first = net.train_batch(&x, &y, &loss, &mut opt).unwrap();
        let mut last = first;
        for _ in 0..200 {
            last = net.train_batch(&x, &y, &loss, &mut opt).unwrap();
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn embedding_is_penultimate_width() {
        let net = xor_net(1);
        let (x, _) = xor_data();
        let (logits, embedding) = net.infer_with_embedding(&x);
        assert_eq!(logits.cols(), 2);
        assert_eq!(embedding.cols(), 16);
        assert_eq!(embedding.rows(), 4);
    }

    #[test]
    fn infer_pool_matches_sequential_inference() {
        let net = xor_net(5);
        let rows: Vec<Vec<f32>> = (0..37)
            .map(|i| vec![(i % 3) as f32 * 0.5, (i % 7) as f32 * 0.2])
            .collect();
        let x = Matrix::from_rows(&rows).unwrap();
        let (pool_logits, pool_emb) = net.infer_pool(&x, 8);
        let (seq_logits, seq_emb) = net.infer_with_embedding(&x);
        assert_eq!(pool_logits, seq_logits);
        assert_eq!(pool_emb, seq_emb);
    }

    #[test]
    fn snapshot_roundtrip_preserves_predictions() {
        let mut net = xor_net(42);
        let (x, y) = xor_data();
        let loss = SoftmaxCrossEntropy::balanced(2);
        let mut opt = Adam::new(0.02);
        for _ in 0..100 {
            net.train_batch(&x, &y, &loss, &mut opt).unwrap();
        }
        let snap = net.snapshot();
        let mut fresh = xor_net(999);
        fresh.load_snapshot(&snap).unwrap();
        assert_eq!(net.infer(&x), fresh.infer(&x));
    }

    #[test]
    fn snapshot_rejects_wrong_architecture() {
        let net = xor_net(1);
        let snap = net.snapshot();
        let mut rng = InitRng::seeded(0, 1.0);
        let mut other = Sequential::new();
        other.push(Dense::new(2, 4, &mut rng));
        assert!(other.load_snapshot(&snap).is_err());
    }

    #[test]
    fn infer_does_not_mutate() {
        let net = xor_net(3);
        let (x, _) = xor_data();
        let a = net.infer(&x);
        let b = net.infer(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn batched_inference_is_bit_identical_to_single_rows() {
        // The serving micro-batcher coalesces concurrent requests into one
        // forward pass; this pins the property that makes that safe.
        let net = xor_net(11);
        let rows: Vec<Vec<f32>> = (0..17)
            .map(|i| vec![(i as f32 * 0.37).sin(), (i as f32 * 0.61).cos()])
            .collect();
        let batch = Matrix::from_rows(&rows).unwrap();
        let (logits, embeddings) = net.infer_with_embedding(&batch);
        for (i, row) in rows.iter().enumerate() {
            let (single_logits, single_embedding) = net.infer_row(row);
            let batch_logits: Vec<u32> = logits.row(i).iter().map(|v| v.to_bits()).collect();
            let single_bits: Vec<u32> = single_logits.iter().map(|v| v.to_bits()).collect();
            assert_eq!(batch_logits, single_bits, "logits diverge at row {i}");
            let batch_embedding: Vec<u32> = embeddings.row(i).iter().map(|v| v.to_bits()).collect();
            let single_embedding: Vec<u32> = single_embedding.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                batch_embedding, single_embedding,
                "embedding diverges at row {i}"
            );
        }
    }
}
