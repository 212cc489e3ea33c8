use crate::dense::Dense;
use crate::{Adam, InitRng, Matrix, NetworkSnapshot, NnError, SoftmaxCrossEntropy};

/// A multi-layer perceptron: hidden dense layers, each followed by ReLU,
/// then a dense output layer.
///
/// See the [crate-level example](crate) for an end-to-end training loop.
#[derive(Debug)]
pub struct Mlp {
    hidden: Vec<Dense>,
    output: Dense,
}

impl Mlp {
    /// Builds the network `widths[0] → widths[1] → … → widths[n]`, drawing
    /// each layer's fan-in-scaled weights from `rng` in layer order.
    ///
    /// # Panics
    ///
    /// Panics when fewer than two widths are given or any width is zero.
    pub fn new(widths: &[usize], rng: &mut InitRng) -> Self {
        let n = widths.len();
        assert!(n >= 2, "an MLP needs an input and an output width");
        let hidden = widths[..n - 1]
            .windows(2)
            .map(|pair| Dense::new(pair[0], pair[1], rng))
            .collect();
        let output = Dense::new(widths[n - 2], widths[n - 1], rng);
        Mlp { hidden, output }
    }

    /// Pure forward pass: the logits.
    pub fn infer(&self, input: &Matrix) -> Matrix {
        self.infer_with_embedding(input).0
    }

    /// Pure forward pass that also returns the *embedding*: the activation
    /// entering the output layer. The paper's diversity metric (Eq. 7–8)
    /// runs on these penultimate features.
    ///
    /// Every layer is a row-independent map, so a stacked batch yields, bit
    /// for bit, the rows each input yields alone; the serving micro-batcher
    /// relies on this.
    pub fn infer_with_embedding(&self, input: &Matrix) -> (Matrix, Matrix) {
        let mut x = input.clone();
        for layer in &self.hidden {
            x = layer.forward(&x);
            relu(&mut x);
        }
        (self.output.forward(&x), x)
    }

    /// Inference in row chunks — used for full-pool prediction
    /// where a benchmark holds 10⁵–10⁶ clips. Returns `(logits, embeddings)`
    /// like [`Mlp::infer_with_embedding`].
    pub fn infer_pool(&self, input: &Matrix, chunk_rows: usize) -> (Matrix, Matrix) {
        let chunk = chunk_rows.max(1);
        let mut logit_data = Vec::new();
        let mut embed_data = Vec::new();
        let (mut logit_cols, mut embed_cols) = (0, 0);
        for start in (0..input.rows()).step_by(chunk) {
            let rows: Vec<usize> = (start..(start + chunk).min(input.rows())).collect();
            let (logits, embedding) = self.infer_with_embedding(&input.gather_rows(&rows));
            (logit_cols, embed_cols) = (logits.cols(), embedding.cols());
            logit_data.extend_from_slice(logits.as_slice());
            embed_data.extend_from_slice(embedding.as_slice());
        }
        (
            Matrix::from_flat(input.rows(), logit_cols, logit_data),
            Matrix::from_flat(input.rows(), embed_cols, embed_data),
        )
    }

    /// One training step on a batch: forward, loss, backward, Adam update.
    /// Returns the batch loss.
    ///
    /// The forward pass keeps each dense layer's input. A hidden layer's
    /// ReLU passes gradient where its output — the next layer's input — is
    /// positive, which is exactly where its pre-activation was.
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
        optimizer: &mut Adam,
    ) -> Result<f64, NnError> {
        let mut inputs = vec![input.clone()];
        for layer in &self.hidden {
            let mut x = layer.forward(&inputs[inputs.len() - 1]);
            relu(&mut x);
            inputs.push(x);
        }
        let logits = self.output.forward(&inputs[inputs.len() - 1]);
        let (value, mut grad) = loss.loss_and_grad(&logits, labels)?;
        // Walk back from the output layer: each upstream layer takes its
        // gradients, then hands `grad · W`, gated by the ReLU whose output it
        // read, to the hidden layer below. The first layer's input gradient
        // is never needed.
        let mut upstream = &mut self.output;
        for (layer, activation) in self.hidden.iter_mut().zip(&inputs[1..]).rev() {
            upstream.accumulate_gradients(activation, &grad)?;
            grad = upstream.input_gradient(&grad)?;
            for (g, &a) in grad.as_mut_slice().iter_mut().zip(activation.as_slice()) {
                if a <= 0.0 {
                    *g = 0.0;
                }
            }
            upstream = layer;
        }
        upstream.accumulate_gradients(&inputs[0], &grad)?;
        optimizer.begin_step();
        for (index, layer) in self.layers_mut().enumerate() {
            layer.apply_gradients(optimizer, 2 * index);
        }
        Ok(value)
    }

    /// Captures the weights as a [`NetworkSnapshot`].
    pub fn snapshot(&self) -> NetworkSnapshot {
        NetworkSnapshot::capture(self.hidden.iter().chain([&self.output]))
    }

    /// Restores weights from a snapshot taken on an identical architecture.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::SnapshotMismatch`] when layer kinds, counts, or
    /// buffer shapes differ; the network is then left unchanged.
    pub fn load_snapshot(&mut self, snapshot: &NetworkSnapshot) -> Result<(), NnError> {
        snapshot.restore(&mut self.layers_mut().collect::<Vec<_>>())
    }

    /// Every dense layer, input side first.
    fn layers_mut(&mut self) -> impl Iterator<Item = &mut Dense> {
        self.hidden.iter_mut().chain([&mut self.output])
    }
}

/// `max(v, 0)` in place. `NaN.max(0.0)` is `0.0`, so an output is positive
/// exactly when its input was.
fn relu(x: &mut Matrix) {
    for v in x.as_mut_slice() {
        *v = v.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_net(seed: u64) -> Mlp {
        let mut rng = InitRng::seeded(seed, 1.0);
        Mlp::new(&[2, 16, 2], &mut rng)
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
        let mut other = Mlp::new(&[2, 4], &mut rng);
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
        let bits = |values: &[f32]| -> Vec<u32> { values.iter().map(|v| v.to_bits()).collect() };
        for (i, row) in rows.iter().enumerate() {
            let single = Matrix::from_flat(1, row.len(), row.clone());
            let (single_logits, single_embedding) = net.infer_with_embedding(&single);
            assert_eq!(
                bits(logits.row(i)),
                bits(single_logits.as_slice()),
                "logits diverge at row {i}"
            );
            assert_eq!(
                bits(embeddings.row(i)),
                bits(single_embedding.as_slice()),
                "embedding diverges at row {i}"
            );
        }
    }
}
