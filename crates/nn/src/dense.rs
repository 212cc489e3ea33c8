use crate::{Adam, InitRng, Matrix, NnError};

/// A fully-connected layer: `y = x · Wᵀ + b`.
///
/// Weights are stored row-major as an `out_dim × in_dim` [`Matrix`]. The
/// forward pass multiplies by a transposed copy with [`Matrix::matmul`], so
/// each output still sums its `in_dim` products from +0 in ascending input
/// order; the input gradient `grad · W` uses the stored layout directly.
#[derive(Debug)]
pub(crate) struct Dense {
    weights: Matrix,
    bias: Vec<f32>,
    grad_weights: Vec<f32>,
    grad_bias: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with fan-in-scaled `N(0, σ)` weights and zero
    /// bias.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub(crate) fn new(in_dim: usize, out_dim: usize, rng: &mut InitRng) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "dense dimensions must be positive"
        );
        Dense {
            weights: Matrix::from_flat(
                out_dim,
                in_dim,
                rng.sample_fan_in(out_dim * in_dim, in_dim),
            ),
            bias: vec![0.0; out_dim],
            grad_weights: vec![0.0; out_dim * in_dim],
            grad_bias: vec![0.0; out_dim],
        }
    }

    /// Input feature count.
    pub(crate) fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output feature count.
    pub(crate) fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Forward pass `x · Wᵀ + b`; pure, so usable concurrently via `&self`.
    ///
    /// # Panics
    ///
    /// Panics when `input.cols() != in_dim()`.
    pub(crate) fn forward(&self, input: &Matrix) -> Matrix {
        assert_eq!(
            input.cols(),
            self.in_dim(),
            "dense layer expected {} inputs, got {}",
            self.in_dim(),
            input.cols()
        );
        // The assert above pins `input.cols() == in_dim`, the only condition
        // `matmul` checks, so the fallback arm is unreachable.
        let mut out = input
            .matmul(&self.weights.transposed())
            .unwrap_or_else(|_| Matrix::zeros(input.rows(), self.out_dim()));
        out.add_row_bias(&self.bias);
        out
    }

    /// Accumulates `∂L/∂W = gradᵀ · input` and `∂L/∂b = Σ grad` for the
    /// batch `input` whose output gradient is `grad_output`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when the two batches differ in
    /// row count.
    pub(crate) fn accumulate_gradients(
        &mut self,
        input: &Matrix,
        grad_output: &Matrix,
    ) -> Result<(), NnError> {
        let gw = grad_output.transpose_matmul(input)?;
        for (g, &v) in self.grad_weights.iter_mut().zip(gw.as_slice()) {
            *g += v;
        }
        for (g, v) in self.grad_bias.iter_mut().zip(grad_output.column_sums()) {
            *g += v;
        }
        Ok(())
    }

    /// Gradient with respect to the layer input, `grad · W`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `grad_output.cols()` is not
    /// `out_dim()`.
    pub(crate) fn input_gradient(&self, grad_output: &Matrix) -> Result<Matrix, NnError> {
        grad_output.matmul(&self.weights)
    }

    /// Applies the accumulated gradients with Adam and zeroes them. The
    /// weights use optimiser slot `first_slot`, the bias `first_slot + 1`.
    pub(crate) fn apply_gradients(&mut self, optimizer: &mut Adam, first_slot: usize) {
        optimizer.update(first_slot, self.weights.as_mut_slice(), &self.grad_weights);
        optimizer.update(first_slot + 1, &mut self.bias, &self.grad_bias);
        self.grad_weights.fill(0.0);
        self.grad_bias.fill(0.0);
    }

    /// The weight and bias buffers, in snapshot order.
    pub(crate) fn params(&self) -> [&[f32]; 2] {
        [self.weights.as_slice(), &self.bias]
    }

    /// Mutable weight and bias buffers, in snapshot order.
    pub(crate) fn params_mut(&mut self) -> [&mut [f32]; 2] {
        [self.weights.as_mut_slice(), &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn layer() -> Dense {
        let mut rng = InitRng::seeded(3, 0.5);
        Dense::new(3, 2, &mut rng)
    }

    /// The forward pass as it was computed before it ran through `matmul`:
    /// one serial dot product per output, summed from +0 in ascending
    /// input order, then the bias.
    fn reference_forward(dense: &Dense, input: &Matrix) -> Matrix {
        let w = &dense.weights;
        let mut out = Matrix::zeros(input.rows(), w.rows());
        for i in 0..input.rows() {
            for j in 0..w.rows() {
                let mut acc = 0.0f32;
                for (&a, &b) in input.row(i).iter().zip(w.row(j)) {
                    acc += a * b;
                }
                out.row_mut(i)[j] = acc + dense.bias[j];
            }
        }
        out
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Finite values from `(selector, value)` draws, a quarter of them
    /// exact +0 and a quarter exact −0: the entries `matmul` skips.
    fn with_zeros(draws: &[(u8, f32)]) -> Vec<f32> {
        draws
            .iter()
            .map(|&(selector, v)| match selector {
                0 => 0.0,
                1 => -0.0,
                _ => v,
            })
            .collect()
    }

    proptest! {
        #[test]
        fn prop_forward_is_bitwise_the_dot_product_reference(
            (rows, in_dim, out_dim) in (1usize..6, 1usize..40, 1usize..8),
            draws in proptest::collection::vec((0u8..4, -8.0f32..8.0), 5 * 40 + 8 * 40 + 8),
        ) {
            let mut rng = InitRng::seeded(0, 1.0);
            let mut dense = Dense::new(in_dim, out_dim, &mut rng);
            let (input, rest) = draws.split_at(rows * in_dim);
            let (weights, bias) = rest.split_at(out_dim * in_dim);
            dense.weights = Matrix::from_flat(out_dim, in_dim, with_zeros(weights));
            dense.bias = with_zeros(&bias[..out_dim]);
            let x = Matrix::from_flat(rows, in_dim, with_zeros(input));
            prop_assert_eq!(bits(&dense.forward(&x)), bits(&reference_forward(&dense, &x)));
        }
    }

    #[test]
    fn forward_shape() {
        let d = layer();
        let y = d.forward(&Matrix::zeros(5, 3));
        assert_eq!((y.rows(), y.cols()), (5, 2));
    }

    #[test]
    fn zero_input_outputs_bias() {
        let mut d = layer();
        d.bias.copy_from_slice(&[1.5, -2.5]);
        let y = d.forward(&Matrix::zeros(2, 3));
        assert_eq!(y.row(0), &[1.5, -2.5]);
        assert_eq!(y.row(1), &[1.5, -2.5]);
    }

    #[test]
    fn numerical_gradient_check() {
        // Finite-difference check of ∂(sum of outputs)/∂W and ∂/∂x.
        let mut d = layer();
        let x = Matrix::from_rows(&[vec![0.3, -0.7, 0.2], vec![-0.1, 0.4, 0.9]]).unwrap();
        let y = d.forward(&x);
        let ones = Matrix::from_flat(y.rows(), y.cols(), vec![1.0; y.rows() * y.cols()]);
        d.accumulate_gradients(&x, &ones).unwrap();
        let grad_in = d.input_gradient(&ones).unwrap();

        let eps = 1e-3f32;
        let sum_out = |d: &Dense, x: &Matrix| -> f32 { d.forward(x).as_slice().iter().sum() };

        // Weight gradient.
        for idx in [0usize, 2, 5] {
            let mut dp = layer();
            dp.weights.as_mut_slice()[idx] += eps;
            let mut dm = layer();
            dm.weights.as_mut_slice()[idx] -= eps;
            let numeric = (sum_out(&dp, &x) - sum_out(&dm, &x)) / (2.0 * eps);
            assert!(
                (numeric - d.grad_weights[idx]).abs() < 1e-2,
                "weight {idx}: numeric {numeric} vs analytic {}",
                d.grad_weights[idx]
            );
        }

        // Input gradient.
        for (r, c) in [(0usize, 0usize), (1, 2)] {
            let mut xp = x.clone();
            xp.row_mut(r)[c] += eps;
            let mut xm = x.clone();
            xm.row_mut(r)[c] -= eps;
            let numeric = (sum_out(&d, &xp) - sum_out(&d, &xm)) / (2.0 * eps);
            assert!(
                (numeric - grad_in.at(r, c)).abs() < 1e-2,
                "input ({r},{c}): numeric {numeric} vs analytic {}",
                grad_in.at(r, c)
            );
        }
    }

    #[test]
    fn bias_gradient_is_column_sum() {
        let mut d = layer();
        let x = Matrix::from_rows(&[vec![0.3, -0.7, 0.2], vec![-0.1, 0.4, 0.9]]).unwrap();
        let grad = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        d.accumulate_gradients(&x, &grad).unwrap();
        assert_eq!(d.grad_bias, vec![4.0, 6.0]);
    }
}
