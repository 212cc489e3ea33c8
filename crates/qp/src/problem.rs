use std::fmt;

/// Error type for quadratic-program construction.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QpError {
    /// The embedding rows do not match the cost vector, one row per variable.
    BadShape {
        /// Embedding rows (entries over the row dimension, rounded up).
        rows: usize,
        /// Cost vector length.
        c_len: usize,
    },
    /// The budget `k` is outside `[0, n]`.
    BadBudget {
        /// Requested budget.
        k: f64,
        /// Variable count.
        n: usize,
    },
}

impl fmt::Display for QpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QpError::BadShape { rows, c_len } => write!(
                f,
                "{rows} embedding rows for {c_len} variables; need one row per variable"
            ),
            QpError::BadBudget { k, n } => {
                write!(f, "budget {k} outside the feasible range [0, {n}]")
            }
        }
    }
}

impl std::error::Error for QpError {}

/// The capped-simplex quadratic program
/// `min ½ sᵀQs + cᵀs  s.t.  0 ≤ s ≤ 1, Σs = k`
/// whose quadratic term is the similarity kernel of `n` embedding rows `X`:
/// `Q = 2λ(XXᵀ − diag(‖xᵢ‖²))`, so `½ sᵀQs` is `λ` times the summed
/// similarity of distinct selected pairs.
///
/// `Q` is never formed: `Qs` goes through the `d`-vector `Xᵀs`, in O(n·d).
#[derive(Debug, Clone, PartialEq)]
pub struct QpProblem {
    xt: Vec<f32>, // Xᵀ, d × n row-major: one feature of every row per chunk
    lambda: f64,
    pub(crate) c: Vec<f64>,
    pub(crate) k: f64,
}

impl QpProblem {
    /// Creates a problem from row-major `n × dim` embeddings, the kernel
    /// weight `λ`, a cost vector of length `n`, and the selection budget `k`.
    ///
    /// # Errors
    ///
    /// Returns [`QpError::BadShape`] when `x` is not `c.len()` rows of `dim`
    /// and [`QpError::BadBudget`] when `k ∉ [0, n]` or is not finite.
    pub fn new(x: Vec<f32>, dim: usize, lambda: f64, c: Vec<f64>, k: f64) -> Result<Self, QpError> {
        let n = c.len();
        if x.len() != n * dim {
            return Err(QpError::BadShape {
                rows: x.len().div_ceil(dim.max(1)),
                c_len: n,
            });
        }
        if !k.is_finite() || k < 0.0 || k > n as f64 {
            return Err(QpError::BadBudget { k, n });
        }
        let xt = (0..dim)
            .flat_map(|f| x.iter().skip(f).step_by(dim).copied())
            .collect();
        Ok(QpProblem { xt, lambda, c, k })
    }

    /// The columns of `X`: each feature across all `n` rows.
    fn features(&self) -> std::slice::ChunksExact<'_, f32> {
        self.xt.chunks_exact(self.c.len().max(1))
    }

    /// `Qs`, row `i` being `2λ·xᵢ·(Xᵀs − sᵢxᵢ)`: each row against the
    /// selection-weighted sum of the others, so a zero row contributes 0.
    fn quadratic_times(&self, s: &[f64]) -> Vec<f64> {
        assert_eq!(s.len(), self.c.len(), "solution length mismatch");
        // Xᵀs, summed row by row so that the d sums advance side by side.
        let mut xs = vec![0.0f64; self.features().len()];
        for (i, &si) in s.iter().enumerate() {
            for (t, feature) in xs.iter_mut().zip(self.features()) {
                *t += f64::from(feature[i]) * si;
            }
        }
        let mut qs = vec![0.0f64; s.len()];
        for (feature, &t) in self.features().zip(&xs) {
            for ((q, &v), si) in qs.iter_mut().zip(feature).zip(s) {
                let v = f64::from(v);
                *q += 2.0 * self.lambda * v * (t - v * si);
            }
        }
        qs
    }

    /// Objective value `½ sᵀQs + cᵀs`.
    ///
    /// # Panics
    ///
    /// Panics when `s.len()` differs from the variable count.
    pub fn objective(&self, s: &[f64]) -> f64 {
        let qs = self.quadratic_times(s);
        (0..s.len()).map(|i| s[i] * (0.5 * qs[i] + self.c[i])).sum()
    }

    /// Gradient `Qs + c` written into `grad`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatches.
    pub fn gradient(&self, s: &[f64], grad: &mut [f64]) {
        assert_eq!(grad.len(), self.c.len(), "gradient length mismatch");
        for ((g, qs), ci) in grad.iter_mut().zip(self.quadratic_times(s)).zip(&self.c) {
            *g = qs + ci;
        }
    }

    /// A cheap upper bound on the spectral norm of `Q` (max row 1-norm),
    /// used to pick a stable projected-gradient step size.
    ///
    /// One O(n²·d) pass over the pairs `i < j`. Each pair similarity is
    /// summed in `f32` in ascending feature order, as the dense kernel was
    /// built, and its `|qᵢⱼ|` is added into both rows; every row still sums
    /// in ascending `j`, so the bound is bit-identical to the max row 1-norm
    /// of the dense matrix. Row `i`'s similarities to all later rows
    /// accumulate side by side, one feature at a time.
    pub fn lipschitz_bound(&self) -> f64 {
        let n = self.c.len();
        let mut row_sums = vec![0.0f64; n];
        for i in 0..n {
            let mut sims = vec![0.0f32; n - i - 1];
            for feature in self.features() {
                for (sim, &b) in sims.iter_mut().zip(&feature[i + 1..]) {
                    *sim += feature[i] * b;
                }
            }
            for (j, sim) in (i + 1..).zip(sims) {
                let v = (2.0 * self.lambda * sim as f64).abs();
                row_sums[i] += v;
                row_sums[j] += v;
            }
        }
        row_sums.into_iter().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{random_embeddings, DenseQp};
    use proptest::prelude::*;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;

    #[test]
    fn rejects_bad_shapes() {
        assert!(matches!(
            QpProblem::new(vec![0.0; 3], 2, 1.0, vec![0.0; 2], 1.0),
            Err(QpError::BadShape { rows: 2, c_len: 2 })
        ));
        assert!(matches!(
            QpProblem::new(vec![0.0; 6], 2, 1.0, vec![0.0; 2], 1.0),
            Err(QpError::BadShape { rows: 3, c_len: 2 })
        ));
        assert!(matches!(
            QpProblem::new(vec![0.0; 4], 2, 1.0, vec![0.0; 2], 5.0),
            Err(QpError::BadBudget { .. })
        ));
        assert!(matches!(
            QpProblem::new(vec![0.0; 4], 2, 1.0, vec![0.0; 2], f64::NAN),
            Err(QpError::BadBudget { .. })
        ));
        let message = QpError::BadShape { rows: 3, c_len: 2 }.to_string();
        assert!(
            message.contains("3 embedding rows for 2 variables"),
            "{message}"
        );
    }

    #[test]
    fn objective_matches_manual() {
        // Rows [1, 0] and [0.5, 0.5] have similarity 0.5 and squared norms
        // 1 and 0.5; with λ = 2, c = [1, -1], s = [1, 0.5]:
        // λ·2·sim·s₀s₁ + cᵀs = 2·2·0.5·0.5 + (1 - 0.5) = 1.5.
        let p = QpProblem::new(vec![1.0, 0.0, 0.5, 0.5], 2, 2.0, vec![1.0, -1.0], 1.5).unwrap();
        let value = p.objective(&[1.0, 0.5]);
        assert!((value - 1.5).abs() < 1e-12, "{value}");
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let x = vec![1.0, 0.0, 0.6, 0.8, 0.0, 0.0];
        let p = QpProblem::new(x, 2, 1.5, vec![0.5, -0.25, 0.1], 1.0).unwrap();
        let s = [0.3, 0.5, 0.2];
        let mut grad = [0.0; 3];
        p.gradient(&s, &mut grad);
        let eps = 1e-6;
        for i in 0..3 {
            let mut sp = s;
            sp[i] += eps;
            let mut sm = s;
            sm[i] -= eps;
            let numeric = (p.objective(&sp) - p.objective(&sm)) / (2.0 * eps);
            assert!((numeric - grad[i]).abs() < 1e-5, "dim {i}");
        }
    }

    #[test]
    fn lipschitz_bound_dominates_rows() {
        // Similarities: (0,1) = 1, (0,2) = -1, (1,2) = -1; with λ = 0.5 the
        // off-diagonal entries are ±1, so every row 1-norm is 2.
        let x = vec![1.0, 0.0, 1.0, 0.0, -1.0, 0.0];
        let p = QpProblem::new(x, 2, 0.5, vec![0.0; 3], 1.0).unwrap();
        assert_eq!(p.lipschitz_bound(), 2.0);
    }

    fn assert_close(low_rank: f64, dense: f64, scale: f64, what: &str) {
        assert!(
            (low_rank - dense).abs() <= 1e-9 * scale.max(1.0),
            "{what}: low-rank {low_rank} vs dense {dense}"
        );
    }

    proptest! {
        #[test]
        fn prop_low_rank_matches_dense_reference(
            n in 1usize..40,
            dim in 1usize..34,
            lambda in 0.0f64..3.0,
            seed in any::<u64>(),
            s_seed in any::<u64>(),
        ) {
            let x = random_embeddings(n, dim, seed);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(s_seed);
            let s: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.0)).collect();
            let c: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..0.0)).collect();
            let p = QpProblem::new(x.clone(), dim, lambda, c.clone(), 0.0).unwrap();
            let dense = DenseQp::exact(&x, dim, lambda, c, 0.0);
            let mut grad = vec![0.0; n];
            p.gradient(&s, &mut grad);
            let want = dense.gradient(&s);
            for i in 0..n {
                let scale: f64 = dense.q[i * n..(i + 1) * n]
                    .iter()
                    .zip(&s)
                    .map(|(q, sj)| (q * sj).abs())
                    .sum::<f64>()
                    + dense.c[i].abs();
                assert_close(grad[i], want[i], scale, "gradient");
            }
            let scale: f64 = (0..n)
                .map(|i| {
                    let row = &dense.q[i * n..(i + 1) * n];
                    s[i] * (row.iter().zip(&s).map(|(q, sj)| (q * sj).abs()).sum::<f64>()
                        + dense.c[i].abs())
                })
                .sum();
            assert_close(p.objective(&s), dense.objective(&s), scale, "objective");
        }

        #[test]
        fn prop_lipschitz_bound_is_bit_identical_to_dense(
            n in 1usize..40,
            dim in 1usize..34,
            lambda in 0.0f64..3.0,
            seed in any::<u64>(),
        ) {
            let x = random_embeddings(n, dim, seed);
            let p = QpProblem::new(x.clone(), dim, lambda, vec![0.0; n], 0.0).unwrap();
            let dense = DenseQp::from_f32_similarities(&x, dim, lambda, vec![0.0; n], 0.0);
            prop_assert_eq!(p.lipschitz_bound().to_bits(), dense.lipschitz_bound().to_bits());
        }
    }
}
