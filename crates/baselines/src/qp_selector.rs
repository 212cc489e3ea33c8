use hotspot_active::{bvsb_scores, BatchSelector, SelectionContext};
use hotspot_nn::{Matrix, SoftmaxCrossEntropy};
use hotspot_qp::{QpError, QpProblem, QpSolver};

/// The QP batch selector of Yang et al. (TCAD 2020, reference \[14\]).
///
/// Selection is the relaxed quadratic program
///
/// ```text
///   max  uᵀs − λ·sᵀKs    s.t.  0 ≤ s ≤ 1, Σs = k
/// ```
///
/// where `u` is the *raw* (uncalibrated) BvSB uncertainty — the paper's
/// critique is precisely that \[14\] runs on a poorly calibrated model — and
/// `K` is the embedding similarity matrix, so similar pairs are penalised.
/// The relaxation is solved by projected gradient and rounded to the top-`k`
/// entries, reproducing the behaviour and the iterative-solve cost that
/// Fig. 3(b) and Fig. 6(b) measure against: one O(n²·d) pass for the step
/// size, then O(n·d + n log n) per iteration (`K` is never formed).
#[derive(Debug, Clone)]
pub struct QpSelector {
    lambda: f64,
    solver: QpSolver,
}

impl QpSelector {
    /// Creates the selector with the default diversity trade-off `λ = 1`.
    pub fn new() -> Self {
        QpSelector {
            lambda: 1.0,
            solver: QpSolver::default(),
        }
    }

    /// Overrides the diversity trade-off.
    ///
    /// # Panics
    ///
    /// Panics when `lambda` is negative or not finite.
    pub fn with_lambda(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "lambda must be non-negative"
        );
        QpSelector {
            lambda,
            solver: QpSolver::default(),
        }
    }

    /// Builds the QP for a query set; exposed for the diversity-runtime
    /// micro-benchmarks (Fig. 3b).
    ///
    /// # Errors
    ///
    /// Returns [`QpError::BadShape`] when `uncertainty` is not one score per
    /// embedding row.
    pub fn build_problem(
        &self,
        embeddings: &Matrix,
        uncertainty: &[f32],
        k: usize,
    ) -> Result<QpProblem, QpError> {
        let n = embeddings.rows();
        if uncertainty.len() != n {
            return Err(QpError::BadShape {
                rows: n,
                c_len: uncertainty.len(),
            });
        }
        // Similarity kernel on ℓ2-normalised embeddings: min ½ sᵀQs with
        // Q = 2λ(X̂X̂ᵀ − diag) makes the objective λ·Σ_{i≠j} sim(i, j)·sᵢsⱼ.
        let c: Vec<f64> = uncertainty.iter().map(|&u| -(u as f64)).collect();
        QpProblem::new(
            embeddings.l2_normalized_rows().into_vec(),
            embeddings.cols(),
            self.lambda,
            c,
            k.min(n) as f64,
        )
    }
}

impl Default for QpSelector {
    fn default() -> Self {
        QpSelector::new()
    }
}

impl BatchSelector for QpSelector {
    fn select(&mut self, ctx: &SelectionContext<'_>) -> Vec<usize> {
        if ctx.is_empty() || ctx.k() == 0 {
            return Vec::new();
        }
        // Raw softmax BvSB — deliberately uncalibrated, as in [14].
        let raw = SoftmaxCrossEntropy::probabilities(ctx.logits());
        let uncertainty = bvsb_scores(raw.as_slice());
        // One BvSB score per pool row by construction, so the build cannot
        // fail; an empty pick is the safe degradation if it ever does.
        let Ok(problem) = self.build_problem(ctx.embeddings(), &uncertainty, ctx.k()) else {
            return Vec::new();
        };
        let solution = self.solver.solve(&problem);
        solution.top_k_indices(ctx.k().min(ctx.len()))
    }

    fn name(&self) -> &'static str {
        "qp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_active::SamplingConfig;

    fn fixture() -> (Matrix, Vec<f32>, Matrix) {
        // Items 0 and 1 are identical embeddings with high uncertainty;
        // item 2 differs with high uncertainty; item 3 differs, low
        // uncertainty.
        let logits = Matrix::from_rows(&[
            vec![0.1, -0.1],
            vec![0.1, -0.1],
            vec![-0.05, 0.05],
            vec![4.0, -4.0],
        ])
        .unwrap();
        let probs = vec![0.55, 0.45, 0.55, 0.45, 0.49, 0.51, 0.98, 0.02];
        let embeddings = Matrix::from_rows(&[
            vec![1.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.6, 0.8],
        ])
        .unwrap();
        (logits, probs, embeddings)
    }

    fn ctx<'a>(
        logits: &'a Matrix,
        probs: &'a [f32],
        embeddings: &'a Matrix,
        k: usize,
    ) -> SelectionContext<'a> {
        let config = SamplingConfig {
            batch: k,
            ..SamplingConfig::for_benchmark(100)
        };
        SelectionContext::new(logits, probs, embeddings, &config, 0)
    }

    #[test]
    fn avoids_duplicate_pairs() {
        let (logits, probs, emb) = fixture();
        let context = ctx(&logits, &probs, &emb, 2);
        let picked = QpSelector::new().select(&context);
        assert_eq!(picked.len(), 2);
        assert!(
            !(picked.contains(&0) && picked.contains(&1)),
            "picked both duplicates: {picked:?}"
        );
        assert!(picked.contains(&2), "{picked:?}");
    }

    #[test]
    fn zero_lambda_reduces_to_uncertainty_ranking() {
        let (logits, probs, emb) = fixture();
        let context = ctx(&logits, &probs, &emb, 3);
        let picked = QpSelector::with_lambda(0.0).select(&context);
        // The confident item 3 must be excluded.
        assert!(!picked.contains(&3), "{picked:?}");
    }

    #[test]
    fn respects_batch_size() {
        let (logits, probs, emb) = fixture();
        let context = ctx(&logits, &probs, &emb, 1);
        assert_eq!(QpSelector::new().select(&context).len(), 1);
        let context = ctx(&logits, &probs, &emb, 10);
        assert_eq!(QpSelector::new().select(&context).len(), 4);
    }

    #[test]
    fn empty_query_selects_nothing() {
        let logits = Matrix::zeros(0, 2);
        let emb = Matrix::zeros(0, 2);
        let context = ctx(&logits, &[], &emb, 3);
        assert!(QpSelector::new().select(&context).is_empty());
    }

    #[test]
    fn build_problem_penalises_similar_pairs_symmetrically() {
        // ∂gᵢ/∂sⱼ = qᵢⱼ: the gradient at a unit vector eⱼ, less the linear
        // cost, is column j of Q = 2λ(X̂X̂ᵀ − diag).
        let (_, _, emb) = fixture();
        let problem = QpSelector::new().build_problem(&emb, &[0.5; 4], 2).unwrap();
        let column = |j: usize| {
            let mut s = [0.0; 4];
            s[j] = 1.0;
            let mut grad = [0.0; 4];
            problem.gradient(&s, &mut grad);
            grad.map(|g| g + 0.5)
        };
        let q: Vec<[f64; 4]> = (0..4).map(column).collect();
        for (i, row) in q.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &qij) in row.iter().enumerate() {
                assert!((qij - q[j][i]).abs() < 1e-12, "q[{i}][{j}]");
            }
        }
        // Duplicates 0 and 1 have similarity 1, 0 and 2 are orthogonal.
        assert!((q[0][1] - 2.0).abs() < 1e-6, "{q:?}");
        assert!(q[0][2].abs() < 1e-12, "{q:?}");
        assert!((q[2][3] - 1.6).abs() < 1e-6, "{q:?}");
    }

    #[test]
    fn build_problem_rejects_mismatched_uncertainty() {
        let (_, _, emb) = fixture();
        let err = QpSelector::new()
            .build_problem(&emb, &[0.5; 3], 2)
            .unwrap_err();
        assert_eq!(err, QpError::BadShape { rows: 4, c_len: 3 });
        assert!(err.to_string().contains("4 embedding rows for 3 variables"));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_lambda() {
        let _ = QpSelector::with_lambda(-1.0);
    }
}
