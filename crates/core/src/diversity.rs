use hotspot_nn::Matrix;

/// Pairwise difference matrix `D` (Eq. 8): `D_ij = 1 − x̂ᵢᵀ·x̂ⱼ` over
/// ℓ2-normalised rows of `embeddings`. `D_ii = 0`; values fall in `[0, 2]`
/// (cosine distance).
///
/// ```
/// use hotspot_nn::Matrix;
/// use hotspot_active::diversity_matrix;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let e = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]])?;
/// let d = diversity_matrix(&e);
/// assert!((d[1] - 1.0).abs() < 1e-6); // orthogonal features: distance 1
/// # Ok(())
/// # }
/// ```
pub fn diversity_matrix(embeddings: &Matrix) -> Vec<f32> {
    record_diversity_kernel(embeddings.rows(), embeddings.cols());
    let normalized = embeddings.l2_normalized_rows();
    let n = normalized.rows();
    let mut d = vec![0.0f32; n * n];
    for i in 0..n {
        let a = normalized.row(i);
        for j in (i + 1)..n {
            let b = normalized.row(j);
            let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
            let dist = 1.0 - dot;
            d[i * n + j] = dist;
            d[j * n + i] = dist;
        }
    }
    d
}

/// Diversity score of every row (Eq. 7): the distance to its nearest
/// neighbour, `dᵢ = min_{j≠i} D_ij`. Isolated samples score high and are
/// preferred; a single-sample set scores `[1.0]` by convention (maximally
/// diverse).
///
/// Runs in O(n²·dim) directly on the embeddings without materialising `D`,
/// which is the efficiency claim of Fig. 3(b).
pub fn diversity_scores(embeddings: &Matrix) -> Vec<f32> {
    record_diversity_kernel(embeddings.rows(), embeddings.cols());
    let normalized = embeddings.l2_normalized_rows();
    let n = normalized.rows();
    if n == 1 {
        return vec![1.0];
    }
    let mut scores = vec![f32::MAX; n];
    for i in 0..n {
        let a = normalized.row(i);
        for j in (i + 1)..n {
            let b = normalized.row(j);
            let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
            let dist = 1.0 - dot;
            if dist < scores[i] {
                scores[i] = dist;
            }
            if dist < scores[j] {
                scores[j] = dist;
            }
        }
    }
    scores
}

/// Books one pairwise-cosine pass into the `kernel.diversity.*` performance
/// counters (ROADMAP item 1 hot loop): n·(n−1)/2 dot products of `dim`
/// multiply–adds each plus the ℓ2 row normalisation, over one normalised
/// copy of the embedding matrix. One counter update per call.
fn record_diversity_kernel(n: usize, dim: usize) {
    use hotspot_telemetry::{counter, names};
    let pairs = (n * n.saturating_sub(1) / 2) as u64;
    let dim = dim as u64;
    counter(names::KERNEL_DIVERSITY_CALLS).incr();
    counter(names::KERNEL_DIVERSITY_ELEMENTS).add(pairs);
    counter(names::KERNEL_DIVERSITY_FLOPS).add(pairs * 2 * dim + 3 * n as u64 * dim);
    counter(names::KERNEL_DIVERSITY_BYTES).add(4 * 2 * n as u64 * dim);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(rows: &[Vec<f32>]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn identical_rows_have_zero_diversity() {
        let s = diversity_scores(&m(&[vec![1.0, 2.0], vec![1.0, 2.0], vec![-3.0, 1.0]]));
        assert!(s[0].abs() < 1e-6);
        assert!(s[1].abs() < 1e-6);
        assert!(s[2] > 0.5);
    }

    #[test]
    fn scaled_rows_are_equivalent() {
        // Cosine distance ignores magnitude.
        let s = diversity_scores(&m(&[vec![1.0, 0.0], vec![5.0, 0.0], vec![0.0, 1.0]]));
        assert!(s[0].abs() < 1e-6);
        assert!(s[1].abs() < 1e-6);
    }

    #[test]
    fn outlier_scores_highest() {
        let s = diversity_scores(&m(&[
            vec![1.0, 0.0],
            vec![0.98, 0.2],
            vec![0.95, 0.3],
            vec![-1.0, 0.0],
        ]));
        let max_idx = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        assert_eq!(max_idx, 3);
    }

    #[test]
    fn matrix_diagonal_is_zero_and_symmetric() {
        let d = diversity_matrix(&m(&[vec![1.0, 0.0], vec![0.6, 0.8], vec![0.0, 1.0]]));
        for i in 0..3 {
            assert!(d[i * 3 + i].abs() < 1e-6);
            for j in 0..3 {
                assert!((d[i * 3 + j] - d[j * 3 + i]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn scores_match_matrix_minimum() {
        let e = m(&[
            vec![1.0, 0.2],
            vec![0.3, 0.9],
            vec![-0.8, 0.1],
            vec![0.5, 0.5],
        ]);
        let d = diversity_matrix(&e);
        let s = diversity_scores(&e);
        for i in 0..4 {
            let min_row = (0..4)
                .filter(|&j| j != i)
                .map(|j| d[i * 4 + j])
                .fold(f32::MAX, f32::min);
            assert!((s[i] - min_row).abs() < 1e-6, "row {i}");
        }
    }

    #[test]
    fn single_sample_is_maximally_diverse() {
        assert_eq!(diversity_scores(&m(&[vec![3.0, 4.0]])), vec![1.0]);
    }

    #[test]
    fn zero_rows_do_not_crash() {
        let s = diversity_scores(&m(&[vec![0.0, 0.0], vec![1.0, 0.0]]));
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    proptest! {
        #[test]
        fn prop_scores_in_cosine_range(rows in proptest::collection::vec(
            proptest::collection::vec(-5.0f32..5.0, 3), 2..12,
        )) {
            let s = diversity_scores(&m(&rows));
            for &v in &s {
                prop_assert!((-1e-5..=2.0 + 1e-5).contains(&v));
            }
        }

        #[test]
        fn prop_adding_duplicate_zeroes_its_score(rows in proptest::collection::vec(
            proptest::collection::vec(0.1f32..5.0, 3), 2..8,
        )) {
            let mut with_dup = rows.clone();
            with_dup.push(rows[0].clone());
            let s = diversity_scores(&m(&with_dup));
            prop_assert!(s[0].abs() < 1e-5);
            prop_assert!(s[with_dup.len() - 1].abs() < 1e-5);
        }
    }
}
