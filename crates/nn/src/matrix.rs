use crate::NnError;
use std::fmt;

/// A dense row-major `f32` matrix; rows are samples. This is the single
/// tensor type of the library, and of the workspace's per-clip feature
/// rows: a generated benchmark stores its DCT and density features as one
/// `Matrix` each (row = clip).
///
/// ```
/// use hotspot_nn::Matrix;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// let b = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]])?;
/// assert_eq!(a.matmul(&b)?, a);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::RaggedRows`] when rows differ in width.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, NnError> {
        let cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            if row.len() != cols {
                return Err(NnError::RaggedRows {
                    expected: cols,
                    found: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != rows * cols`.
    pub fn from_flat(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "flat buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows (batch size).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows()`.
    pub fn row(&self, i: usize) -> &[f32] {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i >= rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(i < self.rows, "row {i} out of range ({} rows)", self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[row * self.cols + col]
    }

    /// Flat row-major view.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The flat row-major buffer, without a copy.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Matrix product `self · other`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `self.cols != other.rows`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, NnError> {
        if self.cols != other.rows {
            return Err(NnError::ShapeMismatch {
                op: "matmul",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                // Exact ±0 sparsity skip (bit test, not a tolerance): anything
                // else would change the product.
                if a.to_bits() << 1 == 0 {
                    continue;
                }
                let src = &other.data[k * other.cols..(k + 1) * other.cols];
                let dst = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += a * s;
                }
            }
        }
        Ok(out)
    }

    /// Matrix product `selfᵀ · other` without materialising the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] when `self.rows != other.rows`.
    pub fn transpose_matmul(&self, other: &Matrix) -> Result<Matrix, NnError> {
        if self.rows != other.rows {
            return Err(NnError::ShapeMismatch {
                op: "transpose_matmul",
                left: (self.rows, self.cols),
                right: (other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.cols, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                // Exact ±0 sparsity skip, same contract as `matmul`.
                if a.to_bits() << 1 == 0 {
                    continue;
                }
                let src = &other.data[i * other.cols..(i + 1) * other.cols];
                let dst = &mut out.data[k * other.cols..(k + 1) * other.cols];
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += a * s;
                }
            }
        }
        Ok(out)
    }

    /// Transposed copy.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// Adds `bias` (length `cols`) to every row.
    ///
    /// # Panics
    ///
    /// Panics when `bias.len() != cols`.
    pub fn add_row_bias(&mut self, bias: &[f32]) {
        assert_eq!(bias.len(), self.cols, "bias length mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for (v, &b) in row.iter_mut().zip(bias) {
                *v += b;
            }
        }
    }

    /// Sum of each column — used for bias gradients.
    pub fn column_sums(&self) -> Vec<f32> {
        let mut sums = vec![0.0f32; self.cols];
        for row in self.data.chunks_exact(self.cols) {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v;
            }
        }
        sums
    }

    /// Index of the maximum entry of each row (ties break to the first).
    pub fn argmax_rows(&self) -> Vec<usize> {
        self.data
            .chunks_exact(self.cols)
            .map(|row| {
                let mut best = 0usize;
                for (i, &v) in row.iter().enumerate() {
                    if v > row[best] {
                        best = i;
                    }
                }
                best
            })
            .collect()
    }

    /// Gathers the given rows into a new matrix.
    ///
    /// # Panics
    ///
    /// Panics when any index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Per-column mean and standard deviation, for standardisation.
    /// Columns with zero variance report a standard deviation of 1 so that
    /// standardising them is a no-op shift.
    pub fn column_stats(&self) -> (Vec<f32>, Vec<f32>) {
        let mut mean = vec![0.0f64; self.cols];
        for row in self.data.chunks_exact(self.cols) {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v as f64;
            }
        }
        let n = self.rows.max(1) as f64;
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f64; self.cols];
        for row in self.data.chunks_exact(self.cols) {
            for ((s, &v), m) in var.iter_mut().zip(row).zip(&mean) {
                *s += (v as f64 - m).powi(2);
            }
        }
        let std: Vec<f32> = var
            .iter()
            .map(|&s| {
                let sd = (s / n).sqrt();
                if sd > 1e-12 {
                    sd as f32
                } else {
                    1.0
                }
            })
            .collect();
        (mean.into_iter().map(|m| m as f32).collect(), std)
    }

    /// Standardises in place: each column shifted by `mean` and divided by
    /// `std`. Training ([`Matrix::column_stats`] of the whole pool) and
    /// serving (the training statistics applied to unseen rows) both go
    /// through here, so a served row is scaled exactly as the classifier
    /// saw its training rows.
    ///
    /// # Panics
    ///
    /// Panics when the statistics vectors do not match the column count.
    pub fn standardize(&mut self, mean: &[f32], std: &[f32]) {
        assert_eq!(mean.len(), self.cols, "mean length mismatch");
        assert_eq!(std.len(), self.cols, "std length mismatch");
        for row in self.data.chunks_exact_mut(self.cols) {
            for ((v, &m), &s) in row.iter_mut().zip(mean).zip(std) {
                *v = (*v - m) / s;
            }
        }
    }

    /// A copy with every row divided by its ℓ2 norm; (near-)zero rows are
    /// left as they are. The diversity scores (Eq. 7–8) and the QP
    /// baseline's similarity kernel both read embeddings through here.
    pub fn l2_normalized_rows(&self) -> Matrix {
        let mut out = self.clone();
        for row in out.data.chunks_exact_mut(self.cols.max(1)) {
            let norm: f32 = row.iter().map(|&v| v * v).sum::<f32>().sqrt();
            if norm > 1e-12 {
                for v in row.iter_mut() {
                    *v /= norm;
                }
            }
        }
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            let row = self.row(i);
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:>8.4}")).collect();
            writeln!(
                f,
                "  [{}{}]",
                cells.join(", "),
                if self.cols > 8 { ", …" } else { "" }
            )?;
        }
        if self.rows > show {
            writeln!(f, "  … {} more rows", self.rows - show)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn m(rows: &[Vec<f32>]) -> Matrix {
        Matrix::from_rows(rows).unwrap()
    }

    #[test]
    fn matmul_known_product() {
        let a = m(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = m(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = m(&[vec![1.0, 2.0]]);
        let b = m(&[vec![1.0, 2.0]]);
        assert!(matches!(a.matmul(&b), Err(NnError::ShapeMismatch { .. })));
    }

    #[test]
    fn transpose_matmul_equals_explicit() {
        let a = m(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = m(&[vec![7.0, 8.0], vec![9.0, 10.0]]);
        let fast = a.transpose_matmul(&b).unwrap();
        let slow = a.transposed().matmul(&b).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn bias_and_column_sums() {
        let mut a = m(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        a.add_row_bias(&[10.0, 20.0]);
        assert_eq!(a.as_slice(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(a.column_sums(), vec![24.0, 46.0]);
    }

    #[test]
    fn argmax_rows_breaks_ties_first() {
        let a = m(&[vec![1.0, 1.0], vec![0.0, 2.0], vec![5.0, -1.0]]);
        assert_eq!(a.argmax_rows(), vec![0, 1, 0]);
    }

    #[test]
    fn rejects_ragged_rows() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert_eq!(
            err,
            NnError::RaggedRows {
                expected: 1,
                found: 2
            }
        );
    }

    #[test]
    fn row_access() {
        let a = m(&[vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]]);
        assert_eq!(a.rows(), 3);
        assert_eq!(a.cols(), 2);
        assert_eq!(a.row(2), &[3.0, 30.0]);
    }

    #[test]
    fn gather_reorders_rows() {
        let a = m(&[vec![1.0], vec![2.0], vec![3.0]]);
        let g = a.gather_rows(&[2, 0]);
        assert_eq!(g.as_slice(), &[3.0, 1.0]);
    }

    #[test]
    fn standardize_centers_columns() {
        let mut a = m(&[
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ]);
        let (mean, std) = a.column_stats();
        a.standardize(&mean, &std);
        // Column means of the standardized matrix are ~0, stds ~1.
        let (m2, s2) = a.column_stats();
        for v in m2 {
            assert!(v.abs() < 1e-6);
        }
        for v in s2 {
            assert!((v - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn constant_column_standardizes_to_zero() {
        let mut a = m(&[vec![5.0, 1.0], vec![5.0, 2.0]]);
        let (mean, std) = a.column_stats();
        a.standardize(&mean, &std);
        assert_eq!(a.at(0, 0), 0.0);
        assert_eq!(a.at(1, 0), 0.0);
    }

    #[test]
    fn display_mentions_shape() {
        let a = Matrix::zeros(2, 3);
        assert!(a.to_string().contains("2x3"));
    }

    proptest! {
        #[test]
        fn prop_matmul_associative_with_identity(
            vals in proptest::collection::vec(-10.0f32..10.0, 12),
        ) {
            let a = Matrix::from_flat(3, 4, vals);
            let mut eye = Matrix::zeros(4, 4);
            for i in 0..4 { eye.as_mut_slice()[i * 4 + i] = 1.0; }
            prop_assert_eq!(a.matmul(&eye).unwrap(), a);
        }

        #[test]
        fn prop_transpose_involutive(vals in proptest::collection::vec(-5.0f32..5.0, 12)) {
            let a = Matrix::from_flat(3, 4, vals);
            prop_assert_eq!(a.transposed().transposed(), a);
        }
    }
}
