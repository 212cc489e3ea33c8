//! Test-only dense reference: the `n × n` solver this crate ran before the
//! quadratic term went low-rank, kept to pin the production path against.

use crate::QpSolution;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;

/// `n` ℓ2-normalised `dim`-wide rows (row-major), normalised in `f32` as the
/// QP selector does; about one row in five is all-zero and stays so.
pub(crate) fn random_embeddings(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let zero = rng.gen_range(0..5) == 0;
        let row: Vec<f32> = (0..dim)
            .map(|_| if zero { 0.0 } else { rng.gen_range(-1.0..1.0) })
            .collect();
        let norm: f32 = row.iter().map(|&v| v * v).sum::<f32>().sqrt();
        x.extend(row.iter().map(|&v| if norm > 1e-12 { v / norm } else { v }));
    }
    x
}

/// A capped-simplex QP with its quadratic term stored densely.
#[derive(Debug, Clone)]
pub(crate) struct DenseQp {
    pub q: Vec<f64>, // n × n row-major
    pub c: Vec<f64>,
    pub k: f64,
}

impl DenseQp {
    fn from_kernel(
        x: &[f32],
        dim: usize,
        c: Vec<f64>,
        k: f64,
        mut entry: impl FnMut(&[f32], &[f32]) -> f64,
    ) -> Self {
        let n = c.len();
        let mut q = vec![0.0f64; n * n];
        for i in 0..n {
            let a = &x[i * dim..(i + 1) * dim];
            for j in (i + 1)..n {
                let v = entry(a, &x[j * dim..(j + 1) * dim]);
                q[i * n + j] = v;
                q[j * n + i] = v;
            }
        }
        DenseQp { q, c, k }
    }

    /// The matrix the QP selector used to build: each pair similarity summed
    /// in `f32`, then `2λ·sim` in `f64`.
    pub fn from_f32_similarities(x: &[f32], dim: usize, lambda: f64, c: Vec<f64>, k: f64) -> Self {
        Self::from_kernel(x, dim, c, k, |a, b| {
            let sim: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
            2.0 * lambda * sim as f64
        })
    }

    /// `2λ(XXᵀ − diag(‖xᵢ‖²))` with every product taken in `f64`.
    pub fn exact(x: &[f32], dim: usize, lambda: f64, c: Vec<f64>, k: f64) -> Self {
        Self::from_kernel(x, dim, c, k, |a, b| {
            let sim: f64 = a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum();
            2.0 * lambda * sim
        })
    }

    fn len(&self) -> usize {
        self.c.len()
    }

    pub fn objective(&self, s: &[f64]) -> f64 {
        let n = self.len();
        let mut value = 0.0;
        for i in 0..n {
            value += self.c[i] * s[i];
            let row = &self.q[i * n..(i + 1) * n];
            let mut qs = 0.0;
            for (qij, &sj) in row.iter().zip(s) {
                qs += qij * sj;
            }
            value += 0.5 * s[i] * qs;
        }
        value
    }

    pub fn gradient(&self, s: &[f64]) -> Vec<f64> {
        let n = self.len();
        (0..n)
            .map(|i| {
                let row = &self.q[i * n..(i + 1) * n];
                let mut acc = self.c[i];
                for (qij, &sj) in row.iter().zip(s) {
                    acc += qij * sj;
                }
                acc
            })
            .collect()
    }

    pub fn lipschitz_bound(&self) -> f64 {
        let n = self.len();
        (0..n)
            .map(|i| {
                self.q[i * n..(i + 1) * n]
                    .iter()
                    .map(|v| v.abs())
                    .sum::<f64>()
            })
            .fold(0.0, f64::max)
    }

    /// The projected-gradient loop `QpSolver::solve` ran on the dense
    /// matrix, with the bisection projection.
    pub fn solve(&self, max_iters: usize, tol: f64) -> QpSolution {
        let n = self.len();
        let step = 1.0 / self.lipschitz_bound().max(1.0);
        let mut s = vec![self.k / n as f64; n];
        let mut iterations = 0;
        for it in 0..max_iters {
            iterations = it + 1;
            let grad = self.gradient(&s);
            let proposal: Vec<f64> = s
                .iter()
                .zip(&grad)
                .map(|(&si, &gi)| si - step * gi)
                .collect();
            let next = bisect_capped_simplex(&proposal, self.k);
            let movement = s
                .iter()
                .zip(&next)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            s = next;
            if movement < tol {
                break;
            }
        }
        let objective = self.objective(&s);
        QpSolution {
            values: s,
            objective,
            iterations,
        }
    }
}

/// Capped-simplex projection by 100 bisection steps on the shift `τ`.
pub(crate) fn bisect_capped_simplex(x: &[f64], k: f64) -> Vec<f64> {
    if x.is_empty() {
        return Vec::new();
    }
    let sum_at = |tau: f64| -> f64 { x.iter().map(|&v| (v - tau).clamp(0.0, 1.0)).sum() };
    let max_x = x.iter().copied().fold(f64::MIN, f64::max);
    let min_x = x.iter().copied().fold(f64::MAX, f64::min);
    let mut lo = min_x - 1.5;
    let mut hi = max_x + 0.5;
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if sum_at(mid) > k {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let tau = 0.5 * (lo + hi);
    x.iter().map(|&v| (v - tau).clamp(0.0, 1.0)).collect()
}
