use crate::{kmeans_plus_plus, GmmError};
use serde::{Deserialize, Serialize};

/// Configuration of an EM fit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GmmConfig {
    /// Number of mixture components.
    pub components: usize,
    /// Maximum EM iterations.
    pub max_iters: usize,
    /// Convergence tolerance on the mean log-likelihood improvement.
    pub tol: f64,
    /// Seed for the k-means++ initialisation.
    pub seed: u64,
    /// Variance floor added to every dimension (regularisation).
    pub reg_covar: f64,
}

impl Default for GmmConfig {
    fn default() -> Self {
        GmmConfig {
            components: 2,
            max_iters: 100,
            tol: 1e-4,
            seed: 0,
            reg_covar: 1e-6,
        }
    }
}

/// A fitted diagonal-covariance Gaussian mixture.
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaussianMixture {
    dim: usize,
    weights: Vec<f64>,
    means: Vec<f64>,     // k × dim
    variances: Vec<f64>, // k × dim
}

impl GaussianMixture {
    /// Fits a mixture to row-major `data` of feature width `dim` by EM.
    ///
    /// # Errors
    ///
    /// Returns [`GmmError::BadConfig`] for zero components/dim/iterations,
    /// [`GmmError::BadDataShape`] when `data.len()` is not a multiple of
    /// `dim`, and [`GmmError::TooFewSamples`] when there are fewer rows than
    /// components.
    pub fn fit(data: &[f32], dim: usize, config: &GmmConfig) -> Result<Self, GmmError> {
        if config.components == 0 {
            return Err(GmmError::BadConfig {
                detail: "component count must be positive",
            });
        }
        if dim == 0 {
            return Err(GmmError::BadConfig {
                detail: "dimension must be positive",
            });
        }
        if config.max_iters == 0 {
            return Err(GmmError::BadConfig {
                detail: "iteration count must be positive",
            });
        }
        if data.is_empty() || !data.len().is_multiple_of(dim) {
            return Err(GmmError::BadDataShape {
                len: data.len(),
                dim,
            });
        }
        let n = data.len() / dim;
        let k = config.components;
        if n < k {
            return Err(GmmError::TooFewSamples {
                samples: n,
                components: k,
            });
        }

        // Initialise means via k-means++, variances from the global spread.
        let means_init = kmeans_plus_plus(data, dim, k, config.seed);
        let mut means: Vec<f64> = means_init.iter().map(|&v| v as f64).collect();
        let mut global_var = vec![0.0f64; dim];
        let mut global_mean = vec![0.0f64; dim];
        for row in data.chunks_exact(dim) {
            for (m, &v) in global_mean.iter_mut().zip(row) {
                *m += v as f64;
            }
        }
        for m in &mut global_mean {
            *m /= n as f64;
        }
        for row in data.chunks_exact(dim) {
            for ((s, &v), m) in global_var.iter_mut().zip(row).zip(&global_mean) {
                *s += (v as f64 - m).powi(2);
            }
        }
        for s in &mut global_var {
            *s = (*s / n as f64).max(config.reg_covar) + config.reg_covar;
        }
        let mut variances: Vec<f64> = (0..k).flat_map(|_| global_var.iter().copied()).collect();
        let mut weights = vec![1.0 / k as f64; k];

        let _fit_span = hotspot_telemetry::span(hotspot_telemetry::names::SPAN_GMM_FIT)
            .with("samples", n as u64)
            .with("components", k as u64);
        let mut resp = vec![0.0f64; n * k];
        let mut previous_ll = f64::NEG_INFINITY;
        let mut em_iterations = 0u64;
        for _ in 0..config.max_iters {
            em_iterations += 1;
            // E-step: responsibilities and data log-likelihood.
            let mut total_ll = 0.0f64;
            for (i, row) in data.chunks_exact(dim).enumerate() {
                let r = &mut resp[i * k..(i + 1) * k];
                let mut max_log = f64::NEG_INFINITY;
                for c in 0..k {
                    let lp = weights[c].max(1e-300).ln()
                        + log_gaussian_diag(
                            row,
                            &means[c * dim..(c + 1) * dim],
                            &variances[c * dim..(c + 1) * dim],
                        );
                    r[c] = lp;
                    max_log = max_log.max(lp);
                }
                let mut sum = 0.0f64;
                for rc in r.iter_mut() {
                    *rc = (*rc - max_log).exp();
                    sum += *rc;
                }
                for rc in r.iter_mut() {
                    *rc /= sum;
                }
                total_ll += max_log + sum.ln();
            }
            let mean_ll = total_ll / n as f64;

            // M-step.
            for c in 0..k {
                let nk: f64 = (0..n).map(|i| resp[i * k + c]).sum();
                weights[c] = (nk / n as f64).max(1e-12);
                let mean_c = &mut means[c * dim..(c + 1) * dim];
                mean_c.iter_mut().for_each(|m| *m = 0.0);
                for (i, row) in data.chunks_exact(dim).enumerate() {
                    let w = resp[i * k + c];
                    for (m, &v) in mean_c.iter_mut().zip(row) {
                        *m += w * v as f64;
                    }
                }
                let denom = nk.max(1e-12);
                for m in mean_c.iter_mut() {
                    *m /= denom;
                }
                let mean_snapshot: Vec<f64> = means[c * dim..(c + 1) * dim].to_vec();
                let var_c = &mut variances[c * dim..(c + 1) * dim];
                var_c.iter_mut().for_each(|v| *v = 0.0);
                for (i, row) in data.chunks_exact(dim).enumerate() {
                    let w = resp[i * k + c];
                    for ((s, &v), m) in var_c.iter_mut().zip(row).zip(&mean_snapshot) {
                        *s += w * (v as f64 - m).powi(2);
                    }
                }
                for s in var_c.iter_mut() {
                    *s = (*s / denom).max(1e-12) + config.reg_covar;
                }
            }
            // Renormalise weights.
            let wsum: f64 = weights.iter().sum();
            for w in &mut weights {
                *w /= wsum;
            }

            if (mean_ll - previous_ll).abs() < config.tol {
                break;
            }
            previous_ll = mean_ll;
        }
        hotspot_telemetry::counter(hotspot_telemetry::names::GMM_EM_ITERATIONS).add(em_iterations);
        record_gmm_em_kernel(em_iterations, n, k, dim);
        hotspot_telemetry::debug(
            "gmm.model",
            "EM converged",
            &[
                ("em_iterations", em_iterations.into()),
                ("mean_log_likelihood", previous_ll.into()),
            ],
        );

        Ok(GaussianMixture {
            dim,
            weights,
            means,
            variances,
        })
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of components.
    pub fn components(&self) -> usize {
        self.weights.len()
    }

    /// Mixture weights (sum to 1).
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Component means, row-major `k × dim`.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Per-component diagonal variances, row-major `k × dim`.
    pub fn variances(&self) -> &[f64] {
        &self.variances
    }

    /// Log density `ln p(x)` of one sample.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != dim`.
    pub fn log_likelihood(&self, x: &[f32]) -> f64 {
        assert_eq!(x.len(), self.dim, "sample dimension mismatch");
        let k = self.components();
        let mut max_log = f64::NEG_INFINITY;
        let mut logs = Vec::with_capacity(k);
        for c in 0..k {
            let lp = self.weights[c].max(1e-300).ln()
                + log_gaussian_diag(
                    x,
                    &self.means[c * self.dim..(c + 1) * self.dim],
                    &self.variances[c * self.dim..(c + 1) * self.dim],
                );
            max_log = max_log.max(lp);
            logs.push(lp);
        }
        max_log + logs.iter().map(|&l| (l - max_log).exp()).sum::<f64>().ln()
    }

    /// Per-component posterior probabilities `p(c | x)`.
    ///
    /// # Panics
    ///
    /// Panics when `x.len() != dim`.
    pub fn responsibilities(&self, x: &[f32]) -> Vec<f64> {
        assert_eq!(x.len(), self.dim, "sample dimension mismatch");
        let k = self.components();
        let mut logs = Vec::with_capacity(k);
        let mut max_log = f64::NEG_INFINITY;
        for c in 0..k {
            let lp = self.weights[c].max(1e-300).ln()
                + log_gaussian_diag(
                    x,
                    &self.means[c * self.dim..(c + 1) * self.dim],
                    &self.variances[c * self.dim..(c + 1) * self.dim],
                );
            max_log = max_log.max(lp);
            logs.push(lp);
        }
        let mut sum = 0.0;
        for l in &mut logs {
            *l = (*l - max_log).exp();
            sum += *l;
        }
        logs.into_iter().map(|l| l / sum).collect()
    }

    /// Log densities of every row in a row-major data buffer.
    ///
    /// # Panics
    ///
    /// Panics when `data.len()` is not a multiple of the dimension.
    pub fn score_samples(&self, data: &[f32]) -> Vec<f64> {
        assert_eq!(
            data.len() % self.dim,
            0,
            "data is not a whole number of rows"
        );
        data.chunks_exact(self.dim)
            .map(|row| self.log_likelihood(row))
            .collect()
    }
}

/// Books one EM fit into the `kernel.gmm_em.*` performance counters
/// (ROADMAP item 1 hot loop). Calls count EM iterations; elements count
/// responsibility-matrix entries (iterations × samples × components), each
/// touched by one E-step Gaussian evaluation and two M-step accumulations
/// of roughly 8 FLOPs per feature dimension. One counter update per fit.
fn record_gmm_em_kernel(iterations: u64, samples: usize, components: usize, dim: usize) {
    use hotspot_telemetry::{counter, names};
    let elements = iterations * samples as u64 * components as u64;
    counter(names::KERNEL_GMM_EM_CALLS).add(iterations);
    counter(names::KERNEL_GMM_EM_ELEMENTS).add(elements);
    counter(names::KERNEL_GMM_EM_FLOPS).add(elements * 8 * dim as u64);
    counter(names::KERNEL_GMM_EM_BYTES).add(8 * elements * dim as u64);
}

/// Log density of a diagonal Gaussian.
fn log_gaussian_diag(x: &[f32], mean: &[f64], var: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for ((&xi, &mi), &vi) in x.iter().zip(mean).zip(var) {
        let d = xi as f64 - mi;
        acc += -0.5 * (d * d / vi + vi.ln() + (2.0 * std::f64::consts::PI).ln());
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_cluster_data() -> Vec<f32> {
        let mut data = Vec::new();
        for i in 0..60 {
            let jitter = (i % 7) as f32 * 0.05;
            if i % 2 == 0 {
                data.extend_from_slice(&[jitter, -jitter]);
            } else {
                data.extend_from_slice(&[8.0 + jitter, 8.0 - jitter]);
            }
        }
        data
    }

    #[test]
    fn recovers_two_clusters() {
        let data = two_cluster_data();
        let gmm = GaussianMixture::fit(&data, 2, &GmmConfig::default()).unwrap();
        let mut centres: Vec<(f64, f64)> = (0..2)
            .map(|c| (gmm.means()[c * 2], gmm.means()[c * 2 + 1]))
            .collect();
        centres.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert!(centres[0].0.abs() < 1.0, "{centres:?}");
        assert!((centres[1].0 - 8.0).abs() < 1.0, "{centres:?}");
    }

    #[test]
    fn weights_sum_to_one() {
        let gmm = GaussianMixture::fit(&two_cluster_data(), 2, &GmmConfig::default()).unwrap();
        let sum: f64 = gmm.weights().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn outliers_score_lower() {
        let gmm = GaussianMixture::fit(&two_cluster_data(), 2, &GmmConfig::default()).unwrap();
        let inlier = gmm.log_likelihood(&[0.1, 0.0]);
        let outlier = gmm.log_likelihood(&[50.0, -50.0]);
        assert!(inlier > outlier + 10.0);
    }

    #[test]
    fn responsibilities_sum_to_one_and_pick_near_cluster() {
        let gmm = GaussianMixture::fit(&two_cluster_data(), 2, &GmmConfig::default()).unwrap();
        let r = gmm.responsibilities(&[8.0, 8.0]);
        assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let near: usize = (0..2)
            .min_by(|&a, &b| {
                let da = (gmm.means()[a * 2] - 8.0).abs();
                let db = (gmm.means()[b * 2] - 8.0).abs();
                da.partial_cmp(&db).unwrap()
            })
            .unwrap();
        assert!(r[near] > 0.99);
    }

    #[test]
    fn score_samples_matches_pointwise() {
        let data = two_cluster_data();
        let gmm = GaussianMixture::fit(&data, 2, &GmmConfig::default()).unwrap();
        let scores = gmm.score_samples(&data[..8]);
        for (i, &s) in scores.iter().enumerate() {
            assert_eq!(s, gmm.log_likelihood(&data[i * 2..(i + 1) * 2]));
        }
    }

    #[test]
    fn single_component_matches_sample_moments() {
        let data: Vec<f32> = (0..1000).map(|i| (i % 100) as f32 / 10.0).collect();
        let gmm = GaussianMixture::fit(
            &data,
            1,
            &GmmConfig {
                components: 1,
                ..GmmConfig::default()
            },
        )
        .unwrap();
        let mean = data.iter().map(|&v| v as f64).sum::<f64>() / data.len() as f64;
        assert!((gmm.means()[0] - mean).abs() < 1e-3);
    }

    #[test]
    fn fit_is_deterministic() {
        let data = two_cluster_data();
        let a = GaussianMixture::fit(&data, 2, &GmmConfig::default()).unwrap();
        let b = GaussianMixture::fit(&data, 2, &GmmConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn error_cases() {
        let data = [1.0f32, 2.0, 3.0];
        assert!(matches!(
            GaussianMixture::fit(&data, 2, &GmmConfig::default()),
            Err(GmmError::BadDataShape { .. })
        ));
        assert!(matches!(
            GaussianMixture::fit(
                &data,
                1,
                &GmmConfig {
                    components: 0,
                    ..GmmConfig::default()
                }
            ),
            Err(GmmError::BadConfig { .. })
        ));
        assert!(matches!(
            GaussianMixture::fit(
                &data,
                1,
                &GmmConfig {
                    components: 5,
                    ..GmmConfig::default()
                }
            ),
            Err(GmmError::TooFewSamples { .. })
        ));
        assert!(matches!(
            GaussianMixture::fit(
                &data,
                3,
                &GmmConfig {
                    max_iters: 0,
                    ..GmmConfig::default()
                }
            ),
            Err(GmmError::BadConfig { .. })
        ));
    }

    #[test]
    fn degenerate_identical_data_survives() {
        // Variance floor keeps the fit finite on zero-spread data.
        let data = vec![3.0f32; 40];
        let gmm = GaussianMixture::fit(&data, 2, &GmmConfig::default()).unwrap();
        assert!(gmm.log_likelihood(&[3.0, 3.0]).is_finite());
    }

    proptest! {
        #[test]
        fn prop_likelihood_peaks_at_mean(shift in -5.0f64..5.0) {
            let data: Vec<f32> = (0..100)
                .map(|i| shift as f32 + ((i % 10) as f32 - 4.5) * 0.1)
                .collect();
            let gmm = GaussianMixture::fit(
                &data, 1,
                &GmmConfig { components: 1, ..GmmConfig::default() },
            ).unwrap();
            let at_mean = gmm.log_likelihood(&[gmm.means()[0] as f32]);
            let off = gmm.log_likelihood(&[gmm.means()[0] as f32 + 3.0]);
            prop_assert!(at_mean > off);
        }
    }
}
