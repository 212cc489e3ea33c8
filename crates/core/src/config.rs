/// How the two score components are combined into the entropy-based score.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightMode {
    /// Dynamic entropy weighting (Eq. 10–13) — the paper's method.
    Entropy,
    /// Fixed diversity weight `ω₂` (and `ω₁ = 1 − ω₂`), for the Fig. 6(a)
    /// comparison.
    Fixed {
        /// The diversity weight in `[0, 1]`.
        omega2: f64,
    },
}

/// Ablation switches for the Table III study.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AblationConfig {
    /// Use the uncertainty component ("w/o.U" disables it).
    pub uncertainty: bool,
    /// Use the diversity component ("w/o.D" disables it).
    pub diversity: bool,
    /// Use temperature calibration of the uncertainty probabilities.
    pub calibration: bool,
}

impl Default for AblationConfig {
    /// The full framework.
    fn default() -> Self {
        AblationConfig {
            uncertainty: true,
            diversity: true,
            calibration: true,
        }
    }
}

/// Configuration of the overall sampling framework (Algorithm 2).
#[derive(Debug, Clone, PartialEq)]
pub struct SamplingConfig {
    /// Initial labelled training-set size `|L₀|`.
    pub initial_train: usize,
    /// Validation-set size `|V₀|` (used only for temperature fitting).
    pub validation: usize,
    /// Query-pool size `n` drawn each iteration from the lowest GMM scores.
    pub query_pool: usize,
    /// Batch size `k` sampled from the query pool each iteration.
    pub batch: usize,
    /// Number of sampling iterations `N`.
    pub iterations: usize,
    /// Decision boundary `h` of the hotspot-aware uncertainty (Eq. 6);
    /// the paper fixes 0.4 for imbalanced data.
    pub boundary_h: f32,
    /// Weight initialisation σ (Algorithm 2, `w ~ N(0, σ)`).
    pub init_sigma: f64,
    /// GMM components for the query-pool model.
    pub gmm_components: usize,
    /// Epochs for the initial fit.
    pub initial_epochs: usize,
    /// Epochs for each incremental update.
    pub update_epochs: usize,
    /// Mini-batch size for training.
    pub train_batch: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// How to weight uncertainty vs diversity.
    pub weight_mode: WeightMode,
    /// Component ablation switches.
    pub ablation: AblationConfig,
    /// Detection threshold on the calibrated hotspot probability for the
    /// final full-chip prediction; the paper reuses `h`.
    pub detect_threshold: f32,
}

impl SamplingConfig {
    /// Sensible defaults scaled to a benchmark of `total` clips, matching
    /// the paper's labelling-budget profile: small ICCAD16-style benchmarks
    /// spend roughly half their clips on litho-labelled data, the large
    /// ICCAD12 population around 5 %.
    pub fn for_benchmark(total: usize) -> Self {
        let initial_train = (total / 50).clamp(20, 2000);
        let validation = (total / 50).clamp(20, 500);
        let batch = (total / 25).clamp(10, 600);
        SamplingConfig {
            initial_train,
            validation,
            query_pool: (batch * 8).min(total),
            batch,
            iterations: 10,
            boundary_h: 0.4,
            init_sigma: 1.0,
            gmm_components: 4,
            initial_epochs: 80,
            update_epochs: 30,
            train_batch: 32,
            learning_rate: 1e-3,
            weight_mode: WeightMode::Entropy,
            ablation: AblationConfig::default(),
            detect_threshold: 0.4,
        }
    }

    /// Total labelled clips the initial split consumes.
    pub fn initial_split(&self) -> usize {
        self.initial_train + self.validation
    }

    /// Returns a copy with the Table III "w/o.D" switch set.
    pub fn without_diversity(mut self) -> Self {
        self.ablation.diversity = false;
        self
    }

    /// Returns a copy with the Table III "w/o.U" switch set.
    pub fn without_uncertainty(mut self) -> Self {
        self.ablation.uncertainty = false;
        self
    }

    /// Returns a copy with the entropy weighting replaced by fixed equal
    /// weights (Table III's "w/o.E" column).
    pub fn without_entropy_weighting(mut self) -> Self {
        self.weight_mode = WeightMode::Fixed { omega2: 0.5 };
        self
    }

    /// Returns a copy with calibration disabled (raw softmax confidences).
    pub fn without_calibration(mut self) -> Self {
        self.ablation.calibration = false;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_benchmark_scales() {
        let small = SamplingConfig::for_benchmark(1000);
        let large = SamplingConfig::for_benchmark(160_000);
        assert!(small.initial_train < large.initial_train);
        assert!(small.batch < large.batch);
        assert!(small.query_pool <= 1000);
    }

    #[test]
    fn ablation_builders_flip_switches() {
        let c = SamplingConfig::for_benchmark(1000);
        assert!(!c.clone().without_diversity().ablation.diversity);
        assert!(!c.clone().without_uncertainty().ablation.uncertainty);
        assert!(!c.clone().without_calibration().ablation.calibration);
        assert!(matches!(
            c.without_entropy_weighting().weight_mode,
            WeightMode::Fixed { omega2 } if (omega2 - 0.5).abs() < 1e-12
        ));
    }

    #[test]
    fn paper_constants() {
        let c = SamplingConfig::for_benchmark(5000);
        assert!((c.boundary_h - 0.4).abs() < 1e-6);
        assert_eq!(c.weight_mode, WeightMode::Entropy);
    }
}
