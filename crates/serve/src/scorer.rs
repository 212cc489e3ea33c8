//! The loaded model + calibration behind `/score`.
//!
//! A [`Scorer`] owns everything a scoring request needs: the trained
//! classifier, the fitted temperature, the DCT feature extractor, and the
//! training-time standardisation statistics (serving-time inputs must be
//! shifted and scaled by the *training* column stats, or the model sees a
//! different distribution than it learned on).
//!
//! Scoring is batch-invariant by construction: every dense layer is a
//! row-independent affine map and standardisation/softmax/uncertainty are
//! per-row, so scoring a coalesced batch is bit-identical to scoring each
//! row alone (pinned by `hotspot_nn`'s
//! `batched_inference_is_bit_identical_to_single_rows` and this crate's
//! `tests/batching.rs`). That property is what makes the micro-batcher in
//! [`crate::batcher`] transparent to clients.

use hotspot_active::{standardized_dct, uncertainty_scores, HotspotModel, SamplingConfig};
use hotspot_calibration::Temperature;
use hotspot_features::FeatureExtractor;
use hotspot_geom::{Raster, Rect};
use hotspot_layout::{BenchmarkSpec, GeneratedBenchmark};
use hotspot_nn::Matrix;

use crate::api::ClipScore;
use crate::ServeError;

/// Training parameters for [`Scorer::bootstrap`]; defaults are sized so a
/// CI boot stays in the low seconds.
#[derive(Debug, Clone)]
pub struct BootstrapConfig {
    /// Benchmark name (`iccad12`, `iccad16_1` … `iccad16_4`).
    pub benchmark: String,
    /// Population scale factor.
    pub scale: f64,
    /// Seed for generation, initialisation, and the shuffle schedule.
    pub seed: u64,
    /// Training epochs over the labelled set.
    pub epochs: usize,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        BootstrapConfig {
            benchmark: "iccad12".to_string(),
            scale: 0.004,
            seed: 7,
            epochs: 40,
        }
    }
}

/// A trained, calibrated scoring model. See the module docs.
#[derive(Debug)]
pub struct Scorer {
    model: HotspotModel,
    temperature: Temperature,
    extractor: FeatureExtractor,
    mean: Vec<f32>,
    std: Vec<f32>,
    boundary_h: f32,
    model_version: String,
    calibration_version: String,
}

impl Scorer {
    /// Trains a scorer from scratch on a generated benchmark: standardises
    /// the DCT features with training-set column stats, fits the classifier
    /// on an interleaved 80 % split, and calibrates the temperature on the
    /// held-out 20 %.
    ///
    /// # Errors
    ///
    /// Propagates benchmark-generation, training, and calibration failures.
    pub fn bootstrap(config: &BootstrapConfig) -> Result<Scorer, ServeError> {
        if !(config.scale.is_finite() && config.scale > 0.0) {
            return Err(ServeError::BadInput(format!(
                "scale must be positive and finite, got {}",
                config.scale
            )));
        }
        let spec = BenchmarkSpec::by_name(&config.benchmark)
            .map_err(|e| ServeError::BadInput(e.to_string()))?
            .scaled(config.scale);
        let bench = GeneratedBenchmark::generate(&spec, config.seed)
            .map_err(|e| ServeError::Internal(format!("benchmark generation failed: {e}")))?;
        Scorer::from_benchmark(&bench, config.seed, config.epochs)
    }

    /// [`Scorer::bootstrap`] over an already generated benchmark.
    ///
    /// # Errors
    ///
    /// Propagates training and calibration failures.
    pub fn from_benchmark(
        bench: &GeneratedBenchmark,
        seed: u64,
        epochs: usize,
    ) -> Result<Scorer, ServeError> {
        let (features, mean, std) = standardized_dct(bench);
        let dim = features.cols();
        let labels: Vec<usize> = bench
            .labels()
            .iter()
            .map(|label| label.class_index())
            .collect();
        // Interleaved split: every fifth clip calibrates, the rest train.
        // Stride keeps both classes on both sides for any generation order.
        let val_rows: Vec<usize> = (0..features.rows()).filter(|i| i % 5 == 0).collect();
        let train_rows: Vec<usize> = (0..features.rows()).filter(|i| i % 5 != 0).collect();
        if train_rows.is_empty() || val_rows.is_empty() {
            return Err(ServeError::BadInput(format!(
                "benchmark of {} clips is too small to bootstrap a scorer",
                features.rows()
            )));
        }
        let train_x = features.gather_rows(&train_rows);
        let train_y: Vec<usize> = train_rows.iter().map(|&i| labels[i]).collect();
        let val_x = features.gather_rows(&val_rows);
        let val_y: Vec<usize> = val_rows.iter().map(|&i| labels[i]).collect();

        let defaults = SamplingConfig::for_benchmark(bench.len());
        let mut model = HotspotModel::new(
            dim,
            seed ^ 0x5e5e_0001,
            defaults.init_sigma,
            defaults.learning_rate,
            defaults.train_batch,
        );
        model
            .train(&train_x, &train_y, epochs, seed ^ 0x5e5e_0002)
            .map_err(ServeError::Active)?;
        let (val_logits, _) = model.predict(&val_x);
        let temperature = Temperature::fit(val_logits.as_slice(), 2, &val_y)
            .map_err(|e| ServeError::Internal(format!("temperature fit failed: {e}")))?;

        let model_version = format!("{}-s{}-e{}-d{}", bench.spec().name, seed, epochs, dim);
        let calibration_version = format!("T{:.6}", temperature.value());
        Ok(Scorer {
            model,
            temperature,
            extractor: FeatureExtractor::standard(),
            mean,
            std,
            boundary_h: defaults.boundary_h,
            model_version,
            calibration_version,
        })
    }

    /// Expected feature-row width.
    pub fn input_dim(&self) -> usize {
        self.model.input_dim()
    }

    /// Identifies the trained weights.
    pub fn model_version(&self) -> &str {
        &self.model_version
    }

    /// Identifies the fitted temperature.
    pub fn calibration_version(&self) -> &str {
        &self.calibration_version
    }

    /// The fitted temperature.
    pub fn temperature(&self) -> Temperature {
        self.temperature
    }

    /// Extracts a raw feature row from a client-submitted raster.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] for empty, oversized, or
    /// shape-mismatched pixel grids, and for a non-finite pixel.
    pub fn raster_features(
        &self,
        width: usize,
        height: usize,
        pixels: &[f32],
    ) -> Result<Vec<f32>, ServeError> {
        const MAX_EDGE: usize = 4096;
        if width == 0 || height == 0 || width > MAX_EDGE || height > MAX_EDGE {
            return Err(ServeError::BadInput(format!(
                "raster must be between 1x1 and {MAX_EDGE}x{MAX_EDGE}, got {width}x{height}"
            )));
        }
        if pixels.len() != width * height {
            return Err(ServeError::BadInput(format!(
                "raster of {width}x{height} needs {} pixels, got {}",
                width * height,
                pixels.len()
            )));
        }
        if let Some(i) = pixels.iter().position(|p| !p.is_finite()) {
            return Err(ServeError::BadInput(format!(
                "raster pixel at x {}, y {} is {}, not a finite number",
                i % width,
                i / width,
                pixels[i]
            )));
        }
        let region = Rect::new(0, 0, width as i64, height as i64)
            .map_err(|e| ServeError::BadInput(format!("bad raster region: {e}")))?;
        let mut raster = Raster::zeros(region, 1)
            .map_err(|e| ServeError::BadInput(format!("bad raster shape: {e}")))?;
        raster.pixels_mut().copy_from_slice(pixels);
        // The benchmark's own feature recipe; the submitted raster is
        // treated as the clip core, already cropped by the client.
        Ok(self.extractor.clip_features(&raster))
    }

    /// Checks that every raw feature row has the model's width and only
    /// finite entries. A non-finite entry would otherwise pass the forward
    /// pass as a NaN that ReLU silently maps to 0.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] naming the first offending row (and
    /// column).
    pub fn check_rows(&self, rows: &[Vec<f32>]) -> Result<(), ServeError> {
        let dim = self.input_dim();
        for (index, row) in rows.iter().enumerate() {
            if row.len() != dim {
                return Err(ServeError::BadInput(format!(
                    "feature row {index} has {} entries, expected {dim}",
                    row.len()
                )));
            }
            if let Some(column) = row.iter().position(|v| !v.is_finite()) {
                return Err(ServeError::BadInput(format!(
                    "feature row {index} column {column} is {}, not a finite number",
                    row[column]
                )));
            }
        }
        Ok(())
    }

    /// Scores a batch of raw feature rows: standardise, one forward pass,
    /// then per-row calibrated probabilities and uncertainties.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadInput`] when [`Scorer::check_rows`] refuses
    /// the rows.
    pub fn score_rows(&self, rows: &[Vec<f32>]) -> Result<Vec<ClipScore>, ServeError> {
        self.check_rows(rows)?;
        if rows.is_empty() {
            return Ok(Vec::new());
        }
        let mut batch = Matrix::from_flat(rows.len(), self.input_dim(), rows.concat());
        batch.standardize(&self.mean, &self.std);
        let (logits, _) = self.model.predict(&batch);
        let mut probabilities = Vec::with_capacity(rows.len() * 2);
        for i in 0..rows.len() {
            probabilities.extend(self.temperature.probabilities(logits.row(i)));
        }
        let bvsb = hotspot_active::bvsb_scores(&probabilities);
        let uncertainty = uncertainty_scores(&probabilities, self.boundary_h);
        let scores = (0..rows.len())
            .map(|i| {
                let raw = logits.row(i);
                ClipScore {
                    probability: probabilities[i * 2 + 1],
                    logits: raw.to_vec(),
                    scaled_logits: self.temperature.scaled_logits(raw),
                    bvsb: bvsb[i],
                    uncertainty: uncertainty[i],
                }
            })
            .collect();
        Ok(scores)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scorer() -> Scorer {
        let config = BootstrapConfig {
            benchmark: "iccad16_2".to_string(),
            scale: 0.25,
            seed: 11,
            epochs: 8,
        };
        Scorer::bootstrap(&config).expect("bootstrap")
    }

    #[test]
    fn bootstrap_produces_probabilities_in_range() {
        let scorer = tiny_scorer();
        let rows = vec![
            vec![0.25f32; scorer.input_dim()],
            vec![0.75f32; scorer.input_dim()],
        ];
        let scores = scorer.score_rows(&rows).expect("score");
        assert_eq!(scores.len(), 2);
        for score in &scores {
            assert!((0.0..=1.0).contains(&score.probability), "{score:?}");
            assert!((0.0..=1.0).contains(&score.bvsb), "{score:?}");
            assert_eq!(score.logits.len(), 2);
            assert_eq!(score.scaled_logits.len(), 2);
        }
    }

    #[test]
    fn batched_scores_are_bit_identical_to_single_rows() {
        let scorer = tiny_scorer();
        let dim = scorer.input_dim();
        let rows: Vec<Vec<f32>> = (0..9)
            .map(|r| {
                (0..dim)
                    .map(|c| ((r * dim + c) as f32 * 0.037).sin())
                    .collect()
            })
            .collect();
        let batched = scorer.score_rows(&rows).expect("batch");
        for (i, row) in rows.iter().enumerate() {
            let single = scorer
                .score_rows(std::slice::from_ref(row))
                .expect("single");
            assert_eq!(
                batched[i].probability.to_bits(),
                single[0].probability.to_bits(),
                "probability diverges at row {i}"
            );
            let batch_logits: Vec<u32> = batched[i].logits.iter().map(|v| v.to_bits()).collect();
            let single_logits: Vec<u32> = single[0].logits.iter().map(|v| v.to_bits()).collect();
            assert_eq!(batch_logits, single_logits, "logits diverge at row {i}");
            assert_eq!(batched[i].bvsb.to_bits(), single[0].bvsb.to_bits());
            assert_eq!(
                batched[i].uncertainty.to_bits(),
                single[0].uncertainty.to_bits()
            );
        }
    }

    #[test]
    fn raster_features_validate_shape() {
        let scorer = tiny_scorer();
        assert!(scorer.raster_features(2, 2, &[0.0; 3]).is_err());
        assert!(scorer.raster_features(0, 2, &[]).is_err());
        let features = scorer
            .raster_features(16, 16, &[0.5; 256])
            .expect("extract");
        assert_eq!(features.len(), scorer.input_dim());
    }

    #[test]
    fn wrong_feature_width_is_rejected() {
        let scorer = tiny_scorer();
        assert!(matches!(
            scorer.score_rows(&[vec![0.0; 3]]),
            Err(ServeError::BadInput(_))
        ));
    }
}
