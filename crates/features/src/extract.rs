use crate::{run_length_histogram, zigzag_order, Dct2d, FeatureError, DEFAULT_RUN_BINS};
use hotspot_geom::Raster;

/// Block-DCT feature extractor for layout clip rasters.
///
/// Configured by three numbers: the square working resolution the raster is
/// resampled to, the DCT block edge, and how many zig-zag coefficients are
/// kept per block. The output dimension is
/// `(raster/block)² × coefficients`.
///
/// See the [crate-level example](crate) for usage.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    raster_edge: usize,
    block_edge: usize,
    coeffs_per_block: usize,
    dct: Dct2d,
    zigzag: Vec<usize>,
}

impl FeatureExtractor {
    /// Creates an extractor resampling clips to `raster_edge²` pixels, tiled
    /// into `block_edge²` blocks, keeping `coeffs_per_block` DCT
    /// coefficients per block.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::BadBlockTiling`] when `raster_edge` is not a
    /// positive multiple of `block_edge`, and
    /// [`FeatureError::TooManyCoefficients`] when `coeffs_per_block`
    /// exceeds `block_edge²` or is zero.
    pub fn new(
        raster_edge: usize,
        block_edge: usize,
        coeffs_per_block: usize,
    ) -> Result<Self, FeatureError> {
        if block_edge == 0 || raster_edge == 0 || !raster_edge.is_multiple_of(block_edge) {
            return Err(FeatureError::BadBlockTiling {
                raster: raster_edge,
                block: block_edge,
            });
        }
        if coeffs_per_block == 0 || coeffs_per_block > block_edge * block_edge {
            return Err(FeatureError::TooManyCoefficients {
                requested: coeffs_per_block,
                available: block_edge * block_edge,
            });
        }
        let zigzag = zigzag_order(block_edge)
            .into_iter()
            .take(coeffs_per_block)
            .collect();
        Ok(FeatureExtractor {
            raster_edge,
            block_edge,
            coeffs_per_block,
            dct: Dct2d::new(block_edge),
            zigzag,
        })
    }

    /// The standard configuration used throughout the workspace: clips at
    /// 32 × 32 working resolution, 8 × 8 blocks, 6 coefficients each —
    /// a 96-dimensional feature vector.
    pub fn standard() -> Self {
        // 32 is a positive multiple of 8 and 6 ≤ 8², so these fields satisfy
        // every invariant the checked constructor enforces.
        FeatureExtractor {
            raster_edge: 32,
            block_edge: 8,
            coeffs_per_block: 6,
            dct: Dct2d::new(8),
            zigzag: zigzag_order(8).into_iter().take(6).collect(),
        }
    }

    /// Output feature dimension.
    pub fn dim(&self) -> usize {
        let blocks = self.raster_edge / self.block_edge;
        blocks * blocks * self.coeffs_per_block
    }

    /// Working resolution the raster is resampled to.
    pub fn raster_edge(&self) -> usize {
        self.raster_edge
    }

    /// DCT block edge length.
    pub fn block_edge(&self) -> usize {
        self.block_edge
    }

    /// Coefficients kept per block.
    pub fn coeffs_per_block(&self) -> usize {
        self.coeffs_per_block
    }

    /// Extracts the feature vector of one clip raster.
    pub fn extract(&self, raster: &Raster) -> Vec<f32> {
        let working = if raster.width() == self.raster_edge && raster.height() == self.raster_edge {
            raster.clone()
        } else {
            raster.resampled(self.raster_edge, self.raster_edge)
        };
        let pixels = working.pixels();
        let blocks = self.raster_edge / self.block_edge;
        let b = self.block_edge;
        let mut features = Vec::with_capacity(self.dim());
        let mut block_buf = vec![0.0f32; b * b];
        for br in 0..blocks {
            for bc in 0..blocks {
                for r in 0..b {
                    let src = (br * b + r) * self.raster_edge + bc * b;
                    block_buf[r * b..(r + 1) * b].copy_from_slice(&pixels[src..src + b]);
                }
                let coeffs = self.dct.transform(&block_buf);
                features.extend(self.zigzag.iter().map(|&i| coeffs[i]));
            }
        }
        features
    }

    /// The classifier's feature row for a clip core: the block-DCT features
    /// of [`FeatureExtractor::extract`] followed by the censored run-length
    /// histograms of [`run_length_histogram`] at threshold 0.5. The DCT half
    /// carries the spectral layout representation the hotspot-CNN
    /// literature trains on; the run-length half carries the
    /// translation-invariant width/spacing view a small MLP needs to
    /// generalise from the few labelled clips an active learner starts with.
    /// Benchmark generation and the scoring service both build their rows
    /// here, so training and serving features cannot drift apart.
    pub fn clip_features(&self, core: &Raster) -> Vec<f32> {
        let mut features = self.extract(core);
        features.extend(run_length_histogram(core, 0.5, &DEFAULT_RUN_BINS));
        features
    }

    /// Extracts a coarse density map (mean coverage per block) — the
    /// low-dimensional representation used by the GMM query-pool model.
    pub fn density_features(&self, raster: &Raster) -> Vec<f32> {
        let blocks = self.raster_edge / self.block_edge;
        let small = raster.resampled(blocks, blocks);
        small.pixels().to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_geom::{Raster, Rect};

    fn raster_with_left_half() -> Raster {
        let mut r = Raster::zeros(Rect::new(0, 0, 1280, 1280).unwrap(), 10).unwrap();
        r.fill_rect(&Rect::new(0, 0, 640, 1280).unwrap(), 1.0);
        r
    }

    #[test]
    fn rejects_bad_tiling() {
        assert!(matches!(
            FeatureExtractor::new(30, 8, 6),
            Err(FeatureError::BadBlockTiling { .. })
        ));
        assert!(FeatureExtractor::new(0, 8, 6).is_err());
        assert!(FeatureExtractor::new(32, 0, 6).is_err());
    }

    #[test]
    fn rejects_too_many_coefficients() {
        assert!(matches!(
            FeatureExtractor::new(32, 8, 65),
            Err(FeatureError::TooManyCoefficients { .. })
        ));
        assert!(FeatureExtractor::new(32, 8, 0).is_err());
    }

    #[test]
    fn dim_matches_configuration() {
        let e = FeatureExtractor::new(32, 8, 6).unwrap();
        assert_eq!(e.dim(), 16 * 6);
        assert_eq!(e.extract(&raster_with_left_half()).len(), e.dim());
    }

    #[test]
    fn standard_is_96_dimensional() {
        assert_eq!(FeatureExtractor::standard().dim(), 96);
    }

    #[test]
    fn empty_raster_gives_zero_features() {
        let e = FeatureExtractor::standard();
        let raster = Raster::zeros(Rect::new(0, 0, 1200, 1200).unwrap(), 10).unwrap();
        assert!(e.extract(&raster).iter().all(|&v| v.abs() < 1e-6));
    }

    #[test]
    fn features_distinguish_patterns() {
        let e = FeatureExtractor::standard();
        let left = e.extract(&raster_with_left_half());
        let mut full = Raster::zeros(Rect::new(0, 0, 1280, 1280).unwrap(), 10).unwrap();
        full.fill_rect(&Rect::new(0, 0, 1280, 1280).unwrap(), 1.0);
        let full_f = e.extract(&full);
        let dist: f32 = left.iter().zip(&full_f).map(|(a, b)| (a - b).powi(2)).sum();
        assert!(dist > 0.1);
    }

    #[test]
    fn translation_changes_features() {
        // DCT features are location-sensitive within the clip, as required
        // to tell a core defect from a margin defect.
        let e = FeatureExtractor::standard();
        let mut a = Raster::zeros(Rect::new(0, 0, 1280, 1280).unwrap(), 10).unwrap();
        a.fill_rect(&Rect::new(0, 0, 1280, 200).unwrap(), 1.0);
        let mut b = Raster::zeros(Rect::new(0, 0, 1280, 1280).unwrap(), 10).unwrap();
        b.fill_rect(&Rect::new(0, 1080, 1280, 1280).unwrap(), 1.0);
        let fa = e.extract(&a);
        let fb = e.extract(&b);
        let dist: f32 = fa.iter().zip(&fb).map(|(x, y)| (x - y).powi(2)).sum();
        assert!(dist > 0.1);
    }

    #[test]
    fn density_features_have_block_count_dims() {
        let e = FeatureExtractor::new(32, 8, 6).unwrap();
        let d = e.density_features(&raster_with_left_half());
        assert_eq!(d.len(), 16);
        let mean: f32 = d.iter().sum::<f32>() / d.len() as f32;
        assert!((mean - 0.5).abs() < 0.05);
    }

    #[test]
    fn extract_accepts_presized_raster() {
        let e = FeatureExtractor::new(32, 8, 6).unwrap();
        let r = Raster::zeros(Rect::new(0, 0, 32, 32).unwrap(), 1).unwrap();
        assert_eq!(e.extract(&r).len(), e.dim());
    }
}
