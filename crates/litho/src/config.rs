use hotspot_geom::Coord;

/// Tuning parameters of the lithography model.
///
/// The defaults model a DUV-like 28 nm-class metal layer rasterised at
/// 10 nm/pixel: features ≳ 60 nm wide print reliably, slots ≳ 60 nm resolve,
/// and anything much tighter bridges or pinches. Benchmark presets derive
/// scaled variants (see `hotspot-layout`).
#[derive(Debug, Clone, PartialEq)]
pub struct LithoConfig {
    /// Raster pixel pitch in nanometres.
    pub pitch: Coord,
    /// Optical point-spread 1-σ radius in nanometres.
    pub sigma: f64,
    /// Resist development threshold on normalised aerial intensity.
    pub resist_threshold: f32,
    /// Edge-placement tolerance in pixels: printed edges may wander this far
    /// from the design intent before pixels count as violations.
    pub epe_tolerance_px: usize,
    /// Minimum size (in pixels) of a violation cluster to count as a defect.
    pub min_defect_px: usize,
}

impl LithoConfig {
    /// Optical sigma expressed in pixels.
    pub fn sigma_px(&self) -> f64 {
        self.sigma / self.pitch as f64
    }

    /// Preset for a 28 nm-class DUV metal layer (ICCAD12-like).
    pub fn duv_28nm() -> Self {
        LithoConfig {
            pitch: 10,
            sigma: 30.0,
            resist_threshold: 0.44,
            epe_tolerance_px: 2,
            min_defect_px: 3,
        }
    }

    /// Preset for a 7 nm-class EUV metal layer (ICCAD16-like).
    ///
    /// Geometry is specified in the same integer unit but with a finer pitch
    /// interpretation; the optical blur is proportionally tighter.
    pub fn euv_7nm() -> Self {
        LithoConfig {
            pitch: 4,
            sigma: 12.0,
            resist_threshold: 0.44,
            epe_tolerance_px: 2,
            min_defect_px: 3,
        }
    }
}

impl Default for LithoConfig {
    /// Same as [`LithoConfig::duv_28nm`].
    fn default() -> Self {
        LithoConfig::duv_28nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_duv() {
        assert_eq!(LithoConfig::default(), LithoConfig::duv_28nm());
    }

    #[test]
    fn sigma_px_scales_with_pitch() {
        let c = LithoConfig::duv_28nm();
        assert!((c.sigma_px() - 3.0).abs() < 1e-9);
        let e = LithoConfig::euv_7nm();
        assert!((e.sigma_px() - 3.0).abs() < 1e-9);
    }
}
