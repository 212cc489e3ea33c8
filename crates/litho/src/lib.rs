//! Aerial-image lithography simulation and defect-labelling oracle.
//!
//! The DAC 2021 paper treats lithography simulation as an expensive black box
//! that assigns every queried clip a *hotspot* / *non-hotspot* label; the
//! number of invocations ("litho-clips", Definition 3) is the cost metric the
//! whole sampling framework minimises. This crate provides a deterministic,
//! physically-motivated stand-in:
//!
//! 1. **Aerial image** — the clip raster (mask transmission) is convolved
//!    with a separable Gaussian optical kernel ([`GaussianKernel`]),
//!    approximating the partially-coherent imaging point-spread function.
//! 2. **Resist model** — a constant-threshold resist ([`ResistModel`]) turns
//!    the aerial intensity into a printed binary contour ([`Bitmap`]).
//! 3. **Defect detection** — the printed contour is compared against the
//!    design intent with an edge-placement tolerance; clustered violations
//!    inside the clip *core* are reported as [`Defect`]s (bridges where
//!    resist prints between shapes, pinches where a shape fails to print).
//!
//! A clip is a **hotspot** when at least one defect lands in its core. The
//! [`CountingOracle`] wrapper meters every query so experiments can report
//! the paper's `Litho#` column faithfully.
//!
//! # Example
//!
//! ```
//! use hotspot_geom::{ClipWindow, Raster, Rect};
//! use hotspot_litho::{LithoConfig, LithoSimulator, Label};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = LithoConfig::default();
//! let sim = LithoSimulator::new(config.clone());
//! let clip = ClipWindow::new(Rect::new(0, 0, 1200, 1200)?, 600)?;
//!
//! // A comfortable, wide wire prints cleanly: non-hotspot.
//! let mut raster = Raster::zeros_for(&clip, config.pitch)?;
//! raster.fill_rect(&Rect::new(100, 540, 1100, 660)?, 1.0);
//! let report = sim.analyze(&raster, clip.core());
//! assert_eq!(report.label(), Label::NonHotspot);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod aerial;
mod bitmap;
mod config;
mod defect;
mod fault;
mod kernel;
mod oracle;
mod report;
mod resist;
mod retry;

pub use aerial::AerialImage;
pub use bitmap::Bitmap;
pub use config::LithoConfig;
pub use defect::{Defect, DefectKind};
pub use fault::{FaultInjectionStats, FaultRates, FaultyOracle};
pub use kernel::GaussianKernel;
pub use oracle::{
    CountingOracle, FaultMeterState, LithoOracle, OracleError, OracleStateSnapshot, OracleStats,
    RetryMeterState,
};
pub use report::{Label, LithoReport};
pub use resist::ResistModel;
pub use retry::{Clock, RetryOracle, RetryPolicy, SystemClock, VirtualClock};

use hotspot_geom::{Raster, Rect};

/// End-to-end lithography simulator: aerial image → resist → defect check.
///
/// See the [crate-level documentation](crate) for the model description and a
/// usage example.
#[derive(Debug, Clone)]
pub struct LithoSimulator {
    config: LithoConfig,
    kernel: GaussianKernel,
    resist: ResistModel,
}

impl LithoSimulator {
    /// Creates a simulator from a configuration.
    pub fn new(config: LithoConfig) -> Self {
        let kernel = GaussianKernel::new(config.sigma_px());
        let resist = ResistModel::new(config.resist_threshold);
        LithoSimulator {
            config,
            kernel,
            resist,
        }
    }

    /// The configuration this simulator was built with.
    pub fn config(&self) -> &LithoConfig {
        &self.config
    }

    /// Computes the aerial intensity image of a mask raster.
    pub fn aerial_image(&self, mask: &Raster) -> AerialImage {
        AerialImage::from_mask(mask, &self.kernel)
    }

    /// Full analysis of one clip: simulate, develop, and check the core.
    ///
    /// `core` is given in layout coordinates and is intersected with the
    /// raster region; defects outside it are ignored per Definition 1 of the
    /// paper.
    pub fn analyze(&self, mask: &Raster, core: Rect) -> LithoReport {
        let aerial = self.aerial_image(mask);
        let printed = self.resist.develop(&aerial);
        let target = Bitmap::from_raster(mask, 0.5);
        let defects = defect::find_defects(&target, &printed, mask, core, &self.config);
        LithoReport::new(defects)
    }

    /// Convenience wrapper returning only the hotspot label.
    pub fn label(&self, mask: &Raster, core: Rect) -> Label {
        self.analyze(mask, core).label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_geom::{ClipWindow, Raster, Rect};

    fn clip() -> ClipWindow {
        ClipWindow::new(Rect::new(0, 0, 1200, 1200).unwrap(), 600).unwrap()
    }

    fn sim() -> LithoSimulator {
        LithoSimulator::new(LithoConfig::default())
    }

    fn raster_for(clip: &ClipWindow) -> Raster {
        Raster::zeros_for(clip, LithoConfig::default().pitch).unwrap()
    }

    #[test]
    fn empty_clip_is_clean() {
        let c = clip();
        let r = raster_for(&c);
        assert_eq!(sim().label(&r, c.core()), Label::NonHotspot);
    }

    #[test]
    fn wide_wire_prints_cleanly() {
        let c = clip();
        let mut r = raster_for(&c);
        r.fill_rect(&Rect::new(100, 520, 1100, 680).unwrap(), 1.0);
        assert_eq!(sim().label(&r, c.core()), Label::NonHotspot);
    }

    #[test]
    fn narrow_wire_pinches() {
        let c = clip();
        let mut r = raster_for(&c);
        // Far below the printable linewidth: resist fails to hold the line.
        r.fill_rect(&Rect::new(100, 590, 1100, 620).unwrap(), 1.0);
        let report = sim().analyze(&r, c.core());
        assert_eq!(report.label(), Label::Hotspot);
        assert!(report.defects().iter().any(|d| d.kind == DefectKind::Pinch));
    }

    #[test]
    fn tight_pair_bridges() {
        let c = clip();
        let mut r = raster_for(&c);
        // Two wide wires separated by a sub-resolution slot.
        r.fill_rect(&Rect::new(100, 420, 1100, 580).unwrap(), 1.0);
        r.fill_rect(&Rect::new(100, 610, 1100, 770).unwrap(), 1.0);
        let report = sim().analyze(&r, c.core());
        assert_eq!(report.label(), Label::Hotspot);
        assert!(report
            .defects()
            .iter()
            .any(|d| d.kind == DefectKind::Bridge));
    }

    #[test]
    fn defect_outside_core_does_not_count() {
        let c = clip();
        let mut r = raster_for(&c);
        // Same pinching wire as above but near the clip edge, outside the core.
        r.fill_rect(&Rect::new(100, 40, 1100, 70).unwrap(), 1.0);
        assert_eq!(sim().label(&r, c.core()), Label::NonHotspot);
    }

    #[test]
    fn analysis_is_deterministic() {
        let c = clip();
        let mut r = raster_for(&c);
        r.fill_rect(&Rect::new(100, 590, 1100, 620).unwrap(), 1.0);
        let a = sim().analyze(&r, c.core());
        let b = sim().analyze(&r, c.core());
        assert_eq!(a.defects().len(), b.defects().len());
        assert_eq!(a.label(), b.label());
    }
}
