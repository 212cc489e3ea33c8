use crate::{Bitmap, LithoConfig};
use hotspot_geom::{Point, Raster, Rect};
use std::fmt;

/// The failure mode of a printed-contour defect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefectKind {
    /// A single printed component spans two or more distinct design shapes —
    /// neighbouring shapes merged.
    Bridge,
    /// Design pixels farther than the EPE tolerance from any printed resist —
    /// a line necked, broke, or failed to print.
    Pinch,
}

impl fmt::Display for DefectKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefectKind::Bridge => write!(f, "bridge"),
            DefectKind::Pinch => write!(f, "pinch"),
        }
    }
}

/// A single lithography defect found inside a clip core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Defect {
    /// Failure mode.
    pub kind: DefectKind,
    /// Defect centroid in layout coordinates (nanometres).
    pub location: Point,
    /// Cluster size in pixels — a crude severity measure.
    pub size_px: usize,
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {} ({} px)",
            self.kind, self.location, self.size_px
        )
    }
}

/// Compares the printed contour against the design intent and returns the
/// defects whose centroid falls inside `core`.
///
/// Two checks run:
/// * **pinch** — design pixels beyond the EPE tolerance from any printed
///   resist (`target ∧ ¬dilate(printed, tol)`), clustered with
///   4-connectivity; clusters of at least `config.min_defect_px` pixels are
///   defects.
/// * **bridge** — each printed connected component is tested for overlap
///   with the design's connected components; touching two or more distinct
///   design shapes means the resist merged them. The defect is located at
///   the centroid of the bridging metal (printed pixels outside the design).
pub(crate) fn find_defects(
    target: &Bitmap,
    printed: &Bitmap,
    mask: &Raster,
    core: Rect,
    config: &LithoConfig,
) -> Vec<Defect> {
    let mut defects = Vec::new();
    find_pinches(target, printed, mask, core, config, &mut defects);
    find_bridges(target, printed, mask, core, config, &mut defects);
    defects
}

fn find_pinches(
    target: &Bitmap,
    printed: &Bitmap,
    mask: &Raster,
    core: Rect,
    config: &LithoConfig,
    out: &mut Vec<Defect>,
) {
    let unprinted = target.and_not(&printed.dilated(config.epe_tolerance_px));
    let (labels, count) = unprinted.label_map();
    let mut clusters = vec![Cluster::default(); count];
    for_each_labelled(&labels, unprinted.width(), |label, row, col| {
        clusters[label].add(row, col);
    });
    for cluster in &clusters {
        if cluster.n < config.min_defect_px {
            continue;
        }
        let location = cluster.centroid(mask);
        if core.contains(location) {
            out.push(Defect {
                kind: DefectKind::Pinch,
                location,
                size_px: cluster.n,
            });
        }
    }
}

fn find_bridges(
    target: &Bitmap,
    printed: &Bitmap,
    mask: &Raster,
    core: Rect,
    config: &LithoConfig,
    out: &mut Vec<Defect>,
) {
    let (design, _) = target.label_map();
    let (labels, count) = printed.label_map();
    // Per printed component: the bridging metal (printed pixels outside the
    // design), the first design shape it touches, and whether it touches a
    // second, different one.
    let mut bridging = vec![Cluster::default(); count];
    let mut first_touched = vec![Bitmap::BACKGROUND; count];
    let mut merges = vec![false; count];
    for_each_labelled(&labels, printed.width(), |label, row, col| {
        let shape = design[row * printed.width() + col];
        if shape == Bitmap::BACKGROUND {
            bridging[label].add(row, col);
        } else if first_touched[label] == Bitmap::BACKGROUND {
            first_touched[label] = shape;
        } else if first_touched[label] != shape {
            merges[label] = true;
        }
    });
    for (cluster, &merged) in bridging.iter().zip(&merges) {
        if merged && cluster.n >= config.min_defect_px {
            let location = cluster.centroid(mask);
            if core.contains(location) {
                out.push(Defect {
                    kind: DefectKind::Bridge,
                    location,
                    size_px: cluster.n,
                });
            }
        }
    }
}

/// Calls `f(label, row, col)` for every labelled pixel of a row-major
/// [`Bitmap::label_map`], in row-major order.
fn for_each_labelled(labels: &[u32], width: usize, mut f: impl FnMut(usize, usize, usize)) {
    for (row, line) in labels.chunks_exact(width.max(1)).enumerate() {
        for (col, &label) in line.iter().enumerate() {
            if label != Bitmap::BACKGROUND {
                f(label as usize, row, col);
            }
        }
    }
}

/// Pixel count and integer coordinate sums of one pixel cluster — all its
/// centroid needs.
#[derive(Debug, Clone, Copy, Default)]
struct Cluster {
    n: usize,
    sum_row: usize,
    sum_col: usize,
}

impl Cluster {
    fn add(&mut self, row: usize, col: usize) {
        self.n += 1;
        self.sum_row += row;
        self.sum_col += col;
    }

    /// Centre of the pixel holding the (truncated) mean row and column, in
    /// layout coordinates.
    fn centroid(&self, mask: &Raster) -> Point {
        let pitch = mask.pitch();
        let mean_row = (self.sum_row / self.n) as i64;
        let mean_col = (self.sum_col / self.n) as i64;
        Point::new(
            mask.region().x0() + mean_col * pitch + pitch / 2,
            mask.region().y0() + mean_row * pitch + pitch / 2,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aerial::AerialImage;
    use crate::{GaussianKernel, ResistModel};

    fn run(mask: &Raster, core: Rect, config: &LithoConfig) -> Vec<Defect> {
        let kernel = GaussianKernel::new(config.sigma_px());
        let aerial = AerialImage::from_mask(mask, &kernel);
        let printed = ResistModel::new(config.resist_threshold).develop(&aerial);
        let target = Bitmap::from_raster(mask, 0.5);
        find_defects(&target, &printed, mask, core, config)
    }

    fn core() -> Rect {
        Rect::new(300, 300, 900, 900).unwrap()
    }

    fn empty_mask(config: &LithoConfig) -> Raster {
        Raster::zeros(Rect::new(0, 0, 1200, 1200).unwrap(), config.pitch).unwrap()
    }

    #[test]
    fn clean_pattern_has_no_defects() {
        let config = LithoConfig::duv_28nm();
        let mut mask = empty_mask(&config);
        mask.fill_rect(&Rect::new(100, 500, 1100, 700).unwrap(), 1.0);
        let defects = run(&mask, core(), &config);
        assert!(defects.is_empty(), "unexpected defects: {defects:?}");
    }

    #[test]
    fn well_spaced_wires_are_clean() {
        let config = LithoConfig::duv_28nm();
        let mut mask = empty_mask(&config);
        for i in 0..5 {
            let y0 = 300 + i * 160; // 80 nm wires at 80 nm spacing
            mask.fill_rect(&Rect::new(100, y0, 1100, y0 + 80).unwrap(), 1.0);
        }
        let defects = run(&mask, core(), &config);
        assert!(defects.is_empty(), "unexpected defects: {defects:?}");
    }

    #[test]
    fn unprintable_wire_pinches_in_core() {
        let config = LithoConfig::duv_28nm();
        let mut mask = empty_mask(&config);
        mask.fill_rect(&Rect::new(100, 590, 1100, 620).unwrap(), 1.0);
        let defects = run(&mask, core(), &config);
        assert!(!defects.is_empty());
        for d in &defects {
            assert_eq!(d.kind, DefectKind::Pinch);
            assert!(
                core().contains(d.location),
                "defect at {} outside core",
                d.location
            );
            assert!(d.size_px >= config.min_defect_px);
        }
    }

    #[test]
    fn tight_gap_bridges_in_core() {
        let config = LithoConfig::duv_28nm();
        let mut mask = empty_mask(&config);
        mask.fill_rect(&Rect::new(100, 420, 1100, 580).unwrap(), 1.0);
        mask.fill_rect(&Rect::new(100, 610, 1100, 770).unwrap(), 1.0);
        let defects = run(&mask, core(), &config);
        assert!(
            defects.iter().any(|d| d.kind == DefectKind::Bridge),
            "expected a bridge, got {defects:?}"
        );
    }

    #[test]
    fn defects_outside_core_are_ignored() {
        let config = LithoConfig::duv_28nm();
        let mut mask = empty_mask(&config);
        // Unprintable wire in the top margin, far from the core.
        mask.fill_rect(&Rect::new(100, 1100, 1100, 1130).unwrap(), 1.0);
        let defects = run(&mask, core(), &config);
        assert!(defects.is_empty(), "unexpected defects: {defects:?}");
    }

    #[test]
    fn bridge_reports_gap_metal_size() {
        let config = LithoConfig::duv_28nm();
        let mut mask = empty_mask(&config);
        mask.fill_rect(&Rect::new(100, 420, 1100, 580).unwrap(), 1.0);
        mask.fill_rect(&Rect::new(100, 610, 1100, 770).unwrap(), 1.0);
        let defects = run(&mask, core(), &config);
        let bridge = defects
            .iter()
            .find(|d| d.kind == DefectKind::Bridge)
            .unwrap();
        assert!(bridge.size_px >= config.min_defect_px);
    }

    #[test]
    fn display_is_informative() {
        let d = Defect {
            kind: DefectKind::Bridge,
            location: Point::new(10, 20),
            size_px: 7,
        };
        let s = d.to_string();
        assert!(s.contains("bridge") && s.contains("(10, 20)") && s.contains("7 px"));
    }
}
