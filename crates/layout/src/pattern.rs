use crate::spec::{GeometryParams, Tech};
use hotspot_geom::{Coord, Point, Raster, Rect};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The pattern family a clip was synthesised from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClipFamily {
    /// Comfortable routing tracks; prints cleanly.
    Safe,
    /// Marginal-but-printable tracks; the hard non-hotspots.
    NearMiss,
    /// A sub-printable wire through the core (pinch hotspot).
    Pinch,
    /// A sub-resolution gap through the core (bridge hotspot).
    Bridge,
}

impl ClipFamily {
    /// Whether the family is *intended* to produce a hotspot (ground truth
    /// still comes from lithography simulation).
    pub fn is_hotspot_family(self) -> bool {
        matches!(self, ClipFamily::Pinch | ClipFamily::Bridge)
    }
}

/// The deterministic recipe that regenerates one clip's geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClipRecipe {
    /// A freshly drawn pattern.
    Fresh {
        /// Pattern family.
        family: ClipFamily,
        /// Per-clip RNG seed.
        seed: u64,
    },
    /// An exact duplicate of an earlier clip (by benchmark index). Duplicate
    /// sources always refer to `Fresh` clips.
    Duplicate {
        /// Index of the duplicated clip.
        source: usize,
    },
}

/// Synthesises the mask raster of a fresh clip.
///
/// The pattern is a stack of full-span routing tracks. Hotspot families
/// first place their defect structure centred on the clip core, then fill
/// the rest of the clip with safe tracks; `Safe`/`NearMiss` fill the whole
/// clip from their respective width/gap windows and may add perpendicular
/// tracks for variety.
pub(crate) fn synthesize(tech: Tech, family: ClipFamily, seed: u64) -> Raster {
    let g = tech.geometry();
    let edge = tech.clip_edge();
    let core_lo = (edge - tech.core_edge()) / 2;
    let core_hi = core_lo + tech.core_edge();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let transpose = rng.gen_bool(0.5);

    let mut rects: Vec<Rect> = Vec::new();
    let fill_up =
        |rects: &mut Vec<Rect>, rng: &mut ChaCha8Rng, mut y: Coord, limit: Coord, wide: bool| {
            while y < limit {
                let w = if wide {
                    snap(rng.gen_range(g.safe_width.0..=g.safe_width.1), g.snap)
                } else {
                    snap(rng.gen_range(g.near_width.0..=g.near_width.1), g.snap)
                };
                if y + w > limit {
                    break;
                }
                rects.push(rect_track(edge, y, w));
                let gap = if wide {
                    snap(
                        rng.gen_range(g.safe_gap_min..=g.safe_gap_min + g.safe_width.1),
                        g.snap,
                    )
                } else {
                    snap(rng.gen_range(g.near_gap.0..=g.near_gap.1), g.snap)
                };
                y += w + gap;
            }
        };

    match family {
        ClipFamily::Safe | ClipFamily::NearMiss => {
            let wide = family == ClipFamily::Safe;
            let start = snap(rng.gen_range(0..g.safe_width.1), g.snap);
            fill_up(&mut rects, &mut rng, start, edge, wide);
            // Perpendicular tracks for variety (only in defect-free clips —
            // a crossing wire would locally repair an injected defect).
            if rng.gen_bool(0.35) {
                let count = rng.gen_range(1..=2);
                let mut x = snap(rng.gen_range(0..edge / 2), g.snap);
                for _ in 0..count {
                    let w = snap(rng.gen_range(g.safe_width.0..=g.safe_width.1), g.snap);
                    if x + w >= edge {
                        break;
                    }
                    rects.push(rect_cross(edge, x, w));
                    x += w + snap(rng.gen_range(g.safe_gap_min * 2..edge / 2 + 1), g.snap);
                }
            }
        }
        ClipFamily::Pinch => {
            // Sub-printable wire with its axis inside the core band.
            let w = snap(rng.gen_range(g.hot_width.0..=g.hot_width.1), g.snap);
            let margin = tech.core_edge() / 4;
            let y = snap(
                rng.gen_range(core_lo + margin..core_hi - margin - w),
                g.snap,
            );
            rects.push(rect_track(edge, y, w));
            let buffer = snap(g.safe_gap_min + g.safe_width.1 / 2, g.snap);
            fill_up(&mut rects, &mut rng, y + w + buffer, edge, true);
            fill_down(&mut rects, &mut rng, y - buffer, &g, edge);
        }
        ClipFamily::Bridge => {
            // Two safe wires with a sub-resolution slot centred in the core.
            let gap = snap(rng.gen_range(g.hot_gap.0..=g.hot_gap.1), g.snap);
            let w_low = snap(rng.gen_range(g.safe_width.0..=g.safe_width.1), g.snap);
            let w_high = snap(rng.gen_range(g.safe_width.0..=g.safe_width.1), g.snap);
            let margin = tech.core_edge() / 4;
            let gap_center = snap(rng.gen_range(core_lo + margin..core_hi - margin), g.snap);
            let y_low = gap_center - gap / 2 - w_low;
            rects.push(rect_track(edge, y_low, w_low));
            rects.push(rect_track(edge, gap_center + gap - gap / 2, w_high));
            let buffer = snap(g.safe_gap_min + g.safe_width.1 / 2, g.snap);
            fill_up(
                &mut rects,
                &mut rng,
                gap_center + gap - gap / 2 + w_high + buffer,
                edge,
                true,
            );
            fill_down(&mut rects, &mut rng, y_low - buffer, &g, edge);
        }
    }

    let config = tech.litho_config();
    let window = Rect::spanning(Point::new(0, 0), Point::new(edge, edge));
    // Every `Tech` has a positive pitch and a clip that fits the raster size
    // bound; coarsening the pitch (quartering the grid each time) keeps this
    // total rather than trusting that invariant.
    let mut pitch = config.pitch.max(1);
    let mut raster = loop {
        match Raster::zeros(window, pitch) {
            Ok(raster) => break raster,
            Err(_) => pitch *= 2,
        }
    };
    for r in rects {
        let r = if transpose {
            transpose_rect(&r, edge)
        } else {
            r
        };
        if let Some(clipped) = r.intersection(&window) {
            raster.fill_rect(&clipped, 1.0);
        }
    }
    raster
}

/// Fills safe tracks downward from `top` towards the clip bottom.
fn fill_down(
    rects: &mut Vec<Rect>,
    rng: &mut ChaCha8Rng,
    top: Coord,
    g: &GeometryParams,
    edge: Coord,
) {
    let mut y_top = top;
    while y_top > 0 {
        let w = snap(rng.gen_range(g.safe_width.0..=g.safe_width.1), g.snap);
        let y = y_top - w;
        if y < 0 {
            break;
        }
        rects.push(rect_track(edge, y, w));
        let gap = snap(
            rng.gen_range(g.safe_gap_min..=g.safe_gap_min + g.safe_width.1),
            g.snap,
        );
        y_top = y - gap;
    }
}

fn rect_track(edge: Coord, y: Coord, width: Coord) -> Rect {
    Rect::spanning(Point::new(0, y), Point::new(edge, y + width))
}

fn rect_cross(edge: Coord, x: Coord, width: Coord) -> Rect {
    Rect::spanning(Point::new(x, 0), Point::new(x + width, edge))
}

fn transpose_rect(r: &Rect, _edge: Coord) -> Rect {
    Rect::spanning(Point::new(r.y0(), r.x0()), Point::new(r.y1(), r.x1()))
}

fn snap(v: Coord, grid: Coord) -> Coord {
    (v / grid) * grid
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_litho::{Label, LithoSimulator};

    fn label_of(tech: Tech, family: ClipFamily, seed: u64) -> Label {
        let raster = synthesize(tech, family, seed);
        let sim = LithoSimulator::new(tech.litho_config());
        let core_lo = (tech.clip_edge() - tech.core_edge()) / 2;
        let core = Rect::new(
            core_lo,
            core_lo,
            core_lo + tech.core_edge(),
            core_lo + tech.core_edge(),
        )
        .unwrap();
        sim.label(&raster, core)
    }

    #[test]
    fn synthesis_is_deterministic() {
        for family in [ClipFamily::Safe, ClipFamily::Pinch, ClipFamily::Bridge] {
            let a = synthesize(Tech::Duv28, family, 77);
            let b = synthesize(Tech::Duv28, family, 77);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthesize(Tech::Duv28, ClipFamily::Safe, 1);
        let b = synthesize(Tech::Duv28, ClipFamily::Safe, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn clips_are_nonempty() {
        for tech in [Tech::Duv28, Tech::Euv7] {
            for family in [
                ClipFamily::Safe,
                ClipFamily::NearMiss,
                ClipFamily::Pinch,
                ClipFamily::Bridge,
            ] {
                for seed in 0..5 {
                    let raster = synthesize(tech, family, seed);
                    assert!(
                        raster.density() > 0.02,
                        "{tech:?}/{family:?}/{seed} density {}",
                        raster.density()
                    );
                }
            }
        }
    }

    #[test]
    fn safe_family_rarely_hotspots() {
        for tech in [Tech::Duv28, Tech::Euv7] {
            let hot = (0..40)
                .filter(|&s| label_of(tech, ClipFamily::Safe, s) == Label::Hotspot)
                .count();
            assert!(hot <= 2, "{tech:?}: {hot}/40 safe clips were hotspots");
        }
    }

    #[test]
    fn near_miss_family_rarely_hotspots() {
        for tech in [Tech::Duv28, Tech::Euv7] {
            let hot = (100..140)
                .filter(|&s| label_of(tech, ClipFamily::NearMiss, s) == Label::Hotspot)
                .count();
            assert!(hot <= 4, "{tech:?}: {hot}/40 near-miss clips were hotspots");
        }
    }

    #[test]
    fn pinch_family_mostly_hotspots() {
        for tech in [Tech::Duv28, Tech::Euv7] {
            let hot = (0..40)
                .filter(|&s| label_of(tech, ClipFamily::Pinch, s) == Label::Hotspot)
                .count();
            assert!(
                hot >= 36,
                "{tech:?}: only {hot}/40 pinch clips were hotspots"
            );
        }
    }

    #[test]
    fn bridge_family_mostly_hotspots() {
        for tech in [Tech::Duv28, Tech::Euv7] {
            let hot = (0..40)
                .filter(|&s| label_of(tech, ClipFamily::Bridge, s) == Label::Hotspot)
                .count();
            assert!(
                hot >= 36,
                "{tech:?}: only {hot}/40 bridge clips were hotspots"
            );
        }
    }

    #[test]
    fn family_hotspot_flag() {
        assert!(ClipFamily::Pinch.is_hotspot_family());
        assert!(ClipFamily::Bridge.is_hotspot_family());
        assert!(!ClipFamily::Safe.is_hotspot_family());
        assert!(!ClipFamily::NearMiss.is_hotspot_family());
    }
}
