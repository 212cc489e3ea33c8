use crate::{Coord, GeomError, Rect};
use std::fmt;

/// A layout clip window with a centred core region.
///
/// Hotspot benchmarks cut a full-chip layout into fixed-size *clips*. A defect
/// only counts as a hotspot for a clip when it falls inside the clip's *core*
/// (Definition 1 of the paper); the surroundings provide optical context.
///
/// ```
/// use hotspot_geom::{ClipWindow, Rect};
/// # fn main() -> Result<(), hotspot_geom::GeomError> {
/// let clip = ClipWindow::new(Rect::new(0, 0, 1200, 1200)?, 600)?;
/// assert_eq!(clip.core(), Rect::new(300, 300, 900, 900)?);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClipWindow {
    window: Rect,
    core: Rect,
}

impl ClipWindow {
    /// Creates a clip with a centred square core of edge length `core_edge`.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::CoreTooLarge`] when the core does not fit inside
    /// the window, and [`GeomError::InvertedRect`] when `core_edge` is
    /// negative.
    pub fn new(window: Rect, core_edge: Coord) -> Result<Self, GeomError> {
        if core_edge < 0 {
            return Err(GeomError::InvertedRect {
                coords: (0, 0, core_edge, core_edge),
            });
        }
        if core_edge > window.width() || core_edge > window.height() {
            return Err(GeomError::CoreTooLarge {
                core: core_edge,
                window: (window.width(), window.height()),
            });
        }
        let cx0 = window.x0() + (window.width() - core_edge) / 2;
        let cy0 = window.y0() + (window.height() - core_edge) / 2;
        let core = Rect::new(cx0, cy0, cx0 + core_edge, cy0 + core_edge)?;
        Ok(ClipWindow { window, core })
    }

    /// The full clip extent.
    pub fn window(&self) -> Rect {
        self.window
    }

    /// The centred core region in which defects count.
    pub fn core(&self) -> Rect {
        self.core
    }

    /// Clip translated so its lower-left corner sits at the origin.
    pub fn normalized(&self) -> ClipWindow {
        let delta = crate::Point::new(-self.window.x0(), -self.window.y0());
        ClipWindow {
            window: self.window.translated(delta),
            core: self.core.translated(delta),
        }
    }
}

impl fmt::Display for ClipWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "clip {} core {}", self.window, self.core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn core_is_centered() {
        let clip = ClipWindow::new(Rect::new(0, 0, 1000, 1000).unwrap(), 400).unwrap();
        assert_eq!(clip.core(), Rect::new(300, 300, 700, 700).unwrap());
    }

    #[test]
    fn rejects_oversized_core() {
        let w = Rect::new(0, 0, 100, 100).unwrap();
        assert!(matches!(
            ClipWindow::new(w, 200),
            Err(GeomError::CoreTooLarge { .. })
        ));
    }

    #[test]
    fn rejects_negative_core() {
        let w = Rect::new(0, 0, 100, 100).unwrap();
        assert!(ClipWindow::new(w, -1).is_err());
    }

    #[test]
    fn zero_core_is_allowed() {
        let w = Rect::new(0, 0, 100, 100).unwrap();
        let clip = ClipWindow::new(w, 0).unwrap();
        assert!(clip.core().is_empty());
    }

    #[test]
    fn normalized_moves_to_origin() {
        let clip = ClipWindow::new(Rect::new(500, 700, 1700, 1900).unwrap(), 600).unwrap();
        let n = clip.normalized();
        assert_eq!(n.window().x0(), 0);
        assert_eq!(n.window().y0(), 0);
        assert_eq!(n.core().width(), clip.core().width());
    }

    proptest! {
        #[test]
        fn prop_core_always_inside_window(
            x0 in -1000i64..1000, y0 in -1000i64..1000,
            w in 1i64..2000, core in 0i64..2000,
        ) {
            let window = Rect::new(x0, y0, x0 + w, y0 + w).unwrap();
            match ClipWindow::new(window, core) {
                Ok(clip) => {
                    prop_assert!(window.contains_rect(&clip.core()));
                    prop_assert_eq!(clip.core().width(), core);
                }
                Err(_) => prop_assert!(core > w),
            }
        }
    }
}
