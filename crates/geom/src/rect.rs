use crate::{Coord, GeomError, Point};
use std::fmt;

/// An axis-aligned rectangle with integer nanometre coordinates.
///
/// The rectangle spans the half-open region `[x0, x1) × [y0, y1)`, which makes
/// abutting rectangles non-overlapping and keeps area arithmetic exact.
///
/// ```
/// use hotspot_geom::Rect;
/// # fn main() -> Result<(), hotspot_geom::GeomError> {
/// let r = Rect::new(0, 0, 100, 40)?;
/// assert_eq!(r.width(), 100);
/// assert_eq!(r.area(), 4000);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rect {
    x0: Coord,
    y0: Coord,
    x1: Coord,
    y1: Coord,
}

impl Rect {
    /// Creates a rectangle spanning `[x0, x1) × [y0, y1)`.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvertedRect`] if `x1 < x0` or `y1 < y0`.
    /// Degenerate (zero-width or zero-height) rectangles are allowed; they
    /// have zero area and intersect nothing.
    pub fn new(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Result<Self, GeomError> {
        if x1 < x0 || y1 < y0 {
            return Err(GeomError::InvertedRect {
                coords: (x0, y0, x1, y1),
            });
        }
        Ok(Rect { x0, y0, x1, y1 })
    }

    /// Creates a rectangle from its lower-left corner and a size.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvertedRect`] if `width` or `height` is negative.
    pub fn from_origin_size(origin: Point, width: Coord, height: Coord) -> Result<Self, GeomError> {
        Rect::new(origin.x, origin.y, origin.x + width, origin.y + height)
    }

    /// The rectangle spanning two corner points in any order. Infallible:
    /// the extent is normalised, so `spanning(a, b) == spanning(b, a)`.
    pub fn spanning(a: Point, b: Point) -> Self {
        Rect {
            x0: a.x.min(b.x),
            y0: a.y.min(b.y),
            x1: a.x.max(b.x),
            y1: a.y.max(b.y),
        }
    }

    /// Left edge.
    pub fn x0(&self) -> Coord {
        self.x0
    }

    /// Bottom edge.
    pub fn y0(&self) -> Coord {
        self.y0
    }

    /// Right edge (exclusive).
    pub fn x1(&self) -> Coord {
        self.x1
    }

    /// Top edge (exclusive).
    pub fn y1(&self) -> Coord {
        self.y1
    }

    /// Width in nanometres.
    pub fn width(&self) -> Coord {
        self.x1 - self.x0
    }

    /// Height in nanometres.
    pub fn height(&self) -> Coord {
        self.y1 - self.y0
    }

    /// Area in square nanometres.
    pub fn area(&self) -> i128 {
        self.width() as i128 * self.height() as i128
    }

    /// Whether the rectangle encloses zero area.
    pub fn is_empty(&self) -> bool {
        self.width() == 0 || self.height() == 0
    }

    /// Centre point, rounded towards negative infinity.
    pub fn center(&self) -> Point {
        Point::new(self.x0 + self.width() / 2, self.y0 + self.height() / 2)
    }

    /// Whether `p` lies inside the half-open extent.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.x0 && p.x < self.x1 && p.y >= self.y0 && p.y < self.y1
    }

    /// Whether `other` lies entirely inside `self`.
    pub fn contains_rect(&self, other: &Rect) -> bool {
        other.x0 >= self.x0 && other.x1 <= self.x1 && other.y0 >= self.y0 && other.y1 <= self.y1
    }

    /// Whether the two rectangles share interior area.
    pub fn intersects(&self, other: &Rect) -> bool {
        self.x0.max(other.x0) < self.x1.min(other.x1)
            && self.y0.max(other.y0) < self.y1.min(other.y1)
    }

    /// Intersection of two rectangles, or `None` when they share no area.
    ///
    /// ```
    /// use hotspot_geom::Rect;
    /// # fn main() -> Result<(), hotspot_geom::GeomError> {
    /// let a = Rect::new(0, 0, 10, 10)?;
    /// let b = Rect::new(5, 5, 20, 20)?;
    /// assert_eq!(a.intersection(&b), Some(Rect::new(5, 5, 10, 10)?));
    /// # Ok(())
    /// # }
    /// ```
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Some(Rect {
            x0: self.x0.max(other.x0),
            y0: self.y0.max(other.y0),
            x1: self.x1.min(other.x1),
            y1: self.y1.min(other.y1),
        })
    }

    /// The smallest rectangle containing both operands.
    pub fn union_bbox(&self, other: &Rect) -> Rect {
        Rect {
            x0: self.x0.min(other.x0),
            y0: self.y0.min(other.y0),
            x1: self.x1.max(other.x1),
            y1: self.y1.max(other.y1),
        }
    }

    /// Rectangle translated by `delta`.
    pub fn translated(&self, delta: Point) -> Rect {
        Rect {
            x0: self.x0 + delta.x,
            y0: self.y0 + delta.y,
            x1: self.x1 + delta.x,
            y1: self.y1 + delta.y,
        }
    }

    /// Rectangle grown by `margin` on every side (shrunk when negative).
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvertedRect`] if a negative margin inverts the
    /// extent.
    pub fn inflated(&self, margin: Coord) -> Result<Rect, GeomError> {
        Rect::new(
            self.x0 - margin,
            self.y0 - margin,
            self.x1 + margin,
            self.y1 + margin,
        )
    }

    /// Minimum edge-to-edge spacing to `other` along the axes, or zero when
    /// the rectangles overlap or abut.
    ///
    /// This is the Manhattan gap used by design-rule-style spacing checks: the
    /// larger of the x-gap and y-gap is irrelevant, the spacing is the L2-free
    /// max of per-axis gaps combined as `max(gap_x, gap_y)` when separated on
    /// one axis only, and the Chebyshev-style corner distance otherwise.
    pub fn spacing(&self, other: &Rect) -> Coord {
        let gap_x = (other.x0 - self.x1).max(self.x0 - other.x1).max(0);
        let gap_y = (other.y0 - self.y1).max(self.y0 - other.y1).max(0);
        gap_x.max(gap_y)
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}) x [{}, {})", self.x0, self.x1, self.y0, self.y1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rect(x0: Coord, y0: Coord, x1: Coord, y1: Coord) -> Rect {
        Rect::new(x0, y0, x1, y1).expect("valid rect")
    }

    #[test]
    fn spanning_normalises_corner_order() {
        let a = Point::new(10, -5);
        let b = Point::new(-3, 20);
        let r = Rect::spanning(a, b);
        assert_eq!(r, rect(-3, -5, 10, 20));
        assert_eq!(Rect::spanning(b, a), r);
        assert!(Rect::spanning(a, a).is_empty());
    }

    #[test]
    fn rejects_inverted() {
        assert!(Rect::new(10, 0, 0, 10).is_err());
        assert!(Rect::new(0, 10, 10, 0).is_err());
    }

    #[test]
    fn degenerate_rect_is_empty_and_disjoint() {
        let line = rect(0, 0, 0, 100);
        assert!(line.is_empty());
        assert!(!line.intersects(&rect(-5, -5, 5, 5)));
        assert_eq!(line.area(), 0);
    }

    #[test]
    fn abutting_rects_do_not_intersect() {
        let a = rect(0, 0, 10, 10);
        let b = rect(10, 0, 20, 10);
        assert!(!a.intersects(&b));
        assert_eq!(a.spacing(&b), 0);
    }

    #[test]
    fn intersection_matches_manual() {
        let a = rect(0, 0, 10, 10);
        let b = rect(5, -5, 20, 5);
        assert_eq!(a.intersection(&b), Some(rect(5, 0, 10, 5)));
        assert_eq!(b.intersection(&a), Some(rect(5, 0, 10, 5)));
    }

    #[test]
    fn spacing_on_x_axis() {
        let a = rect(0, 0, 10, 10);
        let b = rect(25, 0, 30, 10);
        assert_eq!(a.spacing(&b), 15);
        assert_eq!(b.spacing(&a), 15);
    }

    #[test]
    fn spacing_diagonal_is_chebyshev() {
        let a = rect(0, 0, 10, 10);
        let b = rect(14, 22, 20, 30);
        assert_eq!(a.spacing(&b), 12);
    }

    #[test]
    fn contains_rect_is_reflexive() {
        let a = rect(3, 4, 90, 80);
        assert!(a.contains_rect(&a));
    }

    #[test]
    fn inflate_then_deflate_roundtrips() {
        let a = rect(0, 0, 10, 10);
        let grown = a.inflated(5).unwrap();
        assert_eq!(grown.inflated(-5).unwrap(), a);
        assert!(a.inflated(-6).is_err());
    }

    proptest! {
        #[test]
        fn prop_intersection_within_both(
            ax0 in -500i64..500, ay0 in -500i64..500, aw in 0i64..300, ah in 0i64..300,
            bx0 in -500i64..500, by0 in -500i64..500, bw in 0i64..300, bh in 0i64..300,
        ) {
            let a = rect(ax0, ay0, ax0 + aw, ay0 + ah);
            let b = rect(bx0, by0, bx0 + bw, by0 + bh);
            if let Some(i) = a.intersection(&b) {
                prop_assert!(a.contains_rect(&i));
                prop_assert!(b.contains_rect(&i));
                prop_assert!(i.area() <= a.area());
                prop_assert!(i.area() <= b.area());
            } else {
                prop_assert!(!a.intersects(&b));
            }
        }

        #[test]
        fn prop_union_bbox_contains_both(
            ax0 in -500i64..500, ay0 in -500i64..500, aw in 0i64..300, ah in 0i64..300,
            bx0 in -500i64..500, by0 in -500i64..500, bw in 0i64..300, bh in 0i64..300,
        ) {
            let a = rect(ax0, ay0, ax0 + aw, ay0 + ah);
            let b = rect(bx0, by0, bx0 + bw, by0 + bh);
            let u = a.union_bbox(&b);
            prop_assert!(u.contains_rect(&a));
            prop_assert!(u.contains_rect(&b));
        }

        #[test]
        fn prop_spacing_zero_iff_touch_or_overlap(
            ax0 in -200i64..200, ay0 in -200i64..200, aw in 1i64..100, ah in 1i64..100,
            bx0 in -200i64..200, by0 in -200i64..200, bw in 1i64..100, bh in 1i64..100,
        ) {
            let a = rect(ax0, ay0, ax0 + aw, ay0 + ah);
            let b = rect(bx0, by0, bx0 + bw, by0 + bh);
            let touching = a.inflated(1).unwrap().intersects(&b);
            prop_assert_eq!(a.spacing(&b) == 0, touching);
        }

        #[test]
        fn prop_translate_preserves_size(
            x0 in -500i64..500, y0 in -500i64..500, w in 0i64..300, h in 0i64..300,
            dx in -1000i64..1000, dy in -1000i64..1000,
        ) {
            let a = rect(x0, y0, x0 + w, y0 + h);
            let t = a.translated(crate::Point::new(dx, dy));
            prop_assert_eq!(t.width(), a.width());
            prop_assert_eq!(t.height(), a.height());
            prop_assert_eq!(t.area(), a.area());
        }
    }
}
