use crate::Coord;
use std::fmt;
use std::ops::{Add, Sub};

/// A point in integer nanometre coordinates.
///
/// ```
/// use hotspot_geom::Point;
/// let p = Point::new(10, 20) + Point::new(-3, 5);
/// assert_eq!(p, Point::new(7, 25));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Point {
    /// Horizontal coordinate in nanometres.
    pub x: Coord,
    /// Vertical coordinate in nanometres.
    pub y: Coord,
}

impl Point {
    /// Creates a point at `(x, y)`.
    pub const fn new(x: Coord, y: Coord) -> Self {
        Point { x, y }
    }

    /// Manhattan (L1) distance to `other`.
    ///
    /// ```
    /// use hotspot_geom::Point;
    /// assert_eq!(Point::new(0, 0).manhattan_distance(Point::new(3, -4)), 7);
    /// ```
    pub fn manhattan_distance(self, other: Point) -> Coord {
        (self.x - other.x).abs() + (self.y - other.y).abs()
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(Coord, Coord)> for Point {
    fn from((x, y): (Coord, Coord)) -> Self {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_roundtrip() {
        let a = Point::new(5, -7);
        let b = Point::new(-2, 11);
        assert_eq!(a + b - b, a);
    }

    #[test]
    fn manhattan_is_symmetric() {
        let a = Point::new(1, 2);
        let b = Point::new(-9, 40);
        assert_eq!(a.manhattan_distance(b), b.manhattan_distance(a));
    }

    #[test]
    fn display_formats_pair() {
        assert_eq!(Point::new(3, 4).to_string(), "(3, 4)");
    }

    #[test]
    fn from_tuple() {
        assert_eq!(Point::from((8, 9)), Point::new(8, 9));
    }
}
