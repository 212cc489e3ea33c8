use crate::{Coord, GeomError, Point, Rect};
use std::fmt;

/// A rectilinear (Manhattan) polygon, stored as its vertex loop.
///
/// Layout shapes beyond plain rectangles — L-shapes, U-shapes, comb
/// structures — are rectilinear polygons. This type validates the loop
/// (alternating horizontal/vertical edges, closed, non-degenerate) and
/// decomposes it into disjoint rectangles for rasterisation via
/// [`Polygon::to_rects`].
///
/// ```
/// use hotspot_geom::{Point, Polygon};
/// # fn main() -> Result<(), hotspot_geom::GeomError> {
/// // An L-shape.
/// let poly = Polygon::new(vec![
///     Point::new(0, 0),
///     Point::new(40, 0),
///     Point::new(40, 10),
///     Point::new(10, 10),
///     Point::new(10, 30),
///     Point::new(0, 30),
/// ])?;
/// assert_eq!(poly.area(), 40 * 10 + 10 * 20);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Builds a polygon from a counter-clockwise or clockwise vertex loop
    /// (the closing edge back to the first vertex is implicit).
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidPolygon`] when the loop has fewer than 4
    /// vertices, repeats a vertex consecutively, or has an edge that is
    /// neither horizontal nor vertical, or two consecutive edges along the
    /// same axis.
    pub fn new(vertices: Vec<Point>) -> Result<Self, GeomError> {
        if vertices.len() < 4 || !vertices.len().is_multiple_of(2) {
            return Err(GeomError::InvalidPolygon {
                detail: format!(
                    "rectilinear polygon needs an even vertex count of at least 4, got {}",
                    vertices.len()
                ),
            });
        }
        let n = vertices.len();
        for i in 0..n {
            let a = vertices[i];
            let b = vertices[(i + 1) % n];
            if a == b {
                return Err(GeomError::InvalidPolygon {
                    detail: format!("repeated vertex {a} at position {i}"),
                });
            }
            let horizontal = a.y == b.y;
            let vertical = a.x == b.x;
            if !horizontal && !vertical {
                return Err(GeomError::InvalidPolygon {
                    detail: format!("edge {a} -> {b} is not axis-aligned"),
                });
            }
            let c = vertices[(i + 2) % n];
            let next_horizontal = b.y == c.y;
            if horizontal == next_horizontal {
                return Err(GeomError::InvalidPolygon {
                    detail: format!("consecutive collinear edges at vertex {b}"),
                });
            }
        }
        Ok(Polygon { vertices })
    }

    /// A rectangle as a polygon.
    pub fn from_rect(rect: &Rect) -> Self {
        Polygon {
            vertices: vec![
                Point::new(rect.x0(), rect.y0()),
                Point::new(rect.x1(), rect.y0()),
                Point::new(rect.x1(), rect.y1()),
                Point::new(rect.x0(), rect.y1()),
            ],
        }
    }

    /// The vertex loop.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        // The constructor guarantees at least 4 vertices, so folding from
        // the first vertex covers the whole loop without any panicking path.
        let first = self.vertices[0];
        self.vertices
            .iter()
            .fold(Rect::spanning(first, first), |bbox, &p| {
                bbox.union_bbox(&Rect::spanning(p, p))
            })
    }

    /// Enclosed area (shoelace formula; orientation-independent).
    pub fn area(&self) -> i128 {
        let n = self.vertices.len();
        let mut twice: i128 = 0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            twice += a.x as i128 * b.y as i128 - b.x as i128 * a.y as i128;
        }
        twice.abs() / 2
    }

    /// Decomposes the polygon into disjoint rectangles by horizontal slab
    /// sweep: the y-coordinates of all vertices cut the shape into slabs,
    /// and within each slab the crossing vertical edges pair up into spans.
    ///
    /// The rectangles tile the interior exactly (their areas sum to
    /// [`Polygon::area`]) and do not overlap.
    pub fn to_rects(&self) -> Vec<Rect> {
        let mut ys: Vec<Coord> = self.vertices.iter().map(|p| p.y).collect();
        ys.sort_unstable();
        ys.dedup();
        let n = self.vertices.len();
        let mut rects = Vec::new();
        for slab in ys.windows(2) {
            let (y_lo, y_hi) = (slab[0], slab[1]);
            let mid = y_lo + (y_hi - y_lo) / 2;
            // Vertical edges crossing this slab, by x.
            let mut xs = Vec::new();
            for i in 0..n {
                let a = self.vertices[i];
                let b = self.vertices[(i + 1) % n];
                if a.x == b.x {
                    let (e_lo, e_hi) = (a.y.min(b.y), a.y.max(b.y));
                    if e_lo <= mid && mid < e_hi {
                        xs.push(a.x);
                    }
                }
            }
            xs.sort_unstable();
            // Even-odd pairing: spans between alternating crossings are
            // interior.
            for pair in xs.chunks_exact(2) {
                // xs is sorted and the slab is ordered, so spanning() is
                // already normalised — no fallible construction needed.
                rects.push(Rect::spanning(
                    Point::new(pair[0], y_lo),
                    Point::new(pair[1], y_hi),
                ));
            }
        }
        rects
    }

    /// Whether a point lies inside the polygon (even-odd rule on the
    /// half-open interior, consistent with [`Rect::contains`]).
    pub fn contains(&self, point: Point) -> bool {
        self.to_rects().iter().any(|r| r.contains(point))
    }

    /// Polygon translated by `delta`.
    pub fn translated(&self, delta: Point) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&v| v + delta).collect(),
        }
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "polygon[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn l_shape() -> Polygon {
        Polygon::new(vec![
            Point::new(0, 0),
            Point::new(40, 0),
            Point::new(40, 10),
            Point::new(10, 10),
            Point::new(10, 30),
            Point::new(0, 30),
        ])
        .unwrap()
    }

    fn u_shape() -> Polygon {
        Polygon::new(vec![
            Point::new(0, 0),
            Point::new(50, 0),
            Point::new(50, 30),
            Point::new(40, 30),
            Point::new(40, 10),
            Point::new(10, 10),
            Point::new(10, 30),
            Point::new(0, 30),
        ])
        .unwrap()
    }

    #[test]
    fn rect_roundtrip() {
        let rect = Rect::new(5, 7, 20, 30).unwrap();
        let poly = Polygon::from_rect(&rect);
        assert_eq!(poly.area(), rect.area());
        assert_eq!(poly.bbox(), rect);
        let rects = poly.to_rects();
        assert_eq!(rects, vec![rect]);
    }

    #[test]
    fn l_shape_decomposes_exactly() {
        let poly = l_shape();
        let rects = poly.to_rects();
        let total: i128 = rects.iter().map(Rect::area).sum();
        assert_eq!(total, poly.area());
        // Decomposed rectangles are pairwise disjoint.
        for (i, a) in rects.iter().enumerate() {
            for b in &rects[i + 1..] {
                assert!(!a.intersects(b), "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn u_shape_slab_has_two_spans() {
        let poly = u_shape();
        let rects = poly.to_rects();
        let total: i128 = rects.iter().map(Rect::area).sum();
        assert_eq!(total, poly.area());
        // The upper slab (y 10..30) must split into the two prongs.
        let upper: Vec<&Rect> = rects.iter().filter(|r| r.y0() == 10).collect();
        assert_eq!(upper.len(), 2);
    }

    #[test]
    fn contains_respects_notch() {
        let poly = u_shape();
        assert!(poly.contains(Point::new(5, 20))); // left prong
        assert!(poly.contains(Point::new(45, 20))); // right prong
        assert!(!poly.contains(Point::new(25, 20))); // the notch
        assert!(poly.contains(Point::new(25, 5))); // the base
    }

    #[test]
    fn clockwise_loop_is_equivalent() {
        let ccw = l_shape();
        let mut reversed = ccw.vertices().to_vec();
        reversed.reverse();
        let cw = Polygon::new(reversed).unwrap();
        assert_eq!(cw.area(), ccw.area());
        let mut a = ccw.to_rects();
        let mut b = cw.to_rects();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_invalid_loops() {
        // Too few vertices.
        assert!(Polygon::new(vec![Point::new(0, 0), Point::new(1, 0)]).is_err());
        // Diagonal edge.
        assert!(Polygon::new(vec![
            Point::new(0, 0),
            Point::new(10, 10),
            Point::new(10, 20),
            Point::new(0, 20),
        ])
        .is_err());
        // Repeated vertex.
        assert!(Polygon::new(vec![
            Point::new(0, 0),
            Point::new(0, 0),
            Point::new(10, 0),
            Point::new(10, 10),
        ])
        .is_err());
        // Collinear consecutive edges.
        assert!(Polygon::new(vec![
            Point::new(0, 0),
            Point::new(5, 0),
            Point::new(10, 0),
            Point::new(10, 10),
            Point::new(5, 10),
            Point::new(0, 10),
        ])
        .is_err());
    }

    #[test]
    fn translation_moves_everything() {
        let poly = l_shape().translated(Point::new(100, -50));
        assert_eq!(poly.area(), l_shape().area());
        assert_eq!(poly.bbox().x0(), 100);
        assert_eq!(poly.bbox().y0(), -50);
    }

    #[test]
    fn display_lists_vertices() {
        let text = l_shape().to_string();
        assert!(text.starts_with("polygon[") && text.contains("(40, 10)"));
    }

    proptest! {
        #[test]
        fn prop_staircase_area_matches_decomposition(
            steps in proptest::collection::vec((1i64..20, 1i64..20), 1..6),
        ) {
            // Build a staircase polygon: rightward then upward per step,
            // closed back along the axes. Always a valid rectilinear loop.
            let mut vertices = vec![Point::new(0, 0)];
            // Bottom edge out to the full width.
            let width: i64 = steps.iter().map(|&(w, _)| w).sum();
            vertices.push(Point::new(width, 0));
            let mut x = width;
            let mut y = 0i64;
            for &(w, h) in steps.iter().rev() {
                y += h;
                vertices.push(Point::new(x, y));
                x -= w;
                vertices.push(Point::new(x, y));
            }
            let poly = Polygon::new(vertices).unwrap();
            let rects = poly.to_rects();
            let total: i128 = rects.iter().map(Rect::area).sum();
            prop_assert_eq!(total, poly.area());
            for (i, a) in rects.iter().enumerate() {
                for b in &rects[i + 1..] {
                    prop_assert!(!a.intersects(b));
                }
            }
        }
    }
}
