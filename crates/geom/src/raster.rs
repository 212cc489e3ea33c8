use crate::{ClipWindow, Coord, GeomError, Rect};
use serde::{Deserialize, Serialize};

/// Maximum number of pixels a raster may hold (guards against accidental
/// full-chip rasterisation at 1 nm pitch).
const MAX_PIXELS: i64 = 64 * 1024 * 1024;

/// A dense single-channel raster of a layout region.
///
/// Rasters store `f32` coverage per pixel (0.0 = empty, 1.0 = metal). Pixels
/// are addressed `(row, col)` with row 0 at the *bottom* of the region so that
/// raster coordinates grow with layout coordinates.
///
/// ```
/// use hotspot_geom::{Raster, Rect};
/// # fn main() -> Result<(), hotspot_geom::GeomError> {
/// let region = Rect::new(0, 0, 100, 100)?;
/// let mut raster = Raster::zeros(region, 10)?;
/// raster.fill_rect(&Rect::new(0, 0, 50, 100)?, 1.0);
/// assert!((raster.density() - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Raster {
    region: Rect,
    pitch: Coord,
    width: usize,
    height: usize,
    data: Vec<f32>,
}

impl Raster {
    /// Creates an all-zero raster covering `region` at `pitch` nm per pixel.
    ///
    /// The pixel grid is anchored at the region's lower-left corner; a region
    /// whose extent is not a multiple of `pitch` gains a final partial pixel.
    ///
    /// # Errors
    ///
    /// Returns [`GeomError::InvalidPitch`] for a non-positive pitch and
    /// [`GeomError::RasterTooLarge`] when the pixel count would exceed an
    /// internal safety bound.
    pub fn zeros(region: Rect, pitch: Coord) -> Result<Self, GeomError> {
        if pitch <= 0 {
            return Err(GeomError::InvalidPitch { pitch });
        }
        let width = div_ceil(region.width(), pitch);
        let height = div_ceil(region.height(), pitch);
        if width * height > MAX_PIXELS {
            return Err(GeomError::RasterTooLarge {
                dims: (width, height),
            });
        }
        Ok(Raster {
            region,
            pitch,
            width: width as usize,
            height: height as usize,
            data: vec![0.0; (width * height) as usize],
        })
    }

    /// Creates an all-zero raster covering a clip's window.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Raster::zeros`].
    pub fn zeros_for(clip: &ClipWindow, pitch: Coord) -> Result<Self, GeomError> {
        Raster::zeros(clip.window(), pitch)
    }

    /// The layout region this raster covers.
    pub fn region(&self) -> Rect {
        self.region
    }

    /// Pixel pitch in nanometres.
    pub fn pitch(&self) -> Coord {
        self.pitch
    }

    /// Raster width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Raster height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Immutable view of the pixel data in row-major order (row 0 = bottom).
    pub fn pixels(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the pixel data in row-major order.
    pub fn pixels_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert!(
            row < self.height && col < self.width,
            "raster index out of bounds"
        );
        self.data[row * self.width + col]
    }

    /// Sets the value at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(
            row < self.height && col < self.width,
            "raster index out of bounds"
        );
        self.data[row * self.width + col] = value;
    }

    /// Burns `rect ∩ region` into the raster with exact area weighting:
    /// each pixel receives the fraction of its area covered by `rect`,
    /// saturated at `value`.
    pub fn fill_rect(&mut self, rect: &Rect, value: f32) {
        let Some(clipped) = rect.intersection(&self.region) else {
            return;
        };
        let p = self.pitch as f64;
        let rx0 = (clipped.x0() - self.region.x0()) as f64 / p;
        let rx1 = (clipped.x1() - self.region.x0()) as f64 / p;
        let ry0 = (clipped.y0() - self.region.y0()) as f64 / p;
        let ry1 = (clipped.y1() - self.region.y0()) as f64 / p;
        let c0 = rx0.floor() as usize;
        let c1 = (rx1.ceil() as usize).min(self.width);
        let r0 = ry0.floor() as usize;
        let r1 = (ry1.ceil() as usize).min(self.height);
        for row in r0..r1 {
            let cov_y = overlap(row as f64, row as f64 + 1.0, ry0, ry1);
            for col in c0..c1 {
                let cov_x = overlap(col as f64, col as f64 + 1.0, rx0, rx1);
                let add = (cov_x * cov_y) as f32 * value;
                let px = &mut self.data[row * self.width + col];
                *px = (*px + add).min(value.max(*px));
            }
        }
    }

    /// Burns a rectilinear polygon into the raster (via its disjoint
    /// rectangle decomposition; see [`crate::Polygon::to_rects`]).
    pub fn fill_polygon(&mut self, polygon: &crate::Polygon, value: f32) {
        for rect in polygon.to_rects() {
            self.fill_rect(&rect, value);
        }
    }

    /// Mean pixel value — the pattern density of the raster.
    pub fn density(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Resamples the raster to `new_width × new_height` pixels by box
    /// averaging. Used to bring rasters to the fixed input size a feature
    /// extractor or network expects.
    pub fn resampled(&self, new_width: usize, new_height: usize) -> Raster {
        assert!(
            new_width > 0 && new_height > 0,
            "target size must be positive"
        );
        let mut out = Raster {
            region: self.region,
            pitch: self.pitch, // nominal; resampled pixels no longer align to pitch
            width: new_width,
            height: new_height,
            data: vec![0.0; new_width * new_height],
        };
        // Each output row (column) covers the same source rows (columns)
        // with the same overlap weights, so compute them once per axis.
        let rows = box_spans(self.height, new_height);
        let cols = box_spans(self.width, new_width);
        for ((r0, wys), out_row) in rows.iter().zip(out.data.chunks_exact_mut(new_width)) {
            for ((c0, wxs), px) in cols.iter().zip(out_row.iter_mut()) {
                let mut acc = 0.0f64;
                let mut total = 0.0f64;
                for (r, &wy) in (*r0..).zip(wys) {
                    let src = &self.data[r * self.width + c0..];
                    for (&wx, &v) in wxs.iter().zip(src) {
                        acc += (wx * wy) * v as f64;
                        total += wx * wy;
                    }
                }
                *px = if total > 0.0 {
                    (acc / total) as f32
                } else {
                    0.0
                };
            }
        }
        out
    }

    /// Decomposes the raster's filled area into layout-space rectangles:
    /// per-row runs of pixels at or above `threshold`, merged with the run
    /// directly below when their column spans match. The result is a compact
    /// vector form of the mask (used e.g. to draw clip geometry as SVG
    /// rectangles instead of per-pixel squares).
    ///
    /// Each pixel column `c` spans `[x0 + c·pitch, min(x0 + (c+1)·pitch, x1))`
    /// in layout coordinates, so partial edge pixels stay inside the region.
    pub fn filled_rects(&self, threshold: f32) -> Vec<Rect> {
        // (col0, col1) spans per row, bottom row first.
        let mut row_runs: Vec<Vec<(usize, usize)>> = Vec::with_capacity(self.height);
        for row in 0..self.height {
            let mut runs = Vec::new();
            let mut start: Option<usize> = None;
            for col in 0..self.width {
                let on = self.data[row * self.width + col] >= threshold;
                match (on, start) {
                    (true, None) => start = Some(col),
                    (false, Some(s)) => {
                        runs.push((s, col));
                        start = None;
                    }
                    _ => {}
                }
            }
            if let Some(s) = start {
                runs.push((s, self.width));
            }
            row_runs.push(runs);
        }
        // Merge vertically: a run extends the rect below when the column
        // span matches exactly. (row0, row1, col0, col1), half-open.
        let mut open: Vec<(usize, usize, usize, usize)> = Vec::new();
        let mut done: Vec<(usize, usize, usize, usize)> = Vec::new();
        for (row, runs) in row_runs.iter().enumerate() {
            let mut next_open = Vec::with_capacity(runs.len());
            for &(c0, c1) in runs {
                if let Some(i) = open
                    .iter()
                    .position(|&(_, r1, oc0, oc1)| r1 == row && oc0 == c0 && oc1 == c1)
                {
                    let (r0, _, _, _) = open.swap_remove(i);
                    next_open.push((r0, row + 1, c0, c1));
                } else {
                    next_open.push((row, row + 1, c0, c1));
                }
            }
            done.append(&mut open);
            open = next_open;
        }
        done.append(&mut open);
        done.sort_unstable();
        done.into_iter()
            .map(|(r0, r1, c0, c1)| {
                let x0 = self.region.x0() + c0 as Coord * self.pitch;
                let x1 = (self.region.x0() + c1 as Coord * self.pitch).min(self.region.x1());
                let y0 = self.region.y0() + r0 as Coord * self.pitch;
                let y1 = (self.region.y0() + r1 as Coord * self.pitch).min(self.region.y1());
                Rect::spanning(crate::Point::new(x0, y0), crate::Point::new(x1, y1))
            })
            .collect()
    }

    /// Extracts the sub-raster covering `rect` (must intersect the region),
    /// snapped outwards to pixel boundaries.
    pub fn crop(&self, rect: &Rect) -> Option<Raster> {
        let clipped = rect.intersection(&self.region)?;
        let c0 = ((clipped.x0() - self.region.x0()) / self.pitch) as usize;
        let r0 = ((clipped.y0() - self.region.y0()) / self.pitch) as usize;
        let c1 = div_ceil(clipped.x1() - self.region.x0(), self.pitch) as usize;
        let r1 = div_ceil(clipped.y1() - self.region.y0(), self.pitch) as usize;
        let c1 = c1.min(self.width);
        let r1 = r1.min(self.height);
        let w = c1.saturating_sub(c0);
        let h = r1.saturating_sub(r0);
        if w == 0 || h == 0 {
            return None;
        }
        let mut data = Vec::with_capacity(w * h);
        for row in r0..r1 {
            data.extend_from_slice(&self.data[row * self.width + c0..row * self.width + c1]);
        }
        Some(Raster {
            region: clipped,
            pitch: self.pitch,
            width: w,
            height: h,
            data,
        })
    }
}

fn div_ceil(a: Coord, b: Coord) -> i64 {
    (a + b - 1) / b
}

/// Box-filter footprint of each of `dst` output pixels resampling `src`
/// source pixels along one axis: the first source pixel it covers and the
/// overlap weight of each covered source pixel, in source order.
fn box_spans(src: usize, dst: usize) -> Vec<(usize, Vec<f64>)> {
    let scale = src as f64 / dst as f64;
    (0..dst)
        .map(|i| {
            let lo = i as f64 * scale;
            let hi = (i as f64 + 1.0) * scale;
            let first = lo.floor() as usize;
            let end = (hi.ceil() as usize).min(src);
            let weights = (first..end)
                .map(|s| overlap(s as f64, s as f64 + 1.0, lo, hi))
                .collect();
            (first, weights)
        })
        .collect()
}

fn overlap(a0: f64, a1: f64, b0: f64, b1: f64) -> f64 {
    (a1.min(b1) - a0.max(b0)).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    fn region(w: Coord, h: Coord) -> Rect {
        Rect::new(0, 0, w, h).unwrap()
    }

    /// The per-pixel loop `resampled` replaced, kept as the reference its
    /// output must match bit for bit.
    fn reference_resampled(src: &Raster, new_width: usize, new_height: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; new_width * new_height];
        let sx = src.width as f64 / new_width as f64;
        let sy = src.height as f64 / new_height as f64;
        for row in 0..new_height {
            let y0 = row as f64 * sy;
            let y1 = (row as f64 + 1.0) * sy;
            for col in 0..new_width {
                let x0 = col as f64 * sx;
                let x1 = (col as f64 + 1.0) * sx;
                let mut acc = 0.0f64;
                let mut total = 0.0f64;
                let rr0 = y0.floor() as usize;
                let rr1 = (y1.ceil() as usize).min(src.height);
                let cc0 = x0.floor() as usize;
                let cc1 = (x1.ceil() as usize).min(src.width);
                for r in rr0..rr1 {
                    let wy = overlap(r as f64, r as f64 + 1.0, y0, y1);
                    for c in cc0..cc1 {
                        let wx = overlap(c as f64, c as f64 + 1.0, x0, x1);
                        acc += (wx * wy) * src.data[r * src.width + c] as f64;
                        total += wx * wy;
                    }
                }
                out[row * new_width + col] = if total > 0.0 {
                    (acc / total) as f32
                } else {
                    0.0
                };
            }
        }
        out
    }

    /// A `width × height` raster holding the first `width * height` values.
    fn raster_of(values: &[f32], width: usize, height: usize) -> Raster {
        let mut r = Raster::zeros(region(width as Coord, height as Coord), 1).unwrap();
        r.pixels_mut().copy_from_slice(&values[..width * height]);
        r
    }

    fn assert_resample_matches_reference(
        src: &Raster,
        new_width: usize,
        new_height: usize,
    ) -> Result<(), TestCaseError> {
        let fast = src.resampled(new_width, new_height);
        let slow = reference_resampled(src, new_width, new_height);
        for (i, (a, b)) in fast.pixels().iter().zip(&slow).enumerate() {
            prop_assert!(
                a.to_bits() == b.to_bits(),
                "{}x{} -> {new_width}x{new_height}: pixel {i} is {a} vs reference {b}",
                src.width(),
                src.height(),
            );
        }
        Ok(())
    }

    #[test]
    fn zeros_has_expected_dims() {
        let r = Raster::zeros(region(100, 60), 10).unwrap();
        assert_eq!(r.width(), 10);
        assert_eq!(r.height(), 6);
        assert_eq!(r.pixels().len(), 60);
        assert_eq!(r.density(), 0.0);
    }

    #[test]
    fn partial_pixel_rounds_up() {
        let r = Raster::zeros(region(105, 95), 10).unwrap();
        assert_eq!(r.width(), 11);
        assert_eq!(r.height(), 10);
    }

    #[test]
    fn rejects_bad_pitch() {
        assert!(Raster::zeros(region(10, 10), 0).is_err());
        assert!(Raster::zeros(region(10, 10), -5).is_err());
    }

    #[test]
    fn fill_full_region_saturates_density() {
        let mut r = Raster::zeros(region(80, 80), 8).unwrap();
        r.fill_rect(&region(80, 80), 1.0);
        assert!((r.density() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fill_half_region() {
        let mut r = Raster::zeros(region(100, 100), 10).unwrap();
        r.fill_rect(&Rect::new(0, 0, 50, 100).unwrap(), 1.0);
        assert!((r.density() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn fill_subpixel_rect_weights_area() {
        let mut r = Raster::zeros(region(10, 10), 10).unwrap();
        // Quarter of the single pixel.
        r.fill_rect(&Rect::new(0, 0, 5, 5).unwrap(), 1.0);
        assert!((r.at(0, 0) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn fill_outside_region_is_noop() {
        let mut r = Raster::zeros(region(100, 100), 10).unwrap();
        r.fill_rect(&Rect::new(200, 200, 300, 300).unwrap(), 1.0);
        assert_eq!(r.density(), 0.0);
    }

    #[test]
    fn fill_polygon_matches_area() {
        let mut r = Raster::zeros(region(100, 100), 10).unwrap();
        let poly = crate::Polygon::new(vec![
            crate::Point::new(0, 0),
            crate::Point::new(60, 0),
            crate::Point::new(60, 20),
            crate::Point::new(20, 20),
            crate::Point::new(20, 60),
            crate::Point::new(0, 60),
        ])
        .unwrap();
        r.fill_polygon(&poly, 1.0);
        let expected = poly.area() as f64 / region(100, 100).area() as f64;
        assert!((r.density() - expected).abs() < 1e-4);
    }

    #[test]
    fn overlapping_fills_saturate() {
        let mut r = Raster::zeros(region(10, 10), 10).unwrap();
        r.fill_rect(&region(10, 10), 1.0);
        r.fill_rect(&region(10, 10), 1.0);
        assert!((r.at(0, 0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn resample_preserves_mean_roughly() {
        let mut r = Raster::zeros(region(160, 160), 10).unwrap();
        r.fill_rect(&Rect::new(0, 0, 80, 160).unwrap(), 1.0);
        let small = r.resampled(8, 8);
        assert!((small.density() - 0.5).abs() < 0.01);
        assert_eq!(small.width(), 8);
        assert_eq!(small.height(), 8);
    }

    #[test]
    fn crop_extracts_subregion() {
        let mut r = Raster::zeros(region(100, 100), 10).unwrap();
        r.fill_rect(&Rect::new(0, 0, 50, 100).unwrap(), 1.0);
        let left = r.crop(&Rect::new(0, 0, 50, 100).unwrap()).unwrap();
        assert!((left.density() - 1.0).abs() < 1e-6);
        let right = r.crop(&Rect::new(50, 0, 100, 100).unwrap()).unwrap();
        assert!(right.density() < 1e-6);
    }

    #[test]
    fn filled_rects_recovers_simple_shapes() {
        let mut r = Raster::zeros(region(100, 100), 10).unwrap();
        r.fill_rect(&Rect::new(0, 0, 50, 100).unwrap(), 1.0);
        let rects = r.filled_rects(0.5);
        assert_eq!(rects, vec![Rect::new(0, 0, 50, 100).unwrap()]);
    }

    #[test]
    fn filled_rects_splits_disjoint_columns() {
        let mut r = Raster::zeros(region(100, 100), 10).unwrap();
        r.fill_rect(&Rect::new(0, 0, 20, 100).unwrap(), 1.0);
        r.fill_rect(&Rect::new(60, 0, 80, 100).unwrap(), 1.0);
        let rects = r.filled_rects(0.5);
        assert_eq!(
            rects,
            vec![
                Rect::new(0, 0, 20, 100).unwrap(),
                Rect::new(60, 0, 80, 100).unwrap(),
            ]
        );
    }

    #[test]
    fn filled_rects_area_matches_l_shape() {
        let mut r = Raster::zeros(region(100, 100), 10).unwrap();
        r.fill_rect(&Rect::new(0, 0, 60, 20).unwrap(), 1.0);
        r.fill_rect(&Rect::new(0, 20, 20, 60).unwrap(), 1.0);
        let rects = r.filled_rects(0.5);
        let total: i128 = rects.iter().map(Rect::area).sum();
        assert_eq!(total, 60 * 20 + 20 * 40);
        for (i, a) in rects.iter().enumerate() {
            for b in &rects[i + 1..] {
                assert!(!a.intersects(b));
            }
        }
    }

    #[test]
    fn filled_rects_on_empty_raster_is_empty() {
        let r = Raster::zeros(region(100, 100), 10).unwrap();
        assert!(r.filled_rects(0.5).is_empty());
    }

    #[test]
    fn filled_rects_clamps_partial_edge_pixels() {
        // 105 nm region at pitch 10 has a partial final column.
        let mut r = Raster::zeros(Rect::new(0, 0, 105, 50).unwrap(), 10).unwrap();
        r.fill_rect(&Rect::new(0, 0, 105, 50).unwrap(), 1.0);
        let rects = r.filled_rects(0.5);
        for rect in &rects {
            assert!(rect.x1() <= 105 && rect.y1() <= 50);
        }
    }

    #[test]
    fn crop_disjoint_returns_none() {
        let r = Raster::zeros(region(100, 100), 10).unwrap();
        assert!(r.crop(&Rect::new(500, 500, 600, 600).unwrap()).is_none());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn at_panics_out_of_bounds() {
        let r = Raster::zeros(region(100, 100), 10).unwrap();
        let _ = r.at(10, 0);
    }

    proptest! {
        #[test]
        fn prop_shrinking_matches_reference_bits(
            (width, height) in (1usize..=60, 1usize..=60),
            (new_width, new_height) in (1usize..=60, 1usize..=60),
            values in proptest::collection::vec(0.0f32..1.0, 3600),
        ) {
            let src = raster_of(&values, width, height);
            assert_resample_matches_reference(&src, new_width.min(width), new_height.min(height))?;
        }

        #[test]
        fn prop_enlarging_matches_reference_bits(
            (width, height) in (1usize..=16, 1usize..=16),
            (grow_x, grow_y) in (0usize..=40, 0usize..=40),
            values in proptest::collection::vec(0.0f32..1.0, 256),
        ) {
            let src = raster_of(&values, width, height);
            assert_resample_matches_reference(&src, width + grow_x, height + grow_y)?;
        }

        #[test]
        fn prop_density_bounded(
            w in 1i64..30, h in 1i64..30,
            rx in 0i64..300, ry in 0i64..300, rw in 0i64..300, rh in 0i64..300,
        ) {
            let mut r = Raster::zeros(region(w * 10, h * 10), 10).unwrap();
            r.fill_rect(&Rect::new(rx, ry, rx + rw, ry + rh).unwrap(), 1.0);
            let d = r.density();
            prop_assert!((0.0..=1.0 + 1e-9).contains(&d));
        }

        #[test]
        fn prop_fill_density_matches_clipped_area(
            rx in 0i64..200, ry in 0i64..200, rw in 0i64..200, rh in 0i64..200,
        ) {
            let reg = region(200, 200);
            let mut r = Raster::zeros(reg, 10).unwrap();
            let rect = Rect::new(rx, ry, (rx + rw).min(200), (ry + rh).min(200)).unwrap();
            r.fill_rect(&rect, 1.0);
            let expected = rect.intersection(&reg).map(|c| c.area() as f64).unwrap_or(0.0)
                / reg.area() as f64;
            prop_assert!((r.density() - expected).abs() < 1e-4);
        }
    }
}
