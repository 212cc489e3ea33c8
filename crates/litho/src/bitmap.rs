use hotspot_geom::Raster;

/// A binary image with simple morphology, used for printed contours and
/// design-intent masks.
///
/// ```
/// use hotspot_geom::{Raster, Rect};
/// use hotspot_litho::Bitmap;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut raster = Raster::zeros(Rect::new(0, 0, 100, 100)?, 10)?;
/// raster.fill_rect(&Rect::new(0, 0, 100, 50)?, 1.0);
/// let bm = Bitmap::from_raster(&raster, 0.5);
/// assert_eq!(bm.count_ones(), 50);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bitmap {
    width: usize,
    height: usize,
    bits: Vec<bool>,
}

impl Bitmap {
    /// The [`Bitmap::label_map`] entry of an unset pixel.
    pub const BACKGROUND: u32 = u32::MAX;

    /// Builds an all-false bitmap.
    pub fn zeros(width: usize, height: usize) -> Self {
        Bitmap {
            width,
            height,
            bits: vec![false; width * height],
        }
    }

    /// Thresholds a raster: pixels with value `>= threshold` become true.
    pub fn from_raster(raster: &Raster, threshold: f32) -> Self {
        Bitmap {
            width: raster.width(),
            height: raster.height(),
            bits: raster.pixels().iter().map(|&v| v >= threshold).collect(),
        }
    }

    /// Thresholds raw row-major data.
    ///
    /// # Panics
    ///
    /// Panics when `data.len() != width * height`.
    pub fn from_values(data: &[f32], width: usize, height: usize, threshold: f32) -> Self {
        assert_eq!(data.len(), width * height, "bitmap size mismatch");
        Bitmap {
            width,
            height,
            bits: data.iter().map(|&v| v >= threshold).collect(),
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Row-major bit data.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Bit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    pub fn at(&self, row: usize, col: usize) -> bool {
        assert!(
            row < self.height && col < self.width,
            "bitmap index out of bounds"
        );
        self.bits[row * self.width + col]
    }

    /// Sets the bit at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when the index is out of bounds.
    pub fn set(&mut self, row: usize, col: usize, value: bool) {
        assert!(
            row < self.height && col < self.width,
            "bitmap index out of bounds"
        );
        self.bits[row * self.width + col] = value;
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Morphological dilation with a Chebyshev ball of the given radius
    /// (a `(2r+1)²` square structuring element). Pixels outside the image
    /// count as unset.
    ///
    /// Separable over whole rows: each row ORs in copies of itself shifted by
    /// `1..=r` columns either way, then each output row ORs the rows within
    /// `r` above and below.
    pub fn dilated(&self, radius: usize) -> Bitmap {
        if radius == 0 || self.bits.is_empty() {
            return self.clone();
        }
        let w = self.width;
        let mut tmp = self.bits.clone();
        for (src, dst) in self.bits.chunks_exact(w).zip(tmp.chunks_exact_mut(w)) {
            for d in 1..=radius.min(w - 1) {
                for (o, &v) in dst[..w - d].iter_mut().zip(&src[d..]) {
                    *o |= v;
                }
                for (o, &v) in dst[d..].iter_mut().zip(&src[..w - d]) {
                    *o |= v;
                }
            }
        }
        let mut out = vec![false; self.bits.len()];
        for (row, dst) in out.chunks_exact_mut(w).enumerate() {
            let lo = row.saturating_sub(radius);
            let hi = (row + radius).min(self.height - 1);
            for src in tmp[lo * w..(hi + 1) * w].chunks_exact(w) {
                for (o, &v) in dst.iter_mut().zip(src) {
                    *o |= v;
                }
            }
        }
        Bitmap {
            width: self.width,
            height: self.height,
            bits: out,
        }
    }

    /// Pixels set in `self` but not in `other`.
    ///
    /// # Panics
    ///
    /// Panics when dimensions differ.
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        assert_eq!(
            (self.width, self.height),
            (other.width, other.height),
            "bitmap dimensions differ"
        );
        Bitmap {
            width: self.width,
            height: self.height,
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(&a, &b)| a && !b)
                .collect(),
        }
    }

    /// Labels the connected components of set pixels (4-connectivity).
    ///
    /// Returns the row-major label map and the component count. Components
    /// are numbered `0..count` in the row-major order of their first pixel;
    /// unset pixels hold [`Bitmap::BACKGROUND`].
    pub fn label_map(&self) -> (Vec<u32>, usize) {
        let (w, h) = (self.width, self.height);
        let mut labels = vec![Self::BACKGROUND; self.bits.len()];
        let mut count = 0u32;
        let mut stack = Vec::new();
        for start in 0..self.bits.len() {
            if !self.bits[start] || labels[start] != Self::BACKGROUND {
                continue;
            }
            let id = count;
            count += 1;
            labels[start] = id;
            stack.push(start);
            while let Some(idx) = stack.pop() {
                let (row, col) = (idx / w, idx % w);
                let mut visit = |i: usize| {
                    if self.bits[i] && labels[i] == Self::BACKGROUND {
                        labels[i] = id;
                        stack.push(i);
                    }
                };
                if row > 0 {
                    visit(idx - w);
                }
                if row + 1 < h {
                    visit(idx + w);
                }
                if col > 0 {
                    visit(idx - 1);
                }
                if col + 1 < w {
                    visit(idx + 1);
                }
            }
        }
        (labels, count as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bitmap_from_rows(rows: &[&str]) -> Bitmap {
        let height = rows.len();
        let width = rows[0].len();
        let mut bm = Bitmap::zeros(width, height);
        for (r, line) in rows.iter().rev().enumerate() {
            for (c, ch) in line.chars().enumerate() {
                bm.set(r, c, ch == '#');
            }
        }
        bm
    }

    fn bitmap_from_bits(bits: &[bool], width: usize, height: usize) -> Bitmap {
        let mut bm = Bitmap::zeros(width, height);
        bm.bits.copy_from_slice(&bits[..width * height]);
        bm
    }

    /// The per-pixel dilation loop `dilated` replaced, kept as the reference
    /// its output must match exactly.
    fn reference_dilated(bm: &Bitmap, radius: usize) -> Bitmap {
        if radius == 0 {
            return bm.clone();
        }
        let r = radius as isize;
        let mut tmp = vec![false; bm.bits.len()];
        for row in 0..bm.height {
            for col in 0..bm.width {
                let mut acc = false;
                for d in -r..=r {
                    let c = col as isize + d;
                    if c >= 0 && c < bm.width as isize {
                        acc |= bm.bits[row * bm.width + c as usize];
                    }
                }
                tmp[row * bm.width + col] = acc;
            }
        }
        let mut out = vec![false; bm.bits.len()];
        for col in 0..bm.width {
            for row in 0..bm.height {
                let mut acc = false;
                for d in -r..=r {
                    let rr = row as isize + d;
                    if rr >= 0 && rr < bm.height as isize {
                        acc |= tmp[rr as usize * bm.width + col];
                    }
                }
                out[row * bm.width + col] = acc;
            }
        }
        Bitmap {
            width: bm.width,
            height: bm.height,
            bits: out,
        }
    }

    /// The pixel-list flood fill `label_map` replaced, kept as the reference
    /// for its partition and numbering.
    fn reference_components(bm: &Bitmap) -> Vec<Vec<(usize, usize)>> {
        let mut seen = vec![false; bm.bits.len()];
        let mut components = Vec::new();
        for start in 0..bm.bits.len() {
            if !bm.bits[start] || seen[start] {
                continue;
            }
            let mut stack = vec![start];
            seen[start] = true;
            let mut comp = Vec::new();
            while let Some(idx) = stack.pop() {
                let (row, col) = (idx / bm.width, idx % bm.width);
                comp.push((row, col));
                let mut push = |r: isize, c: isize| {
                    if r < 0 || c < 0 || r >= bm.height as isize || c >= bm.width as isize {
                        return;
                    }
                    let i = r as usize * bm.width + c as usize;
                    if bm.bits[i] && !seen[i] {
                        seen[i] = true;
                        stack.push(i);
                    }
                };
                push(row as isize - 1, col as isize);
                push(row as isize + 1, col as isize);
                push(row as isize, col as isize - 1);
                push(row as isize, col as isize + 1);
            }
            components.push(comp);
        }
        components
    }

    #[test]
    fn count_ones_counts() {
        let bm = bitmap_from_rows(&["#..", ".#.", "..#"]);
        assert_eq!(bm.count_ones(), 3);
    }

    #[test]
    fn dilate_grows_square() {
        let bm = bitmap_from_rows(&[".....", ".....", "..#..", ".....", "....."]);
        let d = bm.dilated(1);
        assert_eq!(d.count_ones(), 9);
        assert!(d.at(2, 2) && d.at(1, 1) && d.at(3, 3));
    }

    #[test]
    fn and_not_subtracts() {
        let a = bitmap_from_rows(&["##", "##"]);
        let b = bitmap_from_rows(&["#.", "#."]);
        assert_eq!(a.and_not(&b).count_ones(), 2);
    }

    #[test]
    fn components_separate_diagonals() {
        // 4-connectivity: a diagonal pair forms two components.
        let bm = bitmap_from_rows(&["#.", ".#"]);
        assert_eq!(bm.label_map().1, 2);
    }

    #[test]
    fn components_join_orthogonals() {
        let bm = bitmap_from_rows(&["##", "#."]);
        let (labels, count) = bm.label_map();
        assert_eq!(count, 1);
        assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 3);
    }

    #[test]
    fn label_map_numbers_components_by_first_pixel() {
        // Row 0 is the bottom row: the right-hand column starts first.
        let bm = bitmap_from_rows(&["#..", "#.#", "..#"]);
        let (labels, count) = bm.label_map();
        assert_eq!(count, 2);
        assert_eq!(labels[2], 0);
        assert_eq!(labels[3], 1);
        assert_eq!(labels[0], Bitmap::BACKGROUND);
    }

    #[test]
    fn zero_radius_dilation_is_identity() {
        let bm = bitmap_from_rows(&["#.#", ".#.", "#.#"]);
        assert_eq!(bm.dilated(0), bm);
    }

    proptest! {
        #[test]
        fn prop_dilation_is_monotone(bits in proptest::collection::vec(any::<bool>(), 49)) {
            let bm = bitmap_from_bits(&bits, 7, 7);
            let d = bm.dilated(1);
            // Dilation is extensive: every set pixel remains set.
            for i in 0..49 {
                if bm.bits()[i] {
                    prop_assert!(d.bits()[i]);
                }
            }
            prop_assert!(d.count_ones() >= bm.count_ones());
        }

        #[test]
        fn prop_dilation_matches_reference(
            (width, height) in (1usize..=12, 1usize..=12),
            radius in 0usize..=6,
            density in 0.0f64..=1.0,
            draws in proptest::collection::vec(0.0f64..1.0, 144),
        ) {
            // A per-case density spans sparse specks to nearly full images.
            let bits: Vec<bool> = draws.iter().map(|&u| u < density).collect();
            let bm = bitmap_from_bits(&bits, width, height);
            prop_assert_eq!(bm.dilated(radius), reference_dilated(&bm, radius));
        }

        #[test]
        fn prop_label_map_matches_reference_components(
            (width, height) in (1usize..=16, 1usize..=16),
            density in 0.0f64..=1.0,
            draws in proptest::collection::vec(0.0f64..1.0, 256),
        ) {
            let bits: Vec<bool> = draws.iter().map(|&u| u < density).collect();
            let bm = bitmap_from_bits(&bits, width, height);
            let (labels, count) = bm.label_map();
            let reference = reference_components(&bm);
            prop_assert_eq!(count, reference.len());
            for (id, comp) in reference.iter().enumerate() {
                for &(r, c) in comp {
                    prop_assert_eq!(labels[r * width + c], id as u32);
                }
            }
            let labelled = labels.iter().filter(|&&l| l != Bitmap::BACKGROUND).count();
            prop_assert_eq!(labelled, bm.count_ones());
        }
    }
}
