use hotspot_geom::{Raster, Rect};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Edge length of the density grid a signature stores for fuzzy matching.
pub(crate) const DENSITY_EDGE: usize = 12;

/// A compact pattern signature used by the pattern-matching baselines.
///
/// * `exact_hash` — a hash of the quantised full-clip raster; equal hashes
///   mean (with overwhelming probability) identical patterns, which is the
///   clustering key of exact pattern matching.
/// * `core_density` — a `12 × 12` quantised density grid over the clip
///   *core*, the representation fuzzy matchers compare. The paper's fuzzy
///   experiments likewise restrict to the centre region of each clip.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Exact-pattern cluster key.
    pub exact_hash: u64,
    /// Quantised core-density grid (row-major, 0–255).
    pub core_density: Vec<u8>,
}

impl Signature {
    /// Builds a signature for a clip raster with the given core region.
    pub fn from_raster(raster: &Raster, core: Rect) -> Self {
        // Quantise before hashing so float noise cannot split clusters. One
        // `write` of the whole buffer feeds SipHash the same byte stream as
        // hashing each `u8` in turn, so the key is unchanged.
        let quantised: Vec<u8> = raster.pixels().iter().map(|&px| quantise(px)).collect();
        let mut hasher = DefaultHasher::new();
        hasher.write(&quantised);
        let core_raster = raster
            .crop(&core)
            .unwrap_or_else(|| raster.clone())
            .resampled(DENSITY_EDGE, DENSITY_EDGE);
        let core_density = core_raster.pixels().iter().map(|&v| quantise(v)).collect();
        Signature {
            exact_hash: hasher.finish(),
            core_density,
        }
    }

    /// Cosine similarity of the core-density grids, in `[0, 1]`.
    /// Two empty cores compare as identical.
    ///
    /// # Panics
    ///
    /// Panics when the grids differ in size.
    pub fn similarity(&self, other: &Signature) -> f64 {
        assert_eq!(
            self.core_density.len(),
            other.core_density.len(),
            "signature grid size mismatch"
        );
        let mut dot = 0.0f64;
        let mut na = 0.0f64;
        let mut nb = 0.0f64;
        for (&a, &b) in self.core_density.iter().zip(&other.core_density) {
            let (a, b) = (a as f64, b as f64);
            dot += a * b;
            na += a * a;
            nb += b * b;
        }
        if na <= 0.0 && nb <= 0.0 {
            return 1.0;
        }
        if na <= 0.0 || nb <= 0.0 {
            return 0.0;
        }
        dot / (na.sqrt() * nb.sqrt())
    }

    /// A pooled, quantised cluster key: the core-density grid is average-
    /// pooled down to `pool_edge × pool_edge` cells and quantised to
    /// `levels` buckets before hashing. Smaller grids and fewer levels make
    /// the key *fuzzier* — more patterns collide into one cluster. This is
    /// the O(n) stand-in for threshold-based fuzzy matching on large clip
    /// populations (see `hotspot-baselines`).
    ///
    /// # Panics
    ///
    /// Panics when `pool_edge` is zero or larger than the grid edge, or when
    /// `levels` is outside `1..=256`.
    pub fn pooled_hash(&self, pool_edge: usize, levels: u16) -> u64 {
        assert!(
            pool_edge > 0 && pool_edge <= DENSITY_EDGE,
            "pool edge must be in 1..={DENSITY_EDGE}"
        );
        assert!((1..=256).contains(&levels), "levels must be in 1..=256");
        let step = (256.0 / levels as f64).max(1.0);
        let mut hasher = DefaultHasher::new();
        for py in 0..pool_edge {
            for px in 0..pool_edge {
                // Average the source cells this pooled cell covers.
                let y0 = py * DENSITY_EDGE / pool_edge;
                let y1 = ((py + 1) * DENSITY_EDGE).div_ceil(pool_edge);
                let x0 = px * DENSITY_EDGE / pool_edge;
                let x1 = ((px + 1) * DENSITY_EDGE).div_ceil(pool_edge);
                let mut acc = 0u32;
                let mut count = 0u32;
                for y in y0..y1.min(DENSITY_EDGE) {
                    for x in x0..x1.min(DENSITY_EDGE) {
                        acc += self.core_density[y * DENSITY_EDGE + x] as u32;
                        count += 1;
                    }
                }
                let mean = acc as f64 / count.max(1) as f64;
                ((mean / step) as u16).hash(&mut hasher);
            }
        }
        hasher.finish()
    }

    /// A coarse cluster key with an edge tolerance: densities are quantised
    /// to `levels` buckets so patterns whose edges moved by a couple of
    /// nanometres still collide. This models the "e2" (edge within 2 nm)
    /// fuzzy matching mode.
    ///
    /// # Panics
    ///
    /// Panics when `levels` is zero or exceeds 256.
    pub fn tolerant_hash(&self, levels: u16) -> u64 {
        assert!((1..=256).contains(&levels), "levels must be in 1..=256");
        let step = (256 / levels as u32).max(1) as u8;
        let mut hasher = DefaultHasher::new();
        for &v in &self.core_density {
            (v / step).hash(&mut hasher);
        }
        hasher.finish()
    }
}

/// Maps a coverage value to one of 256 levels, saturating outside `[0, 1]`.
fn quantise(v: f32) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0).round() as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_geom::{Raster, Rect};
    use proptest::prelude::*;

    fn raster_with(xs: &[(i64, i64)]) -> Raster {
        let mut r = Raster::zeros(Rect::new(0, 0, 1200, 1200).unwrap(), 10).unwrap();
        for &(y, w) in xs {
            r.fill_rect(&Rect::new(0, y, 1200, y + w).unwrap(), 1.0);
        }
        r
    }

    fn core() -> Rect {
        Rect::new(300, 300, 900, 900).unwrap()
    }

    #[test]
    fn identical_rasters_share_exact_hash() {
        let a = Signature::from_raster(&raster_with(&[(500, 80)]), core());
        let b = Signature::from_raster(&raster_with(&[(500, 80)]), core());
        assert_eq!(a.exact_hash, b.exact_hash);
        assert!((a.similarity(&b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn different_rasters_differ() {
        let a = Signature::from_raster(&raster_with(&[(500, 80)]), core());
        let b = Signature::from_raster(&raster_with(&[(700, 80)]), core());
        assert_ne!(a.exact_hash, b.exact_hash);
        assert!(a.similarity(&b) < 0.999);
    }

    #[test]
    fn small_shift_keeps_high_similarity() {
        let a = Signature::from_raster(&raster_with(&[(500, 80), (700, 80)]), core());
        let b = Signature::from_raster(&raster_with(&[(504, 80), (700, 80)]), core());
        assert!(a.similarity(&b) > 0.95, "{}", a.similarity(&b));
    }

    #[test]
    fn unrelated_patterns_have_low_similarity() {
        let a = Signature::from_raster(&raster_with(&[(320, 60)]), core());
        let b = Signature::from_raster(&raster_with(&[(820, 60)]), core());
        assert!(a.similarity(&b) < 0.3, "{}", a.similarity(&b));
    }

    #[test]
    fn tolerant_hash_collides_on_tiny_shifts() {
        let a = Signature::from_raster(&raster_with(&[(500, 80)]), core());
        let b = Signature::from_raster(&raster_with(&[(502, 80)]), core());
        // Coarse quantisation makes a 2 nm shift invisible.
        assert_eq!(a.tolerant_hash(4), b.tolerant_hash(4));
    }

    #[test]
    fn empty_cores_compare_equal() {
        let a = Signature::from_raster(&raster_with(&[]), core());
        let b = Signature::from_raster(&raster_with(&[]), core());
        assert_eq!(a.similarity(&b), 1.0);
    }

    #[test]
    #[should_panic(expected = "levels")]
    fn tolerant_hash_rejects_zero_levels() {
        let a = Signature::from_raster(&raster_with(&[]), core());
        let _ = a.tolerant_hash(0);
    }

    proptest! {
        #[test]
        fn prop_exact_hash_matches_per_byte_hashing(
            (width, height) in (1i64..=40, 1i64..=40),
            values in proptest::collection::vec(-0.5f32..1.5, 1600),
        ) {
            // Values outside [0, 1] exercise the saturating quantiser.
            let mut raster = Raster::zeros(Rect::new(0, 0, width, height).unwrap(), 1).unwrap();
            let n = raster.pixels().len();
            raster.pixels_mut().copy_from_slice(&values[..n]);
            let mut hasher = DefaultHasher::new();
            for &px in raster.pixels() {
                ((px.clamp(0.0, 1.0) * 255.0).round() as u8).hash(&mut hasher);
            }
            let signature = Signature::from_raster(&raster, Rect::new(0, 0, width, height).unwrap());
            prop_assert_eq!(signature.exact_hash, hasher.finish());
        }
    }
}
