use crate::pattern::{synthesize, ClipFamily, ClipRecipe};
use crate::{pool, BenchmarkSpec, LayoutError, Signature, Tech};
use hotspot_features::FeatureExtractor;
use hotspot_geom::{Point, Raster, Rect};
use hotspot_litho::{CountingOracle, Label, LithoSimulator};
use hotspot_nn::Matrix;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A fully generated benchmark: labels, features, and signatures for every
/// clip, with rasters regenerable on demand. It lives in memory only; the
/// same spec and seed regenerate it exactly.
///
/// See the [crate-level documentation](crate) for design rationale and an
/// example.
#[derive(Debug, Clone)]
pub struct GeneratedBenchmark {
    spec: BenchmarkSpec,
    recipes: Vec<ClipRecipe>,
    labels: Vec<Label>,
    origins: Vec<Point>,
    dct: Matrix,
    density: Matrix,
    signatures: Vec<Signature>,
    hotspot_count: usize,
}

/// One labelled candidate produced by the synthesis workers.
struct Candidate {
    recipe: ClipRecipe,
    label: Label,
    dct: Vec<f32>,
    density: Vec<f32>,
    signature: Signature,
}

impl GeneratedBenchmark {
    /// Generates a benchmark matching `spec` exactly, deterministically in
    /// `seed`.
    ///
    /// Candidates are synthesised in batches, labelled by the
    /// lithography simulator, and accepted until both class quotas are met;
    /// with some probability a candidate instead duplicates an earlier
    /// accepted clip (sharing its pattern and label).
    ///
    /// Each batch's candidates are labelled on all cores, but they are
    /// drawn and accepted serially and in order, so the benchmark is the
    /// same, bit for bit, whatever the core count.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::BadSpec`] for an invalid specification and
    /// [`LayoutError::GenerationStalled`] if the geometry windows cannot
    /// produce the requested labels (which would indicate a litho-model /
    /// generator mismatch — covered by tests).
    pub fn generate(spec: &BenchmarkSpec, seed: u64) -> Result<Self, LayoutError> {
        Self::generate_in_chunks(spec, seed, pool::workers())
    }

    /// [`GeneratedBenchmark::generate`], labelling each batch in up to
    /// `chunks` chunks.
    fn generate_in_chunks(
        spec: &BenchmarkSpec,
        seed: u64,
        chunks: usize,
    ) -> Result<Self, LayoutError> {
        spec.validate()?;
        let tech = spec.tech;
        let core = core_rect(spec);

        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mut recipes: Vec<ClipRecipe> = Vec::with_capacity(spec.total());
        let mut labels: Vec<Label> = Vec::with_capacity(spec.total());
        let mut dct_rows = Rows::new("DCT", spec.total());
        let mut density_rows = Rows::new("density", spec.total());
        let mut signatures: Vec<Signature> = Vec::with_capacity(spec.total());
        let mut fresh_indices: Vec<usize> = Vec::new();

        let mut hotspots = 0usize;
        let mut non_hotspots = 0usize;
        let mut attempts = 0usize;
        let max_attempts = spec.total().saturating_mul(40).max(10_000);

        while hotspots < spec.hotspots || non_hotspots < spec.non_hotspots {
            if attempts > max_attempts {
                return Err(LayoutError::GenerationStalled {
                    hotspots,
                    non_hotspots,
                    attempts,
                });
            }
            let need_hs = spec.hotspots - hotspots;
            let need_nhs = spec.non_hotspots - non_hotspots;
            // Fill at most half the remaining need per round (one clip
            // minimum) so later rounds can draw duplicates of earlier clips.
            let need = need_hs + need_nhs;
            let batch = need.div_ceil(2).clamp(1, 1024);

            // Duplicates are decided serially (they need the accepted list).
            let mut dup_quota = 0usize;
            if !fresh_indices.is_empty() {
                for _ in 0..batch {
                    if rng.gen_bool(spec.dup_rate) {
                        dup_quota += 1;
                    }
                }
            }
            let mut accepted_dups = 0usize;
            while accepted_dups < dup_quota
                && (hotspots < spec.hotspots || non_hotspots < spec.non_hotspots)
            {
                let source = fresh_indices[rng.gen_range(0..fresh_indices.len())];
                let label = labels[source];
                let fits = match label {
                    Label::Hotspot => hotspots < spec.hotspots,
                    Label::NonHotspot => non_hotspots < spec.non_hotspots,
                };
                accepted_dups += 1;
                if !fits {
                    continue;
                }
                recipes.push(ClipRecipe::Duplicate { source });
                labels.push(label);
                dct_rows.push_copy(source);
                density_rows.push_copy(source);
                signatures.push(signatures[source].clone());
                match label {
                    Label::Hotspot => hotspots += 1,
                    Label::NonHotspot => non_hotspots += 1,
                }
            }

            // Fresh candidates, synthesised and labelled in order.
            let fresh_batch = batch.saturating_sub(dup_quota).max(1);
            let specs: Vec<(ClipFamily, u64)> = (0..fresh_batch)
                .map(|_| {
                    let family = choose_family(&mut rng, spec, hotspots, non_hotspots);
                    let clip_seed = rng.gen::<u64>();
                    (family, clip_seed)
                })
                .collect();
            attempts += specs.len();
            let candidates =
                pool::map_chunks(specs, chunks, move |specs| label_chunk(tech, core, specs));
            for c in candidates {
                let fits = match c.label {
                    Label::Hotspot => hotspots < spec.hotspots,
                    Label::NonHotspot => non_hotspots < spec.non_hotspots,
                };
                if !fits {
                    continue;
                }
                fresh_indices.push(recipes.len());
                recipes.push(c.recipe);
                labels.push(c.label);
                dct_rows.push(&c.dct)?;
                density_rows.push(&c.density)?;
                signatures.push(c.signature);
                match c.label {
                    Label::Hotspot => hotspots += 1,
                    Label::NonHotspot => non_hotspots += 1,
                }
            }
        }

        // Shuffle clip order so labels are not grouped by generation phase,
        // then lay clips out on a square grid for the layout map (Fig. 5).
        let mut order: Vec<usize> = (0..recipes.len()).collect();
        use rand::seq::SliceRandom;
        order.shuffle(&mut rng);
        let mut remap = vec![0usize; order.len()];
        for (new_idx, &old_idx) in order.iter().enumerate() {
            remap[old_idx] = new_idx;
        }
        let recipes: Vec<ClipRecipe> = order
            .iter()
            .map(|&i| match recipes[i] {
                ClipRecipe::Duplicate { source } => ClipRecipe::Duplicate {
                    source: remap[source],
                },
                fresh => fresh,
            })
            .collect();
        let labels: Vec<Label> = order.iter().map(|&i| labels[i]).collect();
        let mut signatures: Vec<Option<Signature>> = signatures.into_iter().map(Some).collect();
        let signatures: Vec<Signature> =
            order.iter().filter_map(|&i| signatures[i].take()).collect();

        let grid = (recipes.len() as f64).sqrt().ceil() as usize;
        let edge = tech.clip_edge();
        let origins = (0..recipes.len())
            .map(|i| Point::new((i % grid) as i64 * edge, (i / grid) as i64 * edge))
            .collect();

        Ok(GeneratedBenchmark {
            spec: spec.clone(),
            recipes,
            labels,
            origins,
            dct: dct_rows.into_matrix(&order),
            density: density_rows.into_matrix(&order),
            signatures,
            hotspot_count: hotspots,
        })
    }

    /// The generating specification.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// Number of clips.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the benchmark is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Ground-truth labels (generation-time; experiments must meter access
    /// through [`GeneratedBenchmark::oracle`]).
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// Hotspot clip count.
    pub fn hotspot_count(&self) -> usize {
        self.hotspot_count
    }

    /// Non-hotspot clip count.
    pub fn non_hotspot_count(&self) -> usize {
        self.len() - self.hotspot_count
    }

    /// Block-DCT features of every clip (row = clip).
    pub fn dct_features(&self) -> &Matrix {
        &self.dct
    }

    /// Coarse density features of every clip (row = clip).
    pub fn density_features(&self) -> &Matrix {
        &self.density
    }

    /// Pattern signatures of every clip.
    pub fn signatures(&self) -> &[Signature] {
        &self.signatures
    }

    /// Layout-map origin of every clip (for the Fig. 5 visualisation).
    pub fn origins(&self) -> &[Point] {
        &self.origins
    }

    /// The clip recipes (pattern provenance).
    pub fn recipes(&self) -> &[ClipRecipe] {
        &self.recipes
    }

    /// A metered labelling oracle over this benchmark's ground truth.
    pub fn oracle(&self) -> CountingOracle {
        CountingOracle::new(self.labels.clone())
    }

    /// Regenerates the mask raster of clip `index` deterministically.
    ///
    /// # Panics
    ///
    /// Panics when `index` is out of range.
    pub fn clip_raster(&self, index: usize) -> Raster {
        assert!(
            index < self.len(),
            "clip {index} out of range ({} clips)",
            self.len()
        );
        match self.recipes[index] {
            ClipRecipe::Fresh { family, seed } => synthesize(self.spec.tech, family, seed),
            ClipRecipe::Duplicate { source } => self.clip_raster(source),
        }
    }

    /// The core region shared by all clips, in clip-local coordinates.
    pub fn core(&self) -> Rect {
        core_rect(&self.spec)
    }
}

/// Synthesises, labels and featurises one chunk of a batch's candidates,
/// in order.
fn label_chunk(tech: Tech, core: Rect, specs: &[(ClipFamily, u64)]) -> Vec<Candidate> {
    let sim = LithoSimulator::new(tech.litho_config());
    let extractor = FeatureExtractor::standard();
    specs
        .iter()
        .map(|&(family, seed)| {
            let raster = synthesize(tech, family, seed);
            Candidate {
                recipe: ClipRecipe::Fresh { family, seed },
                label: sim.label(&raster, core),
                dct: clip_features(&extractor, &raster, core),
                density: extractor.density_features(&raster),
                signature: Signature::from_raster(&raster, core),
            }
        })
        .collect()
}

/// Feature row of one clip: [`FeatureExtractor::clip_features`] of the core
/// crop (double effective resolution where defects count).
fn clip_features(extractor: &FeatureExtractor, raster: &Raster, core: Rect) -> Vec<f32> {
    let core_crop = raster.crop(&core).unwrap_or_else(|| raster.clone());
    extractor.clip_features(&core_crop)
}

/// The accepted clips' feature rows of one kind, in acceptance order, in
/// one row-major buffer: a row is copied in once on acceptance and once
/// more into its shuffled place in the final matrix.
struct Rows {
    kind: &'static str,
    capacity: usize,
    cols: Option<usize>,
    flat: Vec<f32>,
}

impl Rows {
    fn new(kind: &'static str, capacity: usize) -> Self {
        Rows {
            kind,
            capacity,
            cols: None,
            flat: Vec::new(),
        }
    }

    /// Appends a row; the first row fixes the width.
    fn push(&mut self, row: &[f32]) -> Result<(), LayoutError> {
        let cols = match self.cols {
            Some(cols) => cols,
            None => {
                self.flat.reserve_exact(self.capacity * row.len());
                *self.cols.insert(row.len())
            }
        };
        if row.len() != cols {
            return Err(LayoutError::BadSpec {
                detail: format!(
                    "non-uniform {} feature widths: expected {cols}, found {}",
                    self.kind,
                    row.len()
                ),
            });
        }
        self.flat.extend_from_slice(row);
        Ok(())
    }

    /// Appends a copy of row `source`.
    fn push_copy(&mut self, source: usize) {
        let cols = self.cols.unwrap_or(0);
        self.flat
            .extend_from_within(source * cols..(source + 1) * cols);
    }

    /// The matrix whose row `k` is row `order[k]`.
    fn into_matrix(self, order: &[usize]) -> Matrix {
        let cols = self.cols.unwrap_or(0);
        let mut flat = Vec::with_capacity(order.len() * cols);
        for &i in order {
            flat.extend_from_slice(&self.flat[i * cols..(i + 1) * cols]);
        }
        Matrix::from_flat(order.len(), cols, flat)
    }
}

fn core_rect(spec: &BenchmarkSpec) -> Rect {
    let lo = (spec.tech.clip_edge() - spec.tech.core_edge()) / 2;
    // core_edge is non-negative for every Tech, so spanning() needs no
    // fallible construction here.
    Rect::spanning(
        Point::new(lo, lo),
        Point::new(lo + spec.tech.core_edge(), lo + spec.tech.core_edge()),
    )
}

fn choose_family(
    rng: &mut ChaCha8Rng,
    spec: &BenchmarkSpec,
    hotspots: usize,
    non_hotspots: usize,
) -> ClipFamily {
    let need_hs = hotspots < spec.hotspots;
    let need_nhs = non_hotspots < spec.non_hotspots;
    let want_hotspot = match (need_hs, need_nhs) {
        (true, false) => true,
        (false, _) => false,
        (true, true) => {
            let remaining_hs = (spec.hotspots - hotspots) as f64;
            let remaining = (spec.total() - hotspots - non_hotspots) as f64;
            rng.gen_bool((remaining_hs / remaining).clamp(0.0, 1.0))
        }
    };
    if want_hotspot {
        if rng.gen_bool(0.5) {
            ClipFamily::Pinch
        } else {
            ClipFamily::Bridge
        }
    } else if rng.gen_bool(spec.near_miss_rate) {
        ClipFamily::NearMiss
    } else {
        ClipFamily::Safe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> BenchmarkSpec {
        BenchmarkSpec {
            name: "test".to_owned(),
            tech: crate::Tech::Euv7,
            hotspots: 12,
            non_hotspots: 48,
            dup_rate: 0.2,
            near_miss_rate: 0.3,
        }
    }

    #[test]
    fn generates_exact_counts() {
        let bench = GeneratedBenchmark::generate(&small_spec(), 3).unwrap();
        assert_eq!(bench.len(), 60);
        assert_eq!(bench.hotspot_count(), 12);
        assert_eq!(bench.non_hotspot_count(), 48);
        let hs = bench.labels().iter().filter(|l| l.is_hotspot()).count();
        assert_eq!(hs, 12);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = GeneratedBenchmark::generate(&small_spec(), 9).unwrap();
        let b = GeneratedBenchmark::generate(&small_spec(), 9).unwrap();
        assert_eq!(a.labels(), b.labels());
        assert_eq!(a.recipes(), b.recipes());
        assert_eq!(a.dct_features(), b.dct_features());
    }

    #[test]
    fn different_seeds_differ() {
        let a = GeneratedBenchmark::generate(&small_spec(), 1).unwrap();
        let b = GeneratedBenchmark::generate(&small_spec(), 2).unwrap();
        assert_ne!(a.recipes(), b.recipes());
    }

    #[test]
    fn rasters_regenerate_and_match_labels() {
        let bench = GeneratedBenchmark::generate(&small_spec(), 5).unwrap();
        let sim = LithoSimulator::new(bench.spec().tech.litho_config());
        for i in (0..bench.len()).step_by(7) {
            let raster = bench.clip_raster(i);
            assert_eq!(
                sim.label(&raster, bench.core()),
                bench.labels()[i],
                "clip {i} label mismatch on regeneration"
            );
        }
    }

    #[test]
    fn duplicates_share_signatures() {
        let bench = GeneratedBenchmark::generate(&small_spec(), 11).unwrap();
        let mut found_dup = false;
        for (i, recipe) in bench.recipes().iter().enumerate() {
            if let ClipRecipe::Duplicate { source } = recipe {
                found_dup = true;
                assert_eq!(bench.signatures()[i], bench.signatures()[*source]);
                assert_eq!(bench.labels()[i], bench.labels()[*source]);
            }
        }
        assert!(found_dup, "expected at least one duplicate at dup_rate 0.2");
    }

    #[test]
    fn features_have_expected_shapes() {
        let bench = GeneratedBenchmark::generate(&small_spec(), 3).unwrap();
        assert_eq!(bench.dct_features().rows(), bench.len());
        assert_eq!(bench.dct_features().cols(), 148);
        assert_eq!(bench.density_features().cols(), 16);
        assert_eq!(bench.signatures().len(), bench.len());
        assert_eq!(bench.origins().len(), bench.len());
    }

    #[test]
    fn oracle_reflects_ground_truth() {
        use hotspot_litho::LithoOracle;
        let bench = GeneratedBenchmark::generate(&small_spec(), 3).unwrap();
        let mut oracle = bench.oracle();
        for i in 0..bench.len() {
            assert_eq!(oracle.query(i), bench.labels()[i]);
        }
        assert_eq!(oracle.unique_queries(), bench.len());
    }

    #[test]
    fn labels_are_shuffled() {
        // Hotspots should not all sit at the front of the index space.
        let bench = GeneratedBenchmark::generate(&small_spec(), 3).unwrap();
        let first_quarter_hs = bench.labels()[..15]
            .iter()
            .filter(|l| l.is_hotspot())
            .count();
        assert!(first_quarter_hs < 12, "labels appear sorted by class");
    }

    #[test]
    fn chunk_count_does_not_change_the_benchmark() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let serial = GeneratedBenchmark::generate_in_chunks(&small_spec(), 7, 1).unwrap();
        for chunks in [2, 3, 7] {
            let chunked = GeneratedBenchmark::generate_in_chunks(&small_spec(), 7, chunks).unwrap();
            assert_eq!(chunked.labels(), serial.labels(), "{chunks} chunks");
            assert_eq!(chunked.recipes(), serial.recipes(), "{chunks} chunks");
            assert_eq!(chunked.origins(), serial.origins(), "{chunks} chunks");
            assert_eq!(chunked.signatures(), serial.signatures(), "{chunks} chunks");
            assert_eq!(
                bits(chunked.dct_features()),
                bits(serial.dct_features()),
                "{chunks} chunks"
            );
            assert_eq!(
                bits(chunked.density_features()),
                bits(serial.density_features()),
                "{chunks} chunks"
            );
        }
    }

    #[test]
    fn zero_hotspot_benchmark_works() {
        let spec = BenchmarkSpec {
            name: "empty-hs".to_owned(),
            tech: crate::Tech::Euv7,
            hotspots: 0,
            non_hotspots: 20,
            dup_rate: 0.1,
            near_miss_rate: 0.3,
        };
        let bench = GeneratedBenchmark::generate(&spec, 0).unwrap();
        assert_eq!(bench.hotspot_count(), 0);
        assert_eq!(bench.len(), 20);
    }
}
