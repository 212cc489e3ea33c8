//! Cross-crate determinism: every stage of the pipeline must be exactly
//! reproducible from its seeds, which is what makes the experiment harness's
//! numbers citable.

use lithohd::active::{
    standardized_dct, BatchSelector, EntropySelector, HotspotModel, SamplingConfig,
    SamplingFramework, SelectionContext,
};
use lithohd::baselines::QpSelector;
use lithohd::gmm::{GaussianMixture, GmmConfig};
use lithohd::layout::{BenchmarkSpec, ClipFamily, ClipRecipe, GeneratedBenchmark, Tech};

use hotspot_serve::Scorer;

fn spec() -> BenchmarkSpec {
    spec_for(Tech::Duv28)
}

fn spec_for(tech: Tech) -> BenchmarkSpec {
    BenchmarkSpec {
        name: "determinism".to_owned(),
        tech,
        hotspots: 12,
        non_hotspots: 108,
        dup_rate: 0.2,
        near_miss_rate: 0.3,
    }
}

#[test]
fn generation_is_bit_exact_across_runs() {
    let a = GeneratedBenchmark::generate(&spec(), 31).expect("generation succeeds");
    let b = GeneratedBenchmark::generate(&spec(), 31).expect("generation succeeds");
    assert_eq!(a.labels(), b.labels());
    assert_eq!(a.recipes(), b.recipes());
    assert_eq!(a.dct_features().as_slice(), b.dct_features().as_slice());
    assert_eq!(a.signatures(), b.signatures());
}

/// 64-bit FNV-1a, spelled out here so the digest never depends on a
/// library hasher whose output may change between releases.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Digest of everything generation computes from simulation and feature
/// extraction: labels, recipes, the bits of every DCT and density feature,
/// and each signature's core-density grid. `exact_hash` is left out because
/// it comes from `DefaultHasher`, whose output is not stable across Rust
/// releases.
fn generation_digest(bench: &GeneratedBenchmark) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(bench.len() as u64);
    for label in bench.labels() {
        h.bytes(&[u8::from(label.is_hotspot())]);
    }
    for recipe in bench.recipes() {
        match *recipe {
            ClipRecipe::Fresh { family, seed } => {
                let family = match family {
                    ClipFamily::Safe => 0u8,
                    ClipFamily::NearMiss => 1,
                    ClipFamily::Pinch => 2,
                    ClipFamily::Bridge => 3,
                };
                h.bytes(&[0, family]);
                h.u64(seed);
            }
            ClipRecipe::Duplicate { source } => {
                h.bytes(&[1]);
                h.u64(source as u64);
            }
        }
    }
    for features in [bench.dct_features(), bench.density_features()] {
        h.u64(features.cols() as u64);
        for &v in features.as_slice() {
            h.bytes(&v.to_bits().to_le_bytes());
        }
    }
    for signature in bench.signatures() {
        h.bytes(&signature.core_density);
    }
    h.0
}

/// Pins generation to digests taken before the labelling kernels were
/// rewritten, so any change to a label, feature bit or density grid fails
/// here rather than only when this code is compared with itself.
#[test]
fn generation_matches_pinned_digest() {
    for (tech, expected) in [
        (Tech::Duv28, 0xcc1e_7d0e_09cf_eb14u64),
        (Tech::Euv7, 0x8ee4_c36e_c030_4bc8u64),
    ] {
        let bench = GeneratedBenchmark::generate(&spec_for(tech), 31).expect("generation succeeds");
        let digest = generation_digest(&bench);
        assert_eq!(
            digest, expected,
            "{tech:?} generation digest {digest:#018x} differs from the pinned value"
        );
    }
}

/// Pins what `generation_digest` leaves out: every clip's layout-map origin
/// and the exact-pattern clustering that `Signature::exact_hash` induces.
/// The partition is hashed as, for each clip, the index of the first clip
/// with an equal `exact_hash`, so the digest does not depend on the raw
/// `DefaultHasher` values, which may change between Rust releases.
#[test]
fn generation_layout_matches_pinned_digest() {
    let mut h = Fnv1a::new();
    for tech in [Tech::Duv28, Tech::Euv7] {
        let bench = GeneratedBenchmark::generate(&spec_for(tech), 31).expect("generation succeeds");
        h.u64(bench.origins().len() as u64);
        for origin in bench.origins() {
            h.u64(origin.x as u64);
            h.u64(origin.y as u64);
        }
        let mut first_with_hash = std::collections::HashMap::new();
        for (i, signature) in bench.signatures().iter().enumerate() {
            let first = *first_with_hash.entry(signature.exact_hash).or_insert(i);
            h.u64(first as u64);
        }
    }
    let expected = 0x336c_8f5f_5277_71a5u64;
    assert_eq!(
        h.0, expected,
        "generation layout digest {:#018x} differs from the pinned value",
        h.0
    );
}

fn f32_bits(h: &mut Fnv1a, values: &[f32]) {
    h.u64(values.len() as u64);
    for &v in values {
        h.bytes(&v.to_bits().to_le_bytes());
    }
}

/// Pins classifier training to a digest taken before the optimiser code was
/// reduced to plain Adam: the logits and embeddings `predict` returns, every
/// weight buffer, and Adam's step count and moments, after an initial fit
/// and an incremental update (Algorithm 2's two kinds of training call).
#[test]
fn training_matches_pinned_digest() {
    let bench = GeneratedBenchmark::generate(&spec(), 31).expect("generation succeeds");
    let (x, _, _) = standardized_dct(&bench);
    let labels: Vec<usize> = bench
        .labels()
        .iter()
        .map(|l| usize::from(l.is_hotspot()))
        .collect();
    let mut model = HotspotModel::new(x.cols(), 11, 1.0, 1e-3, 32);
    model.train(&x, &labels, 12, 5).expect("training succeeds");
    model.train(&x, &labels, 4, 6).expect("training succeeds");

    let mut h = Fnv1a::new();
    let (logits, embeddings) = model.predict(&x);
    f32_bits(&mut h, logits.as_slice());
    f32_bits(&mut h, embeddings.as_slice());
    let state = model.state();
    for (kind, buffers) in state.snapshot.layer_parts() {
        h.bytes(kind.as_bytes());
        for buffer in buffers {
            f32_bits(&mut h, buffer);
        }
    }
    h.u64(state.optimizer.step);
    for (slot, m, v) in &state.optimizer.moments {
        h.u64(*slot as u64);
        f32_bits(&mut h, m);
        f32_bits(&mut h, v);
    }
    let expected = 0x46d6_ddde_8327_6213u64;
    assert_eq!(
        h.0, expected,
        "training digest {:#018x} differs from the pinned value",
        h.0
    );
}

/// Pins the QP baseline's picks (Yang et al., the `qp` method): the clips
/// `QpSelector::select` returns over the embeddings and logits of the model
/// `training_matches_pinned_digest` trains, for several batch sizes and
/// diversity trade-offs. A faster solver must still choose the same clips.
#[test]
fn qp_picks_match_pinned_digest() {
    let bench = GeneratedBenchmark::generate(&spec(), 31).expect("generation succeeds");
    let (x, _, _) = standardized_dct(&bench);
    let labels: Vec<usize> = bench
        .labels()
        .iter()
        .map(|l| usize::from(l.is_hotspot()))
        .collect();
    let mut model = HotspotModel::new(x.cols(), 11, 1.0, 1e-3, 32);
    model.train(&x, &labels, 12, 5).expect("training succeeds");
    model.train(&x, &labels, 4, 6).expect("training succeeds");
    let (logits, embeddings) = model.predict(&x);
    let probabilities = vec![0.5f32; 2 * logits.rows()];

    let mut h = Fnv1a::new();
    for lambda in [0.0, 1.0] {
        for k in [1usize, 10, 25] {
            let config = SamplingConfig {
                batch: k,
                boundary_h: 0.5,
                ..SamplingConfig::for_benchmark(x.rows())
            };
            let ctx = SelectionContext::new(&logits, &probabilities, &embeddings, &config, 0);
            let picked = QpSelector::with_lambda(lambda).select(&ctx);
            h.u64(picked.len() as u64);
            for i in picked {
                h.u64(i as u64);
            }
        }
    }
    let expected = 0x958f_4cd9_7c1e_0ac0u64;
    assert_eq!(
        h.0, expected,
        "QP pick digest {:#018x} differs from the pinned value",
        h.0
    );
}

/// Pins the checkpoint's model section: the bytes `hotspot_store` encodes
/// for the state of the model `training_matches_pinned_digest` trains
/// (layer kinds and weights, then Adam's step and moments in slot order,
/// then the training-call count). A checkpoint written before a change to
/// the network code must still decode and resume after it.
#[test]
fn model_section_matches_pinned_digest() {
    let bench = GeneratedBenchmark::generate(&spec(), 31).expect("generation succeeds");
    let (x, _, _) = standardized_dct(&bench);
    let labels: Vec<usize> = bench
        .labels()
        .iter()
        .map(|l| usize::from(l.is_hotspot()))
        .collect();
    let mut model = HotspotModel::new(x.cols(), 11, 1.0, 1e-3, 32);
    model.train(&x, &labels, 12, 5).expect("training succeeds");
    model.train(&x, &labels, 4, 6).expect("training succeeds");

    let mut h = Fnv1a::new();
    h.bytes(&hotspot_store::encode_to_vec(&model.state()));
    let expected = 0x1e3d_3e5d_c855_09b7u64;
    assert_eq!(
        h.0, expected,
        "model-section digest {:#018x} differs from the pinned value",
        h.0
    );
}

/// A stacked `/score` batch returns, bit for bit, what each of its rows
/// returns alone: the property that lets the serving micro-batcher coalesce
/// concurrent requests without changing any answer.
#[test]
fn batched_scores_are_bit_identical_to_single_rows() {
    let bench = GeneratedBenchmark::generate(&spec(), 31).expect("generation succeeds");
    let scorer = Scorer::from_benchmark(&bench, 31, 2).expect("scorer trains");
    let features = bench.dct_features();
    let rows: Vec<Vec<f32>> = (0..features.rows())
        .map(|i| features.row(i).to_vec())
        .collect();
    let bits = |score: &hotspot_serve::ClipScore| -> Vec<u32> {
        [score.probability, score.bvsb, score.uncertainty]
            .iter()
            .chain(&score.logits)
            .chain(&score.scaled_logits)
            .map(|v| v.to_bits())
            .collect()
    };
    let batched = scorer.score_rows(&rows).expect("rows score");
    assert_eq!(batched.len(), rows.len());
    for (i, row) in rows.iter().enumerate() {
        let single = scorer
            .score_rows(std::slice::from_ref(row))
            .expect("row scores");
        assert_eq!(bits(&batched[i]), bits(&single[0]), "row {i} diverges");
    }
}

/// Pins serving to a digest taken before the training and serving
/// standardisation paths were merged: every field of the `ClipScore` that
/// `score_rows` returns for each raw DCT row of the benchmark.
#[test]
fn scoring_matches_pinned_digest() {
    let bench = GeneratedBenchmark::generate(&spec(), 31).expect("generation succeeds");
    let scorer = Scorer::from_benchmark(&bench, 31, 2).expect("scorer trains");
    let features = bench.dct_features();
    let rows: Vec<Vec<f32>> = (0..features.rows())
        .map(|i| features.row(i).to_vec())
        .collect();
    let scores = scorer.score_rows(&rows).expect("rows score");

    let mut h = Fnv1a::new();
    h.u64(scores.len() as u64);
    for score in &scores {
        f32_bits(&mut h, &[score.probability]);
        f32_bits(&mut h, &score.logits);
        f32_bits(&mut h, &score.scaled_logits);
        f32_bits(&mut h, &[score.bvsb, score.uncertainty]);
    }
    let expected = 0x8e76_c4dd_e651_1ea2u64;
    assert_eq!(
        h.0, expected,
        "scoring digest {:#018x} differs from the pinned value",
        h.0
    );
}

#[test]
fn full_runs_are_bit_exact_across_invocations() {
    let bench = GeneratedBenchmark::generate(&spec(), 31).expect("generation succeeds");
    let mut config = SamplingConfig::for_benchmark(bench.len());
    config.iterations = 3;
    config.initial_epochs = 20;
    config.update_epochs = 8;
    let framework = SamplingFramework::new(config);
    let a = framework
        .run(&bench, &mut EntropySelector::new(), 77)
        .expect("run succeeds");
    let b = framework
        .run(&bench, &mut EntropySelector::new(), 77)
        .expect("run succeeds");
    assert_eq!(a.metrics, b.metrics);
    assert_eq!(a.history, b.history);
    assert_eq!(a.sampled_indices, b.sampled_indices);
    assert_eq!(a.predicted_hotspots, b.predicted_hotspots);
    assert_eq!(a.final_temperature, b.final_temperature);
}

#[test]
fn different_seeds_change_outcomes() {
    let bench = GeneratedBenchmark::generate(&spec(), 31).expect("generation succeeds");
    let mut config = SamplingConfig::for_benchmark(bench.len());
    config.iterations = 3;
    config.initial_epochs = 20;
    config.update_epochs = 8;
    let framework = SamplingFramework::new(config);
    let a = framework
        .run(&bench, &mut EntropySelector::new(), 1)
        .expect("run succeeds");
    let b = framework
        .run(&bench, &mut EntropySelector::new(), 2)
        .expect("run succeeds");
    assert_ne!(
        a.sampled_indices, b.sampled_indices,
        "different seeds should explore differently"
    );
}

#[test]
fn gmm_scores_are_deterministic_over_generated_features() {
    let bench = GeneratedBenchmark::generate(&spec(), 31).expect("generation succeeds");
    let fit = |seed| {
        GaussianMixture::fit(
            bench.density_features().as_slice(),
            bench.density_features().cols(),
            &GmmConfig {
                components: 3,
                seed,
                ..GmmConfig::default()
            },
        )
        .expect("fit succeeds")
    };
    let a = fit(5);
    let b = fit(5);
    assert_eq!(
        a.score_samples(bench.density_features().as_slice()),
        b.score_samples(bench.density_features().as_slice())
    );
}
