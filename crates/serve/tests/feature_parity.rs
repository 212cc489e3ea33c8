//! Train/serve feature parity: `/score`'s raster path must compute, bit for
//! bit, the feature row benchmark generation stored for the same clip when
//! handed that clip's core crop.

use hotspot_layout::{BenchmarkSpec, GeneratedBenchmark};
use hotspot_serve::Scorer;

fn bits(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

#[test]
fn raster_features_of_each_core_crop_equal_the_generated_rows() {
    let spec = BenchmarkSpec::iccad16_2().scaled(0.05);
    let bench = GeneratedBenchmark::generate(&spec, 5).expect("generation succeeds");
    let scorer = Scorer::from_benchmark(&bench, 5, 1).expect("scorer trains");
    let core = bench.core();
    for i in 0..bench.len() {
        let crop = bench
            .clip_raster(i)
            .crop(&core)
            .expect("core lies inside the clip");
        let served = scorer
            .raster_features(crop.width(), crop.height(), crop.pixels())
            .expect("core crop is a valid raster");
        assert_eq!(bits(&served), bits(bench.dct_features().row(i)), "clip {i}");
    }
}
