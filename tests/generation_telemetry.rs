//! Benchmark generation's effect on the process-wide telemetry counters.
//! Serving generates its benchmarks on silenced threads, so generation must
//! leave no `kernel.*` count behind there, whichever threads do the work;
//! unsilenced, it must book exactly the kernel calls it makes. This is its
//! own test binary so that no concurrently running test moves the global
//! counters between the snapshots taken here.

use std::sync::{Mutex, PoisonError};

use hotspot_telemetry::{names, silence_thread, snapshot, MetricsSnapshot};
use lithohd::layout::{BenchmarkSpec, GeneratedBenchmark, Tech};

/// Serialises the tests of this binary: each compares two snapshots of
/// the same global counters.
static SERIAL: Mutex<()> = Mutex::new(());

/// The spec `tests/determinism.rs` pins its generation digests on.
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

fn kernel_counters(snap: &MetricsSnapshot) -> Vec<(String, u64)> {
    snap.counters
        .iter()
        .filter(|(name, _)| name.starts_with("kernel."))
        .cloned()
        .collect()
}

fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot, name: &str) -> u64 {
    after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)
}

#[test]
fn silenced_generation_leaves_kernel_counters_unchanged() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Register the counters first, so a leak shows as a changed value
    // rather than as a counter appearing.
    GeneratedBenchmark::generate(&spec_for(Tech::Euv7), 5).expect("generation succeeds");
    let before = kernel_counters(&snapshot());
    assert!(!before.is_empty(), "generation books kernel counters");
    {
        let _silence = silence_thread();
        for tech in [Tech::Duv28, Tech::Euv7] {
            GeneratedBenchmark::generate(&spec_for(tech), 31).expect("generation succeeds");
        }
    }
    assert_eq!(kernel_counters(&snapshot()), before);
}

#[test]
fn generation_books_pinned_kernel_call_counts() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let before = snapshot();
    GeneratedBenchmark::generate(&spec_for(Tech::Duv28), 31).expect("generation succeeds");
    let after = snapshot();
    // One aerial image and 16 DCT blocks (the 4 × 4 tiling of the 32 × 32
    // feature raster) per synthesised candidate, 109 candidates in all.
    assert_eq!(delta(&before, &after, names::KERNEL_AERIAL_CALLS), 109);
    assert_eq!(delta(&before, &after, names::KERNEL_DCT_CALLS), 16 * 109);
}
