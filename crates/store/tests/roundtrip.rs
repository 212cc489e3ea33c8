//! Property tests: `decode ∘ encode` is the identity for every snapshot
//! section type, and a full [`CheckpointBundle`] survives the file format
//! and the store.

use hotspot_active::{DatasetCheckpoint, IterationStats, ModelState, RunCheckpoint, RunFaultStats};
use hotspot_litho::{
    FaultInjectionStats, FaultMeterState, Label, OracleStateSnapshot, OracleStats, RetryMeterState,
};
use hotspot_nn::{AdamState, NetworkSnapshot};
use hotspot_store::{
    decode_from_slice, encode_to_vec, CheckpointBundle, CheckpointStore, Restore, Snapshot,
};
use hotspot_telemetry::{HistogramState, JournalPosition, MetricsState};
use proptest::prelude::*;

fn round_trip<T>(value: &T) -> T
where
    T: Snapshot + Restore,
{
    decode_from_slice(&encode_to_vec(value), "round trip").expect("decode must succeed")
}

fn label(hot: bool) -> Label {
    if hot {
        Label::Hotspot
    } else {
        Label::NonHotspot
    }
}

proptest! {
    #[test]
    fn labels_round_trip(hot in any::<bool>()) {
        let v = label(hot);
        prop_assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn oracle_stats_round_trip(
        (unique, total) in (any::<u64>(), any::<u64>()),
        (retries, giveups, quorum_votes) in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let v = OracleStats {
            unique: unique as usize,
            total: total as usize,
            retries: retries as usize,
            giveups: giveups as usize,
            quorum_votes: quorum_votes as usize,
        };
        prop_assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn oracle_state_snapshot_round_trips(
        cache in proptest::collection::vec((0usize..10_000, any::<bool>()), 0..32),
        (total, resim) in (0usize..100_000, 0usize..1000),
        with_retry in any::<bool>(),
        attempts in proptest::collection::vec((0usize..10_000, any::<u64>()), 0..16),
    ) {
        let v = OracleStateSnapshot {
            cache: cache.into_iter().map(|(i, hot)| (i, label(hot))).collect(),
            total,
            resimulations: resim,
            retry: with_retry.then_some(RetryMeterState {
                retries: 3,
                giveups: 1,
                quorum_votes: 9,
            }),
            fault: Some(FaultMeterState {
                attempts,
                injected: FaultInjectionStats {
                    transients: 1,
                    timeouts: 2,
                    corruptions: 3,
                    flips: 4,
                    permanents: 5,
                },
            }),
        };
        prop_assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn dataset_checkpoint_round_trips(
        labeled in proptest::collection::vec(any::<usize>(), 0..64),
        labeled_classes in proptest::collection::vec(0usize..2, 0..64),
        validation in proptest::collection::vec(any::<usize>(), 0..64),
        validation_classes in proptest::collection::vec(0usize..2, 0..64),
    ) {
        let v = DatasetCheckpoint { labeled, labeled_classes, validation, validation_classes };
        prop_assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn model_state_round_trips(
        weights in proptest::collection::vec(-2.0f32..2.0, 1..64),
        moments in proptest::collection::vec(-1.0f32..1.0, 1..64),
        (step, steps_trained) in (any::<u64>(), 0usize..10_000),
    ) {
        let v = ModelState {
            snapshot: NetworkSnapshot::from_layer_parts(vec![
                ("dense".to_owned(), vec![weights.clone(), vec![0.5; 4]]),
                ("relu".to_owned(), Vec::new()),
            ]),
            optimizer: AdamState {
                step,
                moments: vec![(0, moments.clone(), moments)],
            },
            steps_trained,
        };
        prop_assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn iteration_stats_round_trip(
        (iteration, labeled_size, batch_hotspots, failed_labels) in
            (1usize..100, 0usize..10_000, 0usize..100, 0usize..100),
        (temperature, train_loss, ece) in (0.1f64..10.0, 0.0f64..5.0, 0.0f64..1.0),
        weights in (any::<bool>(), 0.0f64..1.0, 0.0f64..1.0),
    ) {
        let v = IterationStats {
            iteration,
            temperature,
            weights: weights.0.then_some((weights.1, weights.2)),
            batch_hotspots,
            labeled_size,
            train_loss,
            ece,
            failed_labels,
        };
        prop_assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn metrics_state_round_trips(
        counters in proptest::collection::vec(any::<u64>(), 0..8),
        buckets in proptest::collection::vec(any::<u64>(), 0..16),
        (count, sum_bits, min_bits, max_bits) in
            (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let v = MetricsState {
            counters: counters
                .iter()
                .enumerate()
                .map(|(i, &c)| (format!("counter.{i}"), c))
                .collect(),
            gauges: vec![("gauge.one".to_owned(), sum_bits)],
            histograms: vec![HistogramState {
                name: "hist.one".to_owned(),
                buckets,
                count,
                sum_bits,
                min_bits,
                max_bits,
            }],
        };
        prop_assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn journal_position_round_trips((bytes, seq) in (any::<u64>(), any::<u64>())) {
        let v = JournalPosition { bytes, seq };
        prop_assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn fault_stats_round_trip(
        tallies in (any::<u64>(), any::<u64>(), any::<u64>()),
        more in (any::<u64>(), any::<u64>(), any::<u64>()),
    ) {
        let v = RunFaultStats {
            label_failures: tallies.0 as usize,
            oracle_retries: tallies.1 as usize,
            oracle_giveups: tallies.2 as usize,
            quorum_votes: more.0 as usize,
            nan_rollbacks: more.1 as usize,
            temperature_fallbacks: more.2 as usize,
        };
        prop_assert_eq!(round_trip(&v), v);
    }
}

/// A small but fully populated checkpoint, exercising every section.
fn sample_checkpoint(seed: u64) -> RunCheckpoint {
    RunCheckpoint {
        iteration: 3,
        seed,
        run_id: 17,
        total: 40,
        by_score: (0..40).rev().collect(),
        dataset: DatasetCheckpoint {
            labeled: vec![1, 3, 5, 7],
            labeled_classes: vec![0, 1, 0, 1],
            validation: vec![2, 4],
            validation_classes: vec![1, 0],
        },
        model: ModelState {
            snapshot: NetworkSnapshot::from_layer_parts(vec![(
                "dense".to_owned(),
                vec![vec![0.25f32; 8], vec![-0.5f32; 2]],
            )]),
            optimizer: AdamState {
                step: 42,
                moments: vec![(0, vec![0.1; 8], vec![0.2; 8])],
            },
            steps_trained: 420,
        },
        ece_before: 0.21,
        history: vec![IterationStats {
            iteration: 1,
            temperature: 1.1,
            weights: Some((0.4, 0.6)),
            batch_hotspots: 2,
            labeled_size: 8,
            train_loss: 0.3,
            ece: 0.05,
            failed_labels: 0,
        }],
        fault_stats: RunFaultStats::default(),
        stats_before: OracleStats::default(),
        oracle_calls_before: 11,
        oracle: Some(OracleStateSnapshot {
            cache: vec![(1, Label::Hotspot), (3, Label::NonHotspot)],
            total: 6,
            resimulations: 0,
            retry: None,
            fault: None,
        }),
    }
}

#[test]
fn full_bundle_survives_file_and_store() {
    let bundle = CheckpointBundle {
        run: sample_checkpoint(99),
        metrics: MetricsState {
            counters: vec![("litho.oracle.calls".to_owned(), 11)],
            gauges: Vec::new(),
            histograms: Vec::new(),
        },
        run_id_watermark: 17,
        journal: Some(JournalPosition {
            bytes: 4096,
            seq: 120,
        }),
        progress: vec![1, 2, 3],
    };

    // Through the section file…
    let restored = CheckpointBundle::from_file(&bundle.to_file()).expect("bundle decodes");
    assert_eq!(restored, bundle);

    // …and through a real store directory.
    let dir = std::env::temp_dir().join(format!("hotspot-store-bundle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = CheckpointStore::open(&dir).expect("store opens");
    store.save(1, &bundle.to_file()).expect("save commits");
    let (key, file) = store
        .load_latest()
        .expect("load_latest scans")
        .expect("one checkpoint present");
    assert_eq!(key, 1);
    assert_eq!(
        CheckpointBundle::from_file(&file).expect("bundle decodes"),
        bundle
    );
    let _ = std::fs::remove_dir_all(&dir);
}
