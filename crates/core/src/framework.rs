use crate::{
    diversity_scores, uncertainty_scores, ActiveDataset, ActiveError, BatchSelector,
    CheckpointHook, DatasetCheckpoint, HotspotModel, NoCheckpoint, PshdMetrics, RunCheckpoint,
    SamplingConfig, SelectionContext,
};
use hotspot_calibration::{ReliabilityDiagram, Temperature};
use hotspot_gmm::{GaussianMixture, GmmConfig};
use hotspot_layout::GeneratedBenchmark;
use hotspot_litho::{Label, LithoOracle, OracleStats};
use hotspot_nn::Matrix;
use hotspot_telemetry as telemetry;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::{Duration, Instant};

/// Telemetry of one sampling iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationStats {
    /// Iteration number (1-based).
    pub iteration: usize,
    /// Fitted softmax temperature for this iteration.
    pub temperature: f64,
    /// Dynamic `(ω₁, ω₂)` if the selector reports them.
    pub weights: Option<(f64, f64)>,
    /// Hotspots found in the sampled batch.
    pub batch_hotspots: usize,
    /// Labelled-set size after the iteration.
    pub labeled_size: usize,
    /// Final training loss of the update step.
    pub train_loss: f64,
    /// Validation ECE at this iteration's fitted temperature (Eq. 3).
    pub ece: f64,
    /// Batch members whose label never arrived; they were returned to the
    /// unlabeled pool and the iteration proceeded with the partial batch.
    pub failed_labels: usize,
}

/// Fault-handling telemetry of one full run: what the degradation-aware
/// Algorithm-2 loop absorbed instead of aborting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunFaultStats {
    /// Labelling attempts that terminally failed; the affected clips were
    /// returned to the unlabeled pool (initial split, top-up, and batch
    /// members combined).
    pub label_failures: usize,
    /// Oracle retries absorbed during this run (retry-wrapper meter delta).
    pub oracle_retries: usize,
    /// Oracle giveups during this run (retry-wrapper meter delta).
    pub oracle_giveups: usize,
    /// Quorum votes cast during this run.
    pub quorum_votes: usize,
    /// Training updates rolled back because the loss went non-finite.
    pub nan_rollbacks: usize,
    /// Temperature fits that failed and fell back to `T = 1`.
    pub temperature_fallbacks: usize,
}

impl RunFaultStats {
    /// Whether the run had to degrade: labels were lost, a training update
    /// was rolled back, or calibration fell back to the identity
    /// temperature. Absorbed retries and quorum votes alone do not degrade
    /// a run — they only cost simulations.
    pub fn is_degraded(&self) -> bool {
        self.label_failures > 0
            || self.oracle_giveups > 0
            || self.nan_rollbacks > 0
            || self.temperature_fallbacks > 0
    }
}

/// The result of one full PSHD run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Evaluation metrics (Eq. 1–2).
    pub metrics: PshdMetrics,
    /// Per-iteration telemetry.
    pub history: Vec<IterationStats>,
    /// Temperature used for the final detection pass.
    pub final_temperature: f64,
    /// Validation ECE before calibration (T = 1).
    pub ece_before: f64,
    /// Validation ECE after temperature scaling.
    pub ece_after: f64,
    /// Name of the batch selector used.
    pub selector: String,
    /// Wall-clock time of the PSHD computation (excluding benchmark
    /// generation; litho cost is counted in clips, not seconds).
    pub elapsed: Duration,
    /// Benchmark indices of labelled clips (train + validation) — the
    /// litho-sampled positions of Fig. 5.
    pub sampled_indices: Vec<usize>,
    /// Benchmark indices the detector flagged in the unlabeled pool.
    pub predicted_hotspots: Vec<usize>,
    /// This run's oracle-meter delta (cross-checks Eq. 2: `unique` equals
    /// train + val labels plus billable quorum re-simulations).
    pub oracle_stats: OracleStats,
    /// Process-unique id tagging this run's telemetry events.
    pub run_id: u64,
    /// What the fault-tolerance layer absorbed during this run.
    pub fault_stats: RunFaultStats,
    /// Whether the run degraded (lost labels, rolled back a divergent
    /// update, or fell back to `T = 1`); see [`RunFaultStats::is_degraded`].
    pub degraded: bool,
}

/// Algorithm 2 of the paper: the overall pattern-sampling and hotspot-
/// detection flow.
///
/// See the [crate-level example](crate) for usage and DESIGN.md for the
/// paper-to-code mapping.
#[derive(Debug, Clone)]
pub struct SamplingFramework {
    config: SamplingConfig,
}

impl SamplingFramework {
    /// Creates a framework with the given configuration.
    pub fn new(config: SamplingConfig) -> Self {
        SamplingFramework { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SamplingConfig {
        &self.config
    }

    /// Runs the full flow on a generated benchmark with the given batch
    /// selector, deterministically in `seed`, against the benchmark's own
    /// fault-free metered oracle.
    ///
    /// # Errors
    ///
    /// Returns [`ActiveError::BenchmarkTooSmall`] when the initial split
    /// does not fit, and propagates substrate errors.
    pub fn run(
        &self,
        bench: &GeneratedBenchmark,
        selector: &mut dyn BatchSelector,
        seed: u64,
    ) -> Result<RunOutcome, ActiveError> {
        self.run_with_oracle(bench, selector, seed, &mut bench.oracle())
    }

    /// Runs the full flow against an explicit oracle — the degradation-aware
    /// entry point for fault-tolerant deployments (wrap the benchmark oracle
    /// in [`hotspot_litho::FaultyOracle`] / [`hotspot_litho::RetryOracle`]).
    ///
    /// The loop does not die on oracle faults: batch members whose label
    /// terminally fails are returned to the unlabeled pool (Algorithm 2
    /// keeps unselected query samples, and a failed label is treated the
    /// same way), the iteration proceeds with the partial batch, a
    /// non-finite training loss rolls the model back to its last good
    /// snapshot, and a failed temperature fit falls back to `T = 1`. The
    /// outcome's [`RunOutcome::fault_stats`] and [`RunOutcome::degraded`]
    /// report what was absorbed.
    ///
    /// For exact per-run Eq. 2 accounting pass a fresh oracle (or accept
    /// that [`RunOutcome::oracle_stats`] is the meter *delta* over this
    /// run).
    ///
    /// # Errors
    ///
    /// Returns [`ActiveError::BenchmarkTooSmall`] when the initial split
    /// does not fit, and propagates substrate errors.
    pub fn run_with_oracle<O: LithoOracle + ?Sized>(
        &self,
        bench: &GeneratedBenchmark,
        selector: &mut dyn BatchSelector,
        seed: u64,
        oracle: &mut O,
    ) -> Result<RunOutcome, ActiveError> {
        self.run_with_oracle_checkpointed(bench, selector, seed, oracle, &mut NoCheckpoint)
    }

    /// [`SamplingFramework::run_with_oracle`] with durable-run support: the
    /// [`CheckpointHook`] is offered a [`RunCheckpoint`] at each iteration
    /// boundary and may supply one to resume from.
    ///
    /// A resumed run skips the whole pre-loop phase — no re-billed split
    /// labels, no duplicate journal events — and continues bit-identically
    /// to the uninterrupted run: same selections, same metrics, same Eq. 2
    /// Litho#. The framework validates that the checkpoint matches this
    /// run's seed and benchmark shape, and that the oracle accepts its
    /// persisted cache, refusing to resume otherwise.
    ///
    /// # Errors
    ///
    /// Everything [`SamplingFramework::run_with_oracle`] returns, plus
    /// [`ActiveError::Checkpoint`] for mismatched or unusable resume state
    /// and whatever [`CheckpointHook::save`] propagates.
    pub fn run_with_oracle_checkpointed<O: LithoOracle + ?Sized>(
        &self,
        bench: &GeneratedBenchmark,
        selector: &mut dyn BatchSelector,
        seed: u64,
        oracle: &mut O,
        hook: &mut dyn CheckpointHook,
    ) -> Result<RunOutcome, ActiveError> {
        // lithohd-lint: allow(determinism-clock) — wall-clock run duration is reported, never branched on
        let start = Instant::now();
        let config = &self.config;
        let total = bench.len();
        if total < config.initial_split() + 2 {
            return Err(ActiveError::BenchmarkTooSmall {
                clips: total,
                required: config.initial_split() + 2,
            });
        }
        let resume_cp = match hook.resume() {
            Some(cp) => {
                validate_checkpoint(&cp, total, seed, config)?;
                Some(cp)
            }
            None => None,
        };
        // A resumed run keeps the interrupted run's id so its journal trail
        // reads as one run.
        let run_id = resume_cp
            .as_ref()
            .map_or_else(telemetry::next_run_id, |cp| cp.run_id);
        let _run_span = telemetry::span(telemetry::names::SPAN_RUN)
            .with("run_id", run_id)
            .with("selector", selector.name());

        // Standardised DCT features for the classifier; raw density features
        // for the mixture model. Both are unlabeled-data statistics, so no
        // label information leaks into preprocessing. Recomputed on resume
        // too: a pure function of the benchmark, emitting no telemetry.
        let (features, _, _) = standardized_dct(bench);

        let state = match resume_cp {
            Some(cp) => resume_loop_state(cp, config, oracle, &features, seed, run_id)?,
            None => fresh_loop_state(bench, config, oracle, &features, seed, run_id, selector)?,
        };
        let LoopState {
            oracle_calls_before,
            stats_before,
            mut fault_stats,
            by_score,
            mut dataset,
            mut model,
            ece_before,
            mut history,
            next_iteration,
        } = state;

        // Lines 6–13: iterative batch sampling. An empty range means the
        // checkpoint already covered every iteration; the run goes straight
        // to detection.
        for iteration in next_iteration..=config.iterations {
            let _iter_span = telemetry::span(telemetry::names::SPAN_ITERATION)
                .with("iteration", iteration as u64);
            // Line 7: query pool = n lowest-GMM-likelihood unlabeled clips.
            let query: Vec<usize> = by_score
                .iter()
                .copied()
                .filter(|&i| dataset.is_unlabeled(i))
                .take(config.query_pool)
                .collect();
            if query.is_empty() {
                break;
            }
            // Line 8: temperature fit on the validation set.
            let (val_logits, _) = model.predict(&features.gather_rows(dataset.validation()));
            let temperature =
                self.fit_temperature_guarded(&val_logits, &dataset, run_id, &mut fault_stats);
            let diagram =
                validation_diagram(&val_logits, dataset.validation_classes(), temperature);
            emit_calibration_bins(run_id, "iteration", iteration, &diagram);
            let ece = diagram.ece();
            // Line 9: entropy sampling over the query set.
            let qx = features.gather_rows(&query);
            let (logits, embeddings) = model.predict(&qx);
            let probabilities = temperature.probabilities_batch(logits.as_slice(), 2);
            let ctx = SelectionContext {
                logits: &logits,
                probabilities: &probabilities,
                embeddings: &embeddings,
                k: config.batch,
                boundary_h: config.boundary_h,
                weight_mode: config.weight_mode,
                ablation: config.ablation,
                rng_seed: seed ^ iteration as u64,
            };
            let picked_local = {
                let _select_span =
                    telemetry::span(telemetry::names::SPAN_SELECT).with("pool", query.len() as u64);
                selector.select(&ctx)
            };
            let batch: Vec<usize> = picked_local.iter().map(|&i| query[i]).collect();
            if batch.is_empty() {
                break;
            }
            // Selection provenance for offline selection maps: one debug
            // event per pick with the scores the selector weighed. Scoring
            // is recomputed here, so gate on an attached sink to keep the
            // no-telemetry path free of the extra O(pool²) diversity pass.
            if telemetry::has_sinks() {
                let unc = uncertainty_scores(&probabilities, config.boundary_h);
                let div = diversity_scores(&embeddings);
                for (rank, &local) in picked_local.iter().enumerate() {
                    telemetry::debug(
                        "core.framework",
                        telemetry::names::EVENT_CLIP_SELECTED,
                        &[
                            ("run_id", run_id.into()),
                            ("iteration", (iteration as u64).into()),
                            ("clip", (query[local] as u64).into()),
                            ("rank", (rank as u64).into()),
                            ("uncertainty", f64::from(unc[local]).into()),
                            ("diversity", f64::from(div[local]).into()),
                        ],
                    );
                }
            }
            // Lines 10–12: pay for labels, extend L, update the model. A
            // label that never arrives does not abort the run: the clip
            // stays in the pool and the iteration proceeds with the partial
            // batch.
            let report = dataset.try_label_batch(&batch, oracle);
            let batch_hotspots = report.hotspots;
            let failed_labels = report.failures.len();
            if failed_labels > 0 {
                fault_stats.label_failures += failed_labels;
                telemetry::warn(
                    "core.framework",
                    "batch labels lost; proceeding with partial batch",
                    &[
                        ("run_id", run_id.into()),
                        ("iteration", (iteration as u64).into()),
                        ("failed", (failed_labels as u64).into()),
                        ("labeled", (report.labeled.len() as u64).into()),
                    ],
                );
            }
            let train_loss = if report.labeled.is_empty() {
                // The whole batch failed: nothing new to fit, skip the
                // update and carry the previous loss forward for the stats.
                history
                    .last()
                    .map_or(0.0, |s: &IterationStats| s.train_loss)
            } else {
                let x = features.gather_rows(dataset.labeled());
                guarded_train(
                    &mut model,
                    &x,
                    dataset.labeled_classes(),
                    config.update_epochs,
                    seed ^ (iteration as u64) << 8,
                    run_id,
                    &mut fault_stats,
                )?
            };
            let weights = selector.last_weights();
            let stats = IterationStats {
                iteration,
                temperature: temperature.value(),
                weights,
                batch_hotspots,
                labeled_size: dataset.labeled().len(),
                train_loss,
                ece,
                failed_labels,
            };
            emit_iteration(run_id, &stats, batch.len());
            history.push(stats);
            if hook.wants_save(iteration) {
                let checkpoint = RunCheckpoint {
                    iteration,
                    seed,
                    run_id,
                    total,
                    by_score: by_score.clone(),
                    dataset: DatasetCheckpoint {
                        labeled: dataset.labeled().to_vec(),
                        labeled_classes: dataset.labeled_classes().to_vec(),
                        validation: dataset.validation().to_vec(),
                        validation_classes: dataset.validation_classes().to_vec(),
                    },
                    model: model.state(),
                    ece_before,
                    history: history.clone(),
                    fault_stats,
                    stats_before,
                    oracle_calls_before,
                    oracle: oracle.state_snapshot(),
                };
                hook.save(&checkpoint)?;
            }
        }

        // Final calibration and full-chip detection on the remaining pool.
        let (val_logits, _) = model.predict(&features.gather_rows(dataset.validation()));
        let temperature =
            self.fit_temperature_guarded(&val_logits, &dataset, run_id, &mut fault_stats);
        let after_diagram =
            validation_diagram(&val_logits, dataset.validation_classes(), temperature);
        emit_calibration_bins(run_id, "after", 0, &after_diagram);
        let ece_after = after_diagram.ece();

        let pool = dataset.unlabeled().to_vec();
        let (mut hits, mut false_alarms) = (0usize, 0usize);
        let mut predicted_hotspots = Vec::new();
        {
            let _detect_span =
                telemetry::span(telemetry::names::SPAN_DETECT).with("pool", pool.len() as u64);
            if !pool.is_empty() {
                let (logits, _) = model.predict_pool(&features.gather_rows(&pool));
                let probabilities = temperature.probabilities_batch(logits.as_slice(), 2);
                for (row, &clip) in pool.iter().enumerate() {
                    let p_hotspot = probabilities[row * 2 + 1];
                    if p_hotspot >= config.detect_threshold {
                        predicted_hotspots.push(clip);
                        match bench.labels()[clip] {
                            Label::Hotspot => hits += 1,
                            Label::NonHotspot => false_alarms += 1,
                        }
                    }
                }
            }
        }
        // Eq. 2 bills each false alarm as one wasted verification simulation
        // on top of the train/val labels the oracle already metered; bill
        // the counter the same way so the journal snapshot equals Litho#.
        telemetry::counter(telemetry::names::ORACLE_CALLS).add(false_alarms as u64);
        if false_alarms > 0 {
            telemetry::debug(
                "core.framework",
                "billed false alarms as verification simulations (Eq. 2)",
                &[
                    ("run_id", run_id.into()),
                    ("false_alarms", (false_alarms as u64).into()),
                ],
            );
        }

        // This run's billable simulations, as metered by the oracle itself.
        // Quorum re-labelling votes bill beyond the train/val labels; those
        // extra simulations fold into Eq. 2 so Litho# stays honest under a
        // fault-tolerant oracle.
        let oracle_stats = oracle.stats().delta_since(&stats_before);
        let extra_simulations = oracle_stats
            .unique
            .saturating_sub(dataset.labeled().len() + dataset.validation().len());
        // Eq. 1 counts labelled-set hotspots against *ground truth*, not the
        // labels the oracle reported: a simulated clip is physically revealed
        // even when a fault corrupted the recorded label (the dataset's
        // observed tallies could otherwise exceed the benchmark total under
        // silent flips). Identical to the observed counts in a fault-free run.
        let truth_hotspots = |indices: &[usize]| {
            indices
                .iter()
                .filter(|&&i| bench.labels()[i] == Label::Hotspot)
                .count()
        };
        let metrics = PshdMetrics::compute_with_extra(
            dataset.labeled().len(),
            dataset.validation().len(),
            truth_hotspots(dataset.labeled()),
            truth_hotspots(dataset.validation()),
            hits,
            false_alarms,
            bench.hotspot_count(),
            extra_simulations,
        );
        let mut sampled_indices = dataset.labeled().to_vec();
        sampled_indices.extend_from_slice(dataset.validation());

        // Consistency check: this run's counter delta should equal the
        // oracle's unique-query meter plus the billed false alarms — i.e.
        // Litho# of Eq. 2. Concurrent runs (parallel tests) share the
        // process-wide counter, so the delta may legitimately exceed the
        // expectation; falling short would be an instrumentation bug.
        let oracle_delta =
            telemetry::counter(telemetry::names::ORACLE_CALLS).get() - oracle_calls_before;
        let expected_calls = (oracle_stats.unique + false_alarms) as u64;
        debug_assert!(
            oracle_delta >= expected_calls,
            "litho.oracle.calls advanced by {oracle_delta}, expected at least {expected_calls}"
        );
        if oracle_delta != expected_calls {
            telemetry::warn(
                "core.framework",
                "litho.oracle.calls delta differs from oracle stats (concurrent runs?)",
                &[
                    ("run_id", run_id.into()),
                    ("delta", oracle_delta.into()),
                    ("expected", expected_calls.into()),
                ],
            );
        }

        fault_stats.oracle_retries = oracle_stats.retries;
        fault_stats.oracle_giveups = oracle_stats.giveups;
        fault_stats.quorum_votes = oracle_stats.quorum_votes;
        let degraded = fault_stats.is_degraded();

        telemetry::info(
            "core.framework",
            telemetry::names::EVENT_RUN_COMPLETE,
            &[
                ("run_id", run_id.into()),
                ("selector", selector.name().into()),
                ("litho", (metrics.litho as u64).into()),
                ("accuracy", metrics.accuracy.into()),
                ("false_alarms", (false_alarms as u64).into()),
                ("ece_before", ece_before.into()),
                ("ece_after", ece_after.into()),
                ("degraded", degraded.into()),
                ("label_failures", (fault_stats.label_failures as u64).into()),
                ("oracle_retries", (fault_stats.oracle_retries as u64).into()),
                ("oracle_giveups", (fault_stats.oracle_giveups as u64).into()),
                ("quorum_votes", (fault_stats.quorum_votes as u64).into()),
                ("elapsed_ms", (start.elapsed().as_millis() as u64).into()),
            ],
        );
        Ok(RunOutcome {
            metrics,
            history,
            final_temperature: temperature.value(),
            ece_before,
            ece_after,
            selector: selector.name().to_owned(),
            elapsed: start.elapsed(),
            sampled_indices,
            predicted_hotspots,
            oracle_stats,
            run_id,
            fault_stats,
            degraded,
        })
    }

    /// [`SamplingFramework::fit_temperature`] with a degradation guard: a
    /// failed fit (e.g. a diverged model producing non-finite logits) falls
    /// back to the identity temperature `T = 1` instead of aborting the run.
    fn fit_temperature_guarded(
        &self,
        val_logits: &Matrix,
        dataset: &ActiveDataset,
        run_id: u64,
        fault_stats: &mut RunFaultStats,
    ) -> Temperature {
        match self.fit_temperature(val_logits, dataset) {
            Ok(temperature) => temperature,
            Err(error) => {
                fault_stats.temperature_fallbacks += 1;
                telemetry::warn(
                    "core.framework",
                    "temperature fit failed; falling back to T = 1",
                    &[
                        ("run_id", run_id.into()),
                        ("error", error.to_string().into()),
                    ],
                );
                Temperature::identity()
            }
        }
    }

    fn fit_temperature(
        &self,
        val_logits: &Matrix,
        dataset: &ActiveDataset,
    ) -> Result<Temperature, ActiveError> {
        if !self.config.ablation.calibration || dataset.validation().is_empty() {
            return Ok(Temperature::identity());
        }
        Ok(Temperature::fit(
            val_logits.as_slice(),
            2,
            dataset.validation_classes(),
        )?)
    }
}

/// Algorithm 2 loop state at the top of the iteration loop — either built
/// fresh by the pre-loop phase or reinstated from a [`RunCheckpoint`].
struct LoopState {
    /// Process-wide `litho.oracle.calls` reading at (original) run start.
    oracle_calls_before: u64,
    /// Oracle meter reading at (original) run start.
    stats_before: OracleStats,
    fault_stats: RunFaultStats,
    by_score: Vec<usize>,
    dataset: ActiveDataset,
    model: HotspotModel,
    ece_before: f64,
    history: Vec<IterationStats>,
    /// First iteration the loop should execute (1 fresh, `k + 1` resumed).
    next_iteration: usize,
}

/// The benchmark's DCT features standardised per column, as the classifier
/// sees them, together with the column means and standard deviations
/// (which a scorer keeps to standardise unseen clips the same way). The
/// statistics come from unlabeled features only, so no label information
/// leaks into preprocessing.
pub fn standardized_dct(bench: &GeneratedBenchmark) -> (Matrix, Vec<f32>, Vec<f32>) {
    let mut features = bench.dct_features().clone();
    let (mean, std) = features.column_stats();
    features.standardize(&mean, &std);
    (features, mean, std)
}

/// The pre-loop phase of Algorithm 2 (lines 1–5): GMM scoring, the initial
/// split, class top-up, and the first model fit, all paid for through the
/// oracle.
fn fresh_loop_state<O: LithoOracle + ?Sized>(
    bench: &GeneratedBenchmark,
    config: &SamplingConfig,
    oracle: &mut O,
    features: &Matrix,
    seed: u64,
    run_id: u64,
    selector: &dyn BatchSelector,
) -> Result<LoopState, ActiveError> {
    let total = bench.len();
    // The oracle-call counter is process-wide and monotonic (parallel
    // runs share it); this run's share is the delta from here.
    let oracle_calls_before = telemetry::counter(telemetry::names::ORACLE_CALLS).get();
    telemetry::info(
        "core.framework",
        "run started",
        &[
            ("run_id", run_id.into()),
            ("selector", selector.name().into()),
            ("seed", seed.into()),
            ("clips", (total as u64).into()),
            ("iterations", (config.iterations as u64).into()),
        ],
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Likewise the oracle's own meter may carry history from earlier
    // runs; everything this run bills is the delta from here.
    let stats_before = oracle.stats();
    let mut fault_stats = RunFaultStats::default();

    // Algorithm 2 line 1: posterior scores from the Gaussian mixture.
    let gmm = GaussianMixture::fit(
        bench.density_features().as_slice(),
        bench.density_features().cols(),
        &GmmConfig {
            components: config.gmm_components.min(total),
            seed,
            ..GmmConfig::default()
        },
    )?;
    let scores = gmm.score_samples(bench.density_features().as_slice());
    let mut by_score: Vec<usize> = (0..total).collect();
    by_score.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // Line 2: split. The lowest-likelihood (hotspot-like) clips seed the
    // training set; the validation set is a seeded random draw from the
    // rest (the paper leaves V₀'s construction unspecified).
    let initial_train: Vec<usize> = by_score[..config.initial_train.min(total)].to_vec();
    let mut remaining: Vec<usize> = by_score[config.initial_train.min(total)..].to_vec();
    remaining.shuffle(&mut rng);
    let validation: Vec<usize> = remaining[..config.validation.min(remaining.len())].to_vec();
    let (mut dataset, split_report) =
        ActiveDataset::try_new(total, &initial_train, &validation, oracle);
    if !split_report.is_complete() {
        fault_stats.label_failures += split_report.failures.len();
        telemetry::warn(
            "core.framework",
            "initial split degraded: failed labels returned to the pool",
            &[
                ("run_id", run_id.into()),
                ("failed", (split_report.failures.len() as u64).into()),
                ("labeled", (split_report.labeled.len() as u64).into()),
            ],
        );
    }

    // The paper trains a discriminative model on L₀, which presumes both
    // classes are present; when the GMM seed set is single-class we pay
    // for random extra labels until it is not (or a small budget runs
    // out). This divergence is documented here because the paper is
    // silent on the degenerate case.
    let mut top_up_budget = config.initial_train * 2;
    while !dataset.has_both_classes() && top_up_budget > 0 && !dataset.unlabeled().is_empty() {
        let pool = dataset.unlabeled();
        let pick = pool[rng.gen_range(0..pool.len())];
        let report = dataset.try_label_batch(&[pick], oracle);
        fault_stats.label_failures += report.failures.len();
        top_up_budget -= 1;
    }

    // Lines 3–5: initialise and fit the model.
    let mut model = HotspotModel::new(
        features.cols(),
        seed ^ 0xabcd_1234,
        config.init_sigma,
        config.learning_rate,
        config.train_batch,
    );
    if !dataset.labeled().is_empty() {
        let x = features.gather_rows(dataset.labeled());
        guarded_train(
            &mut model,
            &x,
            dataset.labeled_classes(),
            config.initial_epochs,
            seed,
            run_id,
            &mut fault_stats,
        )?;
    }

    // ECE before calibration, for the Fig. 2 comparison. The per-bin events
    // belong to the pre-loop phase, so (like `run started`) they are emitted
    // only here and never on resume.
    let (val_logits, _) = model.predict(&features.gather_rows(dataset.validation()));
    let before_diagram = validation_diagram(
        &val_logits,
        dataset.validation_classes(),
        Temperature::identity(),
    );
    emit_calibration_bins(run_id, "before", 0, &before_diagram);
    let ece_before = before_diagram.ece();

    Ok(LoopState {
        oracle_calls_before,
        stats_before,
        fault_stats,
        by_score,
        dataset,
        model,
        ece_before,
        history: Vec::with_capacity(config.iterations),
        next_iteration: 1,
    })
}

/// Reinstates loop state from a validated [`RunCheckpoint`]. Emits no
/// `core.framework` events and pays for no labels: the pre-loop phase
/// already ran in the interrupted process, its events survive in that
/// process's journal, and every persisted label was already billed.
fn resume_loop_state<O: LithoOracle + ?Sized>(
    cp: RunCheckpoint,
    config: &SamplingConfig,
    oracle: &mut O,
    features: &Matrix,
    seed: u64,
    run_id: u64,
) -> Result<LoopState, ActiveError> {
    if let Some(snapshot) = &cp.oracle {
        if !oracle.restore_state(snapshot) {
            return Err(ActiveError::Checkpoint {
                detail: "oracle refused state restore; resuming would re-bill cached labels"
                    .to_owned(),
            });
        }
    }
    let dataset = ActiveDataset::from_parts(
        cp.total,
        cp.dataset.labeled,
        cp.dataset.labeled_classes,
        cp.dataset.validation,
        cp.dataset.validation_classes,
    )?;
    let mut model = HotspotModel::new(
        features.cols(),
        seed ^ 0xabcd_1234,
        config.init_sigma,
        config.learning_rate,
        config.train_batch,
    );
    model.restore_state(&cp.model)?;
    // Provenance, not run semantics: the `store.checkpoint` target is
    // withheld from canonical journals so interrupted-and-resumed runs stay
    // byte-identical to uninterrupted ones.
    telemetry::info(
        "store.checkpoint",
        "run resumed from checkpoint",
        &[
            ("run_id", run_id.into()),
            ("iteration", (cp.iteration as u64).into()),
            ("labeled", (dataset.labeled().len() as u64).into()),
        ],
    );
    Ok(LoopState {
        oracle_calls_before: cp.oracle_calls_before,
        stats_before: cp.stats_before,
        fault_stats: cp.fault_stats,
        by_score: cp.by_score,
        dataset,
        model,
        ece_before: cp.ece_before,
        history: cp.history,
        next_iteration: cp.iteration + 1,
    })
}

/// Rejects a checkpoint that does not belong to this run: resuming under a
/// different seed or benchmark would silently diverge instead of continuing
/// the interrupted trajectory.
fn validate_checkpoint(
    cp: &RunCheckpoint,
    total: usize,
    seed: u64,
    config: &SamplingConfig,
) -> Result<(), ActiveError> {
    let bad = |detail: String| ActiveError::Checkpoint { detail };
    if cp.seed != seed {
        return Err(bad(format!(
            "checkpoint was taken under seed {}, not {seed}",
            cp.seed
        )));
    }
    if cp.total != total {
        return Err(bad(format!(
            "checkpoint covers {} clips, benchmark has {total}",
            cp.total
        )));
    }
    if cp.by_score.len() != total {
        return Err(bad(format!(
            "checkpoint score order covers {} clips, benchmark has {total}",
            cp.by_score.len()
        )));
    }
    if cp.iteration == 0 || cp.iteration > config.iterations {
        return Err(bad(format!(
            "checkpoint iteration {} outside the configured 1..={} loop",
            cp.iteration, config.iterations
        )));
    }
    Ok(())
}

/// Trains with a divergence guard: when the update produces a non-finite
/// loss, the model rolls back to its pre-update weights (the last good
/// snapshot) and the last finite epoch loss is reported instead, so NaN
/// never reaches the stats or the JSONL journal.
#[allow(clippy::too_many_arguments)]
fn guarded_train(
    model: &mut HotspotModel,
    x: &Matrix,
    classes: &[usize],
    epochs: usize,
    shuffle_seed: u64,
    run_id: u64,
    fault_stats: &mut RunFaultStats,
) -> Result<f64, ActiveError> {
    let before = model.snapshot();
    let report = model.train(x, classes, epochs, shuffle_seed)?;
    let loss = report.final_loss();
    if loss.is_finite() {
        return Ok(loss);
    }
    fault_stats.nan_rollbacks += 1;
    model.restore(&before)?;
    telemetry::warn(
        "core.framework",
        "training diverged (non-finite loss); rolled back to last good weights",
        &[
            ("run_id", run_id.into()),
            ("epochs", (epochs as u64).into()),
        ],
    );
    Ok(report
        .epoch_losses
        .iter()
        .copied()
        .rev()
        .find(|l| l.is_finite())
        .unwrap_or(0.0))
}

/// Per-iteration journal event: the Algorithm 2 loop state the paper's
/// figures are built from (temperature → Eq. 4, ω₁/ω₂ → Eq. 13).
fn emit_iteration(run_id: u64, stats: &IterationStats, batch_size: usize) {
    let mut fields = vec![
        ("run_id", telemetry::FieldValue::U64(run_id)),
        ("iteration", (stats.iteration as u64).into()),
        ("temperature", stats.temperature.into()),
        ("ece", stats.ece.into()),
        ("batch_size", (batch_size as u64).into()),
        ("batch_hotspots", (stats.batch_hotspots as u64).into()),
        ("labeled_size", (stats.labeled_size as u64).into()),
        ("train_loss", stats.train_loss.into()),
        ("failed_labels", (stats.failed_labels as u64).into()),
    ];
    if let Some((w1, w2)) = stats.weights {
        fields.push(("omega1", w1.into()));
        fields.push(("omega2", w2.into()));
    }
    telemetry::info(
        "core.framework",
        telemetry::names::EVENT_ITERATION_COMPLETE,
        &fields,
    );
}

/// Reliability diagram (10 bins, Fig. 2) of argmax predictions on the
/// validation set at a given temperature. Its `.ece()` is the scalar the
/// trajectory plots track; its bins feed `calibration bin` journal events.
fn validation_diagram(
    logits: &Matrix,
    truth: &[usize],
    temperature: Temperature,
) -> ReliabilityDiagram {
    if truth.is_empty() {
        return ReliabilityDiagram::from_predictions(&[], &[], 10);
    }
    let probabilities = temperature.probabilities_batch(logits.as_slice(), 2);
    ReliabilityDiagram::from_binary_probabilities(&probabilities, truth, 10)
}

/// Per-bin journal events for one calibration measurement: one `calibration
/// bin` event per occupied bin, so offline tools can redraw the reliability
/// diagram without the validation set. `stage` is `"before"`, `"iteration"`,
/// or `"after"`; `iteration` is 0 outside the loop. Debug level: console
/// sinks filter it out, journals keep it.
fn emit_calibration_bins(
    run_id: u64,
    stage: &'static str,
    iteration: usize,
    diagram: &ReliabilityDiagram,
) {
    if !telemetry::has_sinks() {
        return;
    }
    for (index, bin) in diagram.bins().iter().enumerate() {
        if bin.count == 0 {
            continue;
        }
        telemetry::debug(
            "core.framework",
            telemetry::names::EVENT_CALIBRATION_BIN,
            &[
                ("run_id", run_id.into()),
                ("stage", stage.into()),
                ("iteration", (iteration as u64).into()),
                ("bin", (index as u64).into()),
                ("lower", bin.lower.into()),
                ("upper", bin.upper.into()),
                ("count", (bin.count as u64).into()),
                ("confidence", bin.mean_confidence.into()),
                ("accuracy", bin.accuracy.into()),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EntropySelector, RandomSelector, UncertaintySelector};
    use hotspot_layout::BenchmarkSpec;

    fn small_bench() -> GeneratedBenchmark {
        let spec = BenchmarkSpec {
            name: "unit".to_owned(),
            tech: hotspot_layout::Tech::Euv7,
            hotspots: 30,
            non_hotspots: 270,
            dup_rate: 0.15,
            near_miss_rate: 0.3,
        };
        GeneratedBenchmark::generate(&spec, 11).unwrap()
    }

    fn small_config(total: usize) -> SamplingConfig {
        let mut c = SamplingConfig::for_benchmark(total);
        c.iterations = 4;
        c.initial_epochs = 30;
        c.update_epochs = 10;
        c
    }

    #[test]
    fn full_run_produces_consistent_metrics() {
        let bench = small_bench();
        let framework = SamplingFramework::new(small_config(bench.len()));
        let outcome = framework
            .run(&bench, &mut EntropySelector::new(), 3)
            .unwrap();
        let m = &outcome.metrics;
        assert!(m.accuracy > 0.3, "accuracy {}", m.accuracy);
        assert!(m.accuracy <= 1.0);
        // Eq. 2 cross-check: litho = train + val + FA, and the oracle paid
        // exactly for train + val.
        assert_eq!(m.litho, m.train_size + m.validation_size + m.false_alarms);
        assert_eq!(
            outcome.oracle_stats.unique,
            m.train_size + m.validation_size
        );
        assert!(!outcome.history.is_empty());
        assert_eq!(outcome.selector, "entropy");
        // A fault-free oracle leaves no degradation trace.
        assert!(!outcome.degraded);
        assert_eq!(outcome.fault_stats, RunFaultStats::default());
        assert_eq!(m.extra_simulations, 0);
    }

    #[test]
    fn faulty_run_completes_deterministically_with_exact_accounting() {
        use hotspot_litho::{FaultRates, FaultyOracle, RetryOracle, RetryPolicy, VirtualClock};
        let bench = small_bench();
        let framework = SamplingFramework::new(small_config(bench.len()));
        let run = |seed: u64| {
            let rates = FaultRates {
                transient: 0.2,
                flip: 0.02,
                ..FaultRates::default()
            };
            let flaky = FaultyOracle::new(bench.oracle(), rates, 77);
            let mut oracle =
                RetryOracle::with_clock(flaky, RetryPolicy::default(), VirtualClock::new())
                    .with_quorum(3);
            framework
                .run_with_oracle(&bench, &mut EntropySelector::new(), seed, &mut oracle)
                .unwrap()
        };
        let a = run(3);
        let b = run(3);
        assert_eq!(a.metrics, b.metrics, "faulty runs must be bit-identical");
        assert_eq!(a.sampled_indices, b.sampled_indices);
        assert_eq!(a.fault_stats, b.fault_stats);
        assert!(a.fault_stats.oracle_retries > 0, "{:?}", a.fault_stats);
        assert!(a.fault_stats.quorum_votes > 0, "{:?}", a.fault_stats);
        // Eq. 2 under quorum: every billable re-simulation is accounted for.
        let m = &a.metrics;
        assert_eq!(
            m.litho,
            m.train_size + m.validation_size + m.false_alarms + m.extra_simulations
        );
        assert_eq!(
            a.oracle_stats.unique,
            m.train_size + m.validation_size + m.extra_simulations
        );
    }

    #[test]
    fn permanent_failures_return_clips_to_the_pool_and_degrade() {
        use hotspot_litho::{FaultRates, FaultyOracle, RetryOracle, RetryPolicy, VirtualClock};
        let bench = small_bench();
        let framework = SamplingFramework::new(small_config(bench.len()));
        let broken: Vec<usize> = (0..bench.len()).step_by(7).collect();
        let flaky = FaultyOracle::new(bench.oracle(), FaultRates::default(), 5)
            .with_permanent_failures(broken.iter().copied());
        let mut oracle =
            RetryOracle::with_clock(flaky, RetryPolicy::no_retries(), VirtualClock::new());
        let outcome = framework
            .run_with_oracle(&bench, &mut EntropySelector::new(), 3, &mut oracle)
            .unwrap();
        assert!(outcome.degraded);
        assert!(outcome.fault_stats.label_failures > 0);
        assert!(outcome.fault_stats.oracle_giveups > 0);
        for i in &outcome.sampled_indices {
            assert!(!broken.contains(i), "broken clip {i} got a label");
        }
        let failed: usize = outcome.history.iter().map(|s| s.failed_labels).sum();
        assert!(failed <= outcome.fault_stats.label_failures);
    }

    #[test]
    fn quorum_giveups_bill_nothing_and_clips_stay_selectable() {
        use hotspot_litho::{
            FaultRates, FaultyOracle, OracleError, OracleStats, RetryOracle, RetryPolicy,
            VirtualClock,
        };
        use std::collections::BTreeSet;

        /// Logs each framework-level `try_query` outcome while delegating
        /// to the wrapped retry stack, so the test can see which clips gave
        /// up and whether any of them were queried (reselected) again.
        struct RecordingOracle<O> {
            inner: O,
            log: Vec<(usize, bool)>,
        }
        impl<O: LithoOracle> LithoOracle for RecordingOracle<O> {
            fn try_query(&mut self, index: usize) -> Result<Label, OracleError> {
                let result = self.inner.try_query(index);
                self.log.push((index, result.is_ok()));
                result
            }
            fn resimulate(&mut self, index: usize) -> Result<Label, OracleError> {
                self.inner.resimulate(index)
            }
            fn unique_queries(&self) -> usize {
                self.inner.unique_queries()
            }
            fn total_queries(&self) -> usize {
                self.inner.total_queries()
            }
            fn stats(&self) -> OracleStats {
                self.inner.stats()
            }
        }

        let bench = small_bench();
        let framework = SamplingFramework::new(small_config(bench.len()));
        let rates = FaultRates {
            transient: 0.6,
            ..FaultRates::default()
        };
        let flaky = FaultyOracle::new(bench.oracle(), rates, 41);
        let stack = RetryOracle::with_clock(flaky, RetryPolicy::no_retries(), VirtualClock::new())
            .with_quorum(3);
        let mut oracle = RecordingOracle {
            inner: stack,
            log: Vec::new(),
        };
        let outcome = framework
            .run_with_oracle(&bench, &mut EntropySelector::new(), 3, &mut oracle)
            .unwrap();
        assert!(
            outcome.fault_stats.oracle_giveups > 0,
            "{:?}",
            outcome.fault_stats
        );
        assert!(
            outcome.fault_stats.quorum_votes > 0,
            "{:?}",
            outcome.fault_stats
        );

        // Un-billed: the oracle paid for exactly the labels that arrived
        // (train + validation) plus quorum re-simulations — the Eq. 2
        // identity leaves no room for a billed give-up.
        let m = &outcome.metrics;
        assert_eq!(
            m.litho,
            m.train_size + m.validation_size + m.false_alarms + m.extra_simulations
        );
        assert_eq!(
            outcome.oracle_stats.unique,
            m.train_size + m.validation_size + m.extra_simulations
        );

        // Returned to the pool and re-selectable: some clip that gave up
        // was queried again by a later selection and labelled successfully
        // (the fault schedule is per-attempt, so fresh attempts can pass).
        let mut gave_up: BTreeSet<usize> = BTreeSet::new();
        let mut relabelled: BTreeSet<usize> = BTreeSet::new();
        for &(clip, ok) in &oracle.log {
            if !ok {
                gave_up.insert(clip);
            } else if gave_up.contains(&clip) {
                relabelled.insert(clip);
            }
        }
        assert!(
            !relabelled.is_empty(),
            "no given-up clip was ever reselected and relabelled"
        );
        assert!(
            relabelled
                .iter()
                .any(|clip| outcome.sampled_indices.contains(clip)),
            "a recovered clip must end up in the labelled set"
        );
        // A clip that never recovered must not be in the labelled set.
        for clip in gave_up.difference(&relabelled) {
            assert!(
                !outcome.sampled_indices.contains(clip),
                "clip {clip} gave up on every attempt but got a label"
            );
        }
    }

    #[test]
    fn run_is_deterministic() {
        let bench = small_bench();
        let framework = SamplingFramework::new(small_config(bench.len()));
        let a = framework
            .run(&bench, &mut EntropySelector::new(), 5)
            .unwrap();
        let b = framework
            .run(&bench, &mut EntropySelector::new(), 5)
            .unwrap();
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.sampled_indices, b.sampled_indices);
    }

    #[test]
    fn different_selectors_run() {
        let bench = small_bench();
        let framework = SamplingFramework::new(small_config(bench.len()));
        for (name, selector) in [
            (
                "entropy",
                &mut EntropySelector::new() as &mut dyn BatchSelector,
            ),
            ("ts", &mut UncertaintySelector::new()),
            ("random", &mut RandomSelector::new()),
        ] {
            let outcome = framework.run(&bench, selector, 7).unwrap();
            assert_eq!(outcome.selector, name);
            assert!(
                outcome.metrics.accuracy > 0.2,
                "{name}: {}",
                outcome.metrics.accuracy
            );
        }
    }

    #[test]
    fn calibration_reduces_or_matches_ece_on_average() {
        // A single run can go either way; check the average over seeds.
        let bench = small_bench();
        let framework = SamplingFramework::new(small_config(bench.len()));
        let (mut before, mut after) = (0.0, 0.0);
        for seed in 0..3 {
            let o = framework
                .run(&bench, &mut EntropySelector::new(), seed)
                .unwrap();
            before += o.ece_before;
            after += o.ece_after;
        }
        assert!(after <= before + 0.05, "ECE before {before} after {after}");
    }

    #[test]
    fn too_small_benchmark_is_rejected() {
        let bench = small_bench();
        let mut config = small_config(bench.len());
        config.initial_train = bench.len();
        config.validation = bench.len();
        let framework = SamplingFramework::new(config);
        assert!(matches!(
            framework.run(&bench, &mut EntropySelector::new(), 0),
            Err(ActiveError::BenchmarkTooSmall { .. })
        ));
    }

    #[test]
    fn history_tracks_growing_labeled_set() {
        let bench = small_bench();
        let framework = SamplingFramework::new(small_config(bench.len()));
        let outcome = framework
            .run(&bench, &mut EntropySelector::new(), 9)
            .unwrap();
        for pair in outcome.history.windows(2) {
            assert!(pair[1].labeled_size > pair[0].labeled_size);
        }
        for stat in &outcome.history {
            assert!(stat.temperature > 0.0);
            assert!(stat.ece >= 0.0 && stat.ece <= 1.0);
        }
    }

    #[test]
    fn runs_get_distinct_run_ids() {
        let bench = small_bench();
        let framework = SamplingFramework::new(small_config(bench.len()));
        let a = framework
            .run(&bench, &mut EntropySelector::new(), 5)
            .unwrap();
        let b = framework
            .run(&bench, &mut EntropySelector::new(), 5)
            .unwrap();
        assert_ne!(a.run_id, b.run_id);
    }

    #[test]
    fn ablation_without_calibration_keeps_identity_temperature() {
        let bench = small_bench();
        let config = small_config(bench.len()).without_calibration();
        let framework = SamplingFramework::new(config);
        let outcome = framework
            .run(&bench, &mut EntropySelector::new(), 2)
            .unwrap();
        assert_eq!(outcome.final_temperature, 1.0);
    }

    #[test]
    fn resume_from_any_checkpoint_reproduces_the_uninterrupted_run() {
        use crate::MemoryCheckpoints;
        let bench = small_bench();
        let framework = SamplingFramework::new(small_config(bench.len()));
        // Reference run, checkpointing every iteration.
        let mut hook = MemoryCheckpoints::every(1);
        let mut oracle = bench.oracle();
        let reference = framework
            .run_with_oracle_checkpointed(
                &bench,
                &mut EntropySelector::new(),
                3,
                &mut oracle,
                &mut hook,
            )
            .unwrap();
        assert_eq!(hook.saved.len(), reference.history.len());
        // Resume from every iteration boundary with a fresh process-like
        // oracle; each resumed run must land on the identical outcome.
        for cp in &hook.saved {
            let mut resumed_hook = MemoryCheckpoints::resuming_from(cp.clone(), 0);
            let mut fresh_oracle = bench.oracle();
            let resumed = framework
                .run_with_oracle_checkpointed(
                    &bench,
                    &mut EntropySelector::new(),
                    3,
                    &mut fresh_oracle,
                    &mut resumed_hook,
                )
                .unwrap();
            assert_eq!(
                resumed.metrics, reference.metrics,
                "at iteration {}",
                cp.iteration
            );
            assert_eq!(resumed.history, reference.history);
            assert_eq!(resumed.sampled_indices, reference.sampled_indices);
            assert_eq!(resumed.predicted_hotspots, reference.predicted_hotspots);
            assert_eq!(resumed.final_temperature, reference.final_temperature);
            assert_eq!(resumed.ece_before, reference.ece_before);
            assert_eq!(resumed.ece_after, reference.ece_after);
            assert_eq!(resumed.run_id, reference.run_id, "resume keeps the run id");
            // Eq. 2: the resumed run re-bills nothing — its oracle delta
            // (restored meter → final meter, anchored at the original run
            // start) equals the uninterrupted run's exactly.
            assert_eq!(resumed.oracle_stats, reference.oracle_stats);
            assert_eq!(resumed.metrics.litho, reference.metrics.litho);
        }
    }

    #[test]
    fn resume_reproduces_a_faulty_run_and_its_schedule() {
        use crate::MemoryCheckpoints;
        use hotspot_litho::{FaultRates, FaultyOracle, RetryOracle, RetryPolicy, VirtualClock};
        let bench = small_bench();
        let framework = SamplingFramework::new(small_config(bench.len()));
        let rates = FaultRates {
            transient: 0.2,
            flip: 0.02,
            ..FaultRates::default()
        };
        let make_oracle = || {
            RetryOracle::with_clock(
                FaultyOracle::new(bench.oracle(), rates, 77),
                RetryPolicy::default(),
                VirtualClock::new(),
            )
            .with_quorum(3)
        };
        let mut hook = MemoryCheckpoints::every(1);
        let mut oracle = make_oracle();
        let reference = framework
            .run_with_oracle_checkpointed(
                &bench,
                &mut EntropySelector::new(),
                3,
                &mut oracle,
                &mut hook,
            )
            .unwrap();
        let mid = &hook.saved[hook.saved.len() / 2];
        let mut resumed_hook = MemoryCheckpoints::resuming_from(mid.clone(), 0);
        let mut fresh = make_oracle();
        let resumed = framework
            .run_with_oracle_checkpointed(
                &bench,
                &mut EntropySelector::new(),
                3,
                &mut fresh,
                &mut resumed_hook,
            )
            .unwrap();
        // The per-clip attempt counters travelled with the checkpoint, so
        // the deterministic fault schedule stays aligned across the resume.
        assert_eq!(resumed.metrics, reference.metrics);
        assert_eq!(resumed.history, reference.history);
        assert_eq!(resumed.fault_stats, reference.fault_stats);
        assert_eq!(resumed.oracle_stats, reference.oracle_stats);
    }

    #[test]
    fn mismatched_checkpoints_are_refused() {
        use crate::MemoryCheckpoints;
        let bench = small_bench();
        let framework = SamplingFramework::new(small_config(bench.len()));
        let mut hook = MemoryCheckpoints::every(1);
        let mut oracle = bench.oracle();
        framework
            .run_with_oracle_checkpointed(
                &bench,
                &mut EntropySelector::new(),
                3,
                &mut oracle,
                &mut hook,
            )
            .unwrap();
        let cp = hook.saved[0].clone();
        // Wrong seed.
        let mut wrong_seed = MemoryCheckpoints::resuming_from(cp.clone(), 0);
        assert!(matches!(
            framework.run_with_oracle_checkpointed(
                &bench,
                &mut EntropySelector::new(),
                4,
                &mut bench.oracle(),
                &mut wrong_seed,
            ),
            Err(ActiveError::Checkpoint { .. })
        ));
        // Corrupted shape.
        let mut bad = cp;
        bad.by_score.pop();
        let mut bad_hook = MemoryCheckpoints::resuming_from(bad, 0);
        assert!(matches!(
            framework.run_with_oracle_checkpointed(
                &bench,
                &mut EntropySelector::new(),
                3,
                &mut bench.oracle(),
                &mut bad_hook,
            ),
            Err(ActiveError::Checkpoint { .. })
        ));
    }
}
