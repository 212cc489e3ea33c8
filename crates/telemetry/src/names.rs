//! Well-known metric names shared across the workspace.
//!
//! Counters are resolved by `&'static str` name ([`crate::counter`]); these
//! constants keep the producers (litho oracle wrappers, framework) and the
//! consumers (journal assertions, experiment binaries) agreeing on spelling.

/// Billable lithography simulations: cache-miss oracle queries plus
/// cache-bypassing re-simulations (quorum votes, false-alarm verification).
/// A journal snapshot of this counter is the paper's `Litho#` (Eq. 2).
pub const ORACLE_CALLS: &str = "litho.oracle.calls";

/// Failed oracle attempts that were retried (transient/timeout/corruption
/// faults absorbed by a retry policy). Not billable: a failed simulation
/// job returns no label.
pub const ORACLE_RETRIES: &str = "litho.oracle.retries";

/// Queries abandoned after exhausting the retry budget or hitting a
/// permanent fault; the framework returns such clips to the unlabeled pool.
pub const ORACLE_GIVEUPS: &str = "litho.oracle.giveups";

/// Labels cast as quorum votes when re-simulation voting is enabled.
pub const ORACLE_QUORUM_VOTES: &str = "litho.oracle.quorum_votes";

/// Faults injected by a `FaultyOracle` (tests and robustness experiments).
pub const ORACLE_FAULTS_INJECTED: &str = "litho.oracle.faults_injected";

/// Histogram of wall-clock seconds per billable lithography simulation
/// (cache misses and re-simulations); its p50/p95/p99 are the oracle's
/// tail-latency series in `/metrics` and `lithohd-report`.
pub const ORACLE_SECONDS: &str = "litho.oracle.seconds";

/// Span over one full active-sampling run (`PSHDFramework::run`).
pub const SPAN_RUN: &str = "run";

/// Span over one sampling iteration inside a run.
pub const SPAN_ITERATION: &str = "iteration";

/// Span over one selector query (scoring + batch selection).
pub const SPAN_SELECT: &str = "select";

/// Span over the final full-pool detection pass.
pub const SPAN_DETECT: &str = "detect";

/// Span over one benchmark-layout generation (`GeneratedBenchmark`).
pub const SPAN_GENERATE: &str = "generate";

/// Span over one neural-network training session.
pub const SPAN_NN_TRAIN: &str = "nn.train";

/// Epochs completed across all training sessions in the process.
pub const NN_TRAIN_EPOCHS: &str = "nn.train.epochs";

/// Histogram of per-epoch mean training loss.
pub const NN_TRAIN_LOSS: &str = "nn.train.loss";

/// Span over one pattern-matching baseline run.
pub const SPAN_PM_RUN: &str = "pm.run";

/// Span over one temperature-calibration fit (Eq. 5).
pub const SPAN_CALIBRATE: &str = "calibrate";

/// The fitted softmax temperature `T` after the latest calibration.
pub const CALIBRATION_TEMPERATURE: &str = "calibration.temperature";

/// Unlabeled clips scored across all selector queries.
pub const SELECTOR_QUERY_SIZE: &str = "selector.query.size";

/// Selector batches drawn (one per sampling iteration).
pub const SELECTOR_BATCHES: &str = "selector.batches";

/// Span over one Gaussian-mixture fit (model-count sweep included).
pub const SPAN_GMM_FIT: &str = "gmm.fit";

/// EM iterations executed across all GMM fits.
pub const GMM_EM_ITERATIONS: &str = "gmm.em.iterations";

/// Checkpoints committed by a `CheckpointStore` (atomic rename completed).
pub const CHECKPOINT_SAVES: &str = "checkpoint.saves";

/// Total bytes of committed checkpoint payloads.
pub const CHECKPOINT_BYTES: &str = "checkpoint.bytes";

/// Runs restored from a checkpoint (`--resume`).
pub const CHECKPOINT_RESUMES: &str = "checkpoint.resumes";

/// Torn or corrupt checkpoints skipped while falling back to the newest
/// valid one during recovery.
pub const CHECKPOINT_CORRUPT_SKIPPED: &str = "checkpoint.corrupt_skipped";

/// Labelling batches fanned out across shard workers by the coordinator.
pub const SHARD_BATCHES: &str = "shard.batches";

/// Clips labelled through shard workers (merged outcomes, including the
/// abandoned ones).
pub const SHARD_CLIPS: &str = "shard.clips";

/// Shard workers whose thread died (panicked) before finishing its
/// sub-batch; the coordinator recomputes the whole sub-batch.
pub const SHARD_WORKERS_DEAD: &str = "shard.workers_dead";

/// Shard workers that exceeded the coordinator's per-shard deadline and
/// were abandoned (their thread is detached; the sub-batch is recomputed).
pub const SHARD_WORKERS_HUNG: &str = "shard.workers_hung";

/// Orphaned clips reassigned from a dead or hung worker to a recovery
/// round on surviving workers.
pub const SHARD_CLIPS_REASSIGNED: &str = "shard.clips_reassigned";

/// Histogram of wall-clock seconds per sharded labelling batch (fan-out
/// through merge), the shard-scaling latency series.
pub const SHARD_BATCH_SECONDS: &str = "shard.batch.seconds";

/// Span over one shard worker's whole sub-batch, recorded on the worker
/// thread into its per-shard trace buffer (workers are telemetry-silenced,
/// so this span reaches traces but not journals).
pub const SPAN_SHARD_WORKER: &str = "shard.worker";

/// Invocations of the block-DCT kernel (`hotspot-features`), one per
/// transformed block. Like every `kernel.*` counter it is withheld from
/// canonical journals: call counts vary with sharding and recovery.
pub const KERNEL_DCT_CALLS: &str = "kernel.dct.calls";

/// Coefficients produced by the block-DCT kernel (n² per block).
pub const KERNEL_DCT_ELEMENTS: &str = "kernel.dct.elements";

/// Floating-point operations executed by the block-DCT kernel (two n³
/// matrix passes per block).
pub const KERNEL_DCT_FLOPS: &str = "kernel.dct.flops";

/// Bytes moved through the block-DCT kernel.
pub const KERNEL_DCT_BYTES: &str = "kernel.dct.bytes";

/// GMM EM iterations counted as kernel calls (`hotspot-gmm`).
pub const KERNEL_GMM_EM_CALLS: &str = "kernel.gmm_em.calls";

/// Responsibility-matrix entries evaluated by GMM EM
/// (iterations × samples × components).
pub const KERNEL_GMM_EM_ELEMENTS: &str = "kernel.gmm_em.elements";

/// Floating-point operations executed by the GMM EM kernel.
pub const KERNEL_GMM_EM_FLOPS: &str = "kernel.gmm_em.flops";

/// Bytes moved through the GMM EM kernel.
pub const KERNEL_GMM_EM_BYTES: &str = "kernel.gmm_em.bytes";

/// Invocations of the pairwise-cosine diversity kernel (`hotspot-core`).
pub const KERNEL_DIVERSITY_CALLS: &str = "kernel.diversity.calls";

/// Embedding pairs scored by the diversity kernel (n·(n−1)/2 per call).
pub const KERNEL_DIVERSITY_ELEMENTS: &str = "kernel.diversity.elements";

/// Floating-point operations executed by the diversity kernel.
pub const KERNEL_DIVERSITY_FLOPS: &str = "kernel.diversity.flops";

/// Bytes moved through the diversity kernel.
pub const KERNEL_DIVERSITY_BYTES: &str = "kernel.diversity.bytes";

/// Invocations of the separable aerial-image convolution (`hotspot-litho`).
pub const KERNEL_AERIAL_CALLS: &str = "kernel.aerial.calls";

/// Pixels produced by the aerial convolution kernel per pass pair.
pub const KERNEL_AERIAL_ELEMENTS: &str = "kernel.aerial.elements";

/// Floating-point operations executed by the aerial convolution kernel.
pub const KERNEL_AERIAL_FLOPS: &str = "kernel.aerial.flops";

/// Bytes moved through the aerial convolution kernel.
pub const KERNEL_AERIAL_BYTES: &str = "kernel.aerial.bytes";

/// Requests accepted by the `hotspot-serve` HTTP loop (every route).
/// `serve.*` metrics live in the serving process's own registry and are
/// operational telemetry, never canonical run output — the whole prefix is
/// withheld from canonical journals.
pub const SERVE_HTTP_REQUESTS: &str = "serve.http.requests";

/// Error responses (4xx/5xx) produced by the serving routes.
pub const SERVE_HTTP_ERRORS: &str = "serve.http.errors";

/// Scoring requests admitted into the micro-batch queue.
pub const SERVE_SCORE_REQUESTS: &str = "serve.score.requests";

/// Clips scored through the micro-batcher (rows, not requests).
pub const SERVE_SCORE_CLIPS: &str = "serve.score.clips";

/// Histogram of wall-clock seconds per scoring request (admission through
/// response), the serving latency series behind `/metrics` p50/p95/p99.
pub const SERVE_SCORE_SECONDS: &str = "serve.score.seconds";

/// Micro-batch flushes executed (one NN forward pass each).
pub const SERVE_BATCH_FLUSHES: &str = "serve.batch.flushes";

/// Clips coalesced into flushed micro-batches.
pub const SERVE_BATCH_CLIPS: &str = "serve.batch.clips";

/// Rows in the most recent flushed micro-batch (batch-fill gauge).
pub const SERVE_BATCH_FILL: &str = "serve.batch.fill";

/// Scoring requests rejected with `429` because the bounded batch queue was
/// full (backpressure).
pub const SERVE_BACKPRESSURE_REJECTED: &str = "serve.backpressure.rejected";

/// Scoring requests shed with `503` because the in-flight cap was exceeded
/// (load-shedding, before the queue is even tried).
pub const SERVE_LOAD_SHED: &str = "serve.load.shed";

/// Labelling-campaign sessions created via `POST /session`.
pub const SERVE_SESSIONS_CREATED: &str = "serve.session.created";

/// Campaign iterations advanced via `POST /session/<id>/step`.
pub const SERVE_SESSION_STEPS: &str = "serve.session.steps";

/// Session steps that restored state from a `CheckpointStore` commit (every
/// step after the first, by construction — including steps on a restarted
/// server process).
pub const SERVE_SESSION_RESUMES: &str = "serve.session.resumes";

/// Requests issued by the `lithohd-loadgen` load generator.
pub const LOADGEN_REQUESTS: &str = "loadgen.requests";

/// Load-generator requests that failed (connect error, non-2xx status).
pub const LOADGEN_ERRORS: &str = "loadgen.errors";

/// Histogram of wall-clock seconds per load-generator request.
pub const LOADGEN_LATENCY_SECONDS: &str = "loadgen.latency.seconds";

/// Journal event message for one completed sampling iteration. Carries the
/// per-iteration trajectory fields (accuracy, ECE, temperature, train loss)
/// consumed by `lithohd-report`.
pub const EVENT_ITERATION_COMPLETE: &str = "iteration complete";

/// Journal event message for one finished active-sampling run (final
/// metrics snapshot).
pub const EVENT_RUN_COMPLETE: &str = "run complete";

/// Journal event message emitted once per clip picked by the selector in a
/// sampling iteration, carrying the clip id with its uncertainty and
/// diversity scores so selection maps can be rendered offline.
pub const EVENT_CLIP_SELECTED: &str = "clip selected";

/// Journal event message emitted once per occupied reliability-diagram bin
/// at each calibration measurement (before/during/after a run), carrying
/// per-bin confidence, accuracy, and count.
pub const EVENT_CALIBRATION_BIN: &str = "calibration bin";

/// Journal event message emitted when a benchmark layout is generated,
/// carrying the spec (tech, counts, rates) and seed so clip geometry can be
/// re-synthesized deterministically by offline renderers.
pub const EVENT_BENCHMARK_READY: &str = "benchmark ready";

/// Journal event message for one sharded labelling batch merged back into
/// the master oracle (worker count, clip count, failure count). Emitted on
/// the `shard.coordinator` target, which canonical journals withhold so the
/// bytes stay worker-count invariant.
pub const EVENT_SHARD_BATCH_MERGED: &str = "shard batch merged";

/// Journal event message for a dead or hung shard worker detected by the
/// coordinator (shard id, orphaned clip count).
pub const EVENT_SHARD_WORKER_LOST: &str = "shard worker lost";

/// Journal event message for orphaned clips reassigned to a recovery round
/// after a worker loss.
pub const EVENT_SHARD_REASSIGNED: &str = "shard clips reassigned";

/// Every registered name, for registry-integrity tests and tooling.
pub const ALL: &[&str] = &[
    ORACLE_CALLS,
    ORACLE_RETRIES,
    ORACLE_GIVEUPS,
    ORACLE_QUORUM_VOTES,
    ORACLE_FAULTS_INJECTED,
    ORACLE_SECONDS,
    SPAN_RUN,
    SPAN_ITERATION,
    SPAN_SELECT,
    SPAN_DETECT,
    SPAN_GENERATE,
    SPAN_NN_TRAIN,
    NN_TRAIN_EPOCHS,
    NN_TRAIN_LOSS,
    SPAN_PM_RUN,
    SPAN_CALIBRATE,
    CALIBRATION_TEMPERATURE,
    SELECTOR_QUERY_SIZE,
    SELECTOR_BATCHES,
    SPAN_GMM_FIT,
    GMM_EM_ITERATIONS,
    CHECKPOINT_SAVES,
    CHECKPOINT_BYTES,
    CHECKPOINT_RESUMES,
    CHECKPOINT_CORRUPT_SKIPPED,
    SHARD_BATCHES,
    SHARD_CLIPS,
    SHARD_WORKERS_DEAD,
    SHARD_WORKERS_HUNG,
    SHARD_CLIPS_REASSIGNED,
    SHARD_BATCH_SECONDS,
    SPAN_SHARD_WORKER,
    KERNEL_DCT_CALLS,
    KERNEL_DCT_ELEMENTS,
    KERNEL_DCT_FLOPS,
    KERNEL_DCT_BYTES,
    KERNEL_GMM_EM_CALLS,
    KERNEL_GMM_EM_ELEMENTS,
    KERNEL_GMM_EM_FLOPS,
    KERNEL_GMM_EM_BYTES,
    KERNEL_DIVERSITY_CALLS,
    KERNEL_DIVERSITY_ELEMENTS,
    KERNEL_DIVERSITY_FLOPS,
    KERNEL_DIVERSITY_BYTES,
    KERNEL_AERIAL_CALLS,
    KERNEL_AERIAL_ELEMENTS,
    KERNEL_AERIAL_FLOPS,
    KERNEL_AERIAL_BYTES,
    SERVE_HTTP_REQUESTS,
    SERVE_HTTP_ERRORS,
    SERVE_SCORE_REQUESTS,
    SERVE_SCORE_CLIPS,
    SERVE_SCORE_SECONDS,
    SERVE_BATCH_FLUSHES,
    SERVE_BATCH_CLIPS,
    SERVE_BATCH_FILL,
    SERVE_BACKPRESSURE_REJECTED,
    SERVE_LOAD_SHED,
    SERVE_SESSIONS_CREATED,
    SERVE_SESSION_STEPS,
    SERVE_SESSION_RESUMES,
    LOADGEN_REQUESTS,
    LOADGEN_ERRORS,
    LOADGEN_LATENCY_SECONDS,
    EVENT_ITERATION_COMPLETE,
    EVENT_RUN_COMPLETE,
    EVENT_CLIP_SELECTED,
    EVENT_CALIBRATION_BIN,
    EVENT_BENCHMARK_READY,
    EVENT_SHARD_BATCH_MERGED,
    EVENT_SHARD_WORKER_LOST,
    EVENT_SHARD_REASSIGNED,
];

/// Histogram name for one span's wall-clock seconds: `span.<name>.seconds`
/// (e.g. `span.nn.train.seconds`). Every closed [`crate::span`] records
/// into it, so `/metrics` exposes per-stage tail latencies as
/// `span_<name>_seconds_p99` without journal post-processing.
pub fn span_seconds(span: &str) -> String {
    format!("span.{span}.seconds")
}

// ---------------------------------------------------------------------------
// Canonical-mode withhold registry.
//
// `--canonical-journal` promises byte-identical journals for identically
// seeded runs under any worker count. Everything that could differ — wall
// clocks, checkpoint/shard provenance, kernel call counts — must be withheld
// from canonical journals. The lists below are the single machine-readable
// source of truth: the `JsonlSink` enforces them dynamically, and the
// `canonical-purity` rule of `lithohd-lint` parses this file to verify
// statically that every wall-clock-shaped name is covered.
// ---------------------------------------------------------------------------

/// Event fields withheld in canonical mode: wall-clock durations measured
/// by instrumented code, never derived from the seeded computation. Any
/// event field key starting `elapsed_` or `duration_` must appear here.
pub const CANONICAL_WITHHELD_FIELDS: &[&str] = &["elapsed_us", "elapsed_ms", "duration_us"];

/// Event targets withheld entirely in canonical mode: `profile` events are
/// pure wall-clock measurements, `store.checkpoint` events are operational
/// provenance (saves, resumes, corruption fallbacks) that differs between
/// an interrupted-and-resumed run and an uninterrupted one without changing
/// the run's semantics, and `shard.coordinator` events carry worker-count
/// and fault-recovery provenance that must not break the byte-identity
/// oracle across different `--workers` values or chaos injections.
pub const CANONICAL_WITHHELD_TARGETS: &[&str] =
    &["profile", "store.checkpoint", "shard.coordinator"];

/// Metric-name prefixes withheld from canonical snapshots for the same
/// reason as the withheld targets: checkpoint save/resume, shard
/// coordination, per-kernel performance counters, and serving/load-test
/// traffic are provenance, not run output (kernel call counts vary with
/// sharding and fault recovery; serve/loadgen counters vary with request
/// traffic, which must never perturb a session's canonical journal).
pub const CANONICAL_WITHHELD_METRIC_PREFIXES: &[&str] =
    &["checkpoint.", "shard.", "kernel.", "serve.", "loadgen."];

/// Metric-name suffixes withheld from canonical snapshots: every latency
/// histogram ends in `.seconds` (see [`span_seconds`]), and wall-clock
/// seconds never survive into a canonical journal.
pub const CANONICAL_WITHHELD_METRIC_SUFFIXES: &[&str] = &[".seconds"];

/// Whether a metric name is withheld from canonical journal snapshots.
/// This is the exact predicate `JsonlSink` applies in canonical mode; the
/// static `canonical-purity` lint must agree with it on every registered
/// name.
pub fn is_withheld_canonical_metric(name: &str) -> bool {
    CANONICAL_WITHHELD_METRIC_PREFIXES
        .iter()
        .any(|prefix| name.starts_with(prefix))
        || CANONICAL_WITHHELD_METRIC_SUFFIXES
            .iter()
            .any(|suffix| name.ends_with(suffix))
}

/// Whether an event field key is withheld from canonical journal records.
pub fn is_withheld_canonical_field(key: &str) -> bool {
    CANONICAL_WITHHELD_FIELDS.contains(&key)
}

/// Whether an event target is withheld entirely from canonical journals.
pub fn is_withheld_canonical_target(target: &str) -> bool {
    CANONICAL_WITHHELD_TARGETS.contains(&target)
}

#[cfg(test)]
mod tests {
    use super::ALL;

    #[test]
    fn registered_names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for name in ALL {
            assert!(seen.insert(*name), "duplicate telemetry name: {name}");
        }
        assert_eq!(seen.len(), ALL.len());
    }
}
