//! [`CheckpointBundle`] — the complete durable state of an interrupted
//! experiment, split across named [`CheckpointFile`] sections so each large
//! component (model weights, oracle cache, history) carries its own CRC and
//! a corruption report names the damaged part.

use hotspot_active::RunCheckpoint;
use hotspot_telemetry::{self as telemetry, JournalPosition, MetricsState};

use crate::file::CheckpointFile;
use crate::snapshot::{decode_from_slice, encode_to_vec, RunMeta};
use crate::{Restore, Snapshot, StoreError};

/// Section names used by [`CheckpointBundle`], in file order.
const SECTIONS: [&str; 11] = [
    "meta",
    "by_score",
    "dataset",
    "model",
    "gmm",
    "rng",
    "oracle",
    "history",
    "telemetry",
    "journal",
    "progress",
];

/// Everything a process needs to continue an interrupted run exactly where
/// it left off: the framework's [`RunCheckpoint`], the cumulative telemetry
/// counters/gauges/histograms, the run-id watermark, the JSONL journal
/// position to truncate back to, and an opaque harness progress blob (the
/// bench CLIs use it to record which method/repeat runs already finished).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointBundle {
    /// The sampling loop's own state.
    pub run: RunCheckpoint,
    /// Cumulative process metrics at save time.
    pub metrics: MetricsState,
    /// Highest run id handed out at save time.
    pub run_id_watermark: u64,
    /// Journal byte/sequence position at save time, if a journal sink was
    /// active; a resumed process truncates the journal here so records the
    /// crashed process wrote after the checkpoint do not survive twice.
    pub journal: Option<JournalPosition>,
    /// Harness-defined progress bytes (may be empty).
    pub progress: Vec<u8>,
}

impl CheckpointBundle {
    /// Captures `run` together with the process state a resumed process
    /// must continue from: the cumulative telemetry metrics and the run-id
    /// watermark, read at this moment.
    pub fn capture(
        run: &RunCheckpoint,
        journal: Option<JournalPosition>,
        progress: Vec<u8>,
    ) -> Self {
        CheckpointBundle {
            run: run.clone(),
            metrics: telemetry::metrics_state(),
            run_id_watermark: telemetry::run_id_watermark(),
            journal,
            progress,
        }
    }

    /// The inverse of [`CheckpointBundle::capture`] for process state:
    /// cumulative metrics continue from the checkpoint rather than from
    /// whatever the resuming process did before this call, and the run-id
    /// allocator resumes past every id the checkpointed process handed out.
    pub fn restore_process_state(&self) {
        telemetry::restore_metrics_state(&self.metrics);
        telemetry::set_run_id_watermark(self.run_id_watermark);
    }

    /// Packs the bundle into a section file ready for
    /// [`crate::CheckpointStore::save`].
    pub fn to_file(&self) -> CheckpointFile {
        let mut file = CheckpointFile::new();
        let meta = RunMeta {
            iteration: self.run.iteration,
            seed: self.run.seed,
            run_id: self.run.run_id,
            total: self.run.total,
            temperature: self.run.temperature,
            ece_before: self.run.ece_before,
            cold_batches: self.run.cold_batches,
            oracle_calls_before: self.run.oracle_calls_before,
            stats_before: self.run.stats_before,
            fault_stats: self.run.fault_stats,
        };
        file.put("meta", encode_to_vec(&meta));
        file.put("by_score", encode_to_vec(&self.run.by_score));
        file.put("dataset", encode_to_vec(&self.run.dataset));
        file.put("model", encode_to_vec(&self.run.model));
        file.put("gmm", encode_to_vec(&self.run.gmm));
        file.put("rng", encode_to_vec(&self.run.rng));
        file.put("oracle", encode_to_vec(&self.run.oracle));
        file.put("history", encode_to_vec(&self.run.history));
        let mut telemetry = crate::ByteWriter::new();
        self.metrics.encode(&mut telemetry);
        telemetry.put_u64(self.run_id_watermark);
        file.put("telemetry", telemetry.into_bytes());
        file.put("journal", encode_to_vec(&self.journal));
        file.put("progress", self.progress.clone());
        file
    }

    /// Unpacks a bundle, validating every section to full consumption.
    ///
    /// # Errors
    ///
    /// [`StoreError::MissingSection`] if a section is absent, or any decode
    /// error from the section payloads.
    pub fn from_file(file: &CheckpointFile) -> Result<Self, StoreError> {
        let meta: RunMeta = decode_from_slice(file.require("meta")?, "meta section")?;
        let by_score = decode_from_slice(file.require("by_score")?, "by_score section")?;
        let dataset = decode_from_slice(file.require("dataset")?, "dataset section")?;
        let model = decode_from_slice(file.require("model")?, "model section")?;
        let gmm = decode_from_slice(file.require("gmm")?, "gmm section")?;
        let rng = decode_from_slice(file.require("rng")?, "rng section")?;
        let oracle = decode_from_slice(file.require("oracle")?, "oracle section")?;
        let history = decode_from_slice(file.require("history")?, "history section")?;
        let mut telemetry = crate::ByteReader::new(file.require("telemetry")?);
        let metrics = MetricsState::decode(&mut telemetry)?;
        let run_id_watermark = telemetry.get_u64("run id watermark")?;
        telemetry.finish("telemetry section")?;
        let journal = decode_from_slice(file.require("journal")?, "journal section")?;
        let progress = file.require("progress")?.to_vec();
        Ok(CheckpointBundle {
            run: RunCheckpoint {
                iteration: meta.iteration,
                seed: meta.seed,
                run_id: meta.run_id,
                total: meta.total,
                temperature: meta.temperature,
                ece_before: meta.ece_before,
                cold_batches: meta.cold_batches,
                oracle_calls_before: meta.oracle_calls_before,
                stats_before: meta.stats_before,
                fault_stats: meta.fault_stats,
                by_score,
                dataset,
                model,
                gmm,
                rng,
                oracle,
                history,
            },
            metrics,
            run_id_watermark,
            journal,
            progress,
        })
    }

    /// The section names a bundle writes, in order — exposed for docs and
    /// diagnostics.
    pub fn section_names() -> &'static [&'static str] {
        &SECTIONS
    }
}
