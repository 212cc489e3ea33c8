//! Durable-run support for the experiment binaries: wires the
//! `hotspot-store` checkpoint subsystem into the multi-run harnesses.
//!
//! A bench binary executes an ordered *sequence* of framework runs (methods
//! × repeats, or fault-rate sweep cells). [`CheckpointedSequence`] makes
//! the whole sequence durable: each run checkpoints at iteration
//! boundaries, completed runs are recorded in the checkpoint's progress
//! section, and a `--resume` invocation replays completed runs from the
//! record, restores the in-flight run mid-iteration, and executes the rest
//! — producing byte-identical canonical journals and identical final
//! metrics to the uninterrupted invocation.

use hotspot_active::{ActiveError, CheckpointHook, RunCheckpoint, RunOutcome};
use hotspot_store::{ByteReader, ByteWriter, CheckpointBundle, CheckpointStore, StoreError};
use hotspot_telemetry as telemetry;

use crate::cli::{journal_sink, ExperimentArgs};

/// Exit code of a `--crash-after-checkpoints` induced crash, distinct from
/// usage errors (2) so the resume-determinism suite can assert the kill
/// actually happened.
pub const CRASH_EXIT_CODE: i32 = 3;

/// The scalar outcome of one completed framework run, persisted in the
/// checkpoint progress section so a resumed harness replays finished runs
/// without re-executing (or re-billing) them.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunRecord {
    /// Detection accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Litho-clip overhead (Eq. 2).
    pub litho: u64,
    /// Billable re-simulations beyond the labelled sets.
    pub extra_simulations: u64,
    /// Oracle retries absorbed.
    pub retries: u64,
    /// Queries abandoned after exhausting retries.
    pub giveups: u64,
    /// Labels that never arrived.
    pub label_failures: u64,
    /// Whether the run degraded.
    pub degraded: bool,
    /// Measured wall seconds (informational; never compared).
    pub secs: f64,
}

impl From<&RunOutcome> for RunRecord {
    fn from(outcome: &RunOutcome) -> Self {
        RunRecord {
            accuracy: outcome.metrics.accuracy,
            litho: outcome.metrics.litho as u64,
            extra_simulations: outcome.metrics.extra_simulations as u64,
            retries: outcome.fault_stats.oracle_retries as u64,
            giveups: outcome.fault_stats.oracle_giveups as u64,
            label_failures: outcome.fault_stats.label_failures as u64,
            degraded: outcome.degraded,
            secs: outcome.elapsed.as_secs_f64(),
        }
    }
}

impl RunRecord {
    /// The mean over `records` (repeats of one plan): counts are rounded
    /// to the nearest whole run, and the mean degrades if any run did.
    ///
    /// # Panics
    ///
    /// Panics when `records` is empty.
    pub(crate) fn mean(records: &[RunRecord]) -> RunRecord {
        assert!(!records.is_empty(), "no runs to average");
        let n = records.len() as f64;
        let mean = |field: &dyn Fn(&RunRecord) -> f64| records.iter().map(field).sum::<f64>() / n;
        let count = |field: fn(&RunRecord) -> u64| mean(&|r| field(r) as f64).round() as u64;
        RunRecord {
            accuracy: mean(&|r| r.accuracy),
            litho: count(|r| r.litho),
            extra_simulations: count(|r| r.extra_simulations),
            retries: count(|r| r.retries),
            giveups: count(|r| r.giveups),
            label_failures: count(|r| r.label_failures),
            degraded: records.iter().any(|r| r.degraded),
            secs: mean(&|r| r.secs),
        }
    }
}

fn encode_records(records: &[RunRecord]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_usize(records.len());
    for r in records {
        w.put_f64(r.accuracy);
        w.put_u64(r.litho);
        w.put_u64(r.extra_simulations);
        w.put_u64(r.retries);
        w.put_u64(r.giveups);
        w.put_u64(r.label_failures);
        w.put_bool(r.degraded);
        w.put_f64(r.secs);
    }
    w.into_bytes()
}

fn decode_records(bytes: &[u8]) -> Result<Vec<RunRecord>, StoreError> {
    let mut r = ByteReader::new(bytes);
    let len = r.get_seq_len("progress records")?;
    let mut records = Vec::with_capacity(len);
    for _ in 0..len {
        records.push(RunRecord {
            accuracy: r.get_f64("progress")?,
            litho: r.get_u64("progress")?,
            extra_simulations: r.get_u64("progress")?,
            retries: r.get_u64("progress")?,
            giveups: r.get_u64("progress")?,
            label_failures: r.get_u64("progress")?,
            degraded: r.get_bool("progress")?,
            secs: r.get_f64("progress")?,
        });
    }
    r.finish("progress records")?;
    Ok(records)
}

/// Durable execution of an ordered run sequence (see module docs). Build
/// with [`CheckpointedSequence::from_args`]; hand it to every
/// [`crate::RunPlan::run`] of the binary, in a fixed order.
#[derive(Debug)]
pub struct CheckpointedSequence {
    store: CheckpointStore,
    every: usize,
    crash_after: Option<usize>,
    saves_done: usize,
    next_key: u64,
    completed: Vec<RunRecord>,
    inflight: Option<RunCheckpoint>,
    ordinal: usize,
}

impl CheckpointedSequence {
    /// Builds the sequence from `--checkpoint-dir` / `--checkpoint-every` /
    /// `--resume` / `--crash-after-checkpoints`. Returns `None` when no
    /// checkpoint dir was given (the binary runs un-checkpointed).
    ///
    /// Must be called **after** the benchmark is regenerated and **before**
    /// any framework run: on `--resume` it restores cumulative telemetry
    /// (discarding the duplicate increments regeneration just made),
    /// rewinds the run-id allocator, truncates the journal to the
    /// checkpoint's durable position, and opens it for appending. Exits
    /// with a message when `--resume` finds no valid checkpoint.
    pub fn from_args(args: &ExperimentArgs) -> Option<Self> {
        let dir = args.checkpoint_dir.as_ref()?;
        let store = match CheckpointStore::open(dir) {
            Ok(store) => store,
            Err(e) => {
                eprintln!("cannot open checkpoint dir {}: {e}", dir.display());
                std::process::exit(2);
            }
        };
        let next_key = store.latest_key().map_or(1, |k| k + 1);
        let mut seq = CheckpointedSequence {
            store,
            every: args.checkpoint_every,
            crash_after: args.crash_after_checkpoints,
            saves_done: 0,
            next_key,
            completed: Vec::new(),
            inflight: None,
            ordinal: 0,
        };
        if args.resume {
            seq.restore(args);
        }
        Some(seq)
    }

    fn restore(&mut self, args: &ExperimentArgs) {
        let (key, file) = match self.store.load_latest() {
            Ok(Some(found)) => found,
            Ok(None) => {
                eprintln!(
                    "--resume: no valid checkpoint in {}",
                    self.store.dir().display()
                );
                std::process::exit(2);
            }
            Err(e) => {
                eprintln!("--resume: cannot read checkpoint store: {e}");
                std::process::exit(2);
            }
        };
        let bundle = match CheckpointBundle::from_file(&file) {
            Ok(bundle) => bundle,
            Err(e) => {
                eprintln!("--resume: checkpoint {key} is unusable: {e}");
                std::process::exit(2);
            }
        };
        let progress = match decode_records(&bundle.progress) {
            Ok(progress) => progress,
            Err(e) => {
                eprintln!("--resume: checkpoint {key} progress is unusable: {e}");
                std::process::exit(2);
            }
        };
        // Cumulative counters/histograms continue from the checkpoint, not
        // from this process's partial re-setup work (the benchmark was
        // regenerated before this call; the original generation is already
        // accounted inside the restored state).
        bundle.restore_process_state();
        telemetry::counter(telemetry::names::CHECKPOINT_RESUMES).incr();
        args.open_journal_resumed(bundle.journal.unwrap_or_default());
        if let Some(sink) = journal_sink() {
            sink.record_resume(bundle.run.iteration as u64, key);
        }
        telemetry::info(
            "store.checkpoint",
            "resuming from checkpoint",
            &[
                ("checkpoint", key.into()),
                ("iteration", (bundle.run.iteration as u64).into()),
                ("completed_runs", (progress.len() as u64).into()),
            ],
        );
        self.completed = progress;
        self.inflight = Some(bundle.run);
    }

    /// Executes (or, on resume, replays) the next run of the sequence. The
    /// closure receives the checkpoint hook to thread into
    /// `run_with_oracle_checkpointed`; call order must be identical across
    /// invocations — the sequence is positional.
    pub(crate) fn next_run(
        &mut self,
        run: impl FnOnce(&mut dyn CheckpointHook) -> RunRecord,
    ) -> RunRecord {
        if let Some(&done) = self.completed.get(self.ordinal) {
            self.ordinal += 1;
            return done;
        }
        let record = run(self);
        self.completed.push(record);
        self.ordinal += 1;
        record
    }
}

impl CheckpointHook for CheckpointedSequence {
    fn resume(&mut self) -> Option<RunCheckpoint> {
        self.inflight.take()
    }

    fn wants_save(&mut self, iteration: usize) -> bool {
        iteration.is_multiple_of(self.every)
    }

    fn save(&mut self, checkpoint: &RunCheckpoint) -> Result<(), ActiveError> {
        let bundle = CheckpointBundle::capture(
            checkpoint,
            journal_sink().map(|sink| sink.position()),
            encode_records(&self.completed),
        );
        self.store
            .save(self.next_key, &bundle.to_file())
            .map_err(|e| ActiveError::Checkpoint {
                detail: format!("checkpoint save failed: {e}"),
            })?;
        self.next_key += 1;
        self.saves_done += 1;
        if self.crash_after == Some(self.saves_done) {
            // The injected crash the resume-determinism suite drives: die
            // right after the commit rename, like a power cut. Flush sinks
            // first only because a real kill would also find the journal
            // flushed (JsonlSink flushes per record).
            telemetry::flush();
            eprintln!(
                "crash injected after checkpoint {} (--crash-after-checkpoints {})",
                self.next_key - 1,
                self.saves_done
            );
            std::process::exit(CRASH_EXIT_CODE);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_progress_bytes() {
        let records = vec![
            RunRecord {
                accuracy: 0.875,
                litho: 120,
                extra_simulations: 4,
                retries: 2,
                giveups: 1,
                label_failures: 1,
                degraded: true,
                secs: 1.25,
            },
            RunRecord::default(),
        ];
        let decoded = decode_records(&encode_records(&records)).unwrap();
        assert_eq!(decoded, records);
        assert!(decode_records(&encode_records(&records)[..5]).is_err());
    }
}
