//! Run-state checkpointing for [`SamplingFramework`](crate::SamplingFramework).
//!
//! A [`RunCheckpoint`] is what the Algorithm 2 loop (lines 6–13) reads back
//! to continue from an iteration boundary in a fresh process: the dataset
//! partition, the model (weights *and* optimiser moments), the pool's
//! GMM-likelihood order, accumulated per-iteration history, and — critically
//! for the paper's Eq. 2 accounting — the oracle's label cache and meters,
//! so a resumed run never re-bills a simulation that was already paid for.
//! Nothing else is kept: the temperature is refitted on the validation set
//! at the top of every iteration (line 8), the run's RNG is spent before
//! the loop, and the mixture model itself is only needed for the score
//! order.
//!
//! The framework is persistence-agnostic: it talks to a [`CheckpointHook`]
//! and never sees a file. The `hotspot-store` crate provides the durable
//! implementation (crash-safe atomic snapshots); [`NoCheckpoint`] is the
//! free no-op used by the plain entry points.

use crate::{ActiveError, IterationStats, ModelState, RunFaultStats};
use hotspot_litho::{OracleStateSnapshot, OracleStats};

/// The dataset partition of a checkpointed run. The unlabeled pool is not
/// stored: [`ActiveDataset::from_parts`](crate::ActiveDataset::from_parts)
/// recomputes it as the ascending complement of `labeled ∪ validation`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DatasetCheckpoint {
    /// Labelled training indices, in labelling order.
    pub labeled: Vec<usize>,
    /// Class of each labelled clip (aligned with `labeled`).
    pub labeled_classes: Vec<usize>,
    /// Validation indices.
    pub validation: Vec<usize>,
    /// Class of each validation clip.
    pub validation_classes: Vec<usize>,
}

/// Complete Algorithm 2 loop state at an iteration boundary.
///
/// Captured by the framework after an iteration's bookkeeping and handed to
/// the [`CheckpointHook`]; restoring it resumes the run bit-identically —
/// same future selections, same metrics, same Litho# — in the same or a
/// fresh process.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCheckpoint {
    /// The iteration that completed last (1-based); the resumed loop starts
    /// at `iteration + 1`.
    pub iteration: usize,
    /// The run's seed. Resume refuses a different seed: derived per-iteration
    /// seeds would silently diverge.
    pub seed: u64,
    /// The interrupted run's telemetry id; the resumed run keeps it so the
    /// journal reads as one run.
    pub run_id: u64,
    /// Benchmark clip count, for shape validation on restore.
    pub total: usize,
    /// Clip indices sorted by ascending GMM likelihood (Algorithm 2's
    /// standing query-pool order). Persisted rather than re-fit so restore
    /// emits no mixture-model telemetry.
    pub by_score: Vec<usize>,
    /// The labelled/validation partition.
    pub dataset: DatasetCheckpoint,
    /// Classifier weights, Adam moments, and step counter.
    pub model: ModelState,
    /// Validation ECE before calibration (`T = 1`), computed once pre-loop.
    pub ece_before: f64,
    /// Per-iteration stats accumulated so far.
    pub history: Vec<IterationStats>,
    /// Fault-handling tallies accumulated so far.
    pub fault_stats: RunFaultStats,
    /// The oracle's meter reading at original run start; the run's Eq. 2
    /// delta stays anchored there across the resume.
    pub stats_before: OracleStats,
    /// The process-wide `litho.oracle.calls` counter at original run start
    /// (the counter itself is restored separately, by the persistence layer).
    pub oracle_calls_before: u64,
    /// Oracle label cache and meters ([`hotspot_litho::LithoOracle::state_snapshot`]);
    /// `None` when the oracle does not support state capture.
    pub oracle: Option<OracleStateSnapshot>,
}

/// Where the framework announces iteration boundaries and obtains resume
/// state. Implementations decide persistence policy (cadence, format,
/// retention); the framework only guarantees *when* hooks fire:
///
/// 1. [`resume`](CheckpointHook::resume) — once, at run start, before any
///    telemetry or oracle traffic. Returning `Some` skips the entire
///    pre-loop phase (split, top-up, initial fit) and its journal events.
/// 2. [`wants_save`](CheckpointHook::wants_save) — after each iteration's
///    bookkeeping. Returning `false` skips checkpoint construction entirely,
///    so a disabled hook costs nothing per iteration.
/// 3. [`save`](CheckpointHook::save) — only when `wants_save` returned
///    `true`, with the fully built checkpoint.
pub trait CheckpointHook {
    /// The checkpoint to resume from, if any. Called exactly once per run.
    fn resume(&mut self) -> Option<RunCheckpoint>;

    /// Whether a checkpoint should be captured after completing `iteration`.
    fn wants_save(&mut self, iteration: usize) -> bool;

    /// Persists a checkpoint.
    ///
    /// # Errors
    ///
    /// An error aborts the run: a checkpoint the caller asked for but could
    /// not be written means the durability contract is already broken, and
    /// continuing would silently widen the re-computation window.
    fn save(&mut self, checkpoint: &RunCheckpoint) -> Result<(), ActiveError>;
}

/// The no-op hook: never resumes, never saves. Used by the plain
/// [`SamplingFramework::run`](crate::SamplingFramework::run) entry points.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCheckpoint;

impl CheckpointHook for NoCheckpoint {
    fn resume(&mut self) -> Option<RunCheckpoint> {
        None
    }

    fn wants_save(&mut self, _iteration: usize) -> bool {
        false
    }

    fn save(&mut self, _checkpoint: &RunCheckpoint) -> Result<(), ActiveError> {
        Ok(())
    }
}

/// An in-memory hook: saves every `every`-th iteration into a `Vec`, and
/// resumes from a checkpoint it is seeded with. Useful for tests and for
/// harnesses that manage persistence themselves.
#[derive(Debug, Clone, Default)]
pub struct MemoryCheckpoints {
    /// Save cadence in iterations; `0` disables saving.
    pub every: usize,
    /// Checkpoint to hand out on [`CheckpointHook::resume`].
    pub resume_from: Option<RunCheckpoint>,
    /// Checkpoints captured so far, in save order.
    pub saved: Vec<RunCheckpoint>,
}

impl MemoryCheckpoints {
    /// A hook that saves every `every` iterations and starts fresh.
    pub fn every(every: usize) -> Self {
        MemoryCheckpoints {
            every,
            ..MemoryCheckpoints::default()
        }
    }

    /// A hook that resumes from `checkpoint` and keeps saving at the same
    /// cadence.
    pub fn resuming_from(checkpoint: RunCheckpoint, every: usize) -> Self {
        MemoryCheckpoints {
            every,
            resume_from: Some(checkpoint),
            saved: Vec::new(),
        }
    }
}

impl CheckpointHook for MemoryCheckpoints {
    fn resume(&mut self) -> Option<RunCheckpoint> {
        self.resume_from.take()
    }

    fn wants_save(&mut self, iteration: usize) -> bool {
        self.every > 0 && iteration.is_multiple_of(self.every)
    }

    fn save(&mut self, checkpoint: &RunCheckpoint) -> Result<(), ActiveError> {
        self.saved.push(checkpoint.clone());
        Ok(())
    }
}
