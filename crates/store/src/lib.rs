//! Durable run-state persistence for the hotspot-detection workspace.
//!
//! An active-sampling experiment is expensive to interrupt: every labelled
//! clip was paid for in lithography simulations (the Litho# budget of
//! Eq. 2), and the run's determinism contract means a restart from scratch
//! re-bills every one of them. This crate makes runs resumable:
//!
//! * [`codec`] — a deterministic little-endian binary codec (no external
//!   dependencies, floats as raw IEEE-754 bits) plus the CRC32 used for
//!   integrity.
//! * [`Snapshot`] / [`Restore`] — (de)serialisation traits implemented for
//!   every piece of run state the sampling loop reads back: model weights
//!   and optimiser moments, the dataset partition, per-iteration history,
//!   the oracle cache and fault meters, and cumulative telemetry.
//! * [`CheckpointFile`] — a magic-tagged, versioned section container where
//!   every section payload carries its own CRC32.
//! * [`CheckpointStore`] — a directory of checkpoints committed via
//!   write-to-temp + fsync + rename, with `keep_last` retention and
//!   fall-back-to-newest-valid recovery from torn writes.
//! * [`CheckpointBundle`] — the full durable state of an experiment
//!   (framework checkpoint + metrics + journal position + harness
//!   progress), mapped onto named sections.
//!
//! The store layer emits `checkpoint.saves`, `checkpoint.bytes`, and
//! `checkpoint.corrupt_skipped` metrics; the harness that restores a bundle
//! is expected to increment `checkpoint.resumes`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod bundle;
pub mod codec;
mod error;
mod file;
mod snapshot;
mod store;

pub use bundle::CheckpointBundle;
pub use codec::{crc32, ByteReader, ByteWriter};
pub use error::StoreError;
pub use file::{CheckpointFile, FORMAT_VERSION, MAGIC};
pub use snapshot::{decode_from_slice, encode_to_vec, Restore, Snapshot};
pub use store::{CheckpointStore, DEFAULT_KEEP_LAST};
