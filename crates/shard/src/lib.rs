//! Sharded multi-worker oracle labelling with dead-shard recovery and a
//! deterministic merge.
//!
//! The active-entropy loop bills every simulator call into the paper's
//! `Litho#`, so scaling a labelling campaign across worker threads must not
//! change billing, labels, or the canonical journal by a single byte. This
//! crate wraps any snapshot-capable [`hotspot_litho::LithoOracle`] stack in a
//! [`ShardedOracle`] that:
//!
//! 1. **Partitions** each labelling batch across N worker threads, each
//!    running its own oracle stack (built by a caller-supplied factory,
//!    e.g. `RetryOracle` over `FaultyOracle` over `CountingOracle`) restored
//!    from the master's pre-batch state snapshot.
//! 2. **Silences** worker-thread telemetry
//!    ([`hotspot_telemetry::silence_thread`]) and instead has each worker
//!    report a [`ClipOutcome`] per clip — the label result plus the exact
//!    state and billing deltas its query produced.
//! 3. **Merges deterministically**: outcomes are sorted by clip id, applied
//!    onto the pre-batch snapshot, restored into the master oracle, and
//!    billed into the process-wide counters exactly once by the coordinator
//!    — so `Litho#`, quorum votes, and journal events are byte-identical for
//!    any worker count. This holds because the seeded fault schedule is a
//!    pure function of `(fault seed, clip, attempt)` and each clip's oracle
//!    interaction touches only that clip's cache entry and attempt counter.
//! 4. **Recovers dead or hung shards**: workers commit their outcomes after
//!    every clip through per-shard [`hotspot_store::CheckpointStore`]
//!    atomic-rename commits; the coordinator captures panics, bounds each
//!    shard by a poll deadline over the injectable
//!    [`hotspot_telemetry::Clock`], salvages committed outcomes from a lost
//!    worker's store, and reassigns the orphaned remainder to a fresh
//!    recovery round. Purity makes a salvaged outcome identical to a
//!    recomputed one, so a murdered worker leaves no trace in the merged
//!    state. Clips no round could label degrade gracefully to transient
//!    failures, which the framework returns to the unlabeled pool.
//!
//! All coordination provenance is journalled through `shard.*` telemetry
//! names on the `shard.coordinator` target, both of which canonical
//! journals withhold — worker counts and chaos injections never reach the
//! byte-identity oracle.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod coordinator;
mod outcome;

pub use coordinator::{FailureMode, KillSpec, ShardConfig, ShardedOracle};
pub use outcome::ClipOutcome;
