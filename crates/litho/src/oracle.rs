use crate::Label;
use std::collections::BTreeMap;
use std::fmt;

/// Why an oracle query failed.
///
/// A production flow fronts a simulation job farm where queries fail
/// transiently, exceed deadlines, or come back corrupted; the taxonomy below
/// is what a retry policy ([`crate::RetryOracle`]) needs to decide whether a
/// failure is worth re-attempting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleError {
    /// The simulation job failed for an ephemeral reason (farm hiccup,
    /// preempted worker). Retryable.
    Transient {
        /// The queried clip.
        index: usize,
    },
    /// The simulation exceeded its deadline. Retryable — a later attempt may
    /// land on a faster worker.
    Timeout {
        /// The queried clip.
        index: usize,
    },
    /// A result arrived but failed integrity checks. Retryable — the
    /// underlying simulation is deterministic, only the transport corrupted.
    CorruptedLabel {
        /// The queried clip.
        index: usize,
    },
    /// The clip can never be simulated (malformed geometry, poisoned job).
    /// Not retryable.
    Permanent {
        /// The queried clip.
        index: usize,
    },
    /// The index does not address a clip of the population. Not retryable —
    /// this is a caller bug, not a farm fault.
    OutOfRange {
        /// The offending index.
        index: usize,
        /// Population size.
        len: usize,
    },
}

impl OracleError {
    /// The clip index the failed query addressed.
    pub fn index(&self) -> usize {
        match *self {
            OracleError::Transient { index }
            | OracleError::Timeout { index }
            | OracleError::CorruptedLabel { index }
            | OracleError::Permanent { index }
            | OracleError::OutOfRange { index, .. } => index,
        }
    }

    /// Whether a retry can plausibly succeed ([`OracleError::Transient`],
    /// [`OracleError::Timeout`], [`OracleError::CorruptedLabel`]).
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            OracleError::Transient { .. }
                | OracleError::Timeout { .. }
                | OracleError::CorruptedLabel { .. }
        )
    }

    /// Short machine-readable tag for telemetry fields.
    pub fn kind(&self) -> &'static str {
        match self {
            OracleError::Transient { .. } => "transient",
            OracleError::Timeout { .. } => "timeout",
            OracleError::CorruptedLabel { .. } => "corrupted_label",
            OracleError::Permanent { .. } => "permanent",
            OracleError::OutOfRange { .. } => "out_of_range",
        }
    }
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Transient { index } => {
                write!(f, "transient simulation failure on clip {index}")
            }
            OracleError::Timeout { index } => write!(f, "simulation timeout on clip {index}"),
            OracleError::CorruptedLabel { index } => {
                write!(f, "corrupted label detected for clip {index}")
            }
            OracleError::Permanent { index } => {
                write!(f, "permanent simulation failure on clip {index}")
            }
            OracleError::OutOfRange { index, len } => {
                write!(f, "oracle query {index} out of range ({len} clips)")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// A labelling oracle over an indexed clip population.
///
/// Active-learning experiments address clips by dataset index; the oracle
/// answers with the lithography label and meters the cost. Fault-free
/// implementations are *consistent* (repeated queries of one index return
/// the same label); fault-injecting wrappers such as [`crate::FaultyOracle`]
/// deliberately break that contract, which is what the quorum mode of
/// [`crate::RetryOracle`] defends against.
pub trait LithoOracle {
    /// Labels clip `index`, or reports why the simulation failed.
    ///
    /// # Errors
    ///
    /// [`OracleError::OutOfRange`] when `index` does not address a clip;
    /// fault-injecting or remote oracles may return any other variant.
    fn try_query(&mut self, index: usize) -> Result<Label, OracleError>;

    /// Labels clip `index` — the legacy infallible path, re-expressed in
    /// terms of [`LithoOracle::try_query`].
    ///
    /// # Panics
    ///
    /// Panics when `try_query` fails: out-of-range indices, or an
    /// unrecovered fault from a fallible implementation. Fault-tolerant
    /// callers must use `try_query` instead.
    fn query(&mut self, index: usize) -> Label {
        match self.try_query(index) {
            Ok(label) => label,
            // lithohd-lint: allow(panic-safety) — documented legacy path; fault-tolerant callers use `try_query`
            Err(error) => panic!("{error}"),
        }
    }

    /// Re-simulates clip `index` bypassing any result cache, billing a fresh
    /// simulation. Quorum voting uses this to obtain independent labels for
    /// a suspect clip.
    ///
    /// The default forwards to [`LithoOracle::try_query`], which is correct
    /// for cacheless implementations.
    ///
    /// # Errors
    ///
    /// Same contract as [`LithoOracle::try_query`].
    fn resimulate(&mut self, index: usize) -> Result<Label, OracleError> {
        self.try_query(index)
    }

    /// Labels a batch of clips, returning one result per index in order.
    ///
    /// The default queries sequentially through
    /// [`LithoOracle::try_query`], preserving the single-clip semantics
    /// exactly; sharded implementations override this to fan the batch out
    /// across worker threads while keeping the merged results, billing, and
    /// telemetry identical to the sequential order.
    fn try_query_batch(&mut self, indices: &[usize]) -> Vec<Result<Label, OracleError>> {
        indices.iter().map(|&index| self.try_query(index)).collect()
    }

    /// Billable simulations so far: distinct clips simulated plus
    /// cache-bypassing re-simulations — the paper's litho-clip count.
    /// Re-querying a cached clip is free, mirroring a real flow that stores
    /// simulation results.
    fn unique_queries(&self) -> usize;

    /// Total query calls including cache hits.
    fn total_queries(&self) -> usize;

    /// Snapshot of usage statistics. Wrappers that retry or vote fold their
    /// own meters into the snapshot.
    fn stats(&self) -> OracleStats {
        OracleStats {
            unique: self.unique_queries(),
            total: self.total_queries(),
            ..OracleStats::default()
        }
    }

    /// Captures the oracle stack's mutable state (result cache, billing
    /// meters, wrapper bookkeeping) for a checkpoint, or `None` when the
    /// implementation does not support state capture. Wrappers forward to
    /// the wrapped oracle and fold their own state in.
    fn state_snapshot(&self) -> Option<OracleStateSnapshot> {
        None
    }

    /// Restores a [`LithoOracle::state_snapshot`] capture, returning whether
    /// the oracle accepted it. Restoring bills nothing: cache entries come
    /// back as already-paid-for results, so a resumed run re-queries them
    /// for free instead of re-billing them into `litho.oracle.calls`.
    fn restore_state(&mut self, _state: &OracleStateSnapshot) -> bool {
        false
    }
}

/// Portable capture of an oracle stack's mutable state, produced by
/// [`LithoOracle::state_snapshot`] and consumed by
/// [`LithoOracle::restore_state`] when a checkpointed run resumes.
///
/// The cache carries *already-billed* simulation results; restoring it is
/// what keeps a resumed run's Litho# identical to an uninterrupted run's —
/// clips labelled before the interruption are never re-billed.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OracleStateSnapshot {
    /// Cached `(clip, label)` results in ascending clip order.
    pub cache: Vec<(usize, Label)>,
    /// Total query calls including cache hits.
    pub total: usize,
    /// Cache-bypassing re-simulations billed.
    pub resimulations: usize,
    /// Retry-layer meters, present when a `RetryOracle` wraps the stack.
    pub retry: Option<RetryMeterState>,
    /// Fault-injection bookkeeping, present when a `FaultyOracle` is in the
    /// stack (its per-clip attempt counts drive the deterministic fault
    /// schedule, so they must survive a resume).
    pub fault: Option<FaultMeterState>,
}

/// Mutable meters of a `RetryOracle`, folded into [`OracleStateSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryMeterState {
    /// Failed attempts that were retried.
    pub retries: usize,
    /// Queries abandoned after exhausting retries or permanent faults.
    pub giveups: usize,
    /// Labels cast as quorum votes.
    pub quorum_votes: usize,
}

/// Mutable state of a `FaultyOracle`, folded into [`OracleStateSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultMeterState {
    /// Per-clip attempt counters `(clip, attempts)` in ascending clip order;
    /// the seeded fault schedule is keyed on `(seed, clip, attempt)`.
    pub attempts: Vec<(usize, u64)>,
    /// Faults injected so far.
    pub injected: crate::FaultInjectionStats,
}

/// Aggregate statistics of an oracle's usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OracleStats {
    /// Billable simulations (distinct clips plus cache-bypassing
    /// re-simulations) — the litho-clip count of Eq. 2.
    pub unique: usize,
    /// Total queries including cache hits.
    pub total: usize,
    /// Failed attempts absorbed by a retry wrapper.
    pub retries: usize,
    /// Queries abandoned after exhausting retries or hitting a permanent
    /// fault.
    pub giveups: usize,
    /// Labels cast as quorum votes.
    pub quorum_votes: usize,
}

impl OracleStats {
    /// Per-run statistics: the component-wise difference `self - earlier`.
    /// Saturates at zero, so a stale `earlier` snapshot cannot underflow.
    pub fn delta_since(&self, earlier: &OracleStats) -> OracleStats {
        OracleStats {
            unique: self.unique.saturating_sub(earlier.unique),
            total: self.total.saturating_sub(earlier.total),
            retries: self.retries.saturating_sub(earlier.retries),
            giveups: self.giveups.saturating_sub(earlier.giveups),
            quorum_votes: self.quorum_votes.saturating_sub(earlier.quorum_votes),
        }
    }
}

/// A metered oracle over precomputed ground-truth labels.
///
/// Ground truth is established once while generating a benchmark (dataset
/// construction); `CountingOracle` then *meters* how many of those labels an
/// algorithm actually pays to observe — exactly the litho-simulation-overhead
/// accounting of the paper.
///
/// ```
/// use hotspot_litho::{CountingOracle, Label, LithoOracle};
/// let mut oracle = CountingOracle::new(vec![Label::Hotspot, Label::NonHotspot]);
/// assert_eq!(oracle.query(0), Label::Hotspot);
/// assert_eq!(oracle.query(0), Label::Hotspot); // cache hit
/// assert_eq!(oracle.unique_queries(), 1);
/// assert_eq!(oracle.total_queries(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct CountingOracle {
    truth: Vec<Label>,
    cache: BTreeMap<usize, Label>,
    total: usize,
    resimulations: usize,
}

impl CountingOracle {
    /// Creates an oracle over the given ground-truth labels.
    pub fn new(truth: Vec<Label>) -> Self {
        CountingOracle {
            truth,
            cache: BTreeMap::new(),
            total: 0,
            resimulations: 0,
        }
    }

    /// Size of the underlying population.
    pub fn len(&self) -> usize {
        self.truth.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.truth.is_empty()
    }

    /// Resets the meters (not the ground truth).
    pub fn reset(&mut self) {
        self.cache.clear();
        self.total = 0;
        self.resimulations = 0;
    }

    fn check_range(&self, index: usize) -> Result<(), OracleError> {
        if index < self.truth.len() {
            Ok(())
        } else {
            Err(OracleError::OutOfRange {
                index,
                len: self.truth.len(),
            })
        }
    }
}

impl LithoOracle for CountingOracle {
    fn try_query(&mut self, index: usize) -> Result<Label, OracleError> {
        self.check_range(index)?;
        self.total += 1;
        Ok(match self.cache.entry(index) {
            std::collections::btree_map::Entry::Occupied(entry) => *entry.get(),
            std::collections::btree_map::Entry::Vacant(entry) => {
                // The process-wide counter meters billable (cache-miss)
                // simulations only, so a journal snapshot mirrors the
                // paper's litho-clip count rather than raw call volume.
                // It is monotonic across oracles: per-run accounting must
                // difference it (see `SamplingFramework::run`).
                // lithohd-lint: allow(determinism-clock) — oracle latency histogram is observability, not logic
                let started = std::time::Instant::now();
                hotspot_telemetry::counter(hotspot_telemetry::names::ORACLE_CALLS).incr();
                hotspot_telemetry::trace(
                    "litho.oracle",
                    "litho simulation",
                    &[("clip", hotspot_telemetry::FieldValue::U64(index as u64))],
                );
                let label = *entry.insert(self.truth[index]);
                hotspot_telemetry::histogram(hotspot_telemetry::names::ORACLE_SECONDS)
                    .record(started.elapsed().as_secs_f64());
                label
            }
        })
    }

    fn resimulate(&mut self, index: usize) -> Result<Label, OracleError> {
        self.check_range(index)?;
        self.total += 1;
        // A cache-bypassing re-simulation is a fresh billable job even when
        // the clip was simulated before; the result cache is left untouched.
        self.resimulations += 1;
        // lithohd-lint: allow(determinism-clock) — oracle latency histogram is observability, not logic
        let started = std::time::Instant::now();
        hotspot_telemetry::counter(hotspot_telemetry::names::ORACLE_CALLS).incr();
        hotspot_telemetry::trace(
            "litho.oracle",
            "litho re-simulation",
            &[("clip", hotspot_telemetry::FieldValue::U64(index as u64))],
        );
        let label = self.truth[index];
        hotspot_telemetry::histogram(hotspot_telemetry::names::ORACLE_SECONDS)
            .record(started.elapsed().as_secs_f64());
        Ok(label)
    }

    fn unique_queries(&self) -> usize {
        self.cache.len() + self.resimulations
    }

    fn total_queries(&self) -> usize {
        self.total
    }

    fn state_snapshot(&self) -> Option<OracleStateSnapshot> {
        Some(OracleStateSnapshot {
            cache: self.cache.iter().map(|(&i, &l)| (i, l)).collect(),
            total: self.total,
            resimulations: self.resimulations,
            retry: None,
            fault: None,
        })
    }

    fn restore_state(&mut self, state: &OracleStateSnapshot) -> bool {
        // Plain field writes: no `litho.oracle.calls` increments, no latency
        // records — restored cache entries were billed before the
        // interruption and must stay billed exactly once.
        self.cache = state.cache.iter().copied().collect();
        self.total = state.total;
        self.resimulations = state.resimulations;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle() -> CountingOracle {
        CountingOracle::new(vec![
            Label::Hotspot,
            Label::NonHotspot,
            Label::NonHotspot,
            Label::Hotspot,
        ])
    }

    #[test]
    fn query_returns_truth() {
        let mut o = oracle();
        assert_eq!(o.query(0), Label::Hotspot);
        assert_eq!(o.query(1), Label::NonHotspot);
        assert_eq!(o.query(3), Label::Hotspot);
    }

    #[test]
    fn unique_vs_total_accounting() {
        let mut o = oracle();
        o.query(0);
        o.query(0);
        o.query(2);
        assert_eq!(o.unique_queries(), 2);
        assert_eq!(o.total_queries(), 3);
        assert_eq!(
            o.stats(),
            OracleStats {
                unique: 2,
                total: 3,
                ..OracleStats::default()
            }
        );
    }

    #[test]
    fn reset_clears_meters() {
        let mut o = oracle();
        o.query(1);
        o.resimulate(1).unwrap();
        o.reset();
        assert_eq!(o.unique_queries(), 0);
        assert_eq!(o.total_queries(), 0);
        assert_eq!(o.len(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut o = oracle();
        let _ = o.query(99);
    }

    #[test]
    fn try_query_reports_out_of_range() {
        let mut o = oracle();
        assert_eq!(
            o.try_query(99),
            Err(OracleError::OutOfRange { index: 99, len: 4 })
        );
        assert_eq!(
            o.resimulate(99),
            Err(OracleError::OutOfRange { index: 99, len: 4 })
        );
        // A rejected query bills nothing.
        assert_eq!(o.total_queries(), 0);
        assert_eq!(o.unique_queries(), 0);
    }

    #[test]
    fn resimulation_bills_a_fresh_simulation() {
        let mut o = oracle();
        assert_eq!(o.query(0), Label::Hotspot);
        assert_eq!(o.resimulate(0).unwrap(), Label::Hotspot);
        assert_eq!(o.resimulate(0).unwrap(), Label::Hotspot);
        // One cache miss + two re-simulations, all billable.
        assert_eq!(o.unique_queries(), 3);
        assert_eq!(o.total_queries(), 3);
    }

    #[test]
    fn error_taxonomy_retryability() {
        assert!(OracleError::Transient { index: 0 }.is_retryable());
        assert!(OracleError::Timeout { index: 0 }.is_retryable());
        assert!(OracleError::CorruptedLabel { index: 0 }.is_retryable());
        assert!(!OracleError::Permanent { index: 0 }.is_retryable());
        assert!(!OracleError::OutOfRange { index: 0, len: 1 }.is_retryable());
        assert_eq!(OracleError::Timeout { index: 7 }.index(), 7);
        assert_eq!(OracleError::Permanent { index: 7 }.kind(), "permanent");
    }

    #[test]
    fn restored_cache_hits_bill_nothing() {
        let mut first = oracle();
        first.query(0);
        first.query(2);
        first.resimulate(2).unwrap();
        let state = first.state_snapshot().expect("counting oracle snapshots");

        // A fresh process restores the state; re-querying restored clips
        // must be served from the cache without touching the global meter.
        let mut resumed = oracle();
        assert!(resumed.restore_state(&state));
        assert_eq!(resumed.unique_queries(), first.unique_queries());
        assert_eq!(resumed.total_queries(), first.total_queries());
        let billed_before =
            hotspot_telemetry::counter(hotspot_telemetry::names::ORACLE_CALLS).get();
        assert_eq!(resumed.query(0), Label::Hotspot);
        assert_eq!(resumed.query(2), Label::NonHotspot);
        let billed_after = hotspot_telemetry::counter(hotspot_telemetry::names::ORACLE_CALLS).get();
        assert_eq!(
            billed_after, billed_before,
            "restored cache hits must not re-bill litho.oracle.calls"
        );
        assert_eq!(resumed.unique_queries(), 3, "unique count carries over");
    }

    #[test]
    fn stats_delta_saturates() {
        let a = OracleStats {
            unique: 5,
            total: 8,
            retries: 2,
            giveups: 1,
            quorum_votes: 3,
        };
        let b = OracleStats {
            unique: 3,
            total: 4,
            retries: 2,
            giveups: 0,
            quorum_votes: 0,
        };
        let d = a.delta_since(&b);
        assert_eq!(d.unique, 2);
        assert_eq!(d.total, 4);
        assert_eq!(d.retries, 0);
        assert_eq!(d.giveups, 1);
        assert_eq!(d.quorum_votes, 3);
        assert_eq!(b.delta_since(&a).unique, 0);
    }
}
