//! Per-clip labelling outcomes: the unit of shard work and of the
//! deterministic merge.

use hotspot_litho::{FaultInjectionStats, Label, OracleError, OracleStateSnapshot};

/// Everything one oracle query changed, expressed as deltas against the
/// snapshot the worker's oracle held before the query.
///
/// Because the fault schedule is pure in `(seed, clip, attempt)` and a
/// query touches only its own clip's cache entry and attempt counter, a
/// `ClipOutcome` is independent of which worker produced it and of every
/// other clip in the batch — applying a batch's outcomes in ascending clip
/// order onto the pre-batch snapshot therefore reproduces one canonical
/// merged state for any partition, worker count, or recovery path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClipOutcome {
    /// The queried clip.
    pub clip: usize,
    /// The label result the caller sees.
    pub result: Result<Label, OracleError>,
    /// Cache entry the query inserted for `clip`, if it was a billable
    /// cache miss.
    pub cache_upsert: Option<Label>,
    /// Growth of the oracle's total-query meter.
    pub total_delta: usize,
    /// Cache-bypassing re-simulations billed (quorum votes).
    pub resimulations_delta: usize,
    /// Failed attempts absorbed by the retry layer.
    pub retries_delta: usize,
    /// Queries abandoned by the retry layer.
    pub giveups_delta: usize,
    /// Labels cast as quorum votes.
    pub quorum_votes_delta: usize,
    /// The fault layer's attempt counter for `clip` after the query (the
    /// seeded fault schedule keys on it), when a fault layer is present.
    pub attempts_after: Option<u64>,
    /// Faults the fault layer injected while serving this query.
    pub faults_delta: FaultInjectionStats,
}

fn cache_lookup(snapshot: &OracleStateSnapshot, clip: usize) -> Option<Label> {
    snapshot
        .cache
        .binary_search_by_key(&clip, |&(i, _)| i)
        .ok()
        .map(|pos| snapshot.cache[pos].1)
}

fn attempts_lookup(snapshot: &OracleStateSnapshot, clip: usize) -> Option<u64> {
    let fault = snapshot.fault.as_ref()?;
    fault
        .attempts
        .binary_search_by_key(&clip, |&(i, _)| i)
        .ok()
        .map(|pos| fault.attempts[pos].1)
}

impl ClipOutcome {
    /// Builds the outcome of one query by differencing the worker oracle's
    /// state snapshots from immediately before and after it.
    pub fn from_diff(
        clip: usize,
        result: Result<Label, OracleError>,
        before: &OracleStateSnapshot,
        after: &OracleStateSnapshot,
    ) -> Self {
        let cache_upsert = match cache_lookup(before, clip) {
            Some(_) => None, // already cached before the query: not billable
            None => cache_lookup(after, clip),
        };
        let (retries_delta, giveups_delta, quorum_votes_delta) =
            match (before.retry.as_ref(), after.retry.as_ref()) {
                (Some(b), Some(a)) => (
                    a.retries.saturating_sub(b.retries),
                    a.giveups.saturating_sub(b.giveups),
                    a.quorum_votes.saturating_sub(b.quorum_votes),
                ),
                _ => (0, 0, 0),
            };
        let faults_delta = match (before.fault.as_ref(), after.fault.as_ref()) {
            (Some(b), Some(a)) => FaultInjectionStats {
                transients: a.injected.transients.saturating_sub(b.injected.transients),
                timeouts: a.injected.timeouts.saturating_sub(b.injected.timeouts),
                corruptions: a
                    .injected
                    .corruptions
                    .saturating_sub(b.injected.corruptions),
                flips: a.injected.flips.saturating_sub(b.injected.flips),
                permanents: a.injected.permanents.saturating_sub(b.injected.permanents),
            },
            _ => FaultInjectionStats::default(),
        };
        ClipOutcome {
            clip,
            result,
            cache_upsert,
            total_delta: after.total.saturating_sub(before.total),
            resimulations_delta: after.resimulations.saturating_sub(before.resimulations),
            retries_delta,
            giveups_delta,
            quorum_votes_delta,
            attempts_after: attempts_lookup(after, clip),
            faults_delta,
        }
    }

    /// The outcome of a clip no worker could label (its shard died before
    /// reaching it and the recovery round could not recompute it): a
    /// transient failure with zero billing, so the framework returns the
    /// clip to the unlabeled pool exactly as for any other failed label.
    pub fn abandoned(clip: usize) -> Self {
        ClipOutcome {
            clip,
            result: Err(OracleError::Transient { index: clip }),
            cache_upsert: None,
            total_delta: 0,
            resimulations_delta: 0,
            retries_delta: 0,
            giveups_delta: 0,
            quorum_votes_delta: 0,
            attempts_after: None,
            faults_delta: FaultInjectionStats::default(),
        }
    }

    /// Billable litho simulations this query performed: a cache-miss
    /// simulation plus every cache-bypassing re-simulation — the outcome's
    /// contribution to `litho.oracle.calls` (Litho#, Eq. 2).
    pub fn billable(&self) -> usize {
        usize::from(self.cache_upsert.is_some()) + self.resimulations_delta
    }

    /// Applies this outcome's deltas onto a merged snapshot. Outcomes must
    /// be applied in ascending clip order over the batch's pre-fan-out
    /// snapshot for the canonical merge.
    pub fn apply_to(&self, merged: &mut OracleStateSnapshot) {
        if let Some(label) = self.cache_upsert {
            match merged.cache.binary_search_by_key(&self.clip, |&(i, _)| i) {
                Ok(pos) => merged.cache[pos].1 = label,
                Err(pos) => merged.cache.insert(pos, (self.clip, label)),
            }
        }
        merged.total += self.total_delta;
        merged.resimulations += self.resimulations_delta;
        if let Some(retry) = merged.retry.as_mut() {
            retry.retries += self.retries_delta;
            retry.giveups += self.giveups_delta;
            retry.quorum_votes += self.quorum_votes_delta;
        }
        if let Some(fault) = merged.fault.as_mut() {
            if let Some(attempts) = self.attempts_after {
                match fault.attempts.binary_search_by_key(&self.clip, |&(i, _)| i) {
                    Ok(pos) => fault.attempts[pos].1 = attempts,
                    Err(pos) => fault.attempts.insert(pos, (self.clip, attempts)),
                }
            }
            fault.injected.transients += self.faults_delta.transients;
            fault.injected.timeouts += self.faults_delta.timeouts;
            fault.injected.corruptions += self.faults_delta.corruptions;
            fault.injected.flips += self.faults_delta.flips;
            fault.injected.permanents += self.faults_delta.permanents;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hotspot_litho::{CountingOracle, LithoOracle};

    fn sample() -> ClipOutcome {
        ClipOutcome {
            clip: 7,
            result: Ok(Label::Hotspot),
            cache_upsert: Some(Label::Hotspot),
            total_delta: 3,
            resimulations_delta: 2,
            retries_delta: 1,
            giveups_delta: 0,
            quorum_votes_delta: 3,
            attempts_after: Some(4),
            faults_delta: FaultInjectionStats {
                transients: 1,
                ..FaultInjectionStats::default()
            },
        }
    }

    #[test]
    fn billable_counts_cache_miss_plus_resimulations() {
        assert_eq!(sample().billable(), 3);
        assert_eq!(ClipOutcome::abandoned(0).billable(), 0);
    }

    #[test]
    fn diff_of_a_cache_miss_captures_the_upsert() {
        let mut oracle = CountingOracle::new(vec![Label::Hotspot, Label::NonHotspot]);
        let before = oracle.state_snapshot().unwrap();
        let result = oracle.try_query(1);
        let after = oracle.state_snapshot().unwrap();
        let outcome = ClipOutcome::from_diff(1, result, &before, &after);
        assert_eq!(outcome.result, Ok(Label::NonHotspot));
        assert_eq!(outcome.cache_upsert, Some(Label::NonHotspot));
        assert_eq!(outcome.total_delta, 1);
        assert_eq!(outcome.billable(), 1);

        // A repeat query is a cache hit: no upsert, nothing billable.
        let before = after;
        let result = oracle.try_query(1);
        let after = oracle.state_snapshot().unwrap();
        let hit = ClipOutcome::from_diff(1, result, &before, &after);
        assert_eq!(hit.cache_upsert, None);
        assert_eq!(hit.billable(), 0);
        assert_eq!(hit.total_delta, 1);
    }

    #[test]
    fn apply_reproduces_the_sequential_snapshot() {
        let truth: Vec<Label> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    Label::Hotspot
                } else {
                    Label::NonHotspot
                }
            })
            .collect();
        let mut sequential = CountingOracle::new(truth.clone());
        let pre = sequential.state_snapshot().unwrap();

        // Record per-clip outcomes in one order...
        let mut outcomes = Vec::new();
        for clip in [5, 2, 7, 0] {
            let before = sequential.state_snapshot().unwrap();
            let result = sequential.try_query(clip);
            let after = sequential.state_snapshot().unwrap();
            outcomes.push(ClipOutcome::from_diff(clip, result, &before, &after));
        }

        // ...and re-apply them in ascending clip order onto the pre state.
        outcomes.sort_by_key(|o| o.clip);
        let mut merged = pre;
        for outcome in &outcomes {
            outcome.apply_to(&mut merged);
        }
        assert_eq!(merged, sequential.state_snapshot().unwrap());
    }
}
