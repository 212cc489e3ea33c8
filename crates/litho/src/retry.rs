//! Retry, backoff, and quorum re-labelling over a fallible oracle.
//!
//! [`RetryOracle`] makes an unreliable [`LithoOracle`] dependable: retryable
//! failures are re-attempted under a bounded exponential-backoff-with-jitter
//! [`RetryPolicy`], waiting on an injectable [`Clock`] (tests use a
//! [`VirtualClock`](hotspot_telemetry::VirtualClock) and never sleep for
//! real). An optional quorum mode re-simulates every queried clip `R` times
//! cache-bypassing and majority-votes the label, defending against *silent*
//! corruption that no error code reports. Every billable re-simulation still flows through the inner
//! oracle's `litho.oracle.calls` meter, so Eq. 2 accounting stays exact.

use crate::{Label, LithoOracle, OracleError, OracleStats};
use hotspot_telemetry as telemetry;
use hotspot_telemetry::{Clock, SystemClock};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Duration;

/// Bounded exponential backoff with deterministic jitter.
///
/// Attempt `n` (0-based) waits
/// `min(base · multiplier^n, max) · (1 + jitter · u_n)` capped again at
/// `max`, where `u_n ∈ [0, 1)` is drawn deterministically from
/// `(seed, n)`. With the effective jitter clamped to `multiplier − 1`,
/// the delay sequence is monotone non-decreasing — later attempts never
/// wait less (see the property test in `tests/retry_backoff.rs`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per query (≥ 1); the first attempt counts.
    pub max_attempts: usize,
    /// Delay before the first retry, in milliseconds.
    pub base_delay_ms: u64,
    /// Upper bound on any single delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Geometric growth factor between attempts (clamped to ≥ 1).
    pub multiplier: f64,
    /// Jitter fraction in `[0, multiplier − 1]`; larger values are clamped
    /// so the delay sequence stays monotone.
    pub jitter: f64,
    /// Seed of the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// Four attempts, 50 ms base doubling to a 2 s cap, 50 % jitter.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_delay_ms: 50,
            max_delay_ms: 2000,
            multiplier: 2.0,
            jitter: 0.5,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (one attempt, no waiting).
    pub fn no_retries() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_delay_ms: 0,
            max_delay_ms: 0,
            ..RetryPolicy::default()
        }
    }

    /// The backoff delay after failed attempt `attempt` (0-based).
    /// Deterministic in `(self.seed, attempt)`.
    pub fn delay(&self, attempt: usize) -> Duration {
        let multiplier = self.multiplier.max(1.0);
        let cap = self.max_delay_ms as f64;
        let raw = (self.base_delay_ms as f64) * multiplier.powi(attempt.min(1_000) as i32);
        let capped = raw.min(cap);
        // Effective jitter ≤ multiplier − 1 keeps (1 + j·u) below the
        // geometric growth step, which is what makes the sequence monotone.
        let jitter = self.jitter.clamp(0.0, multiplier - 1.0);
        let unit = jitter_unit(self.seed, attempt);
        let jittered = (capped * (1.0 + jitter * unit)).min(cap);
        Duration::from_secs_f64(jittered.max(0.0) / 1000.0)
    }
}

/// A deterministic uniform draw in `[0, 1)` keyed on `(seed, attempt)`.
fn jitter_unit(seed: u64, attempt: usize) -> f64 {
    let key = seed.wrapping_add((attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut rng = ChaCha8Rng::seed_from_u64(key);
    use rand::Rng;
    rng.gen_range(0.0..1.0)
}

/// A fault-tolerant wrapper: retry with backoff, optional quorum voting.
///
/// ```
/// use hotspot_litho::{
///     CountingOracle, FaultRates, FaultyOracle, Label, LithoOracle, RetryOracle, RetryPolicy,
///     VirtualClock,
/// };
///
/// let truth = CountingOracle::new(vec![Label::Hotspot; 16]);
/// let flaky = FaultyOracle::new(truth, FaultRates::transient_only(0.4), 5);
/// let mut oracle = RetryOracle::with_clock(flaky, RetryPolicy::default(), VirtualClock::new());
/// assert_eq!(oracle.try_query(0).unwrap(), Label::Hotspot);
/// ```
#[derive(Debug)]
pub struct RetryOracle<O, C = SystemClock> {
    inner: O,
    policy: RetryPolicy,
    clock: C,
    quorum: Option<usize>,
    retries: usize,
    giveups: usize,
    quorum_votes: usize,
}

impl<O: LithoOracle> RetryOracle<O, SystemClock> {
    /// Wraps `inner` with the given policy, sleeping on the real clock.
    pub fn new(inner: O, policy: RetryPolicy) -> Self {
        RetryOracle::with_clock(inner, policy, SystemClock::new())
    }
}

impl<O: LithoOracle, C: Clock> RetryOracle<O, C> {
    /// Wraps `inner` with the given policy and an explicit clock.
    ///
    /// # Panics
    ///
    /// Panics when `policy.max_attempts` is zero.
    pub fn with_clock(inner: O, policy: RetryPolicy, clock: C) -> Self {
        assert!(policy.max_attempts >= 1, "retry policy needs >= 1 attempt");
        RetryOracle {
            inner,
            policy,
            clock,
            quorum: None,
            retries: 0,
            giveups: 0,
            quorum_votes: 0,
        }
    }

    /// Enables quorum mode: every query casts `votes` labels (the first via
    /// the cached path, the rest via billable cache-bypassing re-simulation)
    /// and returns the majority. Ties — possible only with an even vote
    /// count — resolve to [`Label::Hotspot`], the conservative call in a
    /// flow where a missed hotspot costs a wafer and a false alarm costs one
    /// verification simulation. Odd counts (3 is typical) avoid ties.
    ///
    /// # Panics
    ///
    /// Panics when `votes` is zero.
    pub fn with_quorum(mut self, votes: usize) -> Self {
        assert!(votes >= 1, "quorum needs at least one vote");
        self.quorum = Some(votes);
        self
    }

    /// Failed attempts that were retried.
    pub fn retries(&self) -> usize {
        self.retries
    }

    /// Queries abandoned (permanent fault or retry budget exhausted).
    pub fn giveups(&self) -> usize {
        self.giveups
    }

    /// Labels cast as quorum votes.
    pub fn quorum_votes(&self) -> usize {
        self.quorum_votes
    }

    /// The policy in use.
    pub fn policy(&self) -> &RetryPolicy {
        &self.policy
    }

    /// The clock in use (tests inspect recorded
    /// [`VirtualClock`](hotspot_telemetry::VirtualClock) sleeps).
    pub fn clock(&self) -> &C {
        &self.clock
    }

    /// Read access to the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the inner oracle, discarding the retry layer.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// One logical query with bounded retries; `resim` picks the
    /// cache-bypassing path.
    fn attempt(&mut self, index: usize, resim: bool) -> Result<Label, OracleError> {
        let mut last = OracleError::Permanent { index };
        for attempt in 0..self.policy.max_attempts {
            let outcome = if resim {
                self.inner.resimulate(index)
            } else {
                self.inner.try_query(index)
            };
            match outcome {
                Ok(label) => return Ok(label),
                Err(error) if !error.is_retryable() => {
                    self.give_up(index, error);
                    return Err(error);
                }
                Err(error) => {
                    last = error;
                    if attempt + 1 < self.policy.max_attempts {
                        self.retries += 1;
                        telemetry::counter(telemetry::names::ORACLE_RETRIES).incr();
                        let delay = self.policy.delay(attempt);
                        telemetry::debug(
                            "litho.retry",
                            "retrying failed oracle query",
                            &[
                                ("clip", (index as u64).into()),
                                ("attempt", ((attempt + 1) as u64).into()),
                                ("error", error.kind().into()),
                                ("backoff_ms", (delay.as_millis() as u64).into()),
                            ],
                        );
                        self.clock.sleep(delay);
                    }
                }
            }
        }
        self.give_up(index, last);
        Err(last)
    }

    fn give_up(&mut self, index: usize, error: OracleError) {
        self.giveups += 1;
        telemetry::counter(telemetry::names::ORACLE_GIVEUPS).incr();
        telemetry::warn(
            "litho.retry",
            "giving up on oracle query",
            &[
                ("clip", (index as u64).into()),
                ("error", error.kind().into()),
                ("max_attempts", (self.policy.max_attempts as u64).into()),
            ],
        );
    }

    /// Casts `votes` labels for `index` and majority-votes them.
    fn vote(&mut self, index: usize, votes: usize) -> Result<Label, OracleError> {
        // The first vote may be served from the inner cache for free; every
        // further vote is a billable re-simulation by construction.
        let first = self.attempt(index, false)?;
        let mut hotspot = first.is_hotspot() as usize;
        let mut cast = 1usize;
        for _ in 1..votes {
            // A lost vote degrades the quorum but does not void the query;
            // the giveup was already metered by `attempt`.
            if let Ok(label) = self.attempt(index, true) {
                hotspot += label.is_hotspot() as usize;
                cast += 1;
            }
        }
        self.quorum_votes += cast;
        telemetry::counter(telemetry::names::ORACLE_QUORUM_VOTES).add(cast as u64);
        // Majority hotspot, or a tie: err on the hotspot side.
        let label = if hotspot * 2 >= cast {
            Label::Hotspot
        } else {
            Label::NonHotspot
        };
        if cast > 1 && (hotspot != 0 && hotspot != cast) {
            telemetry::debug(
                "litho.retry",
                "quorum votes disagreed",
                &[
                    ("clip", (index as u64).into()),
                    ("hotspot_votes", (hotspot as u64).into()),
                    ("votes", (cast as u64).into()),
                ],
            );
        }
        Ok(label)
    }
}

impl<O: LithoOracle, C: Clock> LithoOracle for RetryOracle<O, C> {
    fn try_query(&mut self, index: usize) -> Result<Label, OracleError> {
        match self.quorum {
            Some(votes) if votes > 1 => self.vote(index, votes),
            _ => self.attempt(index, false),
        }
    }

    fn resimulate(&mut self, index: usize) -> Result<Label, OracleError> {
        self.attempt(index, true)
    }

    fn unique_queries(&self) -> usize {
        self.inner.unique_queries()
    }

    fn total_queries(&self) -> usize {
        self.inner.total_queries()
    }

    fn stats(&self) -> OracleStats {
        let mut stats = self.inner.stats();
        stats.retries += self.retries;
        stats.giveups += self.giveups;
        stats.quorum_votes += self.quorum_votes;
        stats
    }

    fn state_snapshot(&self) -> Option<crate::OracleStateSnapshot> {
        let mut state = self.inner.state_snapshot()?;
        state.retry = Some(crate::RetryMeterState {
            retries: self.retries,
            giveups: self.giveups,
            quorum_votes: self.quorum_votes,
        });
        Some(state)
    }

    fn restore_state(&mut self, state: &crate::OracleStateSnapshot) -> bool {
        if !self.inner.restore_state(state) {
            return false;
        }
        if let Some(retry) = &state.retry {
            self.retries = retry.retries;
            self.giveups = retry.giveups;
            self.quorum_votes = retry.quorum_votes;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CountingOracle, FaultRates, FaultyOracle};
    use hotspot_telemetry::VirtualClock;

    fn truth() -> CountingOracle {
        CountingOracle::new(
            (0..64)
                .map(|i| {
                    if i % 5 == 0 {
                        Label::Hotspot
                    } else {
                        Label::NonHotspot
                    }
                })
                .collect(),
        )
    }

    fn flaky(rates: FaultRates, seed: u64) -> FaultyOracle<CountingOracle> {
        FaultyOracle::new(truth(), rates, seed)
    }

    #[test]
    fn retries_recover_transient_failures() {
        let mut o = RetryOracle::with_clock(
            flaky(FaultRates::transient_only(0.5), 21),
            RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::default()
            },
            VirtualClock::new(),
        );
        let mut plain = truth();
        for i in 0..64 {
            assert_eq!(o.try_query(i).unwrap(), plain.query(i), "clip {i}");
        }
        assert!(o.retries() > 0, "a 50% transient rate must force retries");
        assert_eq!(o.giveups(), 0);
        // All waiting went through the virtual clock.
        assert_eq!(o.clock().sleeps().len(), o.retries());
    }

    #[test]
    fn permanent_failures_give_up_immediately() {
        let inner = flaky(FaultRates::default(), 0).with_permanent_failures([7usize]);
        let mut o = RetryOracle::with_clock(inner, RetryPolicy::default(), VirtualClock::new());
        assert_eq!(o.try_query(7), Err(OracleError::Permanent { index: 7 }));
        assert_eq!(o.retries(), 0, "permanent errors are not retried");
        assert_eq!(o.giveups(), 1);
        assert!(o.clock().sleeps().is_empty());
    }

    #[test]
    fn retry_budget_is_bounded() {
        let mut o = RetryOracle::with_clock(
            flaky(FaultRates::transient_only(1.0), 3),
            RetryPolicy {
                max_attempts: 4,
                ..RetryPolicy::default()
            },
            VirtualClock::new(),
        );
        assert!(o.try_query(0).is_err());
        assert_eq!(o.retries(), 3, "max_attempts − 1 retries");
        assert_eq!(o.giveups(), 1);
        assert_eq!(o.clock().sleeps().len(), 3);
    }

    #[test]
    fn backoff_delays_grow_and_cap() {
        let policy = RetryPolicy {
            max_attempts: 12,
            base_delay_ms: 10,
            max_delay_ms: 200,
            multiplier: 2.0,
            jitter: 0.5,
            seed: 9,
        };
        let delays: Vec<Duration> = (0..11).map(|a| policy.delay(a)).collect();
        for pair in delays.windows(2) {
            assert!(pair[1] >= pair[0], "delays must be monotone: {delays:?}");
        }
        assert!(delays.iter().all(|d| *d <= Duration::from_millis(200)));
        assert_eq!(*delays.last().unwrap(), Duration::from_millis(200));
    }

    #[test]
    fn quorum_outvotes_silent_flips() {
        // 15% flip rate per attempt: a single read is wrong for ~10 of 64
        // clips, but a wrong 5-vote majority needs ≥3 flips (p ≈ 0.027).
        let rates = FaultRates {
            flip: 0.15,
            ..FaultRates::default()
        };
        let mut o = RetryOracle::with_clock(
            flaky(rates, 13),
            RetryPolicy::default(),
            VirtualClock::new(),
        )
        .with_quorum(5);
        let mut plain = truth();
        let mut wrong = 0;
        for i in 0..64 {
            if o.try_query(i).unwrap() != plain.query(i) {
                wrong += 1;
            }
        }
        assert!(wrong <= 5, "quorum left {wrong}/64 labels wrong");
        assert_eq!(o.quorum_votes(), 64 * 5);
        // 4 extra votes per clip are billable re-simulations.
        assert_eq!(o.unique_queries(), 64 + 64 * 4);
    }

    #[test]
    fn quorum_accounting_reaches_stats() {
        let mut o = RetryOracle::with_clock(truth(), RetryPolicy::default(), VirtualClock::new())
            .with_quorum(3);
        for i in 0..4 {
            o.try_query(i).unwrap();
        }
        let stats = o.stats();
        assert_eq!(stats.quorum_votes, 12);
        assert_eq!(stats.unique, 4 + 8, "2 extra billable votes per clip");
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.giveups, 0);
    }

    #[test]
    fn fault_free_oracle_is_untouched_by_the_wrapper() {
        let mut o = RetryOracle::with_clock(truth(), RetryPolicy::default(), VirtualClock::new());
        let mut plain = truth();
        for i in 0..64 {
            assert_eq!(o.try_query(i).unwrap(), plain.query(i));
        }
        assert_eq!(o.retries(), 0);
        assert_eq!(o.stats(), plain.stats());
    }

    #[test]
    fn stacked_state_snapshot_round_trips_and_resumes_the_fault_schedule() {
        let rates = FaultRates {
            transient: 0.3,
            flip: 0.2,
            ..FaultRates::default()
        };
        let policy = RetryPolicy {
            max_attempts: 6,
            ..RetryPolicy::default()
        };
        // Uninterrupted reference: query everything in one pass.
        let mut reference = RetryOracle::with_clock(
            FaultyOracle::new(truth(), rates, 17),
            policy,
            VirtualClock::new(),
        )
        .with_quorum(3);
        let full: Vec<Label> = (0..64).map(|i| reference.try_query(i).unwrap()).collect();

        // Interrupted run: stop half-way, capture, restore into a fresh
        // stack, finish. Labels and meters must match the reference exactly.
        let mut first = RetryOracle::with_clock(
            FaultyOracle::new(truth(), rates, 17),
            policy,
            VirtualClock::new(),
        )
        .with_quorum(3);
        let head: Vec<Label> = (0..32).map(|i| first.try_query(i).unwrap()).collect();
        let state = first.state_snapshot().expect("stack snapshots");
        assert!(state.retry.is_some() && state.fault.is_some());

        let mut resumed = RetryOracle::with_clock(
            FaultyOracle::new(truth(), rates, 17),
            policy,
            VirtualClock::new(),
        )
        .with_quorum(3);
        assert!(resumed.restore_state(&state));
        let tail: Vec<Label> = (32..64).map(|i| resumed.try_query(i).unwrap()).collect();

        let mut resumed_labels = head;
        resumed_labels.extend(tail);
        assert_eq!(resumed_labels, full);
        assert_eq!(resumed.stats(), reference.stats());
        assert_eq!(
            resumed.unique_queries(),
            reference.unique_queries(),
            "Litho# must be identical across the interruption"
        );
    }

    #[test]
    fn tie_votes_resolve_to_hotspot() {
        // flip rate 1.0 with 2 votes: both votes flip, so no tie — instead
        // craft a tie via an even quorum on a stream that flips exactly one
        // of two votes. Easier deterministic check: hotspot*2 == cast path.
        // 2 votes, one flipped: seed searched so clip 0 (Hotspot) yields one
        // flip in two attempts.
        let mut found = false;
        for seed in 0..200 {
            let rates = FaultRates {
                flip: 0.5,
                ..FaultRates::default()
            };
            let mut probe = FaultyOracle::new(truth(), rates, seed);
            let a = probe.try_query(0).unwrap();
            let b = probe.resimulate(0).unwrap();
            if a != b {
                let mut o = RetryOracle::with_clock(
                    FaultyOracle::new(truth(), rates, seed),
                    RetryPolicy::default(),
                    VirtualClock::new(),
                )
                .with_quorum(2);
                assert_eq!(o.try_query(0).unwrap(), Label::Hotspot);
                found = true;
                break;
            }
        }
        assert!(found, "no seed produced a split 2-vote quorum");
    }
}
