//! Deterministic seeded fault injection for oracle robustness experiments.
//!
//! [`FaultyOracle`] wraps any [`LithoOracle`] and injects the failure modes a
//! simulation job farm exhibits in production: transient job failures,
//! deadline timeouts, detected result corruption, silent label flips, and
//! per-clip permanent failures. Every fault decision is a pure function of
//! `(seed, clip index, attempt number)`, so a fixed seed reproduces the same
//! fault schedule regardless of how queries interleave across clips — the
//! property that makes end-to-end resilience runs bit-identical.

use crate::{Label, LithoOracle, OracleError};
use hotspot_telemetry as telemetry;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{BTreeMap, BTreeSet};

/// Per-attempt fault probabilities of a [`FaultyOracle`].
///
/// `transient`, `timeout`, and `corrupt` surface as the corresponding
/// [`OracleError`] variants *before* the inner oracle is consulted (a failed
/// job bills no simulation). `flip` silently negates the returned label —
/// the corruption that only quorum re-simulation can catch.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability of [`OracleError::Transient`] per attempt.
    pub transient: f64,
    /// Probability of [`OracleError::Timeout`] per attempt.
    pub timeout: f64,
    /// Probability of [`OracleError::CorruptedLabel`] per attempt.
    pub corrupt: f64,
    /// Probability of silently flipping the returned label per attempt.
    pub flip: f64,
}

impl FaultRates {
    /// Rates with only a transient-failure component.
    pub fn transient_only(transient: f64) -> Self {
        FaultRates {
            transient,
            ..FaultRates::default()
        }
    }

    /// Whether every rate is a probability and the error rates fit in one
    /// unit interval together.
    pub fn is_valid(&self) -> bool {
        let unit = |p: f64| (0.0..=1.0).contains(&p);
        unit(self.transient)
            && unit(self.timeout)
            && unit(self.corrupt)
            && unit(self.flip)
            && self.transient + self.timeout + self.corrupt <= 1.0
    }
}

/// Tally of the faults a [`FaultyOracle`] has injected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultInjectionStats {
    /// Transient failures injected.
    pub transients: usize,
    /// Timeouts injected.
    pub timeouts: usize,
    /// Detected-corruption failures injected.
    pub corruptions: usize,
    /// Labels silently flipped.
    pub flips: usize,
    /// Queries rejected because the clip is permanently failed.
    pub permanents: usize,
}

impl FaultInjectionStats {
    /// Total faults injected.
    pub fn total(&self) -> usize {
        self.transients + self.timeouts + self.corruptions + self.flips + self.permanents
    }
}

/// A fault-injecting wrapper around any [`LithoOracle`].
///
/// ```
/// use hotspot_litho::{CountingOracle, FaultRates, FaultyOracle, Label, LithoOracle};
///
/// let truth = CountingOracle::new(vec![Label::Hotspot; 8]);
/// let mut flaky = FaultyOracle::new(truth, FaultRates::transient_only(1.0), 7);
/// assert!(flaky.try_query(0).is_err()); // every attempt fails at rate 1.0
/// ```
#[derive(Debug, Clone)]
pub struct FaultyOracle<O> {
    inner: O,
    rates: FaultRates,
    seed: u64,
    permanent: BTreeSet<usize>,
    attempts: BTreeMap<usize, u64>,
    injected: FaultInjectionStats,
}

impl<O: LithoOracle> FaultyOracle<O> {
    /// Wraps `inner`, injecting faults at the given rates, deterministically
    /// in `seed`.
    ///
    /// # Panics
    ///
    /// Panics when `rates` is not valid (see [`FaultRates::is_valid`]).
    pub fn new(inner: O, rates: FaultRates, seed: u64) -> Self {
        assert!(
            rates.is_valid(),
            "fault rates must be probabilities with transient+timeout+corrupt <= 1"
        );
        FaultyOracle {
            inner,
            rates,
            seed,
            permanent: BTreeSet::new(),
            attempts: BTreeMap::new(),
            injected: FaultInjectionStats::default(),
        }
    }

    /// Marks clips whose every query fails with [`OracleError::Permanent`].
    pub fn with_permanent_failures<I: IntoIterator<Item = usize>>(mut self, clips: I) -> Self {
        self.permanent.extend(clips);
        self
    }

    /// The faults injected so far.
    pub fn injected(&self) -> FaultInjectionStats {
        self.injected
    }

    /// The configured fault rates.
    pub fn rates(&self) -> FaultRates {
        self.rates
    }

    /// Read access to the wrapped oracle.
    pub fn inner(&self) -> &O {
        &self.inner
    }

    /// Unwraps the inner oracle, discarding the fault layer.
    pub fn into_inner(self) -> O {
        self.inner
    }

    /// Rolls the per-attempt fault dice for `index`. Returns the injected
    /// error, or the flip decision for a successful attempt.
    fn roll(&mut self, index: usize) -> Result<bool, OracleError> {
        if self.permanent.contains(&index) {
            self.injected.permanents += 1;
            self.record_fault("permanent", index);
            return Err(OracleError::Permanent { index });
        }
        let attempt = self.attempts.entry(index).or_insert(0);
        let nonce = *attempt;
        *attempt += 1;
        // Key the stream on (seed, index, attempt) so the schedule is a pure
        // function of the query's identity, not of global call order.
        let key = self
            .seed
            .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(nonce.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut rng = ChaCha8Rng::seed_from_u64(key);
        let u: f64 = rng.gen_range(0.0..1.0);
        if u < self.rates.transient {
            self.injected.transients += 1;
            self.record_fault("transient", index);
            return Err(OracleError::Transient { index });
        }
        if u < self.rates.transient + self.rates.timeout {
            self.injected.timeouts += 1;
            self.record_fault("timeout", index);
            return Err(OracleError::Timeout { index });
        }
        if u < self.rates.transient + self.rates.timeout + self.rates.corrupt {
            self.injected.corruptions += 1;
            self.record_fault("corrupted_label", index);
            return Err(OracleError::CorruptedLabel { index });
        }
        let flip = rng.gen_range(0.0..1.0) < self.rates.flip;
        if flip {
            self.injected.flips += 1;
            self.record_fault("flip", index);
        }
        Ok(flip)
    }

    fn record_fault(&self, kind: &str, index: usize) {
        telemetry::counter(telemetry::names::ORACLE_FAULTS_INJECTED).incr();
        telemetry::debug(
            "litho.fault",
            "fault injected",
            &[("kind", kind.into()), ("clip", (index as u64).into())],
        );
    }
}

fn negate(label: Label) -> Label {
    match label {
        Label::Hotspot => Label::NonHotspot,
        Label::NonHotspot => Label::Hotspot,
    }
}

impl<O: LithoOracle> LithoOracle for FaultyOracle<O> {
    fn try_query(&mut self, index: usize) -> Result<Label, OracleError> {
        let flip = self.roll(index)?;
        let label = self.inner.try_query(index)?;
        Ok(if flip { negate(label) } else { label })
    }

    fn resimulate(&mut self, index: usize) -> Result<Label, OracleError> {
        let flip = self.roll(index)?;
        let label = self.inner.resimulate(index)?;
        Ok(if flip { negate(label) } else { label })
    }

    fn unique_queries(&self) -> usize {
        self.inner.unique_queries()
    }

    fn total_queries(&self) -> usize {
        self.inner.total_queries()
    }

    fn stats(&self) -> crate::OracleStats {
        self.inner.stats()
    }

    fn state_snapshot(&self) -> Option<crate::OracleStateSnapshot> {
        let mut state = self.inner.state_snapshot()?;
        state.fault = Some(crate::FaultMeterState {
            attempts: self.attempts.iter().map(|(&i, &n)| (i, n)).collect(),
            injected: self.injected,
        });
        Some(state)
    }

    fn restore_state(&mut self, state: &crate::OracleStateSnapshot) -> bool {
        if !self.inner.restore_state(state) {
            return false;
        }
        if let Some(fault) = &state.fault {
            // The attempt counters key the (seed, clip, attempt) fault
            // schedule, so restoring them keeps the schedule aligned with
            // the interrupted run. Permanent-failure clips are
            // configuration, rebuilt by the constructor.
            self.attempts = fault.attempts.iter().copied().collect();
            self.injected = fault.injected;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingOracle;

    fn truth() -> CountingOracle {
        CountingOracle::new(
            (0..32)
                .map(|i| {
                    if i % 4 == 0 {
                        Label::Hotspot
                    } else {
                        Label::NonHotspot
                    }
                })
                .collect(),
        )
    }

    #[test]
    fn zero_rates_are_transparent() {
        let mut plain = truth();
        let mut faulty = FaultyOracle::new(truth(), FaultRates::default(), 1);
        for i in 0..32 {
            assert_eq!(faulty.try_query(i).unwrap(), plain.query(i));
        }
        assert_eq!(faulty.injected().total(), 0);
        assert_eq!(faulty.unique_queries(), 32);
    }

    #[test]
    fn fault_schedule_is_deterministic_in_seed() {
        let run = |seed: u64| -> Vec<Result<Label, OracleError>> {
            let mut o = FaultyOracle::new(
                truth(),
                FaultRates {
                    transient: 0.3,
                    timeout: 0.1,
                    corrupt: 0.05,
                    flip: 0.1,
                },
                seed,
            );
            (0..32)
                .flat_map(|i| (0..3).map(move |_| i))
                .map(|i| o.try_query(i))
                .collect()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn schedule_is_independent_of_interleaving() {
        let rates = FaultRates::transient_only(0.5);
        let mut a = FaultyOracle::new(truth(), rates, 3);
        let mut b = FaultyOracle::new(truth(), rates, 3);
        // a queries clip-major, b round-robins; per-(clip, attempt) outcomes
        // must agree.
        let mut outcomes_a = std::collections::HashMap::new();
        for clip in 0..8 {
            for attempt in 0..4 {
                outcomes_a.insert((clip, attempt), a.try_query(clip).is_ok());
            }
        }
        for attempt in 0..4 {
            for clip in 0..8 {
                assert_eq!(
                    b.try_query(clip).is_ok(),
                    outcomes_a[&(clip, attempt)],
                    "clip {clip} attempt {attempt}"
                );
            }
        }
    }

    #[test]
    fn retries_eventually_succeed_under_partial_rates() {
        let mut o = FaultyOracle::new(truth(), FaultRates::transient_only(0.5), 11);
        for i in 0..32 {
            let mut attempts = 0;
            loop {
                attempts += 1;
                assert!(attempts < 100, "clip {i} never succeeded");
                if o.try_query(i).is_ok() {
                    break;
                }
            }
        }
        assert!(o.injected().transients > 0);
    }

    #[test]
    fn permanent_failures_never_recover() {
        let mut o = FaultyOracle::new(truth(), FaultRates::default(), 0)
            .with_permanent_failures([3usize, 5]);
        for _ in 0..10 {
            assert_eq!(o.try_query(3), Err(OracleError::Permanent { index: 3 }));
            assert_eq!(o.resimulate(5), Err(OracleError::Permanent { index: 5 }));
        }
        assert!(o.try_query(4).is_ok());
        assert_eq!(o.injected().permanents, 20);
    }

    #[test]
    fn flips_negate_the_inner_label() {
        let mut o = FaultyOracle::new(
            truth(),
            FaultRates {
                flip: 1.0,
                ..FaultRates::default()
            },
            2,
        );
        let mut plain = truth();
        for i in 0..32 {
            assert_eq!(o.try_query(i).unwrap(), negate(plain.query(i)));
        }
        assert_eq!(o.injected().flips, 32);
    }

    #[test]
    fn failed_attempts_bill_no_simulation() {
        let mut o = FaultyOracle::new(truth(), FaultRates::transient_only(1.0), 4);
        for i in 0..8 {
            assert!(o.try_query(i).is_err());
        }
        assert_eq!(o.unique_queries(), 0);
        assert_eq!(o.total_queries(), 0);
    }

    #[test]
    #[should_panic(expected = "fault rates")]
    fn invalid_rates_are_rejected() {
        let _ = FaultyOracle::new(
            truth(),
            FaultRates {
                transient: 0.8,
                timeout: 0.5,
                ..FaultRates::default()
            },
            0,
        );
    }

    #[test]
    fn out_of_range_passes_through() {
        let mut o = FaultyOracle::new(truth(), FaultRates::default(), 0);
        assert!(matches!(
            o.try_query(999),
            Err(OracleError::OutOfRange { index: 999, .. })
        ));
    }
}
