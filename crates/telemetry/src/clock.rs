//! Injectable time: the one seam through which library code reads elapsed
//! time or waits.
//!
//! Two kinds of code need time. The serving micro-batcher asks "how long has
//! the oldest queued request been waiting" ([`Clock::elapsed`]); the retry
//! layer and the shard coordinator wait between attempts and polls
//! ([`Clock::sleep`]). Production passes a [`SystemClock`]. Tests pass a
//! [`VirtualClock`], which never sleeps for real: it advances only when told
//! to or when asked to sleep, and it records every requested delay, so
//! deadline and backoff paths run deterministically at full speed.

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Monotonic elapsed time since a fixed origin, and a way to wait.
pub trait Clock: Send + Sync + fmt::Debug {
    /// Time elapsed since the clock's origin. Must be monotonic.
    fn elapsed(&self) -> Duration;

    /// Waits for `duration` (or pretends to).
    fn sleep(&self, duration: Duration);
}

/// The production clock: real time since construction; sleeping blocks the
/// calling thread.
#[derive(Debug)]
pub struct SystemClock {
    start: Instant,
}

impl SystemClock {
    /// Captures the origin.
    pub fn new() -> Self {
        SystemClock {
            start: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// A clock that advances only when told to ([`VirtualClock::advance`]) or
/// asked to sleep; each sleep is recorded instead of waited out.
#[derive(Debug, Default)]
pub struct VirtualClock {
    state: Mutex<VirtualState>,
}

#[derive(Debug, Default)]
struct VirtualState {
    now: Duration,
    slept: Vec<Duration>,
}

impl VirtualClock {
    /// Starts at zero with no recorded sleeps.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Advances the clock by `delta` without recording a sleep.
    pub fn advance(&self, delta: Duration) {
        crate::recover(self.state.lock()).now += delta;
    }

    /// Every delay requested through [`Clock::sleep`] so far, in order.
    pub fn sleeps(&self) -> Vec<Duration> {
        crate::recover(self.state.lock()).slept.clone()
    }

    /// Total virtual time slept.
    pub fn total_slept(&self) -> Duration {
        crate::recover(self.state.lock()).slept.iter().sum()
    }
}

impl Clock for VirtualClock {
    fn elapsed(&self) -> Duration {
        crate::recover(self.state.lock()).now
    }

    fn sleep(&self, duration: Duration) {
        let mut state = crate::recover(self.state.lock());
        state.now += duration;
        state.slept.push(duration);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.elapsed();
        let b = clock.elapsed();
        assert!(b >= a);
    }

    #[test]
    fn virtual_clock_advances_only_on_demand() {
        let clock = VirtualClock::new();
        assert_eq!(clock.elapsed(), Duration::ZERO);
        clock.advance(Duration::from_millis(7));
        clock.advance(Duration::from_millis(5));
        assert_eq!(clock.elapsed(), Duration::from_millis(12));
        assert!(clock.sleeps().is_empty());
    }

    #[test]
    fn virtual_sleep_records_the_delay_and_advances_time() {
        let clock = VirtualClock::new();
        clock.advance(Duration::from_millis(1));
        clock.sleep(Duration::from_millis(40));
        clock.sleep(Duration::from_millis(80));
        assert_eq!(
            clock.sleeps(),
            vec![Duration::from_millis(40), Duration::from_millis(80)]
        );
        assert_eq!(clock.total_slept(), Duration::from_millis(120));
        assert_eq!(clock.elapsed(), Duration::from_millis(121));
    }
}
