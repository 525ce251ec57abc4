//! The simulated wall clock.
//!
//! The paper maps wall-clock time to LSNs in two places: commit and checkpoint
//! records carry a wall-clock stamp, and `CREATE DATABASE ... AS OF '<time>'`
//! translates the requested time into a SplitLSN by scanning them (§5.1). To
//! make that machinery deterministic and testable, the engine never reads the
//! OS clock: it reads a [`SimClock`] that workload drivers advance explicitly
//! (optionally at a fixed rate per commit). A benchmark that wants "50 minutes
//! of log" simply advances the clock while it runs.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point on the simulated time axis, in microseconds since database
/// creation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// Time zero: the instant the database was created.
    pub const ZERO: Timestamp = Timestamp(0);
    /// The largest representable time.
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Construct from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Timestamp(us)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms * 1_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Timestamp(s * 1_000_000)
    }

    /// Raw microseconds since time zero.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since time zero, as a float (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating addition of a duration in microseconds.
    #[inline]
    pub fn plus_micros(self, us: u64) -> Timestamp {
        Timestamp(self.0.saturating_add(us))
    }

    /// Saturating subtraction of a duration in microseconds.
    #[inline]
    pub fn minus_micros(self, us: u64) -> Timestamp {
        Timestamp(self.0.saturating_sub(us))
    }

    /// Duration in microseconds since `earlier`; saturates at zero.
    #[inline]
    pub fn micros_since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

/// The engine's monotonically advancing simulated wall clock.
///
/// Cloning the handle shares the underlying clock.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    micros: Arc<AtomicU64>,
}

impl SimClock {
    /// A new clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// A new clock starting at `t`.
    pub fn starting_at(t: Timestamp) -> Self {
        let c = Self::new();
        c.micros.store(t.as_micros(), Ordering::SeqCst);
        c
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Timestamp {
        Timestamp(self.micros.load(Ordering::SeqCst))
    }

    /// Advance the clock by `us` microseconds and return the new time.
    #[inline]
    pub fn advance_micros(&self, us: u64) -> Timestamp {
        Timestamp(self.micros.fetch_add(us, Ordering::SeqCst) + us)
    }

    /// Advance the clock by whole seconds.
    pub fn advance_secs(&self, s: u64) -> Timestamp {
        self.advance_micros(s * 1_000_000)
    }

    /// Advance the clock by whole minutes.
    pub fn advance_mins(&self, m: u64) -> Timestamp {
        self.advance_micros(m * 60_000_000)
    }

    /// Move the clock forward to `t`. Times in the past are ignored — the
    /// clock never goes backwards.
    pub fn advance_to(&self, t: Timestamp) {
        self.micros.fetch_max(t.as_micros(), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Timestamp {
        /// Construct from whole minutes.
        const fn from_mins(m: u64) -> Self {
            Timestamp(m * 60_000_000)
        }
    }

    #[test]
    fn clock_advances_monotonically() {
        let c = SimClock::new();
        assert_eq!(c.now(), Timestamp::ZERO);
        c.advance_micros(5);
        c.advance_secs(1);
        assert_eq!(c.now().as_micros(), 1_000_005);
        c.advance_to(Timestamp::from_micros(10)); // in the past: ignored
        assert_eq!(c.now().as_micros(), 1_000_005);
        c.advance_to(Timestamp::from_secs(2));
        assert_eq!(c.now().as_micros(), 2_000_000);
    }

    #[test]
    fn handles_share_state() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance_mins(1);
        assert_eq!(b.now(), Timestamp::from_mins(1));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::from_secs(10);
        assert_eq!(t.plus_micros(500_000), Timestamp::from_millis(10_500));
        assert_eq!(t.minus_micros(20_000_000), Timestamp::ZERO);
        assert_eq!(t.micros_since(Timestamp::from_secs(4)), 6_000_000);
        assert_eq!(Timestamp::from_mins(2), Timestamp::from_secs(120));
    }
}
