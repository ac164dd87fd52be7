//! Simulated time.
//!
//! The discrete-event simulator in `sharper-net` advances a logical clock
//! measured in microseconds. All protocol timers and latency/cost models are
//! expressed in this unit so that experiments are fully deterministic and do
//! not depend on the wall clock of the machine running them.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in microseconds since the start of the
/// simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time, measured in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs a time from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Constructs a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Constructs a time from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// The raw microsecond value.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This time expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Saturating difference between two points in time.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Constructs a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Constructs a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Constructs a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// The raw microsecond value.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This duration expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This duration expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Multiplies the duration by a scalar, saturating on overflow.
    pub fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree_on_units() {
        assert_eq!(SimTime::from_millis(2), SimTime::from_micros(2_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_micros(1_000_000));
        assert_eq!(Duration::from_millis(3), Duration::from_micros(3_000));
        assert_eq!(Duration::from_secs(2), Duration::from_micros(2_000_000));
    }

    #[test]
    fn arithmetic_is_saturating() {
        let t = SimTime(u64::MAX - 1);
        assert_eq!((t + Duration(10)).0, u64::MAX);
        assert_eq!((SimTime(5) - SimTime(10)).0, 0);
        assert_eq!(SimTime(10).saturating_since(SimTime(50)), Duration::ZERO);
        assert_eq!(Duration(u64::MAX).saturating_mul(3).0, u64::MAX);
    }

    #[test]
    fn add_and_subtract_round_trip() {
        let start = SimTime::from_millis(10);
        let later = start + Duration::from_millis(5);
        assert_eq!(later - start, Duration::from_millis(5));
        assert_eq!(later.saturating_since(start), Duration::from_millis(5));
    }

    #[test]
    fn float_conversions() {
        assert!((SimTime::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
        assert!((Duration::from_micros(2500).as_millis_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn display_uses_milliseconds() {
        assert_eq!(SimTime::from_micros(1234).to_string(), "1.234ms");
        assert_eq!(Duration::from_micros(500).to_string(), "0.500ms");
    }

    #[test]
    fn ordering_matches_numeric_value() {
        assert!(SimTime(1) < SimTime(2));
        assert!(Duration(10) > Duration(9));
        let mut t = SimTime::ZERO;
        t += Duration::from_micros(7);
        assert_eq!(t, SimTime(7));
    }
}
