//! Virtual time: instants and durations measured in integer nanoseconds.
//!
//! All latencies in the simulation are expressed as [`SimDuration`]s and all
//! clock readings as [`SimTime`]s. Nanosecond integer resolution keeps the
//! event queue ordering exact (no float comparison hazards) while still
//! resolving the sub-microsecond costs of the Cell's on-chip operations.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since simulation start.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from integer nanoseconds.
    pub const fn from_nanos(ns: u64) -> SimDuration {
        SimDuration(ns)
    }

    /// Construct from integer microseconds.
    pub const fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// Construct from fractional microseconds, rounding to nanoseconds.
    ///
    /// Negative inputs clamp to zero; cost models occasionally produce tiny
    /// negative values from calibration arithmetic.
    pub fn from_micros_f64(us: f64) -> SimDuration {
        if us <= 0.0 {
            SimDuration(0)
        } else {
            SimDuration((us * 1_000.0).round() as u64)
        }
    }

    /// Construct from integer milliseconds.
    pub fn from_millis(ms: u64) -> SimDuration {
        SimDuration(ms * 1_000_000)
    }

    /// Duration in nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in microseconds, as a float (for reporting).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}ns", self.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        assert_eq!(t.as_nanos(), 5_000);
        let t2 = t + SimDuration::from_nanos(250);
        assert_eq!((t2 - t).as_nanos(), 250);
        assert_eq!(t.since(t2), SimDuration::ZERO);
    }

    #[test]
    fn fractional_micros_round() {
        assert_eq!(SimDuration::from_micros_f64(1.5).as_nanos(), 1_500);
        assert_eq!(SimDuration::from_micros_f64(0.0004).as_nanos(), 0);
        assert_eq!(SimDuration::from_micros_f64(-3.0).as_nanos(), 0);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimTime(1_500)), "1.500us");
    }

    #[test]
    fn ordering() {
        assert!(SimTime(3) < SimTime(4));
        assert!(SimDuration::from_micros(1) > SimDuration::from_nanos(999));
    }
}
