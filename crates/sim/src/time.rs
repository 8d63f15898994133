//! Virtual time of the discrete-event simulation.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, with microsecond resolution.
///
/// The simulation starts at [`SimTime::ZERO`]; latencies are differences of `SimTime`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// This time in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This time in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating difference between two times.
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_millis(50).as_micros(), 50_000);
        assert_eq!(SimTime::from_micros(1_500).as_millis_f64(), 1.5);
        assert_eq!(SimTime::ZERO.as_micros(), 0);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(4);
        assert_eq!((a + b).as_micros(), 14_000);
        assert_eq!((a - b).as_micros(), 6_000);
        assert_eq!((b - a).as_micros(), 0, "subtraction saturates");
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c.as_micros(), 14_000);
    }

    #[test]
    fn ordering_and_display() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert_eq!(SimTime::from_millis(50).to_string(), "50.000 ms");
    }
}
