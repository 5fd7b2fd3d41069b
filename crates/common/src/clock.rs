//! Simulated time: [`SimTime`], an integer count of microseconds, the unit
//! of the discrete-event simulator and the figures built on it.

use std::fmt;

/// A point in time, in microseconds since an arbitrary origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Build from whole milliseconds.
    pub const fn from_millis(ms: u64) -> SimTime {
        SimTime(ms * 1000)
    }

    /// Build from microseconds.
    pub const fn from_micros(us: u64) -> SimTime {
        SimTime(us)
    }

    /// Microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds since the origin.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl std::ops::Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_time_arithmetic() {
        let a = SimTime::from_millis(3);
        let b = SimTime::from_micros(500);
        assert_eq!((a + b).as_micros(), 3500);
        assert_eq!(a.since(b).as_micros(), 2500);
        assert_eq!(b.since(a), SimTime::ZERO);
        assert_eq!(a.as_millis_f64(), 3.0);
    }

    #[test]
    fn sim_time_display() {
        assert_eq!(SimTime::from_micros(1500).to_string(), "1.500ms");
    }
}
