//! Simulation time.
//!
//! DTN traces span days; the MBT paper's workload is organized around a daily
//! cycle (new files are generated on the Internet every day at noon, and file
//! time-to-live is measured in days). Time is therefore kept in *integer
//! seconds* — exact arithmetic keeps simulations deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Number of seconds in one simulated day.
pub const SECONDS_PER_DAY: u64 = 86_400;

/// An absolute instant on the simulation clock, in whole seconds since the
/// start of the simulation.
///
/// # Example
///
/// ```
/// use dtn_trace::{SimDuration, SimTime};
///
/// let noon_day_two = SimTime::ZERO + SimDuration::from_days(2) + SimDuration::from_hours(12);
/// assert_eq!(noon_day_two.day(), 2);
/// assert_eq!(noon_day_two.second_of_day(), 12 * 3600);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in whole seconds.
///
/// # Example
///
/// ```
/// use dtn_trace::SimDuration;
///
/// let d = SimDuration::from_days(1) + SimDuration::from_secs(30);
/// assert_eq!(d.as_secs(), 86_430);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant from seconds since simulation start.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs)
    }

    /// Seconds since simulation start.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The day this instant falls in (day 0 = the first day).
    pub const fn day(self) -> u64 {
        self.0 / SECONDS_PER_DAY
    }

    /// Seconds elapsed since the most recent midnight.
    pub const fn second_of_day(self) -> u64 {
        self.0 % SECONDS_PER_DAY
    }

    /// Time elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since called with a later instant"),
        )
    }

    /// Time elapsed since `earlier`, or `None` if `earlier` is later.
    pub fn checked_duration_since(self, earlier: SimTime) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Adds a duration, saturating at the maximum representable instant.
    pub fn saturating_add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Subtracts a duration, saturating at time zero.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs)
    }

    /// Creates a duration from hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600)
    }

    /// Creates a duration from days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * SECONDS_PER_DAY)
    }

    /// The duration in whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0
    }

    /// The duration in fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / SECONDS_PER_DAY as f64
    }

    /// True if this is the zero-length duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
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

impl Sub for SimDuration {
    type Output = SimDuration;

    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let day = self.day();
        let rem = self.second_of_day();
        write!(
            f,
            "d{}+{:02}:{:02}:{:02}",
            day,
            rem / 3600,
            (rem % 3600) / 60,
            rem % 60
        )
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_and_second_of_day() {
        let t = SimTime::ZERO + SimDuration::from_days(3) + SimDuration::from_hours(5);
        assert_eq!(t.day(), 3);
        assert_eq!(t.second_of_day(), 5 * 3600);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_secs(3_600));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
    }

    #[test]
    fn duration_since_works() {
        let a = SimTime::from_secs(100);
        let b = SimTime::from_secs(250);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(150));
        assert_eq!(a.checked_duration_since(b), None);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn duration_since_panics_when_reversed() {
        let a = SimTime::from_secs(100);
        let b = SimTime::from_secs(250);
        let _ = a.duration_since(b);
    }

    #[test]
    fn saturating_ops() {
        let t = SimTime::from_secs(10);
        assert_eq!(t.saturating_sub(SimDuration::from_secs(20)), SimTime::ZERO);
        assert_eq!(
            SimTime::from_secs(u64::MAX).saturating_add(SimDuration::from_secs(1)),
            SimTime::from_secs(u64::MAX)
        );
    }

    #[test]
    fn arithmetic_round_trip() {
        let t = SimTime::from_secs(500);
        let d = SimDuration::from_secs(123);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn display_formats() {
        let t = SimTime::ZERO
            + SimDuration::from_days(1)
            + SimDuration::from_secs(3 * 3600 + 4 * 60 + 5);
        assert_eq!(t.to_string(), "d1+03:04:05");
        assert_eq!(SimDuration::from_secs(9).to_string(), "9s");
    }

    #[test]
    fn as_days_f64_is_fractional() {
        let d = SimDuration::from_hours(12);
        assert!((d.as_days_f64() - 0.5).abs() < 1e-12);
    }
}
