//! Simulated time.
//!
//! Time is measured in integer **picoseconds** from the start of the
//! simulation. At 100 Gbps a single byte serializes in 80 ps, so picosecond
//! resolution keeps serialization arithmetic exact for every link rate used
//! in the paper (10/100/400 Gbps). A `u64` of picoseconds spans ~213 days of
//! simulated time, far beyond any experiment here.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An instant in simulated time (picoseconds since simulation start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A signed span of simulated time, used for delay arithmetic that may be
/// transiently negative (e.g. `measured - target`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(i64);

impl Time {
    /// The simulation epoch.
    pub const ZERO: Time = Time(0);
    /// The greatest representable instant; used as "never".
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Time(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns * PS_PER_NS)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * PS_PER_US)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * PS_PER_MS)
    }

    /// Construct from seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * PS_PER_SEC)
    }

    /// Construct from fractional microseconds (convenience for configs).
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0);
        Time((us * PS_PER_US as f64).round() as u64)
    }

    /// Checked construction from a float picosecond count: truncates toward
    /// zero (identical to an `as u64` cast for every in-range value), and
    /// like Rust float casts saturates above the representable range while
    /// mapping negative and NaN inputs to [`Time::ZERO`]. The named helper
    /// callers should use instead of a bare `as u64` cast (simlint rule
    /// `lossy-time-cast`).
    #[inline]
    pub fn from_ps_f64(ps: f64) -> Self {
        debug_assert!(!ps.is_nan() && ps >= 0.0);
        Time(ps as u64)
    }

    /// Scale by a non-negative float factor, truncating to whole
    /// picoseconds (e.g. reduced-size workload runs scaling a compute
    /// interval).
    #[inline]
    pub fn scale_f64(self, factor: f64) -> Self {
        Time::from_ps_f64(self.0 as f64 * factor)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Value in nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Value in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Value in fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// Value in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Saturating subtraction: `self - other`, clamped at zero.
    #[inline]
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }

    /// Checked signed difference.
    #[inline]
    pub fn delta(self, other: Time) -> TimeDelta {
        TimeDelta(self.0 as i64 - other.0 as i64)
    }

    /// Scale this time span by a dimensionless factor (used e.g. for
    /// `rtt / cwnd` pacing computations).
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Time {
        debug_assert!(factor >= 0.0);
        Time((self.0 as f64 * factor).round() as u64)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }
}

impl TimeDelta {
    /// Zero span.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: i64) -> Self {
        TimeDelta(ps)
    }

    /// Raw picoseconds.
    #[inline]
    pub const fn as_ps(self) -> i64 {
        self.0
    }

    /// Value in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// True when the span is negative.
    #[inline]
    pub const fn is_negative(self) -> bool {
        self.0 < 0
    }

    /// Clamp a (possibly negative) span to a non-negative [`Time`].
    #[inline]
    pub fn clamp_non_negative(self) -> Time {
        Time(self.0.max(0) as u64)
    }
}

impl Add<Time> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Time> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        debug_assert!(self.0 >= rhs.0, "Time subtraction underflow");
        Time(self.0 - rhs.0)
    }
}

impl SubAssign<Time> for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        debug_assert!(self.0 >= rhs.0, "Time subtraction underflow");
        self.0 -= rhs.0;
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == u64::MAX {
            write!(f, "never")
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", ps as f64 / PS_PER_NS as f64)
        }
    }
}

impl fmt::Debug for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_us_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(Time::from_ns(1), Time::from_ps(1_000));
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_secs(1), Time::from_ms(1_000));
    }

    #[test]
    fn float_ps_construction_truncates_and_scales() {
        assert_eq!(Time::from_ps_f64(1234.9), Time::from_ps(1234));
        assert_eq!(Time::from_ps_f64(0.0), Time::ZERO);
        assert_eq!(Time::from_us(10).scale_f64(0.5), Time::from_us(5));
        assert_eq!(Time::from_us(10).scale_f64(1.0), Time::from_us(10));
        // Truncation matches what an `as u64` cast produced before the
        // helper existed: same value for every in-range input.
        let x = 41_999_999.7f64;
        assert_eq!(Time::from_ps_f64(x).as_ps(), x as u64);
    }

    #[test]
    fn arithmetic_roundtrip() {
        let a = Time::from_us(12);
        let b = Time::from_us(5);
        assert_eq!((a + b).as_ps(), Time::from_us(17).as_ps());
        assert_eq!((a - b).as_ps(), Time::from_us(7).as_ps());
        assert_eq!(b.saturating_sub(a), Time::ZERO);
    }

    #[test]
    fn delta_signs() {
        let a = Time::from_us(3);
        let b = Time::from_us(7);
        assert!(a.delta(b).is_negative());
        assert!(!b.delta(a).is_negative());
        assert_eq!(a.delta(b).clamp_non_negative(), Time::ZERO);
        assert_eq!(b.delta(a).clamp_non_negative(), Time::from_us(4));
    }

    #[test]
    fn mul_f64_pacing() {
        // rtt / cwnd pacing with fractional cwnd 0.25 -> 4x rtt gap.
        let rtt = Time::from_us(12);
        assert_eq!(rtt.mul_f64(4.0), Time::from_us(48));
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(format!("{}", Time::from_ns(500)), "500ns");
        assert_eq!(format!("{}", Time::from_us(5)), "5.000us");
        assert_eq!(format!("{}", Time::from_ms(2)), "2.000ms");
    }

    #[test]
    fn from_us_f64_rounds() {
        assert_eq!(Time::from_us_f64(2.4), Time::from_ns(2400));
        assert_eq!(Time::from_us_f64(0.0005), Time::from_ps(500));
    }
}
