//! Link rates and serialization-delay arithmetic.

use core::fmt;

use crate::time::{Time, PS_PER_SEC};

/// A transmission rate in bits per second.
///
/// Serialization delays are computed exactly in picoseconds with `u128`
/// intermediates so that no rate/packet-size combination used in the paper
/// loses precision.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rate(u64);

impl Rate {
    /// Zero rate (used to represent "not sending").
    pub const ZERO: Rate = Rate(0);

    /// Construct from bits per second.
    #[inline]
    pub const fn from_bps(bps: u64) -> Self {
        Rate(bps)
    }

    /// Construct from megabits per second.
    #[inline]
    pub const fn from_mbps(mbps: u64) -> Self {
        Rate(mbps * 1_000_000)
    }

    /// Construct from gigabits per second.
    #[inline]
    pub const fn from_gbps(gbps: u64) -> Self {
        Rate(gbps * 1_000_000_000)
    }

    /// Rate in bits per second.
    #[inline]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Rate in fractional Gbit/s.
    #[inline]
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time to serialize `bytes` bytes at this rate.
    ///
    /// # Panics
    /// Panics (debug) if the rate is zero.
    #[inline]
    pub fn serialize_time(self, bytes: u64) -> Time {
        debug_assert!(self.0 > 0, "serialize_time on zero rate");
        let ps = (bytes as u128 * 8 * PS_PER_SEC as u128) / self.0 as u128;
        Time::from_ps(ps as u64)
    }

    /// Number of whole bytes transmitted in `dur` at this rate.
    #[inline]
    pub fn bytes_in(self, dur: Time) -> u64 {
        ((self.0 as u128 * dur.as_ps() as u128) / (8 * PS_PER_SEC as u128)) as u64
    }

    /// Bandwidth-delay product in bytes for a given round-trip time.
    #[inline]
    pub fn bdp_bytes(self, rtt: Time) -> u64 {
        self.bytes_in(rtt)
    }

    /// Scale the rate by a dimensionless factor.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Rate {
        debug_assert!(factor >= 0.0);
        Rate((self.0 as f64 * factor).round() as u64)
    }
}

impl fmt::Debug for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2}Gbps", self.as_gbps_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2}Mbps", self.0 as f64 / 1e6)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_exact_100g() {
        // 1000 B at 100 Gbps = 80 ns exactly.
        let r = Rate::from_gbps(100);
        assert_eq!(r.serialize_time(1000), Time::from_ns(80));
        // 64 B probe at 100 Gbps = 5.12 ns.
        assert_eq!(r.serialize_time(64).as_ps(), 5_120);
    }

    #[test]
    fn serialization_delay_exact_10g() {
        let r = Rate::from_gbps(10);
        assert_eq!(r.serialize_time(1500), Time::from_ns(1200));
    }

    #[test]
    fn bdp_matches_paper_environment() {
        // 100 Gbps x 12 us RTT = 150 KB BDP.
        let bdp = Rate::from_gbps(100).bdp_bytes(Time::from_us(12));
        assert_eq!(bdp, 150_000);
    }

    #[test]
    fn bytes_in_inverts_serialize() {
        let r = Rate::from_gbps(100);
        let t = r.serialize_time(123_456);
        assert_eq!(r.bytes_in(t), 123_456);
    }

    #[test]
    fn min_rate_probe_math_from_paper() {
        // Paper 4.2.1: one 64 B probe per 12 us base RTT ~= 42 Mbps.
        let bits: f64 = 64.0 * 8.0;
        let mbps: f64 = bits / 12e-6 / 1e6;
        assert!((mbps - 42.67).abs() < 0.1);
    }
}
