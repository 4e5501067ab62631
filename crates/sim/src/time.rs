//! Virtual time.
//!
//! The paper measures time in *message delays*: if every message is received
//! exactly one unit of time after it was sent and local computation is
//! instantaneous, the number of message delays of an execution is its number
//! of time units (Lamport's measure, §2.4 of the paper). We keep a
//! finer-grained tick clock so that network-failure executions can delay
//! individual messages by non-integral amounts of `U`.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// Ticks per message-delay unit (the known upper bound `U` on message
/// transmission delay in a synchronous execution).
pub const U: u64 = 1_000;

/// A point in virtual time, in ticks.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The origin of virtual time.
    pub const ZERO: Time = Time(0);

    /// The time `k * U`, i.e. `k` message-delay units after time zero.
    #[inline]
    pub fn units(k: u64) -> Time {
        Time(k * U)
    }

    /// This instant expressed in whole delay units, rounding up.
    /// `Time(0) -> 0`, `Time(1..=U) -> 1`, ...
    #[inline]
    pub fn ceil_units(self) -> u64 {
        self.0.div_ceil(U)
    }

    /// Raw tick count.
    #[inline]
    pub fn ticks(self) -> u64 {
        self.0
    }

    /// The instant `elapsed` of wall clock after an epoch, at `unit` of
    /// wall clock per delay unit, rounded down to a tick. The one scaling
    /// from a live run's clock into a fault plan's ticks.
    pub fn from_wall(elapsed: Duration, unit: Duration) -> Time {
        let ticks = elapsed.as_nanos() * u128::from(U) / unit.as_nanos().max(1);
        Time(u64::try_from(ticks).unwrap_or(u64::MAX))
    }

    /// This instant (or span) as wall clock at `unit` per delay unit, the
    /// inverse of [`Time::from_wall`]; it saturates rather than overflow.
    pub fn to_wall(self, unit: Duration) -> Duration {
        let nanos = unit.as_nanos().saturating_mul(u128::from(self.0)) / u128::from(U);
        let secs = u64::try_from(nanos / 1_000_000_000).unwrap_or(u64::MAX);
        Duration::new(secs, (nanos % 1_000_000_000) as u32)
    }
}

impl Add<u64> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: u64) -> Time {
        Time(self.0 + rhs)
    }
}

impl AddAssign<u64> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Time> for Time {
    type Output = u64;
    #[inline]
    fn sub(self, rhs: Time) -> u64 {
        self.0 - rhs.0
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Render as multiples of U where exact, e.g. "2U" or "2U+37".
        let (q, r) = (self.0 / U, self.0 % U);
        if r == 0 {
            write!(f, "{q}U")
        } else {
            write!(f, "{q}U+{r}")
        }
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn units_round_trip() {
        assert_eq!(Time::units(3).ticks(), 3 * U);
        assert_eq!(Time::units(3).ceil_units(), 3);
    }

    #[test]
    fn ceil_units_rounds_up_partial_units() {
        assert_eq!(Time(1).ceil_units(), 1);
        assert_eq!(Time(U).ceil_units(), 1);
        assert_eq!(Time(U + 1).ceil_units(), 2);
        assert_eq!(Time::ZERO.ceil_units(), 0);
    }

    #[test]
    fn arithmetic() {
        let t = Time::units(1) + 500;
        assert_eq!(t.ticks(), U + 500);
        assert_eq!(t - Time::units(1), 500);
    }

    #[test]
    fn wall_clock_scales_by_the_unit_both_ways() {
        let unit = Duration::from_millis(5);
        // A crash at 10 U restarting at 50 U lands at 50 ms / 250 ms.
        assert_eq!(Time::units(10).to_wall(unit), Duration::from_millis(50));
        assert_eq!(Time::units(50).to_wall(unit), Duration::from_millis(250));
        assert_eq!(
            Time::from_wall(Duration::from_millis(250), unit),
            Time::units(50)
        );
        // Rounded down to a tick: one nanosecond short of 10 U is not 10 U.
        let short = Duration::from_millis(50) - Duration::from_nanos(1);
        assert_eq!(Time::from_wall(short, unit), Time(10 * U - 1));
        assert_eq!(Time(u64::MAX).to_wall(unit).as_secs(), 92_233_720_368_547);
    }

    #[test]
    fn debug_format() {
        assert_eq!(format!("{:?}", Time::units(2)), "2U");
        assert_eq!(format!("{:?}", Time(2 * U + 37)), "2U+37");
    }
}
