//! Simulation time base.
//!
//! The DRAM and CXL simulators measure time in integer **picoseconds**. A
//! DDR4-2933 clock period is 681.8 ps, so picosecond resolution keeps
//! rounding error below 0.03 % while still fitting more than 200 days of
//! simulated time in a `u64`.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A point in simulated time, or a duration, in picoseconds.
///
/// `Picos` is deliberately a thin newtype: it exists so that cycle counts,
/// nanoseconds, and picoseconds cannot be mixed up across an API boundary.
///
/// # Examples
///
/// ```
/// use dtl_dram::Picos;
///
/// let t = Picos::from_ns(121);
/// assert_eq!(t.as_ps(), 121_000);
/// assert_eq!((t + Picos::from_ns(2)).as_ns_f64(), 123.0);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Picos(u64);

impl Picos {
    /// Time zero / an empty duration.
    pub const ZERO: Picos = Picos(0);
    /// The maximum representable instant; used as "never" by schedulers.
    pub const MAX: Picos = Picos(u64::MAX);

    /// Creates a time value from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        Picos(ps)
    }

    /// Creates a time value from integer nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Picos(ns * 1_000)
    }

    /// Creates a time value from integer microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Picos(us * 1_000_000)
    }

    /// Creates a time value from integer milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Picos(ms * 1_000_000_000)
    }

    /// Creates a time value from integer seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Picos(s * 1_000_000_000_000)
    }

    /// [`Picos::from_secs`] for seconds that come from outside the program:
    /// `None` when they do not fit (`u64` picoseconds end after
    /// 18 446 744 s, about 213 days) instead of a wrapped instant.
    #[inline]
    pub const fn checked_from_secs(s: u64) -> Option<Self> {
        match s.checked_mul(1_000_000_000_000) {
            Some(ps) => Some(Picos(ps)),
            None => None,
        }
    }

    /// Creates a time value from fractional nanoseconds, rounding to the
    /// nearest picosecond.
    ///
    /// # Panics
    ///
    /// Panics if `ns` is negative or not finite.
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        assert!(ns.is_finite() && ns >= 0.0, "time must be a finite non-negative value");
        Picos((ns * 1_000.0).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// This time expressed in fractional nanoseconds.
    #[inline]
    pub fn as_ns_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This time expressed in fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This time expressed in fractional milliseconds.
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// This time expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000_000.0
    }

    /// Saturating subtraction; returns [`Picos::ZERO`] instead of wrapping.
    #[inline]
    pub fn saturating_sub(self, rhs: Picos) -> Picos {
        Picos(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition; `None` on overflow (relevant around [`Picos::MAX`],
    /// which schedulers use as "never").
    #[inline]
    pub fn checked_add(self, rhs: Picos) -> Option<Picos> {
        self.0.checked_add(rhs.0).map(Picos)
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, rhs: Picos) -> Picos {
        Picos(self.0.max(rhs.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, rhs: Picos) -> Picos {
        Picos(self.0.min(rhs.0))
    }
}

impl Add for Picos {
    type Output = Picos;
    #[inline]
    fn add(self, rhs: Picos) -> Picos {
        Picos(self.0 + rhs.0)
    }
}

impl AddAssign for Picos {
    #[inline]
    fn add_assign(&mut self, rhs: Picos) {
        self.0 += rhs.0;
    }
}

impl Sub for Picos {
    type Output = Picos;
    /// # Panics
    ///
    /// Panics in debug builds if the result would be negative.
    #[inline]
    fn sub(self, rhs: Picos) -> Picos {
        Picos(self.0 - rhs.0)
    }
}

impl SubAssign for Picos {
    #[inline]
    fn sub_assign(&mut self, rhs: Picos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Picos {
    type Output = Picos;
    #[inline]
    fn mul(self, rhs: u64) -> Picos {
        Picos(self.0 * rhs)
    }
}

impl Div<u64> for Picos {
    type Output = Picos;
    #[inline]
    fn div(self, rhs: u64) -> Picos {
        Picos(self.0 / rhs)
    }
}

impl Sum for Picos {
    fn sum<I: Iterator<Item = Picos>>(iter: I) -> Picos {
        iter.fold(Picos::ZERO, Add::add)
    }
}

impl fmt::Display for Picos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.as_ns_f64())
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Picos::from_ns(121).as_ps(), 121_000);
        assert_eq!(Picos::from_us(3).as_ps(), 3_000_000);
        assert_eq!(Picos::from_ms(50).as_ps(), 50_000_000_000);
        assert_eq!(Picos::from_secs(6).as_ps(), 6_000_000_000_000);
        assert_eq!(Picos::from_ns_f64(0.6818).as_ps(), 682);
    }

    #[test]
    fn checked_seconds_stop_where_picoseconds_wrap() {
        assert_eq!(Picos::checked_from_secs(6), Some(Picos::from_secs(6)));
        assert_eq!(Picos::checked_from_secs(0), Some(Picos::ZERO));
        let last = u64::MAX / 1_000_000_000_000;
        assert_eq!(Picos::checked_from_secs(last), Some(Picos::from_secs(last)));
        assert_eq!(Picos::checked_from_secs(last + 1), None);
        assert_eq!(Picos::checked_from_secs(u64::MAX), None);
    }

    #[test]
    fn arithmetic_behaves() {
        let a = Picos::from_ns(10);
        let b = Picos::from_ns(4);
        assert_eq!(a + b, Picos::from_ns(14));
        assert_eq!(a - b, Picos::from_ns(6));
        assert_eq!(a * 3, Picos::from_ns(30));
        assert_eq!(a / 2, Picos::from_ns(5));
        assert_eq!(b.saturating_sub(a), Picos::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn sum_of_durations() {
        let total: Picos = (1..=4).map(Picos::from_ns).sum();
        assert_eq!(total, Picos::from_ns(10));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(Picos::from_ps(5).to_string(), "5ps");
        assert_eq!(Picos::from_ns(5).to_string(), "5.000ns");
        assert_eq!(Picos::from_us(5).to_string(), "5.000us");
        assert_eq!(Picos::from_ms(5).to_string(), "5.000ms");
        assert_eq!(Picos::from_secs(5).to_string(), "5.000s");
    }

    #[test]
    #[should_panic(expected = "finite non-negative")]
    fn negative_ns_rejected() {
        let _ = Picos::from_ns_f64(-1.0);
    }
}
