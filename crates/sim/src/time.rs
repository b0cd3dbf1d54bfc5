//! Virtual time: a `u64` count of simulated nanoseconds.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A duration or instant in simulated nanoseconds.
///
/// Instants are measured from cluster start (all node clocks begin at 0).
/// The same type doubles as a duration; the arithmetic is saturating on
/// subtraction so protocol code never panics on slightly out-of-order
/// timestamps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ns(pub u64);

impl Ns {
    pub const ZERO: Ns = Ns(0);

    /// Construct from microseconds.
    pub const fn from_us(us: u64) -> Ns {
        Ns(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_ms(ms: u64) -> Ns {
        Ns(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Ns {
        Ns(s * 1_000_000_000)
    }

    /// Value in fractional microseconds.
    pub fn as_us(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in fractional milliseconds.
    pub fn as_ms(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Value in fractional seconds.
    pub fn as_secs(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Time to move `bytes` at `mb_per_s` megabytes per second
    /// (1 MB = 1e6 bytes, the networking convention the paper uses).
    pub fn for_bytes(bytes: usize, mb_per_s: f64) -> Ns {
        debug_assert!(mb_per_s > 0.0);
        Ns(((bytes as f64) * 1_000.0 / mb_per_s).round() as u64)
    }

    pub fn max(self, other: Ns) -> Ns {
        Ns(self.0.max(other.0))
    }

    pub fn min(self, other: Ns) -> Ns {
        Ns(self.0.min(other.0))
    }

    /// Saturating subtraction as a duration.
    pub fn saturating_sub(self, other: Ns) -> Ns {
        Ns(self.0.saturating_sub(other.0))
    }
}

impl Add for Ns {
    type Output = Ns;
    fn add(self, rhs: Ns) -> Ns {
        Ns(self.0 + rhs.0)
    }
}

impl AddAssign for Ns {
    fn add_assign(&mut self, rhs: Ns) {
        self.0 += rhs.0;
    }
}

impl Sub for Ns {
    type Output = Ns;
    fn sub(self, rhs: Ns) -> Ns {
        Ns(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Ns {
    fn sub_assign(&mut self, rhs: Ns) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Ns {
    type Output = Ns;
    fn mul(self, rhs: u64) -> Ns {
        Ns(self.0 * rhs)
    }
}

impl Div<u64> for Ns {
    type Output = Ns;
    fn div(self, rhs: u64) -> Ns {
        Ns(self.0 / rhs)
    }
}

impl Sum for Ns {
    fn sum<I: Iterator<Item = Ns>>(iter: I) -> Ns {
        Ns(iter.map(|n| n.0).sum())
    }
}

impl fmt::Display for Ns {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms())
        } else if self.0 >= 1_000 {
            write!(f, "{:.2}us", self.as_us())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(Ns::from_us(5).0, 5_000);
        assert_eq!(Ns::from_ms(2).0, 2_000_000);
        assert_eq!(Ns::from_secs(3).0, 3_000_000_000);
        assert!((Ns::from_us(7).as_us() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn bytes_at_bandwidth() {
        // 250 MB/s => 4 ns per byte.
        assert_eq!(Ns::for_bytes(1, 250.0).0, 4);
        assert_eq!(Ns::for_bytes(1_000_000, 250.0).0, 4_000_000);
        // 1 byte at 400 MB/s = 2.5ns, rounds to 3 (round-half-up on .5).
        assert_eq!(Ns::for_bytes(1, 400.0).0, 3);
    }

    #[test]
    fn saturating_subtraction() {
        assert_eq!(Ns(5) - Ns(10), Ns(0));
        assert_eq!(Ns(10) - Ns(4), Ns(6));
        let mut t = Ns(3);
        t -= Ns(5);
        assert_eq!(t, Ns(0));
    }

    #[test]
    fn ordering_and_minmax() {
        assert!(Ns(1) < Ns(2));
        assert_eq!(Ns(1).max(Ns(2)), Ns(2));
        assert_eq!(Ns(1).min(Ns(2)), Ns(1));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Ns(500)), "500ns");
        assert_eq!(format!("{}", Ns::from_us(12)), "12.00us");
        assert_eq!(format!("{}", Ns::from_ms(3)), "3.000ms");
        assert_eq!(format!("{}", Ns::from_secs(2)), "2.000s");
    }

    #[test]
    fn sum_iterates() {
        let total: Ns = [Ns(1), Ns(2), Ns(3)].into_iter().sum();
        assert_eq!(total, Ns(6));
    }
}
