//! The integer-nanometre length unit.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A length in integer nanometres.
///
/// All layout coordinates in `mpvar` are integer nanometres, which makes
/// geometric predicates exact (no epsilon comparisons) and types hashable.
/// Sub-nanometre process-variation deltas (e.g. a 1.5nm spacer 3σ) only
/// appear *after* variation is applied, at which point the litho crate
/// works in `f64` nanometres ([`Nm::to_f64`]) for perturbed dimensions.
///
/// # Example
///
/// ```
/// use mpvar_geometry::Nm;
///
/// let pitch = Nm(48);
/// let half = pitch / 2;
/// assert_eq!(half, Nm(24));
/// assert_eq!((pitch * 3).0, 144);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Nm(pub i64);

impl Nm {
    /// Zero length.
    pub const ZERO: Nm = Nm(0);

    /// Converts to `f64` nanometres (for variation math).
    pub fn to_f64(self) -> f64 {
        self.0 as f64
    }

    /// Absolute value.
    pub fn abs(self) -> Nm {
        Nm(self.0.abs())
    }

    /// The smaller of two lengths.
    pub fn min(self, other: Nm) -> Nm {
        Nm(self.0.min(other.0))
    }

    /// The larger of two lengths.
    pub fn max(self, other: Nm) -> Nm {
        Nm(self.0.max(other.0))
    }
}

impl fmt::Display for Nm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nm", self.0)
    }
}

impl Add for Nm {
    type Output = Nm;
    fn add(self, rhs: Nm) -> Nm {
        Nm(self.0 + rhs.0)
    }
}

impl AddAssign for Nm {
    fn add_assign(&mut self, rhs: Nm) {
        self.0 += rhs.0;
    }
}

impl Sub for Nm {
    type Output = Nm;
    fn sub(self, rhs: Nm) -> Nm {
        Nm(self.0 - rhs.0)
    }
}

impl SubAssign for Nm {
    fn sub_assign(&mut self, rhs: Nm) {
        self.0 -= rhs.0;
    }
}

impl Neg for Nm {
    type Output = Nm;
    fn neg(self) -> Nm {
        Nm(-self.0)
    }
}

impl Mul<i64> for Nm {
    type Output = Nm;
    fn mul(self, rhs: i64) -> Nm {
        Nm(self.0 * rhs)
    }
}

impl Mul<Nm> for i64 {
    type Output = Nm;
    fn mul(self, rhs: Nm) -> Nm {
        Nm(self * rhs.0)
    }
}

impl Div<i64> for Nm {
    type Output = Nm;
    fn div(self, rhs: i64) -> Nm {
        Nm(self.0 / rhs)
    }
}

impl Rem<i64> for Nm {
    type Output = Nm;
    fn rem(self, rhs: i64) -> Nm {
        Nm(self.0 % rhs)
    }
}

impl Sum for Nm {
    fn sum<I: Iterator<Item = Nm>>(iter: I) -> Nm {
        iter.fold(Nm::ZERO, Add::add)
    }
}

impl From<i64> for Nm {
    fn from(v: i64) -> Nm {
        Nm(v)
    }
}

impl From<Nm> for i64 {
    fn from(v: Nm) -> i64 {
        v.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        assert_eq!(Nm(3) + Nm(4), Nm(7));
        assert_eq!(Nm(3) - Nm(4), Nm(-1));
        assert_eq!(-Nm(5), Nm(-5));
        assert_eq!(Nm(6) * 2, Nm(12));
        assert_eq!(3 * Nm(6), Nm(18));
        assert_eq!(Nm(7) / 2, Nm(3));
        assert_eq!(Nm(7) % 2, Nm(1));
    }

    #[test]
    fn assign_ops() {
        let mut x = Nm(10);
        x += Nm(5);
        assert_eq!(x, Nm(15));
        x -= Nm(20);
        assert_eq!(x, Nm(-5));
    }

    #[test]
    fn conversions() {
        assert_eq!(i64::from(Nm(9)), 9);
        assert_eq!(Nm::from(9i64), Nm(9));
    }

    #[test]
    fn ordering_and_extrema() {
        assert!(Nm(1) < Nm(2));
        assert_eq!(Nm(3).min(Nm(5)), Nm(3));
        assert_eq!(Nm(3).max(Nm(5)), Nm(5));
        assert_eq!(Nm(-3).abs(), Nm(3));
    }

    #[test]
    fn sum_and_display() {
        let total: Nm = [Nm(1), Nm(2), Nm(3)].into_iter().sum();
        assert_eq!(total, Nm(6));
        assert_eq!(Nm(48).to_string(), "48nm");
    }
}
