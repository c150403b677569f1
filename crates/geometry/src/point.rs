//! 2D points in integer nanometres.

use std::fmt;
use std::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

use crate::units::Nm;

/// A 2D point (or displacement vector) in integer nanometres.
///
/// # Example
///
/// ```
/// use mpvar_geometry::{Nm, Point};
///
/// let p = Point::new(Nm(10), Nm(20));
/// let q = p + Point::new(Nm(1), Nm(-2));
/// assert_eq!(q, Point::new(Nm(11), Nm(18)));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: Nm,
    /// Vertical coordinate.
    pub y: Nm,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: Nm(0), y: Nm(0) };

    /// Creates a point from coordinates.
    pub fn new(x: Nm, y: Nm) -> Self {
        Self { x, y }
    }

    /// Squared Euclidean distance to `other`, in nm².
    ///
    /// Returned as `i128` to avoid overflow for chip-scale coordinates.
    pub fn distance_sq(self, other: Point) -> i128 {
        let dx = (self.x.0 - other.x.0) as i128;
        let dy = (self.y.0 - other.y.0) as i128;
        dx * dx + dy * dy
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl Add for Point {
    type Output = Point;
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl From<(i64, i64)> for Point {
    fn from((x, y): (i64, i64)) -> Point {
        Point::new(Nm(x), Nm(y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_ops() {
        let p: Point = (3, 4).into();
        assert_eq!(p.x, Nm(3));
        assert_eq!(p + Point::new(Nm(1), Nm(1)), (4, 5).into());
        assert_eq!(p - Point::new(Nm(3), Nm(4)), Point::ORIGIN);
    }

    #[test]
    fn distances() {
        let a: Point = (0, 0).into();
        let b: Point = (3, 4).into();
        assert_eq!(a.distance_sq(b), 25);
    }

    #[test]
    fn distance_sq_no_overflow_at_chip_scale() {
        // 3 cm die in nm is 3e7; squared ~ 1e15 each axis — fits i128.
        let a: Point = (0, 0).into();
        let b: Point = (30_000_000, 30_000_000).into();
        assert_eq!(a.distance_sq(b), 2 * (30_000_000i128 * 30_000_000i128));
    }

    #[test]
    fn display() {
        assert_eq!(Point::new(Nm(1), Nm(2)).to_string(), "(1nm, 2nm)");
    }
}
