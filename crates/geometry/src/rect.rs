//! Axis-aligned rectangles.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::GeometryError;
use crate::point::Point;
use crate::units::Nm;

/// An axis-aligned rectangle with strictly positive extent.
///
/// Stored as lower-left / upper-right corners; constructors normalize
/// corner order, and degenerate (zero-area) rectangles are rejected so the
/// extraction code can rely on every shape having a real cross-section.
///
/// # Example
///
/// ```
/// use mpvar_geometry::{Nm, Rect};
///
/// let r = Rect::new(Nm(0), Nm(0), Nm(100), Nm(24))?;
/// assert_eq!(r.width(), Nm(100));
/// assert_eq!(r.height(), Nm(24));
/// assert_eq!(r.area_nm2(), 2400);
/// # Ok::<(), mpvar_geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Rect {
    ll: Point,
    ur: Point,
}

impl Rect {
    /// Creates a rectangle from two opposite corners given as coordinates.
    ///
    /// Corner order is normalized automatically.
    ///
    /// # Errors
    ///
    /// [`GeometryError::DegenerateRect`] when width or height is zero.
    pub fn new(x0: Nm, y0: Nm, x1: Nm, y1: Nm) -> Result<Self, GeometryError> {
        let (xl, xr) = (x0.min(x1), x0.max(x1));
        let (yb, yt) = (y0.min(y1), y0.max(y1));
        if xl == xr || yb == yt {
            return Err(GeometryError::DegenerateRect {
                width: xr - xl,
                height: yt - yb,
            });
        }
        Ok(Self {
            ll: Point::new(xl, yb),
            ur: Point::new(xr, yt),
        })
    }

    /// Creates a rectangle from two corner points.
    ///
    /// # Errors
    ///
    /// Same as [`Rect::new`].
    pub(crate) fn from_corners(a: Point, b: Point) -> Result<Self, GeometryError> {
        Self::new(a.x, a.y, b.x, b.y)
    }

    /// Lower-left corner.
    pub fn ll(&self) -> Point {
        self.ll
    }

    /// Upper-right corner.
    pub fn ur(&self) -> Point {
        self.ur
    }

    /// Left edge x.
    pub fn x0(&self) -> Nm {
        self.ll.x
    }

    /// Right edge x.
    pub fn x1(&self) -> Nm {
        self.ur.x
    }

    /// Bottom edge y.
    pub(crate) fn y0(&self) -> Nm {
        self.ll.y
    }

    /// Top edge y.
    pub(crate) fn y1(&self) -> Nm {
        self.ur.y
    }

    /// Horizontal extent.
    pub fn width(&self) -> Nm {
        self.ur.x - self.ll.x
    }

    /// Vertical extent.
    pub fn height(&self) -> Nm {
        self.ur.y - self.ll.y
    }

    /// Center point (integer division).
    pub fn center(&self) -> Point {
        Point::new((self.ll.x + self.ur.x) / 2, (self.ll.y + self.ur.y) / 2)
    }

    /// Area in nm², as `i128` to avoid overflow.
    pub fn area_nm2(&self) -> i128 {
        self.width().0 as i128 * self.height().0 as i128
    }

    /// `true` if `p` lies inside or on the boundary.
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.ll.x && p.x <= self.ur.x && p.y >= self.ll.y && p.y <= self.ur.y
    }

    /// `true` if the two rectangles share interior area (touching edges do
    /// not count as intersection).
    pub(crate) fn intersects(&self, other: &Rect) -> bool {
        self.ll.x < other.ur.x
            && other.ll.x < self.ur.x
            && self.ll.y < other.ur.y
            && other.ll.y < self.ur.y
    }

    /// The overlapping region, if any.
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if !self.intersects(other) {
            return None;
        }
        Rect::new(
            self.ll.x.max(other.ll.x),
            self.ll.y.max(other.ll.y),
            self.ur.x.min(other.ur.x),
            self.ur.y.min(other.ur.y),
        )
        .ok()
    }

    /// Smallest rectangle containing both.
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            ll: Point::new(self.ll.x.min(other.ll.x), self.ll.y.min(other.ll.y)),
            ur: Point::new(self.ur.x.max(other.ur.x), self.ur.y.max(other.ur.y)),
        }
    }

    /// Grows (or shrinks, for negative `d`) the rectangle by `d` on every
    /// side.
    ///
    /// # Errors
    ///
    /// [`GeometryError::DegenerateRect`] if shrinking collapses the
    /// rectangle.
    pub fn expand(&self, d: Nm) -> Result<Rect, GeometryError> {
        Rect::new(self.ll.x - d, self.ll.y - d, self.ur.x + d, self.ur.y + d)
    }

    /// Translates by a displacement vector.
    pub fn translate(&self, d: Point) -> Rect {
        Rect {
            ll: self.ll + d,
            ur: self.ur + d,
        }
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.ll, self.ur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect::new(Nm(x0), Nm(y0), Nm(x1), Nm(y1)).unwrap()
    }

    #[test]
    fn normalizes_corners() {
        let a = r(10, 20, 0, 0);
        assert_eq!(a.ll(), Point::new(Nm(0), Nm(0)));
        assert_eq!(a.ur(), Point::new(Nm(10), Nm(20)));
    }

    #[test]
    fn rejects_degenerate() {
        assert!(Rect::new(Nm(0), Nm(0), Nm(0), Nm(5)).is_err());
        assert!(Rect::new(Nm(0), Nm(0), Nm(5), Nm(0)).is_err());
    }

    #[test]
    fn accessors() {
        let a = r(2, 3, 12, 9);
        assert_eq!(a.width(), Nm(10));
        assert_eq!(a.height(), Nm(6));
        assert_eq!(a.center(), Point::new(Nm(7), Nm(6)));
        assert_eq!(a.area_nm2(), 60);
        assert_eq!(a.x0(), Nm(2));
        assert_eq!(a.y1(), Nm(9));
    }

    #[test]
    fn containment() {
        let a = r(0, 0, 10, 10);
        assert!(a.contains((0, 0).into()));
        assert!(a.contains((10, 10).into()));
        assert!(a.contains((5, 5).into()));
        assert!(!a.contains((11, 5).into()));
    }

    #[test]
    fn intersection_semantics() {
        let a = r(0, 0, 10, 10);
        let b = r(5, 5, 15, 15);
        let c = r(10, 0, 20, 10); // shares only an edge with a
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        let i = a.intersection(&b).unwrap();
        assert_eq!(i, r(5, 5, 10, 10));
        assert!(a.intersection(&c).is_none());
    }

    #[test]
    fn union_covers_both() {
        let a = r(0, 0, 1, 1);
        let b = r(10, 10, 12, 12);
        let u = a.union(&b);
        assert_eq!(u, r(0, 0, 12, 12));
    }

    #[test]
    fn expand_and_shrink() {
        let a = r(0, 0, 10, 10);
        assert_eq!(a.expand(Nm(2)).unwrap(), r(-2, -2, 12, 12));
        assert_eq!(a.expand(Nm(-2)).unwrap(), r(2, 2, 8, 8));
        assert!(a.expand(Nm(-5)).is_err());
    }

    #[test]
    fn translate_moves() {
        let a = r(0, 0, 10, 10).translate((5, -3).into());
        assert_eq!(a, r(5, -3, 15, 7));
    }
}
