//! GDSII-style orientations (rotations and mirrored rotations).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::point::Point;
use crate::rect::Rect;
use crate::units::Nm;

/// One of the eight axis-aligned orientations used for cell instances.
///
/// `R*` are counter-clockwise rotations; `M*` mirror about the x-axis
/// first (GDS "reflect") and then rotate.
///
/// # Example
///
/// ```
/// use mpvar_geometry::{Nm, Orientation, Point};
///
/// let p = Point::new(Nm(1), Nm(0));
/// assert_eq!(Orientation::R90.apply(p), Point::new(Nm(0), Nm(1)));
/// assert_eq!(Orientation::MX.apply(p), p); // x-axis point is fixed by MX
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize, PartialOrd, Ord,
)]
pub enum Orientation {
    /// Identity.
    #[default]
    R0,
    /// 90° counter-clockwise.
    R90,
    /// 180°.
    R180,
    /// 270° counter-clockwise.
    R270,
    /// Mirror about the x-axis (flip y).
    MX,
    /// Mirror then rotate 90°.
    MX90,
    /// Mirror about the y-axis (flip x) — equals MX then R180.
    MY,
    /// Mirror about y then rotate 90°.
    MY90,
}

impl Orientation {
    /// All eight orientations, in declaration order.
    pub const ALL: [Orientation; 8] = [
        Orientation::R0,
        Orientation::R90,
        Orientation::R180,
        Orientation::R270,
        Orientation::MX,
        Orientation::MX90,
        Orientation::MY,
        Orientation::MY90,
    ];

    /// Applies the orientation to a point (about the origin).
    pub fn apply(self, p: Point) -> Point {
        let (x, y) = (p.x, p.y);
        let (mx, my) = match self {
            Orientation::R0 | Orientation::R90 | Orientation::R180 | Orientation::R270 => (x, y),
            Orientation::MX | Orientation::MX90 => (x, -y),
            Orientation::MY | Orientation::MY90 => (-x, y),
        };
        match self {
            Orientation::R0 | Orientation::MX | Orientation::MY => Point::new(mx, my),
            Orientation::R90 | Orientation::MX90 | Orientation::MY90 => Point::new(-my, mx),
            Orientation::R180 => Point::new(-mx, -my),
            Orientation::R270 => Point::new(my, -mx),
        }
    }

    /// Applies the orientation to a rectangle (about the origin).
    pub fn apply_rect(self, r: &Rect) -> Rect {
        let a = self.apply(r.ll());
        let b = self.apply(r.ur());
        Rect::from_corners(a, b).expect("orientation preserves extent")
    }

    /// Composes two orientations: `self.then(other)` applies `self` first.
    pub fn then(self, other: Orientation) -> Orientation {
        // Probe with two points that distinguish all eight orientations.
        let p1 = Point::new(Nm(1), Nm(0));
        let p2 = Point::new(Nm(0), Nm(1));
        let t1 = other.apply(self.apply(p1));
        let t2 = other.apply(self.apply(p2));
        *Orientation::ALL
            .iter()
            .find(|o| o.apply(p1) == t1 && o.apply(p2) == t2)
            .expect("composition of orientations is an orientation")
    }

    /// The inverse orientation.
    pub fn inverse(self) -> Orientation {
        *Orientation::ALL
            .iter()
            .find(|o| self.then(**o) == Orientation::R0)
            .expect("every orientation has an inverse")
    }

    /// Parses the textual name used by [`fmt::Display`].
    pub fn parse_name(s: &str) -> Option<Orientation> {
        match s {
            "R0" => Some(Orientation::R0),
            "R90" => Some(Orientation::R90),
            "R180" => Some(Orientation::R180),
            "R270" => Some(Orientation::R270),
            "MX" => Some(Orientation::MX),
            "MX90" => Some(Orientation::MX90),
            "MY" => Some(Orientation::MY),
            "MY90" => Some(Orientation::MY90),
            _ => None,
        }
    }
}

impl fmt::Display for Orientation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Orientation::R0 => "R0",
            Orientation::R90 => "R90",
            Orientation::R180 => "R180",
            Orientation::R270 => "R270",
            Orientation::MX => "MX",
            Orientation::MX90 => "MX90",
            Orientation::MY => "MY",
            Orientation::MY90 => "MY90",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: i64, y: i64) -> Point {
        Point::new(Nm(x), Nm(y))
    }

    #[test]
    fn rotations() {
        let v = p(2, 1);
        assert_eq!(Orientation::R0.apply(v), p(2, 1));
        assert_eq!(Orientation::R90.apply(v), p(-1, 2));
        assert_eq!(Orientation::R180.apply(v), p(-2, -1));
        assert_eq!(Orientation::R270.apply(v), p(1, -2));
    }

    #[test]
    fn mirrors() {
        let v = p(2, 1);
        assert_eq!(Orientation::MX.apply(v), p(2, -1));
        assert_eq!(Orientation::MY.apply(v), p(-2, 1));
        assert_eq!(Orientation::MX90.apply(v), p(1, 2));
        assert_eq!(Orientation::MY90.apply(v), p(-1, -2));
    }

    #[test]
    fn composition_closure_and_inverse() {
        let v = p(3, 5);
        for a in Orientation::ALL {
            for b in Orientation::ALL {
                let composed = a.then(b);
                assert_eq!(composed.apply(v), b.apply(a.apply(v)), "{a} then {b}");
            }
            assert_eq!(a.then(a.inverse()), Orientation::R0, "{a}");
        }
    }

    #[test]
    fn rect_transform_preserves_area() {
        let r = Rect::new(Nm(1), Nm(2), Nm(11), Nm(6)).unwrap();
        for o in Orientation::ALL {
            let t = o.apply_rect(&r);
            assert_eq!(t.area_nm2(), r.area_nm2(), "{o}");
        }
    }

    #[test]
    fn rotation_by_90_swaps_extents() {
        let r = Rect::new(Nm(0), Nm(0), Nm(10), Nm(4)).unwrap();
        let t = Orientation::R90.apply_rect(&r);
        assert_eq!(t.width(), Nm(4));
        assert_eq!(t.height(), Nm(10));
    }

    #[test]
    fn name_roundtrip() {
        for o in Orientation::ALL {
            assert_eq!(Orientation::parse_name(&o.to_string()), Some(o));
        }
        assert_eq!(Orientation::parse_name("R45"), None);
    }
}
