//! Simple polygons (used for tapered/distorted wire outlines).

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::GeometryError;
use crate::point::Point;
use crate::rect::Rect;
use crate::units::Nm;

/// A simple polygon given by its vertex loop (implicitly closed).
///
/// Layout distortion under multiple-patterning variability (paper Fig. 2)
/// turns rectangular wires into jogged outlines; `Polygon` captures those.
/// Vertices are stored in the order given; the signed area convention is
/// positive for counter-clockwise loops.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from a vertex loop.
    ///
    /// # Errors
    ///
    /// [`GeometryError::TooFewVertices`] with fewer than three vertices.
    pub fn new(vertices: Vec<Point>) -> Result<Self, GeometryError> {
        if vertices.len() < 3 {
            return Err(GeometryError::TooFewVertices {
                got: vertices.len(),
            });
        }
        Ok(Self { vertices })
    }

    /// The vertex loop.
    pub(crate) fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Twice the signed area (shoelace sum), positive when
    /// counter-clockwise. Exposed for orientation tests.
    pub(crate) fn signed_area2(&self) -> i128 {
        let n = self.vertices.len();
        let mut acc: i128 = 0;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            acc += a.x.0 as i128 * b.y.0 as i128 - b.x.0 as i128 * a.y.0 as i128;
        }
        acc
    }

    /// Unsigned area in nm² (rounded down for odd shoelace sums).
    pub fn area_nm2(&self) -> i128 {
        self.signed_area2().abs() / 2
    }

    /// Axis-aligned bounding box.
    ///
    /// # Panics
    ///
    /// Never panics: polygons always have ≥ 3 vertices, and a degenerate
    /// (zero-extent) bounding box is widened to 1nm.
    pub fn bbox(&self) -> Rect {
        let mut x0 = Nm(i64::MAX);
        let mut y0 = Nm(i64::MAX);
        let mut x1 = Nm(i64::MIN);
        let mut y1 = Nm(i64::MIN);
        for v in &self.vertices {
            x0 = x0.min(v.x);
            y0 = y0.min(v.y);
            x1 = x1.max(v.x);
            y1 = y1.max(v.y);
        }
        let x1 = if x0 == x1 { x1 + Nm(1) } else { x1 };
        let y1 = if y0 == y1 { y1 + Nm(1) } else { y1 };
        Rect::new(x0, y0, x1, y1).expect("bbox widened to nonzero extent")
    }

    /// Translates all vertices by `d`.
    pub fn translate(&self, d: Point) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&v| v + d).collect(),
        }
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "poly[")?;
        for (i, v) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: i64, y: i64) -> Point {
        Point::new(Nm(x), Nm(y))
    }

    #[test]
    fn rejects_degenerate() {
        assert!(Polygon::new(vec![]).is_err());
        assert!(Polygon::new(vec![p(0, 0), p(1, 1)]).is_err());
    }

    #[test]
    fn triangle_area_and_winding() {
        let ccw = Polygon::new(vec![p(0, 0), p(10, 0), p(0, 10)]).unwrap();
        assert_eq!(ccw.area_nm2(), 50);
        let cw = Polygon::new(vec![p(0, 0), p(0, 10), p(10, 0)]).unwrap();
        assert_eq!(cw.area_nm2(), 50);
    }

    #[test]
    fn jogged_wire_area() {
        // An L-shaped (jogged) wire: 20x4 plus 4x6 notch extension.
        let l = Polygon::new(vec![
            p(0, 0),
            p(20, 0),
            p(20, 10),
            p(16, 10),
            p(16, 4),
            p(0, 4),
        ])
        .unwrap();
        assert_eq!(l.area_nm2(), 20 * 4 + 4 * 6);
    }

    #[test]
    fn translate_preserves_area() {
        let t = Polygon::new(vec![p(0, 0), p(10, 0), p(0, 10)]).unwrap();
        let moved = t.translate(p(100, -50));
        assert_eq!(moved.area_nm2(), t.area_nm2());
        assert_eq!(moved.vertices()[0], p(100, -50));
    }

    #[test]
    fn bbox_of_collinear_points_is_widened() {
        let line = Polygon::new(vec![p(0, 0), p(10, 0), p(20, 0)]).unwrap();
        let bb = line.bbox();
        assert_eq!(bb.height(), Nm(1));
        assert_eq!(bb.width(), Nm(20));
    }

    #[test]
    fn display_lists_vertices() {
        let t = Polygon::new(vec![p(0, 0), p(1, 0), p(0, 1)]).unwrap();
        assert!(t.to_string().starts_with("poly["));
    }
}
