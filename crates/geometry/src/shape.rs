//! Layout shapes: a geometry on a layer, optionally labelled with a net.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::GeometryError;
use crate::layer::Layer;
use crate::point::Point;
use crate::polygon::Polygon;
use crate::rect::Rect;
use crate::transform::Orientation;

/// The geometric body of a shape.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum Geometry {
    /// An axis-aligned rectangle (the common case for wires).
    Rect(Rect),
    /// A simple polygon (distorted wire outlines).
    Polygon(Polygon),
}

impl Geometry {
    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        match self {
            Geometry::Rect(r) => *r,
            Geometry::Polygon(p) => p.bbox(),
        }
    }

    /// Area in nm².
    pub fn area_nm2(&self) -> i128 {
        match self {
            Geometry::Rect(r) => r.area_nm2(),
            Geometry::Polygon(p) => p.area_nm2(),
        }
    }

    /// Translates the geometry.
    pub fn translate(&self, d: Point) -> Geometry {
        match self {
            Geometry::Rect(r) => Geometry::Rect(r.translate(d)),
            Geometry::Polygon(p) => Geometry::Polygon(p.translate(d)),
        }
    }

    /// Applies an orientation about the origin.
    pub(crate) fn orient(&self, o: Orientation) -> Geometry {
        match self {
            Geometry::Rect(r) => Geometry::Rect(o.apply_rect(r)),
            Geometry::Polygon(p) => {
                let verts = p.vertices().iter().map(|&v| o.apply(v)).collect();
                Geometry::Polygon(Polygon::new(verts).expect("orientation preserves vertex count"))
            }
        }
    }
}

/// A shape: geometry on a layer, optionally carrying a net label.
///
/// Net labels drive LVS-free netlist extraction: every metal1 shape in the
/// SRAM layouts is labelled (`BL`, `BLB`, `VDD`, `VSS`, ...), so the
/// extractor can connect parasitics per net without a full connectivity
/// engine.
///
/// # Example
///
/// ```
/// use mpvar_geometry::{Layer, Nm, Rect, Shape};
///
/// let bl = Shape::rect(Layer::metal(1), Rect::new(Nm(0), Nm(0), Nm(128), Nm(26))?)
///     .with_net("BL");
/// assert_eq!(bl.net(), Some("BL"));
/// assert_eq!(bl.layer(), Layer::metal(1));
/// # Ok::<(), mpvar_geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    layer: Layer,
    geometry: Geometry,
    net: Option<String>,
}

impl Shape {
    /// Creates a shape from any geometry.
    pub(crate) fn new(layer: Layer, geometry: Geometry) -> Self {
        Self {
            layer,
            geometry,
            net: None,
        }
    }

    /// Creates a rectangular shape.
    pub fn rect(layer: Layer, rect: Rect) -> Self {
        Self::new(layer, Geometry::Rect(rect))
    }

    /// Creates a polygonal shape.
    ///
    /// # Errors
    ///
    /// Propagates [`Polygon::new`] vertex-count validation.
    pub(crate) fn polygon(layer: Layer, vertices: Vec<Point>) -> Result<Self, GeometryError> {
        Ok(Self::new(layer, Geometry::Polygon(Polygon::new(vertices)?)))
    }

    /// Attaches a net label (builder style).
    #[must_use]
    pub fn with_net(mut self, net: impl Into<String>) -> Self {
        self.net = Some(net.into());
        self
    }

    /// The layer this shape is drawn on.
    pub fn layer(&self) -> Layer {
        self.layer
    }

    /// The geometric body.
    pub(crate) fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// The net label, if any.
    pub fn net(&self) -> Option<&str> {
        self.net.as_deref()
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        self.geometry.bbox()
    }

    /// Area in nm².
    pub fn area_nm2(&self) -> i128 {
        self.geometry.area_nm2()
    }

    /// Returns the shape translated by `d` (net label preserved).
    pub fn translate(&self, d: Point) -> Shape {
        Shape {
            layer: self.layer,
            geometry: self.geometry.translate(d),
            net: self.net.clone(),
        }
    }

    /// Returns the shape transformed by orientation `o` then translated by
    /// `d` — the instance-placement transform.
    pub fn place(&self, o: Orientation, d: Point) -> Shape {
        Shape {
            layer: self.layer,
            geometry: self.geometry.orient(o).translate(d),
            net: self.net.clone(),
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.layer, self.bbox())?;
        if let Some(n) = &self.net {
            write!(f, " net={n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::Nm;

    fn r(x0: i64, y0: i64, x1: i64, y1: i64) -> Rect {
        Rect::new(Nm(x0), Nm(y0), Nm(x1), Nm(y1)).unwrap()
    }

    #[test]
    fn rect_shape_basics() {
        let s = Shape::rect(Layer::metal(1), r(0, 0, 10, 2)).with_net("BL");
        assert_eq!(s.layer(), Layer::metal(1));
        assert_eq!(s.net(), Some("BL"));
        assert_eq!(s.area_nm2(), 20);
        assert_eq!(s.bbox(), r(0, 0, 10, 2));
    }

    #[test]
    fn polygon_shape_validation() {
        assert!(Shape::polygon(Layer::gate(), vec![]).is_err());
        let tri = Shape::polygon(
            Layer::gate(),
            vec![(0, 0).into(), (4, 0).into(), (0, 4).into()],
        )
        .unwrap();
        assert_eq!(tri.area_nm2(), 8);
    }

    #[test]
    fn translate_keeps_net() {
        let s = Shape::rect(Layer::metal(2), r(0, 0, 4, 4)).with_net("WL");
        let t = s.translate((10, 0).into());
        assert_eq!(t.net(), Some("WL"));
        assert_eq!(t.bbox(), r(10, 0, 14, 4));
    }

    #[test]
    fn placement_transform() {
        let s = Shape::rect(Layer::metal(1), r(0, 0, 10, 2));
        let placed = s.place(Orientation::R90, (100, 0).into());
        // R90 maps [0,0,10,2] to [-2,0,0,10]; translate x+100.
        assert_eq!(placed.bbox(), r(98, 0, 100, 10));
    }

    #[test]
    fn geometry_bbox_of_polygon() {
        let g = Geometry::Polygon(
            Polygon::new(vec![(0, 0).into(), (8, 0).into(), (4, 6).into()]).unwrap(),
        );
        assert_eq!(g.bbox(), r(0, 0, 8, 6));
    }

    #[test]
    fn display_mentions_layer_and_net() {
        let s = Shape::rect(Layer::metal(1), r(0, 0, 1, 1)).with_net("VSS");
        let out = s.to_string();
        assert!(out.contains("metal1"));
        assert!(out.contains("net=VSS"));
    }
}
