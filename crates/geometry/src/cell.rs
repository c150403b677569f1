//! Hierarchical cell / instance layout database.

use std::collections::{BTreeMap, HashSet};

use serde::{Deserialize, Serialize};

use crate::error::GeometryError;
use crate::point::Point;
use crate::rect::Rect;
use crate::shape::Shape;
use crate::transform::Orientation;

/// A placed reference to another cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Instance {
    cell: String,
    origin: Point,
    orientation: Orientation,
}

impl Instance {
    /// Creates an instance of `cell` at `origin` with orientation `R0`.
    pub fn new(cell: impl Into<String>, origin: Point) -> Self {
        Self {
            cell: cell.into(),
            origin,
            orientation: Orientation::R0,
        }
    }

    /// Sets the orientation (builder style).
    #[must_use]
    pub fn with_orientation(mut self, orientation: Orientation) -> Self {
        self.orientation = orientation;
        self
    }

    /// Referenced cell name.
    pub fn cell(&self) -> &str {
        &self.cell
    }

    /// Placement origin.
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// Placement orientation.
    pub fn orientation(&self) -> Orientation {
        self.orientation
    }
}

/// A layout cell: local shapes plus placed sub-cell instances.
///
/// # Example
///
/// ```
/// use mpvar_geometry::{Cell, Instance, Layer, Nm, Point, Rect, Shape};
///
/// let mut bitcell = Cell::new("bitcell");
/// bitcell.add_shape(Shape::rect(Layer::metal(1), Rect::new(Nm(0), Nm(0), Nm(120), Nm(24))?));
///
/// let mut array = Cell::new("array");
/// array.add_instance(Instance::new("bitcell", Point::new(Nm(0), Nm(0))));
/// array.add_instance(Instance::new("bitcell", Point::new(Nm(120), Nm(0))));
/// assert_eq!(array.instances().len(), 2);
/// # Ok::<(), mpvar_geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cell {
    name: String,
    shapes: Vec<Shape>,
    instances: Vec<Instance>,
}

impl Cell {
    /// Creates an empty cell.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            shapes: Vec::new(),
            instances: Vec::new(),
        }
    }

    /// Cell name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Local shapes (not including sub-instances).
    pub fn shapes(&self) -> &[Shape] {
        &self.shapes
    }

    /// Placed sub-cell instances.
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Adds a shape.
    pub fn add_shape(&mut self, shape: Shape) {
        self.shapes.push(shape);
    }

    /// Adds an instance.
    pub fn add_instance(&mut self, instance: Instance) {
        self.instances.push(instance);
    }
}

/// A layout database: a set of named cells.
///
/// Cells are stored in a `BTreeMap` so iteration (and therefore netlist
/// and file output) is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Layout {
    cells: BTreeMap<String, Cell>,
}

impl Layout {
    /// Creates an empty layout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a cell.
    ///
    /// # Errors
    ///
    /// [`GeometryError::DuplicateCell`] if a cell with that name exists.
    pub fn add_cell(&mut self, cell: Cell) -> Result<(), GeometryError> {
        if self.cells.contains_key(cell.name()) {
            return Err(GeometryError::DuplicateCell {
                name: cell.name().to_string(),
            });
        }
        self.cells.insert(cell.name().to_string(), cell);
        Ok(())
    }

    /// Looks up a cell by name.
    pub fn cell(&self, name: &str) -> Option<&Cell> {
        self.cells.get(name)
    }

    /// Iterates cells in name order.
    pub fn iter(&self) -> impl Iterator<Item = &Cell> {
        self.cells.values()
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the layout holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Flattens `top` into a list of shapes in top-level coordinates.
    ///
    /// Instance transforms compose depth-first; net labels survive
    /// flattening, which is what the extractor consumes.
    ///
    /// # Errors
    ///
    /// * [`GeometryError::UnknownCell`] if `top` or any referenced cell is
    ///   missing;
    /// * [`GeometryError::RecursiveHierarchy`] if the instance graph has a
    ///   cycle.
    pub fn flatten(&self, top: &str) -> Result<Vec<Shape>, GeometryError> {
        let mut out = Vec::new();
        let mut stack = HashSet::new();
        self.flatten_into(top, Orientation::R0, Point::ORIGIN, &mut stack, &mut out)?;
        Ok(out)
    }

    fn flatten_into(
        &self,
        name: &str,
        orient: Orientation,
        offset: Point,
        stack: &mut HashSet<String>,
        out: &mut Vec<Shape>,
    ) -> Result<(), GeometryError> {
        let cell = self
            .cells
            .get(name)
            .ok_or_else(|| GeometryError::UnknownCell {
                name: name.to_string(),
            })?;
        if !stack.insert(name.to_string()) {
            return Err(GeometryError::RecursiveHierarchy {
                name: name.to_string(),
            });
        }
        for s in &cell.shapes {
            out.push(s.place(orient, offset));
        }
        for inst in &cell.instances {
            let child_orient = inst.orientation().then(orient);
            let child_offset = orient.apply(inst.origin()) + offset;
            self.flatten_into(inst.cell(), child_orient, child_offset, stack, out)?;
        }
        stack.remove(name);
        Ok(())
    }

    /// Bounding box of the flattened `top` cell.
    ///
    /// # Errors
    ///
    /// Same as [`Layout::flatten`]; additionally reports `top` as unknown
    /// when it flattens to zero shapes.
    pub fn bbox(&self, top: &str) -> Result<Rect, GeometryError> {
        let shapes = self.flatten(top)?;
        let mut it = shapes.iter().map(Shape::bbox);
        let first = it.next().ok_or_else(|| GeometryError::UnknownCell {
            name: format!("{top} (no shapes)"),
        })?;
        Ok(it.fold(first, |acc, r| acc.union(&r)))
    }
}

impl FromIterator<Cell> for Layout {
    /// Collects cells into a layout; later duplicates replace earlier
    /// cells silently (use [`Layout::add_cell`] for checked insertion).
    fn from_iter<I: IntoIterator<Item = Cell>>(iter: I) -> Self {
        let mut l = Layout::new();
        for c in iter {
            l.cells.insert(c.name().to_string(), c);
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::units::Nm;

    fn rect_shape(x0: i64, y0: i64, x1: i64, y1: i64) -> Shape {
        Shape::rect(
            Layer::metal(1),
            Rect::new(Nm(x0), Nm(y0), Nm(x1), Nm(y1)).unwrap(),
        )
    }

    fn simple_layout() -> Layout {
        let mut leaf = Cell::new("leaf");
        leaf.add_shape(rect_shape(0, 0, 10, 2).with_net("BL"));
        let mut top = Cell::new("top");
        top.add_instance(Instance::new("leaf", (0, 0).into()));
        top.add_instance(Instance::new("leaf", (0, 10).into()));
        let mut l = Layout::new();
        l.add_cell(leaf).unwrap();
        l.add_cell(top).unwrap();
        l
    }

    #[test]
    fn duplicate_cells_rejected() {
        let mut l = Layout::new();
        l.add_cell(Cell::new("a")).unwrap();
        assert!(matches!(
            l.add_cell(Cell::new("a")),
            Err(GeometryError::DuplicateCell { .. })
        ));
    }

    #[test]
    fn flatten_applies_offsets() {
        let l = simple_layout();
        let shapes = l.flatten("top").unwrap();
        assert_eq!(shapes.len(), 2);
        assert_eq!(shapes[0].bbox().y0(), Nm(0));
        assert_eq!(shapes[1].bbox().y0(), Nm(10));
        assert_eq!(shapes[1].net(), Some("BL"));
    }

    #[test]
    fn flatten_nested_two_levels() {
        let mut l = simple_layout();
        let mut supertop = Cell::new("supertop");
        supertop.add_instance(Instance::new("top", (100, 0).into()));
        l.add_cell(supertop).unwrap();
        let shapes = l.flatten("supertop").unwrap();
        assert_eq!(shapes.len(), 2);
        assert_eq!(shapes[0].bbox().x0(), Nm(100));
    }

    #[test]
    fn flatten_with_orientation() {
        let mut l = Layout::new();
        let mut leaf = Cell::new("leaf");
        leaf.add_shape(rect_shape(0, 0, 10, 2));
        l.add_cell(leaf).unwrap();
        let mut top = Cell::new("top");
        top.add_instance(Instance::new("leaf", (0, 0).into()).with_orientation(Orientation::R90));
        l.add_cell(top).unwrap();
        let shapes = l.flatten("top").unwrap();
        assert_eq!(shapes[0].bbox().width(), Nm(2));
        assert_eq!(shapes[0].bbox().height(), Nm(10));
    }

    #[test]
    fn unknown_cell_errors() {
        let l = simple_layout();
        assert!(matches!(
            l.flatten("nope"),
            Err(GeometryError::UnknownCell { .. })
        ));
    }

    #[test]
    fn recursion_detected() {
        let mut l = Layout::new();
        let mut a = Cell::new("a");
        a.add_instance(Instance::new("b", (0, 0).into()));
        let mut b = Cell::new("b");
        b.add_instance(Instance::new("a", (0, 0).into()));
        l.add_cell(a).unwrap();
        l.add_cell(b).unwrap();
        assert!(matches!(
            l.flatten("a"),
            Err(GeometryError::RecursiveHierarchy { .. })
        ));
    }

    #[test]
    fn sibling_reuse_is_not_recursion() {
        // The same leaf used twice by one parent must flatten fine.
        let l = simple_layout();
        assert!(l.flatten("top").is_ok());
    }

    #[test]
    fn bbox_spans_flattened_shapes() {
        let l = simple_layout();
        let bb = l.bbox("top").unwrap();
        assert_eq!(bb.y0(), Nm(0));
        assert_eq!(bb.y1(), Nm(12));
    }

    #[test]
    fn deterministic_iteration() {
        let mut l = Layout::new();
        l.add_cell(Cell::new("zeta")).unwrap();
        l.add_cell(Cell::new("alpha")).unwrap();
        let names: Vec<&str> = l.iter().map(Cell::name).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
