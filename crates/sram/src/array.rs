//! SRAM array: drawn geometry for the design-of-experiments windows.
//!
//! The paper's DOE (§II.C, Fig. 3) uses arrays of 16 / 64 / 256 / 1024
//! word lines with a fixed 10-bit word length ("10 bit line pairs...
//! large enough to consider the simulation results of the central lines
//! not affected by edge related effects").

use mpvar_geometry::{gds, Cell, Instance, Layer, Layout, Nm, Point, Rect, Shape};

use crate::cell::BitcellGeometry;
use crate::error::SramError;

/// The paper's fixed bit-line-pair count.
pub const PAPER_BL_PAIRS: usize = 10;

/// The paper's four DOE array heights (word lines).
pub const PAPER_ARRAY_SIZES: [usize; 4] = [16, 64, 256, 1024];

/// An SRAM array window: `rows` word lines by `pairs` bit-line pairs of
/// a given bitcell.
#[derive(Debug, Clone, PartialEq)]
pub struct SramArray {
    cell: BitcellGeometry,
    rows: usize,
    pairs: usize,
}

impl SramArray {
    /// Creates an array with explicit dimensions.
    ///
    /// # Errors
    ///
    /// [`SramError::InvalidStructure`] for zero rows or pairs.
    pub fn new(cell: BitcellGeometry, rows: usize, pairs: usize) -> Result<Self, SramError> {
        if rows == 0 || pairs == 0 {
            return Err(SramError::InvalidStructure {
                message: "array needs at least one row and one pair".to_string(),
            });
        }
        Ok(Self { cell, rows, pairs })
    }

    /// The bitcell geometry.
    pub fn cell(&self) -> &BitcellGeometry {
        &self.cell
    }

    /// Word-line count (cells along each bit line).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Bit-line pair count.
    pub fn pairs(&self) -> usize {
        self.pairs
    }

    /// Builds a hierarchical layout: a `bitcell` cell with its four
    /// metal1 tracks (net-labelled) and FEOL marker shapes, instanced
    /// `rows x pairs` times in an `array` cell. Exportable to TGDS via
    /// [`mpvar_geometry::gds::to_text`].
    ///
    /// # Errors
    ///
    /// [`SramError::Geometry`] on shape-construction failures.
    pub(crate) fn to_layout(&self) -> Result<Layout, SramError> {
        let c = &self.cell;
        let m1 = Layer::metal(1);
        let len = c.cell_len_x();
        let p = c.m1_pitch();

        let mut bitcell = Cell::new("bitcell");
        let rail_w = c.rail_width();
        let bl_w = c.bl_width();
        let track = |y_center: Nm, w: Nm| -> Result<Rect, SramError> {
            Ok(Rect::new(
                Nm(0),
                y_center - w / 2,
                len,
                y_center - w / 2 + w,
            )?)
        };
        bitcell.add_shape(Shape::rect(m1, track(Nm(0), rail_w)?).with_net("VSS"));
        bitcell.add_shape(Shape::rect(m1, track(p, bl_w)?).with_net("BL"));
        bitcell.add_shape(Shape::rect(m1, track(p * 2, rail_w)?).with_net("VDD"));
        bitcell.add_shape(Shape::rect(m1, track(p * 3, bl_w)?).with_net("BLB"));
        // FEOL markers: two gate stripes and a diffusion island — enough
        // for the layout pipeline to exercise non-metal layers.
        bitcell.add_shape(Shape::rect(
            Layer::diffusion(),
            Rect::new(Nm(10), Nm(20), len - Nm(10), p * 3 - Nm(20))?,
        ));
        for (i, x) in [len / 3, 2 * len / 3].into_iter().enumerate() {
            bitcell.add_shape(Shape::rect(
                Layer::gate(),
                Rect::new(x - Nm(8), Nm(0), x + Nm(8), p * 3)?,
            ));
            let _ = i;
        }
        // Word line on metal2, vertical.
        bitcell.add_shape(
            Shape::rect(
                Layer::metal(2),
                Rect::new(len / 2 - Nm(16), Nm(0), len / 2 + Nm(16), p * 4)?,
            )
            .with_net("WL"),
        );

        let mut array = Cell::new("array");
        for row in 0..self.rows {
            for pair in 0..self.pairs {
                array.add_instance(Instance::new(
                    "bitcell",
                    Point::new(len * row as i64, c.cell_height() * pair as i64),
                ));
            }
        }

        let mut layout = Layout::new();
        layout.add_cell(bitcell)?;
        layout.add_cell(array)?;
        Ok(layout)
    }

    /// Serializes the hierarchical layout to TGDS text.
    ///
    /// # Errors
    ///
    /// [`SramError::Geometry`] on shape-construction failures.
    pub fn to_tgds(&self) -> Result<String, SramError> {
        Ok(gds::to_text(&self.to_layout()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_tech::preset::n10;

    fn array(rows: usize) -> SramArray {
        let cell = BitcellGeometry::n10_hd(&n10()).unwrap();
        SramArray::new(cell, rows, PAPER_BL_PAIRS).unwrap()
    }

    #[test]
    fn paper_doe_dimensions() {
        let a = array(64);
        assert_eq!(a.rows(), 64);
        assert_eq!(a.pairs(), 10);
    }

    #[test]
    fn zero_dims_rejected() {
        let cell = BitcellGeometry::n10_hd(&n10()).unwrap();
        assert!(SramArray::new(cell.clone(), 0, 10).is_err());
        assert!(SramArray::new(cell, 4, 0).is_err());
    }

    #[test]
    fn layout_flattens_to_expected_count() {
        let a = SramArray::new(BitcellGeometry::n10_hd(&n10()).unwrap(), 4, 3).unwrap();
        let layout = a.to_layout().unwrap();
        let shapes = layout.flatten("array").unwrap();
        // 8 shapes per bitcell x 12 instances.
        assert_eq!(shapes.len(), 8 * 12);
        // Bounding box spans rows x len by pairs x height.
        let bb = layout.bbox("array").unwrap();
        assert_eq!(bb.width(), Nm(4 * 130));
        // Top: WL metal2 of the last pair reaches 2*192 + 192; bottom:
        // the VSS rail extends 12nm below y = 0.
        assert_eq!(bb.height(), Nm(3 * 192 + 12));
    }

    #[test]
    fn tgds_roundtrip() {
        let a = SramArray::new(BitcellGeometry::n10_hd(&n10()).unwrap(), 2, 2).unwrap();
        let text = a.to_tgds().unwrap();
        let parsed = mpvar_geometry::gds::from_text(&text).unwrap();
        assert!(parsed.cell("bitcell").is_some());
        assert_eq!(parsed.cell("array").unwrap().instances().len(), 4);
    }

    #[test]
    fn bitcell_shapes_carry_nets() {
        let a = array(16);
        let layout = a.to_layout().unwrap();
        let nets: Vec<&str> = layout
            .cell("bitcell")
            .unwrap()
            .shapes()
            .iter()
            .filter_map(|s| s.net())
            .collect();
        for expected in ["VSS", "BL", "VDD", "BLB", "WL"] {
            assert!(nets.contains(&expected), "missing {expected}");
        }
    }
}
