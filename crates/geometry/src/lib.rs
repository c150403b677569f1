//! Integer-nanometre layout geometry for the `mpvar` workspace.
//!
//! The paper's flow starts from a GDSII layout of a 6T SRAM cell
//! (Fig. 1b) whose metal1 is a stack of unidirectional horizontal tracks.
//! This crate provides the layout substrate for that flow:
//!
//! * [`units`] — the [`Nm`] newtype: all coordinates are
//!   integer nanometres, so geometry is exact and hashable;
//! * [`point`], [`rect`] — primitives with exact predicates (polygons
//!   stay internal to TGDS shapes);
//! * [`transform`] — the eight GDSII orientations applied to geometry;
//! * [`layer`] — process layers (metal1, metal2, vias, FEOL);
//! * [`shape`], [`cell`] — a hierarchical cell/instance layout database
//!   with flattening;
//! * [`track`] — the unidirectional-wire abstraction the litho and
//!   extraction crates operate on (a wire = a track with a width, a span
//!   and a net label);
//! * [`gds`] — a line-oriented text serialization of layouts ("TGDS"),
//!   standing in for binary GDSII.
//!
//! # Example
//!
//! ```
//! use mpvar_geometry::{Cell, Layer, Nm, Rect, Shape};
//!
//! let m1 = Layer::metal(1);
//! let mut cell = Cell::new("bitcell");
//! let wire = Rect::new(Nm(0), Nm(0), Nm(120), Nm(24))?;
//! cell.add_shape(Shape::rect(m1, wire).with_net("BL"));
//! assert_eq!(cell.shapes().len(), 1);
//! # Ok::<(), mpvar_geometry::GeometryError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cell;
pub mod error;
pub mod gds;
pub mod layer;
pub mod point;
pub(crate) mod polygon;
pub mod rect;
pub mod shape;
pub mod track;
pub mod transform;
pub mod units;

pub use cell::{Cell, Instance, Layout};
pub use error::GeometryError;
pub use layer::Layer;
pub use point::Point;
pub use rect::Rect;
pub use shape::Shape;
pub use track::{Track, TrackStack};
pub use transform::Orientation;
pub use units::Nm;
