//! "TGDS": a line-oriented text serialization of layouts.
//!
//! The paper's LPE tool consumes GDSII. Binary GDSII adds nothing to the
//! physics, so `mpvar` uses an equivalent text format that round-trips the
//! same information (cells, instances with orientation, shapes with layer
//! and net label):
//!
//! ```text
//! tgds 1
//! cell bitcell
//!   rect metal1 0 0 120 24 net=BL
//!   poly gate 0 0 10 0 0 10
//! endcell
//! cell top
//!   inst bitcell 0 0 R0
//! endcell
//! ```
//!
//! Coordinates are integer nanometres. `net=` is optional on shapes.

use crate::cell::{Cell, Instance, Layout};
use crate::error::GeometryError;
use crate::layer::Layer;
use crate::point::Point;
use crate::shape::{Geometry, Shape};
use crate::transform::Orientation;
use crate::units::Nm;

/// Serializes a layout to TGDS text.
///
/// Cells are emitted in name order, so output is deterministic.
///
/// # Example
///
/// ```
/// use mpvar_geometry::{gds, Cell, Layer, Layout, Nm, Rect, Shape};
///
/// let mut cell = Cell::new("c");
/// cell.add_shape(Shape::rect(Layer::metal(1), Rect::new(Nm(0), Nm(0), Nm(4), Nm(2))?));
/// let layout: Layout = [cell].into_iter().collect();
/// let text = gds::to_text(&layout);
/// let back = gds::from_text(&text)?;
/// assert_eq!(layout, back);
/// # Ok::<(), mpvar_geometry::GeometryError>(())
/// ```
pub fn to_text(layout: &Layout) -> String {
    let mut out = String::from("tgds 1\n");
    for cell in layout.iter() {
        out.push_str(&format!("cell {}\n", cell.name()));
        for s in cell.shapes() {
            match s.geometry() {
                Geometry::Rect(r) => {
                    out.push_str(&format!(
                        "  rect {} {} {} {} {}",
                        s.layer(),
                        r.x0().0,
                        r.y0().0,
                        r.x1().0,
                        r.y1().0
                    ));
                }
                Geometry::Polygon(p) => {
                    out.push_str(&format!("  poly {}", s.layer()));
                    for v in p.vertices() {
                        out.push_str(&format!(" {} {}", v.x.0, v.y.0));
                    }
                }
            }
            if let Some(net) = s.net() {
                out.push_str(&format!(" net={net}"));
            }
            out.push('\n');
        }
        for i in cell.instances() {
            out.push_str(&format!(
                "  inst {} {} {} {}\n",
                i.cell(),
                i.origin().x.0,
                i.origin().y.0,
                i.orientation()
            ));
        }
        out.push_str("endcell\n");
    }
    out
}

/// Parses TGDS text into a layout.
///
/// # Errors
///
/// [`GeometryError::Parse`] with a 1-based line number for any syntax
/// problem, and the usual geometry validation errors for degenerate
/// shapes. [`GeometryError::DuplicateCell`] for repeated cell names.
pub fn from_text(text: &str) -> Result<Layout, GeometryError> {
    let mut layout = Layout::new();
    let mut current: Option<Cell> = None;

    let err = |line: usize, message: &str| GeometryError::Parse {
        line,
        message: message.to_string(),
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let keyword = tok.next().expect("non-empty line has a token");
        match keyword {
            "tgds" => {
                let version = tok.next().ok_or_else(|| err(lineno, "missing version"))?;
                if version != "1" {
                    return Err(err(lineno, &format!("unsupported tgds version {version}")));
                }
            }
            "cell" => {
                if current.is_some() {
                    return Err(err(lineno, "nested `cell` without `endcell`"));
                }
                let name = tok.next().ok_or_else(|| err(lineno, "missing cell name"))?;
                current = Some(Cell::new(name));
            }
            "endcell" => {
                let cell = current
                    .take()
                    .ok_or_else(|| err(lineno, "`endcell` without open cell"))?;
                layout.add_cell(cell)?;
            }
            "rect" => {
                let cell = current
                    .as_mut()
                    .ok_or_else(|| err(lineno, "`rect` outside a cell"))?;
                let layer_name = tok.next().ok_or_else(|| err(lineno, "missing layer"))?;
                let layer = Layer::parse_name(layer_name)
                    .ok_or_else(|| err(lineno, &format!("unknown layer `{layer_name}`")))?;
                let mut coords = [0i64; 4];
                for c in &mut coords {
                    let t = tok
                        .next()
                        .ok_or_else(|| err(lineno, "missing coordinate"))?;
                    *c = t
                        .parse()
                        .map_err(|_| err(lineno, &format!("bad coordinate `{t}`")))?;
                }
                let rect = crate::rect::Rect::new(
                    Nm(coords[0]),
                    Nm(coords[1]),
                    Nm(coords[2]),
                    Nm(coords[3]),
                )?;
                let mut shape = Shape::rect(layer, rect);
                if let Some(extra) = tok.next() {
                    shape = apply_net(shape, extra, lineno)?;
                }
                cell.add_shape(shape);
            }
            "poly" => {
                let cell = current
                    .as_mut()
                    .ok_or_else(|| err(lineno, "`poly` outside a cell"))?;
                let layer_name = tok.next().ok_or_else(|| err(lineno, "missing layer"))?;
                let layer = Layer::parse_name(layer_name)
                    .ok_or_else(|| err(lineno, &format!("unknown layer `{layer_name}`")))?;
                let rest: Vec<&str> = tok.collect();
                let (coord_toks, net_tok) = match rest.last() {
                    Some(last) if last.starts_with("net=") => {
                        (&rest[..rest.len() - 1], Some(*last))
                    }
                    _ => (&rest[..], None),
                };
                if coord_toks.len() % 2 != 0 {
                    return Err(err(lineno, "odd number of polygon coordinates"));
                }
                let mut vertices = Vec::with_capacity(coord_toks.len() / 2);
                for pair in coord_toks.chunks(2) {
                    let x: i64 = pair[0]
                        .parse()
                        .map_err(|_| err(lineno, &format!("bad coordinate `{}`", pair[0])))?;
                    let y: i64 = pair[1]
                        .parse()
                        .map_err(|_| err(lineno, &format!("bad coordinate `{}`", pair[1])))?;
                    vertices.push(Point::new(Nm(x), Nm(y)));
                }
                let mut shape = Shape::polygon(layer, vertices)?;
                if let Some(nt) = net_tok {
                    shape = apply_net(shape, nt, lineno)?;
                }
                cell.add_shape(shape);
            }
            "inst" => {
                let cell = current
                    .as_mut()
                    .ok_or_else(|| err(lineno, "`inst` outside a cell"))?;
                let target = tok
                    .next()
                    .ok_or_else(|| err(lineno, "missing instance cell"))?;
                let x: i64 = tok
                    .next()
                    .ok_or_else(|| err(lineno, "missing x"))?
                    .parse()
                    .map_err(|_| err(lineno, "bad x coordinate"))?;
                let y: i64 = tok
                    .next()
                    .ok_or_else(|| err(lineno, "missing y"))?
                    .parse()
                    .map_err(|_| err(lineno, "bad y coordinate"))?;
                let orient_name = tok.next().unwrap_or("R0");
                let orientation = Orientation::parse_name(orient_name)
                    .ok_or_else(|| err(lineno, &format!("unknown orientation `{orient_name}`")))?;
                cell.add_instance(
                    Instance::new(target, Point::new(Nm(x), Nm(y))).with_orientation(orientation),
                );
            }
            other => {
                return Err(err(lineno, &format!("unknown keyword `{other}`")));
            }
        }
    }

    if current.is_some() {
        return Err(GeometryError::Parse {
            line: text.lines().count(),
            message: "unterminated cell at end of input".to_string(),
        });
    }
    Ok(layout)
}

fn apply_net(shape: Shape, token: &str, lineno: usize) -> Result<Shape, GeometryError> {
    match token.strip_prefix("net=") {
        Some(net) if !net.is_empty() => Ok(shape.with_net(net)),
        _ => Err(GeometryError::Parse {
            line: lineno,
            message: format!("expected `net=<name>`, got `{token}`"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rect::Rect;

    fn sample_layout() -> Layout {
        let mut bitcell = Cell::new("bitcell");
        bitcell.add_shape(
            Shape::rect(
                Layer::metal(1),
                Rect::new(Nm(0), Nm(0), Nm(120), Nm(24)).unwrap(),
            )
            .with_net("BL"),
        );
        bitcell.add_shape(
            Shape::polygon(
                Layer::gate(),
                vec![(0, 0).into(), (10, 0).into(), (0, 10).into()],
            )
            .unwrap(),
        );
        let mut top = Cell::new("top");
        top.add_instance(Instance::new("bitcell", (0, 0).into()));
        top.add_instance(
            Instance::new("bitcell", (0, 48).into()).with_orientation(Orientation::MX),
        );
        [bitcell, top].into_iter().collect()
    }

    #[test]
    fn roundtrip() {
        let layout = sample_layout();
        let text = to_text(&layout);
        let back = from_text(&text).unwrap();
        assert_eq!(layout, back);
    }

    #[test]
    fn parses_comments_and_blanks() {
        let text = "tgds 1\n# a comment\n\ncell a\n  rect metal1 0 0 2 2\nendcell\n";
        let layout = from_text(text).unwrap();
        assert_eq!(layout.len(), 1);
    }

    #[test]
    fn error_reports_line_numbers() {
        let text = "tgds 1\ncell a\n  rect metal1 0 0 X 2\nendcell\n";
        match from_text(text) {
            Err(GeometryError::Parse { line, .. }) => assert_eq!(line, 3),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_unknown_keyword() {
        assert!(matches!(
            from_text("tgds 1\nbogus\n"),
            Err(GeometryError::Parse { .. })
        ));
    }

    #[test]
    fn rejects_shape_outside_cell() {
        assert!(from_text("tgds 1\nrect metal1 0 0 1 1\n").is_err());
    }

    #[test]
    fn rejects_unterminated_cell() {
        assert!(from_text("tgds 1\ncell a\n").is_err());
    }

    #[test]
    fn rejects_nested_cell() {
        assert!(from_text("tgds 1\ncell a\ncell b\n").is_err());
    }

    #[test]
    fn rejects_unsupported_version() {
        assert!(from_text("tgds 99\n").is_err());
    }

    #[test]
    fn rejects_bad_net_token() {
        assert!(from_text("tgds 1\ncell a\n  rect metal1 0 0 1 1 net=\nendcell\n").is_err());
        assert!(from_text("tgds 1\ncell a\n  rect metal1 0 0 1 1 junk\nendcell\n").is_err());
    }

    #[test]
    fn instance_default_orientation() {
        let text = "tgds 1\ncell a\nendcell\ncell b\n  inst a 5 6\nendcell\n";
        let layout = from_text(text).unwrap();
        let inst = &layout.cell("b").unwrap().instances()[0];
        assert_eq!(inst.orientation(), Orientation::R0);
        assert_eq!(inst.origin(), Point::new(Nm(5), Nm(6)));
    }

    #[test]
    fn poly_with_net_label() {
        let text = "tgds 1\ncell a\n  poly metal1 0 0 4 0 0 4 net=BLB\nendcell\n";
        let layout = from_text(text).unwrap();
        assert_eq!(layout.cell("a").unwrap().shapes()[0].net(), Some("BLB"));
    }

    #[test]
    fn duplicate_cell_rejected() {
        let text = "tgds 1\ncell a\nendcell\ncell a\nendcell\n";
        assert!(matches!(
            from_text(text),
            Err(GeometryError::DuplicateCell { .. })
        ));
    }
}
