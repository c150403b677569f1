//! Process layers.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The kind of a process layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub(crate) enum LayerKind {
    /// Active/diffusion (FEOL).
    Diffusion,
    /// Gate poly or replacement-metal gate (FEOL).
    Gate,
    /// Diffusion/gate contact.
    Contact,
    /// A metal routing layer; the index is the metal level (1 = metal1).
    Metal(u8),
    /// A via layer connecting `Metal(n)` and `Metal(n + 1)`.
    Via(u8),
}

impl fmt::Display for LayerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayerKind::Diffusion => write!(f, "diff"),
            LayerKind::Gate => write!(f, "gate"),
            LayerKind::Contact => write!(f, "cont"),
            LayerKind::Metal(n) => write!(f, "metal{n}"),
            LayerKind::Via(n) => write!(f, "via{n}"),
        }
    }
}

/// A process layer identifier.
///
/// A thin, copyable handle whose textual name (`metal1`, `via2`, ...)
/// is what the text-GDS format stores.
///
/// # Example
///
/// ```
/// use mpvar_geometry::Layer;
///
/// let m1 = Layer::metal(1);
/// assert_eq!(m1.to_string(), "metal1");
/// assert_eq!(Layer::parse_name("metal1"), Some(m1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Layer {
    kind: LayerKind,
}

impl Layer {
    /// Creates a layer of the given kind.
    pub(crate) fn new(kind: LayerKind) -> Self {
        Self { kind }
    }

    /// Metal layer `n` (1-based).
    pub fn metal(n: u8) -> Self {
        Self::new(LayerKind::Metal(n))
    }

    /// Via layer between metal `n` and metal `n + 1`.
    pub fn via(n: u8) -> Self {
        Self::new(LayerKind::Via(n))
    }

    /// The diffusion layer.
    pub fn diffusion() -> Self {
        Self::new(LayerKind::Diffusion)
    }

    /// The gate layer.
    pub fn gate() -> Self {
        Self::new(LayerKind::Gate)
    }

    /// The contact layer.
    pub(crate) fn contact() -> Self {
        Self::new(LayerKind::Contact)
    }

    /// Parses the textual layer name used by [`fmt::Display`].
    pub fn parse_name(name: &str) -> Option<Layer> {
        match name {
            "diff" => Some(Layer::diffusion()),
            "gate" => Some(Layer::gate()),
            "cont" => Some(Layer::contact()),
            _ => {
                if let Some(n) = name.strip_prefix("metal") {
                    n.parse().ok().map(Layer::metal)
                } else if let Some(n) = name.strip_prefix("via") {
                    n.parse().ok().map(Layer::via)
                } else {
                    None
                }
            }
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_roundtrip() {
        for l in [
            Layer::diffusion(),
            Layer::metal(1),
            Layer::via(3),
            Layer::gate(),
        ] {
            assert_eq!(Layer::parse_name(&l.to_string()), Some(l));
        }
        assert_eq!(Layer::parse_name("bogus"), None);
        assert_eq!(Layer::parse_name("metalx"), None);
    }

    #[test]
    fn ordering_is_stable() {
        // Deterministic iteration order matters for netlist reproducibility.
        let mut v = vec![Layer::metal(2), Layer::gate(), Layer::metal(1)];
        v.sort();
        assert_eq!(v, vec![Layer::gate(), Layer::metal(1), Layer::metal(2)]);
    }
}
