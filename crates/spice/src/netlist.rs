//! Circuit netlist: nodes and elements.

use std::collections::HashMap;
use std::fmt;

use crate::error::SpiceError;
use crate::mosfet::MosfetModel;
use crate::waveform::Waveform;

/// An interned circuit node.
///
/// `NodeId(0)` is always ground. Ids are only meaningful within the
/// netlist that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The raw index (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// `true` for the ground node.
    pub(crate) fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A circuit element.
#[derive(Debug, Clone)]
pub enum Element {
    /// A linear resistor.
    Resistor {
        /// Element name (unique within the netlist).
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Resistance, Ω (strictly positive).
        ohms: f64,
    },
    /// A linear capacitor.
    Capacitor {
        /// Element name.
        name: String,
        /// First terminal.
        a: NodeId,
        /// Second terminal.
        b: NodeId,
        /// Capacitance, F (strictly positive).
        farads: f64,
    },
    /// An independent voltage source (`p` is the + terminal).
    VSource {
        /// Element name.
        name: String,
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source waveform.
        waveform: Waveform,
    },
    /// An independent current source; positive current flows from `p`
    /// through the source to `n` (i.e. it *pulls* current out of `p`).
    ISource {
        /// Element name.
        name: String,
        /// Positive terminal.
        p: NodeId,
        /// Negative terminal.
        n: NodeId,
        /// Source waveform.
        waveform: Waveform,
    },
    /// A MOSFET (drain, gate, source; bulk tied to source).
    Mosfet {
        /// Element name.
        name: String,
        /// Drain terminal.
        d: NodeId,
        /// Gate terminal.
        g: NodeId,
        /// Source terminal.
        s: NodeId,
        /// Compact model to evaluate.
        model: MosfetModel,
    },
}

impl Element {
    /// The element's unique name.
    pub fn name(&self) -> &str {
        match self {
            Element::Resistor { name, .. }
            | Element::Capacitor { name, .. }
            | Element::VSource { name, .. }
            | Element::ISource { name, .. }
            | Element::Mosfet { name, .. } => name,
        }
    }

    /// The nodes this element touches.
    pub fn nodes(&self) -> Vec<NodeId> {
        match self {
            Element::Resistor { a, b, .. } | Element::Capacitor { a, b, .. } => vec![*a, *b],
            Element::VSource { p, n, .. } | Element::ISource { p, n, .. } => vec![*p, *n],
            Element::Mosfet { d, g, s, .. } => vec![*d, *g, *s],
        }
    }
}

/// A circuit netlist.
///
/// Nodes are created by name via [`Netlist::node`]; ground is the
/// reserved name `"0"` (aliases `"gnd"`, `"GND"`). Element names must be
/// unique, mirroring SPICE semantics.
///
/// # Example
///
/// ```
/// use mpvar_spice::{Netlist, Waveform};
///
/// let mut net = Netlist::new();
/// let vdd = net.node("vdd");
/// let out = net.node("out");
/// net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(0.7))?;
/// net.add_resistor("R1", vdd, out, 10_000.0)?;
/// net.add_capacitor("C1", out, Netlist::GROUND, 1e-15)?;
/// assert_eq!(net.elements().len(), 3);
/// # Ok::<(), mpvar_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    node_names: Vec<String>,
    node_index: HashMap<String, NodeId>,
    elements: Vec<Element>,
    element_names: HashMap<String, usize>,
}

impl Netlist {
    /// The ground node, present in every netlist.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty netlist (containing only ground).
    pub fn new() -> Self {
        let mut n = Self {
            node_names: vec!["0".to_string()],
            node_index: HashMap::new(),
            elements: Vec::new(),
            element_names: HashMap::new(),
        };
        n.node_index.insert("0".to_string(), NodeId(0));
        n.node_index.insert("gnd".to_string(), NodeId(0));
        n
    }

    /// Returns the node with the given name, creating it if needed.
    /// `"0"` and `"gnd"` (any case) map to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        let key = if name.eq_ignore_ascii_case("gnd") || name == "0" {
            "0".to_string()
        } else {
            name.to_string()
        };
        if let Some(&id) = self.node_index.get(&key) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(key.clone());
        self.node_index.insert(key, id);
        id
    }

    /// Looks up an existing node by name without creating it.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        let key = if name.eq_ignore_ascii_case("gnd") {
            "0"
        } else {
            name
        };
        self.node_index.get(key).copied()
    }

    /// The name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this netlist.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Total node count including ground.
    pub(crate) fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// All elements in insertion order.
    pub fn elements(&self) -> &[Element] {
        &self.elements
    }

    /// Finds an element by name.
    pub fn element(&self, name: &str) -> Option<&Element> {
        self.element_names.get(name).map(|&i| &self.elements[i])
    }

    /// Number of independent voltage sources (each adds one MNA branch
    /// unknown).
    pub(crate) fn num_vsources(&self) -> usize {
        self.elements
            .iter()
            .filter(|e| matches!(e, Element::VSource { .. }))
            .count()
    }

    fn check_node(&self, id: NodeId) -> Result<(), SpiceError> {
        if id.0 < self.node_names.len() {
            Ok(())
        } else {
            Err(SpiceError::UnknownNode { index: id.0 })
        }
    }

    fn register(&mut self, element: Element) -> Result<(), SpiceError> {
        for node in element.nodes() {
            self.check_node(node)?;
        }
        let name = element.name().to_string();
        if self.element_names.contains_key(&name) {
            return Err(SpiceError::DuplicateElement { name });
        }
        self.element_names.insert(name, self.elements.len());
        self.elements.push(element);
        Ok(())
    }

    /// Adds a resistor.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] for a non-positive or non-finite
    /// resistance; [`SpiceError::DuplicateElement`] for a reused name;
    /// [`SpiceError::UnknownNode`] for foreign node ids.
    pub fn add_resistor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        ohms: f64,
    ) -> Result<(), SpiceError> {
        if !ohms.is_finite() || ohms <= 0.0 {
            return Err(SpiceError::InvalidValue {
                element: name.to_string(),
                message: format!("resistance must be positive, got {ohms}"),
            });
        }
        self.register(Element::Resistor {
            name: name.to_string(),
            a,
            b,
            ohms,
        })
    }

    /// Adds a capacitor.
    ///
    /// # Errors
    ///
    /// Same classes as [`Netlist::add_resistor`].
    pub fn add_capacitor(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
    ) -> Result<(), SpiceError> {
        if !farads.is_finite() || farads <= 0.0 {
            return Err(SpiceError::InvalidValue {
                element: name.to_string(),
                message: format!("capacitance must be positive, got {farads}"),
            });
        }
        self.register(Element::Capacitor {
            name: name.to_string(),
            a,
            b,
            farads,
        })
    }

    /// Adds an independent voltage source.
    ///
    /// # Errors
    ///
    /// [`SpiceError::DuplicateElement`] / [`SpiceError::UnknownNode`].
    pub fn add_vsource(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        waveform: Waveform,
    ) -> Result<(), SpiceError> {
        self.register(Element::VSource {
            name: name.to_string(),
            p,
            n,
            waveform,
        })
    }

    /// Adds an independent current source.
    ///
    /// # Errors
    ///
    /// [`SpiceError::DuplicateElement`] / [`SpiceError::UnknownNode`].
    pub(crate) fn add_isource(
        &mut self,
        name: &str,
        p: NodeId,
        n: NodeId,
        waveform: Waveform,
    ) -> Result<(), SpiceError> {
        self.register(Element::ISource {
            name: name.to_string(),
            p,
            n,
            waveform,
        })
    }

    /// Adds a MOSFET (bulk tied to source).
    ///
    /// # Errors
    ///
    /// [`SpiceError::DuplicateElement`] / [`SpiceError::UnknownNode`].
    pub fn add_mosfet(
        &mut self,
        name: &str,
        d: NodeId,
        g: NodeId,
        s: NodeId,
        model: MosfetModel,
    ) -> Result<(), SpiceError> {
        self.register(Element::Mosfet {
            name: name.to_string(),
            d,
            g,
            s,
            model,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_aliases() {
        let mut n = Netlist::new();
        assert_eq!(n.node("0"), Netlist::GROUND);
        assert_eq!(n.node("gnd"), Netlist::GROUND);
        assert_eq!(n.node("GND"), Netlist::GROUND);
        assert_eq!(n.find_node("GnD"), Some(Netlist::GROUND));
        assert!(Netlist::GROUND.is_ground());
    }

    #[test]
    fn node_interning() {
        let mut n = Netlist::new();
        let a = n.node("a");
        let a2 = n.node("a");
        let b = n.node("b");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(n.num_nodes(), 3);
        assert_eq!(n.node_name(a), "a");
        assert_eq!(n.find_node("b"), Some(b));
        assert_eq!(n.find_node("zzz"), None);
    }

    #[test]
    fn element_validation() {
        let mut n = Netlist::new();
        let a = n.node("a");
        assert!(n.add_resistor("R1", a, Netlist::GROUND, 0.0).is_err());
        assert!(n.add_resistor("R1", a, Netlist::GROUND, -5.0).is_err());
        assert!(n
            .add_resistor("R1", a, Netlist::GROUND, f64::INFINITY)
            .is_err());
        assert!(n.add_capacitor("C1", a, Netlist::GROUND, 0.0).is_err());
        n.add_resistor("R1", a, Netlist::GROUND, 100.0).unwrap();
        assert!(matches!(
            n.add_resistor("R1", a, Netlist::GROUND, 200.0),
            Err(SpiceError::DuplicateElement { .. })
        ));
    }

    #[test]
    fn foreign_node_rejected() {
        let mut n1 = Netlist::new();
        let mut n2 = Netlist::new();
        let a1 = n1.node("a");
        let _ = n2.node("x");
        // Node from n1 with a larger index than n2 has.
        let b1 = n1.node("b");
        let _ = b1;
        let far = NodeId(99);
        assert!(matches!(
            n2.add_resistor("R1", far, Netlist::GROUND, 1.0),
            Err(SpiceError::UnknownNode { .. })
        ));
        let _ = a1;
    }

    #[test]
    fn element_lookup_and_counts() {
        let mut n = Netlist::new();
        let a = n.node("a");
        n.add_vsource("V1", a, Netlist::GROUND, Waveform::dc(1.0))
            .unwrap();
        n.add_resistor("R1", a, Netlist::GROUND, 50.0).unwrap();
        assert_eq!(n.num_vsources(), 1);
        assert!(n.element("V1").is_some());
        assert!(n.element("R9").is_none());
        assert_eq!(n.elements().len(), 2);
    }
}
