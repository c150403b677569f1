//! Distributed-RC "LPE deck" emission.
//!
//! Builds the circuit the paper's tool would hand to SPICE: every signal
//! track becomes a π-segment RC ladder; supply rails (`VSS*`, `VDD*`)
//! are AC ground during a read, so coupling from a signal wire to a rail
//! folds into that wire's ground capacitance; coupling between two
//! adjacent *signal* wires becomes explicit coupling capacitors between
//! corresponding ladder taps.

use std::collections::BTreeMap;

use mpvar_litho::PerturbedStack;
use mpvar_spice::{Netlist, NodeId};
use mpvar_tech::MetalSpec;

use crate::error::ExtractError;
use crate::wire::extract_stack;

/// Configuration for deck emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RcDeckSpec {
    /// π-segments per track (one per SRAM cell in the read testbench).
    pub segments: usize,
    /// Net-name prefixes treated as AC-ground rails (default:
    /// `["VSS", "VDD"]`).
    pub rail_prefixes: Vec<String>,
}

impl Default for RcDeckSpec {
    fn default() -> Self {
        Self {
            segments: 1,
            rail_prefixes: vec!["VSS".to_string(), "VDD".to_string()],
        }
    }
}

impl RcDeckSpec {
    /// `true` when `net` is a rail under this spec.
    pub(crate) fn is_rail(&self, net: &str) -> bool {
        self.rail_prefixes
            .iter()
            .any(|p| net.starts_with(p.as_str()))
    }
}

/// An emitted distributed-RC circuit with named ladder taps.
#[derive(Debug, Clone)]
pub struct RcDeck {
    netlist: Netlist,
    taps: BTreeMap<String, Vec<NodeId>>,
}

impl RcDeck {
    /// The emitted netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Mutable access, for attaching devices (precharge, cells).
    pub fn netlist_mut(&mut self) -> &mut Netlist {
        &mut self.netlist
    }

    /// Ladder tap `k` of `net` (0 = near end, `segments` = far end).
    pub fn tap(&self, net: &str, k: usize) -> Option<NodeId> {
        self.taps.get(net).and_then(|v| v.get(k).copied())
    }
}

/// Emits the distributed-RC deck for a printed stack.
///
/// Each signal track of total resistance `R` and capacitance components
/// `(C_ground, C_couple)` becomes `segments` series resistors of
/// `R/segments` with per-tap shunt capacitors; end taps get half weight
/// (π-model). Rail-adjacent coupling is folded to ground; signal-signal
/// coupling (adjacent tracks only) becomes tap-to-tap capacitors.
///
/// # Errors
///
/// * [`ExtractError::ZeroSegments`];
/// * extraction-model geometry errors;
/// * circuit-construction errors (wrapped as [`ExtractError::Circuit`]).
///
/// # Example
///
/// ```
/// use mpvar_extract::{emit_rc_deck, RcDeckSpec};
/// use mpvar_litho::{apply_draw, Draw};
/// use mpvar_geometry::{Nm, Track, TrackStack};
/// use mpvar_tech::{preset::n10, PatterningOption};
///
/// let tech = n10();
/// let drawn = TrackStack::new(vec![
///     Track::new("VSS", Nm(0),  Nm(24), Nm(0), Nm(1300))?,
///     Track::new("BL",  Nm(48), Nm(26), Nm(0), Nm(1300))?,
///     Track::new("VDD", Nm(96), Nm(24), Nm(0), Nm(1300))?,
/// ])?;
/// let printed = apply_draw(&drawn, &Draw::nominal(PatterningOption::Euv))?;
/// let deck = emit_rc_deck(&printed, tech.metal(1).unwrap(), &RcDeckSpec {
///     segments: 4,
///     ..RcDeckSpec::default()
/// })?;
/// assert!(deck.tap("BL", 4).is_some() && deck.tap("BL", 5).is_none()); // 5 taps
/// assert!(deck.tap("VSS", 0).is_none()); // rails are ground
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn emit_rc_deck(
    stack: &PerturbedStack,
    spec: &MetalSpec,
    deck_spec: &RcDeckSpec,
) -> Result<RcDeck, ExtractError> {
    if deck_spec.segments == 0 {
        return Err(ExtractError::ZeroSegments);
    }
    let parasitics = extract_stack(stack, spec)?;
    let nseg = deck_spec.segments;

    let mut netlist = Netlist::new();
    let mut taps: BTreeMap<String, Vec<NodeId>> = BTreeMap::new();

    // Create ladders for signal tracks.
    for p in &parasitics {
        if deck_spec.is_rail(p.net()) {
            continue;
        }
        let mut nodes = Vec::with_capacity(nseg + 1);
        for k in 0..=nseg {
            nodes.push(netlist.node(&format!("{}_{k}", p.net())));
        }
        let r_seg = p.resistance_ohm() / nseg as f64;
        for k in 0..nseg {
            netlist.add_resistor(&format!("R_{}_{k}", p.net()), nodes[k], nodes[k + 1], r_seg)?;
        }
        taps.insert(p.net().to_string(), nodes);
    }

    // Shunt and coupling capacitors.
    for (i, p) in parasitics.iter().enumerate() {
        if deck_spec.is_rail(p.net()) {
            continue;
        }
        let nodes = &taps[p.net()];

        // Ground share: plate+fringe plus rail-adjacent coupling.
        let mut c_ground = p.c_ground_f();
        let below_is_signal = i > 0 && !deck_spec.is_rail(stack.track(i - 1).net());
        let above_is_signal = i + 1 < stack.len() && !deck_spec.is_rail(stack.track(i + 1).net());
        if !below_is_signal {
            c_ground += p.c_couple_below_f();
        }
        if !above_is_signal {
            c_ground += p.c_couple_above_f();
        }

        add_distributed_caps(
            &mut netlist,
            &format!("Cg_{}", p.net()),
            nodes,
            None,
            c_ground,
        )?;

        // Signal-signal coupling: emit once, from the lower track.
        if above_is_signal {
            let upper = stack.track(i + 1).net().to_string();
            let upper_nodes = taps[&upper].clone();
            add_distributed_caps(
                &mut netlist,
                &format!("Cc_{}_{upper}", p.net()),
                nodes,
                Some(&upper_nodes),
                p.c_couple_above_f(),
            )?;
        }
    }

    Ok(RcDeck { netlist, taps })
}

/// Distributes `c_total` across the taps with π-model end weights. With
/// `other` given, capacitors go tap-to-tap; otherwise tap-to-ground.
fn add_distributed_caps(
    netlist: &mut Netlist,
    prefix: &str,
    nodes: &[NodeId],
    other: Option<&[NodeId]>,
    c_total: f64,
) -> Result<(), ExtractError> {
    if c_total <= 0.0 {
        return Ok(());
    }
    let nseg = nodes.len() - 1;
    // π-weights: end taps get half a segment's share.
    let c_seg = c_total / nseg as f64;
    for (k, &node) in nodes.iter().enumerate() {
        let weight = if k == 0 || k == nseg { 0.5 } else { 1.0 };
        let c = c_seg * weight;
        let target = match other {
            Some(o) => o[k],
            None => Netlist::GROUND,
        };
        netlist.add_capacitor(&format!("{prefix}_{k}"), node, target, c)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_geometry::{Nm, Track, TrackStack};
    use mpvar_litho::{apply_draw, Draw};
    use mpvar_spice::{Element, Transient};
    use mpvar_tech::preset::n10;
    use mpvar_tech::PatterningOption;

    fn printed_stack() -> PerturbedStack {
        let drawn = TrackStack::new(vec![
            Track::new("VSS", Nm(0), Nm(24), Nm(0), Nm(1300)).unwrap(),
            Track::new("BL", Nm(48), Nm(26), Nm(0), Nm(1300)).unwrap(),
            Track::new("VDD", Nm(96), Nm(24), Nm(0), Nm(1300)).unwrap(),
            Track::new("BLB", Nm(144), Nm(26), Nm(0), Nm(1300)).unwrap(),
            Track::new("VSS2", Nm(192), Nm(24), Nm(0), Nm(1300)).unwrap(),
        ])
        .unwrap();
        apply_draw(&drawn, &Draw::nominal(PatterningOption::Euv)).unwrap()
    }

    fn spec() -> MetalSpec {
        n10().metal(1).unwrap().clone()
    }

    #[test]
    fn ladder_structure() {
        let deck = emit_rc_deck(
            &printed_stack(),
            &spec(),
            &RcDeckSpec {
                segments: 8,
                ..RcDeckSpec::default()
            },
        )
        .unwrap();
        for net in ["BL", "BLB"] {
            assert!(deck.tap(net, 0).is_some(), "{net}");
            assert!(deck.tap(net, 8).is_some(), "{net}");
            assert!(deck.tap(net, 9).is_none(), "{net}");
        }
        // Rails are ground: no ladder.
        assert!(deck.tap("VSS", 0).is_none());
        assert!(deck.tap("VDD", 0).is_none());
    }

    #[test]
    fn total_resistance_preserved() {
        let stack = printed_stack();
        let s = spec();
        let parasitics = extract_stack(&stack, &s).unwrap();
        let bl = parasitics.iter().find(|p| p.net() == "BL").unwrap();
        let deck = emit_rc_deck(
            &stack,
            &s,
            &RcDeckSpec {
                segments: 10,
                ..RcDeckSpec::default()
            },
        )
        .unwrap();
        let total_r: f64 = deck
            .netlist()
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Resistor { name, ohms, .. } if name.starts_with("R_BL_") => Some(*ohms),
                _ => None,
            })
            .sum();
        assert!((total_r - bl.resistance_ohm()).abs() / bl.resistance_ohm() < 1e-12);
    }

    #[test]
    fn total_capacitance_preserved() {
        let stack = printed_stack();
        let s = spec();
        let parasitics = extract_stack(&stack, &s).unwrap();
        let bl = parasitics.iter().find(|p| p.net() == "BL").unwrap();
        let deck = emit_rc_deck(
            &stack,
            &s,
            &RcDeckSpec {
                segments: 6,
                ..RcDeckSpec::default()
            },
        )
        .unwrap();
        // BL neighbours are both rails: all of C_bl is to ground.
        let total_c: f64 = deck
            .netlist()
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Capacitor { name, farads, .. } if name.starts_with("Cg_BL_") => {
                    Some(*farads)
                }
                _ => None,
            })
            .sum();
        assert!(
            (total_c - bl.c_total_f()).abs() / bl.c_total_f() < 1e-12,
            "{total_c} vs {}",
            bl.c_total_f()
        );
    }

    #[test]
    fn signal_signal_coupling_emitted_between_adjacent_signals() {
        // A stack where BL and BLB are adjacent (no rail between).
        let drawn = TrackStack::new(vec![
            Track::new("BL", Nm(0), Nm(26), Nm(0), Nm(1300)).unwrap(),
            Track::new("BLB", Nm(48), Nm(26), Nm(0), Nm(1300)).unwrap(),
        ])
        .unwrap();
        let printed = apply_draw(&drawn, &Draw::nominal(PatterningOption::Euv)).unwrap();
        let deck = emit_rc_deck(
            &printed,
            &spec(),
            &RcDeckSpec {
                segments: 3,
                ..RcDeckSpec::default()
            },
        )
        .unwrap();
        let coupling_caps = deck
            .netlist()
            .elements()
            .iter()
            .filter(|e| e.name().starts_with("Cc_BL_BLB"))
            .count();
        assert_eq!(coupling_caps, 4); // one per tap
    }

    #[test]
    fn deck_simulates_as_rc_line() {
        // Drive tap 0 of BL with a step through a source resistor and
        // check the far end settles; wave propagation sanity.
        let stack = printed_stack();
        let s = spec();
        let mut deck = emit_rc_deck(
            &stack,
            &s,
            &RcDeckSpec {
                segments: 8,
                ..RcDeckSpec::default()
            },
        )
        .unwrap();
        let near = deck.tap("BL", 0).unwrap();
        let far = deck.tap("BL", 8).unwrap();
        let vin = deck.netlist_mut().node("vin");
        deck.netlist_mut()
            .add_vsource(
                "VIN",
                vin,
                Netlist::GROUND,
                mpvar_spice::Waveform::pulse(0.0, 0.7, 0.0, 1e-12, 1e-12, 1.0, 0.0).unwrap(),
            )
            .unwrap();
        deck.netlist_mut()
            .add_resistor("RSRC", vin, near, 1e3)
            .unwrap();
        let tran = Transient::new(deck.netlist()).unwrap();
        let r = tran.run(1e-13, 2e-10).unwrap();
        let v_far = r.sample(far, 2e-10).unwrap();
        assert!(v_far > 0.65, "far end charged: {v_far}");
        // Far end lags the near end early on.
        let v_near_early = r.sample(near, 2e-13).unwrap();
        let v_far_early = r.sample(far, 2e-13).unwrap();
        assert!(v_near_early >= v_far_early);
    }

    #[test]
    fn zero_segments_rejected() {
        let r = emit_rc_deck(
            &printed_stack(),
            &spec(),
            &RcDeckSpec {
                segments: 0,
                ..RcDeckSpec::default()
            },
        );
        assert!(matches!(r, Err(ExtractError::ZeroSegments)));
    }

    #[test]
    fn custom_rail_prefixes() {
        let deck_spec = RcDeckSpec {
            segments: 2,
            rail_prefixes: vec!["BLB".into(), "VSS".into(), "VDD".into()],
        };
        let deck = emit_rc_deck(&printed_stack(), &spec(), &deck_spec).unwrap();
        // BLB is now a rail: only BL gets a ladder.
        assert!(deck.tap("BL", 0).is_some());
        assert!(deck.tap("BLB", 0).is_none());
    }
}
