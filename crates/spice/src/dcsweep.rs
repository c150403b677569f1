//! DC sweep analysis: operating points across a swept source value.
//!
//! Sweeps one independent voltage source through a list of values,
//! solving the nonlinear DC operating point at each step with
//! warm-starting (the previous solution seeds the next Newton solve) —
//! the standard way to trace transfer curves such as the 6T cell's
//! butterfly plot.

use crate::error::SpiceError;
use crate::mna::{solve_nonlinear_ws, system_size, MnaWorkspace, OperatingPoint, ReactivePolicy};
use crate::netlist::{Element, Netlist, NodeId};
use crate::waveform::Waveform;

/// Result of a DC sweep: one operating point per swept value.
#[derive(Debug, Clone)]
pub struct DcSweepResult {
    values: Vec<f64>,
    points: Vec<OperatingPoint>,
}

impl DcSweepResult {
    /// The swept source values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The operating point at sweep index `i`.
    ///
    /// # Panics
    ///
    /// Panics when `i` is out of range.
    pub fn point(&self, i: usize) -> &OperatingPoint {
        &self.points[i]
    }

    /// The voltage of `node` across the sweep (the transfer curve).
    pub fn transfer(&self, node: NodeId) -> Vec<f64> {
        self.points.iter().map(|op| op.voltage(node)).collect()
    }

    /// Number of sweep points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when the sweep is empty (never for a successful run).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Sweeps the voltage source named `source` through `values`, returning
/// the operating point at each value.
///
/// The source's waveform is overridden per point; the rest of the
/// circuit keeps its `t = 0` source values.
///
/// # Errors
///
/// * [`SpiceError::InvalidValue`] when `source` is not a voltage source;
/// * [`SpiceError::InvalidAnalysis`] for an empty or non-finite value
///   list;
/// * Newton/solver failures at any sweep point.
///
/// # Example
///
/// ```
/// use mpvar_spice::prelude::*;
/// use mpvar_spice::dcsweep::dc_sweep;
///
/// // A resistive divider: out = vin / 2 at every sweep point.
/// let mut net = Netlist::new();
/// let vin = net.node("vin");
/// let out = net.node("out");
/// net.add_vsource("VIN", vin, Netlist::GROUND, Waveform::dc(0.0))?;
/// net.add_resistor("R1", vin, out, 10e3)?;
/// net.add_resistor("R2", out, Netlist::GROUND, 10e3)?;
/// let sweep = dc_sweep(&net, "VIN", &[0.0, 0.35, 0.7])?;
/// let curve = sweep.transfer(out);
/// assert!((curve[2] - 0.35).abs() < 1e-6);
/// # Ok::<(), mpvar_spice::SpiceError>(())
/// ```
pub fn dc_sweep(net: &Netlist, source: &str, values: &[f64]) -> Result<DcSweepResult, SpiceError> {
    match net.element(source) {
        Some(Element::VSource { .. }) => {}
        Some(_) => {
            return Err(SpiceError::InvalidValue {
                element: source.to_string(),
                message: "dc sweep requires an independent voltage source".into(),
            })
        }
        None => {
            return Err(SpiceError::InvalidValue {
                element: source.to_string(),
                message: "no such element".into(),
            })
        }
    }
    if values.is_empty() {
        return Err(SpiceError::InvalidAnalysis {
            message: "sweep value list is empty".into(),
        });
    }
    if values.iter().any(|v| !v.is_finite()) {
        return Err(SpiceError::InvalidAnalysis {
            message: "sweep values must be finite".into(),
        });
    }

    // Clone the netlist so the swept source can be rewritten per point.
    let mut working = net.clone();
    let mut x = vec![0.0; system_size(net)];
    let mut points = Vec::with_capacity(values.len());
    let mut stats = crate::mna::NewtonStats::default();
    // One compiled workspace across the whole sweep: rewriting the
    // source only changes stamp *values*, never the matrix structure,
    // so the symbolic analysis from the first point is reused by all
    // later points.
    let mut ws = MnaWorkspace::new(&working);

    for &v in values {
        set_vsource_dc(&mut working, source, v);
        let solved = solve_nonlinear_ws(&working, 0.0, ReactivePolicy::Dc, x, &mut stats, &mut ws);
        x = match solved {
            Ok(x) => x,
            Err(e) => {
                stats.emit();
                return Err(e);
            }
        };
        points.push(OperatingPoint::from_solution(&working, &x));
    }
    stats.emit();

    Ok(DcSweepResult {
        values: values.to_vec(),
        points,
    })
}

fn set_vsource_dc(net: &mut Netlist, name: &str, value: f64) {
    if let Some(Element::VSource { waveform, .. }) = net.element_mut(name) {
        *waveform = Waveform::dc(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::MosfetModel;
    use mpvar_tech::preset::n10;

    #[test]
    fn divider_transfer_is_linear() {
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let out = net.node("out");
        net.add_vsource("VIN", vin, Netlist::GROUND, Waveform::dc(0.0))
            .unwrap();
        net.add_resistor("R1", vin, out, 1e3).unwrap();
        net.add_resistor("R2", out, Netlist::GROUND, 3e3).unwrap();
        let values: Vec<f64> = (0..8).map(|k| 0.1 * k as f64).collect();
        let sweep = dc_sweep(&net, "VIN", &values).unwrap();
        assert_eq!(sweep.len(), 8);
        for (i, &v) in values.iter().enumerate() {
            assert!((sweep.point(i).voltage(out) - 0.75 * v).abs() < 1e-6);
        }
    }

    #[test]
    fn nmos_inverter_vtc_is_monotone_decreasing() {
        let tech = n10();
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let gate = net.node("gate");
        let out = net.node("out");
        net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net.add_vsource("VG", gate, Netlist::GROUND, Waveform::dc(0.0))
            .unwrap();
        net.add_resistor("RL", vdd, out, 100e3).unwrap();
        net.add_mosfet(
            "M1",
            out,
            gate,
            Netlist::GROUND,
            MosfetModel::new(*tech.nmos()),
        )
        .unwrap();
        let values: Vec<f64> = (0..=14).map(|k| 0.05 * k as f64).collect();
        let sweep = dc_sweep(&net, "VG", &values).unwrap();
        let vtc = sweep.transfer(out);
        for w in vtc.windows(2) {
            assert!(w[1] <= w[0] + 1e-9, "VTC must fall: {w:?}");
        }
        assert!(vtc[0] > 0.65, "off: {}", vtc[0]);
        assert!(*vtc.last().unwrap() < 0.2, "on: {}", vtc.last().unwrap());
    }

    #[test]
    fn warm_start_survives_sharp_transitions() {
        // CMOS-style inverter with a PMOS: the sharpest DC transition we
        // can build; every sweep point must converge.
        let tech = n10();
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let gate = net.node("gate");
        let out = net.node("out");
        net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net.add_vsource("VG", gate, Netlist::GROUND, Waveform::dc(0.0))
            .unwrap();
        net.add_mosfet("MP", out, gate, vdd, MosfetModel::new(*tech.pmos()))
            .unwrap();
        net.add_mosfet(
            "MN",
            out,
            gate,
            Netlist::GROUND,
            MosfetModel::new(*tech.nmos()),
        )
        .unwrap();
        let values: Vec<f64> = (0..=70).map(|k| 0.01 * k as f64).collect();
        let sweep = dc_sweep(&net, "VG", &values).unwrap();
        let vtc = sweep.transfer(out);
        assert!(vtc[0] > 0.65);
        assert!(*vtc.last().unwrap() < 0.05);
        // Transition happens somewhere in the middle.
        let mid = vtc.iter().position(|&v| v < 0.35).unwrap();
        assert!(mid > 20 && mid < 60, "switch at index {mid}");
    }

    #[test]
    fn validation() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
        assert!(dc_sweep(&net, "R1", &[0.0]).is_err());
        assert!(dc_sweep(&net, "VX", &[0.0]).is_err());
        net.add_vsource("V1", a, Netlist::GROUND, Waveform::dc(0.0))
            .unwrap();
        assert!(dc_sweep(&net, "V1", &[]).is_err());
        assert!(dc_sweep(&net, "V1", &[f64::NAN]).is_err());
        assert!(dc_sweep(&net, "V1", &[0.1, 0.2]).is_ok());
    }
}
