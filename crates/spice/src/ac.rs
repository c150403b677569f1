//! AC small-signal analysis.
//!
//! Linearizes the circuit at its DC operating point and solves the
//! complex MNA system `(G + jωC) x = b` across a frequency sweep. The
//! complex system is solved through its real-equivalent form
//!
//! ```text
//! [ G  -ωC ] [x_re]   [b_re]
//! [ ωC   G ] [x_im] = [b_im]
//! ```
//!
//! which reuses the compiled sparse real solver. MOSFETs are stamped as their
//! (gm, gds) linearization at the operating point; capacitors become
//! susceptances; independent sources are AC grounds unless given an AC
//! magnitude via [`AcAnalysis::set_ac_magnitude`].

use std::collections::HashMap;

use crate::complex::Complex;
use crate::error::SpiceError;
use crate::mna::{CompiledLu, MatrixSink, NewtonStats, OperatingPoint, StampRecorder, GMIN};
use crate::netlist::{Element, Netlist, NodeId};

/// A configured AC sweep over a netlist.
#[derive(Debug, Clone)]
pub struct AcAnalysis<'a> {
    net: &'a Netlist,
    ac_magnitudes: HashMap<String, f64>,
}

impl<'a> AcAnalysis<'a> {
    /// Prepares an AC analysis.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidAnalysis`] for an empty netlist.
    pub fn new(net: &'a Netlist) -> Result<Self, SpiceError> {
        if net.elements().is_empty() {
            return Err(SpiceError::InvalidAnalysis {
                message: "netlist has no elements".into(),
            });
        }
        Ok(Self {
            net,
            ac_magnitudes: HashMap::new(),
        })
    }

    /// Marks a V or I source as the AC stimulus with the given
    /// magnitude (phase 0). Unmarked sources are AC short/open circuits.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] when the element does not exist or
    /// is not an independent source.
    pub fn set_ac_magnitude(&mut self, source: &str, magnitude: f64) -> Result<(), SpiceError> {
        match self.net.element(source) {
            Some(Element::VSource { .. }) | Some(Element::ISource { .. }) => {
                self.ac_magnitudes.insert(source.to_string(), magnitude);
                Ok(())
            }
            Some(_) => Err(SpiceError::InvalidValue {
                element: source.to_string(),
                message: "AC magnitude applies only to V/I sources".into(),
            }),
            None => Err(SpiceError::InvalidValue {
                element: source.to_string(),
                message: "no such element".into(),
            }),
        }
    }

    /// Runs the sweep at the given frequencies (Hz).
    ///
    /// # Errors
    ///
    /// * [`SpiceError::InvalidAnalysis`] for an empty or non-finite /
    ///   negative frequency list;
    /// * DC-operating-point or solver failures.
    pub fn sweep(&self, frequencies: &[f64]) -> Result<AcResult, SpiceError> {
        if frequencies.is_empty() {
            return Err(SpiceError::InvalidAnalysis {
                message: "frequency list is empty".into(),
            });
        }
        if frequencies.iter().any(|f| !f.is_finite() || *f < 0.0) {
            return Err(SpiceError::InvalidAnalysis {
                message: "frequencies must be finite and non-negative".into(),
            });
        }

        let net = self.net;
        let op = OperatingPoint::solve(net)?;
        let nn = net.num_nodes();
        let m = nn - 1 + net.num_vsources();

        let mut result = AcResult {
            frequencies: frequencies.to_vec(),
            phasors: vec![vec![Complex::ZERO; frequencies.len()]; nn],
            node_names: (0..nn)
                .map(|i| net.node_name(NodeId(i)).to_string())
                .collect(),
        };

        // The real-equivalent stamp stream is structural — susceptance
        // stamps are recorded even at ω = 0, where their value is zero —
        // so one compiled pattern and one symbolic analysis serve the
        // whole sweep; only the numeric refactor runs per frequency.
        let mut stats = NewtonStats::default();
        let mut lu = CompiledLu::default();
        let mut rhs = vec![0.0; 2 * m];
        let mut x = Vec::new();
        for (fi, &f) in frequencies.iter().enumerate() {
            let omega = 2.0 * std::f64::consts::PI * f;
            rhs.fill(0.0);
            if let Some(mut rep) = lu.replayer() {
                self.assemble(&op, omega, m, &mut rep, &mut rhs);
                rep.finish();
            } else {
                let mut rec = StampRecorder::default();
                self.assemble(&op, omega, m, &mut rec, &mut rhs);
                lu.compile(2 * m, rec);
            }
            if let Err(e) = lu.factor(&mut stats) {
                stats.emit();
                return Err(e);
            }
            lu.solve_into(&rhs, &mut x);
            for node in 1..nn {
                result.phasors[node][fi] = Complex::new(x[node - 1], x[m + node - 1]);
            }
        }
        stats.emit();
        Ok(result)
    }

    /// Assembles the real-equivalent `2m x 2m` system at `omega` into
    /// `a` and the caller-zeroed `rhs`. The sequence of `add` calls
    /// depends only on topology, never on `omega` or device values.
    fn assemble<S: MatrixSink>(
        &self,
        op: &OperatingPoint,
        omega: f64,
        m: usize,
        a: &mut S,
        rhs: &mut [f64],
    ) {
        let net = self.net;
        let nn = net.num_nodes();

        let idx = |node: NodeId| -> Option<usize> {
            if node.is_ground() {
                None
            } else {
                Some(node.index() - 1)
            }
        };
        // Conductance pattern into both diagonal blocks.
        let stamp_g = |a: &mut S, i: Option<usize>, j: Option<usize>, g: f64| {
            if let (Some(i), Some(j)) = (i, j) {
                a.add(i, j, g);
                a.add(m + i, m + j, g);
            }
        };
        // Susceptance pattern into the off-diagonal blocks.
        let stamp_b = |a: &mut S, i: Option<usize>, j: Option<usize>, b: f64| {
            if let (Some(i), Some(j)) = (i, j) {
                a.add(i, m + j, -b);
                a.add(m + i, j, b);
            }
        };

        for node in 1..nn {
            let i = Some(node - 1);
            stamp_g(a, i, i, GMIN);
        }

        let mut vsrc = 0usize;
        for e in net.elements() {
            match e {
                Element::Resistor {
                    a: na, b: nb, ohms, ..
                } => {
                    two_terminal(idx(*na), idx(*nb), 1.0 / ohms, |i, j, y| {
                        stamp_g(a, i, j, y);
                    });
                }
                Element::Capacitor {
                    a: na,
                    b: nb,
                    farads,
                    ..
                } => {
                    two_terminal(idx(*na), idx(*nb), omega * farads, |i, j, y| {
                        stamp_b(a, i, j, y);
                    });
                }
                Element::VSource { name, p, n, .. } => {
                    let row = nn - 1 + vsrc;
                    for (node, sign) in [(p, 1.0), (n, -1.0)] {
                        if let Some(i) = idx(*node) {
                            a.add(i, row, sign);
                            a.add(row, i, sign);
                            a.add(m + i, m + row, sign);
                            a.add(m + row, m + i, sign);
                        }
                    }
                    rhs[row] = self.ac_magnitudes.get(name).copied().unwrap_or(0.0);
                    vsrc += 1;
                }
                Element::ISource { name, p, n, .. } => {
                    let mag = self.ac_magnitudes.get(name).copied().unwrap_or(0.0);
                    if mag != 0.0 {
                        if let Some(i) = idx(*p) {
                            rhs[i] -= mag;
                        }
                        if let Some(i) = idx(*n) {
                            rhs[i] += mag;
                        }
                    }
                }
                Element::Mosfet { d, g, s, model, .. } => {
                    let vgs = op.voltage(*g) - op.voltage(*s);
                    let vds = op.voltage(*d) - op.voltage(*s);
                    let ss = model.evaluate(vgs, vds);
                    let (di, gi, si) = (idx(*d), idx(*g), idx(*s));
                    // id = gm vgs + gds vds around the OP.
                    stamp_g(a, di, di, ss.gds);
                    stamp_g(a, di, gi, ss.gm);
                    stamp_g(a, di, si, -(ss.gm + ss.gds));
                    stamp_g(a, si, si, ss.gm + ss.gds);
                    stamp_g(a, si, gi, -ss.gm);
                    stamp_g(a, si, di, -ss.gds);
                }
            }
        }
    }
}

/// Stamps a two-terminal admittance `y` between `p` and `q` (either may
/// be ground) through `stamp`.
fn two_terminal(
    p: Option<usize>,
    q: Option<usize>,
    y: f64,
    mut stamp: impl FnMut(Option<usize>, Option<usize>, f64),
) {
    stamp(p, p, y);
    stamp(q, q, y);
    stamp(p, q, -y);
    stamp(q, p, -y);
}

/// Phasor results of an AC sweep.
#[derive(Debug, Clone)]
pub struct AcResult {
    frequencies: Vec<f64>,
    phasors: Vec<Vec<Complex>>,
    node_names: Vec<String>,
}

impl AcResult {
    /// The swept frequencies, Hz.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// The phasor of `node` at sweep point `i`.
    ///
    /// # Panics
    ///
    /// Panics when the node or index is out of range.
    pub fn phasor(&self, node: NodeId, i: usize) -> Complex {
        self.phasors[node.index()][i]
    }

    /// All phasors of one node across the sweep.
    ///
    /// # Panics
    ///
    /// Panics when the node is out of range.
    pub fn phasors(&self, node: NodeId) -> &[Complex] {
        &self.phasors[node.index()]
    }

    /// `(frequency, |V| in dB, phase in degrees)` triples for one node.
    ///
    /// # Panics
    ///
    /// Panics when the node is out of range.
    pub fn bode(&self, node: NodeId) -> Vec<(f64, f64, f64)> {
        self.frequencies
            .iter()
            .zip(&self.phasors[node.index()])
            .map(|(&f, z)| (f, z.db(), z.arg_deg()))
            .collect()
    }

    /// The −3dB corner frequency of `node` relative to its
    /// lowest-frequency magnitude, by log-linear interpolation.
    ///
    /// # Errors
    ///
    /// [`SpiceError::MeasurementNotFound`] when the response never falls
    /// 3dB within the sweep.
    pub fn corner_frequency(&self, node: NodeId) -> Result<f64, SpiceError> {
        let mags = &self.phasors[node.index()];
        let reference = mags[0].abs();
        let target = reference / std::f64::consts::SQRT_2;
        for i in 1..mags.len() {
            let (m0, m1) = (mags[i - 1].abs(), mags[i].abs());
            if m0 > target && m1 <= target {
                let (f0, f1) = (self.frequencies[i - 1], self.frequencies[i]);
                // Log-log interpolation.
                let t = (m0.ln() - target.ln()) / (m0.ln() - m1.ln());
                return Ok((f0.ln() + t * (f1.ln() - f0.ln())).exp());
            }
        }
        Err(SpiceError::MeasurementNotFound {
            message: format!(
                "node `{}` never fell 3dB within the sweep",
                self.node_names[node.index()]
            ),
        })
    }

    /// Generates `count` logarithmically spaced frequencies over
    /// `[f_start, f_stop]` — the usual sweep grid.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidAnalysis`] for bad bounds or `count < 2`.
    pub fn log_frequencies(
        f_start: f64,
        f_stop: f64,
        count: usize,
    ) -> Result<Vec<f64>, SpiceError> {
        let valid = f_start > 0.0 && f_stop > f_start && count >= 2;
        if !valid {
            return Err(SpiceError::InvalidAnalysis {
                message: format!(
                    "need 0 < f_start < f_stop and count >= 2, got [{f_start}, {f_stop}] x {count}"
                ),
            });
        }
        let (l0, l1) = (f_start.ln(), f_stop.ln());
        Ok((0..count)
            .map(|i| (l0 + (l1 - l0) * i as f64 / (count - 1) as f64).exp())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waveform::Waveform;

    fn rc_lowpass(r: f64, c: f64) -> (Netlist, NodeId) {
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let out = net.node("out");
        net.add_vsource("VIN", vin, Netlist::GROUND, Waveform::dc(0.0))
            .unwrap();
        net.add_resistor("R1", vin, out, r).unwrap();
        net.add_capacitor("C1", out, Netlist::GROUND, c).unwrap();
        (net, out)
    }

    #[test]
    fn rc_lowpass_corner_and_phase() {
        let r = 10e3;
        let c = 100e-15;
        let fc = 1.0 / (2.0 * std::f64::consts::PI * r * c); // ~159 MHz
        let (net, out) = rc_lowpass(r, c);
        let mut ac = AcAnalysis::new(&net).unwrap();
        ac.set_ac_magnitude("VIN", 1.0).unwrap();
        let freqs = AcResult::log_frequencies(1e6, 1e11, 101).unwrap();
        let result = ac.sweep(&freqs).unwrap();

        // Passband gain ~ 1.
        assert!((result.phasor(out, 0).abs() - 1.0).abs() < 1e-3);
        // Corner frequency within 5%.
        let measured_fc = result.corner_frequency(out).unwrap();
        assert!(
            (measured_fc / fc - 1.0).abs() < 0.05,
            "fc {measured_fc:.3e} vs {fc:.3e}"
        );
        // Phase at the corner ~ -45 degrees.
        let i_near = freqs
            .iter()
            .position(|&f| f >= fc)
            .expect("sweep covers fc");
        let phase = result.phasor(out, i_near).arg_deg();
        assert!((-55.0..=-35.0).contains(&phase), "phase {phase}");
        // Far above the corner: -20 dB/decade.
        let bode = result.bode(out);
        let hi = bode.len() - 1;
        let slope = (bode[hi].1 - bode[hi - 10].1) / (bode[hi].0.log10() - bode[hi - 10].0.log10());
        assert!((slope + 20.0).abs() < 1.0, "slope {slope}");
    }

    #[test]
    fn dc_point_of_sweep_matches_resistive_divider() {
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let out = net.node("out");
        net.add_vsource("VIN", vin, Netlist::GROUND, Waveform::dc(0.0))
            .unwrap();
        net.add_resistor("R1", vin, out, 1e3).unwrap();
        net.add_resistor("R2", out, Netlist::GROUND, 3e3).unwrap();
        let mut ac = AcAnalysis::new(&net).unwrap();
        ac.set_ac_magnitude("VIN", 2.0).unwrap();
        let result = ac.sweep(&[0.0, 1e6]).unwrap();
        for i in 0..2 {
            let z = result.phasor(out, i);
            // GMIN perturbs the divider at the 1e-9 level.
            assert!((z.re - 1.5).abs() < 1e-6, "gain {z}");
            assert!(z.im.abs() < 1e-9);
        }
    }

    #[test]
    fn sweep_from_dc_matches_dense_oracle_per_frequency() {
        use crate::mosfet::MosfetModel;
        use crate::sparse::DenseMatrix;
        use mpvar_tech::preset::n10;
        // A common-source stage driving a three-segment RC ladder with a
        // coupling capacitor across it.
        let tech = n10();
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let gate = net.node("gate");
        let out = net.node("out");
        net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net.add_vsource("VG", gate, Netlist::GROUND, Waveform::dc(0.45))
            .unwrap();
        net.add_resistor("RL", vdd, out, 50e3).unwrap();
        net.add_mosfet(
            "M1",
            out,
            gate,
            Netlist::GROUND,
            MosfetModel::new(*tech.nmos()),
        )
        .unwrap();
        let mut prev = out;
        let mut ladder = Vec::new();
        for k in 1..=3 {
            let node = net.node(&format!("n{k}"));
            net.add_resistor(&format!("R{k}"), prev, node, 1e3).unwrap();
            net.add_capacitor(&format!("C{k}"), node, Netlist::GROUND, 10e-15)
                .unwrap();
            ladder.push(node);
            prev = node;
        }
        net.add_capacitor("CC", ladder[0], ladder[2], 2e-15)
            .unwrap();

        let mut ac = AcAnalysis::new(&net).unwrap();
        ac.set_ac_magnitude("VG", 1.0).unwrap();
        let mut freqs = vec![0.0];
        freqs.extend(AcResult::log_frequencies(1e6, 1e12, 13).unwrap());
        let result = ac.sweep(&freqs).unwrap();

        let op = OperatingPoint::solve(&net).unwrap();
        let nn = net.num_nodes();
        let m = nn - 1 + net.num_vsources();
        for (fi, &f) in freqs.iter().enumerate() {
            let mut dense = DenseMatrix::new(2 * m);
            let mut rhs = vec![0.0; 2 * m];
            ac.assemble(&op, 2.0 * std::f64::consts::PI * f, m, &mut dense, &mut rhs);
            let x = dense.solve(&rhs).unwrap();
            let scale = x.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            for node in 1..nn {
                let z = result.phasor(NodeId(node), fi);
                let (re, im) = (x[node - 1], x[m + node - 1]);
                assert!(
                    (z.re - re).abs() <= 1e-9 * scale && (z.im - im).abs() <= 1e-9 * scale,
                    "f = {f:e}, node {node}: {z} vs {re} + {im}j"
                );
            }
        }
        // The ladder's far end rolls off: the sweep is not trivially flat.
        let far = result.phasors(ladder[2]);
        assert!(far[freqs.len() - 1].abs() < 0.1 * far[0].abs());
    }

    #[test]
    fn unmarked_sources_are_ac_ground() {
        // Two sources; only one carries AC. The divider from the AC one
        // must see the DC one as ground.
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        let mid = net.node("mid");
        net.add_vsource("VA", a, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net.add_vsource("VB", b, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net.add_resistor("R1", a, mid, 1e3).unwrap();
        net.add_resistor("R2", mid, b, 1e3).unwrap();
        let mut ac = AcAnalysis::new(&net).unwrap();
        ac.set_ac_magnitude("VA", 1.0).unwrap();
        let result = ac.sweep(&[1e6]).unwrap();
        assert!((result.phasor(mid, 0).abs() - 0.5).abs() < 1e-9);
        assert!(result.phasor(b, 0).abs() < 1e-9);
    }

    #[test]
    fn mosfet_common_source_gain() {
        use crate::mosfet::MosfetModel;
        use mpvar_tech::preset::n10;
        // Common-source stage: gain = -gm * (RL || ro).
        let tech = n10();
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let gate = net.node("gate");
        let out = net.node("out");
        net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net.add_vsource("VG", gate, Netlist::GROUND, Waveform::dc(0.45))
            .unwrap();
        net.add_resistor("RL", vdd, out, 50e3).unwrap();
        net.add_mosfet(
            "M1",
            out,
            gate,
            Netlist::GROUND,
            MosfetModel::new(*tech.nmos()),
        )
        .unwrap();
        let mut ac = AcAnalysis::new(&net).unwrap();
        ac.set_ac_magnitude("VG", 1.0).unwrap();
        let result = ac.sweep(&[1e6]).unwrap();
        let gain = result.phasor(out, 0);
        // Inverting gain above 1 for a healthy stage.
        assert!(gain.re < -1.0, "gain {gain}");
        assert!(gain.im.abs() < 1e-6, "resistive at low frequency");
    }

    #[test]
    fn current_source_ac_stimulus() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.add_isource("I1", Netlist::GROUND, a, Waveform::dc(0.0))
            .unwrap();
        net.add_resistor("R1", a, Netlist::GROUND, 2e3).unwrap();
        let mut ac = AcAnalysis::new(&net).unwrap();
        ac.set_ac_magnitude("I1", 1e-3).unwrap();
        let result = ac.sweep(&[1e3]).unwrap();
        assert!((result.phasor(a, 0).abs() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn validation_errors() {
        let (net, _) = rc_lowpass(1e3, 1e-15);
        let mut ac = AcAnalysis::new(&net).unwrap();
        assert!(ac.set_ac_magnitude("R1", 1.0).is_err());
        assert!(ac.set_ac_magnitude("nope", 1.0).is_err());
        ac.set_ac_magnitude("VIN", 1.0).unwrap();
        assert!(ac.sweep(&[]).is_err());
        assert!(ac.sweep(&[-1.0]).is_err());
        assert!(ac.sweep(&[f64::NAN]).is_err());
        assert!(AcResult::log_frequencies(0.0, 1e9, 10).is_err());
        assert!(AcResult::log_frequencies(1e9, 1e6, 10).is_err());
        assert!(AcResult::log_frequencies(1e6, 1e9, 1).is_err());

        let empty = Netlist::new();
        assert!(AcAnalysis::new(&empty).is_err());
    }

    #[test]
    fn log_frequencies_are_geometric() {
        let f = AcResult::log_frequencies(1e3, 1e6, 4).unwrap();
        assert_eq!(f.len(), 4);
        assert!((f[0] - 1e3).abs() < 1e-6);
        assert!((f[3] - 1e6).abs() < 1e-3);
        let r1 = f[1] / f[0];
        let r2 = f[2] / f[1];
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn corner_not_found_reported() {
        // Pure resistive network: no 3dB fall.
        let mut net = Netlist::new();
        let a = net.node("a");
        net.add_vsource("V1", a, Netlist::GROUND, Waveform::dc(0.0))
            .unwrap();
        net.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
        let mut ac = AcAnalysis::new(&net).unwrap();
        ac.set_ac_magnitude("V1", 1.0).unwrap();
        let r = ac.sweep(&[1e3, 1e6, 1e9]).unwrap();
        assert!(matches!(
            r.corner_frequency(a),
            Err(SpiceError::MeasurementNotFound { .. })
        ));
    }
}
