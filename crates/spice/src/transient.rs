//! Transient analysis: backward-Euler and trapezoidal integration on a
//! fixed step grid.
//!
//! Each step solves the nonlinear companion system with Newton iteration
//! on a per-analysis `MnaWorkspace` (crate-internal): the stamp program and symbolic LU
//! analysis are compiled on the first solve and reused by every later
//! iteration and step (numeric-only refactors). For linear circuits with
//! a fixed step the companion matrix is constant, so it is factored once
//! and only back-substitution runs per step — this is what makes
//! 1024-cell bit-line ladders cheap to sweep.
//!
//! Initial conditions: by default, a DC operating point at `t = 0` seeds
//! the state. Setting any initial voltage via
//! [`Transient::set_initial_voltage`] switches to UIC mode ("use initial
//! conditions"): the state starts from exactly the given voltages
//! (unspecified nodes start at 0), the standard way to model a
//! precharged bit line without simulating the precharge phase.

use std::collections::HashMap;

use crate::error::SpiceError;
use crate::mna::{
    is_linear, row_of, solve_nonlinear_ws, system_size, Companion, MnaWorkspace, NewtonStats,
    OperatingPoint, ReactivePolicy,
};
use crate::netlist::{Element, Netlist, NodeId};

/// Integration method for the transient solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Method {
    /// First-order implicit Euler: robust, mildly dissipative.
    BackwardEuler,
    /// Second-order trapezoidal rule: accurate, the SPICE default.
    #[default]
    Trapezoidal,
}

/// The linear-algebra kernel behind the per-step solves. The compiled
/// CSR kernel is the only one: stamp-program assembly plus one symbolic
/// LU analysis reused by numeric-only refactors across every Newton
/// iteration and timestep. The enum remains because the
/// `examples/benchmark` solver probe names it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverKernel {
    /// The compiled CSR kernel.
    #[default]
    Compiled,
}

/// A configured transient analysis over a netlist.
///
/// See the crate-level example for an RC discharge run.
#[derive(Debug, Clone)]
pub struct Transient<'a> {
    net: &'a Netlist,
    method: Method,
    initial: HashMap<NodeId, f64>,
    uic: bool,
}

impl<'a> Transient<'a> {
    /// Prepares a transient analysis of `net`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidAnalysis`] if the netlist has no elements.
    pub fn new(net: &'a Netlist) -> Result<Self, SpiceError> {
        if net.elements().is_empty() {
            return Err(SpiceError::InvalidAnalysis {
                message: "netlist has no elements".into(),
            });
        }
        Ok(Self {
            net,
            method: Method::default(),
            initial: HashMap::new(),
            uic: false,
        })
    }

    /// Selects the integration method (default: trapezoidal).
    pub fn set_method(&mut self, method: Method) {
        self.method = method;
    }

    /// Sets an initial node voltage and switches to UIC mode.
    pub fn set_initial_voltage(&mut self, node: NodeId, volts: f64) {
        self.initial.insert(node, volts);
        self.uic = true;
    }

    /// Runs the analysis with fixed step `dt` until `t_stop` (inclusive
    /// of the final point). When `dt` does not divide `t_stop`, the
    /// final step is shortened to land exactly on `t_stop` — its
    /// companion model is built for the short step, so the waveform
    /// tail (and any threshold crossing in the last interval) is
    /// integrated over the actual interval, not a full `dt`.
    ///
    /// The same as [`Self::run_until`] with a stop that never fires.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::InvalidAnalysis`] for non-positive `dt`/`t_stop`
    ///   or an absurd step count (> 20 million);
    /// * [`SpiceError::SingularMatrix`] / [`SpiceError::NoConvergence`]
    ///   from the per-step solves.
    pub fn run(&self, dt: f64, t_stop: f64) -> Result<TransientResult, SpiceError> {
        self.run_until(dt, t_stop, |_| false)
    }

    /// Runs the analysis as [`Self::run`] does, but asks `stop` after
    /// every accepted step whether the record so far is enough, and
    /// ends the run after the first step for which it answers `true`.
    ///
    /// The step grid does not depend on `stop`: the record returned is
    /// a bit-identical prefix of what [`Self::run`] returns for the same
    /// `dt` and `t_stop`, since each step depends only on earlier ones.
    /// A measurement that reads nothing after the step where `stop`
    /// fired therefore gives the same answer on either record.
    ///
    /// # Errors
    ///
    /// As [`Self::run`], for the steps actually taken.
    pub fn run_until(
        &self,
        dt: f64,
        t_stop: f64,
        stop: impl FnMut(&TransientResult) -> bool,
    ) -> Result<TransientResult, SpiceError> {
        let _span = mpvar_trace::span!(
            mpvar_trace::names::SPAN_SPICE_TRANSIENT,
            dt = dt,
            t_stop = t_stop,
        );
        let mut stats = NewtonStats::default();
        let result = self.run_fixed(dt, t_stop, &mut stats, stop);
        stats.emit();
        if let Ok(r) = &result {
            mpvar_trace::counter_add(mpvar_trace::names::SPICE_TRANSIENTS, 1);
            // Accepted integration steps (the stored t = 0 point is not
            // a step).
            mpvar_trace::counter_add(
                mpvar_trace::names::SPICE_TRANSIENT_STEPS,
                r.len().saturating_sub(1) as u64,
            );
        }
        result
    }

    fn run_fixed(
        &self,
        dt: f64,
        t_stop: f64,
        stats: &mut NewtonStats,
        mut stop: impl FnMut(&TransientResult) -> bool,
    ) -> Result<TransientResult, SpiceError> {
        let grid = StepGrid::new(dt, t_stop)?;

        let net = self.net;
        let nn = net.num_nodes();
        let size = system_size(net);
        let linear = is_linear(net);
        let mut ws = MnaWorkspace::new(net);

        // --- Initial state -------------------------------------------------
        let mut node_v = vec![0.0; nn];
        let mut x = vec![0.0; size];
        // The next step's solution; swapped with `x` after each step.
        let mut x_new = Vec::with_capacity(size);
        if self.uic {
            for (&node, &v) in &self.initial {
                node_v[node.index()] = v;
                if !node.is_ground() {
                    x[node.index() - 1] = v;
                }
            }
        } else {
            let op = OperatingPoint::solve(net)?;
            node_v.copy_from_slice(op.voltages());
            x[..nn - 1].copy_from_slice(&node_v[1..nn]);
        }

        // Capacitor bookkeeping for the trapezoidal method.
        let caps: Vec<(NodeId, NodeId, f64)> = net
            .elements()
            .iter()
            .filter_map(|e| match e {
                Element::Capacitor { a, b, farads, .. } => Some((*a, *b, *farads)),
                _ => None,
            })
            .collect();
        let mut cap_i = vec![0.0; caps.len()];

        let mut result = TransientResult {
            times: Vec::new(),
            voltages: vec![Vec::new(); nn],
            node_names: (0..nn)
                .map(|i| net.node_name(NodeId(i)).to_string())
                .collect(),
        };
        result.push_state(0.0, &node_v);

        // For linear circuits the companion matrix depends only on the
        // (method phase, step size) pair: factor on change, then only
        // back-substitution runs per step. The final shortened step and
        // the one-off BE bootstrap under trapezoidal each refactor for
        // *their* step size — the companion of the nominal dt would be
        // wrong for them.
        let mut factored_for: Option<Companion> = None;

        for (t, rule) in grid.iter(self.method, self.uic) {
            let policy = ReactivePolicy::Step {
                rule,
                prev_v: &node_v,
                prev_ic: &cap_i,
            };
            if linear {
                // Linear fast path: replay the RHS assembly; refactor
                // only when the companion values changed.
                ws.assemble(net, t, policy, &x);
                if factored_for != Some(rule) {
                    ws.factor(stats)?;
                    factored_for = Some(rule);
                }
                ws.solve_into(&mut x_new);
            } else {
                // `x` is only the Newton guess from here on.
                solve_nonlinear_ws(net, t, policy, &mut x, &mut x_new, stats, &mut ws)?;
            }

            // Update capacitor currents (needed by trapezoidal memory),
            // using this step's actual size.
            let v_of = |node: NodeId, state: &[f64]| row_of(node).map_or(0.0, |r| state[r]);
            for (ci, &(a, b, c)) in caps.iter().enumerate() {
                let v_new = v_of(a, &x_new) - v_of(b, &x_new);
                let v_old = node_v[a.index()] - node_v[b.index()];
                cap_i[ci] = rule.current(c, v_new - v_old, cap_i[ci]);
            }

            node_v[1..nn].copy_from_slice(&x_new[..nn - 1]);
            std::mem::swap(&mut x, &mut x_new);
            result.push_state(t, &node_v);
            if stop(&result) {
                break;
            }
        }

        Ok(result)
    }
}

/// The fixed step grid both transient solvers walk, scalar and batched.
///
/// Step `k` of `steps` ends at `k·dt`, except the last, which lands
/// exactly on `t_stop`: when `dt` does not divide `t_stop` the final
/// step is shortened (integrating a full `dt` but stamping the sample
/// at `t_stop` would corrupt the waveform tail), and a degenerate
/// sliver that `ceil` made out of rounding (`t_stop/dt` just past an
/// integer) is folded into the step before it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepGrid {
    dt: f64,
    t_stop: f64,
    steps: usize,
}

impl StepGrid {
    /// The grid of `dt` steps up to `t_stop`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidAnalysis`] for non-positive `dt`/`t_stop`
    /// or more than 20 million steps.
    pub(crate) fn new(dt: f64, t_stop: f64) -> Result<Self, SpiceError> {
        if !(dt > 0.0 && t_stop > 0.0) {
            return Err(SpiceError::InvalidAnalysis {
                message: format!("dt ({dt}) and t_stop ({t_stop}) must be positive"),
            });
        }
        let mut steps = (t_stop / dt).ceil() as usize;
        if steps > 20_000_000 {
            return Err(SpiceError::InvalidAnalysis {
                message: format!("{steps} steps requested; raise dt or lower t_stop"),
            });
        }
        if steps > 1 && t_stop - (steps - 1) as f64 * dt <= dt * 1e-9 {
            steps -= 1;
        }
        Ok(Self { dt, t_stop, steps })
    }

    /// Number of steps (the stored `t = 0` point is not one).
    pub(crate) fn steps(&self) -> usize {
        self.steps
    }

    /// Each step's end time and integration rule, in order. The rule
    /// spans the step's true length `t_k − t_{k−1}`. It is `method`'s,
    /// except that a trapezoidal run from initial conditions (`uic`)
    /// takes its first step with backward Euler: the trapezoidal rule
    /// needs consistent capacitor currents at the previous point, which
    /// are unknown at `t = 0`, and that step seeds them.
    pub(crate) fn iter(self, method: Method, uic: bool) -> impl Iterator<Item = (f64, Companion)> {
        let mut t_prev = 0.0f64;
        (1..=self.steps).map(move |k| {
            let t = if k == self.steps {
                self.t_stop
            } else {
                k as f64 * self.dt
            };
            let trap = method == Method::Trapezoidal && !(k == 1 && uic);
            let rule = Companion {
                trap,
                dt: t - t_prev,
            };
            t_prev = t;
            (t, rule)
        })
    }
}

/// Sampled node waveforms produced by [`Transient::run`], or the prefix
/// of them up to the step where [`Transient::run_until`] stopped.
#[derive(Debug, Clone)]
pub struct TransientResult {
    times: Vec<f64>,
    voltages: Vec<Vec<f64>>,
    node_names: Vec<String>,
}

impl TransientResult {
    fn push_state(&mut self, t: f64, node_v: &[f64]) {
        self.times.push(t);
        for (series, &v) in self.voltages.iter_mut().zip(node_v) {
            series.push(v);
        }
    }

    /// The sample time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The full waveform of one node.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated netlist.
    pub fn waveform(&self, node: NodeId) -> &[f64] {
        &self.voltages[node.index()]
    }

    /// Name of a node (for reports).
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the simulated netlist.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.index()]
    }

    /// Linearly interpolated voltage of `node` at time `t`.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidAnalysis`] when `t` lies outside the simulated
    /// window or is NaN.
    pub fn sample(&self, node: NodeId, t: f64) -> Result<f64, SpiceError> {
        let times = &self.times;
        if times.is_empty() || !(t >= times[0] && t <= *times.last().expect("nonempty")) {
            return Err(SpiceError::InvalidAnalysis {
                message: format!("sample time {t} outside simulated window"),
            });
        }
        let w = self.waveform(node);
        let pos = times.partition_point(|&x| x < t);
        if pos == 0 {
            return Ok(w[0]);
        }
        if times[pos - 1] == t {
            return Ok(w[pos - 1]);
        }
        let (t0, t1) = (times[pos - 1], times[pos]);
        let (v0, v1) = (w[pos - 1], w[pos]);
        Ok(v0 + (v1 - v0) * (t - t0) / (t1 - t0))
    }

    /// Number of stored time points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when no samples were stored (cannot happen for a
    /// successful run).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::MosfetModel;
    use crate::waveform::Waveform;
    use mpvar_tech::preset::n10;

    fn rc_discharge_error(method: Method, dt: f64) -> f64 {
        // 1k * 1pF discharge from 1V; compare to analytic at t = 2ns.
        let mut net = Netlist::new();
        let n1 = net.node("n1");
        net.add_resistor("R1", n1, Netlist::GROUND, 1e3).unwrap();
        net.add_capacitor("C1", n1, Netlist::GROUND, 1e-12).unwrap();
        let mut tran = Transient::new(&net).unwrap();
        tran.set_method(method);
        tran.set_initial_voltage(n1, 1.0);
        let r = tran.run(dt, 4e-9).unwrap();
        let sim = r.sample(n1, 2e-9).unwrap();
        let exact = (-2e-9f64 / 1e-9).exp();
        (sim - exact).abs()
    }

    #[test]
    fn rc_discharge_matches_analytic() {
        assert!(rc_discharge_error(Method::BackwardEuler, 1e-11) < 2e-3);
        assert!(rc_discharge_error(Method::Trapezoidal, 1e-11) < 1e-4);
    }

    #[test]
    fn trapezoidal_is_higher_order() {
        // Halving dt should cut BE error ~2x but trapezoidal ~4x.
        let be1 = rc_discharge_error(Method::BackwardEuler, 2e-11);
        let be2 = rc_discharge_error(Method::BackwardEuler, 1e-11);
        let tr1 = rc_discharge_error(Method::Trapezoidal, 2e-11);
        let tr2 = rc_discharge_error(Method::Trapezoidal, 1e-11);
        let be_order = (be1 / be2).log2();
        let tr_order = (tr1 / tr2).log2();
        assert!(be_order > 0.7 && be_order < 1.4, "BE order {be_order}");
        assert!(tr_order > 1.6, "trap order {tr_order}");
    }

    #[test]
    fn rc_charge_through_source() {
        // Step charge: V source through R into C, no UIC (DC start at 0V
        // because the pulse starts at 0).
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let out = net.node("out");
        net.add_vsource(
            "V1",
            vin,
            Netlist::GROUND,
            Waveform::pulse(0.0, 1.0, 0.0, 1e-12, 1e-12, 1.0, 0.0).unwrap(),
        )
        .unwrap();
        net.add_resistor("R1", vin, out, 10e3).unwrap();
        net.add_capacitor("C1", out, Netlist::GROUND, 100e-15)
            .unwrap();
        let tran = Transient::new(&net).unwrap();
        let r = tran.run(1e-11, 5e-9).unwrap();
        // tau = 1ns; at 1ns ~ 63.2%, at 5ns ~ 99.3%.
        let v1 = r.sample(out, 1e-9).unwrap();
        assert!((v1 - 0.632).abs() < 0.01, "v(1ns) = {v1}");
        let v5 = r.sample(out, 5e-9).unwrap();
        assert!(v5 > 0.99, "v(5ns) = {v5}");
    }

    #[test]
    fn energy_sanity_rc_never_exceeds_rail() {
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let out = net.node("out");
        net.add_vsource("V1", vin, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net.add_resistor("R1", vin, out, 1e3).unwrap();
        net.add_capacitor("C1", out, Netlist::GROUND, 10e-15)
            .unwrap();
        let tran = Transient::new(&net).unwrap();
        let r = tran.run(5e-12, 1e-9).unwrap();
        for &v in r.waveform(out) {
            assert!((-1e-9..=0.7 + 1e-6).contains(&v), "v = {v}");
        }
    }

    #[test]
    fn nmos_discharges_capacitor() {
        // Precharged cap pulled down through an NMOS switched on at 100ps.
        let tech = n10();
        let mut net = Netlist::new();
        let bl = net.node("bl");
        let wl = net.node("wl");
        net.add_capacitor("Cbl", bl, Netlist::GROUND, 2e-15)
            .unwrap();
        net.add_vsource(
            "VWL",
            wl,
            Netlist::GROUND,
            Waveform::pulse(0.0, 0.7, 100e-12, 10e-12, 10e-12, 1.0, 0.0).unwrap(),
        )
        .unwrap();
        net.add_mosfet(
            "M1",
            bl,
            wl,
            Netlist::GROUND,
            MosfetModel::new(*tech.nmos()),
        )
        .unwrap();
        let mut tran = Transient::new(&net).unwrap();
        tran.set_initial_voltage(bl, 0.7);
        let r = tran.run(1e-12, 2e-9).unwrap();
        let before = r.sample(bl, 90e-12).unwrap();
        let after = r.sample(bl, 2e-9).unwrap();
        assert!(before > 0.69, "held before WL: {before}");
        assert!(after < 0.1, "discharged after WL: {after}");
        // Monotone non-increasing discharge after the edge.
        let times = r.times().to_vec();
        let w = r.waveform(bl);
        for i in 1..times.len() {
            if times[i] > 120e-12 {
                assert!(w[i] <= w[i - 1] + 1e-6);
            }
        }
    }

    #[test]
    fn uic_holds_unspecified_nodes_at_zero() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.add_resistor("R1", a, b, 1e3).unwrap();
        net.add_capacitor("Ca", a, Netlist::GROUND, 1e-15).unwrap();
        net.add_capacitor("Cb", b, Netlist::GROUND, 1e-15).unwrap();
        let mut tran = Transient::new(&net).unwrap();
        tran.set_initial_voltage(a, 1.0);
        let r = tran.run(1e-13, 1e-11).unwrap();
        assert_eq!(r.sample(b, 0.0).unwrap(), 0.0);
        // Charge sharing drives both toward 0.5.
        let va = r.sample(a, 1e-11).unwrap();
        let vb = r.sample(b, 1e-11).unwrap();
        assert!(va < 1.0 && vb > 0.0 && (va - vb) < 1.0);
    }

    #[test]
    fn charge_conservation_in_charge_sharing() {
        // Two equal caps, one at 1V: final voltage 0.5V on both.
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.add_resistor("R1", a, b, 100.0).unwrap();
        net.add_capacitor("Ca", a, Netlist::GROUND, 1e-15).unwrap();
        net.add_capacitor("Cb", b, Netlist::GROUND, 1e-15).unwrap();
        let mut tran = Transient::new(&net).unwrap();
        tran.set_initial_voltage(a, 1.0);
        let r = tran.run(1e-14, 5e-12).unwrap();
        let va = r.sample(a, 5e-12).unwrap();
        let vb = r.sample(b, 5e-12).unwrap();
        assert!((va - 0.5).abs() < 0.01, "va = {va}");
        assert!((vb - 0.5).abs() < 0.01, "vb = {vb}");
    }

    #[test]
    fn invalid_configuration_rejected() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
        net.add_capacitor("C1", a, Netlist::GROUND, 1e-15).unwrap();
        let tran = Transient::new(&net).unwrap();
        assert!(tran.run(0.0, 1e-9).is_err());
        assert!(tran.run(1e-12, 0.0).is_err());
        assert!(tran.run(1e-18, 1.0).is_err()); // too many steps

        let empty = Netlist::new();
        assert!(Transient::new(&empty).is_err());
    }

    #[test]
    fn sample_bounds_checked() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
        net.add_capacitor("C1", a, Netlist::GROUND, 1e-15).unwrap();
        let tran = Transient::new(&net).unwrap();
        let r = tran.run(1e-12, 1e-10).unwrap();
        assert!(r.sample(a, -1e-12).is_err());
        assert!(r.sample(a, 2e-10).is_err());
        assert!(r.sample(a, f64::NAN).is_err());
        assert!(r.sample(a, 1e-10).is_ok());
        assert!(!r.is_empty());
        assert_eq!(r.node_name(a), "a");
    }

    /// An NMOS discharging a precharged cap after a gate edge: the
    /// Newton path, under UIC (BE bootstrap, then trapezoidal).
    fn gated_discharge() -> (Netlist, NodeId) {
        let tech = n10();
        let mut net = Netlist::new();
        let bl = net.node("bl");
        let gate = net.node("gate");
        net.add_vsource(
            "VG",
            gate,
            Netlist::GROUND,
            Waveform::pulse(0.0, 0.7, 20e-12, 10e-12, 10e-12, 1.0, 0.0).unwrap(),
        )
        .unwrap();
        net.add_capacitor("CBL", bl, Netlist::GROUND, 2e-15)
            .unwrap();
        net.add_mosfet(
            "M1",
            bl,
            gate,
            Netlist::GROUND,
            MosfetModel::new(*tech.nmos()),
        )
        .unwrap();
        (net, bl)
    }

    fn assert_prefix(stopped: &TransientResult, full: &TransientResult, nn: usize) {
        let k = stopped.len();
        assert!(k <= full.len());
        let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(stopped.times()), bits(&full.times()[..k]), "times");
        for i in 0..nn {
            let node = NodeId(i);
            assert_eq!(
                bits(stopped.waveform(node)),
                bits(&full.waveform(node)[..k]),
                "node {}",
                full.node_name(node)
            );
        }
    }

    #[test]
    fn run_until_returns_a_bit_identical_prefix_of_run() {
        let (net, bl) = gated_discharge();
        let mut tran = Transient::new(&net).unwrap();
        tran.set_initial_voltage(bl, 0.7);
        // 3 ps does not divide 200 ps: the 67th step is shortened.
        let (dt, t_stop) = (3e-12, 200e-12);
        let full = tran.run(dt, t_stop).unwrap();
        assert_eq!(full.len(), 68);
        let last_dt = full.times()[67] - full.times()[66];
        assert!(last_dt < dt * 0.9, "final step is shortened: {last_dt}");

        for k in [1, 2, 9, 40] {
            let mut calls = 0;
            let stopped = tran
                .run_until(dt, t_stop, |r| {
                    calls += 1;
                    r.len() == k + 1
                })
                .unwrap();
            assert_eq!(stopped.len(), k + 1, "stops right after step {k}");
            assert_eq!(calls, k, "asked once per accepted step");
            assert_prefix(&stopped, &full, net.num_nodes());
        }

        // A stop on the shortened final step, and one that never fires,
        // both return the whole run.
        let on_last = tran
            .run_until(dt, t_stop, |r| *r.times().last().unwrap() == t_stop)
            .unwrap();
        assert_eq!(on_last.len(), full.len());
        assert_prefix(&on_last, &full, net.num_nodes());
        let never = tran.run_until(dt, t_stop, |_| false).unwrap();
        assert_eq!(never.len(), full.len());
        assert_prefix(&never, &full, net.num_nodes());
    }

    #[test]
    fn pwl_driven_node_follows_source() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.add_vsource(
            "V1",
            a,
            Netlist::GROUND,
            Waveform::pwl(vec![(0.0, 0.0), (1e-9, 1.0), (2e-9, 0.25)]).unwrap(),
        )
        .unwrap();
        net.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
        let tran = Transient::new(&net).unwrap();
        let r = tran.run(1e-11, 2e-9).unwrap();
        assert!((r.sample(a, 0.5e-9).unwrap() - 0.5).abs() < 1e-6);
        assert!((r.sample(a, 2e-9).unwrap() - 0.25).abs() < 1e-6);
    }
}
