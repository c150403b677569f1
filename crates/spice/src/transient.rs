//! Transient analysis: backward-Euler and trapezoidal integration, with
//! fixed or LTE-controlled adaptive stepping.
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
    is_linear, solve_nonlinear_ws, system_size, MnaWorkspace, NewtonStats, OperatingPoint,
    ReactivePolicy,
};
use crate::netlist::{Element, Netlist, NodeId};

/// Safety factor of the LTE step controller (classic 0.9).
const LTE_SAFETY: f64 = 0.9;

/// Largest per-step growth the LTE controller may apply.
const LTE_GROW_MAX: f64 = 2.5;

/// Smallest per-step shrink the LTE controller may apply.
const LTE_SHRINK_MIN: f64 = 0.2;

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
    /// # Errors
    ///
    /// * [`SpiceError::InvalidAnalysis`] for non-positive `dt`/`t_stop`
    ///   or an absurd step count (> 20 million);
    /// * [`SpiceError::SingularMatrix`] / [`SpiceError::NoConvergence`]
    ///   from the per-step solves.
    pub fn run(&self, dt: f64, t_stop: f64) -> Result<TransientResult, SpiceError> {
        let _span = mpvar_trace::span!(
            mpvar_trace::names::SPAN_SPICE_TRANSIENT,
            dt = dt,
            t_stop = t_stop,
            adaptive = false,
        );
        let mut stats = NewtonStats::default();
        let result = self.run_fixed(dt, t_stop, &mut stats);
        stats.emit();
        if let Ok(r) = &result {
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
    ) -> Result<TransientResult, SpiceError> {
        let valid = dt > 0.0 && t_stop > 0.0;
        if !valid {
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
        // When dt does not divide t_stop the final step is shortened to
        // land exactly on t_stop (integrating a full dt but stamping the
        // sample at t_stop would corrupt the waveform tail). If ceil()
        // manufactured a degenerate sliver out of rounding (t_stop/dt
        // just past an integer), fold it into the previous step instead
        // of taking a ~0-length step.
        if steps > 1 && t_stop - (steps - 1) as f64 * dt <= dt * 1e-9 {
            steps -= 1;
        }

        let net = self.net;
        let nn = net.num_nodes();
        let size = system_size(net);
        let linear = is_linear(net);
        let mut ws = MnaWorkspace::new(net);

        // --- Initial state -------------------------------------------------
        let mut node_v = vec![0.0; nn];
        let mut x = vec![0.0; size];
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
            times: Vec::with_capacity(steps + 1),
            voltages: vec![Vec::with_capacity(steps + 1); nn],
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
        let mut factored_for: Option<(bool, f64)> = None;

        let mut first_step = true;
        let mut t_prev = 0.0f64;
        for k in 1..=steps {
            let t = if k == steps { t_stop } else { k as f64 * dt };
            let dt_k = t - t_prev;
            // The trapezoidal rule needs consistent capacitor currents at
            // the previous point. In UIC mode they are unknown at t=0, so
            // take the first step with backward Euler (standard practice);
            // that BE step also seeds `cap_i` below.
            let use_be = matches!(self.method, Method::BackwardEuler) || (first_step && self.uic);
            let policy = if use_be {
                ReactivePolicy::BackwardEuler {
                    dt: dt_k,
                    prev_v: &node_v,
                }
            } else {
                self.policy(dt_k, &node_v, &cap_i)
            };

            let x_new = if linear {
                // Linear fast path: replay the RHS assembly; refactor
                // only when the companion values changed.
                ws.assemble(net, t, policy, &x);
                if factored_for != Some((use_be, dt_k)) {
                    ws.factor(stats)?;
                    factored_for = Some((use_be, dt_k));
                }
                let mut out = Vec::new();
                ws.solve_into(&mut out);
                out
            } else {
                solve_nonlinear_ws(net, t, policy, x.clone(), stats, &mut ws)?
            };

            // Update capacitor currents (needed by trapezoidal memory),
            // using this step's actual size.
            let v_of = |node: NodeId, state: &[f64]| -> f64 {
                if node.is_ground() {
                    0.0
                } else {
                    state[node.index() - 1]
                }
            };
            for (ci, &(a, b, c)) in caps.iter().enumerate() {
                let v_new = v_of(a, &x_new) - v_of(b, &x_new);
                let v_old = node_v[a.index()] - node_v[b.index()];
                cap_i[ci] = if use_be {
                    c * (v_new - v_old) / dt_k
                } else {
                    // Trapezoidal: i_new = 2C/dt (v_new - v_old) - i_old.
                    2.0 * c * (v_new - v_old) / dt_k - cap_i[ci]
                };
            }

            node_v[1..nn].copy_from_slice(&x_new[..nn - 1]);
            x = x_new;
            result.push_state(t, &node_v);
            t_prev = t;
            first_step = false;
        }

        Ok(result)
    }

    /// Runs the analysis with **adaptive** step control until `t_stop`.
    ///
    /// Local truncation error is estimated by step doubling: each
    /// candidate step is computed once with the full step and once with
    /// two half steps, and the difference bounds the LTE. A standard
    /// order-2 controller (`dt · 0.9 (tol/err)^{1/3}`, growth and
    /// shrink clamped) picks the next step; rejected steps are retried
    /// shorter. Both half-step solutions are stored — **dense output**
    /// on the half-step grid — so `measure.rs` threshold crossings
    /// interpolate over intervals the error control actually bounded.
    /// Source-waveform breakpoints (pulse edges, PWL corners) are never
    /// stepped over, so sharp word-line edges are resolved regardless
    /// of the current step size.
    ///
    /// # Errors
    ///
    /// * [`SpiceError::InvalidAnalysis`] for non-positive inputs, or
    ///   when error control drives the step below `t_stop / 5e7`;
    /// * solver failures as in [`Transient::run`].
    pub fn run_adaptive(
        &self,
        dt_initial: f64,
        t_stop: f64,
        tol_v: f64,
    ) -> Result<TransientResult, SpiceError> {
        let _span = mpvar_trace::span!(
            mpvar_trace::names::SPAN_SPICE_TRANSIENT,
            dt = dt_initial,
            t_stop = t_stop,
            adaptive = true,
        );
        let mut stats = NewtonStats::default();
        let result = self.run_adaptive_inner(dt_initial, t_stop, tol_v, &mut stats);
        stats.emit();
        if result.is_ok() {
            // Accepted integration steps (each stores two points: the
            // midpoint and the step end).
            mpvar_trace::counter_add(
                mpvar_trace::names::SPICE_TRANSIENT_STEPS,
                stats.step_accepts,
            );
        }
        result
    }

    fn run_adaptive_inner(
        &self,
        dt_initial: f64,
        t_stop: f64,
        tol_v: f64,
        stats: &mut NewtonStats,
    ) -> Result<TransientResult, SpiceError> {
        let valid = dt_initial > 0.0 && t_stop > 0.0 && tol_v > 0.0;
        if !valid {
            return Err(SpiceError::InvalidAnalysis {
                message: format!(
                    "dt_initial ({dt_initial}), t_stop ({t_stop}) and tol_v ({tol_v}) must be positive"
                ),
            });
        }
        let net = self.net;
        let nn = net.num_nodes();
        let dt_min = t_stop / 5e7;
        let dt_max = t_stop / 20.0;

        let caps = collect_caps(net);
        let mut state = self.initial_state(&caps)?;
        let mut ws = MnaWorkspace::new(net);

        let mut result = TransientResult {
            times: Vec::new(),
            voltages: vec![Vec::new(); nn],
            node_names: (0..nn)
                .map(|i| net.node_name(NodeId(i)).to_string())
                .collect(),
        };
        result.push_state(0.0, &state.node_v);

        let breaks = self.breakpoints(t_stop);
        let mut t = 0.0f64;
        let mut dt = dt_initial.min(dt_max);

        while t < t_stop {
            // Clamp the step to the next breakpoint and the stop time.
            let mut dt_eff = dt.min(t_stop - t);
            if let Some(&bp) = breaks.iter().find(|&&bp| bp > t + 1e-18) {
                if t + dt_eff > bp {
                    dt_eff = bp - t;
                }
            }

            // One full step...
            let full = self.advance_once(&caps, &state, t + dt_eff, dt_eff, stats, &mut ws)?;
            // ...versus two half steps.
            let half1 = self.advance_once(
                &caps,
                &state,
                t + dt_eff / 2.0,
                dt_eff / 2.0,
                stats,
                &mut ws,
            )?;
            let half2 =
                self.advance_once(&caps, &half1, t + dt_eff, dt_eff / 2.0, stats, &mut ws)?;

            let mut err = 0.0f64;
            for (a, b) in full.node_v.iter().zip(&half2.node_v) {
                err = err.max((a - b).abs());
            }

            // Order-2 LTE controller: the optimal step scales with
            // (tol/err)^(1/3); the safety factor and clamps are the
            // standard ones for embedded-error stepping.
            let scale = if err > 0.0 {
                LTE_SAFETY * (tol_v / err).powf(1.0 / 3.0)
            } else {
                LTE_GROW_MAX
            };

            if err > tol_v && dt_eff > dt_min {
                stats.step_rejects += 1;
                dt = (dt_eff * scale.clamp(LTE_SHRINK_MIN, 1.0)).max(dt_min);
                continue;
            }
            if dt_eff <= dt_min && err > 10.0 * tol_v {
                return Err(SpiceError::InvalidAnalysis {
                    message: format!("adaptive step underflow at t = {t:.3e}s (err {err:.3e}V)"),
                });
            }

            stats.step_accepts += 1;
            // Dense output: keep the midpoint sample too, so crossing
            // interpolation sees the half-step grid the error estimate
            // was computed on.
            result.push_state(t + dt_eff / 2.0, &half1.node_v);
            t += dt_eff;
            state = half2;
            result.push_state(t, &state.node_v);
            dt = (dt_eff * scale.clamp(LTE_SHRINK_MIN, LTE_GROW_MAX)).min(dt_max);
        }
        Ok(result)
    }

    /// Builds the initial integration state (UIC or DC operating point).
    fn initial_state(&self, caps: &[(NodeId, NodeId, f64)]) -> Result<StepState, SpiceError> {
        let net = self.net;
        let nn = net.num_nodes();
        let size = system_size(net);
        let mut node_v = vec![0.0; nn];
        let mut x = vec![0.0; size];
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
        Ok(StepState {
            node_v,
            x,
            cap_i: vec![0.0; caps.len()],
            bootstrapped: !self.uic,
        })
    }

    /// Advances one integration step from `state` to time `t`, step `dt`.
    fn advance_once(
        &self,
        caps: &[(NodeId, NodeId, f64)],
        state: &StepState,
        t: f64,
        dt: f64,
        stats: &mut NewtonStats,
        ws: &mut MnaWorkspace,
    ) -> Result<StepState, SpiceError> {
        let net = self.net;
        let nn = net.num_nodes();
        // First step under UIC starts with backward Euler (no consistent
        // capacitor currents yet).
        let use_be = matches!(self.method, Method::BackwardEuler) || !state.bootstrapped;
        let policy = if use_be {
            ReactivePolicy::BackwardEuler {
                dt,
                prev_v: &state.node_v,
            }
        } else {
            ReactivePolicy::Trapezoidal {
                dt,
                prev_v: &state.node_v,
                prev_ic: &state.cap_i,
            }
        };
        let x_new = solve_nonlinear_ws(net, t, policy, state.x.clone(), stats, ws)?;

        let v_of = |node: NodeId, xs: &[f64]| -> f64 {
            if node.is_ground() {
                0.0
            } else {
                xs[node.index() - 1]
            }
        };
        let mut cap_i = state.cap_i.clone();
        for (ci, &(a, b, c)) in caps.iter().enumerate() {
            let v_new = v_of(a, &x_new) - v_of(b, &x_new);
            let v_old = state.node_v[a.index()] - state.node_v[b.index()];
            cap_i[ci] = if use_be {
                c * (v_new - v_old) / dt
            } else {
                2.0 * c * (v_new - v_old) / dt - cap_i[ci]
            };
        }
        let mut node_v = vec![0.0; nn];
        node_v[1..nn].copy_from_slice(&x_new[..nn - 1]);
        Ok(StepState {
            node_v,
            x: x_new,
            cap_i,
            bootstrapped: true,
        })
    }

    /// Collects source-waveform breakpoints within `[0, t_stop]`, sorted.
    fn breakpoints(&self, t_stop: f64) -> Vec<f64> {
        let mut points = Vec::new();
        for e in self.net.elements() {
            let w = match e {
                Element::VSource { waveform, .. } | Element::ISource { waveform, .. } => waveform,
                _ => continue,
            };
            match w {
                crate::waveform::Waveform::Dc(_) => {}
                crate::waveform::Waveform::Pulse {
                    delay,
                    rise,
                    fall,
                    width,
                    period,
                    ..
                } => {
                    let mut base = *delay;
                    // Cap per-source breakpoints so a pathological tiny
                    // period cannot explode the list.
                    let mut emitted = 0usize;
                    loop {
                        for t in [
                            base,
                            base + rise,
                            base + rise + width,
                            base + rise + width + fall,
                        ] {
                            if t <= t_stop {
                                points.push(t);
                                emitted += 1;
                            }
                        }
                        if *period > 0.0 && base + period <= t_stop && emitted < 10_000 {
                            base += period;
                        } else {
                            break;
                        }
                    }
                }
                crate::waveform::Waveform::Pwl(pts) => {
                    points.extend(pts.iter().map(|&(t, _)| t).filter(|&t| t <= t_stop));
                }
            }
        }
        points.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        points.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
        points
    }

    fn policy<'b>(&self, dt: f64, prev_v: &'b [f64], prev_ic: &'b [f64]) -> ReactivePolicy<'b> {
        match self.method {
            Method::BackwardEuler => ReactivePolicy::BackwardEuler { dt, prev_v },
            Method::Trapezoidal => ReactivePolicy::Trapezoidal {
                dt,
                prev_v,
                prev_ic,
            },
        }
    }
}

/// Integration state carried between adaptive steps.
#[derive(Debug, Clone)]
struct StepState {
    node_v: Vec<f64>,
    x: Vec<f64>,
    cap_i: Vec<f64>,
    /// `false` until the first accepted step establishes consistent
    /// capacitor currents (UIC bootstrap).
    bootstrapped: bool,
}

/// Capacitor terminal/value list in element order.
fn collect_caps(net: &Netlist) -> Vec<(NodeId, NodeId, f64)> {
    net.elements()
        .iter()
        .filter_map(|e| match e {
            Element::Capacitor { a, b, farads, .. } => Some((*a, *b, *farads)),
            _ => None,
        })
        .collect()
}

/// Sampled node waveforms produced by [`Transient::run`].
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
    /// window.
    pub fn sample(&self, node: NodeId, t: f64) -> Result<f64, SpiceError> {
        let times = &self.times;
        if times.is_empty() || t < times[0] || t > *times.last().expect("nonempty") {
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
        assert!(r.sample(a, 1e-10).is_ok());
        assert!(!r.is_empty());
        assert_eq!(r.node_name(a), "a");
    }

    #[test]
    fn adaptive_matches_fixed_step_on_rc() {
        let mut net = Netlist::new();
        let n1 = net.node("n1");
        net.add_resistor("R1", n1, Netlist::GROUND, 1e3).unwrap();
        net.add_capacitor("C1", n1, Netlist::GROUND, 1e-12).unwrap();
        let mut tran = Transient::new(&net).unwrap();
        tran.set_initial_voltage(n1, 1.0);
        let adaptive = tran.run_adaptive(1e-11, 4e-9, 1e-5).unwrap();
        let exact = (-2e-9f64 / 1e-9).exp();
        let sim = adaptive.sample(n1, 2e-9).unwrap();
        assert!((sim - exact).abs() < 1e-3, "sim {sim} vs {exact}");
        // Adaptive should take fewer points than a fixed fine grid while
        // staying accurate.
        assert!(adaptive.len() < 400, "{} points", adaptive.len());
    }

    #[test]
    fn adaptive_resolves_pulse_edges_via_breakpoints() {
        // A pulse with edges much shorter than the natural step: the
        // breakpoint clamp must land points on the edges.
        let mut net = Netlist::new();
        let a = net.node("a");
        let out = net.node("out");
        net.add_vsource(
            "V1",
            a,
            Netlist::GROUND,
            Waveform::pulse(0.0, 1.0, 1e-9, 1e-12, 1e-12, 0.5e-9, 0.0).unwrap(),
        )
        .unwrap();
        net.add_resistor("R1", a, out, 1e3).unwrap();
        net.add_capacitor("C1", out, Netlist::GROUND, 5e-14)
            .unwrap();
        let tran = Transient::new(&net).unwrap();
        let r = tran.run_adaptive(2e-10, 3e-9, 1e-4).unwrap();
        // The source is quiet for 1ns: out must still be near 0 right
        // before the edge and charge right after the pulse.
        let before = r.sample(out, 0.99e-9).unwrap();
        assert!(before.abs() < 1e-6, "before edge: {before}");
        let during = r.sample(out, 1.45e-9).unwrap();
        assert!(during > 0.9, "pulse seen: {during}");
        // A breakpoint-aligned sample exists at the edge start.
        assert!(r.times().iter().any(|&t| (t - 1e-9).abs() < 1e-15));
    }

    #[test]
    fn adaptive_rejects_bad_config() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
        net.add_capacitor("C1", a, Netlist::GROUND, 1e-15).unwrap();
        let tran = Transient::new(&net).unwrap();
        assert!(tran.run_adaptive(0.0, 1e-9, 1e-4).is_err());
        assert!(tran.run_adaptive(1e-12, 0.0, 1e-4).is_err());
        assert!(tran.run_adaptive(1e-12, 1e-9, 0.0).is_err());
    }

    #[test]
    fn adaptive_handles_nonlinear_discharge() {
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
        let fixed = tran.run(1e-12, 2e-9).unwrap();
        let adaptive = tran.run_adaptive(5e-12, 2e-9, 1e-4).unwrap();
        for t in [150e-12, 300e-12, 1e-9, 2e-9] {
            let vf = fixed.sample(bl, t).unwrap();
            let va = adaptive.sample(bl, t).unwrap();
            assert!((vf - va).abs() < 5e-3, "t={t}: {vf} vs {va}");
        }
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
