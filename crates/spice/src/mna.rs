//! Modified nodal analysis: assembly and the Newton–Raphson solver.
//!
//! The unknown vector is `[v(1) .. v(N-1), i(V1) .. i(Vm)]`: every
//! non-ground node voltage followed by one branch current per independent
//! voltage source. Nonlinear devices (MOSFETs) are stamped as their
//! Norton-equivalent linearization around the current guess and iterated
//! to convergence.

use std::collections::HashMap;

use crate::error::SpiceError;
use crate::netlist::{Element, Netlist, NodeId};
use crate::sparse::{CsrMatrix, LuWorkspace, SymbolicLu};

/// Conductance added from every node to ground for numerical robustness
/// (keeps gates and capacitor-only nodes from making the matrix singular).
pub const GMIN: f64 = 1e-12;

/// Absolute Newton convergence tolerance on voltage updates, V.
pub(crate) const VTOL: f64 = 1e-9;

/// Maximum voltage change applied per Newton iteration, V (damping).
pub(crate) const VSTEP_MAX: f64 = 0.3;

/// Maximum Newton iterations before reporting non-convergence.
pub(crate) const MAX_ITERS: usize = 200;

/// Newton-solver statistics accumulated locally by one analysis and
/// emitted to the trace layer in a single batch ([`NewtonStats::emit`])
/// — per-iteration counter calls would put a lock on the hot path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NewtonStats {
    /// Nonlinear MNA systems solved.
    pub solves: u64,
    /// Newton–Raphson iterations across all solves.
    pub iterations: u64,
    /// Solves that failed to converge within [`MAX_ITERS`].
    pub failures: u64,
    /// Symbolic LU analyses performed (first factor or pivot-drift rebuild).
    pub lu_symbolic_builds: u64,
    /// Factorizations that reused an existing symbolic analysis.
    pub lu_symbolic_reuses: u64,
    /// Numeric-only refactorizations into a preallocated workspace.
    pub lu_refactors: u64,
    /// Adaptive-transient steps accepted by the LTE controller.
    pub step_accepts: u64,
    /// Adaptive-transient steps rejected (halved and retried).
    pub step_rejects: u64,
}

impl NewtonStats {
    /// Flushes the batch into the trace counters (no-op when tracing
    /// is disabled or nothing happened). Zero-valued counters are
    /// skipped, so a run that never factored emits no LU metrics.
    pub(crate) fn emit(&self) {
        if *self == Self::default() || !mpvar_trace::enabled() {
            return;
        }
        if self.solves > 0 {
            mpvar_trace::counter_add(mpvar_trace::names::SPICE_SOLVES, self.solves);
            mpvar_trace::counter_add(mpvar_trace::names::SPICE_NR_ITERATIONS, self.iterations);
            mpvar_trace::counter_add(mpvar_trace::names::SPICE_NR_FAILURES, self.failures);
        }
        for (name, value) in [
            (
                mpvar_trace::names::SPICE_LU_SYMBOLIC_BUILDS,
                self.lu_symbolic_builds,
            ),
            (
                mpvar_trace::names::SPICE_LU_SYMBOLIC_REUSES,
                self.lu_symbolic_reuses,
            ),
            (mpvar_trace::names::SPICE_LU_REFACTORS, self.lu_refactors),
            (mpvar_trace::names::SPICE_STEP_ACCEPTS, self.step_accepts),
            (mpvar_trace::names::SPICE_STEP_REJECTS, self.step_rejects),
        ] {
            if value > 0 {
                mpvar_trace::counter_add(name, value);
            }
        }
    }
}

/// How reactive elements (capacitors) are treated during assembly.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ReactivePolicy<'a> {
    /// DC: capacitors are open circuits.
    Dc,
    /// Backward-Euler companion: `G = C/dt`, `Ieq = (C/dt) v_prev`.
    BackwardEuler {
        /// Time step, s.
        dt: f64,
        /// Node voltages at the previous step (indexed by node, incl. ground).
        prev_v: &'a [f64],
    },
    /// Trapezoidal companion: `G = 2C/dt`,
    /// `Ieq = (2C/dt) v_prev + i_prev`.
    Trapezoidal {
        /// Time step, s.
        dt: f64,
        /// Node voltages at the previous step.
        prev_v: &'a [f64],
        /// Capacitor currents at the previous step, in capacitor order.
        prev_ic: &'a [f64],
    },
}

/// A solved DC operating point.
///
/// # Example
///
/// ```
/// use mpvar_spice::prelude::*;
///
/// // Resistive divider: 0.7V across two equal 10k resistors.
/// let mut net = Netlist::new();
/// let vdd = net.node("vdd");
/// let mid = net.node("mid");
/// net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(0.7))?;
/// net.add_resistor("R1", vdd, mid, 10e3)?;
/// net.add_resistor("R2", mid, Netlist::GROUND, 10e3)?;
/// let op = OperatingPoint::solve(&net)?;
/// assert!((op.voltage(mid) - 0.35).abs() < 1e-6);
/// # Ok::<(), mpvar_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    voltages: Vec<f64>,
    source_currents: HashMap<String, f64>,
}

impl OperatingPoint {
    /// Solves the DC operating point of `net` (sources at their `t = 0`
    /// values, capacitors open).
    ///
    /// # Errors
    ///
    /// [`SpiceError::SingularMatrix`] or [`SpiceError::NoConvergence`].
    pub fn solve(net: &Netlist) -> Result<OperatingPoint, SpiceError> {
        let x0 = vec![0.0; system_size(net)];
        let mut stats = NewtonStats::default();
        let result = solve_nonlinear(net, 0.0, ReactivePolicy::Dc, x0, &mut stats);
        stats.emit();
        Ok(Self::from_solution(net, &result?))
    }

    pub(crate) fn from_solution(net: &Netlist, x: &[f64]) -> OperatingPoint {
        let nn = net.num_nodes();
        let mut voltages = vec![0.0; nn];
        voltages[1..nn].copy_from_slice(&x[..nn - 1]);
        let mut source_currents = HashMap::new();
        let mut j = 0;
        for e in net.elements() {
            if let Element::VSource { name, .. } = e {
                source_currents.insert(name.clone(), x[nn - 1 + j]);
                j += 1;
            }
        }
        OperatingPoint {
            voltages,
            source_currents,
        }
    }

    /// Voltage at a node, V.
    ///
    /// # Panics
    ///
    /// Panics if the node does not belong to the solved netlist.
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.voltages[node.index()]
    }

    /// All node voltages, indexed by node id (ground included as 0.0).
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }

    /// Current through a named voltage source, A (positive from + to −
    /// through the source, SPICE convention).
    pub fn source_current(&self, name: &str) -> Option<f64> {
        self.source_currents.get(name).copied()
    }
}

/// Size of the MNA unknown vector for `net`.
pub(crate) fn system_size(net: &Netlist) -> usize {
    net.num_nodes() - 1 + net.num_vsources()
}

/// Solves the (possibly nonlinear) MNA system at time `t` under the given
/// reactive policy, starting from `x0`. Iteration counts accumulate into
/// `stats` (plain local integers; the caller batches them to the trace
/// layer once per analysis).
pub(crate) fn solve_nonlinear(
    net: &Netlist,
    t: f64,
    policy: ReactivePolicy<'_>,
    x: Vec<f64>,
    stats: &mut NewtonStats,
) -> Result<Vec<f64>, SpiceError> {
    let mut ws = MnaWorkspace::new(net);
    solve_nonlinear_ws(net, t, policy, x, stats, &mut ws)
}

/// [`solve_nonlinear`] with an explicit, reusable [`MnaWorkspace`]:
/// repeated calls against the same netlist structure (Newton iterations,
/// timesteps, sweep points, MC trials) pay for assembly-pattern
/// compilation and symbolic factorization exactly once.
pub(crate) fn solve_nonlinear_ws(
    net: &Netlist,
    t: f64,
    policy: ReactivePolicy<'_>,
    mut x: Vec<f64>,
    stats: &mut NewtonStats,
    ws: &mut MnaWorkspace,
) -> Result<Vec<f64>, SpiceError> {
    debug_assert_eq!(x.len(), ws.size);
    let linear = is_linear(net);
    let mut last_delta = f64::INFINITY;
    stats.solves += 1;

    let mut x_new = Vec::new();
    for _iter in 0..MAX_ITERS {
        stats.iterations += 1;
        ws.assemble(net, t, policy, &x);
        ws.factor(stats)?;
        ws.solve_into(&mut x_new);

        let mut max_delta = 0.0f64;
        for (a, b) in x.iter().zip(&x_new) {
            max_delta = max_delta.max((a - b).abs());
        }

        if linear {
            return Ok(x_new);
        }

        if max_delta <= VTOL {
            return Ok(x_new);
        }

        // Damped update: limit the largest component change to VSTEP_MAX.
        let scale = if max_delta > VSTEP_MAX {
            VSTEP_MAX / max_delta
        } else {
            1.0
        };
        for (xi, xn) in x.iter_mut().zip(&x_new) {
            *xi += scale * (xn - *xi);
        }
        last_delta = max_delta;
    }
    stats.failures += 1;
    Err(SpiceError::NoConvergence {
        iterations: MAX_ITERS,
        last_delta_v: last_delta,
    })
}

/// Per-analysis solver state for one netlist structure: the right-hand
/// side plus the [`CompiledLu`] holding the stamp program, the frozen CSR
/// matrix, the symbolic LU analysis, and the preallocated numeric
/// buffers. Everything is plain owned data — one workspace per analysis
/// (and hence per `mpvar-exec` worker closure), so parallel trials never
/// alias buffers.
pub(crate) struct MnaWorkspace {
    size: usize,
    rhs: Vec<f64>,
    lu: CompiledLu,
}

impl MnaWorkspace {
    /// Creates an empty workspace for `net`'s system size.
    pub(crate) fn new(net: &Netlist) -> Self {
        let size = system_size(net);
        Self {
            size,
            rhs: vec![0.0; size],
            lu: CompiledLu::default(),
        }
    }

    /// Assembles the linearized system around `x` at time `t` into this
    /// workspace's matrix storage and right-hand side: the first call
    /// records the stamp program, later calls replay it into the frozen
    /// CSR values.
    pub(crate) fn assemble(
        &mut self,
        net: &Netlist,
        t: f64,
        policy: ReactivePolicy<'_>,
        x: &[f64],
    ) {
        self.rhs.fill(0.0);
        if let Some(mut rep) = self.lu.replayer() {
            assemble_into(net, t, policy, x, &mut rep, &mut self.rhs);
            rep.finish();
        } else {
            let mut rec = StampRecorder::default();
            assemble_into(net, t, policy, x, &mut rec, &mut self.rhs);
            self.lu.compile(self.size, rec);
        }
    }

    /// Factors the assembled matrix (see [`CompiledLu::factor`]).
    pub(crate) fn factor(&mut self, stats: &mut NewtonStats) -> Result<(), SpiceError> {
        self.lu.factor(stats)
    }

    /// Back-substitutes the workspace right-hand side through the last
    /// computed factors into `out`.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`MnaWorkspace::factor`].
    pub(crate) fn solve_into(&self, out: &mut Vec<f64>) {
        self.lu.solve_into(&self.rhs, out);
    }
}

/// The compile step of every scalar analysis (MNA Newton solves and AC
/// sweeps): the first assembly's stamp stream is recorded and frozen
/// into a [`CsrMatrix`] plus a replayable slot program, later
/// assemblies replay the program into the frozen values, the symbolic
/// LU analysis runs on the first factor and is reused by numeric-only
/// refactors, and a pivot that drifts below tolerance under the frozen
/// order triggers exactly one re-analysis.
#[derive(Default)]
pub(crate) struct CompiledLu {
    /// `None` until the first assembly is compiled. Boxed so the idle
    /// state stays pointer-sized.
    state: Option<Box<CompiledState>>,
}

/// The compiled assembly + factorization state (built on first use).
struct CompiledState {
    csr: CsrMatrix,
    /// Value-slot per recorded `add` call, in call order.
    program: Vec<u32>,
    /// Coordinate per recorded call, for debug-build desync checks.
    #[cfg(debug_assertions)]
    coords: Vec<(usize, usize)>,
    /// `None` until the first [`CompiledLu::factor`] runs the analysis
    /// (so a failed assembly never pays for it).
    symbolic: Option<(SymbolicLu, LuWorkspace)>,
}

impl CompiledLu {
    /// The sink for the next assembly, with the frozen values zeroed, or
    /// `None` while nothing is compiled yet — the caller then assembles
    /// into a [`StampRecorder`] and hands it to [`CompiledLu::compile`].
    pub(crate) fn replayer(&mut self) -> Option<StampReplayer<'_>> {
        let c = self.state.as_mut()?;
        c.csr.zero_values();
        Some(StampReplayer {
            slots: &c.program,
            #[cfg(debug_assertions)]
            coords: &c.coords,
            vals: c.csr.values_mut(),
            cursor: 0,
        })
    }

    /// Freezes the first assembly of an `n x n` system — its pattern,
    /// slot program, and values.
    pub(crate) fn compile(&mut self, n: usize, rec: StampRecorder) {
        let (mut csr, program) = CsrMatrix::from_coords(n, &rec.coords);
        let vals = csr.values_mut();
        for (&slot, &v) in program.iter().zip(&rec.vals) {
            vals[slot as usize] += v;
        }
        self.state = Some(Box::new(CompiledState {
            csr,
            program,
            #[cfg(debug_assertions)]
            coords: rec.coords,
            symbolic: None,
        }));
    }

    /// Factors the assembled matrix: a numeric-only refactor under the
    /// frozen symbolic analysis; when a pivot has drifted below
    /// tolerance the analysis is rebuilt once with the current values
    /// (counted as a symbolic build) before giving up.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been assembled yet.
    pub(crate) fn factor(&mut self, stats: &mut NewtonStats) -> Result<(), SpiceError> {
        let c = self.state.as_mut().expect("assemble before factor");
        if c.symbolic.is_none() {
            let sym = SymbolicLu::analyze(&c.csr)?;
            let ws = sym.workspace();
            c.symbolic = Some((sym, ws));
            stats.lu_symbolic_builds += 1;
        } else {
            stats.lu_symbolic_reuses += 1;
        }
        stats.lu_refactors += 1;
        {
            let (sym, lu) = c.symbolic.as_mut().expect("just ensured");
            if sym.refactor(&c.csr, lu).is_ok() {
                return Ok(());
            }
        }
        // Pivot drift under the frozen order: one re-analysis with the
        // current values, then hard failure.
        let sym = SymbolicLu::analyze(&c.csr)?;
        let mut lu = sym.workspace();
        stats.lu_symbolic_builds += 1;
        stats.lu_refactors += 1;
        let result = sym.refactor(&c.csr, &mut lu);
        c.symbolic = Some((sym, lu));
        result
    }

    /// Back-substitutes `rhs` through the last computed factors into
    /// `out`.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`CompiledLu::factor`].
    pub(crate) fn solve_into(&self, rhs: &[f64], out: &mut Vec<f64>) {
        let c = self.state.as_ref().expect("assemble before solve");
        let (sym, lu) = c.symbolic.as_ref().expect("factor before solve");
        sym.solve_into(lu, rhs, out);
    }
}

/// `true` when the netlist has no nonlinear elements.
pub(crate) fn is_linear(net: &Netlist) -> bool {
    !net.elements()
        .iter()
        .any(|e| matches!(e, Element::Mosfet { .. }))
}

/// Where assembled matrix entries go: the discovery pass targets a
/// pattern recorder, the hot path replays into frozen CSR slots, and
/// tests feed the [`DenseMatrix`](crate::sparse::DenseMatrix) oracle. The *sequence* of `add` calls for a given netlist
/// is structural — every branch in [`assemble_into`] depends only on
/// topology (ground-ness of nodes, element order), never on values or
/// time — which is what makes the recorded stamp program replayable.
pub(crate) trait MatrixSink {
    /// Accumulates `v` into entry `(r, c)`.
    fn add(&mut self, r: usize, c: usize, v: f64);
}

#[cfg(test)]
impl MatrixSink for crate::sparse::DenseMatrix {
    fn add(&mut self, r: usize, c: usize, v: f64) {
        crate::sparse::DenseMatrix::add(self, r, c, v);
    }
}

/// Discovery-pass sink: records the structural coordinate sequence and
/// the values of one assembly, from which the frozen [`CsrMatrix`] and
/// the replayable slot program are compiled.
#[derive(Debug, Default)]
pub(crate) struct StampRecorder {
    pub(crate) coords: Vec<(usize, usize)>,
    pub(crate) vals: Vec<f64>,
}

impl MatrixSink for StampRecorder {
    fn add(&mut self, r: usize, c: usize, v: f64) {
        // Zero values are recorded too: the program must have one slot
        // per structural stamp or later replays would desynchronize.
        self.coords.push((r, c));
        self.vals.push(v);
    }
}

/// Hot-path sink: replays a recorded stamp program into the frozen CSR
/// value array by cursor — no maps, no search, no allocation.
pub(crate) struct StampReplayer<'a> {
    slots: &'a [u32],
    #[cfg(debug_assertions)]
    coords: &'a [(usize, usize)],
    vals: &'a mut [f64],
    cursor: usize,
}

impl MatrixSink for StampReplayer<'_> {
    fn add(&mut self, r: usize, c: usize, v: f64) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.coords[self.cursor],
            (r, c),
            "stamp program desync at call {}",
            self.cursor
        );
        #[cfg(not(debug_assertions))]
        let _ = (r, c);
        self.vals[self.slots[self.cursor] as usize] += v;
        self.cursor += 1;
    }
}

impl StampReplayer<'_> {
    /// Ends one replayed assembly.
    ///
    /// # Panics
    ///
    /// Panics when the assembly made fewer `add` calls than the
    /// recorded program: its stamp sequence was not structural.
    pub(crate) fn finish(self) {
        assert_eq!(
            self.cursor,
            self.slots.len(),
            "stamp program desync: assembly is not structural"
        );
    }
}

/// Assembles the linearized MNA system around guess `x` at time `t`
/// into any [`MatrixSink`] and a caller-zeroed right-hand side.
pub(crate) fn assemble_into<S: MatrixSink>(
    net: &Netlist,
    t: f64,
    policy: ReactivePolicy<'_>,
    x: &[f64],
    m: &mut S,
    rhs: &mut [f64],
) {
    let nn = net.num_nodes();

    // Node voltage lookup from the current guess (ground = 0).
    let v_of = |node: NodeId| -> f64 {
        if node.is_ground() {
            0.0
        } else {
            x[node.index() - 1]
        }
    };
    // Matrix row/col of a node (None for ground).
    let idx = |node: NodeId| -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    };

    let stamp_conductance = |m: &mut S, a: NodeId, b: NodeId, g: f64| {
        if let Some(ia) = idx(a) {
            m.add(ia, ia, g);
        }
        if let Some(ib) = idx(b) {
            m.add(ib, ib, g);
        }
        if let (Some(ia), Some(ib)) = (idx(a), idx(b)) {
            m.add(ia, ib, -g);
            m.add(ib, ia, -g);
        }
    };
    // Current `i` injected INTO node `into` (from node `from`).
    let stamp_current = |rhs: &mut [f64], into: NodeId, i: f64| {
        if let Some(ii) = idx(into) {
            rhs[ii] += i;
        }
    };

    // GMIN to ground on every node keeps floating subcircuits solvable.
    for node in 1..nn {
        m.add(node - 1, node - 1, GMIN);
    }

    let mut vsrc = 0usize;
    let mut cap_index = 0usize;
    for e in net.elements() {
        match e {
            Element::Resistor { a, b, ohms, .. } => {
                stamp_conductance(m, *a, *b, 1.0 / ohms);
            }
            Element::Capacitor { a, b, farads, .. } => {
                match policy {
                    ReactivePolicy::Dc => {}
                    ReactivePolicy::BackwardEuler { dt, prev_v } => {
                        let g = farads / dt;
                        let vprev = prev_v[a.index()] - prev_v[b.index()];
                        stamp_conductance(m, *a, *b, g);
                        stamp_current(rhs, *a, g * vprev);
                        stamp_current(rhs, *b, -g * vprev);
                    }
                    ReactivePolicy::Trapezoidal {
                        dt,
                        prev_v,
                        prev_ic,
                    } => {
                        let g = 2.0 * farads / dt;
                        let vprev = prev_v[a.index()] - prev_v[b.index()];
                        let ieq = g * vprev + prev_ic[cap_index];
                        stamp_conductance(m, *a, *b, g);
                        stamp_current(rhs, *a, ieq);
                        stamp_current(rhs, *b, -ieq);
                    }
                }
                cap_index += 1;
            }
            Element::VSource { p, n, waveform, .. } => {
                let row = nn - 1 + vsrc;
                if let Some(ip) = idx(*p) {
                    m.add(ip, row, 1.0);
                    m.add(row, ip, 1.0);
                }
                if let Some(in_) = idx(*n) {
                    m.add(in_, row, -1.0);
                    m.add(row, in_, -1.0);
                }
                rhs[row] = waveform.eval(t);
                vsrc += 1;
            }
            Element::ISource { p, n, waveform, .. } => {
                let i = waveform.eval(t);
                // Positive source current flows p -> n through the source,
                // i.e. it is pulled out of p and injected into n.
                stamp_current(rhs, *p, -i);
                stamp_current(rhs, *n, i);
            }
            Element::Mosfet { d, g, s, model, .. } => {
                let vgs = v_of(*g) - v_of(*s);
                let vds = v_of(*d) - v_of(*s);
                let ss = model.evaluate(vgs, vds);
                // Norton linearization: id ≈ Ieq + gm*vgs + gds*vds.
                let ieq = ss.id - ss.gm * vgs - ss.gds * vds;

                if let Some(id_) = idx(*d) {
                    m.add(id_, id_, ss.gds);
                    if let Some(ig) = idx(*g) {
                        m.add(id_, ig, ss.gm);
                    }
                    if let Some(is_) = idx(*s) {
                        m.add(id_, is_, -(ss.gm + ss.gds));
                    }
                    rhs[id_] -= ieq;
                }
                if let Some(is_) = idx(*s) {
                    m.add(is_, is_, ss.gm + ss.gds);
                    if let Some(ig) = idx(*g) {
                        m.add(is_, ig, -ss.gm);
                    }
                    if let Some(id_) = idx(*d) {
                        m.add(is_, id_, -ss.gds);
                    }
                    rhs[is_] += ieq;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::MosfetModel;
    use crate::waveform::Waveform;
    use mpvar_tech::preset::n10;

    #[test]
    fn resistive_divider() {
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let mid = net.node("mid");
        net.add_vsource("V1", vdd, Netlist::GROUND, Waveform::dc(1.0))
            .unwrap();
        net.add_resistor("R1", vdd, mid, 1e3).unwrap();
        net.add_resistor("R2", mid, Netlist::GROUND, 3e3).unwrap();
        let op = OperatingPoint::solve(&net).unwrap();
        assert!((op.voltage(mid) - 0.75).abs() < 1e-9);
        assert!((op.voltage(vdd) - 1.0).abs() < 1e-12);
        // Source current: 1V across 4k, flowing out of + terminal = -0.25mA
        // by SPICE convention (current into the + node is negative).
        let i = op.source_current("V1").unwrap();
        assert!((i + 0.25e-3).abs() < 1e-9, "i = {i}");
    }

    #[test]
    fn current_source_into_resistor() {
        let mut net = Netlist::new();
        let a = net.node("a");
        // 1mA pulled from ground into node a (p=ground, n=a).
        net.add_isource("I1", Netlist::GROUND, a, Waveform::dc(1e-3))
            .unwrap();
        net.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
        let op = OperatingPoint::solve(&net).unwrap();
        assert!((op.voltage(a) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn capacitor_open_at_dc() {
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let mid = net.node("mid");
        net.add_vsource("V1", vdd, Netlist::GROUND, Waveform::dc(1.0))
            .unwrap();
        net.add_resistor("R1", vdd, mid, 1e3).unwrap();
        net.add_capacitor("C1", mid, Netlist::GROUND, 1e-12)
            .unwrap();
        let op = OperatingPoint::solve(&net).unwrap();
        // No DC path through the cap: mid floats up to vdd.
        assert!((op.voltage(mid) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn two_vsources() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.add_vsource("VA", a, Netlist::GROUND, Waveform::dc(2.0))
            .unwrap();
        net.add_vsource("VB", b, Netlist::GROUND, Waveform::dc(1.0))
            .unwrap();
        net.add_resistor("R1", a, b, 1e3).unwrap();
        let op = OperatingPoint::solve(&net).unwrap();
        assert!((op.voltage(a) - 2.0).abs() < 1e-9);
        assert!((op.voltage(b) - 1.0).abs() < 1e-9);
        // 1mA flows a -> b; into VB's + terminal: +1mA.
        assert!((op.source_current("VB").unwrap() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn nmos_inverter_transfer_points() {
        // Resistor-loaded NMOS inverter: vdd -R- out -M- gnd.
        let tech = n10();
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let out = net.node("out");
        let gate = net.node("gate");
        net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net.add_vsource("VG", gate, Netlist::GROUND, Waveform::dc(0.7))
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
        let op = OperatingPoint::solve(&net).unwrap();
        // Gate high with a load much weaker than the device: output low.
        assert!(op.voltage(out) < 0.25, "out = {}", op.voltage(out));

        // Gate low: output near vdd.
        let mut net2 = Netlist::new();
        let vdd2 = net2.node("vdd");
        let out2 = net2.node("out");
        let gate2 = net2.node("gate");
        net2.add_vsource("VDD", vdd2, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net2.add_vsource("VG", gate2, Netlist::GROUND, Waveform::dc(0.0))
            .unwrap();
        net2.add_resistor("RL", vdd2, out2, 100e3).unwrap();
        net2.add_mosfet(
            "M1",
            out2,
            gate2,
            Netlist::GROUND,
            MosfetModel::new(*n10().nmos()),
        )
        .unwrap();
        let op2 = OperatingPoint::solve(&net2).unwrap();
        assert!(op2.voltage(out2) > 0.65, "out = {}", op2.voltage(out2));
    }

    #[test]
    fn kcl_holds_at_op() {
        // Current through R1 equals current through R2 at the midpoint.
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let mid = net.node("mid");
        net.add_vsource("V1", vdd, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net.add_resistor("R1", vdd, mid, 7e3).unwrap();
        net.add_resistor("R2", mid, Netlist::GROUND, 3e3).unwrap();
        let op = OperatingPoint::solve(&net).unwrap();
        let i1 = (op.voltage(vdd) - op.voltage(mid)) / 7e3;
        let i2 = op.voltage(mid) / 3e3;
        assert!((i1 - i2).abs() < 1e-9);
    }

    #[test]
    fn floating_node_is_held_by_gmin() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.add_capacitor("C1", a, Netlist::GROUND, 1e-15).unwrap();
        let op = OperatingPoint::solve(&net).unwrap();
        assert!(op.voltage(a).abs() < 1e-6);
    }

    #[test]
    fn ideal_source_loop_is_singular() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.add_vsource("V1", a, Netlist::GROUND, Waveform::dc(1.0))
            .unwrap();
        net.add_vsource("V2", a, Netlist::GROUND, Waveform::dc(2.0))
            .unwrap();
        assert!(matches!(
            OperatingPoint::solve(&net),
            Err(SpiceError::SingularMatrix { .. })
        ));
    }

    /// Newton-solves one system exactly like [`solve_nonlinear`], but
    /// assembles the identical stamp stream into the [`DenseMatrix`]
    /// oracle and solves it densely.
    fn dense_newton(net: &Netlist, policy: ReactivePolicy<'_>, mut x: Vec<f64>) -> Vec<f64> {
        use crate::sparse::DenseMatrix;
        let n = system_size(net);
        for _ in 0..MAX_ITERS {
            let mut m = DenseMatrix::new(n);
            let mut rhs = vec![0.0; n];
            assemble_into(net, 0.0, policy, &x, &mut m, &mut rhs);
            let x_new = m.solve(&rhs).unwrap();
            let max_delta = x
                .iter()
                .zip(&x_new)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            if max_delta <= VTOL {
                return x_new;
            }
            let scale = if max_delta > VSTEP_MAX {
                VSTEP_MAX / max_delta
            } else {
                1.0
            };
            for (xi, xn) in x.iter_mut().zip(&x_new) {
                *xi += scale * (xn - *xi);
            }
        }
        panic!("dense Newton did not converge");
    }

    #[test]
    fn compiled_newton_matches_dense_oracle_on_mosfet_netlist() {
        // A resistively precharged two-segment bit line discharging
        // through a pass gate and pull-down, with the storage node
        // driving a resistor-loaded inverter.
        let tech = n10();
        let nmos = || MosfetModel::new(*tech.nmos());
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let wl = net.node("wl");
        let bl0 = net.node("bl0");
        let bl1 = net.node("bl1");
        let q = net.node("q");
        let out = net.node("out");
        net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net.add_vsource("VWL", wl, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net.add_resistor("RPRE", vdd, bl0, 20e3).unwrap();
        net.add_resistor("RBL", bl0, bl1, 500.0).unwrap();
        net.add_capacitor("C0", bl0, Netlist::GROUND, 5e-15)
            .unwrap();
        net.add_capacitor("C1", bl1, Netlist::GROUND, 5e-15)
            .unwrap();
        net.add_mosfet("MPG", bl1, wl, q, nmos()).unwrap();
        net.add_mosfet("MPD", q, vdd, Netlist::GROUND, nmos())
            .unwrap();
        net.add_resistor("RL", vdd, out, 100e3).unwrap();
        net.add_mosfet("MINV", out, q, Netlist::GROUND, nmos())
            .unwrap();
        let n = system_size(&net);
        let assert_close = |compiled: &[f64], dense: &[f64], what: &str| {
            for (i, (a, b)) in compiled.iter().zip(dense).enumerate() {
                assert!((a - b).abs() < 1e-9, "{what}: unknown {i}: {a} vs {b}");
            }
        };

        // DC operating point.
        let mut stats = NewtonStats::default();
        let dc = solve_nonlinear(&net, 0.0, ReactivePolicy::Dc, vec![0.0; n], &mut stats).unwrap();
        assert!(stats.iterations > 1, "the netlist must exercise Newton");
        assert_close(
            &dc,
            &dense_newton(&net, ReactivePolicy::Dc, vec![0.0; n]),
            "dc",
        );

        // One backward-Euler step from a fully precharged bit line.
        let mut prev_v = vec![0.0; net.num_nodes()];
        prev_v[1..].copy_from_slice(&dc[..net.num_nodes() - 1]);
        prev_v[bl0.index()] = 0.7;
        prev_v[bl1.index()] = 0.7;
        let policy = ReactivePolicy::BackwardEuler {
            dt: 1e-12,
            prev_v: &prev_v,
        };
        let x0: Vec<f64> = dc.clone();
        let step = solve_nonlinear(&net, 0.0, policy, x0.clone(), &mut stats).unwrap();
        assert_close(
            &step,
            &dense_newton(&net, policy, x0),
            "backward-Euler step",
        );
    }

    #[test]
    fn is_linear_detection() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
        assert!(is_linear(&net));
        net.add_mosfet(
            "M1",
            a,
            Netlist::GROUND,
            Netlist::GROUND,
            MosfetModel::new(*n10().nmos()),
        )
        .unwrap();
        assert!(!is_linear(&net));
    }
}
