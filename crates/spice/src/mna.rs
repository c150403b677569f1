//! Modified nodal analysis: assembly and the Newton–Raphson solver.
//!
//! The unknown vector is `[v(1) .. v(N-1), i(V1) .. i(Vm)]`: every
//! non-ground node voltage followed by one branch current per independent
//! voltage source. Nonlinear devices (MOSFETs) are stamped as their
//! Norton-equivalent linearization around the current guess and iterated
//! to convergence.

use crate::error::SpiceError;
use crate::mosfet::MosfetModel;
use crate::netlist::{Element, Netlist, NodeId};
use crate::sparse::{CsrMatrix, LuWorkspace, SymbolicLu};

/// Conductance added from every node to ground for numerical robustness
/// (keeps gates and capacitor-only nodes from making the matrix singular).
pub const GMIN: f64 = 1e-12;

/// Absolute Newton convergence tolerance on voltage updates, V.
const VTOL: f64 = 1e-9;

/// Maximum voltage change applied per Newton iteration, V (damping).
const VSTEP_MAX: f64 = 0.3;

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
    /// One transient step: every capacitor is its companion under `rule`.
    Step {
        /// The step's integration rule and span.
        rule: Companion,
        /// Node voltages at the previous step (indexed by node, incl. ground).
        prev_v: &'a [f64],
        /// Capacitor currents at the previous step, in capacitor order
        /// (backward Euler ignores them).
        prev_ic: &'a [f64],
    },
}

/// The integration rule of one transient step over its span `dt`:
/// backward Euler or trapezoidal. Every capacitor formula of both
/// transient solvers is a method here, so the scalar and batched paths
/// share one expression for each.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Companion {
    /// `true` for the trapezoidal rule, `false` for backward Euler.
    pub(crate) trap: bool,
    /// The step's span, s.
    pub(crate) dt: f64,
}

impl Companion {
    /// The charge coefficient of the rule: `C` (backward Euler) or `2C`
    /// (trapezoidal).
    fn charge(self, farads: f64) -> f64 {
        if self.trap {
            2.0 * farads
        } else {
            farads
        }
    }

    /// Companion conductance: `C/dt` or `2C/dt`.
    pub(crate) fn g(self, farads: f64) -> f64 {
        self.charge(farads) / self.dt
    }

    /// Companion history current from the conductance `g`, the previous
    /// branch voltage `v_prev` and the previous current `i_prev`:
    /// `g·v_prev`, plus `i_prev` under the trapezoidal rule.
    pub(crate) fn ieq(self, g: f64, v_prev: f64, i_prev: f64) -> f64 {
        let i = g * v_prev;
        if self.trap {
            i + i_prev
        } else {
            i
        }
    }

    /// Capacitor current after a step that moved its branch voltage by
    /// `dv`: `C·dv/dt`, or `2C·dv/dt − i_prev` under the trapezoidal rule.
    pub(crate) fn current(self, farads: f64, dv: f64, i_prev: f64) -> f64 {
        let i = self.charge(farads) * dv / self.dt;
        if self.trap {
            i - i_prev
        } else {
            i
        }
    }
}

/// A MOSFET linearized around a guess: the Norton current `ieq` of
/// `id ≈ ieq + gm·vgs + gds·vds` and its six conductance stamps, in
/// [`MOS_STAMPS`] order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MosStamp {
    pub(crate) ieq: f64,
    pub(crate) g: [f64; 6],
}

/// `(row, column)` terminals of [`MosStamp::g`], as indices into
/// `[drain, gate, source]`. A stamp is made when both are off ground.
const MOS_STAMPS: [(usize, usize); 6] = [(0, 0), (0, 1), (0, 2), (2, 2), (2, 1), (2, 0)];

impl MosStamp {
    /// Linearizes `model` at drain, gate and source voltages `v`.
    pub(crate) fn at(model: &MosfetModel, [vd, vg, vs]: [f64; 3]) -> Self {
        let vgs = vg - vs;
        let vds = vd - vs;
        let ss = model.evaluate(vgs, vds);
        let (gm, gds) = (ss.gm, ss.gds);
        MosStamp {
            ieq: ss.id - gm * vgs - gds * vds,
            g: [gds, gm, -(gm + gds), gm + gds, -gm, -gds],
        }
    }
}

/// The Newton rule for an iterate whose largest update was
/// `max_delta`: `None` once it has converged (within [`VTOL`]), else
/// the scale that limits the damped update to [`VSTEP_MAX`].
pub(crate) fn newton_damping(max_delta: f64) -> Option<f64> {
    if max_delta <= VTOL {
        None
    } else if max_delta > VSTEP_MAX {
        Some(VSTEP_MAX / max_delta)
    } else {
        Some(1.0)
    }
}

/// Folds one unknown's update `x → x_new` into the running largest
/// update (rows are folded in ascending order).
pub(crate) fn fold_delta(max_delta: f64, x: f64, x_new: f64) -> f64 {
    max_delta.max((x - x_new).abs())
}

/// The damped Newton update of one unknown.
pub(crate) fn damp(x: f64, x_new: f64, scale: f64) -> f64 {
    x + scale * (x_new - x)
}

/// A solved DC operating point.
#[derive(Debug, Clone)]
pub(crate) struct OperatingPoint {
    voltages: Vec<f64>,
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
        OperatingPoint { voltages }
    }

    /// All node voltages, indexed by node id (ground included as 0.0).
    pub fn voltages(&self) -> &[f64] {
        &self.voltages
    }
}

/// Matrix row (and column) of a node's voltage; `None` for ground.
pub(crate) fn row_of(node: NodeId) -> Option<usize> {
    node.index().checked_sub(1)
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
    mut x: Vec<f64>,
    stats: &mut NewtonStats,
) -> Result<Vec<f64>, SpiceError> {
    let mut ws = MnaWorkspace::new(net);
    let mut x_new = Vec::new();
    solve_nonlinear_ws(net, t, policy, &mut x, &mut x_new, stats, &mut ws)?;
    Ok(x_new)
}

/// [`solve_nonlinear`] with an explicit, reusable [`MnaWorkspace`]:
/// repeated calls against the same netlist structure (Newton iterations,
/// timesteps, sweep points, MC trials) pay for assembly-pattern
/// compilation and symbolic factorization exactly once. Starts from the
/// guess in `x`, which the damped iterations overwrite, and writes the
/// solution into `x_new` (resized as needed), so a caller that keeps
/// both buffers allocates nothing per solve.
pub(crate) fn solve_nonlinear_ws(
    net: &Netlist,
    t: f64,
    policy: ReactivePolicy<'_>,
    x: &mut [f64],
    x_new: &mut Vec<f64>,
    stats: &mut NewtonStats,
    ws: &mut MnaWorkspace,
) -> Result<(), SpiceError> {
    debug_assert_eq!(x.len(), ws.size);
    let linear = is_linear(net);
    let mut last_delta = f64::INFINITY;
    stats.solves += 1;

    for _iter in 0..MAX_ITERS {
        stats.iterations += 1;
        ws.assemble(net, t, policy, x);
        ws.factor(stats)?;
        ws.solve_into(x_new);

        if linear {
            return Ok(());
        }
        let max_delta = x
            .iter()
            .zip(x_new.iter())
            .fold(0.0, |m, (&a, &b)| fold_delta(m, a, b));
        let Some(scale) = newton_damping(max_delta) else {
            return Ok(());
        };
        for (xi, &xn) in x.iter_mut().zip(x_new.iter()) {
            *xi = damp(*xi, xn, scale);
        }
        last_delta = max_delta;
    }
    stats.failures += 1;
    Err(SpiceError::NoConvergence {
        iterations: MAX_ITERS,
        last_delta_v: last_delta,
    })
}

/// Per-analysis solver state for one netlist structure. The first
/// assembly's stamp stream is recorded and frozen into a [`CsrMatrix`]
/// plus a replayable slot program; later assemblies replay the program
/// into the frozen values. The symbolic LU analysis runs on the first
/// factor and is reused by numeric-only refactors, and a pivot that
/// drifts below tolerance under the frozen order triggers exactly one
/// re-analysis. Everything is plain owned data — one workspace per
/// analysis (and hence per `mpvar-exec` worker closure), so parallel
/// trials never alias buffers.
pub(crate) struct MnaWorkspace {
    size: usize,
    rhs: Vec<f64>,
    /// `None` until the first assembly is compiled.
    compiled: Option<CompiledState>,
}

/// The compiled assembly + factorization state (built on first use).
struct CompiledState {
    csr: CsrMatrix,
    /// Value-slot per recorded `add` call, in call order.
    program: Vec<u32>,
    /// Coordinate per recorded call, for debug-build desync checks.
    #[cfg(debug_assertions)]
    coords: Vec<(usize, usize)>,
    /// `None` until the first [`MnaWorkspace::factor`] runs the analysis
    /// (so a failed assembly never pays for it).
    symbolic: Option<(SymbolicLu, LuWorkspace)>,
}

impl MnaWorkspace {
    /// Creates an empty workspace for `net`'s system size.
    pub(crate) fn new(net: &Netlist) -> Self {
        let size = system_size(net);
        Self {
            size,
            rhs: vec![0.0; size],
            compiled: None,
        }
    }

    /// Assembles the linearized system around `x` at time `t` into this
    /// workspace's matrix storage and right-hand side: the first call
    /// records the stamp program and freezes its pattern, slot program
    /// and values; later calls replay it into the frozen CSR values.
    pub(crate) fn assemble(
        &mut self,
        net: &Netlist,
        t: f64,
        policy: ReactivePolicy<'_>,
        x: &[f64],
    ) {
        self.rhs.fill(0.0);
        if let Some(c) = self.compiled.as_mut() {
            c.csr.zero_values();
            let mut rep = StampReplayer {
                slots: &c.program,
                #[cfg(debug_assertions)]
                coords: &c.coords,
                vals: c.csr.values_mut(),
                cursor: 0,
            };
            assemble_into(net, t, policy, x, &mut rep, &mut self.rhs);
            rep.finish();
        } else {
            let mut rec = StampRecorder::default();
            assemble_into(net, t, policy, x, &mut rec, &mut self.rhs);
            let (mut csr, program) = CsrMatrix::from_coords(self.size, &rec.coords);
            let vals = csr.values_mut();
            for (&slot, &v) in program.iter().zip(&rec.vals) {
                vals[slot as usize] += v;
            }
            self.compiled = Some(CompiledState {
                csr,
                program,
                #[cfg(debug_assertions)]
                coords: rec.coords,
                symbolic: None,
            });
        }
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
        let c = self.compiled.as_mut().expect("assemble before factor");
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
        // current values into the same workspace, then hard failure.
        let (sym, lu) = c.symbolic.as_mut().expect("just ensured");
        *sym = SymbolicLu::analyze(&c.csr)?;
        lu.prepare(sym, 1);
        stats.lu_symbolic_builds += 1;
        stats.lu_refactors += 1;
        sym.refactor(&c.csr, lu)
    }

    /// Back-substitutes the workspace right-hand side through the last
    /// computed factors into `out`.
    ///
    /// # Panics
    ///
    /// Panics if called before a successful [`MnaWorkspace::factor`].
    pub(crate) fn solve_into(&self, out: &mut Vec<f64>) {
        let c = self.compiled.as_ref().expect("assemble before solve");
        let (sym, lu) = c.symbolic.as_ref().expect("factor before solve");
        sym.solve_into(lu, &self.rhs, out);
    }
}

/// `true` when the netlist has no nonlinear elements.
pub(crate) fn is_linear(net: &Netlist) -> bool {
    !net.elements()
        .iter()
        .any(|e| matches!(e, Element::Mosfet { .. }))
}

/// What a matrix stamp's value is made of: the provenance the batched
/// solver uses to rebuild a stamp without running [`assemble_into`]
/// again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stamp {
    /// A value no step, time or guess changes: GMIN, a resistor's
    /// conductance, a voltage source's incidence.
    Fixed,
    /// Capacitor `cap`'s companion conductance, negated when `neg`.
    Cap { cap: u32, neg: bool },
    /// Entry `j` of MOSFET `mos`'s [`MosStamp::g`].
    Mos { mos: u32, j: u8 },
}

/// What a right-hand-side entry receives, in the same terms as
/// [`Stamp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RhsTerm {
    /// Capacitor `cap`'s history current, negated when `neg`.
    Cap { cap: u32, neg: bool },
    /// Voltage source element `elem`'s value, assigned to its branch row.
    Vsrc { elem: u32 },
    /// Current source element `elem`'s value, negated when `neg`.
    Isrc { elem: u32, neg: bool },
    /// MOSFET `mos`'s Norton current, negated when `neg`.
    Mos { mos: u32, neg: bool },
}

/// Where assembled matrix entries go: the discovery pass targets a
/// pattern recorder, the hot path replays into frozen CSR slots, and
/// tests feed the [`DenseMatrix`](crate::sparse::DenseMatrix) oracle. The *sequence* of `add` calls for a given netlist
/// is structural — every branch in [`assemble_into`] depends only on
/// topology (ground-ness of nodes, element order), never on values or
/// time — which is what makes the recorded stamp program replayable.
pub(crate) trait MatrixSink {
    /// Accumulates `v`, made as `src` says, into entry `(r, c)`.
    fn add(&mut self, r: usize, c: usize, v: f64, src: Stamp);

    /// Notes that `rhs[row]` has just received `term`. Only the
    /// recorder keeps these.
    fn rhs(&mut self, _row: usize, _term: RhsTerm) {}
}

#[cfg(test)]
impl MatrixSink for crate::sparse::DenseMatrix {
    fn add(&mut self, r: usize, c: usize, v: f64, _src: Stamp) {
        crate::sparse::DenseMatrix::add(self, r, c, v);
    }
}

/// Discovery-pass sink: records one assembly's walk — the stamp
/// coordinates, values and provenance, and the right-hand-side terms —
/// from which the frozen [`CsrMatrix`], the replayable slot program and
/// the batched solver's structure are compiled.
#[derive(Debug, Default)]
pub(crate) struct StampRecorder {
    pub(crate) coords: Vec<(usize, usize)>,
    pub(crate) vals: Vec<f64>,
    pub(crate) stamps: Vec<Stamp>,
    pub(crate) rhs: Vec<(usize, RhsTerm)>,
}

impl StampRecorder {
    /// Empties the record, keeping its capacity.
    pub(crate) fn clear(&mut self) {
        self.coords.clear();
        self.vals.clear();
        self.stamps.clear();
        self.rhs.clear();
    }

    /// `true` when both records walk the same structure: the same
    /// stamps at the same coordinates and the same right-hand-side
    /// terms, whatever their values.
    pub(crate) fn same_walk(&self, other: &StampRecorder) -> bool {
        self.coords == other.coords && self.stamps == other.stamps && self.rhs == other.rhs
    }
}

impl MatrixSink for StampRecorder {
    fn add(&mut self, r: usize, c: usize, v: f64, src: Stamp) {
        // Zero values are recorded too: the program must have one slot
        // per structural stamp or later replays would desynchronize.
        self.coords.push((r, c));
        self.vals.push(v);
        self.stamps.push(src);
    }

    fn rhs(&mut self, row: usize, term: RhsTerm) {
        self.rhs.push((row, term));
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
    fn add(&mut self, r: usize, c: usize, v: f64, _src: Stamp) {
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
///
/// This walk is the one definition of the stamp sequence: the scalar
/// workspace compiles its slot program from it, and the batched solver
/// records it per lane ([`StampRecorder`]) to take its structure, each
/// stamp's provenance and its right-hand-side program from it.
pub(crate) fn assemble_into<S: MatrixSink>(
    net: &Netlist,
    t: f64,
    policy: ReactivePolicy<'_>,
    x: &[f64],
    m: &mut S,
    rhs: &mut [f64],
) {
    let nn = net.num_nodes();

    let idx = row_of;
    // Node voltage lookup from the current guess (ground = 0).
    let v_of = |node: NodeId| -> f64 { idx(node).map_or(0.0, |i| x[i]) };

    let stamp_conductance = |m: &mut S, a: NodeId, b: NodeId, g: f64, diag: Stamp, off: Stamp| {
        if let Some(ia) = idx(a) {
            m.add(ia, ia, g, diag);
        }
        if let Some(ib) = idx(b) {
            m.add(ib, ib, g, diag);
        }
        if let (Some(ia), Some(ib)) = (idx(a), idx(b)) {
            m.add(ia, ib, -g, off);
            m.add(ib, ia, -g, off);
        }
    };
    // Current `i` injected INTO node `into`.
    let inject = |m: &mut S, rhs: &mut [f64], into: NodeId, i: f64, term: RhsTerm| {
        if let Some(ii) = idx(into) {
            rhs[ii] += i;
            m.rhs(ii, term);
        }
    };

    // GMIN to ground on every node keeps floating subcircuits solvable.
    for node in 1..nn {
        m.add(node - 1, node - 1, GMIN, Stamp::Fixed);
    }

    let mut vsrc = 0usize;
    let mut cap = 0u32;
    let mut mos = 0u32;
    for (elem, e) in net.elements().iter().enumerate() {
        let elem = elem as u32;
        match e {
            Element::Resistor { a, b, ohms, .. } => {
                stamp_conductance(m, *a, *b, 1.0 / ohms, Stamp::Fixed, Stamp::Fixed);
            }
            Element::Capacitor { a, b, farads, .. } => {
                if let ReactivePolicy::Step {
                    rule,
                    prev_v,
                    prev_ic,
                } = policy
                {
                    let g = rule.g(*farads);
                    let ieq = rule.ieq(
                        g,
                        prev_v[a.index()] - prev_v[b.index()],
                        prev_ic[cap as usize],
                    );
                    let (plus, minus) = (
                        Stamp::Cap { cap, neg: false },
                        Stamp::Cap { cap, neg: true },
                    );
                    stamp_conductance(m, *a, *b, g, plus, minus);
                    inject(m, rhs, *a, ieq, RhsTerm::Cap { cap, neg: false });
                    inject(m, rhs, *b, -ieq, RhsTerm::Cap { cap, neg: true });
                }
                cap += 1;
            }
            Element::VSource { p, n, waveform, .. } => {
                let row = nn - 1 + vsrc;
                if let Some(ip) = idx(*p) {
                    m.add(ip, row, 1.0, Stamp::Fixed);
                    m.add(row, ip, 1.0, Stamp::Fixed);
                }
                if let Some(in_) = idx(*n) {
                    m.add(in_, row, -1.0, Stamp::Fixed);
                    m.add(row, in_, -1.0, Stamp::Fixed);
                }
                rhs[row] = waveform.eval(t);
                m.rhs(row, RhsTerm::Vsrc { elem });
                vsrc += 1;
            }
            Element::ISource { p, n, waveform, .. } => {
                let i = waveform.eval(t);
                // Positive source current flows p -> n through the source,
                // i.e. it is pulled out of p and injected into n.
                inject(m, rhs, *p, -i, RhsTerm::Isrc { elem, neg: true });
                inject(m, rhs, *n, i, RhsTerm::Isrc { elem, neg: false });
            }
            Element::Mosfet { d, g, s, model, .. } => {
                let st = MosStamp::at(model, [v_of(*d), v_of(*g), v_of(*s)]);
                let rows = [idx(*d), idx(*g), idx(*s)];
                for (j, &(r, c)) in MOS_STAMPS.iter().enumerate() {
                    if let (Some(r), Some(c)) = (rows[r], rows[c]) {
                        m.add(r, c, st.g[j], Stamp::Mos { mos, j: j as u8 });
                    }
                }
                inject(m, rhs, *d, -st.ieq, RhsTerm::Mos { mos, neg: true });
                inject(m, rhs, *s, st.ieq, RhsTerm::Mos { mos, neg: false });
                mos += 1;
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
        assert!((op.voltages()[mid.index()] - 0.75).abs() < 1e-9);
        assert!((op.voltages()[vdd.index()] - 1.0).abs() < 1e-12);
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
        assert!((op.voltages()[a.index()] - 1.0).abs() < 1e-6);
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
        assert!((op.voltages()[mid.index()] - 1.0).abs() < 1e-6);
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
        assert!((op.voltages()[a.index()] - 2.0).abs() < 1e-9);
        assert!((op.voltages()[b.index()] - 1.0).abs() < 1e-9);
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
        assert!(
            op.voltages()[out.index()] < 0.25,
            "out = {}",
            op.voltages()[out.index()]
        );

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
        assert!(
            op2.voltages()[out2.index()] > 0.65,
            "out = {}",
            op2.voltages()[out2.index()]
        );
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
        let i1 = (op.voltages()[vdd.index()] - op.voltages()[mid.index()]) / 7e3;
        let i2 = op.voltages()[mid.index()] / 3e3;
        assert!((i1 - i2).abs() < 1e-9);
    }

    #[test]
    fn floating_node_is_held_by_gmin() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.add_capacitor("C1", a, Netlist::GROUND, 1e-15).unwrap();
        let op = OperatingPoint::solve(&net).unwrap();
        assert!(op.voltages()[a.index()].abs() < 1e-6);
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
                .fold(0.0, |m, (&a, &b)| fold_delta(m, a, b));
            let Some(scale) = newton_damping(max_delta) else {
                return x_new;
            };
            for (xi, &xn) in x.iter_mut().zip(&x_new) {
                *xi = damp(*xi, xn, scale);
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
        let policy = ReactivePolicy::Step {
            rule: Companion {
                trap: false,
                dt: 1e-12,
            },
            prev_v: &prev_v,
            prev_ic: &[0.0; 2],
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
