//! Batched structure-of-arrays trial solver.
//!
//! Monte-Carlo sweeps over interconnect variability run thousands of
//! *structurally identical* netlists that differ only in R/C values and
//! device parameters. The scalar path ([`crate::transient::Transient`])
//! pays per-trial assembly, per-trial LU traffic, and per-trial waveform
//! storage. This module runs N such trials ("lanes") through **one**
//! shared stamp program and **one** shared [`SymbolicLu`] analysis, with
//! every numeric array widened by the lane count and interleaved
//! `[slot][lane]`, so the refactor / solve / companion-step inner loops
//! autovectorize over contiguous f64 lanes:
//!
//! ```text
//!            slot 0        slot 1        slot 2
//!          ┌───────────┬─────────────┬─────────────┬─ ...
//!   vals   │ l0 l1 l2 l3│ l0 l1 l2 l3│ l0 l1 l2 l3 │
//!          └───────────┴─────────────┴─────────────┴─ ...
//! ```
//!
//! # Bit-identical to the scalar path
//!
//! Lanes never mix arithmetically: every floating-point operation a lane
//! experiences is exactly the operation the scalar compiled kernel would
//! have performed for that trial, in the same order (the one value-level
//! branch in the LU update becomes a per-lane select, which preserves
//! even `-0.0` semantics). Lanes whose trial would *diverge* from the
//! shared structure — a different stamp sequence, a symbolic analysis
//! that pivots differently, a pivot drifting below tolerance, Newton
//! non-convergence — **fall out** of the batch
//! ([`BatchLaneOutcome::FellOut`]) and the caller re-runs them through
//! the scalar path from scratch, which reproduces the scalar result
//! (including errors) trivially. Batch composition therefore never
//! affects any trial's bits.
//!
//! # Per-iteration assembly
//!
//! The first assembly of each (method-phase, step-size) key records the
//! full stamp stream per lane, exactly like the scalar compiled kernel,
//! and caches the resulting static value image per key — fixed-step
//! transients flip between a handful of keys (the UIC backward-Euler
//! bootstrap, the nominal dt and its float-jitter neighbours, the
//! shortened final step), and re-recording on every flip dominated the
//! early batch profile. Static stamps (GMIN, resistors, capacitor
//! companions, source incidence) live in CSR slots no MOSFET touches
//! and keep their seeded values across iterations; slots touched by any
//! MOSFET stamp are zeroed and have *all* their stamps replayed per
//! Newton iteration in original program order (f64 accumulation is
//! order-sensitive). Right-hand-side terms that are constant within a
//! step (source waveforms, capacitor companion currents) are staged
//! once per step. A Newton iteration is then: zero the MOSFET-touched
//! slots, per-lane MOSFET linearizations into a staged dynamic-value
//! stream, a short mixed-slot replay, an RHS rebuild from staged
//! per-step constants, one batched refactor, one batched solve.

use crate::error::SpiceError;
use crate::mna::{
    assemble_into, is_linear, system_size, ReactivePolicy, StampRecorder, MAX_ITERS, VSTEP_MAX,
    VTOL,
};
use crate::mosfet::MosfetModel;
use crate::netlist::{Element, Netlist, NodeId};
use crate::sparse::{CsrMatrix, LuBatchWorkspace, SymbolicLu};
use crate::transient::Method;

/// What a batched transient should run: the scalar
/// [`crate::transient::Transient`] configuration, made explicit so one
/// spec drives every lane.
#[derive(Debug, Clone, Copy)]
pub struct BatchTransientSpec<'a> {
    /// Integration method (the UIC bootstrap step is backward Euler,
    /// exactly as in the scalar path).
    pub method: Method,
    /// Fixed time step, s.
    pub dt: f64,
    /// End time, s (the final step is shortened to land on it).
    pub t_stop: f64,
    /// Initial node voltages. Non-empty switches every lane to UIC mode
    /// (like [`crate::transient::Transient::set_initial_voltage`]);
    /// empty solves each lane's DC operating point instead. Node ids
    /// are interpreted in every lane — structurally identical netlists
    /// intern identical ids.
    pub initial: &'a [(NodeId, f64)],
    /// Nodes whose waveforms to capture. Only probed waveforms are
    /// stored (the scalar path stores every node), which is a large
    /// part of the batch speedup.
    pub probes: &'a [NodeId],
}

/// Why a lane left the batch for the scalar fall-out path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LaneFalloutReason {
    /// The lane's netlist is not structurally identical to the batch
    /// reference (element kinds, terminals, or counts differ).
    StructureMismatch,
    /// The lane's own symbolic LU analysis failed or chose a different
    /// pivot order than the batch's shared analysis.
    SymbolicMismatch,
    /// A pivot drifted below tolerance under the shared analysis (the
    /// scalar path would re-analyze mid-run; the batch evicts instead).
    PivotDrift,
    /// Newton failed to converge within the iteration limit, or the
    /// lane's DC operating point failed to solve.
    NonConvergence,
}

/// Per-lane result of a batched transient.
#[derive(Debug, Clone)]
pub enum BatchLaneOutcome {
    /// The lane stayed in the batch to its end: `t_stop`, or the step
    /// at which every lane still in it had stopped
    /// ([`run_transient_batch_until`]).
    Completed {
        /// One waveform per entry of [`BatchTransientSpec::probes`], on
        /// the shared time grid.
        probes: Vec<Vec<f64>>,
    },
    /// The lane was evicted; re-run it through the scalar path.
    FellOut {
        /// Why the lane was evicted.
        reason: LaneFalloutReason,
    },
}

/// Result of [`run_transient_batch`]: the shared time grid plus one
/// outcome per input netlist, in input order.
#[derive(Debug, Clone)]
pub struct BatchTransientResult {
    /// Time points, s (`t = 0` first; shared by all completed lanes).
    pub times: Vec<f64>,
    /// One outcome per lane.
    pub lanes: Vec<BatchLaneOutcome>,
}

/// Reusable numeric storage for batched transients. One workspace per
/// worker thread: [`run_transient_batch`] resizes the buffers in place,
/// so consecutive batches of the same structure allocate nothing in the
/// solve loop (asserted by the `spice.batch_workspace_bytes` gauge
/// staying flat across waves).
#[derive(Debug, Default)]
pub struct BatchedMnaWorkspace {
    /// CSR values, `[slot][lane]`.
    vals: Vec<f64>,
    /// Per-key recorded stamp values, `[program index][lane]`.
    stamp_vals: Vec<f64>,
    /// Cached static images per companion key. Fixed-step transients
    /// flip between a handful of keys (the UIC backward-Euler step, the
    /// nominal dt, its float-jitter neighbours, the shortened final
    /// step); re-recording each flip was the single largest batch cost.
    /// Slots are reused across batches; `key` is `None` when free.
    key_images: Vec<KeyImage>,
    /// Which key the buffers in `stamp_vals` / `vals` currently encode
    /// (`None` until the first record). Key switches *swap* buffers with
    /// the key's pooled image instead of copying them.
    resident_key: Option<(bool, u64)>,
    /// Logical clock driving the key-image LRU.
    key_clock: u64,
    /// Per-step right-hand-side constants: voltage-source values,
    /// `[vsource][lane]`.
    vsrc_vals: Vec<f64>,
    /// Per-step current-source values, `[isource][lane]`.
    isrc_vals: Vec<f64>,
    /// Per-step capacitor companion currents for the RHS,
    /// `[capacitor][lane]`.
    cap_rhs: Vec<f64>,
    /// Per-iteration MOSFET stamp values, `[dyn index][lane]`.
    dyn_vals: Vec<f64>,
    /// Per-iteration MOSFET Norton currents, `[mosfet][lane]`.
    mos_ieq: Vec<f64>,
    /// Capacitances, `[capacitor][lane]`.
    cap_farads: Vec<f64>,
    /// Right-hand sides, `[row][lane]` interleaved like `vals`, so the
    /// per-op RHS build and the solve's permutation gather are both
    /// contiguous lanes-wide operations.
    rhs: Vec<f64>,
    /// Scalar scratch RHS for the recording path (one lane at a time).
    rec_rhs: Vec<f64>,
    /// Scalar scratch guess for the recording path.
    rec_x: Vec<f64>,
    /// Newton guesses, `[row][lane]` interleaved.
    x: Vec<f64>,
    /// Newton solutions, `[row][lane]` interleaved (the batched solve
    /// writes them with one contiguous copy — no transpose).
    x_new: Vec<f64>,
    /// Per-lane Newton deltas / damping scales / accept masks (all-ones
    /// or zero) for the row-sweep convergence pass.
    conv_delta: Vec<f64>,
    conv_scale: Vec<f64>,
    conv_copy: Vec<u64>,
    conv_damp: Vec<u64>,
    /// Node voltages at the previous step, `[node][lane]` interleaved
    /// (ground row included and always zero) so per-step staging and
    /// accept sweeps run lanes-contiguous.
    node_v: Vec<f64>,
    /// Capacitor companion currents, `[capacitor][lane]` interleaved.
    cap_i: Vec<f64>,
    /// Scalar scratch node voltages / companion currents for the
    /// recording path (one lane, transposed out of the interleaved
    /// buffers).
    rec_nv: Vec<f64>,
    rec_ic: Vec<f64>,
    /// Batched LU factors and scatter rows.
    lu: LuBatchWorkspace,
    /// Per-lane first failing pivot row of the last refactor.
    fail_row: Vec<Option<usize>>,
    /// Recording sink reused across key changes and lanes.
    rec: StampRecorder,
}

impl BatchedMnaWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity bytes currently held across all buffers. Feeds the
    /// `spice.batch_workspace_bytes` gauge; steady-state MC waves must
    /// hold this flat.
    pub fn bytes(&self) -> usize {
        let images: usize = self
            .key_images
            .iter()
            .map(|i| i.stamp_vals.capacity() + i.vals.capacity())
            .sum();
        8 * (self.vals.capacity()
            + images
            + self.vsrc_vals.capacity()
            + self.isrc_vals.capacity()
            + self.cap_rhs.capacity()
            + self.stamp_vals.capacity()
            + self.dyn_vals.capacity()
            + self.mos_ieq.capacity()
            + self.cap_farads.capacity()
            + self.rhs.capacity()
            + self.rec_rhs.capacity()
            + self.rec_x.capacity()
            + self.x.capacity()
            + self.x_new.capacity()
            + self.conv_delta.capacity()
            + self.conv_scale.capacity()
            + self.node_v.capacity()
            + self.cap_i.capacity()
            + self.rec_nv.capacity()
            + self.rec_ic.capacity())
            + 8 * self.conv_copy.capacity()
            + 8 * self.conv_damp.capacity()
            + 16 * self.fail_row.capacity()
            + 16 * self.rec.coords.capacity()
            + 8 * self.rec.vals.capacity()
            + self.lu.bytes()
    }
}

/// Cached static images of one companion key: the recorded stamp
/// stream and the fully seeded value image. Buffers are reused across
/// batches (`key` is cleared, capacity kept) so the workspace-bytes
/// gauge stays flat in steady state.
#[derive(Debug, Default)]
struct KeyImage {
    /// `(use_be, dt_k bits)`; `None` = slot free.
    key: Option<(bool, u64)>,
    /// Logical timestamp of the last hit, for LRU replacement.
    last_used: u64,
    stamp_vals: Vec<f64>,
    vals: Vec<f64>,
}

/// Upper bound on cached key images per batch. Fixed-step transients
/// produce at most a handful of distinct keys (BE bootstrap, nominal
/// dt, float-jitter neighbours, shortened final step); anything beyond
/// the bound falls back to re-recording, which is merely slower.
const MAX_KEY_IMAGES: usize = 32;

/// One static/dynamic-classified entry of the per-iteration replay
/// program (only slots touched by a MOSFET stamp appear here).
#[derive(Debug, Clone, Copy)]
enum IterStamp {
    /// Replay a recorded static stamp value.
    Stat {
        /// Destination CSR slot.
        slot: u32,
        /// Program index into `stamp_vals`.
        p: u32,
    },
    /// Replay a freshly staged MOSFET stamp value.
    Dyn {
        /// Destination CSR slot.
        slot: u32,
        /// Index into `dyn_vals`.
        k: u32,
    },
}

/// One right-hand-side operation, in element order. The RHS is rebuilt
/// from scratch every Newton iteration, exactly like the scalar path.
#[derive(Debug, Clone, Copy)]
enum RhsOp {
    /// Capacitor companion current (form depends on the step's policy).
    Cap {
        /// Capacitor index (into `cap_farads` / `cap_i`).
        cap: usize,
        /// Matrix row of terminal `a` (`None` = ground).
        a_row: Option<usize>,
        /// Matrix row of terminal `b`.
        b_row: Option<usize>,
        /// `node_v` index of terminal `a` (ground included).
        a_nv: usize,
        /// `node_v` index of terminal `b`.
        b_nv: usize,
    },
    /// Voltage-source row assignment `rhs[row] = waveform(t)`.
    Vsrc {
        /// Branch-current row.
        row: usize,
        /// Element index (per-lane waveform lookup).
        elem: usize,
        /// Index into the staged `vsrc_vals`.
        vs: usize,
    },
    /// Current-source injection.
    Isrc {
        /// Matrix row of terminal `p`.
        p_row: Option<usize>,
        /// Matrix row of terminal `n`.
        n_row: Option<usize>,
        /// Element index.
        elem: usize,
        /// Index into the staged `isrc_vals`.
        is_: usize,
    },
    /// MOSFET Norton current (staged by the dynamic evaluation).
    Mos {
        /// Matrix row of the drain.
        d_row: Option<usize>,
        /// Matrix row of the source.
        s_row: Option<usize>,
        /// Mosfet index (into `mos_ieq`).
        mos: usize,
    },
}

/// Topology of one MOSFET, resolved to matrix rows.
#[derive(Debug, Clone, Copy)]
struct MosInfo {
    elem: usize,
    d_row: Option<usize>,
    g_row: Option<usize>,
    s_row: Option<usize>,
    /// First index of this device's stamps in the dynamic value stream.
    dyn_base: usize,
}

/// The compiled shared structure of one batch.
struct CompiledBatch {
    pattern: CsrMatrix,
    program: Vec<u32>,
    iter_prog: Vec<IterStamp>,
    /// CSR slots touched by any MOSFET stamp: zeroed before each
    /// per-iteration replay (every other slot keeps its seeded value).
    dyn_slots: Vec<u32>,
    rhs_ops: Vec<RhsOp>,
    mosfets: Vec<MosInfo>,
    /// Dense per-lane model copies, `[mosfet][lane]` — the staging loop
    /// reads these instead of chasing each lane's `Element` storage.
    models: Vec<MosfetModel>,
    /// Per-stamp value provenance: how to rebuild `stamp_vals` for a
    /// companion key that has never been recorded.
    static_src: Vec<StaticSrc>,
    /// Key-independent stamp values, `[fixed][lane]`, captured from the
    /// first (and only) scalar recording pass.
    fixed_vals: Vec<f64>,
    /// Staged-array extents: voltage sources, current sources.
    n_vsrc: usize,
    n_isrc: usize,
    sym: SymbolicLu,
}

/// Walks the MOSFET matrix-stamp emission sequence of
/// [`assemble_into`] — the single source of truth shared by structural
/// classification (coordinates) and the per-iteration value staging, so
/// the two can never desynchronize.
fn for_each_mos_stamp(
    d_row: Option<usize>,
    g_row: Option<usize>,
    s_row: Option<usize>,
    mut f: impl FnMut(usize, usize),
) {
    if let Some(id_) = d_row {
        f(id_, id_);
        if let Some(ig) = g_row {
            f(id_, ig);
        }
        if let Some(is_) = s_row {
            f(id_, is_);
        }
    }
    if let Some(is_) = s_row {
        f(is_, is_);
        if let Some(ig) = g_row {
            f(is_, ig);
        }
        if let Some(id_) = d_row {
            f(is_, id_);
        }
    }
}

/// How a static stamp's *value* is produced for a new companion key
/// without re-running the scalar assembly. Key-independent values
/// (GMIN, resistor conductances, voltage-source `±1`s) are captured
/// per lane at the first record; capacitor companion conductances are
/// recomputed from the stored per-lane farads with the scalar path's
/// exact expression.
#[derive(Debug, Clone, Copy)]
enum StaticSrc {
    /// Key-independent: `fixed_vals[fi]` captured at first record.
    Fixed(u32),
    /// Capacitor companion diagonal: `+g` for cap `ci`.
    CapDiag(u32),
    /// Capacitor companion off-diagonal: `-g` for cap `ci`.
    CapOff(u32),
    /// MOSFET stamp: staged per iteration, value irrelevant at seed.
    Dyn,
}

/// Classification output: per recorded stamp, is it static or the
/// `k`-th dynamic value; plus the RHS program and MOSFET topology.
struct Classified {
    coords: Vec<(usize, usize)>,
    /// `None` = static stamp, `Some(k)` = k-th dynamic value.
    dyn_of: Vec<Option<u32>>,
    /// Per-stamp value provenance for key reseeding.
    static_src: Vec<StaticSrc>,
    rhs_ops: Vec<RhsOp>,
    mosfets: Vec<MosInfo>,
    n_dyn: usize,
    n_fixed: usize,
    n_isrc: usize,
}

/// Mirrors [`assemble_into`]'s structural (value-independent) branch
/// sequence, emitting one classified coordinate per stamp call plus the
/// RHS program. The caller asserts the coordinates against an actual
/// recorded assembly, so any drift between this walk and the real one
/// is caught at batch setup, not silently computed wrong.
fn classify(net: &Netlist) -> Classified {
    let nn = net.num_nodes();
    let idx = |node: NodeId| -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    };

    let mut c = Classified {
        coords: Vec::new(),
        dyn_of: Vec::new(),
        static_src: Vec::new(),
        rhs_ops: Vec::new(),
        mosfets: Vec::new(),
        n_dyn: 0,
        n_fixed: 0,
        n_isrc: 0,
    };
    let stat = |c: &mut Classified, r: usize, col: usize| {
        c.coords.push((r, col));
        c.dyn_of.push(None);
        c.static_src.push(StaticSrc::Fixed(c.n_fixed as u32));
        c.n_fixed += 1;
    };
    // `cap`: `Some(ci)` when the conductance is a capacitor companion
    // (key-dependent), `None` for a plain resistor (key-independent).
    let conductance = |c: &mut Classified, a: NodeId, b: NodeId, cap: Option<u32>| {
        let diag = |c: &mut Classified| match cap {
            Some(ci) => c.static_src.push(StaticSrc::CapDiag(ci)),
            None => {
                c.static_src.push(StaticSrc::Fixed(c.n_fixed as u32));
                c.n_fixed += 1;
            }
        };
        let off = |c: &mut Classified| match cap {
            Some(ci) => c.static_src.push(StaticSrc::CapOff(ci)),
            None => {
                c.static_src.push(StaticSrc::Fixed(c.n_fixed as u32));
                c.n_fixed += 1;
            }
        };
        if let Some(ia) = idx(a) {
            c.coords.push((ia, ia));
            c.dyn_of.push(None);
            diag(c);
        }
        if let Some(ib) = idx(b) {
            c.coords.push((ib, ib));
            c.dyn_of.push(None);
            diag(c);
        }
        if let (Some(ia), Some(ib)) = (idx(a), idx(b)) {
            c.coords.push((ia, ib));
            c.dyn_of.push(None);
            off(c);
            c.coords.push((ib, ia));
            c.dyn_of.push(None);
            off(c);
        }
    };

    for node in 1..nn {
        stat(&mut c, node - 1, node - 1);
    }

    let mut vsrc = 0usize;
    let mut cap_index = 0usize;
    for (e_idx, e) in net.elements().iter().enumerate() {
        match e {
            Element::Resistor { a, b, .. } => conductance(&mut c, *a, *b, None),
            Element::Capacitor { a, b, .. } => {
                // Transient policies always stamp the companion
                // conductance (only DC skips it, and batches never run
                // a DC policy).
                conductance(&mut c, *a, *b, Some(cap_index as u32));
                c.rhs_ops.push(RhsOp::Cap {
                    cap: cap_index,
                    a_row: idx(*a),
                    b_row: idx(*b),
                    a_nv: a.index(),
                    b_nv: b.index(),
                });
                cap_index += 1;
            }
            Element::VSource { p, n, .. } => {
                let row = nn - 1 + vsrc;
                if let Some(ip) = idx(*p) {
                    stat(&mut c, ip, row);
                    stat(&mut c, row, ip);
                }
                if let Some(in_) = idx(*n) {
                    stat(&mut c, in_, row);
                    stat(&mut c, row, in_);
                }
                c.rhs_ops.push(RhsOp::Vsrc {
                    row,
                    elem: e_idx,
                    vs: vsrc,
                });
                vsrc += 1;
            }
            Element::ISource { p, n, .. } => {
                c.rhs_ops.push(RhsOp::Isrc {
                    p_row: idx(*p),
                    n_row: idx(*n),
                    elem: e_idx,
                    is_: c.n_isrc,
                });
                c.n_isrc += 1;
            }
            Element::Mosfet { d, g, s, .. } => {
                let (d_row, g_row, s_row) = (idx(*d), idx(*g), idx(*s));
                let dyn_base = c.n_dyn;
                for_each_mos_stamp(d_row, g_row, s_row, |r, col| {
                    c.coords.push((r, col));
                    c.dyn_of.push(Some(c.n_dyn as u32));
                    c.static_src.push(StaticSrc::Dyn);
                    c.n_dyn += 1;
                });
                c.rhs_ops.push(RhsOp::Mos {
                    d_row,
                    s_row,
                    mos: c.mosfets.len(),
                });
                c.mosfets.push(MosInfo {
                    elem: e_idx,
                    d_row,
                    g_row,
                    s_row,
                    dyn_base,
                });
            }
        }
    }
    c
}

/// `true` when lane `net` is structurally identical to `reference`:
/// same node count, same source count, same element kind/terminal
/// sequence. Values (R, C, waveforms, models) are free to differ.
fn same_structure(reference: &Netlist, net: &Netlist) -> bool {
    if reference.num_nodes() != net.num_nodes()
        || reference.num_vsources() != net.num_vsources()
        || reference.elements().len() != net.elements().len()
    {
        return false;
    }
    reference
        .elements()
        .iter()
        .zip(net.elements())
        .all(|(a, b)| match (a, b) {
            (Element::Resistor { a: a1, b: b1, .. }, Element::Resistor { a: a2, b: b2, .. }) => {
                a1 == a2 && b1 == b2
            }
            (Element::Capacitor { a: a1, b: b1, .. }, Element::Capacitor { a: a2, b: b2, .. }) => {
                a1 == a2 && b1 == b2
            }
            (Element::VSource { p: p1, n: n1, .. }, Element::VSource { p: p2, n: n2, .. }) => {
                p1 == p2 && n1 == n2
            }
            (Element::ISource { p: p1, n: n1, .. }, Element::ISource { p: p2, n: n2, .. }) => {
                p1 == p2 && n1 == n2
            }
            (
                Element::Mosfet {
                    d: d1,
                    g: g1,
                    s: s1,
                    ..
                },
                Element::Mosfet {
                    d: d2,
                    g: g2,
                    s: s2,
                    ..
                },
            ) => d1 == d2 && g1 == g2 && s1 == s2,
            _ => false,
        })
}

/// Runs one transient analysis over `nets.len()` structurally identical
/// netlists at once, sharing one stamp program and one symbolic LU
/// analysis across all lanes. Per-lane results are **bit-identical** to
/// the scalar compiled kernel ([`crate::transient::Transient::run`]);
/// lanes the batch cannot carry fall out ([`BatchLaneOutcome::FellOut`])
/// and should be re-run through the scalar path.
///
/// The same as [`run_transient_batch_until`] with a stop that never
/// fires.
///
/// # Errors
///
/// [`SpiceError::InvalidAnalysis`] for an empty batch, an empty
/// reference netlist, non-positive `dt`/`t_stop`, or an absurd step
/// count — conditions shared by every lane. Per-lane failures are
/// reported per lane, never as a batch error.
pub fn run_transient_batch(
    nets: &[&Netlist],
    spec: &BatchTransientSpec<'_>,
    ws: &mut BatchedMnaWorkspace,
) -> Result<BatchTransientResult, SpiceError> {
    run_transient_batch_until(nets, spec, ws, |_, _, _| false)
}

/// Runs [`run_transient_batch`], but asks `stop(lane, times, probes)`
/// after every accepted step whether that lane's record so far (the
/// shared time grid and the lane's probe waveforms) is enough. A lane
/// is asked until it first answers `true`; the batch ends after the
/// first step at which every lane still in it has answered `true`.
///
/// Every lane's record is a bit-identical prefix of what
/// [`run_transient_batch`] returns (and so of the scalar
/// [`crate::transient::Transient::run`]), because each step depends
/// only on earlier ones: a measurement that reads nothing after the
/// step where the lane's `stop` fired gives the same answer on either.
///
/// # Errors
///
/// As [`run_transient_batch`].
pub fn run_transient_batch_until(
    nets: &[&Netlist],
    spec: &BatchTransientSpec<'_>,
    ws: &mut BatchedMnaWorkspace,
    mut stop: impl FnMut(usize, &[f64], &[Vec<f64>]) -> bool,
) -> Result<BatchTransientResult, SpiceError> {
    if nets.is_empty() {
        return Err(SpiceError::InvalidAnalysis {
            message: "batch needs at least one netlist".into(),
        });
    }
    if nets[0].elements().is_empty() {
        return Err(SpiceError::InvalidAnalysis {
            message: "netlist has no elements".into(),
        });
    }
    let (dt, t_stop) = (spec.dt, spec.t_stop);
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

    let _span = mpvar_trace::span!(
        mpvar_trace::names::SPAN_SPICE_BATCH,
        lanes = nets.len(),
        dt = dt,
        t_stop = t_stop,
    );

    let lanes = nets.len();
    let net0 = nets[0];
    let nn = net0.num_nodes();
    let size = system_size(net0);
    let linear = is_linear(net0);
    let uic = !spec.initial.is_empty();

    // --- Lane admission: structural identity with the reference -------
    let mut fallout: Vec<Option<LaneFalloutReason>> = vec![None; lanes];
    for (l, net) in nets.iter().enumerate().skip(1) {
        if !same_structure(net0, net) {
            fallout[l] = Some(LaneFalloutReason::StructureMismatch);
        }
    }

    // --- State buffers (reused across batches) ------------------------
    let caps: Vec<(NodeId, NodeId)> = net0
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Capacitor { a, b, .. } => Some((*a, *b)),
            _ => None,
        })
        .collect();
    let ncaps = caps.len();

    ws.rhs.clear();
    ws.rhs.resize(lanes * size, 0.0);
    ws.x.clear();
    ws.x.resize(lanes * size, 0.0);
    ws.x_new.clear();
    ws.x_new.resize(lanes * size, 0.0);
    ws.node_v.clear();
    ws.node_v.resize(lanes * nn, 0.0);
    ws.cap_i.clear();
    ws.cap_i.resize(lanes * ncaps, 0.0);
    ws.cap_farads.clear();
    ws.cap_farads.resize(ncaps * lanes, 0.0);
    ws.fail_row.clear();
    ws.fail_row.resize(lanes, None);
    // Key images from previous batches are stale (different draws mean
    // different static values); free the tags, keep the capacity.
    ws.resident_key = None;
    for img in &mut ws.key_images {
        img.key = None;
    }

    for (l, net) in nets.iter().enumerate() {
        if fallout[l].is_some() {
            continue;
        }
        let mut ci = 0usize;
        for e in net.elements() {
            if let Element::Capacitor { farads, .. } = e {
                ws.cap_farads[ci * lanes + l] = *farads;
                ci += 1;
            }
        }
    }

    // --- Initial state -------------------------------------------------
    if uic {
        for (l, f) in fallout.iter().enumerate() {
            if f.is_some() {
                continue;
            }
            for &(node, v) in spec.initial {
                ws.node_v[node.index() * lanes + l] = v;
                if !node.is_ground() {
                    ws.x[(node.index() - 1) * lanes + l] = v;
                }
            }
        }
    } else {
        for (l, net) in nets.iter().enumerate() {
            if fallout[l].is_some() {
                continue;
            }
            match crate::mna::OperatingPoint::solve(net) {
                Ok(op) => {
                    for (i, &v) in op.voltages().iter().enumerate() {
                        ws.node_v[i * lanes + l] = v;
                    }
                    for i in 0..nn - 1 {
                        ws.x[i * lanes + l] = ws.node_v[(1 + i) * lanes + l];
                    }
                }
                Err(_) => fallout[l] = Some(LaneFalloutReason::NonConvergence),
            }
        }
    }

    // --- Result storage ------------------------------------------------
    let mut times = Vec::with_capacity(steps + 1);
    times.push(0.0);
    let mut probe_series: Vec<Vec<Vec<f64>>> = (0..lanes)
        .map(|_| {
            (0..spec.probes.len())
                .map(|_| Vec::with_capacity(steps + 1))
                .collect()
        })
        .collect();
    for l in 0..lanes {
        if fallout[l].is_some() {
            continue;
        }
        for (pi, probe) in spec.probes.iter().enumerate() {
            probe_series[l][pi].push(ws.node_v[probe.index() * lanes + l]);
        }
    }

    // --- Batch counters -------------------------------------------------
    let mut n_batch_solves = 0u64;
    let mut n_refactors = 0u64;

    // --- Step loop -------------------------------------------------------
    let mut compiled: Option<CompiledBatch> = None;
    let mut current_key: Option<(bool, f64)> = None;
    let mut live = vec![false; lanes];
    // Lanes whose `stop` has fired; they keep stepping with the batch.
    let mut done = vec![false; lanes];
    let mut first_step = true;
    let mut t_prev = 0.0f64;

    'steps: for k in 1..=steps {
        let t = if k == steps { t_stop } else { k as f64 * dt };
        let dt_k = t - t_prev;
        let use_be = matches!(spec.method, Method::BackwardEuler) || (first_step && uic);
        let key = (use_be, dt_k);
        let key_changed = current_key != Some(key);

        for l in 0..lanes {
            live[l] = fallout[l].is_none();
        }
        if !live.iter().any(|&a| a) {
            break 'steps;
        }
        n_batch_solves += 1;

        for iter in 0..MAX_ITERS {
            // ---- Assembly -------------------------------------------
            let geom = BatchGeom {
                lanes,
                nn,
                size,
                ncaps,
            };
            if iter == 0 && key_changed {
                let kk = (use_be, dt_k.to_bits());
                if let Some(c) = compiled.as_ref() {
                    // A previously recorded key swaps its static
                    // images back in; a known structure under a
                    // never-seen key rebuilds them analytically — no
                    // scalar recording pass either way.
                    if !switch_key_image(ws, kk) {
                        reseed_key(ws, c, use_be, dt_k, lanes);
                        adopt_key(ws, kk);
                    }
                    stage_step_constants(nets, ws, c, &live, t, dt_k, use_be, geom);
                    assemble_compiled(ws, c, &live, geom);
                } else {
                    compiled = compile_batch(nets, ws, &mut fallout, t, dt_k, use_be, geom);
                    for l in 0..lanes {
                        if fallout[l].is_some() {
                            live[l] = false;
                        }
                    }
                    if compiled.is_none() || !live.iter().any(|&a| a) {
                        break;
                    }
                    adopt_key(ws, kk);
                    let c = compiled.as_ref().expect("compiled at first key");
                    stage_step_constants(nets, ws, c, &live, t, dt_k, use_be, geom);
                }
                current_key = Some(key);
            } else {
                let c = compiled.as_ref().expect("compiled at first key");
                if iter == 0 {
                    stage_step_constants(nets, ws, c, &live, t, dt_k, use_be, geom);
                }
                assemble_compiled(ws, c, &live, geom);
            }
            let c = compiled.as_ref().expect("compiled at first key");

            // ---- Factor ---------------------------------------------
            // The scalar linear fast path factors only when the
            // companion key changes; the nonlinear path factors every
            // iteration.
            if !linear || key_changed {
                ws.fail_row.fill(None);
                c.sym
                    .refactor_batch(&c.pattern, &ws.vals, &mut ws.lu, &mut ws.fail_row);
                n_refactors += 1;
                for l in 0..lanes {
                    if live[l] && ws.fail_row[l].is_some() {
                        fallout[l] = Some(LaneFalloutReason::PivotDrift);
                        live[l] = false;
                    }
                }
                if !live.iter().any(|&a| a) {
                    break;
                }
            }

            // ---- Solve ----------------------------------------------
            c.sym.solve_batch(&mut ws.lu, &ws.rhs, &mut ws.x_new);

            // ---- Per-lane convergence (mirrors solve_nonlinear_ws) ---
            // Row sweeps over the `[row][lane]` layout: the per-lane
            // max-delta fold visits rows in the same ascending order as
            // the scalar path, so the `f64::max` chain is bit-identical.
            ws.conv_delta.clear();
            ws.conv_delta.resize(lanes, 0.0);
            for k in 0..size {
                let xr = &ws.x[k * lanes..k * lanes + lanes];
                let nr = &ws.x_new[k * lanes..k * lanes + lanes];
                for ((m, &a), &b) in ws.conv_delta.iter_mut().zip(xr).zip(nr) {
                    let d = (a - b).abs();
                    *m = m.max(d);
                }
            }
            let mut any_live = false;
            ws.conv_scale.clear();
            ws.conv_scale.resize(lanes, 0.0);
            ws.conv_copy.clear();
            ws.conv_copy.resize(lanes, 0);
            ws.conv_damp.clear();
            ws.conv_damp.resize(lanes, 0);
            for (l, alive) in live.iter_mut().enumerate() {
                if !*alive {
                    continue;
                }
                let max_delta = ws.conv_delta[l];
                if linear || max_delta <= VTOL {
                    ws.conv_copy[l] = u64::MAX;
                    *alive = false;
                    continue;
                }
                ws.conv_scale[l] = if max_delta > VSTEP_MAX {
                    VSTEP_MAX / max_delta
                } else {
                    1.0
                };
                ws.conv_damp[l] = u64::MAX;
                any_live = true;
            }
            // Converged lanes take the new solution verbatim (exact
            // bits), damped lanes apply the scalar path's damping
            // expression, and dead lanes keep their guess untouched.
            // The bit-select (not scale-zero arithmetic) keeps NaN/-0.0
            // garbage out of the result and compiles to vector blends.
            {
                let BatchedMnaWorkspace {
                    x,
                    x_new,
                    conv_scale,
                    conv_copy,
                    conv_damp,
                    ..
                } = &mut *ws;
                let sc = &conv_scale[..lanes];
                let mc = &conv_copy[..lanes];
                let md = &conv_damp[..lanes];
                for k in 0..size {
                    let xr = &mut x[k * lanes..k * lanes + lanes];
                    let nr = &x_new[k * lanes..k * lanes + lanes];
                    for ((((xv, &nv), &s), &c), &m) in xr.iter_mut().zip(nr).zip(sc).zip(mc).zip(md)
                    {
                        let xi = *xv;
                        let d = xi + s * (nv - xi);
                        let keep = !(c | m);
                        *xv = f64::from_bits(
                            (c & nv.to_bits()) | (m & d.to_bits()) | (keep & xi.to_bits()),
                        );
                    }
                }
            }
            if !any_live {
                break;
            }
        }
        // Lanes still live after MAX_ITERS did not converge.
        for l in 0..lanes {
            if live[l] {
                fallout[l] = Some(LaneFalloutReason::NonConvergence);
                live[l] = false;
            }
        }

        // ---- Accept the step for surviving lanes ---------------------
        // Row sweeps over the interleaved layouts: every lane computes,
        // fallen-out lanes just compute garbage that is never read
        // again (their outcome is re-run through the scalar path).
        for (ci, &(a, b)) in caps.iter().enumerate() {
            let ar = if a.is_ground() {
                None
            } else {
                Some(a.index() - 1)
            };
            let br = if b.is_ground() {
                None
            } else {
                Some(b.index() - 1)
            };
            let x = &ws.x;
            for l in 0..lanes {
                let v_new =
                    ar.map_or(0.0, |r| x[r * lanes + l]) - br.map_or(0.0, |r| x[r * lanes + l]);
                let v_old = ws.node_v[a.index() * lanes + l] - ws.node_v[b.index() * lanes + l];
                let cval = ws.cap_farads[ci * lanes + l];
                let ici = &mut ws.cap_i[ci * lanes + l];
                *ici = if use_be {
                    cval * (v_new - v_old) / dt_k
                } else {
                    2.0 * cval * (v_new - v_old) / dt_k - *ici
                };
            }
        }
        ws.node_v[lanes..nn * lanes].copy_from_slice(&ws.x[..(nn - 1) * lanes]);
        for l in 0..lanes {
            if fallout[l].is_some() {
                continue;
            }
            for (pi, probe) in spec.probes.iter().enumerate() {
                probe_series[l][pi].push(ws.node_v[probe.index() * lanes + l]);
            }
        }
        times.push(t);
        let mut all_done = true;
        for l in 0..lanes {
            if fallout[l].is_none() && !done[l] {
                done[l] = stop(l, &times, &probe_series[l]);
                all_done &= done[l];
            }
        }
        if all_done {
            break 'steps;
        }
        t_prev = t;
        first_step = false;
    }

    // --- Emit telemetry --------------------------------------------------
    if mpvar_trace::enabled() {
        mpvar_trace::counter_add(mpvar_trace::names::SPICE_BATCH_SOLVES, n_batch_solves);
        mpvar_trace::counter_add(mpvar_trace::names::SPICE_BATCH_LANE_TRIALS, lanes as u64);
        mpvar_trace::counter_add(mpvar_trace::names::SPICE_BATCH_REFACTORS, n_refactors);
        let fell = fallout.iter().filter(|f| f.is_some()).count() as u64;
        if fell > 0 {
            mpvar_trace::counter_add(mpvar_trace::names::SPICE_BATCH_FALLOUTS, fell);
        }
        mpvar_trace::gauge_set(
            mpvar_trace::names::SPICE_BATCH_WORKSPACE_BYTES,
            ws.bytes() as f64,
        );
    }

    let lanes_out = fallout
        .iter()
        .zip(probe_series)
        .map(|(f, probes)| match f {
            Some(reason) => BatchLaneOutcome::FellOut { reason: *reason },
            None => BatchLaneOutcome::Completed { probes },
        })
        .collect();
    Ok(BatchTransientResult {
        times,
        lanes: lanes_out,
    })
}

/// Batch dimensions threaded through the assembly helpers.
#[derive(Debug, Clone, Copy)]
struct BatchGeom {
    lanes: usize,
    nn: usize,
    size: usize,
    ncaps: usize,
}

/// Compiles the shared structure of a batch at its first companion
/// key. Records one full scalar assembly per admitted lane under that
/// key (this *is* that iteration's assembly — values **and** RHS),
/// seeds the value image, and builds the CSR pattern, stamp program,
/// static/dynamic classification, RHS program and the shared symbolic
/// analysis (evicting lanes whose own analysis fails or disagrees).
/// Returns `None` when every lane fell out before a shared analysis
/// existed.
#[allow(clippy::too_many_arguments)]
fn compile_batch(
    nets: &[&Netlist],
    ws: &mut BatchedMnaWorkspace,
    fallout: &mut [Option<LaneFalloutReason>],
    t: f64,
    dt_k: f64,
    use_be: bool,
    geom: BatchGeom,
) -> Option<CompiledBatch> {
    let BatchGeom { lanes, size, .. } = geom;
    let net0 = nets[0];

    let cls = classify(net0);
    let (pattern, program) = CsrMatrix::from_coords(size, &cls.coords);
    let nnz = pattern.nnz();
    let mut slot_has_dyn = vec![false; nnz];
    for (p, d) in cls.dyn_of.iter().enumerate() {
        if d.is_some() {
            slot_has_dyn[program[p] as usize] = true;
        }
    }
    let mut iter_prog = Vec::new();
    for (p, &slot) in program.iter().enumerate() {
        if slot_has_dyn[slot as usize] {
            iter_prog.push(match cls.dyn_of[p] {
                Some(k) => IterStamp::Dyn { slot, k },
                None => IterStamp::Stat { slot, p: p as u32 },
            });
        }
    }
    ws.vals.clear();
    ws.vals.resize(nnz * lanes, 0.0);
    ws.stamp_vals.clear();
    ws.stamp_vals.resize(program.len() * lanes, 0.0);
    ws.dyn_vals.clear();
    ws.dyn_vals.resize(cls.n_dyn * lanes, 0.0);
    ws.mos_ieq.clear();
    ws.mos_ieq.resize(cls.mosfets.len() * lanes, 0.0);

    record_lanes(nets, ws, &cls.coords, fallout, t, dt_k, use_be, geom);
    seed_vals(ws, &program, lanes);

    // Per-lane symbolic analysis: the first surviving lane's pivot
    // order becomes the batch's shared order; lanes that disagree
    // (or cannot be analyzed at all) fall out to the scalar path.
    let mut scratch = pattern.clone();
    let mut shared: Option<SymbolicLu> = None;
    for (l, f) in fallout.iter_mut().enumerate() {
        if f.is_some() {
            continue;
        }
        {
            let vals = scratch.values_mut();
            for (s, v) in vals.iter_mut().enumerate() {
                *v = ws.vals[s * lanes + l];
            }
        }
        match SymbolicLu::analyze(&scratch) {
            Ok(sym) => match &shared {
                None => shared = Some(sym),
                Some(r) if r.perm() == sym.perm() => {}
                Some(_) => *f = Some(LaneFalloutReason::SymbolicMismatch),
            },
            Err(_) => *f = Some(LaneFalloutReason::SymbolicMismatch),
        }
    }
    // `None`: every lane fell out before a shared analysis existed.
    let sym = shared?;
    ws.lu.prepare(&sym, lanes);
    let dyn_slots: Vec<u32> = (0..nnz)
        .filter(|&s| slot_has_dyn[s])
        .map(|s| s as u32)
        .collect();
    let mut models = Vec::with_capacity(cls.mosfets.len() * lanes);
    for info in &cls.mosfets {
        for net in nets {
            match &net.elements()[info.elem] {
                Element::Mosfet { model, .. } => models.push(*model),
                _ => unreachable!("lane structure verified at admission"),
            }
        }
    }
    // Capture the key-independent stamp values once; every future
    // key reseeds from these plus the recomputed cap companions —
    // no scalar assembly ever runs again for this batch.
    let mut fixed_vals = vec![0.0; cls.n_fixed * lanes];
    for (p, src) in cls.static_src.iter().enumerate() {
        if let StaticSrc::Fixed(fi) = *src {
            fixed_vals[fi as usize * lanes..(fi as usize + 1) * lanes]
                .copy_from_slice(&ws.stamp_vals[p * lanes..(p + 1) * lanes]);
        }
    }
    Some(CompiledBatch {
        pattern,
        program,
        iter_prog,
        dyn_slots,
        rhs_ops: cls.rhs_ops,
        mosfets: cls.mosfets,
        models,
        static_src: cls.static_src,
        fixed_vals,
        n_vsrc: net0.num_vsources(),
        n_isrc: cls.n_isrc,
        sym,
    })
}

/// Builds the static images (`stamp_vals`, seeded `vals`) for a
/// companion key that has no pooled image, **without scalar assembly**:
/// key-independent stamps copy from the captured `fixed_vals`, cap
/// companions recompute `g` with the scalar path's exact expression
/// (`farads / dt` for backward Euler, `2.0 * farads / dt` for
/// trapezoidal — negated for off-diagonals, both exact), and MOSFET
/// stamps stay zero (every assembly rebuilds them from staging). The
/// caller runs `stage_step_constants` + `assemble_compiled` afterwards,
/// the same proven-bit-identical path a restored key takes.
fn reseed_key(
    ws: &mut BatchedMnaWorkspace,
    c: &CompiledBatch,
    use_be: bool,
    dt_k: f64,
    lanes: usize,
) {
    // The resident buffers may have just been swapped out for a pooled
    // image's (possibly empty) vectors — size them before seeding.
    ws.stamp_vals.clear();
    ws.stamp_vals.resize(c.program.len() * lanes, 0.0);
    ws.vals.clear();
    ws.vals.resize(c.pattern.nnz() * lanes, 0.0);
    {
        let BatchedMnaWorkspace {
            stamp_vals,
            cap_farads,
            ..
        } = ws;
        for (p, src) in c.static_src.iter().enumerate() {
            let dst = &mut stamp_vals[p * lanes..(p + 1) * lanes];
            match *src {
                StaticSrc::Fixed(fi) => {
                    let fi = fi as usize;
                    dst.copy_from_slice(&c.fixed_vals[fi * lanes..(fi + 1) * lanes]);
                }
                StaticSrc::CapDiag(ci) => {
                    let ci = ci as usize;
                    let f = &cap_farads[ci * lanes..(ci + 1) * lanes];
                    for (d, &farads) in dst.iter_mut().zip(f) {
                        *d = if use_be {
                            farads / dt_k
                        } else {
                            2.0 * farads / dt_k
                        };
                    }
                }
                StaticSrc::CapOff(ci) => {
                    let ci = ci as usize;
                    let f = &cap_farads[ci * lanes..(ci + 1) * lanes];
                    for (d, &farads) in dst.iter_mut().zip(f) {
                        let g = if use_be {
                            farads / dt_k
                        } else {
                            2.0 * farads / dt_k
                        };
                        *d = -g;
                    }
                }
                StaticSrc::Dyn => {}
            }
        }
    }
    seed_vals(ws, &c.program, lanes);
}

/// Makes `key`'s static images (`stamp_vals`, seeded `vals`) resident
/// by *swapping* buffers with the key's pooled image — O(1), no copy.
/// The outgoing key's buffers are parked in its own image first (its
/// MOSFET-touched slots are dirty, but every assembly rebuilds those
/// from scratch, so parked images stay valid). Returns `false` when
/// `key` has never been recorded in this batch (or was evicted by the
/// LRU); the caller records it and then claims it via [`adopt_key`].
fn switch_key_image(ws: &mut BatchedMnaWorkspace, key: (bool, u64)) -> bool {
    park_resident(ws);
    let BatchedMnaWorkspace {
        key_images,
        key_clock,
        resident_key,
        stamp_vals,
        vals,
        ..
    } = ws;
    let Some(img) = key_images.iter_mut().find(|i| i.key == Some(key)) else {
        return false;
    };
    *key_clock += 1;
    img.last_used = *key_clock;
    img.key = None;
    std::mem::swap(stamp_vals, &mut img.stamp_vals);
    std::mem::swap(vals, &mut img.vals);
    // The claimed slot inherits whatever the last park left behind —
    // including the one empty buffer set a freshly grown pool rotates
    // through. Sizing it here (a no-op once every set is full) lets the
    // pool's byte footprint converge within the first batch instead of
    // creeping up one image on a later wave.
    img.stamp_vals.resize(stamp_vals.len(), 0.0);
    img.vals.resize(vals.len(), 0.0);
    *resident_key = Some(key);
    true
}

/// Marks the freshly recorded buffers as `key`'s resident image.
fn adopt_key(ws: &mut BatchedMnaWorkspace, key: (bool, u64)) {
    ws.resident_key = Some(key);
}

/// Parks the resident buffers into their key's pooled image, growing
/// the pool up to [`MAX_KEY_IMAGES`] and then evicting the
/// least-recently-hit image (an evicted key re-records on revisit).
fn park_resident(ws: &mut BatchedMnaWorkspace) {
    let BatchedMnaWorkspace {
        key_images,
        key_clock,
        resident_key,
        stamp_vals,
        vals,
        ..
    } = ws;
    let Some(rk) = resident_key.take() else {
        return;
    };
    *key_clock += 1;
    let slot = match key_images.iter().position(|i| i.key.is_none()) {
        Some(p) => p,
        None if key_images.len() < MAX_KEY_IMAGES => {
            key_images.push(KeyImage::default());
            key_images.len() - 1
        }
        None => {
            let (p, _) = key_images
                .iter()
                .enumerate()
                .min_by_key(|(_, i)| i.last_used)
                .expect("MAX_KEY_IMAGES > 0");
            p
        }
    };
    let img = &mut key_images[slot];
    img.key = Some(rk);
    img.last_used = *key_clock;
    std::mem::swap(stamp_vals, &mut img.stamp_vals);
    std::mem::swap(vals, &mut img.vals);
}

/// Runs the scalar recording assembly for every admitted lane: fills
/// that lane's RHS, captures the full stamp-value stream into
/// `stamp_vals`, and asserts the stamp sequence against the shared
/// classification (any desync between [`classify`] and the real
/// [`assemble_into`] walk dies here, loudly, at setup).
#[allow(clippy::too_many_arguments)]
fn record_lanes(
    nets: &[&Netlist],
    ws: &mut BatchedMnaWorkspace,
    coords: &[(usize, usize)],
    fallout: &[Option<LaneFalloutReason>],
    t: f64,
    dt_k: f64,
    use_be: bool,
    geom: BatchGeom,
) {
    let BatchGeom {
        lanes,
        nn,
        size,
        ncaps,
    } = geom;
    for (l, net) in nets.iter().enumerate() {
        if fallout[l].is_some() {
            continue;
        }
        ws.rec.coords.clear();
        ws.rec.vals.clear();
        ws.rec_rhs.clear();
        ws.rec_rhs.resize(size, 0.0);
        ws.rec_nv.clear();
        ws.rec_nv.resize(nn, 0.0);
        for r in 0..nn {
            ws.rec_nv[r] = ws.node_v[r * lanes + l];
        }
        ws.rec_ic.clear();
        ws.rec_ic.resize(ncaps, 0.0);
        for r in 0..ncaps {
            ws.rec_ic[r] = ws.cap_i[r * lanes + l];
        }
        let nv = &ws.rec_nv[..];
        let ic = &ws.rec_ic[..];
        let policy = if use_be {
            ReactivePolicy::BackwardEuler {
                dt: dt_k,
                prev_v: nv,
            }
        } else {
            ReactivePolicy::Trapezoidal {
                dt: dt_k,
                prev_v: nv,
                prev_ic: ic,
            }
        };
        ws.rec_x.clear();
        ws.rec_x.resize(size, 0.0);
        for r in 0..size {
            ws.rec_x[r] = ws.x[r * lanes + l];
        }
        let BatchedMnaWorkspace {
            rec,
            rec_rhs,
            rec_x,
            ..
        } = ws;
        assemble_into(net, t, policy, &rec_x[..], rec, rec_rhs);
        assert_eq!(
            ws.rec.coords, coords,
            "batch stamp classification desynced from assembly (lane {l})"
        );
        for (p, &v) in ws.rec.vals.iter().enumerate() {
            ws.stamp_vals[p * lanes + l] = v;
        }
        for (r, &v) in ws.rec_rhs.iter().enumerate() {
            ws.rhs[r * lanes + l] = v;
        }
    }
}

/// Rebuilds the value image (`vals`) from the freshly recorded stamp
/// stream, in program order — the same `+=` accumulation sequence the
/// scalar replayer performs, so per-slot sums are bit-identical. Slots
/// touched by any MOSFET stamp are seeded too, but every iteration's
/// [`assemble_compiled`] zeroes and re-accumulates them, preserving
/// mixed static/dynamic ordering.
fn seed_vals(ws: &mut BatchedMnaWorkspace, program: &[u32], lanes: usize) {
    ws.vals.fill(0.0);
    for (p, &slot) in program.iter().enumerate() {
        let s = slot as usize;
        let src = &ws.stamp_vals[p * lanes..p * lanes + lanes];
        let dst = &mut ws.vals[s * lanes..s * lanes + lanes];
        for (d, v) in dst.iter_mut().zip(src) {
            *d += v;
        }
    }
}

/// Compiled per-iteration assembly for all live lanes: `memcpy` the
/// static base, stage MOSFET linearizations, replay the mixed-slot
/// program, rebuild the RHS.
fn assemble_compiled(
    ws: &mut BatchedMnaWorkspace,
    c: &CompiledBatch,
    live: &[bool],
    geom: BatchGeom,
) {
    let BatchGeom { lanes, .. } = geom;
    // Static slots keep their seeded values; only MOSFET-touched slots
    // are rebuilt, so the per-iteration matrix traffic scales with the
    // device count rather than the full nonzero count.
    for &slot in &c.dyn_slots {
        ws.vals[slot as usize * lanes..slot as usize * lanes + lanes].fill(0.0);
    }

    // Stage every MOSFET's linearization for every live lane, in the
    // exact emission order of the scalar assembly.
    for (mi, info) in c.mosfets.iter().enumerate() {
        for l in 0..lanes {
            if !live[l] {
                continue;
            }
            let x = &ws.x;
            let v = |row: Option<usize>| row.map_or(0.0, |r| x[r * lanes + l]);
            let model = &c.models[mi * lanes + l];
            let vgs = v(info.g_row) - v(info.s_row);
            let vds = v(info.d_row) - v(info.s_row);
            let ss = model.evaluate(vgs, vds);
            ws.mos_ieq[mi * lanes + l] = ss.id - ss.gm * vgs - ss.gds * vds;
            let mut di = info.dyn_base;
            let mut push = |buf: &mut [f64], val: f64| {
                buf[di * lanes + l] = val;
                di += 1;
            };
            if info.d_row.is_some() {
                push(&mut ws.dyn_vals, ss.gds);
                if info.g_row.is_some() {
                    push(&mut ws.dyn_vals, ss.gm);
                }
                if info.s_row.is_some() {
                    push(&mut ws.dyn_vals, -(ss.gm + ss.gds));
                }
            }
            if info.s_row.is_some() {
                push(&mut ws.dyn_vals, ss.gm + ss.gds);
                if info.g_row.is_some() {
                    push(&mut ws.dyn_vals, -ss.gm);
                }
                if info.d_row.is_some() {
                    push(&mut ws.dyn_vals, -ss.gds);
                }
            }
        }
    }

    // Replay the mixed-slot program (short: only MOSFET-touched slots),
    // stamp-outer so each stamp is one contiguous lanes-wide add. Lanes
    // that already converged (or fell out) replay stale-but-finite
    // values; their factors and solutions are computed and discarded,
    // exactly as the batched refactor/solve already do.
    for st in &c.iter_prog {
        let (slot, src) = match *st {
            IterStamp::Stat { slot, p } => (
                slot as usize,
                &ws.stamp_vals[p as usize * lanes..p as usize * lanes + lanes],
            ),
            IterStamp::Dyn { slot, k } => (
                slot as usize,
                &ws.dyn_vals[k as usize * lanes..k as usize * lanes + lanes],
            ),
        };
        let dst = &mut ws.vals[slot * lanes..slot * lanes + lanes];
        for (d, &v) in dst.iter_mut().zip(src) {
            *d += v;
        }
    }

    // Rebuild the RHS, ops in element order, from the per-step staged
    // constants (source values and capacitor companion currents change
    // only between steps, not between Newton iterations). Row-major
    // layout makes every op a contiguous lanes-wide add; lanes that are
    // no longer live accumulate stale-but-finite values whose solutions
    // are discarded.
    ws.rhs.fill(0.0);
    let BatchedMnaWorkspace {
        rhs,
        cap_rhs,
        vsrc_vals,
        isrc_vals,
        mos_ieq,
        ..
    } = ws;
    fn row(rhs: &mut [f64], lanes: usize, r: usize) -> &mut [f64] {
        &mut rhs[r * lanes..r * lanes + lanes]
    }
    for op in &c.rhs_ops {
        match *op {
            RhsOp::Cap {
                cap, a_row, b_row, ..
            } => {
                let ieq = &cap_rhs[cap * lanes..cap * lanes + lanes];
                if let Some(r) = a_row {
                    for (d, &v) in row(rhs, lanes, r).iter_mut().zip(ieq) {
                        *d += v;
                    }
                }
                if let Some(r) = b_row {
                    for (d, &v) in row(rhs, lanes, r).iter_mut().zip(ieq) {
                        *d += -v;
                    }
                }
            }
            RhsOp::Vsrc { row: r, vs, .. } => {
                row(rhs, lanes, r).copy_from_slice(&vsrc_vals[vs * lanes..vs * lanes + lanes]);
            }
            RhsOp::Isrc {
                p_row, n_row, is_, ..
            } => {
                let iv = &isrc_vals[is_ * lanes..is_ * lanes + lanes];
                if let Some(r) = p_row {
                    for (d, &v) in row(rhs, lanes, r).iter_mut().zip(iv) {
                        *d += -v;
                    }
                }
                if let Some(r) = n_row {
                    for (d, &v) in row(rhs, lanes, r).iter_mut().zip(iv) {
                        *d += v;
                    }
                }
            }
            RhsOp::Mos { d_row, s_row, mos } => {
                let ieq = &mos_ieq[mos * lanes..mos * lanes + lanes];
                if let Some(r) = d_row {
                    for (d, &v) in row(rhs, lanes, r).iter_mut().zip(ieq) {
                        *d -= v;
                    }
                }
                if let Some(r) = s_row {
                    for (d, &v) in row(rhs, lanes, r).iter_mut().zip(ieq) {
                        *d += v;
                    }
                }
            }
        }
    }
}

/// Stages the right-hand-side terms that are constant within a step:
/// source waveform values at `t` and capacitor companion currents from
/// the previous step's state. Every floating-point expression matches
/// the scalar assembly exactly; only *when* it is evaluated moves (once
/// per step instead of once per Newton iteration).
#[allow(clippy::too_many_arguments)]
fn stage_step_constants(
    nets: &[&Netlist],
    ws: &mut BatchedMnaWorkspace,
    c: &CompiledBatch,
    live: &[bool],
    t: f64,
    dt_k: f64,
    use_be: bool,
    geom: BatchGeom,
) {
    let BatchGeom {
        lanes, nn, ncaps, ..
    } = geom;
    let _ = nn;
    ws.vsrc_vals.resize(c.n_vsrc * lanes, 0.0);
    ws.isrc_vals.resize(c.n_isrc * lanes, 0.0);
    ws.cap_rhs.resize(ncaps * lanes, 0.0);
    // Op-outer: capacitor staging sweeps all lanes of one row at a time
    // (the interleaved layouts make every read contiguous); non-live
    // lanes compute garbage that no consumer reads. Waveform evals stay
    // per-lane — each lane owns a distinct waveform object.
    for op in &c.rhs_ops {
        match *op {
            RhsOp::Cap {
                cap, a_nv, b_nv, ..
            } => {
                let BatchedMnaWorkspace {
                    node_v,
                    cap_i,
                    cap_farads,
                    cap_rhs,
                    ..
                } = ws;
                let av = &node_v[a_nv * lanes..a_nv * lanes + lanes];
                let bv = &node_v[b_nv * lanes..b_nv * lanes + lanes];
                let f = &cap_farads[cap * lanes..cap * lanes + lanes];
                let ic = &cap_i[cap * lanes..cap * lanes + lanes];
                let dst = &mut cap_rhs[cap * lanes..cap * lanes + lanes];
                if use_be {
                    for (((d, &a), &b), &farads) in dst.iter_mut().zip(av).zip(bv).zip(f) {
                        let vprev = a - b;
                        let g = farads / dt_k;
                        *d = g * vprev;
                    }
                } else {
                    for ((((d, &a), &b), &farads), &icl) in
                        dst.iter_mut().zip(av).zip(bv).zip(f).zip(ic)
                    {
                        let vprev = a - b;
                        let g = 2.0 * farads / dt_k;
                        *d = g * vprev + icl;
                    }
                }
            }
            RhsOp::Vsrc { elem, vs, .. } => {
                for l in 0..lanes {
                    if !live[l] {
                        continue;
                    }
                    let w = match &nets[l].elements()[elem] {
                        Element::VSource { waveform, .. } => waveform,
                        _ => unreachable!("lane structure verified at admission"),
                    };
                    ws.vsrc_vals[vs * lanes + l] = w.eval(t);
                }
            }
            RhsOp::Isrc { elem, is_, .. } => {
                for l in 0..lanes {
                    if !live[l] {
                        continue;
                    }
                    let w = match &nets[l].elements()[elem] {
                        Element::ISource { waveform, .. } => waveform,
                        _ => unreachable!("lane structure verified at admission"),
                    };
                    ws.isrc_vals[is_ * lanes + l] = w.eval(t);
                }
            }
            RhsOp::Mos { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mosfet::MosfetModel;
    use crate::transient::Transient;
    use crate::waveform::Waveform;
    use mpvar_tech::preset::n10;

    /// Linear RC ladder driven by a pulse; per-lane R/C values differ.
    fn rc_lane(scale: f64) -> Netlist {
        let mut net = Netlist::new();
        let vin = net.node("vin");
        let n1 = net.node("n1");
        let n2 = net.node("n2");
        net.add_vsource(
            "VIN",
            vin,
            Netlist::GROUND,
            Waveform::pulse(0.0, 0.7, 1e-12, 1e-12, 1e-12, 1.0, 0.0).unwrap(),
        )
        .unwrap();
        net.add_resistor("R1", vin, n1, 1e3 * scale).unwrap();
        net.add_capacitor("C1", n1, Netlist::GROUND, 1e-15 / scale)
            .unwrap();
        net.add_resistor("R2", n1, n2, 2e3 * scale).unwrap();
        net.add_capacitor("C2", n2, Netlist::GROUND, 2e-15 / scale)
            .unwrap();
        net
    }

    /// NMOS discharge of a precharged capacitor, gated by a pulse.
    fn nmos_lane(scale: f64, cap_scale: f64) -> Netlist {
        let tech = n10();
        let mut net = Netlist::new();
        let bl = net.node("bl");
        let gate = net.node("gate");
        net.add_vsource(
            "VG",
            gate,
            Netlist::GROUND,
            Waveform::pulse(0.0, 0.7, 2e-12, 1e-12, 1e-12, 1.0, 0.0).unwrap(),
        )
        .unwrap();
        net.add_capacitor("CBL", bl, Netlist::GROUND, 2e-15 * cap_scale)
            .unwrap();
        net.add_mosfet(
            "M1",
            bl,
            gate,
            Netlist::GROUND,
            MosfetModel::new(tech.nmos().scaled(scale).unwrap()),
        )
        .unwrap();
        net
    }

    fn scalar_reference(
        net: &Netlist,
        initial: &[(NodeId, f64)],
        dt: f64,
        t_stop: f64,
    ) -> crate::transient::TransientResult {
        let mut tran = Transient::new(net).unwrap();
        for &(node, v) in initial {
            tran.set_initial_voltage(node, v);
        }
        tran.run(dt, t_stop).unwrap()
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn linear_batch_bit_identical_to_scalar() {
        let nets: Vec<Netlist> = [1.0, 1.7, 0.6].iter().map(|&s| rc_lane(s)).collect();
        let refs: Vec<&Netlist> = nets.iter().collect();
        let n1 = nets[0].find_node("n1").unwrap();
        let n2 = nets[0].find_node("n2").unwrap();
        let initial = [(n1, 0.1)];
        // t_stop off the dt grid: exercises the shortened final step
        // (its own companion key) inside the batch.
        let (dt, t_stop) = (1e-12, 9.5e-12);

        let mut ws = BatchedMnaWorkspace::new();
        let spec = BatchTransientSpec {
            method: Method::Trapezoidal,
            dt,
            t_stop,
            initial: &initial,
            probes: &[n1, n2],
        };
        let out = run_transient_batch(&refs, &spec, &mut ws).unwrap();
        let bytes_after_first = ws.bytes();

        for (l, net) in nets.iter().enumerate() {
            let scalar = scalar_reference(net, &initial, dt, t_stop);
            assert_bits_eq(&out.times, scalar.times(), "times");
            match &out.lanes[l] {
                BatchLaneOutcome::Completed { probes } => {
                    assert_bits_eq(&probes[0], scalar.waveform(n1), "n1");
                    assert_bits_eq(&probes[1], scalar.waveform(n2), "n2");
                }
                other => panic!("lane {l} fell out: {other:?}"),
            }
        }

        // Re-running the same structure must not grow the workspace.
        let out2 = run_transient_batch(&refs, &spec, &mut ws).unwrap();
        assert_eq!(ws.bytes(), bytes_after_first, "workspace grew on reuse");
        match (&out.lanes[0], &out2.lanes[0]) {
            (
                BatchLaneOutcome::Completed { probes: a },
                BatchLaneOutcome::Completed { probes: b },
            ) => assert_bits_eq(&a[0], &b[0], "repeat"),
            _ => panic!("lane fell out on repeat"),
        }
    }

    #[test]
    fn nonlinear_batch_bit_identical_to_scalar() {
        let nets: Vec<Netlist> = [(1.0, 1.0), (1.3, 0.8), (0.7, 1.4), (1.05, 1.0)]
            .iter()
            .map(|&(s, c)| nmos_lane(s, c))
            .collect();
        let refs: Vec<&Netlist> = nets.iter().collect();
        let bl = nets[0].find_node("bl").unwrap();
        let gate = nets[0].find_node("gate").unwrap();
        let initial = [(bl, 0.7), (gate, 0.0)];
        let (dt, t_stop) = (2e-13, 2.05e-11);

        let mut ws = BatchedMnaWorkspace::new();
        let spec = BatchTransientSpec {
            method: Method::Trapezoidal,
            dt,
            t_stop,
            initial: &initial,
            probes: &[bl],
        };
        let out = run_transient_batch(&refs, &spec, &mut ws).unwrap();

        for (l, net) in nets.iter().enumerate() {
            let scalar = scalar_reference(net, &initial, dt, t_stop);
            match &out.lanes[l] {
                BatchLaneOutcome::Completed { probes } => {
                    assert_bits_eq(&probes[0], scalar.waveform(bl), "bl");
                }
                other => panic!("lane {l} fell out: {other:?}"),
            }
            // Sanity: the cap actually discharged through the device.
            let last = *scalar.waveform(bl).last().unwrap();
            assert!(last < 0.65, "bl never discharged: {last}");
        }
    }

    #[test]
    fn batch_until_stops_when_every_lane_has_and_keeps_bit_identical_prefixes() {
        let mut nets: Vec<Netlist> = [(1.0, 1.0), (1.3, 0.8), (0.7, 1.4)]
            .iter()
            .map(|&(s, c)| nmos_lane(s, c))
            .collect();
        // A lane that falls out at admission is never asked and does not
        // hold the batch open.
        let mut odd = nmos_lane(1.0, 1.0);
        let bl_odd = odd.find_node("bl").unwrap();
        odd.add_resistor("REXTRA", bl_odd, Netlist::GROUND, 1e6)
            .unwrap();
        nets.push(odd);
        let refs: Vec<&Netlist> = nets.iter().collect();
        let bl = nets[0].find_node("bl").unwrap();
        let gate = nets[0].find_node("gate").unwrap();
        let initial = [(bl, 0.7), (gate, 0.0)];
        // 0.2 ps does not divide 20.5 ps: step 103 is shortened.
        let (dt, t_stop) = (2e-13, 2.05e-11);
        let spec = BatchTransientSpec {
            method: Method::Trapezoidal,
            dt,
            t_stop,
            initial: &initial,
            probes: &[bl, gate],
        };
        let mut ws = BatchedMnaWorkspace::new();
        let full = run_transient_batch(&refs, &spec, &mut ws).unwrap();
        assert_eq!(full.times.len(), 104);
        let full_probes = |l: usize| match &full.lanes[l] {
            BatchLaneOutcome::Completed { probes } => probes.clone(),
            other => panic!("lane {l} fell out: {other:?}"),
        };

        // `stop_at[l]`: the step at which lane l answers `true` (None:
        // never).
        let run = |stop_at: [Option<usize>; 3], ws: &mut BatchedMnaWorkspace| {
            let mut calls = [0usize; 4];
            let out = run_transient_batch_until(&refs, &spec, ws, |l, times, probes| {
                calls[l] += 1;
                assert_eq!(times.len(), probes[0].len(), "lane {l} record in step");
                Some(times.len() - 1) == stop_at[l]
            })
            .unwrap();
            (out, calls)
        };
        for stop_at in [
            [Some(5), Some(17), Some(9)],
            [Some(103), Some(1), Some(40)],
            [None, Some(2), Some(3)],
        ] {
            let (out, calls) = run(stop_at, &mut ws);
            let end = stop_at.iter().map(|s| s.unwrap_or(103)).max().unwrap();
            assert_eq!(out.times.len(), end + 1, "batch ends at step {end}");
            assert_bits_eq(&out.times, &full.times[..end + 1], "times");
            for l in 0..3 {
                let asked = stop_at[l].unwrap_or(end);
                assert_eq!(calls[l], asked, "lane {l} asked until it stopped");
                let BatchLaneOutcome::Completed { probes } = &out.lanes[l] else {
                    panic!("lane {l} fell out");
                };
                let reference = full_probes(l);
                for (p, r) in probes.iter().zip(&reference) {
                    assert_bits_eq(p, &r[..end + 1], "probe prefix");
                }
                let scalar = scalar_reference(&nets[l], &initial, dt, t_stop);
                assert_bits_eq(&probes[0], &scalar.waveform(bl)[..end + 1], "scalar prefix");
            }
            assert_eq!(calls[3], 0, "a fallen-out lane is never asked");
            assert!(matches!(
                out.lanes[3],
                BatchLaneOutcome::FellOut {
                    reason: LaneFalloutReason::StructureMismatch
                }
            ));
        }
    }

    #[test]
    fn backward_euler_batch_matches_scalar() {
        let nets: Vec<Netlist> = [1.0, 2.2].iter().map(|&s| rc_lane(s)).collect();
        let refs: Vec<&Netlist> = nets.iter().collect();
        let n2 = nets[0].find_node("n2").unwrap();
        let initial = [(n2, 0.3)];
        let (dt, t_stop) = (1e-12, 8e-12);
        let mut ws = BatchedMnaWorkspace::new();
        let spec = BatchTransientSpec {
            method: Method::BackwardEuler,
            dt,
            t_stop,
            initial: &initial,
            probes: &[n2],
        };
        let out = run_transient_batch(&refs, &spec, &mut ws).unwrap();
        for (l, net) in nets.iter().enumerate() {
            let mut tran = Transient::new(net).unwrap();
            tran.set_method(Method::BackwardEuler);
            tran.set_initial_voltage(n2, 0.3);
            let scalar = tran.run(dt, t_stop).unwrap();
            match &out.lanes[l] {
                BatchLaneOutcome::Completed { probes } => {
                    assert_bits_eq(&probes[0], scalar.waveform(n2), "n2");
                }
                other => panic!("lane {l} fell out: {other:?}"),
            }
        }
    }

    #[test]
    fn structure_mismatch_lane_falls_out() {
        let a = rc_lane(1.0);
        let mut b = rc_lane(1.2);
        let n1 = b.find_node("n1").unwrap();
        b.add_resistor("REXTRA", n1, Netlist::GROUND, 5e3).unwrap();
        let c = rc_lane(0.9);
        let nets = [&a, &b, &c];
        let n1a = a.find_node("n1").unwrap();
        let initial = [(n1a, 0.0)];
        let mut ws = BatchedMnaWorkspace::new();
        let spec = BatchTransientSpec {
            method: Method::Trapezoidal,
            dt: 1e-12,
            t_stop: 5e-12,
            initial: &initial,
            probes: &[n1a],
        };
        let out = run_transient_batch(&nets, &spec, &mut ws).unwrap();
        assert!(matches!(
            out.lanes[1],
            BatchLaneOutcome::FellOut {
                reason: LaneFalloutReason::StructureMismatch
            }
        ));
        for l in [0usize, 2] {
            let scalar = scalar_reference(nets[l], &initial, 1e-12, 5e-12);
            match &out.lanes[l] {
                BatchLaneOutcome::Completed { probes } => {
                    assert_bits_eq(&probes[0], scalar.waveform(n1a), "n1");
                }
                other => panic!("lane {l} fell out: {other:?}"),
            }
        }
    }

    #[test]
    fn batch_spec_validation() {
        let net = rc_lane(1.0);
        let n1 = net.find_node("n1").unwrap();
        let mut ws = BatchedMnaWorkspace::new();
        let initial = [(n1, 0.0)];
        let mut spec = BatchTransientSpec {
            method: Method::Trapezoidal,
            dt: 0.0,
            t_stop: 1e-9,
            initial: &initial,
            probes: &[],
        };
        assert!(matches!(
            run_transient_batch(&[&net], &spec, &mut ws),
            Err(SpiceError::InvalidAnalysis { .. })
        ));
        spec.dt = 1e-12;
        assert!(matches!(
            run_transient_batch(&[], &spec, &mut ws),
            Err(SpiceError::InvalidAnalysis { .. })
        ));
    }

    #[test]
    fn single_lane_batch_matches_scalar() {
        let net = nmos_lane(1.0, 1.0);
        let bl = net.find_node("bl").unwrap();
        let gate = net.find_node("gate").unwrap();
        let initial = [(bl, 0.7), (gate, 0.0)];
        let (dt, t_stop) = (5e-13, 1e-11);
        let mut ws = BatchedMnaWorkspace::new();
        let spec = BatchTransientSpec {
            method: Method::Trapezoidal,
            dt,
            t_stop,
            initial: &initial,
            probes: &[bl],
        };
        let out = run_transient_batch(&[&net], &spec, &mut ws).unwrap();
        let scalar = scalar_reference(&net, &initial, dt, t_stop);
        match &out.lanes[0] {
            BatchLaneOutcome::Completed { probes } => {
                assert_bits_eq(&probes[0], scalar.waveform(bl), "bl");
            }
            other => panic!("lane fell out: {other:?}"),
        }
    }
}
