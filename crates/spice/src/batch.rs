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
//! # One walk, recorded
//!
//! The batch does not know the stamp sequence itself. It records every
//! lane's walk of the scalar assembly once, at admission: each stamp's
//! coordinate, value and provenance (key-independent, capacitor
//! companion `±g`, or MOSFET stamp `j`) and each right-hand-side term.
//! Lane 0's walk becomes the shared CSR pattern, slot program and RHS
//! program; a lane whose walk differs falls out as a structure
//! mismatch. The device and stepping formulas (companion conductance
//! and history current, the MOSFET linearization, the Newton rule, the
//! step grid) are the scalar path's own functions, called per lane.
//!
//! # Per-iteration assembly
//!
//! Each (method-phase, step-size) key gets a static value image built
//! from the recorded provenance and cached per key — fixed-step
//! transients flip between a handful of keys (the UIC backward-Euler
//! bootstrap, the nominal dt and its float-jitter neighbours, the
//! shortened final step). Static stamps (GMIN, resistors, capacitor
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
    assemble_into, damp, fold_delta, is_linear, newton_damping, row_of, system_size, Companion,
    MosStamp, OperatingPoint, ReactivePolicy, RhsTerm, Stamp, StampRecorder, MAX_ITERS,
};
use crate::mosfet::MosfetModel;
use crate::netlist::{Element, Netlist, NodeId};
use crate::sparse::{CsrMatrix, LuWorkspace, SymbolicLu};
use crate::transient::{Method, StepGrid};

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

/// Result of [`run_transient_batch_until`]: the shared time grid plus
/// one outcome per input netlist, in input order.
#[derive(Debug, Clone)]
pub struct BatchTransientResult {
    /// Time points, s (`t = 0` first; shared by all completed lanes).
    pub times: Vec<f64>,
    /// One outcome per lane.
    pub lanes: Vec<BatchLaneOutcome>,
}

/// Reusable numeric storage for batched transients. One workspace per
/// worker thread: [`run_transient_batch_until`] resizes the buffers in
/// place, so consecutive batches of the same structure allocate nothing
/// in the solve loop (asserted by the `spice.batch_workspace_bytes`
/// gauge staying flat across waves).
#[derive(Debug, Default)]
pub struct BatchedMnaWorkspace {
    /// CSR values, `[slot][lane]`.
    vals: Vec<f64>,
    /// Per-key static stamp values, `[program index][lane]`.
    stamp_vals: Vec<f64>,
    /// Cached static images per companion key. Fixed-step transients
    /// flip between a handful of keys (the UIC backward-Euler step, the
    /// nominal dt, its float-jitter neighbours, the shortened final
    /// step); rebuilding each flip was once the largest batch cost.
    /// Slots are reused across batches; `key` is `None` when free.
    key_images: Vec<KeyImage>,
    /// Which key the buffers in `stamp_vals` / `vals` currently encode
    /// (`None` until the first key). Key switches *swap* buffers with
    /// the key's pooled image instead of copying them.
    resident_key: Option<(bool, u64)>,
    /// Logical clock driving the key-image LRU.
    key_clock: u64,
    /// Per-step source waveform values, `[source][lane]`.
    src_vals: Vec<f64>,
    /// Per-step capacitor companion currents for the RHS,
    /// `[capacitor][lane]`.
    cap_rhs: Vec<f64>,
    /// Per-iteration MOSFET stamp values, `[mosfet · 6 + j][lane]`.
    dyn_vals: Vec<f64>,
    /// Per-iteration MOSFET Norton currents, `[mosfet][lane]`.
    mos_ieq: Vec<f64>,
    /// Capacitances, `[capacitor][lane]`.
    cap_farads: Vec<f64>,
    /// Right-hand sides, `[row][lane]` interleaved like `vals`, so the
    /// per-op RHS build and the solve's permutation gather are both
    /// contiguous lanes-wide operations.
    rhs: Vec<f64>,
    /// Scalar scratch RHS for the admission walks (one lane at a time).
    rec_rhs: Vec<f64>,
    /// The zero state the admission walks assemble around.
    rec_zeros: Vec<f64>,
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
    /// Batched LU factors and scatter rows.
    lu: LuWorkspace,
    /// Per-lane first failing pivot row of the last refactor.
    fail_row: Vec<Option<usize>>,
    /// Walk recorder reused across the lanes after the first.
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
            + self.src_vals.capacity()
            + self.cap_rhs.capacity()
            + self.stamp_vals.capacity()
            + self.dyn_vals.capacity()
            + self.mos_ieq.capacity()
            + self.cap_farads.capacity()
            + self.rhs.capacity()
            + self.rec_rhs.capacity()
            + self.rec_zeros.capacity()
            + self.x.capacity()
            + self.x_new.capacity()
            + self.conv_delta.capacity()
            + self.conv_scale.capacity()
            + self.node_v.capacity()
            + self.cap_i.capacity())
            + 8 * self.conv_copy.capacity()
            + 8 * self.conv_damp.capacity()
            + 16 * self.fail_row.capacity()
            + 16 * self.rec.coords.capacity()
            + 8 * self.rec.vals.capacity()
            + std::mem::size_of::<Stamp>() * self.rec.stamps.capacity()
            + std::mem::size_of::<(usize, RhsTerm)>() * self.rec.rhs.capacity()
            + self.lu.bytes()
    }
}

/// Cached static images of one companion key: the static stamp values
/// and the fully seeded value image. Buffers are reused across batches
/// (`key` is cleared, capacity kept) so the workspace-bytes gauge stays
/// flat in steady state.
#[derive(Debug, Default)]
struct KeyImage {
    /// `(trapezoidal, dt bits)`; `None` = slot free.
    key: Option<(bool, u64)>,
    /// Logical timestamp of the last hit, for LRU replacement.
    last_used: u64,
    stamp_vals: Vec<f64>,
    vals: Vec<f64>,
}

/// Upper bound on cached key images per batch. Fixed-step transients
/// produce at most a handful of distinct keys (BE bootstrap, nominal
/// dt, float-jitter neighbours, shortened final step); anything beyond
/// the bound falls back to rebuilding, which is merely slower.
const MAX_KEY_IMAGES: usize = 32;

/// One entry of the per-iteration replay program (only slots touched by
/// a MOSFET stamp appear here).
#[derive(Debug, Clone, Copy)]
enum IterStamp {
    /// Replay a static stamp value.
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

/// The staged array a right-hand-side term reads.
#[derive(Debug, Clone, Copy)]
enum Staged {
    /// `cap_rhs`: capacitor companion currents.
    Cap,
    /// `src_vals`: source waveform values.
    Src,
    /// `mos_ieq`: MOSFET Norton currents.
    Mos,
}

/// One right-hand-side operation of lane 0's walk, in walk order. The
/// RHS is rebuilt from scratch every Newton iteration, exactly like the
/// scalar path.
#[derive(Debug, Clone, Copy)]
enum RhsOp {
    /// `rhs[row] = src_vals[i]`: a voltage source's branch row.
    Set { row: usize, i: usize },
    /// `rhs[row] += staged[i]`, or `-=` when `neg`.
    Add {
        row: usize,
        from: Staged,
        i: usize,
        neg: bool,
    },
}

/// The compiled shared structure of one batch, taken from lane 0's
/// recorded walk.
struct CompiledBatch {
    pattern: CsrMatrix,
    program: Vec<u32>,
    /// Provenance of each program stamp.
    stamps: Vec<Stamp>,
    iter_prog: Vec<IterStamp>,
    /// CSR slots touched by any MOSFET stamp: zeroed before each
    /// per-iteration replay (every other slot keeps its seeded value).
    dyn_slots: Vec<u32>,
    rhs_ops: Vec<RhsOp>,
    /// Source elements read by the RHS program, in `src_vals` order.
    sources: Vec<usize>,
    /// Capacitor terminals, in capacitor order.
    caps: Vec<(NodeId, NodeId)>,
    /// Drain, gate and source matrix rows of each MOSFET.
    mos_rows: Vec<[Option<usize>; 3]>,
    /// Dense per-lane model copies, `[mosfet][lane]` — the staging loop
    /// reads these instead of chasing each lane's `Element` storage.
    models: Vec<MosfetModel>,
    /// Key-independent stamp values, `[fixed][lane]`, from each lane's
    /// admission walk.
    fixed_vals: Vec<f64>,
    /// The shared symbolic analysis; `None` until the first factor.
    sym: Option<SymbolicLu>,
}

/// Runs one transient analysis over `nets.len()` structurally identical
/// netlists at once, sharing one stamp program and one symbolic LU
/// analysis across all lanes, and asks `stop(lane, times, probes)`
/// after every accepted step whether that lane's record so far (the
/// shared time grid and the lane's probe waveforms) is enough. A lane
/// is asked until it first answers `true`; the batch ends after the
/// first step at which every lane still in it has answered `true`.
///
/// Per-lane results are **bit-identical** to the scalar compiled kernel
/// ([`crate::transient::Transient::run_until`] with the same stop);
/// lanes the batch cannot carry fall out ([`BatchLaneOutcome::FellOut`])
/// and should be re-run through the scalar path. Every lane's record is
/// a bit-identical prefix of what a stop that never fires returns,
/// because each step depends only on earlier ones: a measurement that
/// reads nothing after the step where the lane's `stop` fired gives the
/// same answer on either.
///
/// # Errors
///
/// [`SpiceError::InvalidAnalysis`] for an empty batch, an empty
/// reference netlist, non-positive `dt`/`t_stop`, or an absurd step
/// count — conditions shared by every lane. Per-lane failures are
/// reported per lane, never as a batch error.
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
    let grid = StepGrid::new(spec.dt, spec.t_stop)?;

    let _span = mpvar_trace::span!(
        mpvar_trace::names::SPAN_SPICE_BATCH,
        lanes = nets.len(),
        dt = spec.dt,
        t_stop = spec.t_stop,
    );

    let lanes = nets.len();
    let net0 = nets[0];
    let nn = net0.num_nodes();
    let size = system_size(net0);
    let linear = is_linear(net0);
    let uic = !spec.initial.is_empty();

    // --- Lane admission: every lane's walk must be lane 0's ------------
    let mut fallout: Vec<Option<LaneFalloutReason>> = vec![None; lanes];
    let mut c = compile_batch(nets, ws, &mut fallout, spec.dt);

    // --- State buffers (reused across batches) ------------------------
    let ncaps = c.caps.len();
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
    ws.fail_row.clear();
    ws.fail_row.resize(lanes, None);
    // Key images from previous batches are stale (different draws mean
    // different static values); free the tags, keep the capacity.
    ws.resident_key = None;
    for img in &mut ws.key_images {
        img.key = None;
    }

    // --- Initial state -------------------------------------------------
    if uic {
        for (l, f) in fallout.iter().enumerate() {
            if f.is_some() {
                continue;
            }
            for &(node, v) in spec.initial {
                ws.node_v[node.index() * lanes + l] = v;
                if let Some(r) = row_of(node) {
                    ws.x[r * lanes + l] = v;
                }
            }
        }
    } else {
        for (l, net) in nets.iter().enumerate() {
            if fallout[l].is_some() {
                continue;
            }
            match OperatingPoint::solve(net) {
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
    let steps = grid.steps();
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
    let mut current_key: Option<Companion> = None;
    let mut live = vec![false; lanes];
    // Lanes whose `stop` has fired; they keep stepping with the batch.
    let mut done = vec![false; lanes];

    'steps: for (t, rule) in grid.iter(spec.method, uic) {
        for l in 0..lanes {
            live[l] = fallout[l].is_none();
        }
        if !live.iter().any(|&a| a) {
            break 'steps;
        }
        n_batch_solves += 1;

        let key_changed = current_key != Some(rule);
        if key_changed {
            // A key seen earlier in this batch swaps its static images
            // back in; a new one rebuilds them from the recorded
            // provenance — no scalar assembly either way.
            let key = (rule.trap, rule.dt.to_bits());
            if !switch_key_image(ws, key) {
                reseed_key(ws, &c, rule, lanes);
                ws.resident_key = Some(key);
            }
            current_key = Some(rule);
        }
        stage_step_constants(nets, ws, &c, &live, t, rule, lanes);

        for _iter in 0..MAX_ITERS {
            // ---- Assembly -------------------------------------------
            assemble_compiled(ws, &c, &live, lanes);

            // ---- Factor ---------------------------------------------
            // The scalar linear fast path factors only when the
            // companion key changes; the nonlinear path factors every
            // iteration. The first factor runs the shared analysis.
            if !linear || key_changed {
                if c.sym.is_none() {
                    c.sym = shared_analysis(&c.pattern, &ws.vals, lanes, &mut fallout);
                    if let Some(sym) = &c.sym {
                        ws.lu.prepare(sym, lanes);
                    }
                }
                let Some(sym) = &c.sym else {
                    // Every lane fell out before a shared analysis existed.
                    live.fill(false);
                    break;
                };
                ws.fail_row.fill(None);
                sym.refactor_batch(&c.pattern, &ws.vals, &mut ws.lu, &mut ws.fail_row);
                n_refactors += 1;
                for l in 0..lanes {
                    if fallout[l].is_some() {
                        live[l] = false;
                    } else if live[l] && ws.fail_row[l].is_some() {
                        fallout[l] = Some(LaneFalloutReason::PivotDrift);
                        live[l] = false;
                    }
                }
                if !live.iter().any(|&a| a) {
                    break;
                }
            }

            // ---- Solve ----------------------------------------------
            let sym = c.sym.as_ref().expect("factored before the first solve");
            sym.solve_batch(&ws.lu, &ws.rhs, &mut ws.x_new);

            // ---- Per-lane convergence (the scalar Newton rule) ------
            // Row sweeps over the `[row][lane]` layout: the per-lane
            // max-delta fold visits rows in the same ascending order as
            // the scalar path, so the `f64::max` chain is bit-identical.
            ws.conv_delta.clear();
            ws.conv_delta.resize(lanes, 0.0);
            for k in 0..size {
                let xr = &ws.x[k * lanes..k * lanes + lanes];
                let nr = &ws.x_new[k * lanes..k * lanes + lanes];
                for ((m, &a), &b) in ws.conv_delta.iter_mut().zip(xr).zip(nr) {
                    *m = fold_delta(*m, a, b);
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
                let damping = if linear {
                    None
                } else {
                    newton_damping(ws.conv_delta[l])
                };
                match damping {
                    None => {
                        ws.conv_copy[l] = u64::MAX;
                        *alive = false;
                    }
                    Some(scale) => {
                        ws.conv_scale[l] = scale;
                        ws.conv_damp[l] = u64::MAX;
                        any_live = true;
                    }
                }
            }
            // Converged lanes take the new solution verbatim (exact
            // bits), damped lanes take the scalar path's damped update,
            // and dead lanes keep their guess untouched. The bit-select
            // (not scale-zero arithmetic) keeps NaN/-0.0 garbage out of
            // the result and compiles to vector blends.
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
                        let d = damp(xi, nv, s);
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
        for (ci, &(a, b)) in c.caps.iter().enumerate() {
            let (ar, br) = (row_of(a), row_of(b));
            let x = &ws.x;
            for l in 0..lanes {
                let v_new =
                    ar.map_or(0.0, |r| x[r * lanes + l]) - br.map_or(0.0, |r| x[r * lanes + l]);
                let v_old = ws.node_v[a.index() * lanes + l] - ws.node_v[b.index() * lanes + l];
                let farads = ws.cap_farads[ci * lanes + l];
                let ici = &mut ws.cap_i[ci * lanes + l];
                *ici = rule.current(farads, v_new - v_old, *ici);
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

/// Records `net`'s assembly walk into `rec`, around an all-zero state
/// under a backward-Euler step of `dt`. The walk's structure and its
/// key-independent values do not depend on the state, the time or the
/// step, and every transient step stamps the same structure.
fn record_walk(
    net: &Netlist,
    dt: f64,
    rec: &mut StampRecorder,
    rhs: &mut Vec<f64>,
    zeros: &mut Vec<f64>,
) {
    let size = system_size(net);
    // Long enough for the state, the node voltages and any capacitor.
    zeros.clear();
    zeros.resize(size.max(net.num_nodes()).max(net.elements().len()), 0.0);
    rhs.clear();
    rhs.resize(size, 0.0);
    rec.clear();
    let policy = ReactivePolicy::Step {
        rule: Companion { trap: false, dt },
        prev_v: zeros,
        prev_ic: zeros,
    };
    assemble_into(net, 0.0, policy, &zeros[..size], rec, rhs);
}

/// Admits the lanes and compiles the batch's shared structure from lane
/// 0's recorded walk: the CSR pattern and slot program, each stamp's
/// provenance, the per-iteration replay program and the RHS program.
/// Every other lane records its own walk; a lane whose walk differs
/// from lane 0's (or whose linearity does) falls out as a structure
/// mismatch. Each admitted lane's key-independent stamp values,
/// capacitances and MOSFET models are captured here; no scalar assembly
/// runs again for this batch.
fn compile_batch(
    nets: &[&Netlist],
    ws: &mut BatchedMnaWorkspace,
    fallout: &mut [Option<LaneFalloutReason>],
    dt: f64,
) -> CompiledBatch {
    let lanes = nets.len();
    let net0 = nets[0];
    let linear = is_linear(net0);
    let mut walk0 = StampRecorder::default();
    record_walk(net0, dt, &mut walk0, &mut ws.rec_rhs, &mut ws.rec_zeros);

    let (pattern, program) = CsrMatrix::from_coords(system_size(net0), &walk0.coords);
    let nnz = pattern.nnz();
    let mut slot_has_dyn = vec![false; nnz];
    for (&slot, s) in program.iter().zip(&walk0.stamps) {
        if let Stamp::Mos { .. } = s {
            slot_has_dyn[slot as usize] = true;
        }
    }
    let iter_prog = program
        .iter()
        .zip(&walk0.stamps)
        .enumerate()
        .filter(|&(_, (&slot, _))| slot_has_dyn[slot as usize])
        .map(|(p, (&slot, s))| match *s {
            Stamp::Mos { mos, j } => IterStamp::Dyn {
                slot,
                k: mos * 6 + u32::from(j),
            },
            _ => IterStamp::Stat { slot, p: p as u32 },
        })
        .collect();
    let dyn_slots = (0..nnz as u32)
        .filter(|&s| slot_has_dyn[s as usize])
        .collect();

    // A source's terms are consecutive in the walk, so a new element
    // index is a new staged source.
    let mut sources: Vec<usize> = Vec::new();
    let mut source = |elem: u32| {
        let elem = elem as usize;
        if sources.last() != Some(&elem) {
            sources.push(elem);
        }
        sources.len() - 1
    };
    let rhs_ops = walk0
        .rhs
        .iter()
        .map(|&(row, term)| match term {
            RhsTerm::Vsrc { elem } => RhsOp::Set {
                row,
                i: source(elem),
            },
            RhsTerm::Isrc { elem, neg } => RhsOp::Add {
                row,
                from: Staged::Src,
                i: source(elem),
                neg,
            },
            RhsTerm::Cap { cap, neg } => RhsOp::Add {
                row,
                from: Staged::Cap,
                i: cap as usize,
                neg,
            },
            RhsTerm::Mos { mos, neg } => RhsOp::Add {
                row,
                from: Staged::Mos,
                i: mos as usize,
                neg,
            },
        })
        .collect();

    let caps: Vec<(NodeId, NodeId)> = net0
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Capacitor { a, b, .. } => Some((*a, *b)),
            _ => None,
        })
        .collect();
    let mos_rows: Vec<[Option<usize>; 3]> = net0
        .elements()
        .iter()
        .filter_map(|e| match e {
            Element::Mosfet { d, g, s, .. } => Some([*d, *g, *s].map(row_of)),
            _ => None,
        })
        .collect();
    fn models_of(net: &Netlist) -> impl Iterator<Item = MosfetModel> + '_ {
        net.elements().iter().filter_map(|e| match e {
            Element::Mosfet { model, .. } => Some(*model),
            _ => None,
        })
    }
    let mut models: Vec<MosfetModel> = models_of(net0)
        .flat_map(|m| std::iter::repeat_n(m, lanes))
        .collect();

    // Per-lane capture. Equal walks stamp the same capacitors and
    // MOSFETs; an element the walk never reaches (a device with every
    // terminal grounded) cannot change a lane's bits.
    let n_fixed = walk0
        .stamps
        .iter()
        .filter(|s| matches!(s, Stamp::Fixed))
        .count();
    let mut fixed_vals = vec![0.0; n_fixed * lanes];
    ws.cap_farads.clear();
    ws.cap_farads.resize(caps.len() * lanes, 0.0);
    for (l, net) in nets.iter().enumerate() {
        let walk = if l == 0 {
            &walk0
        } else {
            record_walk(net, dt, &mut ws.rec, &mut ws.rec_rhs, &mut ws.rec_zeros);
            if !ws.rec.same_walk(&walk0) || is_linear(net) != linear {
                fallout[l] = Some(LaneFalloutReason::StructureMismatch);
                continue;
            }
            &ws.rec
        };
        let fixed = walk
            .stamps
            .iter()
            .zip(&walk.vals)
            .filter(|(s, _)| matches!(s, Stamp::Fixed));
        for (fi, (_, &v)) in fixed.enumerate() {
            fixed_vals[fi * lanes + l] = v;
        }
        let farads = net.elements().iter().filter_map(|e| match e {
            Element::Capacitor { farads, .. } => Some(*farads),
            _ => None,
        });
        for (ci, f) in farads.take(caps.len()).enumerate() {
            ws.cap_farads[ci * lanes + l] = f;
        }
        for (k, m) in models_of(net).take(mos_rows.len()).enumerate() {
            models[k * lanes + l] = m;
        }
    }

    ws.dyn_vals.clear();
    ws.dyn_vals.resize(mos_rows.len() * 6 * lanes, 0.0);
    ws.mos_ieq.clear();
    ws.mos_ieq.resize(mos_rows.len() * lanes, 0.0);
    ws.src_vals.clear();
    ws.src_vals.resize(sources.len() * lanes, 0.0);
    ws.cap_rhs.clear();
    ws.cap_rhs.resize(caps.len() * lanes, 0.0);
    CompiledBatch {
        pattern,
        program,
        stamps: walk0.stamps,
        iter_prog,
        dyn_slots,
        rhs_ops,
        sources,
        caps,
        mos_rows,
        models,
        fixed_vals,
        sym: None,
    }
}

/// The shared symbolic analysis, on the batch's first assembly: the
/// first surviving lane's pivot order becomes the batch's order; lanes
/// that disagree (or cannot be analyzed at all) fall out to the scalar
/// path. `None` when every lane has fallen out.
fn shared_analysis(
    pattern: &CsrMatrix,
    vals: &[f64],
    lanes: usize,
    fallout: &mut [Option<LaneFalloutReason>],
) -> Option<SymbolicLu> {
    let mut scratch = pattern.clone();
    let mut shared: Option<SymbolicLu> = None;
    for (l, f) in fallout.iter_mut().enumerate() {
        if f.is_some() {
            continue;
        }
        for (s, v) in scratch.values_mut().iter_mut().enumerate() {
            *v = vals[s * lanes + l];
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
    shared
}

/// Builds the static images (`stamp_vals`, seeded `vals`) for a
/// companion key that has no pooled image, from the recorded
/// provenance: key-independent stamps copy their captured values,
/// capacitor companions take `±g` from [`Companion::g`] — the scalar
/// walk's own expression — and MOSFET stamps stay zero (every assembly
/// rebuilds them from staging).
fn reseed_key(ws: &mut BatchedMnaWorkspace, c: &CompiledBatch, rule: Companion, lanes: usize) {
    // The resident buffers may have just been swapped out for a pooled
    // image's (possibly empty) vectors — size them before seeding.
    ws.stamp_vals.clear();
    ws.stamp_vals.resize(c.program.len() * lanes, 0.0);
    ws.vals.clear();
    ws.vals.resize(c.pattern.nnz() * lanes, 0.0);
    let mut fixed = c.fixed_vals.chunks_exact(lanes);
    for (dst, src) in ws.stamp_vals.chunks_exact_mut(lanes).zip(&c.stamps) {
        match *src {
            Stamp::Fixed => dst.copy_from_slice(fixed.next().expect("one row per fixed stamp")),
            Stamp::Cap { cap, neg } => {
                let ci = cap as usize;
                let f = &ws.cap_farads[ci * lanes..(ci + 1) * lanes];
                for (d, &farads) in dst.iter_mut().zip(f) {
                    let g = rule.g(farads);
                    *d = if neg { -g } else { g };
                }
            }
            Stamp::Mos { .. } => {}
        }
    }
    seed_vals(ws, &c.program, lanes);
}

/// Makes `key`'s static images (`stamp_vals`, seeded `vals`) resident
/// by *swapping* buffers with the key's pooled image — O(1), no copy.
/// The outgoing key's buffers are parked in its own image first (its
/// MOSFET-touched slots are dirty, but every assembly rebuilds those
/// from scratch, so parked images stay valid). Returns `false` when
/// `key` has not been seen in this batch (or was evicted by the LRU);
/// the caller then rebuilds it with [`reseed_key`] and makes it
/// resident.
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

/// Parks the resident buffers into their key's pooled image, growing
/// the pool up to [`MAX_KEY_IMAGES`] and then evicting the
/// least-recently-hit image (an evicted key is rebuilt on revisit).
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

/// Rebuilds the value image (`vals`) from the static stamp values, in
/// program order — the same `+=` accumulation sequence the scalar
/// replayer performs, so per-slot sums are bit-identical. Slots touched
/// by any MOSFET stamp are seeded too, but every iteration's
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

/// Compiled per-iteration assembly for all live lanes: stage MOSFET
/// linearizations, replay the mixed-slot program, rebuild the RHS.
fn assemble_compiled(ws: &mut BatchedMnaWorkspace, c: &CompiledBatch, live: &[bool], lanes: usize) {
    // Static slots keep their seeded values; only MOSFET-touched slots
    // are rebuilt, so the per-iteration matrix traffic scales with the
    // device count rather than the full nonzero count.
    for &slot in &c.dyn_slots {
        ws.vals[slot as usize * lanes..slot as usize * lanes + lanes].fill(0.0);
    }

    // Linearize every MOSFET for every live lane with the scalar
    // assembly's own expression.
    for (mi, rows) in c.mos_rows.iter().enumerate() {
        for l in 0..lanes {
            if !live[l] {
                continue;
            }
            let x = &ws.x;
            let st = MosStamp::at(
                &c.models[mi * lanes + l],
                rows.map(|row| row.map_or(0.0, |r| x[r * lanes + l])),
            );
            ws.mos_ieq[mi * lanes + l] = st.ieq;
            for (j, &g) in st.g.iter().enumerate() {
                ws.dyn_vals[(mi * 6 + j) * lanes + l] = g;
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

    // Rebuild the RHS, ops in walk order, from the per-step staged
    // constants (source values and capacitor companion currents change
    // only between steps, not between Newton iterations). Row-major
    // layout makes every op a contiguous lanes-wide add; lanes that are
    // no longer live accumulate stale-but-finite values whose solutions
    // are discarded.
    ws.rhs.fill(0.0);
    let BatchedMnaWorkspace {
        rhs,
        cap_rhs,
        src_vals,
        mos_ieq,
        ..
    } = ws;
    for op in &c.rhs_ops {
        match *op {
            RhsOp::Set { row, i } => {
                rhs[row * lanes..(row + 1) * lanes]
                    .copy_from_slice(&src_vals[i * lanes..(i + 1) * lanes]);
            }
            RhsOp::Add { row, from, i, neg } => {
                let staged = match from {
                    Staged::Cap => &cap_rhs[..],
                    Staged::Src => &src_vals[..],
                    Staged::Mos => &mos_ieq[..],
                };
                let dst = rhs[row * lanes..(row + 1) * lanes].iter_mut();
                let src = &staged[i * lanes..(i + 1) * lanes];
                if neg {
                    for (d, &v) in dst.zip(src) {
                        *d -= v;
                    }
                } else {
                    for (d, &v) in dst.zip(src) {
                        *d += v;
                    }
                }
            }
        }
    }
}

/// Stages the right-hand-side terms that are constant within a step:
/// source waveform values at `t` and capacitor companion currents from
/// the previous step's state, each with the scalar assembly's own
/// expression; only *when* it is evaluated moves (once per step instead
/// of once per Newton iteration).
fn stage_step_constants(
    nets: &[&Netlist],
    ws: &mut BatchedMnaWorkspace,
    c: &CompiledBatch,
    live: &[bool],
    t: f64,
    rule: Companion,
    lanes: usize,
) {
    // Capacitor staging sweeps all lanes of one row at a time (the
    // interleaved layouts make every read contiguous); non-live lanes
    // compute garbage that no consumer reads.
    let BatchedMnaWorkspace {
        node_v,
        cap_i,
        cap_farads,
        cap_rhs,
        src_vals,
        ..
    } = ws;
    for (ci, &(a, b)) in c.caps.iter().enumerate() {
        let lane_row = |i: usize| i * lanes..(i + 1) * lanes;
        let av = &node_v[lane_row(a.index())];
        let bv = &node_v[lane_row(b.index())];
        let f = &cap_farads[lane_row(ci)];
        let ic = &cap_i[lane_row(ci)];
        let dst = &mut cap_rhs[lane_row(ci)];
        for ((((d, &va), &vb), &farads), &i_prev) in dst.iter_mut().zip(av).zip(bv).zip(f).zip(ic) {
            *d = rule.ieq(rule.g(farads), va - vb, i_prev);
        }
    }
    // Waveform evals stay per lane — each lane owns a distinct waveform
    // object.
    for (si, &elem) in c.sources.iter().enumerate() {
        for l in 0..lanes {
            if !live[l] {
                continue;
            }
            let (Element::VSource { waveform, .. } | Element::ISource { waveform, .. }) =
                &nets[l].elements()[elem]
            else {
                unreachable!("an admitted lane walks lane 0's sources");
            };
            src_vals[si * lanes + l] = waveform.eval(t);
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

    /// The batch with a stop that never fires.
    fn run_to_end(
        nets: &[&Netlist],
        spec: &BatchTransientSpec<'_>,
        ws: &mut BatchedMnaWorkspace,
    ) -> Result<BatchTransientResult, SpiceError> {
        run_transient_batch_until(nets, spec, ws, |_, _, _| false)
    }

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
        let out = run_to_end(&refs, &spec, &mut ws).unwrap();
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
        let out2 = run_to_end(&refs, &spec, &mut ws).unwrap();
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
        let out = run_to_end(&refs, &spec, &mut ws).unwrap();

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
        let full = run_to_end(&refs, &spec, &mut ws).unwrap();
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
        let out = run_to_end(&refs, &spec, &mut ws).unwrap();
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
        let out = run_to_end(&nets, &spec, &mut ws).unwrap();
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
    fn lanes_with_other_node_or_capacitor_counts_fall_out() {
        let a = rc_lane(1.0);
        // One more node, hung off the ladder's end.
        let mut more_nodes = rc_lane(1.1);
        let n2 = more_nodes.find_node("n2").unwrap();
        let n3 = more_nodes.node("n3");
        more_nodes.add_resistor("R3", n2, n3, 1e3).unwrap();
        more_nodes
            .add_capacitor("C3", n3, Netlist::GROUND, 1e-15)
            .unwrap();
        // The same nodes with one more capacitor.
        let mut more_caps = rc_lane(0.9);
        let n1 = more_caps.find_node("n1").unwrap();
        more_caps.add_capacitor("C4", n1, n2, 1e-15).unwrap();
        let nets = [&a, &more_nodes, &more_caps];
        let n1 = a.find_node("n1").unwrap();
        let uic = [(n1, 0.2)];
        let mut ws = BatchedMnaWorkspace::new();
        for initial in [&uic[..], &[]] {
            let spec = BatchTransientSpec {
                method: Method::Trapezoidal,
                dt: 1e-12,
                t_stop: 5e-12,
                initial,
                probes: &[n1],
            };
            let out = run_to_end(&nets, &spec, &mut ws).unwrap();
            for l in [1, 2] {
                assert!(
                    matches!(
                        out.lanes[l],
                        BatchLaneOutcome::FellOut {
                            reason: LaneFalloutReason::StructureMismatch
                        }
                    ),
                    "lane {l}: {:?}",
                    out.lanes[l]
                );
            }
            let scalar = scalar_reference(&a, initial, 1e-12, 5e-12);
            let BatchLaneOutcome::Completed { probes } = &out.lanes[0] else {
                panic!("the reference lane fell out");
            };
            assert_bits_eq(&probes[0], scalar.waveform(n1), "n1");
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
            run_to_end(&[&net], &spec, &mut ws),
            Err(SpiceError::InvalidAnalysis { .. })
        ));
        spec.dt = 1e-12;
        assert!(matches!(
            run_to_end(&[], &spec, &mut ws),
            Err(SpiceError::InvalidAnalysis { .. })
        ));
    }

    /// One deck with every element kind: a DC and a pulse voltage
    /// source, a current source between two nodes off ground,
    /// resistors, grounded and floating capacitors, and a MOSFET whose
    /// drain and source are both off ground. `s` scales the lane's
    /// values.
    fn every_kind_lane(s: f64) -> Netlist {
        let tech = n10();
        let mut net = Netlist::new();
        let vdd = net.node("vdd");
        let vin = net.node("in");
        let d = net.node("d");
        let src = net.node("s");
        let a = net.node("a");
        net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(0.7))
            .unwrap();
        net.add_vsource(
            "VIN",
            vin,
            Netlist::GROUND,
            Waveform::pulse(0.0, 0.7, 2e-12, 1e-12, 1e-12, 1.0, 0.0).unwrap(),
        )
        .unwrap();
        net.add_resistor("RL", vdd, d, 10e3 * s).unwrap();
        net.add_mosfet(
            "M1",
            d,
            vin,
            src,
            MosfetModel::new(tech.nmos().scaled(s).unwrap()),
        )
        .unwrap();
        net.add_resistor("RS", src, Netlist::GROUND, 1e3 * s)
            .unwrap();
        net.add_capacitor("CD", d, Netlist::GROUND, 1e-15 * s)
            .unwrap();
        net.add_capacitor("CDS", d, src, 0.5e-15 / s).unwrap();
        net.add_isource("IA", src, a, Waveform::dc(2e-6 * s))
            .unwrap();
        net.add_resistor("RA", a, d, 20e3 / s).unwrap();
        net.add_capacitor("CA", a, Netlist::GROUND, 1e-15).unwrap();
        net
    }

    #[test]
    fn every_element_kind_batch_bit_identical_to_scalar() {
        let nets: Vec<Netlist> = [1.0, 1.3, 0.8]
            .iter()
            .map(|&s| every_kind_lane(s))
            .collect();
        let refs: Vec<&Netlist> = nets.iter().collect();
        let probes: Vec<NodeId> = ["d", "s", "a", "in"]
            .iter()
            .map(|n| nets[0].find_node(n).unwrap())
            .collect();
        let (d, src) = (probes[0], probes[1]);
        // 0.2 ps does not divide 20.5 ps: the final step is shortened.
        let (dt, t_stop) = (2e-13, 2.05e-11);
        let mut ws = BatchedMnaWorkspace::new();
        // UIC and the DC operating-point start, under both methods.
        let uic = [(d, 0.7), (src, 0.0)];
        for method in [Method::Trapezoidal, Method::BackwardEuler] {
            for initial in [&uic[..], &[]] {
                let spec = BatchTransientSpec {
                    method,
                    dt,
                    t_stop,
                    initial,
                    probes: &probes,
                };
                let out =
                    run_transient_batch_until(&refs, &spec, &mut ws, |_, _, _| false).unwrap();
                for (l, net) in nets.iter().enumerate() {
                    let mut tran = Transient::new(net).unwrap();
                    tran.set_method(method);
                    for &(node, v) in initial {
                        tran.set_initial_voltage(node, v);
                    }
                    let scalar = tran.run(dt, t_stop).unwrap();
                    assert_bits_eq(&out.times, scalar.times(), "times");
                    let BatchLaneOutcome::Completed { probes: got } = &out.lanes[l] else {
                        panic!("lane {l} fell out: {:?}", out.lanes[l]);
                    };
                    for (p, &node) in probes.iter().enumerate() {
                        let what = format!(
                            "{method:?} uic={} lane {l} {}",
                            !initial.is_empty(),
                            net.node_name(node)
                        );
                        assert_bits_eq(&got[p], scalar.waveform(node), &what);
                    }
                }
            }
        }
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
        let out = run_to_end(&[&net], &spec, &mut ws).unwrap();
        let scalar = scalar_reference(&net, &initial, dt, t_stop);
        match &out.lanes[0] {
            BatchLaneOutcome::Completed { probes } => {
                assert_bits_eq(&probes[0], scalar.waveform(bl), "bl");
            }
            other => panic!("lane fell out: {other:?}"),
        }
    }
}
