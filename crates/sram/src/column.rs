//! The §II.C column testbench shared by the read and write paths.
//!
//! Both operations simulate one transient on the same circuit skeleton:
//!
//! * the active pair's BL and BLB as distributed RC ladders with one
//!   π-segment per cell (emitted by `mpvar-extract`), every cell adding
//!   its pass-gate junction capacitance to its tap;
//! * the `VDD` rail and a word-line pulse rising after `wl_delay`;
//! * the precharge PMOS (off during the access, drive ∝ array size per
//!   the paper) loading each bit line's near end with its junction
//!   capacitance;
//! * both bit lines precharged to `vdd` (UIC).
//!
//! The operations differ only in the devices between [`Column::print`]
//! (the prefix) and [`Column::finish`] (the suffix), and in the
//! [`Crossing`] they time from the WL mid-edge. This module owns
//! everything else: the window-doubling scalar loop, the batched
//! driver with its per-lane scalar fallback, and the scratch buffers.
//!
//! Every element is stamped and every node interned in one fixed order,
//! since MNA accumulation is order-sensitive at the f64 level; the
//! scalar and batched paths build the same testbench, so batched
//! results are bit-identical to scalar at any width.

use mpvar_extract::{emit_rc_deck, RcDeck, RcDeckSpec};
use mpvar_litho::{apply_draw, Draw};
use mpvar_spice::{
    cross_differential_series, cross_threshold_series, run_transient_batch_until, BatchLaneOutcome,
    BatchTransientSpec, BatchedMnaWorkspace, CrossDirection, Method, MosfetModel, Netlist, NodeId,
    SpiceError, Transient, TransientResult, Waveform,
};
use mpvar_tech::TechDb;

use crate::cell::{BitcellGeometry, INACTIVE_PREFIX};
use crate::error::SramError;
use crate::params::FormulaParams;

/// The operation-independent settings of one column simulation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnSpec {
    /// Span opened per simulation (`sram_read` / `sram_write`).
    pub(crate) span: &'static str,
    pub(crate) vdd_v: f64,
    pub(crate) wl_delay_s: f64,
    pub(crate) wl_rise_s: f64,
    pub(crate) steps: usize,
    pub(crate) window_scale: f64,
    pub(crate) max_retries: usize,
}

/// The crossing an operation times from the WL mid-edge.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Crossing {
    /// `v(a) − v(b)` rising through `dv` — the read's sense criterion.
    Differential { a: NodeId, b: NodeId, dv: f64 },
    /// `v(node)` falling through `v` — the write's flip.
    Falling { node: NodeId, v: f64 },
}

impl Crossing {
    /// The error of a crossing that no window reached.
    fn never(&self, window_s: f64) -> SramError {
        match self {
            Crossing::Differential { .. } => SramError::SenseNeverTripped { window_s },
            Crossing::Falling { .. } => SramError::WriteNeverFlipped { window_s },
        }
    }
}

/// A timed crossing: the operation's figure of merit and where it came
/// from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timed {
    /// WL mid-edge to the crossing, s.
    pub(crate) t_s: f64,
    /// Absolute time of the WL mid-edge, s.
    pub(crate) t_wl_s: f64,
    /// Simulated window that produced the measurement, s.
    pub(crate) window_s: f64,
}

/// The printed column with its rails, word line and per-cell loads:
/// everything up to the operation's own devices.
pub(crate) struct Column<'a> {
    tech: &'a TechDb,
    cell: &'a BitcellGeometry,
    spec: &'a ColumnSpec,
    n_cells: usize,
    pub(crate) deck: RcDeck,
    pub(crate) vdd: NodeId,
    pub(crate) wl: NodeId,
    pub(crate) bl_near: NodeId,
    pub(crate) bl_far: NodeId,
    pub(crate) blb_near: NodeId,
    pub(crate) blb_far: NodeId,
}

impl<'a> Column<'a> {
    /// The prefix: prints the column under `draw`, extracts its ladders
    /// and adds the rails, the word line and the per-cell `Cfe_*` loads.
    pub(crate) fn print(
        tech: &'a TechDb,
        cell: &'a BitcellGeometry,
        spec: &'a ColumnSpec,
        n_cells: usize,
        draw: &Draw,
    ) -> Result<Self, SramError> {
        let m1 = tech.metal(1).ok_or_else(|| SramError::IncompleteTech {
            missing: "metal1 spec".to_string(),
        })?;
        let stack = cell.column_stack(crate::array::PAPER_BL_PAIRS, 5, n_cells)?;
        let printed = apply_draw(&stack, draw)?;
        let deck_spec = RcDeckSpec {
            segments: n_cells,
            rail_prefixes: vec![
                "VSS".to_string(),
                "VDD".to_string(),
                INACTIVE_PREFIX.to_string(),
            ],
        };
        let mut deck = emit_rc_deck(&printed, m1, &deck_spec)?;
        let bl_near = deck_tap(&deck, "BL", 0)?;
        let bl_far = deck_tap(&deck, "BL", n_cells)?;
        let blb_near = deck_tap(&deck, "BLB", 0)?;
        let blb_far = deck_tap(&deck, "BLB", n_cells)?;

        let net = deck.netlist_mut();
        let vdd = net.node("vdd");
        net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(spec.vdd_v))?;
        let wl = net.node("wl");
        net.add_vsource(
            "VWL",
            wl,
            Netlist::GROUND,
            Waveform::pulse(
                0.0,
                spec.vdd_v,
                spec.wl_delay_s,
                spec.wl_rise_s,
                spec.wl_rise_s,
                1.0, // stays up for the whole window
                0.0,
            )?,
        )?;

        let cfe = tech.nmos().c_drain_f() * cell.sizing().pass_gate;
        for net_name in ["BL", "BLB"] {
            for k in 1..=n_cells {
                let tap = deck_tap(&deck, net_name, k)?;
                deck.netlist_mut().add_capacitor(
                    &format!("Cfe_{net_name}_{k}"),
                    tap,
                    Netlist::GROUND,
                    cfe,
                )?;
            }
        }

        Ok(Self {
            tech,
            cell,
            spec,
            n_cells,
            deck,
            vdd,
            wl,
            bl_near,
            bl_far,
            blb_near,
            blb_far,
        })
    }

    /// The suffix: adds the near-end precharge devices and caps, the UIC
    /// list (both ladders and `vdd` at the rail, then `cell_initial`),
    /// and the first window `wl_delay + wl_rise + window_scale · a ·
    /// (n·rbl + rfe) · (n·(cbl + cfe) + cpre)` from `fp`.
    pub(crate) fn finish(
        mut self,
        cell_initial: [(NodeId, f64); 2],
        crossing: Crossing,
        a: f64,
        fp: &FormulaParams,
    ) -> Result<Testbench, SramError> {
        let (spec, n_cells) = (self.spec, self.n_cells);
        let pmos = *self.tech.pmos();
        let pre_strength = self.cell.sizing().precharge_per_cell * n_cells as f64;
        let precharge = MosfetModel::new(pmos.scaled(pre_strength).map_err(invalid)?);
        let net = self.deck.netlist_mut();
        // Gate at vdd: off during the access; the device contributes its
        // (size-scaled) junction capacitance.
        net.add_mosfet("Mpre_bl", self.bl_near, self.vdd, self.vdd, precharge)?;
        net.add_mosfet("Mpre_blb", self.blb_near, self.vdd, self.vdd, precharge)?;
        let cpre = pmos.c_drain_f() * pre_strength;
        net.add_capacitor("Cpre_bl", self.bl_near, Netlist::GROUND, cpre)?;
        net.add_capacitor("Cpre_blb", self.blb_near, Netlist::GROUND, cpre)?;

        let mut initial = Vec::new();
        for net_name in ["BL", "BLB"] {
            for k in 0..=n_cells {
                initial.push((deck_tap(&self.deck, net_name, k)?, spec.vdd_v));
            }
        }
        initial.push((self.vdd, spec.vdd_v));
        initial.extend(cell_initial);

        // Trial-invariant by construction: `fp` is the nominal column.
        let n = n_cells as f64;
        let est =
            a * (n * fp.rbl_ohm + fp.rfe_ohm) * (n * (fp.cbl_f + fp.cfe_f) + fp.cpre_f(n_cells));
        let window0_s = spec.wl_delay_s + spec.wl_rise_s + spec.window_scale * est;

        Ok(Testbench {
            deck: self.deck,
            wl: self.wl,
            crossing,
            initial,
            window0_s,
        })
    }
}

/// Maps a device-scaling failure to a structural error.
pub(crate) fn invalid(e: impl std::fmt::Display) -> SramError {
    SramError::InvalidStructure {
        message: e.to_string(),
    }
}

fn deck_tap(deck: &RcDeck, net: &str, k: usize) -> Result<NodeId, SramError> {
    deck.tap(net, k).ok_or_else(|| SramError::InvalidStructure {
        message: format!("missing tap {k} on {net}"),
    })
}

/// One built testbench: the finished deck, the WL and crossing to time,
/// the UIC initial conditions, and the first simulation window.
pub(crate) struct Testbench {
    deck: RcDeck,
    wl: NodeId,
    crossing: Crossing,
    initial: Vec<(NodeId, f64)>,
    window0_s: f64,
}

impl Testbench {
    /// The recorded nodes: the word line, then the crossing's nodes.
    fn probes(&self) -> Vec<NodeId> {
        match self.crossing {
            Crossing::Differential { a, b, .. } => vec![self.wl, a, b],
            Crossing::Falling { node, .. } => vec![self.wl, node],
        }
    }

    /// Times one simulated `window_s` from the series of
    /// [`Self::probes`].
    fn measure<S: AsRef<[f64]>>(
        &self,
        vdd_v: f64,
        window_s: f64,
        times: &[f64],
        series: &[S],
        diff: &mut Vec<f64>,
    ) -> Window {
        let Some(t_wl) = cross_threshold_series(
            times,
            series[0].as_ref(),
            vdd_v / 2.0,
            CrossDirection::Rising,
            0.0,
        ) else {
            return Window::NoWlEdge;
        };
        let crossed = match self.crossing {
            Crossing::Differential { dv, .. } => cross_differential_series(
                times,
                series[1].as_ref(),
                series[2].as_ref(),
                dv,
                CrossDirection::Rising,
                t_wl,
                diff,
            ),
            Crossing::Falling { v, .. } => {
                cross_threshold_series(times, series[1].as_ref(), v, CrossDirection::Falling, t_wl)
            }
        };
        match crossed {
            Some(t) => Window::Crossed(Timed {
                t_s: t - t_wl,
                t_wl_s: t_wl,
                window_s,
            }),
            None => Window::NoCrossing,
        }
    }

    /// The stop predicate of both drivers: whether the record so far
    /// (`times`, and `probe(i)` the waveform of [`Self::probes`]`[i]`)
    /// already holds the crossing [`Self::measure`] finds in the full
    /// window.
    ///
    /// `measure` returns the *first* crossing at or after the *first* WL
    /// edge, so on a growing record it turns `Crossed` at the step whose
    /// newest interval holds the WL edge or the operation's crossing,
    /// and its answer never changes after that. The O(1) test of the
    /// newest interval (the very comparisons `measure` makes there)
    /// passes once or twice per run; only then does `measure` run on the
    /// prefix to confirm.
    fn crossed<'s>(
        &self,
        vdd_v: f64,
        times: &[f64],
        probe: impl Fn(usize) -> &'s [f64],
        diff: &mut Vec<f64>,
    ) -> bool {
        let newest = |i: usize| {
            let w = probe(i);
            (w[w.len() - 2], w[w.len() - 1])
        };
        let wl_mid = vdd_v / 2.0;
        let (w0, w1) = newest(0);
        let wl_edge = w0 < wl_mid && w1 >= wl_mid;
        let op_edge = match self.crossing {
            Crossing::Differential { dv, .. } => {
                let ((a0, a1), (b0, b1)) = (newest(1), newest(2));
                a0 - b0 < dv && a1 - b1 >= dv
            }
            Crossing::Falling { v, .. } => {
                let (v0, v1) = newest(1);
                v0 > v && v1 <= v
            }
        };
        if !(wl_edge || op_edge) {
            return false;
        }
        let series: Vec<&[f64]> = (0..self.probes().len()).map(probe).collect();
        // The window only labels the `Timed`, which is dropped here.
        matches!(
            self.measure(vdd_v, 0.0, times, &series, diff),
            Window::Crossed(_)
        )
    }

    /// The scalar window-retry loop: simulate until the crossing (or the
    /// end of the window), time it, and double the window until it is
    /// seen or the retries run out.
    fn run(&self, spec: &ColumnSpec) -> Result<Timed, SramError> {
        let mut tran = Transient::new(self.deck.netlist())?;
        for &(node, v) in &self.initial {
            tran.set_initial_voltage(node, v);
        }
        let probes = self.probes();
        let mut diff = Vec::new();
        let mut window = self.window0_s;
        let mut searched = window;
        for _attempt in 0..=spec.max_retries {
            searched = window;
            let dt = window / spec.steps as f64;
            let result = tran.run_until(dt, window, |r| {
                self.crossed(spec.vdd_v, r.times(), |i| r.waveform(probes[i]), &mut diff)
            })?;
            let series: Vec<&[f64]> = probes.iter().map(|&p| result.waveform(p)).collect();
            match self.measure(spec.vdd_v, window, result.times(), &series, &mut diff) {
                Window::Crossed(timed) => return Ok(timed),
                Window::NoCrossing => window *= 2.0,
                Window::NoWlEdge => return Err(wl_never_rose(&result, self.wl, spec.vdd_v)),
            }
        }
        // Report the largest window actually simulated, not the next
        // (never-run) doubling the retry loop left behind.
        Err(self.crossing.never(searched))
    }
}

/// What one simulated window showed.
enum Window {
    NoWlEdge,
    NoCrossing,
    Crossed(Timed),
}

/// The error `cross_threshold` reports for a word line that never rose.
fn wl_never_rose(result: &TransientResult, wl: NodeId, vdd_v: f64) -> SramError {
    let t_start = 0.0;
    SpiceError::MeasurementNotFound {
        message: format!(
            "node `{}` never crossed {} after t = {t_start}",
            result.node_name(wl),
            vdd_v / 2.0
        ),
    }
    .into()
}

/// Simulates one access of an `n_cells`-deep column built by `build`.
pub(crate) fn simulate(
    spec: &ColumnSpec,
    n_cells: usize,
    draw: &Draw,
    build: impl Fn(&Draw) -> Result<Testbench, SramError>,
) -> Result<Timed, SramError> {
    check_cells(n_cells)?;
    let _span = mpvar_trace::span!(spec.span, n_cells = n_cells);
    build(draw)?.run(spec)
}

fn check_cells(n_cells: usize) -> Result<(), SramError> {
    if n_cells == 0 {
        return Err(SramError::InvalidStructure {
            message: "column needs at least one cell".to_string(),
        });
    }
    Ok(())
}

/// Reusable solver and measurement buffers for the batched read and
/// write drivers (`ReadBatchScratch` and `WriteBatchScratch` name it).
/// Hold one per worker thread: consecutive batches over the same column
/// structure then allocate nothing in the solve loop (the gauge behind
/// `spice.batch_workspace_bytes` stays flat across Monte-Carlo waves).
#[derive(Debug, Default)]
pub struct ColumnScratch {
    ws: BatchedMnaWorkspace,
    diff: Vec<f64>,
    /// Time points the last batch recorded: where its stop ended it.
    points: usize,
}

impl ColumnScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity bytes currently held across all buffers.
    pub fn bytes(&self) -> usize {
        self.ws.bytes() + 8 * self.diff.capacity()
    }
}

/// Simulates one access per draw through the batched trial solver: one
/// shared symbolic analysis and stamp program, with the draws as
/// vector-friendly value lanes. The batch stops once every lane in it
/// has crossed ([`Testbench::crossed`], the scalar loop's stop too).
///
/// Lanes the batch cannot carry re-run through [`simulate`], which
/// reproduces the scalar result (its error included) by definition:
/// fall-outs (structural divergence, pivot drift, Newton
/// non-convergence), a word line that never rose, a crossing that needs
/// the window-doubling retry loop, and spec-level batch failures. A
/// retried window re-run inside the batch would re-pivot with different
/// companion conductances; the scalar loop, which reuses its first
/// symbolic analysis across retries, is the bit-exact reference.
/// Per-draw build failures (shorted prints) stay in their lane.
pub(crate) fn simulate_batch(
    spec: &ColumnSpec,
    n_cells: usize,
    draws: &[Draw],
    scratch: &mut ColumnScratch,
    build: impl Fn(&Draw) -> Result<Testbench, SramError>,
) -> Result<Vec<Result<Timed, SramError>>, SramError> {
    check_cells(n_cells)?;
    if draws.is_empty() {
        return Ok(Vec::new());
    }
    let scalar = |draw: &Draw| simulate(spec, n_cells, draw, &build);
    let _span = mpvar_trace::span!(spec.span, n_cells = n_cells, lanes = draws.len());

    // Shorted prints and other per-draw build failures stay in their
    // lane without occupying a solver slot.
    let built: Vec<Result<Testbench, SramError>> = draws.iter().map(&build).collect();
    let lanes: Vec<(&Draw, &Testbench)> = draws
        .iter()
        .zip(&built)
        .filter_map(|(d, b)| Some((d, b.as_ref().ok()?)))
        .collect();
    let mut solved = match lanes.first() {
        Some(&(_, first)) => {
            // Structurally identical builds intern identical node ids, so
            // one lane's handles address every lane; a lane that disagrees
            // falls out of the batch as a structure mismatch.
            let probes = first.probes();
            let window = first.window0_s;
            let nets: Vec<&Netlist> = lanes.iter().map(|(_, tb)| tb.deck.netlist()).collect();
            let batch_spec = BatchTransientSpec {
                method: Method::Trapezoidal,
                dt: window / spec.steps as f64,
                t_stop: window,
                initial: &first.initial,
                probes: &probes,
            };
            let ColumnScratch { ws, diff, points } = &mut *scratch;
            let stop = |l: usize, times: &[f64], probes: &[Vec<f64>]| {
                lanes[l].1.crossed(spec.vdd_v, times, |i| &probes[i], diff)
            };
            let run = run_transient_batch_until(&nets, &batch_spec, ws, stop);
            *points = run.as_ref().map_or(0, |batch| batch.times.len());
            match run {
                Ok(batch) => lanes
                    .iter()
                    .zip(&batch.lanes)
                    .map(|(&(draw, _), lane)| {
                        let BatchLaneOutcome::Completed { probes } = lane else {
                            return scalar(draw);
                        };
                        match first.measure(
                            spec.vdd_v,
                            window,
                            &batch.times,
                            probes,
                            &mut scratch.diff,
                        ) {
                            Window::Crossed(timed) => Ok(timed),
                            Window::NoWlEdge | Window::NoCrossing => scalar(draw),
                        }
                    })
                    .collect(),
                // Spec-level failure (step-count overflow and the like):
                // the scalar path hits the same condition per lane and
                // owns the error text.
                Err(_) => lanes.iter().map(|&(draw, _)| scalar(draw)).collect(),
            }
        }
        None => Vec::new(),
    }
    .into_iter();
    Ok(built
        .into_iter()
        .map(|b| match b {
            Ok(_) => solved.next().expect("one result per solver lane"),
            Err(e) => Err(e),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readout::{build_read_testbench, ReadConfig};
    use crate::writepath::{build_write_testbench, WriteConfig};
    use mpvar_litho::{EuvDraw, Le3Draw};
    use mpvar_spice::cross_threshold;
    use mpvar_tech::preset::n10;
    use mpvar_tech::PatterningOption;

    /// The driver without the stop: full-window runs, measured
    /// afterwards, the window doubling until the crossing is seen.
    fn full_window(tb: &Testbench, spec: &ColumnSpec) -> Timed {
        let mut tran = Transient::new(tb.deck.netlist()).unwrap();
        for &(node, v) in &tb.initial {
            tran.set_initial_voltage(node, v);
        }
        let probes = tb.probes();
        let mut window = tb.window0_s;
        for _ in 0..=spec.max_retries {
            let r = tran.run(window / spec.steps as f64, window).unwrap();
            let series: Vec<&[f64]> = probes.iter().map(|&p| r.waveform(p)).collect();
            match tb.measure(spec.vdd_v, window, r.times(), &series, &mut Vec::new()) {
                Window::Crossed(timed) => return timed,
                Window::NoCrossing => window *= 2.0,
                Window::NoWlEdge => panic!("word line never rose"),
            }
        }
        panic!("no window crossed")
    }

    /// For every draw, the early-stopped scalar and batched drivers
    /// return the bits `measure` gives on the full window, and the
    /// scalar run ends at the first step whose record holds the crossing.
    fn assert_stop_is_exact(
        spec: &ColumnSpec,
        n_cells: usize,
        build: impl Fn(&Draw) -> Result<Testbench, SramError>,
    ) {
        let draws = [
            Draw::nominal(PatterningOption::Euv),
            Draw::Euv(EuvDraw { cd_nm: 2.0 }),
            Draw::Euv(EuvDraw { cd_nm: -1.5 }),
            Draw::nominal(PatterningOption::Le3),
            Draw::Le3(Le3Draw {
                cd_nm: [3.0, -2.0, 1.0],
                overlay_nm: [5.0, 0.0, -5.0],
            }),
        ];
        let mut scratch = ColumnScratch::new();
        let batched = simulate_batch(spec, n_cells, &draws, &mut scratch, &build).unwrap();
        for (draw, lane) in draws.iter().zip(batched) {
            let tb = build(draw).unwrap();
            let reference = full_window(&tb, spec);
            let bits = |t: &Timed| [t.t_s, t.t_wl_s, t.window_s].map(f64::to_bits);
            let scalar = tb.run(spec).unwrap();
            assert_eq!(bits(&scalar), bits(&reference), "scalar, {draw:?}");
            assert_eq!(bits(&lane.unwrap()), bits(&reference), "batched, {draw:?}");

            let mut tran = Transient::new(tb.deck.netlist()).unwrap();
            for &(node, v) in &tb.initial {
                tran.set_initial_voltage(node, v);
            }
            let probes = tb.probes();
            let window = reference.window_s;
            let mut diff = Vec::new();
            let r = tran
                .run_until(window / spec.steps as f64, window, |r| {
                    tb.crossed(spec.vdd_v, r.times(), |i| r.waveform(probes[i]), &mut diff)
                })
                .unwrap();
            assert!(r.len() <= spec.steps, "stopped early, {draw:?}");
            let k = r.len();
            let prefix =
                |m: usize| -> Vec<&[f64]> { probes.iter().map(|&p| &r.waveform(p)[..m]).collect() };
            let measure = |m: usize, diff: &mut Vec<f64>| {
                tb.measure(spec.vdd_v, window, &r.times()[..m], &prefix(m), diff)
            };
            assert!(matches!(measure(k, &mut diff), Window::Crossed(_)));
            assert!(
                !matches!(measure(k - 1, &mut diff), Window::Crossed(_)),
                "one step earlier holds no crossing, {draw:?}"
            );
        }
    }

    #[test]
    fn early_stopped_reads_and_writes_equal_the_full_window() {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech).unwrap();
        let (read, write) = (ReadConfig::default(), WriteConfig::default());
        for n in [8, 64] {
            let spec = read.column_spec();
            assert_stop_is_exact(&spec, n, |d| {
                build_read_testbench(&tech, &cell, &read, &spec, n, d)
            });
            let spec = write.column_spec();
            assert_stop_is_exact(&spec, n, |d| {
                build_write_testbench(&tech, &cell, &write, &spec, n, d)
            });
        }
    }

    /// Points of the scalar run of `tb`'s first window up to its stop.
    fn scalar_stop_points(tb: &Testbench, spec: &ColumnSpec) -> usize {
        let mut tran = Transient::new(tb.deck.netlist()).unwrap();
        for &(node, v) in &tb.initial {
            tran.set_initial_voltage(node, v);
        }
        let probes = tb.probes();
        let mut diff = Vec::new();
        tran.run_until(tb.window0_s / spec.steps as f64, tb.window0_s, |r| {
            tb.crossed(spec.vdd_v, r.times(), |i| r.waveform(probes[i]), &mut diff)
        })
        .unwrap()
        .len()
    }

    /// The batch ends at the first step where every lane has crossed:
    /// its record is as long as the slowest lane's early-stopped scalar
    /// run, and shorter than the full window's `steps + 1` points.
    fn assert_batch_stops_at_last_crossing(
        spec: &ColumnSpec,
        n_cells: usize,
        build: impl Fn(&Draw) -> Result<Testbench, SramError>,
    ) {
        let draws = [
            Draw::nominal(PatterningOption::Le3),
            Draw::Euv(EuvDraw { cd_nm: 2.0 }),
            Draw::Le3(Le3Draw {
                cd_nm: [3.0, -2.0, 1.0],
                overlay_nm: [5.0, 0.0, -5.0],
            }),
            Draw::Euv(EuvDraw { cd_nm: -1.5 }),
        ];
        let slowest = draws
            .iter()
            .map(|d| scalar_stop_points(&build(d).unwrap(), spec))
            .max()
            .unwrap();
        assert!(
            slowest <= spec.steps,
            "every lane crosses in the first window"
        );
        let mut scratch = ColumnScratch::new();
        let lanes = simulate_batch(spec, n_cells, &draws, &mut scratch, &build).unwrap();
        assert!(lanes.iter().all(Result::is_ok));
        assert_eq!(scratch.points, slowest, "n = {n_cells}");
        assert!(scratch.points < spec.steps + 1, "n = {n_cells}");
    }

    #[test]
    fn batched_reads_and_writes_stop_at_the_last_lane_crossing() {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech).unwrap();
        let (read, write) = (ReadConfig::default(), WriteConfig::default());
        for n in [8, 64] {
            let spec = read.column_spec();
            assert_batch_stops_at_last_crossing(&spec, n, |d| {
                build_read_testbench(&tech, &cell, &read, &spec, n, d)
            });
            let spec = write.column_spec();
            assert_batch_stops_at_last_crossing(&spec, n, |d| {
                build_write_testbench(&tech, &cell, &write, &spec, n, d)
            });
        }
    }

    #[test]
    fn wl_error_matches_cross_threshold_text() {
        let mut net = Netlist::new();
        let wl = net.node("wl");
        net.add_resistor("R1", wl, Netlist::GROUND, 1e3).unwrap();
        net.add_capacitor("C1", wl, Netlist::GROUND, 1e-15).unwrap();
        let result = Transient::new(&net).unwrap().run(1e-12, 1e-11).unwrap();
        let expected: SramError = cross_threshold(&result, wl, 0.35, CrossDirection::Rising, 0.0)
            .unwrap_err()
            .into();
        assert_eq!(
            wl_never_rose(&result, wl, 0.7).to_string(),
            expected.to_string()
        );
    }
}
