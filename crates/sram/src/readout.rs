//! The bit-line read testbench (paper §II.C).
//!
//! Builds and simulates the circuit of one read access in a 10-pair
//! array window, on the column it shares with [`crate::writepath`]:
//!
//! * the active pair's BL and BLB become distributed RC ladders with one
//!   π-segment per cell (emitted by `mpvar-extract`);
//! * every cell adds its pass-gate junction capacitance to its tap;
//! * the *accessed cell sits at the far end* (worst case): pass-gate NMOS
//!   from the last BL tap into the internal node, pull-down NMOS (gate at
//!   VDD — the cell stores a 0 on the BL side) to ground;
//! * BLB's accessed pass-gate connects to the complementary node held
//!   high by its pull-up, so BLB stays at precharge;
//! * the precharge PMOS (off during the read, drive ∝ array size per the
//!   paper) loads each bit line's near end with its junction capacitance;
//! * both bit lines start precharged to `vdd` (UIC), the word line
//!   rises after `wl_delay`, and `td` is the time from the WL mid-edge to
//!   `V(blb) − V(bl) ≥ 70mV` at the near (sense-amp) end.
//!
//! This module adds only the accessed cell and the sense criterion. The
//! column, the window-retry loop and the batched driver with its
//! per-lane scalar fallback live in the private `column` module
//! (`column.rs`), shared with the write path.

use mpvar_litho::Draw;
use mpvar_spice::{MosfetModel, Netlist};
use mpvar_tech::TechDb;

use crate::cell::BitcellGeometry;
use crate::column::{self, invalid, Column, ColumnScratch, ColumnSpec, Crossing, Testbench, Timed};
use crate::error::SramError;
use crate::params::FormulaParams;

/// Read-testbench configuration (defaults match the paper's §II.C
/// assumptions: 0.7V rails and precharge, 70mV sense sensitivity).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadConfig {
    /// Supply / precharge / word-line high level, V.
    pub vdd_v: f64,
    /// Sense-amp sensitivity `|V_bl - V_blb|`, V.
    pub sense_dv_v: f64,
    /// Delay before the word-line edge, s.
    pub wl_delay_s: f64,
    /// Word-line rise time, s.
    pub wl_rise_s: f64,
    /// Fixed time-step count per simulation window.
    pub steps: usize,
    /// Initial window = `window_scale` x the lumped-RC estimate.
    pub window_scale: f64,
    /// Window doublings attempted before giving up.
    pub max_retries: usize,
}

impl Default for ReadConfig {
    fn default() -> Self {
        Self {
            vdd_v: 0.7,
            sense_dv_v: 0.07,
            wl_delay_s: 20e-12,
            wl_rise_s: 10e-12,
            steps: 2000,
            window_scale: 25.0,
            max_retries: 3,
        }
    }
}

impl ReadConfig {
    pub(crate) fn column_spec(&self) -> ColumnSpec {
        ColumnSpec {
            span: mpvar_trace::names::SPAN_SRAM_READ,
            vdd_v: self.vdd_v,
            wl_delay_s: self.wl_delay_s,
            wl_rise_s: self.wl_rise_s,
            steps: self.steps,
            window_scale: self.window_scale,
            max_retries: self.max_retries,
        }
    }
}

/// Result of one read simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadOutcome {
    /// Time-to-discharge: WL mid-edge to sense crossing, s — the paper's
    /// figure of merit.
    pub td_s: f64,
    /// Absolute time of the WL mid-edge, s.
    pub t_wl_s: f64,
    /// Simulated window that produced the measurement, s.
    pub window_s: f64,
}

impl From<Timed> for ReadOutcome {
    fn from(t: Timed) -> Self {
        Self {
            td_s: t.t_s,
            t_wl_s: t.t_wl_s,
            window_s: t.window_s,
        }
    }
}

/// Reusable solver and measurement buffers for
/// [`simulate_read_batch_in`]; the same type as
/// [`crate::WriteBatchScratch`]. Hold one per worker thread.
pub type ReadBatchScratch = ColumnScratch;

/// Simulates one read of an `n_cells`-deep column printed under `draw`,
/// returning the discharge time `td`.
///
/// # Errors
///
/// * structural/tech errors from geometry and extraction;
/// * [`SramError::SenseNeverTripped`] when the differential never
///   reaches the sense threshold even after window retries.
pub fn simulate_read(
    tech: &TechDb,
    cell: &BitcellGeometry,
    config: &ReadConfig,
    n_cells: usize,
    draw: &Draw,
) -> Result<ReadOutcome, SramError> {
    let spec = config.column_spec();
    column::simulate(&spec, n_cells, draw, |d| {
        build_read_testbench(tech, cell, config, &spec, n_cells, d)
    })
    .map(ReadOutcome::from)
}

/// Simulates one read per draw through the batched trial solver, with
/// caller-owned scratch buffers for workers that run many batches back
/// to back.
///
/// Per-draw results are **bit-identical** to calling [`simulate_read`]
/// on each draw individually: lanes the batch cannot carry — shorted
/// prints, structural divergence, pivot drift, Newton non-convergence,
/// or a read that needs the window-doubling retry loop — are resolved
/// through the scalar path instead, which reproduces the scalar result
/// (including its error) by definition.
///
/// # Errors
///
/// The outer `Err` is structural (a zero-cell column). Per-draw
/// failures (shorted geometry, [`SramError::SenseNeverTripped`]) come
/// back inside the per-lane results, in draw order.
pub fn simulate_read_batch_in(
    tech: &TechDb,
    cell: &BitcellGeometry,
    config: &ReadConfig,
    n_cells: usize,
    draws: &[Draw],
    scratch: &mut ReadBatchScratch,
) -> Result<Vec<Result<ReadOutcome, SramError>>, SramError> {
    let spec = config.column_spec();
    let lanes = column::simulate_batch(&spec, n_cells, draws, scratch, |d| {
        build_read_testbench(tech, cell, config, &spec, n_cells, d)
    })?;
    Ok(lanes
        .into_iter()
        .map(|lane| lane.map(ReadOutcome::from))
        .collect())
}

/// Builds the §II.C read testbench for one printed draw: the shared
/// column with the accessed cell (pass gate and pull-down on BL, pass
/// gate and pull-up on BLB) at the far end.
pub(crate) fn build_read_testbench(
    tech: &TechDb,
    cell: &BitcellGeometry,
    config: &ReadConfig,
    spec: &ColumnSpec,
    n_cells: usize,
    draw: &Draw,
) -> Result<Testbench, SramError> {
    let mut col = Column::print(tech, cell, spec, n_cells, draw)?;
    let sizing = cell.sizing();
    let nmos = *tech.nmos();
    let (vdd, wl, bl_far, blb_far) = (col.vdd, col.wl, col.bl_far, col.blb_far);
    let net = col.deck.netlist_mut();

    let q = net.node("q");
    let pass = MosfetModel::new(nmos.scaled(sizing.pass_gate).map_err(invalid)?);
    let pull_down = MosfetModel::new(nmos.scaled(sizing.pull_down).map_err(invalid)?);
    net.add_mosfet("Mpass", bl_far, wl, q, pass)?;
    net.add_mosfet("Mpd", q, vdd, Netlist::GROUND, pull_down)?;
    // Internal-node load: both inverter gate caps plus two junctions.
    let cint = 2.0 * nmos.c_gate_f() + 2.0 * nmos.c_drain_f();
    net.add_capacitor("Cq", q, Netlist::GROUND, cint)?;

    // BLB side: pass-gate into the complementary node held high.
    let qb = net.node("qb");
    let pull_up = MosfetModel::new(tech.pmos().scaled(sizing.pull_up).map_err(invalid)?);
    net.add_mosfet("Mpass_b", blb_far, wl, qb, pass)?;
    // Gate at ground keeps the PMOS on, holding qb at vdd (the stored 1).
    net.add_mosfet("Mpu_b", qb, Netlist::GROUND, vdd, pull_up)?;
    net.add_capacitor("Cqb", qb, Netlist::GROUND, cint)?;

    let sense = Crossing::Differential {
        a: col.blb_near,
        b: col.bl_near,
        dv: config.sense_dv_v,
    };
    let fp = FormulaParams::derive(tech, cell, config.vdd_v)?;
    col.finish([(q, 0.0), (qb, config.vdd_v)], sense, 0.105, &fp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_litho::{Draw, EuvDraw, Le3Draw};
    use mpvar_tech::preset::n10;
    use mpvar_tech::PatterningOption;

    fn setup() -> (TechDb, BitcellGeometry) {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech).unwrap();
        (tech, cell)
    }

    #[test]
    fn nominal_read_produces_picosecond_td() {
        let (tech, cell) = setup();
        let out = simulate_read(
            &tech,
            &cell,
            &ReadConfig::default(),
            16,
            &Draw::nominal(PatterningOption::Euv),
        )
        .unwrap();
        // N10-class 16-cell column: single-digit to tens of ps.
        assert!(
            out.td_s > 0.5e-12 && out.td_s < 100e-12,
            "td = {:.3e}",
            out.td_s
        );
        assert!(out.t_wl_s > 0.0);
        assert!(out.window_s > out.td_s);
    }

    #[test]
    fn td_grows_with_array_size() {
        let (tech, cell) = setup();
        let cfg = ReadConfig::default();
        let nominal = Draw::nominal(PatterningOption::Euv);
        let td16 = simulate_read(&tech, &cell, &cfg, 16, &nominal)
            .unwrap()
            .td_s;
        let td64 = simulate_read(&tech, &cell, &cfg, 64, &nominal)
            .unwrap()
            .td_s;
        assert!(td64 > 2.0 * td16, "td16 {td16:.3e} td64 {td64:.3e}");
        // Super-linear growth is mild while FET-limited: below quadratic.
        assert!(td64 < 8.0 * td16);
    }

    #[test]
    fn nominal_td_equal_across_options() {
        // All three options print identical nominal geometry, so nominal
        // td must agree to solver tolerance.
        let (tech, cell) = setup();
        let cfg = ReadConfig::default();
        let tds: Vec<f64> = PatterningOption::ALL
            .iter()
            .map(|&o| {
                simulate_read(&tech, &cell, &cfg, 16, &Draw::nominal(o))
                    .unwrap()
                    .td_s
            })
            .collect();
        assert!((tds[0] - tds[1]).abs() / tds[0] < 1e-6);
        assert!((tds[0] - tds[2]).abs() / tds[0] < 1e-6);
    }

    #[test]
    fn squeezed_bitline_reads_slower() {
        let (tech, cell) = setup();
        let cfg = ReadConfig::default();
        let nominal = simulate_read(
            &tech,
            &cell,
            &cfg,
            16,
            &Draw::nominal(PatterningOption::Le3),
        )
        .unwrap()
        .td_s;
        // LE3-style worst case: neighbours shifted toward BL, all CDs up.
        let worst = Draw::Le3(Le3Draw {
            cd_nm: [3.0, 3.0, 3.0],
            overlay_nm: [8.0, 0.0, -8.0],
        });
        let squeezed = simulate_read(&tech, &cell, &cfg, 16, &worst).unwrap().td_s;
        let tdp = squeezed / nominal - 1.0;
        assert!(tdp > 0.05, "tdp = {tdp}");
    }

    #[test]
    fn wider_lines_read_slightly_differently() {
        // EUV CD+3: more C (slower) but less R; net effect small but
        // positive for short arrays (C-dominated).
        let (tech, cell) = setup();
        let cfg = ReadConfig::default();
        let nominal = simulate_read(
            &tech,
            &cell,
            &cfg,
            16,
            &Draw::nominal(PatterningOption::Euv),
        )
        .unwrap()
        .td_s;
        let wide = simulate_read(&tech, &cell, &cfg, 16, &Draw::Euv(EuvDraw { cd_nm: 3.0 }))
            .unwrap()
            .td_s;
        let tdp = wide / nominal - 1.0;
        assert!(tdp > 0.0 && tdp < 0.3, "tdp = {tdp}");
    }

    #[test]
    fn zero_cells_rejected() {
        let (tech, cell) = setup();
        assert!(matches!(
            simulate_read(
                &tech,
                &cell,
                &ReadConfig::default(),
                0,
                &Draw::nominal(PatterningOption::Euv)
            ),
            Err(SramError::InvalidStructure { .. })
        ));
    }

    #[test]
    fn batched_reads_bit_identical_to_scalar() {
        let (tech, cell) = setup();
        let cfg = ReadConfig::default();
        let draws = vec![
            Draw::nominal(PatterningOption::Euv),
            Draw::Euv(EuvDraw { cd_nm: 2.0 }),
            Draw::Le3(Le3Draw {
                cd_nm: [3.0, -2.0, 1.0],
                overlay_nm: [5.0, 0.0, -5.0],
            }),
            // Shorted print: must come back as the scalar path's litho
            // error, in its lane, without disturbing the solver lanes.
            Draw::Euv(EuvDraw { cd_nm: 30.0 }),
            Draw::Euv(EuvDraw { cd_nm: -1.5 }),
        ];
        let mut scratch = ReadBatchScratch::new();
        let batched = simulate_read_batch_in(&tech, &cell, &cfg, 12, &draws, &mut scratch).unwrap();
        assert_eq!(batched.len(), draws.len());
        let bytes = scratch.bytes();
        assert!(bytes > 0);
        let mut shorted = 0;
        for (d, b) in draws.iter().zip(&batched) {
            let scalar = simulate_read(&tech, &cell, &cfg, 12, d);
            match (b, scalar) {
                (Ok(bo), Ok(so)) => {
                    assert_eq!(bo.td_s.to_bits(), so.td_s.to_bits(), "td");
                    assert_eq!(bo.t_wl_s.to_bits(), so.t_wl_s.to_bits(), "t_wl");
                    assert_eq!(bo.window_s.to_bits(), so.window_s.to_bits(), "window");
                }
                (Err(be), Err(se)) => {
                    assert_eq!(be.to_string(), se.to_string());
                    shorted += 1;
                }
                (b, s) => panic!("batch {b:?} disagrees with scalar {s:?}"),
            }
        }
        assert_eq!(shorted, 1, "exactly the shorted lane errors");

        // A second batch over the same structure reuses every buffer.
        let again = simulate_read_batch_in(&tech, &cell, &cfg, 12, &draws, &mut scratch).unwrap();
        assert_eq!(scratch.bytes(), bytes, "scratch grew on reuse");
        match (&batched[0], &again[0]) {
            (Ok(a), Ok(b)) => assert_eq!(a.td_s.to_bits(), b.td_s.to_bits()),
            other => panic!("repeat diverged: {other:?}"),
        }
    }

    #[test]
    fn batched_read_rejects_zero_cells_and_empty_batch_is_empty() {
        let (tech, cell) = setup();
        let d = [Draw::nominal(PatterningOption::Euv)];
        let cfg = ReadConfig::default();
        assert!(
            simulate_read_batch_in(&tech, &cell, &cfg, 12, &[], &mut ReadBatchScratch::new())
                .unwrap()
                .is_empty()
        );
        assert!(matches!(
            simulate_read_batch_in(
                &tech,
                &cell,
                &ReadConfig::default(),
                0,
                &d,
                &mut ReadBatchScratch::new()
            ),
            Err(SramError::InvalidStructure { .. })
        ));
    }

    #[test]
    fn sense_never_tripped_reports_the_final_window_searched() {
        // A sense threshold above the rail can never trip; the error must
        // carry the *largest window actually simulated*, i.e. the initial
        // window grown by one doubling per retry — not the next doubling
        // the loop computed but never ran.
        let (tech, cell) = setup();
        let d = Draw::nominal(PatterningOption::Euv);
        let base = ReadConfig {
            sense_dv_v: 1.0,
            ..ReadConfig::default()
        };
        let window_at = |retries: usize| {
            let cfg = ReadConfig {
                max_retries: retries,
                ..base
            };
            match simulate_read(&tech, &cell, &cfg, 8, &d) {
                Err(SramError::SenseNeverTripped { window_s }) => window_s,
                other => panic!("expected SenseNeverTripped, got {other:?}"),
            }
        };
        let w0 = window_at(0);
        let w2 = window_at(2);
        assert!(w0 > 0.0);
        assert_eq!(
            w2.to_bits(),
            (4.0 * w0).to_bits(),
            "two retries = two doublings of the searched window"
        );

        // The batched path resolves a never-tripping lane through the
        // scalar fallback, so it reports the identical window.
        let cfg = ReadConfig {
            max_retries: 1,
            ..base
        };
        let scalar_err = simulate_read(&tech, &cell, &cfg, 8, &d).unwrap_err();
        let batch =
            simulate_read_batch_in(&tech, &cell, &cfg, 8, &[d], &mut ReadBatchScratch::new())
                .unwrap();
        match &batch[0] {
            Err(e) => assert_eq!(e.to_string(), scalar_err.to_string()),
            Ok(o) => panic!("batch lane unexpectedly tripped: {o:?}"),
        }
    }

    #[test]
    fn deterministic_repeat() {
        let (tech, cell) = setup();
        let cfg = ReadConfig::default();
        let d = Draw::nominal(PatterningOption::Sadp);
        let a = simulate_read(&tech, &cell, &cfg, 16, &d).unwrap();
        let b = simulate_read(&tech, &cell, &cfg, 16, &d).unwrap();
        assert_eq!(a.td_s, b.td_s);
    }
}
