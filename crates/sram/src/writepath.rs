//! The write-path testbench: write driver through the access transistor
//! flipping the cell.
//!
//! Builds and simulates one write access on the same column as
//! [`crate::readout`] (both come from the private `column` module):
//!
//! * the active pair's BL and BLB are the identical distributed RC
//!   ladders (one π-segment per cell) the read testbench extracts, so
//!   the write sees the same multiple-patterning R/C population;
//! * a write-driver NMOS at the **near** end, gated by the word line
//!   (the column write pulse fires with the row select), discharges BL
//!   toward the new datum while BLB stays at precharge — the worst-case
//!   write flips the far cell's stored 1 through the full ladder, so the
//!   bit-line discharge races the flip and MP-induced R/C skew delays
//!   the write directly;
//! * the *accessed cell sits at the far end* and is a genuine
//!   cross-coupled latch (both inverters), initially storing `q = vdd`,
//!   `qb = 0`: the write must win the ratioed fight of pass gate against
//!   pull-up and then let the feedback regenerate;
//! * write time `t_write` is measured from the WL mid-edge to the
//!   internal node `q` **falling** through the flip threshold.
//!
//! This module adds only the driver, the latch and the flip criterion.
//! The column, the window-retry loop and the batched driver with its
//! per-lane scalar fallback live in the private `column` module
//! (`column.rs`), so batched results are bit-identical to scalar at any
//! width.

use mpvar_litho::Draw;
use mpvar_spice::{MosfetModel, Netlist};
use mpvar_tech::TechDb;

use crate::cell::BitcellGeometry;
use crate::column::{self, invalid, Column, ColumnScratch, ColumnSpec, Crossing, Testbench, Timed};
use crate::error::SramError;
use crate::params::FormulaParams;

/// Write-testbench configuration (defaults mirror [`crate::ReadConfig`]
/// where the quantities coincide: 0.7V rails, the same word-line
/// timing, the same fixed-step grid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteConfig {
    /// Supply / precharge / word-line high level, V.
    pub vdd_v: f64,
    /// Flip threshold as a fraction of `vdd_v`: the write completes when
    /// the internal node falls through `flip_fraction * vdd_v`.
    pub flip_fraction: f64,
    /// Write-driver NMOS strength multiplier (relative to the unit
    /// NMOS). Column drivers are sized several times the cell devices.
    pub driver_strength: f64,
    /// Delay before the word-line edge, s.
    pub wl_delay_s: f64,
    /// Word-line rise time, s.
    pub wl_rise_s: f64,
    /// Fixed time-step count per simulation window.
    pub steps: usize,
    /// Initial window = `window_scale` x the lumped-RC write estimate.
    pub window_scale: f64,
    /// Window doublings attempted before giving up.
    pub max_retries: usize,
}

impl Default for WriteConfig {
    fn default() -> Self {
        Self {
            vdd_v: 0.7,
            flip_fraction: 0.5,
            driver_strength: 4.0,
            wl_delay_s: 20e-12,
            wl_rise_s: 10e-12,
            steps: 2000,
            window_scale: 25.0,
            max_retries: 3,
        }
    }
}

impl WriteConfig {
    /// The absolute flip threshold, V.
    pub(crate) fn flip_threshold_v(&self) -> f64 {
        self.flip_fraction * self.vdd_v
    }

    pub(crate) fn column_spec(&self) -> ColumnSpec {
        ColumnSpec {
            span: mpvar_trace::names::SPAN_SRAM_WRITE,
            vdd_v: self.vdd_v,
            wl_delay_s: self.wl_delay_s,
            wl_rise_s: self.wl_rise_s,
            steps: self.steps,
            window_scale: self.window_scale,
            max_retries: self.max_retries,
        }
    }
}

/// Result of one write simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteOutcome {
    /// Write time: WL mid-edge to the internal node crossing the flip
    /// threshold, s — the write-path figure of merit.
    pub t_write_s: f64,
    /// Absolute time of the WL mid-edge, s.
    pub t_wl_s: f64,
    /// Simulated window that produced the measurement, s.
    pub window_s: f64,
}

impl From<Timed> for WriteOutcome {
    fn from(t: Timed) -> Self {
        Self {
            t_write_s: t.t_s,
            t_wl_s: t.t_wl_s,
            window_s: t.window_s,
        }
    }
}

/// Reusable solver buffers for [`simulate_write_batch_in`]; the same
/// type as [`crate::ReadBatchScratch`]. Hold one per worker thread.
pub type WriteBatchScratch = ColumnScratch;

/// Simulates one write into an `n_cells`-deep column printed under
/// `draw`, returning the flip time.
///
/// # Errors
///
/// * structural/tech errors from geometry and extraction;
/// * [`SramError::WriteNeverFlipped`] when the internal node never
///   crosses the flip threshold even after window retries.
pub fn simulate_write(
    tech: &TechDb,
    cell: &BitcellGeometry,
    config: &WriteConfig,
    n_cells: usize,
    draw: &Draw,
) -> Result<WriteOutcome, SramError> {
    let spec = config.column_spec();
    column::simulate(&spec, n_cells, draw, |d| {
        build_write_testbench(tech, cell, config, &spec, n_cells, d)
    })
    .map(WriteOutcome::from)
}

/// Simulates one write per draw through the batched trial solver, with
/// caller-owned scratch buffers for workers that run many batches back
/// to back.
///
/// Per-draw results are **bit-identical** to calling [`simulate_write`]
/// on each draw individually: lanes the batch cannot carry — shorted
/// prints, structural divergence, pivot drift, Newton non-convergence,
/// or a write that needs the window-doubling retry loop — are resolved
/// through the scalar path instead.
///
/// # Errors
///
/// The outer `Err` is structural (a zero-cell column). Per-draw
/// failures (shorted geometry, [`SramError::WriteNeverFlipped`]) come
/// back inside the per-lane results, in draw order.
pub fn simulate_write_batch_in(
    tech: &TechDb,
    cell: &BitcellGeometry,
    config: &WriteConfig,
    n_cells: usize,
    draws: &[Draw],
    scratch: &mut WriteBatchScratch,
) -> Result<Vec<Result<WriteOutcome, SramError>>, SramError> {
    let spec = config.column_spec();
    let lanes = column::simulate_batch(&spec, n_cells, draws, scratch, |d| {
        build_write_testbench(tech, cell, config, &spec, n_cells, d)
    })?;
    Ok(lanes
        .into_iter()
        .map(|lane| lane.map(WriteOutcome::from))
        .collect())
}

/// Builds the write testbench for one printed draw: the shared column
/// with the write driver at the near end and a cross-coupled latch
/// storing a 1 at the far end.
pub(crate) fn build_write_testbench(
    tech: &TechDb,
    cell: &BitcellGeometry,
    config: &WriteConfig,
    spec: &ColumnSpec,
    n_cells: usize,
    draw: &Draw,
) -> Result<Testbench, SramError> {
    let mut col = Column::print(tech, cell, spec, n_cells, draw)?;
    let sizing = cell.sizing();
    let nmos = *tech.nmos();
    let pmos = *tech.pmos();
    let (vdd, wl, bl_near) = (col.vdd, col.wl, col.bl_near);
    let (bl_far, blb_far) = (col.bl_far, col.blb_far);
    let net = col.deck.netlist_mut();

    // Gate tied to the word line: the column write pulse fires with the
    // row select, so the bit-line discharge races the cell flip through
    // the full multiple-patterned RC ladder. BLB carries the
    // complementary 1 and simply stays at precharge.
    let driver = MosfetModel::new(nmos.scaled(config.driver_strength).map_err(invalid)?);
    net.add_mosfet("Mdrv", bl_near, wl, Netlist::GROUND, driver)?;

    let q = net.node("q");
    let qb = net.node("qb");
    let pass = MosfetModel::new(nmos.scaled(sizing.pass_gate).map_err(invalid)?);
    let pull_down = MosfetModel::new(nmos.scaled(sizing.pull_down).map_err(invalid)?);
    let pull_up = MosfetModel::new(pmos.scaled(sizing.pull_up).map_err(invalid)?);
    net.add_mosfet("Mpass", bl_far, wl, q, pass)?;
    net.add_mosfet("Mpass_b", blb_far, wl, qb, pass)?;
    // q-side inverter, gated by qb (initially 0: PU on, PD off → q = vdd).
    net.add_mosfet("Mpu", q, qb, vdd, pull_up)?;
    net.add_mosfet("Mpd", q, qb, Netlist::GROUND, pull_down)?;
    // qb-side inverter, gated by q (initially vdd: PU off, PD on → qb = 0).
    net.add_mosfet("Mpu_b", qb, q, vdd, pull_up)?;
    net.add_mosfet("Mpd_b", qb, q, Netlist::GROUND, pull_down)?;
    // Internal-node loads: both inverter gate caps plus two junctions.
    let cint = 2.0 * nmos.c_gate_f() + 2.0 * nmos.c_drain_f();
    net.add_capacitor("Cq", q, Netlist::GROUND, cint)?;
    net.add_capacitor("Cqb", qb, Netlist::GROUND, cint)?;

    let flip = Crossing::Falling {
        node: q,
        v: config.flip_threshold_v(),
    };
    let fp = FormulaParams::derive_write(tech, cell, config.vdd_v, config.driver_strength)?;
    // a = −ln(1 − flip_fraction): the RC step-response constant of the
    // same eq. 2 family, at the flip level instead of the sense level.
    let a = -(1.0 - config.flip_fraction.clamp(0.05, 0.95)).ln();
    col.finish([(q, config.vdd_v), (qb, 0.0)], flip, a, &fp)
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
    fn nominal_write_flips_the_cell_in_picoseconds() {
        let (tech, cell) = setup();
        let out = simulate_write(
            &tech,
            &cell,
            &WriteConfig::default(),
            16,
            &Draw::nominal(PatterningOption::Euv),
        )
        .unwrap();
        assert!(
            out.t_write_s > 0.1e-12 && out.t_write_s < 200e-12,
            "t_write = {:.3e}",
            out.t_write_s
        );
        assert!(out.t_wl_s > 0.0);
        assert!(out.window_s > out.t_write_s);
    }

    #[test]
    fn write_time_grows_with_array_height() {
        let (tech, cell) = setup();
        let cfg = WriteConfig::default();
        let nominal = Draw::nominal(PatterningOption::Euv);
        let tw16 = simulate_write(&tech, &cell, &cfg, 16, &nominal)
            .unwrap()
            .t_write_s;
        let tw64 = simulate_write(&tech, &cell, &cfg, 64, &nominal)
            .unwrap()
            .t_write_s;
        assert!(tw64 > tw16, "tw16 {tw16:.3e} tw64 {tw64:.3e}");
    }

    #[test]
    fn nominal_write_equal_across_options() {
        // All three options print identical nominal geometry.
        let (tech, cell) = setup();
        let cfg = WriteConfig::default();
        let tws: Vec<f64> = PatterningOption::ALL
            .iter()
            .map(|&o| {
                simulate_write(&tech, &cell, &cfg, 16, &Draw::nominal(o))
                    .unwrap()
                    .t_write_s
            })
            .collect();
        assert!((tws[0] - tws[1]).abs() / tws[0] < 1e-6);
        assert!((tws[0] - tws[2]).abs() / tws[0] < 1e-6);
    }

    #[test]
    fn squeezed_bitline_writes_slower() {
        let (tech, cell) = setup();
        let cfg = WriteConfig::default();
        let nominal = simulate_write(
            &tech,
            &cell,
            &cfg,
            16,
            &Draw::nominal(PatterningOption::Le3),
        )
        .unwrap()
        .t_write_s;
        let worst = Draw::Le3(Le3Draw {
            cd_nm: [3.0, 3.0, 3.0],
            overlay_nm: [8.0, 0.0, -8.0],
        });
        let squeezed = simulate_write(&tech, &cell, &cfg, 16, &worst)
            .unwrap()
            .t_write_s;
        assert!(
            squeezed > nominal,
            "squeezed {squeezed:.3e} nominal {nominal:.3e}"
        );
    }

    #[test]
    fn weak_driver_never_flips_and_reports_final_window() {
        // A hopeless driver (far weaker than the pull-up) cannot win the
        // ratioed fight; the error must carry the final window searched.
        let (tech, cell) = setup();
        let base = WriteConfig {
            driver_strength: 0.01,
            flip_fraction: 0.1,
            ..WriteConfig::default()
        };
        let window_at = |retries: usize| {
            let cfg = WriteConfig {
                max_retries: retries,
                ..base
            };
            match simulate_write(&tech, &cell, &cfg, 4, &Draw::nominal(PatterningOption::Euv)) {
                Err(SramError::WriteNeverFlipped { window_s }) => window_s,
                other => panic!("expected WriteNeverFlipped, got {other:?}"),
            }
        };
        let w0 = window_at(0);
        let w1 = window_at(1);
        assert!(w0 > 0.0);
        assert_eq!(w1.to_bits(), (2.0 * w0).to_bits());

        // The batched path resolves a never-flipping lane through the
        // scalar fallback, next to a shorted lane that never reaches the
        // solver: every lane reports exactly the scalar error.
        let cfg = WriteConfig {
            max_retries: 1,
            ..base
        };
        let draws = [
            Draw::nominal(PatterningOption::Euv),
            Draw::Euv(EuvDraw { cd_nm: 30.0 }),
            Draw::Euv(EuvDraw { cd_nm: 2.0 }),
        ];
        let batch =
            simulate_write_batch_in(&tech, &cell, &cfg, 4, &draws, &mut WriteBatchScratch::new())
                .unwrap();
        assert_eq!(batch.len(), draws.len());
        for (d, lane) in draws.iter().zip(&batch) {
            let scalar = simulate_write(&tech, &cell, &cfg, 4, d).unwrap_err();
            match lane {
                Err(e) => assert_eq!(e.to_string(), scalar.to_string()),
                Ok(o) => panic!("batch lane unexpectedly flipped: {o:?}"),
            }
        }
        assert!(matches!(batch[0], Err(SramError::WriteNeverFlipped { .. })));
        assert!(matches!(batch[1], Err(SramError::Litho(_))));
    }

    #[test]
    fn zero_cells_rejected() {
        let (tech, cell) = setup();
        let d = Draw::nominal(PatterningOption::Euv);
        assert!(matches!(
            simulate_write(&tech, &cell, &WriteConfig::default(), 0, &d),
            Err(SramError::InvalidStructure { .. })
        ));
        assert!(matches!(
            simulate_write_batch_in(
                &tech,
                &cell,
                &WriteConfig::default(),
                0,
                &[d],
                &mut WriteBatchScratch::new()
            ),
            Err(SramError::InvalidStructure { .. })
        ));
    }

    #[test]
    fn batched_writes_bit_identical_to_scalar() {
        let (tech, cell) = setup();
        let cfg = WriteConfig::default();
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
        let mut scratch = WriteBatchScratch::new();
        let batched =
            simulate_write_batch_in(&tech, &cell, &cfg, 12, &draws, &mut scratch).unwrap();
        assert_eq!(batched.len(), draws.len());
        let bytes = scratch.bytes();
        assert!(bytes > 0);
        let mut shorted = 0;
        for (d, b) in draws.iter().zip(&batched) {
            let scalar = simulate_write(&tech, &cell, &cfg, 12, d);
            match (b, scalar) {
                (Ok(bo), Ok(so)) => {
                    assert_eq!(bo.t_write_s.to_bits(), so.t_write_s.to_bits(), "t_write");
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
        let again = simulate_write_batch_in(&tech, &cell, &cfg, 12, &draws, &mut scratch).unwrap();
        assert_eq!(scratch.bytes(), bytes, "scratch grew on reuse");
        match (&batched[0], &again[0]) {
            (Ok(a), Ok(b)) => assert_eq!(a.t_write_s.to_bits(), b.t_write_s.to_bits()),
            other => panic!("repeat diverged: {other:?}"),
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let (tech, cell) = setup();
        assert!(simulate_write_batch_in(
            &tech,
            &cell,
            &WriteConfig::default(),
            12,
            &[],
            &mut WriteBatchScratch::new()
        )
        .unwrap()
        .is_empty());
    }

    #[test]
    fn deterministic_repeat() {
        let (tech, cell) = setup();
        let cfg = WriteConfig::default();
        let d = Draw::nominal(PatterningOption::Sadp);
        let a = simulate_write(&tech, &cell, &cfg, 16, &d).unwrap();
        let b = simulate_write(&tech, &cell, &cfg, 16, &d).unwrap();
        assert_eq!(a.t_write_s, b.t_write_s);
    }
}
