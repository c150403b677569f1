//! Bitcell geometry and device sizing.

use mpvar_geometry::{Nm, Track, TrackStack};
use mpvar_tech::TechDb;

use crate::error::SramError;

/// Net-name prefix given to bit lines of *inactive* pairs so the deck
/// emitter treats them as quiet (AC-ground) wires.
pub(crate) const INACTIVE_PREFIX: &str = "X";

/// Relative drive strengths of the 6T cell devices plus the precharge
/// PMOS (per paper §II.C, precharge drive scales with array size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceSizing {
    /// Pull-down NMOS strength multiplier (HD cells: ~1.2-1.5).
    pub pull_down: f64,
    /// Pass-gate NMOS strength multiplier (reference 1.0).
    pub pass_gate: f64,
    /// Pull-up PMOS strength multiplier (HD cells: weakest).
    pub pull_up: f64,
    /// Precharge PMOS strength *per bit-line cell*: total strength is
    /// `precharge_per_cell * n` for an `n`-cell column.
    pub precharge_per_cell: f64,
}

impl Default for DeviceSizing {
    /// High-density 6T ratios: PD 1.3 / PG 1.0 / PU 0.7, quarter-strength
    /// precharge per cell.
    fn default() -> Self {
        Self {
            pull_down: 1.3,
            pass_gate: 1.0,
            pull_up: 0.7,
            precharge_per_cell: 0.25,
        }
    }
}

/// Geometry of the high-density 6T bitcell's metal1 and footprint.
///
/// The metal1 cross-section of one cell row is the track sequence
/// `[VSS, BL, VDD, BLB]` at the metal1 pitch; bit lines are drawn at a
/// non-minimum CD (paper §II.B: "the non-minimum CD of bit line wires,
/// which is typical in SRAM").
#[derive(Debug, Clone, PartialEq)]
pub struct BitcellGeometry {
    m1_pitch: Nm,
    rail_width: Nm,
    bl_width: Nm,
    cell_len_x: Nm,
    sizing: DeviceSizing,
}

impl BitcellGeometry {
    /// The N10 high-density cell used throughout the reproduction:
    /// rails at minimum width, bit lines at 26nm (non-minimum), 130nm
    /// cell pitch along the bit line.
    ///
    /// # Errors
    ///
    /// [`SramError::IncompleteTech`] when the tech lacks metal1.
    pub fn n10_hd(tech: &TechDb) -> Result<Self, SramError> {
        Self::hd(tech)
    }

    /// A high-density cell derived from any technology's metal1: rails
    /// at minimum width, bit lines 2nm above minimum, and the cell pitch
    /// along the bit line scaled with the track pitch (130nm at the
    /// reference 48nm pitch).
    ///
    /// # Errors
    ///
    /// [`SramError::IncompleteTech`] when the tech lacks metal1.
    pub fn hd(tech: &TechDb) -> Result<Self, SramError> {
        let m1 = tech.metal(1).ok_or_else(|| SramError::IncompleteTech {
            missing: "metal1 spec".to_string(),
        })?;
        let cell_len_x = Nm((m1.pitch().0 * 130) / 48);
        Ok(Self {
            m1_pitch: m1.pitch(),
            rail_width: m1.min_width(),
            bl_width: m1.min_width() + Nm(2),
            cell_len_x,
            sizing: DeviceSizing::default(),
        })
    }

    /// Overrides the bit-line drawn width (builder style).
    ///
    /// # Errors
    ///
    /// [`SramError::InvalidStructure`] when the width is non-positive or
    /// does not fit the pitch.
    pub fn with_bl_width(mut self, width: Nm) -> Result<Self, SramError> {
        if width <= Nm(0) || width >= self.m1_pitch {
            return Err(SramError::InvalidStructure {
                message: format!("bit-line width {width} must fit within the pitch"),
            });
        }
        self.bl_width = width;
        Ok(self)
    }

    /// Overrides the device sizing (builder style).
    #[must_use]
    pub fn with_sizing(mut self, sizing: DeviceSizing) -> Self {
        self.sizing = sizing;
        self
    }

    /// Metal1 track pitch.
    pub fn m1_pitch(&self) -> Nm {
        self.m1_pitch
    }

    /// Power-rail drawn width.
    pub(crate) fn rail_width(&self) -> Nm {
        self.rail_width
    }

    /// Bit-line drawn width (non-minimum CD).
    pub fn bl_width(&self) -> Nm {
        self.bl_width
    }

    /// Cell pitch along the bit line.
    pub fn cell_len_x(&self) -> Nm {
        self.cell_len_x
    }

    /// Cell height (4 metal1 tracks).
    pub(crate) fn cell_height(&self) -> Nm {
        self.m1_pitch * 4
    }

    /// Device sizing.
    pub fn sizing(&self) -> DeviceSizing {
        self.sizing
    }

    /// Builds the drawn metal1 track stack of a column window:
    /// `n_pairs` bit-line pairs (plus a closing VSS rail), each wire
    /// spanning `n_cells` cells. The pair at `active_pair` is named
    /// `BL`/`BLB`; other pairs get the `INACTIVE_PREFIX` so the deck
    /// emitter grounds them.
    ///
    /// # Errors
    ///
    /// [`SramError::InvalidStructure`] for zero sizes or a bad pair
    /// index; [`SramError::Geometry`] if track construction fails.
    pub fn column_stack(
        &self,
        n_pairs: usize,
        active_pair: usize,
        n_cells: usize,
    ) -> Result<TrackStack, SramError> {
        if n_pairs == 0 || n_cells == 0 {
            return Err(SramError::InvalidStructure {
                message: "need at least one pair and one cell".to_string(),
            });
        }
        if active_pair >= n_pairs {
            return Err(SramError::InvalidStructure {
                message: format!("active pair {active_pair} out of {n_pairs}"),
            });
        }
        let p = self.m1_pitch;
        let x1 = self.cell_len_x * n_cells as i64;
        let mut tracks = Vec::with_capacity(n_pairs * 4 + 1);
        for k in 0..n_pairs {
            let base = p * (4 * k) as i64;
            let (bl_name, blb_name) = if k == active_pair {
                ("BL".to_string(), "BLB".to_string())
            } else {
                (
                    format!("{INACTIVE_PREFIX}BL{k}"),
                    format!("{INACTIVE_PREFIX}BLB{k}"),
                )
            };
            tracks.push(Track::new(
                format!("VSS{k}"),
                base,
                self.rail_width,
                Nm(0),
                x1,
            )?);
            tracks.push(Track::new(bl_name, base + p, self.bl_width, Nm(0), x1)?);
            tracks.push(Track::new(
                format!("VDD{k}"),
                base + p * 2,
                self.rail_width,
                Nm(0),
                x1,
            )?);
            tracks.push(Track::new(
                blb_name,
                base + p * 3,
                self.bl_width,
                Nm(0),
                x1,
            )?);
        }
        // Closing rail so the top bit-line pair sees the same
        // environment as interior pairs.
        tracks.push(Track::new(
            format!("VSS{n_pairs}"),
            p * (4 * n_pairs) as i64,
            self.rail_width,
            Nm(0),
            x1,
        )?);
        Ok(TrackStack::new(tracks)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_tech::preset::n10;

    fn cell() -> BitcellGeometry {
        BitcellGeometry::n10_hd(&n10()).unwrap()
    }

    #[test]
    fn n10_hd_defaults() {
        let c = cell();
        assert_eq!(c.m1_pitch(), Nm(48));
        assert_eq!(c.rail_width(), Nm(24));
        assert_eq!(c.bl_width(), Nm(26));
        assert_eq!(c.cell_height(), Nm(192));
        assert!(c.sizing().pull_down > c.sizing().pass_gate);
        assert!(c.sizing().pull_up < c.sizing().pass_gate);
    }

    #[test]
    fn bl_width_override_validated() {
        let c = cell();
        assert!(c.clone().with_bl_width(Nm(30)).is_ok());
        assert!(c.clone().with_bl_width(Nm(0)).is_err());
        assert!(c.with_bl_width(Nm(48)).is_err());
    }

    #[test]
    fn column_stack_structure() {
        let c = cell();
        let stack = c.column_stack(10, 5, 64).unwrap();
        // 10 pairs x 4 tracks + closing rail.
        assert_eq!(stack.len(), 41);
        // Active pair named BL/BLB; only one of each.
        assert_eq!(stack.indices_of_net("BL").len(), 1);
        assert_eq!(stack.indices_of_net("BLB").len(), 1);
        // BL sits between VSS5 and VDD5.
        let bl = stack.index_of_net("BL").unwrap();
        let (below, above) = stack.neighbors(bl);
        assert_eq!(below.unwrap().net(), "VSS5");
        assert_eq!(above.unwrap().net(), "VDD5");
        // Wire length proportional to cell count.
        assert_eq!(stack.get(bl).unwrap().length(), Nm(130 * 64));
    }

    #[test]
    fn inactive_pairs_carry_prefix() {
        let c = cell();
        let stack = c.column_stack(3, 1, 4).unwrap();
        assert!(stack.index_of_net("XBL0").is_some());
        assert!(stack.index_of_net("XBLB2").is_some());
        assert!(stack.index_of_net("XBL1").is_none()); // pair 1 is active
    }

    #[test]
    fn column_stack_validation() {
        let c = cell();
        assert!(c.column_stack(0, 0, 4).is_err());
        assert!(c.column_stack(4, 4, 4).is_err());
        assert!(c.column_stack(4, 0, 0).is_err());
    }

    #[test]
    fn stack_is_periodic_across_pairs() {
        let c = cell();
        let stack = c.column_stack(2, 0, 1).unwrap();
        // Pair 1 sits exactly one cell height above pair 0.
        let bl0 = stack.index_of_net("BL").unwrap();
        let bl1 = stack.index_of_net("XBL1").unwrap();
        assert_eq!(
            stack.get(bl1).unwrap().y_center() - stack.get(bl0).unwrap().y_center(),
            c.cell_height()
        );
    }

    #[test]
    fn incomplete_tech_rejected() {
        use mpvar_tech::transistor::Polarity;
        use mpvar_tech::{TechDb, TransistorParams};
        let nmos = TransistorParams::builder(Polarity::Nmos)
            .vth_v(0.25)
            .k_sat_a(38e-6)
            .alpha(1.25)
            .vd0_v(0.45)
            .lambda_per_v(0.05)
            .c_gate_f(45e-18)
            .c_drain_f(20e-18)
            .build()
            .unwrap();
        let bare = TechDb::new("bare", nmos, nmos);
        assert!(matches!(
            BitcellGeometry::n10_hd(&bare),
            Err(SramError::IncompleteTech { .. })
        ));
    }
}
