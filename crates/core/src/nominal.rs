//! Shared nominal-geometry setup for the analysis hot paths.
//!
//! Both the corner search ([`crate::worst_case`]) and the Monte-Carlo
//! sampler ([`crate::montecarlo`]) analyse the same one-cell bit-line
//! window: build the column stack, print it with the nominal draw,
//! locate the `BL` track, and extract its nominal parasitics. That
//! setup used to be duplicated in both modules (and re-derived for
//! every experiment cell); [`NominalWindow`] computes it once and
//! `NominalCache` shares it per patterning option across an entire
//! experiment matrix — trials, corners, and cells all reuse the same
//! precomputed window.

use mpvar_extract::{extract_edges, extract_track, RelativeVariation, WireParasitics};
use mpvar_geometry::TrackStack;
use mpvar_litho::{apply_draw, print_track, Draw, LithoError, PrintPlan, TrackEdges};
use mpvar_sram::BitcellGeometry;
use mpvar_tech::{MetalSpec, PatterningOption, TechDb};
use mpvar_trace::names;

use crate::error::CoreError;

/// The precomputed nominal bit-line window of one patterning option.
///
/// Holds everything the per-draw inner loops need: the drawn column
/// stack and its print plan, the metal-1 spec, the index of the `BL`
/// track in the printed stack, and the nominal parasitics that
/// variation multipliers are taken against. A one-cell window is
/// enough because R and C scale linearly with length, so the variation
/// multipliers are length-independent.
#[derive(Debug, Clone)]
pub struct NominalWindow<'t> {
    tech: &'t TechDb,
    cell: &'t BitcellGeometry,
    m1: &'t MetalSpec,
    option: PatterningOption,
    stack: TrackStack,
    plan: PrintPlan,
    bl_index: usize,
    nominal: WireParasitics,
}

impl<'t> NominalWindow<'t> {
    /// Builds the window: column stack → nominal print → `BL` track →
    /// nominal parasitics, and the stack's print plan for the `BL`
    /// track.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Tech`] when the technology lacks metal1;
    /// * propagated stack/print/extraction failures.
    pub fn build(
        tech: &'t TechDb,
        cell: &'t BitcellGeometry,
        option: PatterningOption,
    ) -> Result<Self, CoreError> {
        let m1 = tech
            .metal(1)
            .ok_or_else(|| CoreError::Tech("technology lacks metal1".to_string()))?;
        let stack = cell.column_stack(mpvar_sram::array::PAPER_BL_PAIRS, 5, 1)?;
        let nominal_printed = apply_draw(&stack, &Draw::nominal(option))?;
        let bl_index = nominal_printed
            .index_of_net("BL")
            .ok_or_else(|| CoreError::Sram("column stack lost its BL track".to_string()))?;
        let nominal = extract_track(&nominal_printed, bl_index, m1)?;
        Ok(Self {
            tech,
            cell,
            m1,
            option,
            plan: PrintPlan::new(&stack, bl_index),
            stack,
            bl_index,
            nominal,
        })
    }

    /// The technology the window was built from.
    pub fn tech(&self) -> &'t TechDb {
        self.tech
    }

    /// The bitcell geometry the window was built from.
    pub fn cell(&self) -> &'t BitcellGeometry {
        self.cell
    }

    /// The metal-1 spec of the technology.
    pub fn metal(&self) -> &'t MetalSpec {
        self.m1
    }

    /// The patterning option the nominal draw was printed with.
    pub fn option(&self) -> PatterningOption {
        self.option
    }

    /// The drawn (pre-lithography) column stack.
    pub fn stack(&self) -> &TrackStack {
        &self.stack
    }

    /// The index of the `BL` track in the printed stack.
    pub fn bl_index(&self) -> usize {
        self.bl_index
    }

    /// The nominal bit-line parasitics.
    pub fn nominal(&self) -> &WireParasitics {
        &self.nominal
    }

    /// The bit line's `R_var`/`C_var` under `draw`, or `None` when the
    /// draw prints a shorted or collapsed line anywhere in the window
    /// (a hard yield loss).
    ///
    /// This is the formula route's per-trial kernel for one draw, and
    /// the reference of [`Self::variation_batch`]: it prints and
    /// extracts only the bit line and its two gaps, allocates nothing
    /// on the `Some` path, and equals [`apply_draw`] +
    /// [`extract_track`] + [`RelativeVariation::between`] bit for bit.
    ///
    /// # Errors
    ///
    /// [`CoreError::Litho`] for a non-finite draw;
    /// [`CoreError::Extract`] when the printed bit line is outside the
    /// R/C models' domain.
    pub fn variation(&self, draw: &Draw) -> Result<Option<RelativeVariation>, CoreError> {
        let edges = match print_track(&self.stack, draw, self.bl_index) {
            Ok(edges) => edges,
            Err(LithoError::ShortedLines { .. } | LithoError::CollapsedLine { .. }) => {
                return Ok(None)
            }
            Err(e) => return Err(e.into()),
        };
        self.relative(&edges).map(Some)
    }

    /// [`Self::variation`] of every draw, in order, into `out` (cleared
    /// first): each result, error text included, is the one
    /// `variation` gives for that draw, bit for bit.
    ///
    /// The bit line is printed through the window's [`PrintPlan`],
    /// eight draws per pass over the tracks; draws the lane walk cannot
    /// take go through `print_track` one by one. Allocates nothing
    /// when `out` has room for every draw and no draw errs. When
    /// tracing, adds the lane-printed and fallen-back draw counts to
    /// `formula.lane_trials` and `formula.lane_fallbacks`, once per
    /// call.
    pub fn variation_batch(
        &self,
        draws: &[Draw],
        out: &mut Vec<Result<Option<RelativeVariation>, CoreError>>,
    ) {
        out.clear();
        let laned = self.plan.print_batch(draws, |printed| {
            out.push(match printed {
                Ok(Some(edges)) => self.relative(&edges).map(Some),
                Ok(None) => Ok(None),
                Err(e) => Err(e.into()),
            });
        });
        if mpvar_trace::enabled() {
            mpvar_trace::counter_add(names::FORMULA_LANE_TRIALS, laned as u64);
            mpvar_trace::counter_add(names::FORMULA_LANE_FALLBACKS, (draws.len() - laned) as u64);
        }
    }

    /// The multipliers of a printed bit line against the nominal one.
    fn relative(&self, edges: &TrackEdges) -> Result<RelativeVariation, CoreError> {
        let (resistance_ohm, c_total_f) = extract_edges(self.m1, edges)?;
        Ok(RelativeVariation {
            r_var: resistance_ohm / self.nominal.resistance_ohm(),
            c_var: c_total_f / self.nominal.c_total_f(),
        })
    }
}

/// Per-option [`NominalWindow`]s, computed once and shared across an
/// experiment matrix.
#[derive(Debug, Clone)]
pub(crate) struct NominalCache<'t> {
    windows: Vec<NominalWindow<'t>>,
}

impl<'t> NominalCache<'t> {
    /// Builds the windows of every option in `options` eagerly.
    ///
    /// # Errors
    ///
    /// Propagates the first window-construction failure.
    pub fn build(
        tech: &'t TechDb,
        cell: &'t BitcellGeometry,
        options: &[PatterningOption],
    ) -> Result<Self, CoreError> {
        let mut windows = Vec::with_capacity(options.len());
        for &option in options {
            windows.push(NominalWindow::build(tech, cell, option)?);
        }
        Ok(Self { windows })
    }

    /// The cached window of `option`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Tech`] when `option` was not part of the cache's
    /// option list.
    pub fn window(&self, option: PatterningOption) -> Result<&NominalWindow<'t>, CoreError> {
        self.windows
            .iter()
            .find(|w| w.option == option)
            .ok_or_else(|| CoreError::Tech(format!("no cached nominal window for {option}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_tech::preset::n10;

    #[test]
    fn window_matches_manual_setup() {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech).unwrap();
        let w = NominalWindow::build(&tech, &cell, PatterningOption::Le3).unwrap();
        let stack = cell
            .column_stack(mpvar_sram::array::PAPER_BL_PAIRS, 5, 1)
            .unwrap();
        let printed = apply_draw(&stack, &Draw::nominal(PatterningOption::Le3)).unwrap();
        let bl = printed.index_of_net("BL").unwrap();
        assert_eq!(w.bl_index(), bl);
        let nominal = extract_track(&printed, bl, tech.metal(1).unwrap()).unwrap();
        assert_eq!(w.nominal(), &nominal);
        assert_eq!(w.option(), PatterningOption::Le3);
    }

    #[test]
    fn cache_serves_all_requested_options() {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech).unwrap();
        let cache = NominalCache::build(&tech, &cell, &PatterningOption::ALL).unwrap();
        for option in PatterningOption::ALL {
            assert_eq!(cache.window(option).unwrap().option(), option);
        }
        assert!(cache.window(PatterningOption::Le2).is_err());
    }
}
