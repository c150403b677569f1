//! Per-track parasitic rollup and relative-variation helpers.

use mpvar_litho::{PerturbedStack, TrackEdges};
use mpvar_tech::MetalSpec;

use crate::capacitance::capacitance_breakdown;
use crate::error::ExtractError;
use crate::resistance::wire_resistance_ohm;

/// Extracted parasitics of one printed track.
#[derive(Debug, Clone, PartialEq)]
pub struct WireParasitics {
    net: String,
    length_nm: f64,
    resistance_ohm: f64,
    c_ground_f: f64,
    c_couple_below_f: f64,
    c_couple_above_f: f64,
}

impl WireParasitics {
    /// Reassembles an extraction result from its stored scalar parts —
    /// the inverse of reading every accessor, used by the `mpvar-study`
    /// artifact codec to round-trip persisted results bit-exactly.
    /// Values are taken verbatim; no re-derivation or validation
    /// happens, so this must only be fed values that came from a real
    /// extraction.
    pub fn from_parts(
        net: String,
        length_nm: f64,
        resistance_ohm: f64,
        c_ground_f: f64,
        c_couple_below_f: f64,
        c_couple_above_f: f64,
    ) -> WireParasitics {
        WireParasitics {
            net,
            length_nm,
            resistance_ohm,
            c_ground_f,
            c_couple_below_f,
            c_couple_above_f,
        }
    }

    /// Net label of the extracted track.
    pub fn net(&self) -> &str {
        &self.net
    }

    /// Extracted wire length, nm.
    pub fn length_nm(&self) -> f64 {
        self.length_nm
    }

    /// End-to-end wire resistance, Ω.
    pub fn resistance_ohm(&self) -> f64 {
        self.resistance_ohm
    }

    /// Capacitance to ground (plate + fringe), F.
    pub fn c_ground_f(&self) -> f64 {
        self.c_ground_f
    }

    /// Coupling capacitance to the lower neighbour, F.
    pub fn c_couple_below_f(&self) -> f64 {
        self.c_couple_below_f
    }

    /// Coupling capacitance to the upper neighbour, F.
    pub fn c_couple_above_f(&self) -> f64 {
        self.c_couple_above_f
    }

    /// Total capacitance (ground + both couplings), F — the paper's
    /// `C_bl` when the track is a bit line (neighbouring rails are AC
    /// ground during a read).
    pub fn c_total_f(&self) -> f64 {
        self.c_ground_f + self.c_couple_below_f + self.c_couple_above_f
    }

    /// Fraction of the total capacitance that is lateral coupling.
    pub fn coupling_fraction(&self) -> f64 {
        (self.c_couple_below_f + self.c_couple_above_f) / self.c_total_f()
    }
}

/// `R_var` / `C_var` multipliers relative to a nominal extraction —
/// exactly the inputs of the paper's analytical formula (eq. 4), where
/// variation is "expressed in percentage (1 + x%)".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelativeVariation {
    /// Resistance multiplier (1.0 = nominal).
    pub r_var: f64,
    /// Capacitance multiplier (1.0 = nominal).
    pub c_var: f64,
}

impl RelativeVariation {
    /// Computes multipliers of `perturbed` relative to `nominal`.
    pub fn between(nominal: &WireParasitics, perturbed: &WireParasitics) -> RelativeVariation {
        RelativeVariation {
            r_var: perturbed.resistance_ohm() / nominal.resistance_ohm(),
            c_var: perturbed.c_total_f() / nominal.c_total_f(),
        }
    }

    /// Resistance change in percent (`+10.0` = 10% higher than nominal).
    pub fn r_percent(&self) -> f64 {
        (self.r_var - 1.0) * 100.0
    }

    /// Capacitance change in percent.
    pub fn c_percent(&self) -> f64 {
        (self.c_var - 1.0) * 100.0
    }
}

/// Extracts the parasitics of track `index` in a printed stack.
///
/// # Errors
///
/// [`ExtractError::TrackOutOfRange`] for a bad index, plus the
/// geometry-validity errors of the R/C models.
///
/// # Example
///
/// See the crate-level example.
pub fn extract_track(
    stack: &PerturbedStack,
    index: usize,
    spec: &MetalSpec,
) -> Result<WireParasitics, ExtractError> {
    if index >= stack.len() {
        return Err(ExtractError::TrackOutOfRange {
            index,
            len: stack.len(),
        });
    }
    let t = stack.track(index);
    let rc = wire_rc(
        spec,
        t.width_nm(),
        t.length_nm(),
        stack.gap_below_nm(index),
        stack.gap_above_nm(index),
    )?;
    Ok(WireParasitics {
        net: t.net().to_string(),
        length_nm: t.length_nm(),
        resistance_ohm: rc.resistance_ohm,
        c_ground_f: rc.c_ground_f,
        c_couple_below_f: rc.c_couple_below_f,
        c_couple_above_f: rc.c_couple_above_f,
    })
}

/// Resistance and total capacitance `(R Ω, C F)` of one printed track
/// from [`mpvar_litho::print_track`] — the allocation-free twin of
/// [`extract_track`] followed by [`WireParasitics::c_total_f`], equal
/// to it bit for bit.
///
/// # Errors
///
/// The geometry-validity errors of the R/C models.
///
/// # Example
///
/// ```
/// use mpvar_extract::{extract_edges, extract_track};
/// use mpvar_geometry::{Nm, Track, TrackStack};
/// use mpvar_litho::{apply_draw, print_track, Draw, EuvDraw};
/// use mpvar_tech::preset::n10;
///
/// let tech = n10();
/// let m1 = tech.metal(1).expect("n10 has metal1");
/// let drawn = TrackStack::new(vec![
///     Track::new("VSS", Nm(0),  Nm(24), Nm(0), Nm(1000))?,
///     Track::new("BL",  Nm(48), Nm(26), Nm(0), Nm(1000))?,
///     Track::new("VDD", Nm(96), Nm(24), Nm(0), Nm(1000))?,
/// ])?;
/// let draw = Draw::Euv(EuvDraw { cd_nm: 2.0 });
/// let (r, c) = extract_edges(m1, &print_track(&drawn, &draw, 1)?)?;
/// let full = extract_track(&apply_draw(&drawn, &draw)?, 1, m1)?;
/// assert_eq!(r, full.resistance_ohm());
/// assert_eq!(c, full.c_total_f());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn extract_edges(spec: &MetalSpec, edges: &TrackEdges) -> Result<(f64, f64), ExtractError> {
    let rc = wire_rc(
        spec,
        edges.width_nm(),
        edges.length_nm,
        edges.gap_below_nm,
        edges.gap_above_nm,
    )?;
    Ok((
        rc.resistance_ohm,
        rc.c_ground_f + rc.c_couple_below_f + rc.c_couple_above_f,
    ))
}

/// R and the three capacitance components of one wire.
struct WireRc {
    resistance_ohm: f64,
    c_ground_f: f64,
    c_couple_below_f: f64,
    c_couple_above_f: f64,
}

/// The one copy of the per-track R/C arithmetic behind
/// [`extract_track`] and [`extract_edges`].
fn wire_rc(
    spec: &MetalSpec,
    width_nm: f64,
    length_nm: f64,
    gap_below_nm: Option<f64>,
    gap_above_nm: Option<f64>,
) -> Result<WireRc, ExtractError> {
    let length_m_factor = length_nm * 1e-9;
    let resistance_ohm = wire_resistance_ohm(spec, width_nm, length_nm)?;
    let breakdown = capacitance_breakdown(spec, width_nm, gap_below_nm, gap_above_nm)?;
    Ok(WireRc {
        resistance_ohm,
        c_ground_f: breakdown.ground_f_per_m * length_m_factor,
        c_couple_below_f: breakdown.couple_below_f_per_m * length_m_factor,
        c_couple_above_f: breakdown.couple_above_f_per_m * length_m_factor,
    })
}

/// Extracts every track of the stack, in order.
///
/// # Errors
///
/// Propagates the first per-track failure.
pub(crate) fn extract_stack(
    stack: &PerturbedStack,
    spec: &MetalSpec,
) -> Result<Vec<WireParasitics>, ExtractError> {
    (0..stack.len())
        .map(|i| extract_track(stack, i, spec))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_geometry::{Nm, Track, TrackStack};
    use mpvar_litho::{apply_draw, Draw, EuvDraw, Le3Draw};
    use mpvar_tech::preset::n10;
    use mpvar_tech::PatterningOption;

    fn stack_and_spec() -> (TrackStack, MetalSpec) {
        let drawn = TrackStack::new(vec![
            Track::new("VSS", Nm(0), Nm(24), Nm(0), Nm(1300)).unwrap(),
            Track::new("BL", Nm(48), Nm(26), Nm(0), Nm(1300)).unwrap(),
            Track::new("VDD", Nm(96), Nm(24), Nm(0), Nm(1300)).unwrap(),
        ])
        .unwrap();
        (drawn, n10().metal(1).unwrap().clone())
    }

    fn nominal_bl() -> WireParasitics {
        let (drawn, spec) = stack_and_spec();
        let printed = apply_draw(&drawn, &Draw::nominal(PatterningOption::Euv)).unwrap();
        extract_track(&printed, 1, &spec).unwrap()
    }

    #[test]
    fn nominal_extraction_magnitudes() {
        let bl = nominal_bl();
        // 1.3um of bit line: tens of ohms, a fraction of a femtofarad.
        assert!(bl.resistance_ohm() > 20.0 && bl.resistance_ohm() < 100.0);
        let c_ff = bl.c_total_f() * 1e15;
        assert!(c_ff > 0.1 && c_ff < 0.5, "c = {c_ff} fF");
        assert_eq!(bl.net(), "BL");
        assert_eq!(bl.length_nm(), 1300.0);
        assert!(bl.coupling_fraction() > 0.5);
    }

    #[test]
    fn components_sum_to_total() {
        let bl = nominal_bl();
        let sum = bl.c_ground_f() + bl.c_couple_below_f() + bl.c_couple_above_f();
        assert!((sum - bl.c_total_f()).abs() < 1e-24);
    }

    #[test]
    fn euv_cd_increase_raises_c_and_lowers_r() {
        let (drawn, spec) = stack_and_spec();
        let nominal = nominal_bl();
        let printed = apply_draw(&drawn, &Draw::Euv(EuvDraw { cd_nm: 3.0 })).unwrap();
        let wide = extract_track(&printed, 1, &spec).unwrap();
        let var = RelativeVariation::between(&nominal, &wide);
        assert!(var.c_var > 1.0, "C up: {}", var.c_var);
        assert!(var.r_var < 1.0, "R down: {}", var.r_var);
        assert!(var.c_percent() > 0.0);
        assert!(var.r_percent() < 0.0);
    }

    #[test]
    fn le3_overlay_squeeze_raises_coupling_strongly() {
        let (drawn, spec) = stack_and_spec();
        let nominal = nominal_bl();
        // VSS(A) up 8, VDD(C) down 8, everything +3nm CD: the paper's
        // worst-case style squeeze on BL (mask B).
        let draw = Draw::Le3(Le3Draw {
            cd_nm: [3.0, 3.0, 3.0],
            overlay_nm: [8.0, 0.0, -8.0],
        });
        let printed = apply_draw(&drawn, &draw).unwrap();
        let squeezed = extract_track(&printed, 1, &spec).unwrap();
        let var = RelativeVariation::between(&nominal, &squeezed);
        assert!(
            var.c_percent() > 30.0 && var.c_percent() < 90.0,
            "dC = {}%",
            var.c_percent()
        );
        assert!(var.r_percent() < -5.0, "dR = {}%", var.r_percent());
    }

    #[test]
    fn boundary_track_has_one_sided_coupling() {
        let (drawn, spec) = stack_and_spec();
        let printed = apply_draw(&drawn, &Draw::nominal(PatterningOption::Euv)).unwrap();
        let vss = extract_track(&printed, 0, &spec).unwrap();
        assert_eq!(vss.c_couple_below_f(), 0.0);
        assert!(vss.c_couple_above_f() > 0.0);
    }

    #[test]
    fn extract_stack_covers_all_tracks() {
        let (drawn, spec) = stack_and_spec();
        let printed = apply_draw(&drawn, &Draw::nominal(PatterningOption::Euv)).unwrap();
        let all = extract_stack(&printed, &spec).unwrap();
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].net(), "VSS");
        assert_eq!(all[2].net(), "VDD");
        // Adjacent coupling is symmetric: C(BL->VSS) == C(VSS->BL)
        // because both are computed from the same gap.
        assert!((all[0].c_couple_above_f() - all[1].c_couple_below_f()).abs() < 1e-24);
    }

    #[test]
    fn out_of_range_index() {
        let (drawn, spec) = stack_and_spec();
        let printed = apply_draw(&drawn, &Draw::nominal(PatterningOption::Euv)).unwrap();
        assert!(matches!(
            extract_track(&printed, 7, &spec),
            Err(ExtractError::TrackOutOfRange { .. })
        ));
    }

    #[test]
    fn relative_variation_identity() {
        let bl = nominal_bl();
        let var = RelativeVariation::between(&bl, &bl);
        assert!((var.r_var - 1.0).abs() < 1e-12);
        assert!((var.c_var - 1.0).abs() < 1e-12);
        assert!(var.r_percent().abs() < 1e-9);
    }
}
