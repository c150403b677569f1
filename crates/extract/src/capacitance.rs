//! Per-unit-length capacitance models.
//!
//! A wire in a dense unidirectional stack sees four capacitance
//! components, each with a compact, monotone, documented model:
//!
//! * **ground plate** — parallel-plate to the planes below and above:
//!   `eps * w * (1/h_below + 1/h_above)`;
//! * **ground fringe** — edge fields to the planes, shielded by the
//!   neighbour: per side `eps * K_GF * s / (s + t_eff)` — it vanishes as
//!   the neighbour closes in and saturates at `K_GF * eps` per side when
//!   isolated;
//! * **coupling plate** — sidewall-to-sidewall: `eps * t_eff / s`;
//! * **coupling fringe** — `eps * K_CF * (1 - s / (s + h_avg))`,
//!   saturating for small gaps instead of diverging.
//!
//! All four are monotone in the gap `s` in the physically expected
//! direction, which the property tests assert. The two dimensionless
//! constants below were calibrated once against the regime of the
//! paper's Table I (LE3 worst-case ΔC_bl of several tens of percent with
//! a coupling-dominated total).

use mpvar_tech::MetalSpec;

use crate::error::ExtractError;

/// Ground-fringe coefficient (per side, per unit `eps`).
pub(crate) const K_GROUND_FRINGE: f64 = 1.0;

/// Coupling-fringe coefficient (per side, per unit `eps`).
pub(crate) const K_COUPLING_FRINGE: f64 = 1.2;

/// Gap used to model an absent neighbour (effectively isolated), nm.
pub(crate) const OPEN_GAP_NM: f64 = 1e9;

fn check_positive(name: &'static str, v: f64) -> Result<f64, ExtractError> {
    if v.is_finite() && v > 0.0 {
        Ok(v)
    } else {
        Err(ExtractError::InvalidGeometry {
            name,
            value: v,
            constraint: "must be finite and strictly positive",
        })
    }
}

/// Capacitance components of one wire, per unit length (F/m) and rolled
/// up per piece.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitanceBreakdown {
    /// Ground plate + fringe, F/m.
    pub ground_f_per_m: f64,
    /// Coupling to the lower neighbour, F/m.
    pub couple_below_f_per_m: f64,
    /// Coupling to the upper neighbour, F/m.
    pub couple_above_f_per_m: f64,
}

impl CapacitanceBreakdown {
    /// Total per-unit-length capacitance, F/m.
    pub fn total_f_per_m(&self) -> f64 {
        self.ground_f_per_m + self.couple_below_f_per_m + self.couple_above_f_per_m
    }

    /// Fraction of the total that is lateral coupling.
    pub fn coupling_fraction(&self) -> f64 {
        (self.couple_below_f_per_m + self.couple_above_f_per_m) / self.total_f_per_m()
    }
}

/// Coupling capacitance per unit length (F/m) across a gap of `gap_nm`
/// on layer `spec`.
///
/// # Errors
///
/// [`ExtractError::InvalidGeometry`] for a non-positive gap.
///
/// # Example
///
/// ```
/// use mpvar_extract::coupling_cap_f_per_m;
/// use mpvar_tech::preset::n10;
///
/// let tech = n10();
/// let m1 = tech.metal(1).expect("n10 has metal1");
/// let tight = coupling_cap_f_per_m(m1, 12.0)?;
/// let loose = coupling_cap_f_per_m(m1, 23.0)?;
/// assert!(tight > loose); // smaller gap, more coupling
/// # Ok::<(), mpvar_extract::ExtractError>(())
/// ```
pub fn coupling_cap_f_per_m(spec: &MetalSpec, gap_nm: f64) -> Result<f64, ExtractError> {
    let s = check_positive("gap_nm", gap_nm)?;
    let eps = spec.dielectric().permittivity_f_per_m();
    let t = spec.effective_thickness_nm();
    let h_avg = 0.5 * (spec.dielectric_below_nm() + spec.dielectric_above_nm());
    let plate = eps * t / s;
    let fringe = eps * K_COUPLING_FRINGE * (1.0 - s / (s + h_avg));
    Ok(plate + fringe)
}

/// Ground capacitance (plate + shielded fringe) per unit length (F/m)
/// for a wire of printed width `width_nm` with side gaps `gap_below_nm`
/// and `gap_above_nm` (pass [`OPEN_GAP_NM`] for an absent neighbour).
///
/// # Errors
///
/// [`ExtractError::InvalidGeometry`] for non-positive width or gaps.
pub(crate) fn ground_cap_f_per_m(
    spec: &MetalSpec,
    width_nm: f64,
    gap_below_nm: f64,
    gap_above_nm: f64,
) -> Result<f64, ExtractError> {
    let w = check_positive("width_nm", width_nm)?;
    let s_lo = check_positive("gap_below_nm", gap_below_nm)?;
    let s_hi = check_positive("gap_above_nm", gap_above_nm)?;
    let eps = spec.dielectric().permittivity_f_per_m();
    let t = spec.effective_thickness_nm();
    let plate = eps * w * (1.0 / spec.dielectric_below_nm() + 1.0 / spec.dielectric_above_nm());
    let fringe = eps * K_GROUND_FRINGE * (s_lo / (s_lo + t) + s_hi / (s_hi + t));
    Ok(plate + fringe)
}

/// Full breakdown for a wire with the given width and side gaps.
///
/// # Errors
///
/// Same as the component functions.
pub fn capacitance_breakdown(
    spec: &MetalSpec,
    width_nm: f64,
    gap_below_nm: Option<f64>,
    gap_above_nm: Option<f64>,
) -> Result<CapacitanceBreakdown, ExtractError> {
    let s_lo = gap_below_nm.unwrap_or(OPEN_GAP_NM);
    let s_hi = gap_above_nm.unwrap_or(OPEN_GAP_NM);
    let ground_f_per_m = ground_cap_f_per_m(spec, width_nm, s_lo, s_hi)?;
    let couple_below_f_per_m = match gap_below_nm {
        Some(s) => coupling_cap_f_per_m(spec, s)?,
        None => 0.0,
    };
    let couple_above_f_per_m = match gap_above_nm {
        Some(s) => coupling_cap_f_per_m(spec, s)?,
        None => 0.0,
    };
    Ok(CapacitanceBreakdown {
        ground_f_per_m,
        couple_below_f_per_m,
        couple_above_f_per_m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_tech::preset::n10;

    fn m1() -> MetalSpec {
        n10().metal(1).unwrap().clone()
    }

    #[test]
    fn coupling_monotone_decreasing_in_gap() {
        let spec = m1();
        let mut last = f64::INFINITY;
        for s in [5.0, 10.0, 15.0, 23.0, 40.0, 100.0] {
            let c = coupling_cap_f_per_m(&spec, s).unwrap();
            assert!(c < last, "coupling must fall with gap");
            last = c;
        }
    }

    #[test]
    fn coupling_vanishes_for_open_gap() {
        let spec = m1();
        let c = coupling_cap_f_per_m(&spec, OPEN_GAP_NM).unwrap();
        assert!(c < 1e-15, "c = {c}");
    }

    #[test]
    fn ground_plate_scales_with_width() {
        let spec = m1();
        let c26 = ground_cap_f_per_m(&spec, 26.0, 23.0, 23.0).unwrap();
        let c52 = ground_cap_f_per_m(&spec, 52.0, 23.0, 23.0).unwrap();
        assert!(c52 > c26);
        assert!(c52 < 2.0 * c26, "fringe does not scale with width");
    }

    #[test]
    fn ground_fringe_shielded_by_close_neighbours() {
        let spec = m1();
        let shielded = ground_cap_f_per_m(&spec, 26.0, 5.0, 5.0).unwrap();
        let open = ground_cap_f_per_m(&spec, 26.0, OPEN_GAP_NM, OPEN_GAP_NM).unwrap();
        assert!(shielded < open);
    }

    #[test]
    fn n10_total_capacitance_magnitude() {
        // Dense-stack N10 metal1 runs at roughly 150-250 aF/um total.
        let spec = m1();
        let b = capacitance_breakdown(&spec, 26.0, Some(23.0), Some(23.0)).unwrap();
        let af_per_um = b.total_f_per_m() * 1e18 * 1e-6;
        assert!(af_per_um > 120.0 && af_per_um < 280.0, "{af_per_um} aF/um");
    }

    #[test]
    fn coupling_dominates_at_min_pitch() {
        let spec = m1();
        let b = capacitance_breakdown(&spec, 26.0, Some(23.0), Some(23.0)).unwrap();
        let f = b.coupling_fraction();
        assert!(f > 0.5 && f < 0.9, "coupling fraction {f}");
    }

    #[test]
    fn le3_worst_case_gap_regime() {
        // Gaps squeezed 23 -> 12nm on both sides with width 29 vs 26:
        // total capacitance should rise by tens of percent (Table I's
        // LE3 worst case is +61.6% on the authors' stack).
        let spec = m1();
        let nom = capacitance_breakdown(&spec, 26.0, Some(23.0), Some(23.0)).unwrap();
        let worst = capacitance_breakdown(&spec, 29.0, Some(12.0), Some(12.0)).unwrap();
        let delta = worst.total_f_per_m() / nom.total_f_per_m() - 1.0;
        assert!(delta > 0.30 && delta < 0.90, "delta = {delta}");
    }

    #[test]
    fn sadp_worst_case_gap_regime() {
        // SADP worst case: gaps 22.5 vs 23 (self-aligned), width 32 vs 26.
        // Capacitance changes by only a few percent.
        let spec = m1();
        let nom = capacitance_breakdown(&spec, 26.0, Some(23.0), Some(23.0)).unwrap();
        let worst = capacitance_breakdown(&spec, 32.0, Some(22.5), Some(22.5)).unwrap();
        let delta = worst.total_f_per_m() / nom.total_f_per_m() - 1.0;
        assert!(delta > 0.0 && delta < 0.12, "delta = {delta}");
    }

    #[test]
    fn missing_neighbour_handled() {
        let spec = m1();
        let b = capacitance_breakdown(&spec, 26.0, None, Some(23.0)).unwrap();
        assert_eq!(b.couple_below_f_per_m, 0.0);
        assert!(b.couple_above_f_per_m > 0.0);
        assert!(b.total_f_per_m() > 0.0);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let spec = m1();
        assert!(coupling_cap_f_per_m(&spec, 0.0).is_err());
        assert!(coupling_cap_f_per_m(&spec, -3.0).is_err());
        assert!(ground_cap_f_per_m(&spec, 0.0, 23.0, 23.0).is_err());
        assert!(ground_cap_f_per_m(&spec, 26.0, f64::NAN, 23.0).is_err());
    }
}
