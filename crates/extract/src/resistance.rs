//! Wire resistance from the trapezoidal damascene cross-section.
//!
//! A damascene trench etched with sidewall taper `theta` (from vertical)
//! has a bottom width `w` and a top width `w + 2 t tan(theta)`; its
//! cross-section area is `t (w + t tan(theta))`. The paper's tech inputs
//! include "layer thickness, tapering angles, material properties, etch
//! and CMP parameters" — all of which enter here: etch bias adjusts the
//! printed width, CMP dishing reduces the effective thickness (via
//! [`MetalSpec::effective_thickness_nm`]), and the conductor's
//! width-dependent resistivity captures Cu size effects.

use mpvar_tech::MetalSpec;

use crate::error::ExtractError;

/// Trapezoidal cross-section area in nm² for a printed bottom width
/// `width_nm` on layer `spec`.
///
/// # Errors
///
/// [`ExtractError::InvalidGeometry`] when the width (after etch bias) is
/// not strictly positive.
pub(crate) fn cross_section_area_nm2(spec: &MetalSpec, width_nm: f64) -> Result<f64, ExtractError> {
    let w = width_nm + spec.etch_bias_nm();
    if !w.is_finite() || w <= 0.0 {
        return Err(ExtractError::InvalidGeometry {
            name: "width_nm",
            value: w,
            constraint: "printed width (incl. etch bias) must be positive",
        });
    }
    let t = spec.effective_thickness_nm();
    let tan_taper = spec.taper_deg().to_radians().tan();
    Ok(t * (w + t * tan_taper))
}

/// Resistance in ohms of a wire of printed width `width_nm` and length
/// `length_nm` on layer `spec`.
///
/// # Errors
///
/// [`ExtractError::InvalidGeometry`] for a non-positive width or length.
///
/// # Example
///
/// ```
/// use mpvar_extract::wire_resistance_ohm;
/// use mpvar_tech::preset::n10;
///
/// let tech = n10();
/// let m1 = tech.metal(1).expect("n10 has metal1");
/// // One 130nm-long bit-line segment: a few ohms at N10 dimensions.
/// let r = wire_resistance_ohm(m1, 26.0, 130.0)?;
/// assert!(r > 1.0 && r < 20.0, "r = {r}");
/// # Ok::<(), mpvar_extract::ExtractError>(())
/// ```
pub fn wire_resistance_ohm(
    spec: &MetalSpec,
    width_nm: f64,
    length_nm: f64,
) -> Result<f64, ExtractError> {
    if !length_nm.is_finite() || length_nm <= 0.0 {
        return Err(ExtractError::InvalidGeometry {
            name: "length_nm",
            value: length_nm,
            constraint: "must be positive",
        });
    }
    let area_nm2 = cross_section_area_nm2(spec, width_nm)?;
    // Size effects evaluated at the mean trapezoid width.
    let t = spec.effective_thickness_nm();
    let mean_width = width_nm + spec.etch_bias_nm() + t * spec.taper_deg().to_radians().tan();
    let rho = spec.conductor().resistivity_at_width(mean_width);
    // R = rho * L / A with L in m and A in m^2.
    Ok(rho * (length_nm * 1e-9) / (area_nm2 * 1e-18))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_geometry::Nm;
    use mpvar_tech::preset::n10;
    use mpvar_tech::{Conductor, Dielectric};

    fn m1() -> MetalSpec {
        n10().metal(1).unwrap().clone()
    }

    #[test]
    fn area_includes_taper() {
        let spec = m1(); // taper 4 deg, thickness 42
        let a = cross_section_area_nm2(&spec, 24.0).unwrap();
        let rect = 42.0 * 24.0;
        assert!(a > rect, "taper widens the cross-section");
        assert!(a < rect * 1.3);
    }

    #[test]
    fn zero_taper_matches_rectangle() {
        let spec = MetalSpec::builder(1)
            .pitch(Nm(48))
            .min_width(Nm(24))
            .thickness_nm(42.0)
            .taper_deg(0.0)
            .dielectric_below_nm(40.0)
            .dielectric_above_nm(40.0)
            .conductor(Conductor::new(1.9e-8, 30.0).unwrap())
            .dielectric(Dielectric::new(2.9).unwrap())
            .build()
            .unwrap();
        let a = cross_section_area_nm2(&spec, 24.0).unwrap();
        assert!((a - 42.0 * 24.0).abs() < 1e-9);
    }

    #[test]
    fn resistance_scales_with_length() {
        let spec = m1();
        let r1 = wire_resistance_ohm(&spec, 26.0, 100.0).unwrap();
        let r2 = wire_resistance_ohm(&spec, 26.0, 200.0).unwrap();
        assert!((r2 / r1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn resistance_falls_with_width_superlinearly() {
        // Wider wire: more area AND lower resistivity (size effect), so
        // R drops faster than 1/w.
        let spec = m1();
        let r24 = wire_resistance_ohm(&spec, 24.0, 1000.0).unwrap();
        let r48 = wire_resistance_ohm(&spec, 48.0, 1000.0).unwrap();
        assert!(r48 < r24 / 2.0, "r24 {r24} r48 {r48}");
    }

    #[test]
    fn cd_plus_3nm_drops_resistance_about_ten_percent() {
        // The paper's Table I reports R_bl -10.36% for CD +3sigma (+3nm).
        // Our physical model lands in the same regime (10-20% drop).
        let spec = m1();
        let r_nom = wire_resistance_ohm(&spec, 26.0, 130.0).unwrap();
        let r_wide = wire_resistance_ohm(&spec, 29.0, 130.0).unwrap();
        let delta = r_wide / r_nom - 1.0;
        assert!(delta < -0.08 && delta > -0.22, "delta = {delta}");
    }

    #[test]
    fn etch_bias_shifts_width() {
        let narrow_bias = MetalSpec::builder(1)
            .pitch(Nm(48))
            .min_width(Nm(24))
            .thickness_nm(42.0)
            .taper_deg(4.0)
            .etch_bias_nm(-2.0)
            .dielectric_below_nm(40.0)
            .dielectric_above_nm(40.0)
            .conductor(Conductor::new(1.9e-8, 30.0).unwrap())
            .dielectric(Dielectric::new(2.9).unwrap())
            .build()
            .unwrap();
        let r_biased = wire_resistance_ohm(&narrow_bias, 26.0, 130.0).unwrap();
        let r_plain = wire_resistance_ohm(&m1(), 26.0, 130.0).unwrap();
        assert!(r_biased > r_plain);
    }

    #[test]
    fn dishing_raises_resistance() {
        let dished = MetalSpec::builder(1)
            .pitch(Nm(48))
            .min_width(Nm(24))
            .thickness_nm(42.0)
            .taper_deg(4.0)
            .cmp_dishing_nm(8.0)
            .dielectric_below_nm(40.0)
            .dielectric_above_nm(40.0)
            .conductor(Conductor::new(1.9e-8, 30.0).unwrap())
            .dielectric(Dielectric::new(2.9).unwrap())
            .build()
            .unwrap();
        let r_dished = wire_resistance_ohm(&dished, 26.0, 130.0).unwrap();
        let r_plain = wire_resistance_ohm(&m1(), 26.0, 130.0).unwrap();
        assert!(r_dished > r_plain);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let spec = m1();
        assert!(wire_resistance_ohm(&spec, 0.0, 100.0).is_err());
        assert!(wire_resistance_ohm(&spec, -5.0, 100.0).is_err());
        assert!(wire_resistance_ohm(&spec, 26.0, 0.0).is_err());
        assert!(wire_resistance_ohm(&spec, f64::NAN, 100.0).is_err());
        assert!(cross_section_area_nm2(&spec, f64::INFINITY).is_err());
    }

    #[test]
    fn n10_bitline_per_cell_magnitude() {
        // Sanity: a 130nm cell-pitch bit-line segment should be a few
        // ohms — the regime where n*R_bl stays below the FET resistance
        // for all array sizes in the paper's Fig. 4.
        let r = wire_resistance_ohm(&m1(), 26.0, 130.0).unwrap();
        assert!(r > 2.0 && r < 12.0, "r = {r}");
    }
}
