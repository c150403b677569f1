//! Per-parameter sensitivity of the read-time penalty.
//!
//! The paper concludes that "the main contributor to this performance
//! variation of LE3 is the exposure overlay (OL) error" (§IV). This
//! module quantifies that claim: for every variation parameter of an
//! option it computes the central-difference derivative
//! `∂(tdp %)/∂(parameter, nm)` around nominal, through the full
//! litho → extraction → formula chain.
//!
//! First-order sensitivities can vanish at a symmetric nominal point
//! (e.g. a centred line where moving either way raises coupling), so the
//! second-order (curvature) term is reported as well — for LE3 overlay
//! the curvature is exactly what drives the Monte-Carlo spread.

use std::fmt::Write as _;

use mpvar_extract::{extract_track, RelativeVariation, WireParasitics};
use mpvar_litho::{apply_draw, Draw};
use mpvar_sram::BitcellGeometry;
use mpvar_tech::{PatterningOption, TechDb};

use crate::error::CoreError;
use crate::experiments::ExperimentContext;
use crate::formula::AnalyticalModel;
use crate::report::TextTable;

/// Sensitivity of `tdp` to one variation parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParameterSensitivity {
    /// Parameter name (as in [`Draw::parameters`]).
    pub name: &'static str,
    /// First derivative, percentage points of tdp per nm.
    pub slope_pp_per_nm: f64,
    /// Second derivative, percentage points per nm².
    pub curvature_pp_per_nm2: f64,
}

/// The sensitivity profile of one patterning option.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityProfile {
    /// The option analysed.
    pub option: PatterningOption,
    /// Array size the formula was evaluated at.
    pub n: usize,
    /// Perturbation step used, nm.
    pub step_nm: f64,
    /// Per-parameter sensitivities, in [`Draw::parameters`] order.
    pub parameters: Vec<ParameterSensitivity>,
}

impl SensitivityProfile {
    /// The parameter with the largest combined influence, ranked by
    /// `|slope| + |curvature| * sigma_scale` where `sigma_scale` is 1nm.
    pub fn dominant(&self) -> Option<&ParameterSensitivity> {
        self.parameters.iter().max_by(|a, b| {
            let ka = a.slope_pp_per_nm.abs() + a.curvature_pp_per_nm2.abs();
            let kb = b.slope_pp_per_nm.abs() + b.curvature_pp_per_nm2.abs();
            ka.partial_cmp(&kb).expect("finite sensitivities")
        })
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "tdp sensitivity: {} (n = {}, step {}nm)",
                self.option.paper_label(),
                self.n,
                self.step_nm
            ),
            &["parameter", "slope (pp/nm)", "curvature (pp/nm^2)"],
        );
        for p in &self.parameters {
            t.row(&[
                p.name,
                &format!("{:+.4}", p.slope_pp_per_nm),
                &format!("{:+.4}", p.curvature_pp_per_nm2),
            ]);
        }
        t
    }
}

/// Computes the sensitivity profile of `option` at array size `n`.
///
/// # Errors
///
/// Propagates litho/extraction/model failures.
pub fn sensitivity_profile(
    tech: &TechDb,
    cell: &BitcellGeometry,
    option: PatterningOption,
    n: usize,
    step_nm: f64,
) -> Result<SensitivityProfile, CoreError> {
    let valid = step_nm > 0.0 && step_nm.is_finite();
    if !valid {
        return Err(CoreError::InvalidParameter {
            name: "step_nm",
            value: step_nm,
            constraint: "must be finite and positive",
        });
    }
    let m1 = tech
        .metal(1)
        .ok_or_else(|| CoreError::Tech("technology lacks metal1".to_string()))?;
    let stack = cell.column_stack(mpvar_sram::array::PAPER_BL_PAIRS, 5, 1)?;
    let nominal_printed = apply_draw(&stack, &Draw::nominal(option))?;
    let bl = nominal_printed
        .index_of_net("BL")
        .ok_or_else(|| CoreError::Sram("column stack lost its BL track".to_string()))?;
    let nominal = extract_track(&nominal_printed, bl, m1)?;
    let params = mpvar_sram::FormulaParams::derive(tech, cell, 0.7)?;
    let model = AnalyticalModel::new(params, 0.10)?;

    let tdp_at = |draw: &Draw| -> Result<f64, CoreError> {
        let printed = apply_draw(&stack, draw)?;
        let w: WireParasitics = extract_track(&printed, bl, m1)?;
        let var = RelativeVariation::between(&nominal, &w);
        Ok(model.tdp_percent(n, var.r_var, var.c_var))
    };

    let mut parameters = Vec::new();
    for (name, _) in Draw::nominal(option).parameters() {
        let mut plus = Draw::nominal(option);
        plus.set_parameter(name, step_nm);
        let mut minus = Draw::nominal(option);
        minus.set_parameter(name, -step_nm);
        let f_plus = tdp_at(&plus)?;
        let f_minus = tdp_at(&minus)?;
        // f(0) = 0 by construction (nominal multipliers are 1).
        parameters.push(ParameterSensitivity {
            name,
            slope_pp_per_nm: (f_plus - f_minus) / (2.0 * step_nm),
            curvature_pp_per_nm2: (f_plus + f_minus) / (step_nm * step_nm),
        });
    }

    Ok(SensitivityProfile {
        option,
        n,
        step_nm,
        parameters,
    })
}

/// The per-parameter sensitivity profiles of every implemented
/// patterning option: the `extension-sensitivity` artefact.
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityMatrix {
    /// Array size the profiles were evaluated at.
    pub n: usize,
    /// One profile per option, in [`PatterningOption::ALL_WITH_EXTENSIONS`] order.
    pub profiles: Vec<SensitivityProfile>,
}

/// Profiles every option of [`PatterningOption::ALL_WITH_EXTENSIONS`]
/// at the context's pinned height with a 0.25 nm step.
///
/// # Errors
///
/// Propagates [`sensitivity_profile`] failures.
pub fn extension_sensitivity(ctx: &ExperimentContext) -> Result<SensitivityMatrix, CoreError> {
    let n = ctx.pinned_height();
    let profiles = PatterningOption::ALL_WITH_EXTENSIONS
        .into_iter()
        .map(|option| sensitivity_profile(&ctx.tech, &ctx.cell, option, n, 0.25))
        .collect::<Result<_, _>>()?;
    Ok(SensitivityMatrix { n, profiles })
}

impl SensitivityMatrix {
    /// Renders the per-option report tables, one after another.
    pub fn report(&self) -> String {
        let mut text = String::new();
        for profile in &self.profiles {
            text.push_str(&profile.report().render());
            text.push('\n');
        }
        text
    }

    /// Renders every option's parameters as one CSV.
    pub fn to_csv(&self) -> String {
        let mut csv = String::from("option,parameter,slope_pp_per_nm,curvature_pp_per_nm2\n");
        for profile in &self.profiles {
            for p in &profile.parameters {
                let _ = writeln!(
                    csv,
                    "{},{},{},{}",
                    profile.option, p.name, p.slope_pp_per_nm, p.curvature_pp_per_nm2
                );
            }
        }
        csv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_tech::preset::n10;

    fn profile(option: PatterningOption) -> SensitivityProfile {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech).unwrap();
        sensitivity_profile(&tech, &cell, option, 64, 0.25).unwrap()
    }

    #[test]
    fn le3_overlay_is_first_order() {
        // Each LE3 overlay moves ONE neighbour of the bit line, changing
        // one gap monotonically: a genuinely first-order effect. This is
        // the quantitative form of "OL is the main contributor" — the MC
        // spread scales linearly with the overlay budget.
        let p = profile(PatterningOption::Le3);
        for name in ["ol_b", "ol_c"] {
            let s = p
                .parameters
                .iter()
                .find(|x| x.name == name)
                .expect("parameter present");
            assert!(
                s.slope_pp_per_nm.abs() > 0.05,
                "{name} slope {}",
                s.slope_pp_per_nm
            );
            // Coupling is convex in the gap: positive curvature too.
            assert!(
                s.curvature_pp_per_nm2 > 0.0,
                "{name} curvature {}",
                s.curvature_pp_per_nm2
            );
        }
    }

    #[test]
    fn le2_overlay_is_second_order_only() {
        // LE2's single overlay moves the bit line itself: one gap closes
        // exactly as the other opens, cancelling the first-order term.
        // Only the convexity residue remains — which is why LE2's MC
        // sigma sits far below LE3's despite the same overlay budget.
        let le2 = profile(PatterningOption::Le2);
        let le3 = profile(PatterningOption::Le3);
        let le2_ol = le2.parameters.iter().find(|x| x.name == "ol_b").unwrap();
        let le3_ol = le3.parameters.iter().find(|x| x.name == "ol_b").unwrap();
        assert!(
            le2_ol.slope_pp_per_nm.abs() < 0.1 * le3_ol.slope_pp_per_nm.abs(),
            "LE2 slope {} vs LE3 slope {}",
            le2_ol.slope_pp_per_nm,
            le3_ol.slope_pp_per_nm
        );
        assert!(le2_ol.curvature_pp_per_nm2 > 0.0);
    }

    #[test]
    fn cd_parameters_have_positive_slope() {
        // Wider lines -> higher coupling -> slower reads, first order.
        let p = profile(PatterningOption::Le3);
        for name in ["cd_a", "cd_b", "cd_c"] {
            let s = p.parameters.iter().find(|x| x.name == name).unwrap();
            assert!(s.slope_pp_per_nm > 0.0, "{name}: {}", s.slope_pp_per_nm);
        }
        let euv = profile(PatterningOption::Euv);
        assert!(euv.parameters[0].slope_pp_per_nm > 0.0);
    }

    #[test]
    fn sadp_spacer_slope_is_negative() {
        // A thicker spacer means wider gaps (less coupling) AND a
        // narrower spacer-defined line (more R, but R barely matters):
        // net tdp falls.
        let p = profile(PatterningOption::Sadp);
        let spacer = p.parameters.iter().find(|x| x.name == "spacer").unwrap();
        assert!(
            spacer.slope_pp_per_nm < 0.0,
            "spacer slope {}",
            spacer.slope_pp_per_nm
        );
    }

    #[test]
    fn dominant_parameter_for_le3_is_an_overlay_or_bl_cd() {
        let p = profile(PatterningOption::Le3);
        let d = p.dominant().unwrap();
        assert!(
            ["ol_b", "ol_c", "cd_a", "cd_b", "cd_c"].contains(&d.name),
            "dominant {}",
            d.name
        );
        assert!(p.report().render().contains("slope"));
    }

    #[test]
    fn invalid_step_rejected() {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech).unwrap();
        assert!(sensitivity_profile(&tech, &cell, PatterningOption::Le3, 64, 0.0).is_err());
        assert!(sensitivity_profile(&tech, &cell, PatterningOption::Le3, 64, f64::NAN).is_err());
    }
}
