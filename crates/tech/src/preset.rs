//! The calibrated N10-class technology preset.
//!
//! Values are chosen to be representative of an imec-N10-class BEOL/FEOL
//! (48nm metal1 pitch, damascene Cu with strong size effects, low-k
//! dielectric, 0.7V FinFET-class devices) and are **calibrated** so that
//! the reproduction lands in the same regime as the paper's Tables I–IV:
//! per-cell bit-line R of a few ohms, per-cell bit-line C of a few tens of
//! aF, and a read discharge set by the FEOL path.
//!
//! None of the authors' proprietary values are used; see DESIGN.md §2.

use mpvar_geometry::Nm;

use crate::material::{Conductor, Dielectric};
use crate::metal::MetalSpec;
use crate::transistor::{Polarity, TransistorParams};
use crate::variation::{PatterningOption, VariationBudget};
use crate::TechDb;

/// Builds the N10-class preset used by every experiment in this repo.
///
/// # Panics
///
/// Never panics in practice: all constants below are statically valid; the
/// internal `expect`s document that invariant.
pub fn n10() -> TechDb {
    let cu = Conductor::new(1.9e-8, 30.0).expect("bulk Cu constants are valid");
    let low_k = Dielectric::new(2.9).expect("low-k constant is valid");

    let m1 = MetalSpec::builder(1)
        .pitch(Nm(48))
        .min_width(Nm(24))
        .thickness_nm(42.0)
        .taper_deg(4.0)
        .etch_bias_nm(0.0)
        .cmp_dishing_nm(0.0)
        .dielectric_below_nm(40.0)
        .dielectric_above_nm(40.0)
        .conductor(cu)
        .dielectric(low_k)
        .build()
        .expect("metal1 preset constants are valid");

    let m2 = MetalSpec::builder(2)
        .pitch(Nm(64))
        .min_width(Nm(32))
        .thickness_nm(50.0)
        .taper_deg(4.0)
        .etch_bias_nm(0.0)
        .cmp_dishing_nm(0.0)
        .dielectric_below_nm(45.0)
        .dielectric_above_nm(45.0)
        .conductor(cu)
        .dielectric(low_k)
        .build()
        .expect("metal2 preset constants are valid");

    let nmos = TransistorParams::builder(Polarity::Nmos)
        .vth_v(0.25)
        .k_sat_a(38e-6)
        .alpha(1.25)
        .vd0_v(0.45)
        .lambda_per_v(0.05)
        .c_gate_f(45e-18)
        .c_drain_f(20e-18)
        .build()
        .expect("nmos preset constants are valid");

    let pmos = TransistorParams::builder(Polarity::Pmos)
        .vth_v(0.28)
        .k_sat_a(22e-6)
        .alpha(1.30)
        .vd0_v(0.50)
        .lambda_per_v(0.06)
        .c_gate_f(40e-18)
        .c_drain_f(18e-18)
        .build()
        .expect("pmos preset constants are valid");

    let mut tech = TechDb::new("n10", nmos, pmos);
    tech.add_metal(m1);
    tech.add_metal(m2);
    for option in PatterningOption::ALL {
        let budget =
            VariationBudget::paper_default(option, 8.0).expect("paper default budgets are valid");
        tech.set_budget(option, budget);
    }
    tech
}

/// An N7-class scaled preset: 40nm metal1 pitch, thinner and slightly
/// more resistive wires, the same absolute variation budgets.
///
/// Exists for the scaling extension experiment: the paper's introduction
/// argues that "the continuous reduction of interconnect dimensions ...
/// can only exacerbate these problems" — holding the 3σ budgets constant
/// while shrinking the geometry tests exactly that.
///
/// # Panics
///
/// Never panics in practice: all constants below are statically valid.
pub fn n7() -> TechDb {
    let cu = Conductor::new(1.9e-8, 34.0).expect("bulk Cu constants are valid");
    let low_k = Dielectric::new(2.8).expect("low-k constant is valid");

    let m1 = MetalSpec::builder(1)
        .pitch(Nm(40))
        .min_width(Nm(20))
        .thickness_nm(36.0)
        .taper_deg(4.0)
        .etch_bias_nm(0.0)
        .cmp_dishing_nm(0.0)
        .dielectric_below_nm(34.0)
        .dielectric_above_nm(34.0)
        .conductor(cu)
        .dielectric(low_k)
        .build()
        .expect("metal1 preset constants are valid");

    let m2 = MetalSpec::builder(2)
        .pitch(Nm(54))
        .min_width(Nm(27))
        .thickness_nm(44.0)
        .taper_deg(4.0)
        .etch_bias_nm(0.0)
        .cmp_dishing_nm(0.0)
        .dielectric_below_nm(38.0)
        .dielectric_above_nm(38.0)
        .conductor(cu)
        .dielectric(low_k)
        .build()
        .expect("metal2 preset constants are valid");

    // Slightly faster devices with the node, per the usual scaling.
    let nmos = TransistorParams::builder(Polarity::Nmos)
        .vth_v(0.24)
        .k_sat_a(44e-6)
        .alpha(1.22)
        .vd0_v(0.43)
        .lambda_per_v(0.06)
        .c_gate_f(38e-18)
        .c_drain_f(17e-18)
        .build()
        .expect("nmos preset constants are valid");

    let pmos = TransistorParams::builder(Polarity::Pmos)
        .vth_v(0.27)
        .k_sat_a(26e-6)
        .alpha(1.27)
        .vd0_v(0.48)
        .lambda_per_v(0.07)
        .c_gate_f(34e-18)
        .c_drain_f(15e-18)
        .build()
        .expect("pmos preset constants are valid");

    let mut tech = TechDb::new("n7", nmos, pmos);
    tech.add_metal(m1);
    tech.add_metal(m2);
    for option in PatterningOption::ALL {
        let budget =
            VariationBudget::paper_default(option, 8.0).expect("paper default budgets are valid");
        tech.set_budget(option, budget);
    }
    tech
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_complete() {
        let t = n10();
        assert_eq!(t.name(), "n10");
        assert!(t.metal(1).is_some());
        assert!(t.metal(2).is_some());
        assert!(t.metal(3).is_none());
        for o in PatterningOption::ALL {
            assert!(t.budget(o).is_some(), "{o}");
        }
    }

    #[test]
    fn m1_geometry_matches_paper_regime() {
        let t = n10();
        let m1 = t.metal(1).unwrap();
        assert_eq!(m1.pitch(), Nm(48));
        assert_eq!(m1.pitch() - m1.min_width(), Nm(24));
        // Damascene AR (thickness/width) in the 1.5-2 range.
        let ar = m1.thickness_nm() / m1.min_width().0 as f64;
        assert!(ar > 1.4 && ar < 2.1, "AR {ar}");
    }

    #[test]
    fn budgets_match_paper_assumptions() {
        let t = n10();
        let le3 = t.budget(PatterningOption::Le3).unwrap();
        assert_eq!(le3.cd_three_sigma_nm(), 3.0);
        assert_eq!(le3.overlay_three_sigma_nm(), 8.0);
        let sadp = t.budget(PatterningOption::Sadp).unwrap();
        assert_eq!(sadp.spacer_three_sigma_nm(), 1.5);
        let euv = t.budget(PatterningOption::Euv).unwrap();
        assert_eq!(euv.overlay_three_sigma_nm(), 0.0);
    }

    #[test]
    fn devices_have_sram_class_drive() {
        let t = n10();
        // Pull-down on resistance at nominal rail: 10k-100k.
        let r = t.nmos().equivalent_resistance(0.45, 0.7);
        assert!(r > 10e3 && r < 100e3, "R {r}");
        // PMOS is weaker than NMOS.
        assert!(t.pmos().k_sat_a() < t.nmos().k_sat_a());
    }

    #[test]
    fn metals_iterate_in_level_order() {
        let t = n10();
        let levels: Vec<u8> = t.metals().map(|m| m.level()).collect();
        assert_eq!(levels, vec![1, 2]);
    }

    #[test]
    fn n7_scales_down_from_n10() {
        let t10 = n10();
        let t7 = n7();
        assert_eq!(t7.name(), "n7");
        let (m10, m7) = (t10.metal(1).unwrap(), t7.metal(1).unwrap());
        assert!(m7.pitch() < m10.pitch());
        assert!(m7.min_width() < m10.min_width());
        assert!(m7.thickness_nm() < m10.thickness_nm());
        // Same absolute variation budgets — the scaling experiment's
        // controlled variable.
        for o in PatterningOption::ALL {
            assert_eq!(
                t7.budget(o).unwrap().cd_three_sigma_nm(),
                t10.budget(o).unwrap().cd_three_sigma_nm()
            );
        }
        // Round-trips through the .tech format like n10.
        let back = crate::io::from_text(&crate::io::to_text(&t7)).unwrap();
        assert_eq!(t7, back);
    }
}
