//! The paper's analytical lumped-RC read-time formula (§III.A).
//!
//! Starting from the RC step response `V(t) = (1 − e^(−t/RC)) V` (eq. 1),
//! the time to a given discharge level is `td = a · RC` (eq. 2) with
//! `a = −ln(1 − level)`; for the paper's 10% level `a ≈ 0.105` (eq. 3).
//! Expanding the lumped R and C into per-cell parasitics and the array
//! length `n` gives eq. 4:
//!
//! ```text
//! td = a · (n·R_bl·R_var + R_FE) · (n·(C_bl·C_var + C_FE) + C_pre(n))
//! ```
//!
//! which is a quadratic-like polynomial in `n` (eq. 5). The read-time
//! penalty is the ratio `td(R_var, C_var) / td(1, 1) − 1`.

use mpvar_sram::FormulaParams;

use crate::error::CoreError;

/// The analytical lumped-RC `td` model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticalModel {
    params: FormulaParams,
    a: f64,
}

impl AnalyticalModel {
    /// Creates a model for the given per-cell parameters and discharge
    /// level (fraction of the precharge voltage; the paper's sense
    /// criterion 70mV/0.7V is `0.10`).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when `discharge_level` is outside
    /// `(0, 1)`.
    pub fn new(params: FormulaParams, discharge_level: f64) -> Result<Self, CoreError> {
        if !(discharge_level > 0.0 && discharge_level < 1.0) {
            return Err(CoreError::InvalidParameter {
                name: "discharge_level",
                value: discharge_level,
                constraint: "must lie strictly between 0 and 1",
            });
        }
        Ok(Self {
            params,
            a: -(1.0 - discharge_level).ln(),
        })
    }

    /// The per-cell parameters.
    pub fn params(&self) -> &FormulaParams {
        &self.params
    }

    /// The discharge-level constant `a` of eq. 2.
    pub fn a(&self) -> f64 {
        self.a
    }

    /// Eq. 4: analytical `td` in seconds for an `n`-cell column with the
    /// given variation multipliers (`1.0` = nominal).
    pub fn td_s(&self, n: usize, r_var: f64, c_var: f64) -> f64 {
        let p = &self.params;
        let nf = n as f64;
        let r = nf * p.rbl_ohm * r_var + p.rfe_ohm;
        let c = nf * (p.cbl_f * c_var + p.cfe_f) + p.cpre_f(n);
        self.a * r * c
    }

    /// Nominal `td` (both multipliers 1).
    pub fn td_nominal_s(&self, n: usize) -> f64 {
        self.td_s(n, 1.0, 1.0)
    }

    /// Read-time penalty as a ratio: `td / td_nominal − 1`.
    pub fn tdp(&self, n: usize, r_var: f64, c_var: f64) -> f64 {
        self.td_s(n, r_var, c_var) / self.td_nominal_s(n) - 1.0
    }

    /// Read-time penalty in percent (the unit of Tables III/IV).
    pub fn tdp_percent(&self, n: usize, r_var: f64, c_var: f64) -> f64 {
        self.tdp(n, r_var, c_var) * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_sram::BitcellGeometry;
    use mpvar_tech::preset::n10;

    fn model() -> AnalyticalModel {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech).unwrap();
        let params = FormulaParams::derive(&tech, &cell, 0.7).unwrap();
        AnalyticalModel::new(params, 0.10).unwrap()
    }

    #[test]
    fn discharge_constant_matches_eq3() {
        let m = model();
        // Paper eq. 3: t ≈ 0.105 RC for 10% discharge.
        assert!((m.a() - 0.10536).abs() < 1e-4, "a = {}", m.a());
    }

    #[test]
    fn level_validation() {
        let p = model().params;
        assert!(AnalyticalModel::new(p, 0.0).is_err());
        assert!(AnalyticalModel::new(p, 1.0).is_err());
        assert!(AnalyticalModel::new(p, -0.5).is_err());
        assert!(AnalyticalModel::new(p, 0.5).is_ok());
    }

    #[test]
    fn td_grows_superlinearly_in_n() {
        let m = model();
        let sizes = [16usize, 64, 256, 1024];
        let tds: Vec<f64> = sizes.iter().map(|&n| m.td_nominal_s(n)).collect();
        for w in tds.windows(2) {
            assert!(w[1] > w[0]);
        }
        // Between n and 4n the growth exceeds 4x (quadratic term) but
        // stays below 16x.
        for i in 0..sizes.len() - 1 {
            let ratio = tds[i + 1] / tds[i];
            assert!(ratio > 4.0 && ratio < 16.0, "ratio {ratio}");
        }
    }

    #[test]
    fn td_magnitude_matches_paper_regime() {
        // The paper's formula column (Table II) spans ~2ps..144ps over
        // 16..1024 cells; ours must be the same order of magnitude.
        let m = model();
        let td16 = m.td_nominal_s(16) * 1e12;
        let td1024 = m.td_nominal_s(1024) * 1e12;
        assert!(td16 > 0.5 && td16 < 50.0, "td16 = {td16}ps");
        assert!(td1024 > 50.0 && td1024 < 1500.0, "td1024 = {td1024}ps");
    }

    #[test]
    fn tdp_sign_follows_variation() {
        let m = model();
        assert!(m.tdp(64, 1.0, 1.5) > 0.0);
        assert!(m.tdp(64, 1.0, 0.8) < 0.0);
        assert!(m.tdp(64, 1.0, 1.0).abs() < 1e-12);
        // Pure R increase also slows the read, but weakly (FET-limited).
        let r_only = m.tdp(64, 1.5, 1.0);
        assert!(r_only > 0.0 && r_only < 0.01);
    }

    #[test]
    fn r_variation_matters_more_at_large_n() {
        let m = model();
        let small = m.tdp(16, 0.9, 1.0).abs();
        let large = m.tdp(1024, 0.9, 1.0).abs();
        assert!(large > small);
    }

    #[test]
    fn negative_rvar_can_flip_tdp_sign_at_length() {
        // The paper observes negative EUV tdp at n = 1024 (Fig. 4):
        // a strong-enough R drop with a mild C rise goes negative for
        // long arrays. Verify the formula can reproduce that crossover
        // with the appropriate multipliers.
        let m = model();
        let r_var = 0.5;
        let c_var = 1.002;
        let tdp_short = m.tdp(4, r_var, c_var);
        let tdp_long = m.tdp(4096, r_var, c_var);
        assert!(tdp_short > tdp_long, "penalty falls with n under R drop");
    }

    #[test]
    fn tdp_percent_scales() {
        let m = model();
        let frac = m.tdp(64, 0.9, 1.5);
        assert!((m.tdp_percent(64, 0.9, 1.5) - frac * 100.0).abs() < 1e-12);
    }
}
