//! Conductor and dielectric material models.

use serde::{Deserialize, Serialize};

use crate::error::{positive, TechError};

/// A conductor with width-dependent effective resistivity.
///
/// At sub-32nm linewidths, grain-boundary and surface scattering raise
/// copper's effective resistivity well above bulk. `mpvar` uses the
/// compact first-order model
///
/// ```text
/// rho_eff(w) = rho_bulk * (1 + k_size / w)
/// ```
///
/// with `w` the drawn linewidth in nm and `k_size` a calibration length in
/// nm — accurate to a few percent against the full Fuchs–Sondheimer +
/// Mayadas–Shatzkes treatment over the 10–100nm range relevant here.
///
/// # Example
///
/// ```
/// use mpvar_tech::Conductor;
///
/// let cu = Conductor::new(1.9e-8, 20.0)?; // bulk Cu ~1.9e-8 Ohm m
/// let narrow = cu.resistivity_at_width(20.0);
/// let wide = cu.resistivity_at_width(200.0);
/// assert!(narrow > wide); // size effect
/// # Ok::<(), mpvar_tech::TechError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Conductor {
    rho_bulk_ohm_m: f64,
    k_size_nm: f64,
}

impl Conductor {
    /// Creates a conductor from bulk resistivity (Ω·m) and the
    /// size-effect length (nm).
    ///
    /// # Errors
    ///
    /// [`TechError::InvalidParameter`] when either value is not finite and
    /// strictly positive.
    pub fn new(rho_bulk_ohm_m: f64, k_size_nm: f64) -> Result<Self, TechError> {
        Ok(Self {
            rho_bulk_ohm_m: positive("rho_bulk_ohm_m", rho_bulk_ohm_m)?,
            k_size_nm: positive("k_size_nm", k_size_nm)?,
        })
    }

    /// Bulk resistivity in Ω·m.
    pub(crate) fn rho_bulk_ohm_m(&self) -> f64 {
        self.rho_bulk_ohm_m
    }

    /// Size-effect calibration length in nm.
    pub(crate) fn k_size_nm(&self) -> f64 {
        self.k_size_nm
    }

    /// Effective resistivity (Ω·m) at drawn linewidth `width_nm`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `width_nm > 0`; release builds return `+inf` for a
    /// zero width, which propagates visibly rather than silently.
    pub fn resistivity_at_width(&self, width_nm: f64) -> f64 {
        debug_assert!(width_nm > 0.0, "linewidth must be positive");
        self.rho_bulk_ohm_m * (1.0 + self.k_size_nm / width_nm)
    }
}

/// A dielectric characterized by its relative permittivity.
///
/// # Example
///
/// ```
/// use mpvar_tech::Dielectric;
///
/// let low_k = Dielectric::new(2.7)?;
/// assert!((low_k.permittivity_f_per_m() / 8.854e-12 - 2.7).abs() < 1e-4);
/// # Ok::<(), mpvar_tech::TechError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dielectric {
    k_rel: f64,
}

/// Vacuum permittivity in F/m.
pub(crate) const EPSILON_0: f64 = 8.854_187_812_8e-12;

impl Dielectric {
    /// Creates a dielectric from its relative permittivity.
    ///
    /// # Errors
    ///
    /// [`TechError::InvalidParameter`] when `k_rel` is not finite or below
    /// 1 (vacuum is the physical floor).
    pub fn new(k_rel: f64) -> Result<Self, TechError> {
        if !k_rel.is_finite() || k_rel < 1.0 {
            return Err(TechError::InvalidParameter {
                name: "k_rel",
                value: k_rel,
                constraint: "must be finite and >= 1 (vacuum)",
            });
        }
        Ok(Self { k_rel })
    }

    /// Relative permittivity.
    pub(crate) fn k_rel(&self) -> f64 {
        self.k_rel
    }

    /// Absolute permittivity in F/m.
    pub fn permittivity_f_per_m(&self) -> f64 {
        self.k_rel * EPSILON_0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conductor_validation() {
        assert!(Conductor::new(0.0, 20.0).is_err());
        assert!(Conductor::new(1.9e-8, -1.0).is_err());
        assert!(Conductor::new(f64::INFINITY, 20.0).is_err());
        assert!(Conductor::new(1.9e-8, 20.0).is_ok());
    }

    #[test]
    fn size_effect_monotone_decreasing_in_width() {
        let cu = Conductor::new(1.9e-8, 20.0).unwrap();
        let mut last = f64::INFINITY;
        for w in [10.0, 20.0, 50.0, 100.0, 1000.0] {
            let r = cu.resistivity_at_width(w);
            assert!(r < last, "rho must fall with width");
            last = r;
        }
        // Asymptote is bulk.
        assert!((cu.resistivity_at_width(1e9) / 1.9e-8 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn n10_class_resistivity_magnitude() {
        // At ~24nm the effective rho should be roughly 2-4x bulk for a
        // k_size around 20-40nm — the range reported for damascene Cu.
        let cu = Conductor::new(1.9e-8, 30.0).unwrap();
        let rho = cu.resistivity_at_width(24.0);
        assert!(rho > 3.5e-8 && rho < 6e-8, "rho {rho}");
    }

    #[test]
    fn dielectric_validation() {
        assert!(Dielectric::new(0.9).is_err());
        assert!(Dielectric::new(f64::NAN).is_err());
        assert!(Dielectric::new(1.0).is_ok());
        assert!(Dielectric::new(3.9).is_ok());
    }

    #[test]
    fn permittivity_scaling() {
        let d = Dielectric::new(2.0).unwrap();
        assert!((d.permittivity_f_per_m() - 2.0 * EPSILON_0).abs() < 1e-24);
    }
}
