//! Per-metal-layer geometry and material specification.

use mpvar_geometry::Nm;
use serde::{Deserialize, Serialize};

use crate::error::{non_negative, positive, TechError};
use crate::material::{Conductor, Dielectric};

/// Geometry and materials of one metal routing layer.
///
/// The extraction model derives wire resistance from the trapezoidal
/// cross-section (thickness, sidewall taper, etch bias) and capacitance
/// from the dielectric environment (plate distances below/above, relative
/// permittivity).
///
/// Built with [`MetalSpecBuilder`]; all dimensions that variation acts on
/// are stored in nm.
///
/// # Example
///
/// ```
/// use mpvar_geometry::Nm;
/// use mpvar_tech::{Conductor, Dielectric, MetalSpec};
///
/// let m1 = MetalSpec::builder(1)
///     .pitch(Nm(48))
///     .min_width(Nm(24))
///     .thickness_nm(42.0)
///     .taper_deg(4.0)
///     .dielectric_below_nm(40.0)
///     .dielectric_above_nm(40.0)
///     .conductor(Conductor::new(1.9e-8, 30.0)?)
///     .dielectric(Dielectric::new(2.9)?)
///     .build()?;
/// assert_eq!(m1.pitch() - m1.min_width(), Nm(24));
/// # Ok::<(), mpvar_tech::TechError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetalSpec {
    level: u8,
    pitch: Nm,
    min_width: Nm,
    thickness_nm: f64,
    taper_deg: f64,
    etch_bias_nm: f64,
    cmp_dishing_nm: f64,
    dielectric_below_nm: f64,
    dielectric_above_nm: f64,
    conductor: Conductor,
    dielectric: Dielectric,
}

impl MetalSpec {
    /// Starts a builder for metal level `level` (1-based).
    pub fn builder(level: u8) -> MetalSpecBuilder {
        MetalSpecBuilder::new(level)
    }

    /// Metal level (1 = metal1).
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Track pitch (centerline to centerline).
    pub fn pitch(&self) -> Nm {
        self.pitch
    }

    /// Minimum drawn linewidth.
    pub fn min_width(&self) -> Nm {
        self.min_width
    }

    /// Metal thickness in nm.
    pub fn thickness_nm(&self) -> f64 {
        self.thickness_nm
    }

    /// Sidewall taper from vertical, in degrees. A positive taper makes
    /// the wire top wider than its bottom (damascene trench profile).
    pub fn taper_deg(&self) -> f64 {
        self.taper_deg
    }

    /// Systematic etch bias applied to drawn width, in nm (positive =
    /// printed wider than drawn).
    pub fn etch_bias_nm(&self) -> f64 {
        self.etch_bias_nm
    }

    /// CMP dishing: systematic thickness loss on wide features, in nm.
    pub fn cmp_dishing_nm(&self) -> f64 {
        self.cmp_dishing_nm
    }

    /// Dielectric height to the conducting plane below, in nm.
    pub fn dielectric_below_nm(&self) -> f64 {
        self.dielectric_below_nm
    }

    /// Dielectric height to the conducting plane above, in nm.
    pub fn dielectric_above_nm(&self) -> f64 {
        self.dielectric_above_nm
    }

    /// Conductor material.
    pub fn conductor(&self) -> Conductor {
        self.conductor
    }

    /// Surrounding dielectric.
    pub fn dielectric(&self) -> Dielectric {
        self.dielectric
    }

    /// Effective metal thickness after CMP dishing, in nm.
    pub fn effective_thickness_nm(&self) -> f64 {
        (self.thickness_nm - self.cmp_dishing_nm).max(1.0)
    }
}

/// Builder for [`MetalSpec`].
#[derive(Debug, Clone)]
pub struct MetalSpecBuilder {
    level: u8,
    pitch: Nm,
    min_width: Nm,
    thickness_nm: f64,
    taper_deg: f64,
    etch_bias_nm: f64,
    cmp_dishing_nm: f64,
    dielectric_below_nm: f64,
    dielectric_above_nm: f64,
    conductor: Option<Conductor>,
    dielectric: Option<Dielectric>,
}

impl MetalSpecBuilder {
    fn new(level: u8) -> Self {
        Self {
            level,
            pitch: Nm(0),
            min_width: Nm(0),
            thickness_nm: 0.0,
            taper_deg: 0.0,
            etch_bias_nm: 0.0,
            cmp_dishing_nm: 0.0,
            dielectric_below_nm: 0.0,
            dielectric_above_nm: 0.0,
            conductor: None,
            dielectric: None,
        }
    }

    /// Sets the track pitch.
    #[must_use]
    pub fn pitch(mut self, pitch: Nm) -> Self {
        self.pitch = pitch;
        self
    }

    /// Sets the minimum linewidth.
    #[must_use]
    pub fn min_width(mut self, min_width: Nm) -> Self {
        self.min_width = min_width;
        self
    }

    /// Sets the metal thickness in nm.
    #[must_use]
    pub fn thickness_nm(mut self, t: f64) -> Self {
        self.thickness_nm = t;
        self
    }

    /// Sets the sidewall taper in degrees from vertical.
    #[must_use]
    pub fn taper_deg(mut self, deg: f64) -> Self {
        self.taper_deg = deg;
        self
    }

    /// Sets the systematic etch bias in nm.
    #[must_use]
    pub fn etch_bias_nm(mut self, b: f64) -> Self {
        self.etch_bias_nm = b;
        self
    }

    /// Sets CMP dishing in nm.
    #[must_use]
    pub fn cmp_dishing_nm(mut self, d: f64) -> Self {
        self.cmp_dishing_nm = d;
        self
    }

    /// Sets the dielectric height below, in nm.
    #[must_use]
    pub fn dielectric_below_nm(mut self, h: f64) -> Self {
        self.dielectric_below_nm = h;
        self
    }

    /// Sets the dielectric height above, in nm.
    #[must_use]
    pub fn dielectric_above_nm(mut self, h: f64) -> Self {
        self.dielectric_above_nm = h;
        self
    }

    /// Sets the conductor material.
    #[must_use]
    pub fn conductor(mut self, c: Conductor) -> Self {
        self.conductor = Some(c);
        self
    }

    /// Sets the dielectric material.
    #[must_use]
    pub fn dielectric(mut self, d: Dielectric) -> Self {
        self.dielectric = Some(d);
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    ///
    /// [`TechError::InvalidParameter`] for non-positive pitch/width/
    /// thickness/dielectric heights, a taper outside `[-45, 45]` degrees,
    /// a width at or above pitch, or a missing material; negative etch
    /// bias is allowed, negative dishing is not.
    pub fn build(self) -> Result<MetalSpec, TechError> {
        if self.pitch <= Nm(0) {
            return Err(TechError::InvalidParameter {
                name: "pitch",
                value: self.pitch.0 as f64,
                constraint: "must be positive",
            });
        }
        if self.min_width <= Nm(0) || self.min_width >= self.pitch {
            return Err(TechError::InvalidParameter {
                name: "min_width",
                value: self.min_width.0 as f64,
                constraint: "must be positive and below the pitch",
            });
        }
        positive("thickness_nm", self.thickness_nm)?;
        if !self.taper_deg.is_finite() || self.taper_deg.abs() > 45.0 {
            return Err(TechError::InvalidParameter {
                name: "taper_deg",
                value: self.taper_deg,
                constraint: "must be within [-45, 45] degrees",
            });
        }
        if !self.etch_bias_nm.is_finite() {
            return Err(TechError::InvalidParameter {
                name: "etch_bias_nm",
                value: self.etch_bias_nm,
                constraint: "must be finite",
            });
        }
        non_negative("cmp_dishing_nm", self.cmp_dishing_nm)?;
        positive("dielectric_below_nm", self.dielectric_below_nm)?;
        positive("dielectric_above_nm", self.dielectric_above_nm)?;
        let conductor = self.conductor.ok_or(TechError::MissingField {
            field: format!("metal{}.conductor", self.level),
        })?;
        let dielectric = self.dielectric.ok_or(TechError::MissingField {
            field: format!("metal{}.dielectric", self.level),
        })?;
        Ok(MetalSpec {
            level: self.level,
            pitch: self.pitch,
            min_width: self.min_width,
            thickness_nm: self.thickness_nm,
            taper_deg: self.taper_deg,
            etch_bias_nm: self.etch_bias_nm,
            cmp_dishing_nm: self.cmp_dishing_nm,
            dielectric_below_nm: self.dielectric_below_nm,
            dielectric_above_nm: self.dielectric_above_nm,
            conductor,
            dielectric,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_builder() -> MetalSpecBuilder {
        MetalSpec::builder(1)
            .pitch(Nm(48))
            .min_width(Nm(24))
            .thickness_nm(42.0)
            .taper_deg(4.0)
            .dielectric_below_nm(40.0)
            .dielectric_above_nm(40.0)
            .conductor(Conductor::new(1.9e-8, 30.0).unwrap())
            .dielectric(Dielectric::new(2.9).unwrap())
    }

    #[test]
    fn builds_valid_spec() {
        let m = base_builder().build().unwrap();
        assert_eq!(m.level(), 1);
        assert_eq!(m.pitch() - m.min_width(), Nm(24));
        assert_eq!(m.effective_thickness_nm(), 42.0);
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(base_builder().pitch(Nm(0)).build().is_err());
        assert!(base_builder().min_width(Nm(0)).build().is_err());
        assert!(base_builder().min_width(Nm(48)).build().is_err());
        assert!(base_builder().thickness_nm(0.0).build().is_err());
        assert!(base_builder().taper_deg(60.0).build().is_err());
        assert!(base_builder().dielectric_below_nm(-1.0).build().is_err());
        assert!(base_builder().cmp_dishing_nm(-0.5).build().is_err());
    }

    #[test]
    fn negative_etch_bias_allowed() {
        assert!(base_builder().etch_bias_nm(-1.5).build().is_ok());
        assert!(base_builder().etch_bias_nm(f64::NAN).build().is_err());
    }

    #[test]
    fn missing_materials_rejected() {
        let b = MetalSpec::builder(1)
            .pitch(Nm(48))
            .min_width(Nm(24))
            .thickness_nm(42.0)
            .dielectric_below_nm(40.0)
            .dielectric_above_nm(40.0);
        assert!(matches!(
            b.clone().dielectric(Dielectric::new(2.9).unwrap()).build(),
            Err(TechError::MissingField { .. })
        ));
        assert!(matches!(
            b.conductor(Conductor::new(1.9e-8, 30.0).unwrap()).build(),
            Err(TechError::MissingField { .. })
        ));
    }

    #[test]
    fn dishing_reduces_effective_thickness() {
        let m = base_builder().cmp_dishing_nm(5.0).build().unwrap();
        assert_eq!(m.effective_thickness_nm(), 37.0);
    }
}
