//! Process-variation draws: one sampled (or corner) realization of the
//! variation parameters of a patterning option.

use mpvar_tech::PatterningOption;

use crate::error::LithoError;

/// One realization of LE3 variation.
///
/// `cd_nm[m]` is mask `m`'s CD error (added to every linewidth on that
/// mask); `overlay_nm[m]` is the mask's vertical overlay shift. Mask A is
/// the alignment reference, so `overlay_nm[0]` is 0 in paper-conform
/// draws (the type does not force it, enabling sensitivity studies).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Le3Draw {
    /// CD error per mask (A, B, C), nm.
    pub cd_nm: [f64; 3],
    /// Overlay shift per mask (A, B, C), nm; positive = shifted up.
    pub overlay_nm: [f64; 3],
}

/// One realization of SADP variation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SadpDraw {
    /// Core (mandrel) mask CD error, nm.
    pub core_cd_nm: f64,
    /// Spacer thickness error, nm (deposition-controlled, common to all
    /// spacers on the wafer).
    pub spacer_nm: f64,
}

/// One realization of LELE (double litho-etch) variation — an `mpvar`
/// extension beyond the paper's options.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Le2Draw {
    /// CD error per mask (A, B), nm.
    pub cd_nm: [f64; 2],
    /// Overlay shift of mask B relative to A, nm; positive = up.
    pub overlay_nm: f64,
}

/// One realization of single-patterning EUV variation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EuvDraw {
    /// Mask CD error, nm (common to all lines on the single mask).
    pub cd_nm: f64,
}

/// A variation draw for any patterning option.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Draw {
    /// LE3 realization.
    Le3(Le3Draw),
    /// SADP realization.
    Sadp(SadpDraw),
    /// EUV realization.
    Euv(EuvDraw),
    /// LELE realization (extension).
    Le2(Le2Draw),
}

impl Draw {
    /// The patterning option this draw belongs to.
    pub fn option(&self) -> PatterningOption {
        match self {
            Draw::Le3(_) => PatterningOption::Le3,
            Draw::Sadp(_) => PatterningOption::Sadp,
            Draw::Euv(_) => PatterningOption::Euv,
            Draw::Le2(_) => PatterningOption::Le2,
        }
    }

    /// The nominal (all-zero) draw for `option`.
    pub fn nominal(option: PatterningOption) -> Draw {
        match option {
            PatterningOption::Le3 => Draw::Le3(Le3Draw::default()),
            PatterningOption::Sadp => Draw::Sadp(SadpDraw::default()),
            PatterningOption::Euv => Draw::Euv(EuvDraw::default()),
            PatterningOption::Le2 => Draw::Le2(Le2Draw::default()),
        }
    }

    /// All scalar parameters of the draw, for diagnostics and tests.
    pub fn parameters(&self) -> Vec<(&'static str, f64)> {
        match self {
            Draw::Le3(d) => vec![
                ("cd_a", d.cd_nm[0]),
                ("cd_b", d.cd_nm[1]),
                ("cd_c", d.cd_nm[2]),
                ("ol_a", d.overlay_nm[0]),
                ("ol_b", d.overlay_nm[1]),
                ("ol_c", d.overlay_nm[2]),
            ],
            Draw::Sadp(d) => vec![("cd_core", d.core_cd_nm), ("spacer", d.spacer_nm)],
            Draw::Euv(d) => vec![("cd", d.cd_nm)],
            Draw::Le2(d) => vec![
                ("cd_a", d.cd_nm[0]),
                ("cd_b", d.cd_nm[1]),
                ("ol_b", d.overlay_nm),
            ],
        }
    }

    /// Sets one named parameter (names as returned by
    /// [`Draw::parameters`]), returning whether the name matched. Used
    /// by sensitivity sweeps that perturb one axis at a time.
    pub fn set_parameter(&mut self, name: &str, value: f64) -> bool {
        match self {
            Draw::Le3(d) => match name {
                "cd_a" => d.cd_nm[0] = value,
                "cd_b" => d.cd_nm[1] = value,
                "cd_c" => d.cd_nm[2] = value,
                "ol_a" => d.overlay_nm[0] = value,
                "ol_b" => d.overlay_nm[1] = value,
                "ol_c" => d.overlay_nm[2] = value,
                _ => return false,
            },
            Draw::Sadp(d) => match name {
                "cd_core" => d.core_cd_nm = value,
                "spacer" => d.spacer_nm = value,
                _ => return false,
            },
            Draw::Euv(d) => match name {
                "cd" => d.cd_nm = value,
                _ => return false,
            },
            Draw::Le2(d) => match name {
                "cd_a" => d.cd_nm[0] = value,
                "cd_b" => d.cd_nm[1] = value,
                "ol_b" => d.overlay_nm = value,
                _ => return false,
            },
        }
        true
    }

    /// Validates that every parameter is finite.
    ///
    /// # Errors
    ///
    /// [`LithoError::NonFiniteDraw`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), LithoError> {
        let finite = match self {
            Draw::Le3(d) => d.cd_nm.iter().chain(&d.overlay_nm).all(|v| v.is_finite()),
            Draw::Sadp(d) => d.core_cd_nm.is_finite() && d.spacer_nm.is_finite(),
            Draw::Euv(d) => d.cd_nm.is_finite(),
            Draw::Le2(d) => d.cd_nm.iter().all(|v| v.is_finite()) && d.overlay_nm.is_finite(),
        };
        if finite {
            return Ok(());
        }
        // Error path only: name the first non-finite parameter.
        match self.parameters().into_iter().find(|(_, v)| !v.is_finite()) {
            Some((name, value)) => Err(LithoError::NonFiniteDraw { name, value }),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_draws_are_zero() {
        for option in PatterningOption::ALL_WITH_EXTENSIONS {
            let d = Draw::nominal(option);
            assert_eq!(d.option(), option);
            assert!(d.parameters().iter().all(|&(_, v)| v == 0.0));
            assert!(d.validate().is_ok());
        }
    }

    #[test]
    fn parameter_names_unique() {
        for option in PatterningOption::ALL_WITH_EXTENSIONS {
            let params = Draw::nominal(option).parameters();
            let mut names: Vec<&str> = params.iter().map(|&(n, _)| n).collect();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), params.len());
        }
    }

    #[test]
    fn set_parameter_roundtrips_every_name() {
        for option in PatterningOption::ALL_WITH_EXTENSIONS {
            let mut d = Draw::nominal(option);
            for (name, _) in Draw::nominal(option).parameters() {
                assert!(d.set_parameter(name, 1.25), "{option}: {name}");
            }
            for (name, v) in d.parameters() {
                assert_eq!(v, 1.25, "{option}: {name}");
            }
            assert!(!d.set_parameter("bogus", 1.0));
        }
    }

    #[test]
    fn validate_catches_nan() {
        let d = Draw::Le3(Le3Draw {
            cd_nm: [0.0, f64::NAN, 0.0],
            overlay_nm: [0.0; 3],
        });
        assert!(matches!(
            d.validate(),
            Err(LithoError::NonFiniteDraw { name: "cd_b", .. })
        ));
        let d = Draw::Sadp(SadpDraw {
            core_cd_nm: 0.0,
            spacer_nm: f64::INFINITY,
        });
        assert!(d.validate().is_err());
    }
}
