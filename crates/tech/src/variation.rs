//! Process-variation budgets per patterning option.
//!
//! Encodes the paper's §II.A assumptions verbatim:
//!
//! * 3σ CD variation of 3nm for LE3, the SADP core layer, and EUV;
//! * 3σ SADP spacer variation of 1.5nm;
//! * 3nm–8nm range of 3σ overlay error for LE3;
//! * metal1 masks B and C are aligned to mask A for LE3 (so the two
//!   overlay errors are independent, both referenced to A);
//! * spacer-defined bit lines for SADP.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::{non_negative, TechError};

/// The patterning options compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PatterningOption {
    /// Triple litho-etch (LELELE): three masks with CD + overlay errors.
    Le3,
    /// Self-aligned double patterning: mandrel CD + spacer thickness errors.
    Sadp,
    /// Single-patterning extreme-UV: one mask, CD error only.
    Euv,
    /// Double litho-etch (LELE): two masks — the 32nm-node option the
    /// paper's introduction references; an `mpvar` extension beyond the
    /// paper's three-way comparison.
    Le2,
}

impl PatterningOption {
    /// The paper's three options, in its comparison order.
    pub const ALL: [PatterningOption; 3] = [
        PatterningOption::Le3,
        PatterningOption::Sadp,
        PatterningOption::Euv,
    ];

    /// All implemented options including extensions beyond the paper.
    pub const ALL_WITH_EXTENSIONS: [PatterningOption; 4] = [
        PatterningOption::Le3,
        PatterningOption::Sadp,
        PatterningOption::Euv,
        PatterningOption::Le2,
    ];

    /// The paper's label for the option (LELELE / SADP / EUV).
    pub fn paper_label(&self) -> &'static str {
        match self {
            PatterningOption::Le3 => "LELELE",
            PatterningOption::Sadp => "SADP",
            PatterningOption::Euv => "EUV",
            PatterningOption::Le2 => "LELE",
        }
    }

    /// Parses the lowercase text name used by [`fmt::Display`].
    ///
    /// # Errors
    ///
    /// [`TechError::UnknownOption`] for an unrecognized name.
    pub fn parse_name(name: &str) -> Result<Self, TechError> {
        match name {
            "le3" | "lelele" | "LELELE" => Ok(PatterningOption::Le3),
            "le2" | "lele" | "LELE" => Ok(PatterningOption::Le2),
            "sadp" | "SADP" => Ok(PatterningOption::Sadp),
            "euv" | "EUV" => Ok(PatterningOption::Euv),
            other => Err(TechError::UnknownOption {
                name: other.to_string(),
            }),
        }
    }
}

impl fmt::Display for PatterningOption {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatterningOption::Le3 => write!(f, "le3"),
            PatterningOption::Sadp => write!(f, "sadp"),
            PatterningOption::Euv => write!(f, "euv"),
            PatterningOption::Le2 => write!(f, "le2"),
        }
    }
}

/// 3σ variation budget for one patterning option.
///
/// Fields not applicable to an option are zero (e.g. overlay for EUV
/// single patterning, spacer for LE3).
///
/// # Example
///
/// ```
/// use mpvar_tech::VariationBudget;
///
/// // The paper's LE3 worst case: 3nm CD, 8nm overlay.
/// let le3 = VariationBudget::new(3.0, 8.0, 0.0)?;
/// assert_eq!(le3.cd_three_sigma_nm(), 3.0);
/// # Ok::<(), mpvar_tech::TechError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationBudget {
    cd_three_sigma_nm: f64,
    overlay_three_sigma_nm: f64,
    spacer_three_sigma_nm: f64,
}

impl VariationBudget {
    /// Creates a budget from 3σ values in nm.
    ///
    /// # Errors
    ///
    /// [`TechError::InvalidParameter`] for negative or non-finite values.
    pub fn new(
        cd_three_sigma_nm: f64,
        overlay_three_sigma_nm: f64,
        spacer_three_sigma_nm: f64,
    ) -> Result<Self, TechError> {
        Ok(Self {
            cd_three_sigma_nm: non_negative("cd_three_sigma_nm", cd_three_sigma_nm)?,
            overlay_three_sigma_nm: non_negative("overlay_three_sigma_nm", overlay_three_sigma_nm)?,
            spacer_three_sigma_nm: non_negative("spacer_three_sigma_nm", spacer_three_sigma_nm)?,
        })
    }

    /// 3σ CD variation, nm.
    pub fn cd_three_sigma_nm(&self) -> f64 {
        self.cd_three_sigma_nm
    }

    /// 3σ overlay error, nm.
    pub fn overlay_three_sigma_nm(&self) -> f64 {
        self.overlay_three_sigma_nm
    }

    /// 3σ spacer-thickness variation, nm.
    pub fn spacer_three_sigma_nm(&self) -> f64 {
        self.spacer_three_sigma_nm
    }

    /// The paper's default budget for `option` at the given LE3 overlay
    /// (use 8.0 for the extreme worst case of §II.B).
    ///
    /// # Errors
    ///
    /// [`TechError::InvalidParameter`] for a bad overlay value.
    pub fn paper_default(
        option: PatterningOption,
        le3_overlay_three_sigma_nm: f64,
    ) -> Result<Self, TechError> {
        match option {
            PatterningOption::Le3 | PatterningOption::Le2 => {
                Self::new(3.0, le3_overlay_three_sigma_nm, 0.0)
            }
            PatterningOption::Sadp => Self::new(3.0, 0.0, 1.5),
            PatterningOption::Euv => Self::new(3.0, 0.0, 0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_labels_and_parse() {
        for o in PatterningOption::ALL {
            assert_eq!(PatterningOption::parse_name(&o.to_string()).unwrap(), o);
        }
        assert_eq!(
            PatterningOption::parse_name("LELELE").unwrap(),
            PatterningOption::Le3
        );
        assert!(PatterningOption::parse_name("quad").is_err());
        assert_eq!(PatterningOption::Le3.paper_label(), "LELELE");
    }

    #[test]
    fn budget_validation() {
        assert!(VariationBudget::new(-1.0, 0.0, 0.0).is_err());
        assert!(VariationBudget::new(3.0, f64::NAN, 0.0).is_err());
        assert!(VariationBudget::new(0.0, 0.0, 0.0).is_ok());
    }

    #[test]
    fn paper_defaults_match_section_2a() {
        let le3 = VariationBudget::paper_default(PatterningOption::Le3, 8.0).unwrap();
        assert_eq!(le3.cd_three_sigma_nm(), 3.0);
        assert_eq!(le3.overlay_three_sigma_nm(), 8.0);
        assert_eq!(le3.spacer_three_sigma_nm(), 0.0);

        let sadp = VariationBudget::paper_default(PatterningOption::Sadp, 8.0).unwrap();
        assert_eq!(sadp.spacer_three_sigma_nm(), 1.5);
        assert_eq!(sadp.overlay_three_sigma_nm(), 0.0);

        let euv = VariationBudget::paper_default(PatterningOption::Euv, 8.0).unwrap();
        assert_eq!(euv.cd_three_sigma_nm(), 3.0);
        assert_eq!(euv.overlay_three_sigma_nm(), 0.0);
        assert_eq!(euv.spacer_three_sigma_nm(), 0.0);
    }
}
