//! Technology description for the `mpvar` workspace.
//!
//! The paper's parameterized LPE tool takes "technology parameters (layer
//! thickness, tapering angles, material properties, etch and CMP
//! parameters) and MP-related layer operations (CD, overlay and spacer
//! thickness variation)" as input (§II.A). This crate is that input:
//!
//! * [`material`] — conductor (Cu with size effects) and dielectric models;
//! * [`metal`] — per-metal-layer geometry: pitch, width, thickness,
//!   sidewall taper, surrounding dielectric heights;
//! * [`transistor`] — alpha-power-law compact-model parameters for the
//!   N10-class FETs used by the SPICE testbench;
//! * [`variation`] — the paper's process-variation budgets (3σ CD,
//!   overlay, spacer) per patterning option;
//! * [`preset`] — the calibrated `n10` technology used by every
//!   experiment;
//! * [`io`] — a human-readable `.tech` text format with full round-trip.
//!
//! # Example
//!
//! ```
//! use mpvar_tech::preset::n10;
//!
//! let tech = n10();
//! let m1 = tech.metal(1).expect("N10 defines metal1");
//! assert_eq!(m1.pitch().0, 48);
//! assert!(tech.nmos().vth_v() > 0.0);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod io;
pub mod material;
pub mod metal;
pub mod preset;
pub mod transistor;
pub mod variation;

pub use error::TechError;
pub use material::{Conductor, Dielectric};
pub use metal::MetalSpec;
pub use transistor::TransistorParams;
pub use variation::{PatterningOption, VariationBudget};

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// A complete technology description.
///
/// Holds the metal stack, FET compact-model parameters, and per-option
/// variation budgets. Constructed either programmatically, from the
/// [`preset::n10`] preset, or parsed from `.tech` text via
/// [`io::from_text`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TechDb {
    name: String,
    metals: BTreeMap<u8, MetalSpec>,
    nmos: TransistorParams,
    pmos: TransistorParams,
    budgets: BTreeMap<PatterningOption, VariationBudget>,
}

impl TechDb {
    /// Creates a technology with the given name and transistor models and
    /// no metal layers yet.
    pub fn new(name: impl Into<String>, nmos: TransistorParams, pmos: TransistorParams) -> Self {
        Self {
            name: name.into(),
            metals: BTreeMap::new(),
            nmos,
            pmos,
            budgets: BTreeMap::new(),
        }
    }

    /// Technology name (e.g. `"n10"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds (or replaces) a metal layer spec.
    pub(crate) fn add_metal(&mut self, spec: MetalSpec) {
        self.metals.insert(spec.level(), spec);
    }

    /// Looks up metal level `n` (1-based).
    pub fn metal(&self, level: u8) -> Option<&MetalSpec> {
        self.metals.get(&level)
    }

    /// Iterates metal specs in increasing level order.
    pub(crate) fn metals(&self) -> impl Iterator<Item = &MetalSpec> {
        self.metals.values()
    }

    /// NMOS compact-model parameters.
    pub fn nmos(&self) -> &TransistorParams {
        &self.nmos
    }

    /// PMOS compact-model parameters.
    pub fn pmos(&self) -> &TransistorParams {
        &self.pmos
    }

    /// Sets the variation budget for a patterning option.
    pub(crate) fn set_budget(&mut self, option: PatterningOption, budget: VariationBudget) {
        self.budgets.insert(option, budget);
    }

    /// The variation budget for `option`, if configured.
    pub fn budget(&self, option: PatterningOption) -> Option<&VariationBudget> {
        self.budgets.get(&option)
    }

    /// Iterates configured `(option, budget)` pairs in option order.
    pub fn budgets(&self) -> impl Iterator<Item = (PatterningOption, &VariationBudget)> {
        self.budgets.iter().map(|(k, v)| (*k, v))
    }
}
