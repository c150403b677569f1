//! Parasitic extraction: the paper's "parameterized LPE tool".
//!
//! Maps printed wire geometry ([`PerturbedStack`](mpvar_litho::PerturbedStack))
//! plus technology data ([`MetalSpec`](mpvar_tech::MetalSpec)) to electrical
//! parasitics:
//!
//! * [`resistance`] — trapezoidal-cross-section wire resistance with
//!   width-dependent Cu resistivity (size effects);
//! * [`capacitance`] — per-unit-length ground (plate + fringe) and
//!   coupling (plate + fringe) capacitance, with neighbour shielding;
//! * [`wire`] — per-track parasitic rollup ([`WireParasitics`]) and
//!   relative-variation helpers (the `R_var`/`C_var` multipliers of the
//!   paper's eq. 4);
//! * [`deck`] — distributed-RC "LPE deck" emission: a π-segment ladder
//!   netlist per track with explicit coupling capacitors, ready for
//!   `mpvar-spice`.
//!
//! # Example
//!
//! ```
//! use mpvar_extract::extract_track;
//! use mpvar_litho::{apply_draw, Draw};
//! use mpvar_geometry::{Nm, Track, TrackStack};
//! use mpvar_tech::preset::n10;
//!
//! let tech = n10();
//! let m1 = tech.metal(1).expect("n10 has metal1");
//! let drawn = TrackStack::new(vec![
//!     Track::new("VSS", Nm(0),  Nm(24), Nm(0), Nm(1000))?,
//!     Track::new("BL",  Nm(48), Nm(26), Nm(0), Nm(1000))?,
//!     Track::new("VDD", Nm(96), Nm(24), Nm(0), Nm(1000))?,
//! ])?;
//! let printed = apply_draw(&drawn, &Draw::nominal(mpvar_tech::PatterningOption::Euv))?;
//! let bl = extract_track(&printed, 1, m1)?;
//! assert!(bl.resistance_ohm() > 0.0);
//! assert!(bl.coupling_fraction() > 0.3); // coupling dominates at min pitch
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod capacitance;
pub mod deck;
pub mod error;
pub mod resistance;
pub mod wire;

pub use capacitance::{coupling_cap_f_per_m, CapacitanceBreakdown};
pub use deck::{emit_rc_deck, RcDeck, RcDeckSpec};
pub use error::ExtractError;
pub use resistance::wire_resistance_ohm;
pub use wire::{extract_edges, extract_track, RelativeVariation, WireParasitics};
