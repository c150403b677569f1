//! Multiple-patterning lithography models: LE3, SADP, and EUV.
//!
//! This crate turns a *drawn* metal1 track stack (exact integer-nm
//! geometry from `mpvar-geometry`) plus a *process-variation draw* into
//! the *printed* geometry — `f64`-nm tracks whose widths, positions and
//! gaps reflect the patterning physics of each option (paper §II, Fig. 2):
//!
//! * **LE3 (LELELE)** — tracks are colored across three masks by
//!   `index mod 3`. Each mask carries one CD error (common to all its
//!   lines) and masks B/C carry overlay errors relative to A.
//! * **SADP** — alternate tracks are *mandrel-defined* (they get the core
//!   mask's CD error) and *spacer-defined* (their edges are set by
//!   spacers of thickness `nominal gap + spacer error` grown on the
//!   neighbouring mandrels). Gaps equal the spacer thickness exactly —
//!   the self-alignment that makes SADP variation-tolerant — and the
//!   spacer-defined width anti-correlates with both core CD and spacer
//!   thickness.
//! * **EUV** — a single mask; one CD error common to every line.
//!
//! [`PrintPlan`] prints one track under a whole batch of draws, eight
//! per pass, with the same arithmetic and checks as [`print_track`].
//!
//! [`corners`] enumerates worst-case ±3σ corner combinations (Table I);
//! [`sampling`] draws Gaussian Monte-Carlo samples (§III.B).
//!
//! # Example
//!
//! ```
//! use mpvar_geometry::{Nm, Track, TrackStack};
//! use mpvar_litho::{apply_draw, Draw, EuvDraw};
//!
//! let drawn = TrackStack::new(vec![
//!     Track::new("VSS", Nm(0),   Nm(24), Nm(0), Nm(1000))?,
//!     Track::new("BL",  Nm(48),  Nm(26), Nm(0), Nm(1000))?,
//!     Track::new("VDD", Nm(96),  Nm(24), Nm(0), Nm(1000))?,
//! ])?;
//! // EUV with every line printed 3nm wide of nominal.
//! let draw = Draw::Euv(EuvDraw { cd_nm: 3.0 });
//! let printed = apply_draw(&drawn, &draw)?;
//! assert!((printed.track(1).width_nm() - 29.0).abs() < 1e-9);
//! // All gaps shrank by the CD error.
//! assert!((printed.gap_below_nm(1).unwrap() - 20.0).abs() < 1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod apply;
pub mod corners;
pub(crate) mod decompose;
pub mod draw;
pub mod error;
pub mod ler;
pub mod perturbed;
pub(crate) mod plan;
pub mod sampling;

pub use apply::apply_draw;
pub use apply::print_track;
pub use corners::{corner_draws, CornerSpec};
pub use draw::{Draw, EuvDraw, Le2Draw, Le3Draw, SadpDraw};
pub use error::LithoError;
pub use ler::LerModel;
pub use perturbed::{PerturbedStack, PerturbedTrack, TrackEdges};
pub use plan::PrintPlan;
pub use sampling::{sample_draw, TRUNCATION_SIGMAS};
