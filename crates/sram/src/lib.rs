//! 6T SRAM cell, array generator, and the bit-line read and write
//! testbenches.
//!
//! Reproduces the paper's device under test (§II): a high-density 6T
//! SRAM array on the N10 node with unidirectional horizontal metal1 at
//! minimum pitch carrying the bit lines and power rails. The module
//! split mirrors the experimental flow:
//!
//! * [`cell`] — bitcell geometry (the `[VSS, BL, VDD, BLB]` metal1 track
//!   stack, cell pitch along the bit line) and device sizing;
//! * [`mod@array`] — drawn track stacks for `n`-cell columns inside a
//!   10-bit-pair array, plus a hierarchical layout (TGDS-exportable)
//!   for the geometry pipeline;
//! * `readout` — the SPICE read testbench: precharged distributed-RC
//!   bit lines, the accessed cell's pass-gate + pull-down discharge
//!   path at the far end, a word-line pulse, and the sense criterion
//!   `|V_bl − V_blb| ≥ 70mV`; returns the paper's figure of merit `td`;
//! * `writepath` — the write testbench on the same column: a WL-gated
//!   near-end driver flipping a far-end latch, timed to the flip;
//! * `column` (private) — the column both testbenches share, with the
//!   one scalar window-retry loop and the one batched driver;
//! * [`params`] — lumped electrical parameters (`R_bl`, `C_bl`, `R_FE`,
//!   `C_FE`, `C_pre(n)`) derived from tech + extraction, feeding the
//!   analytical formula in `mpvar-core`.
//!
//! # Example
//!
//! ```no_run
//! use mpvar_sram::prelude::*;
//! use mpvar_litho::Draw;
//! use mpvar_tech::{preset::n10, PatterningOption};
//!
//! let tech = n10();
//! let cell = BitcellGeometry::n10_hd(&tech)?;
//! let outcome = simulate_read(
//!     &tech,
//!     &cell,
//!     &ReadConfig::default(),
//!     16,
//!     &Draw::nominal(PatterningOption::Euv),
//! )?;
//! assert!(outcome.td_s > 0.0); // td in seconds; see ReadOutcome
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Each [`simulate_read`] call opens an `sram_read` span (and each
//! [`simulate_write`] an `sram_write` span) when an `mpvar-trace`
//! collector is installed, so simulations are attributable in run
//! telemetry (`repro all --trace run.jsonl`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod array;
pub mod cell;
mod column;
pub mod error;
pub mod params;
pub(crate) mod readout;
pub(crate) mod writepath;

pub use array::SramArray;
pub use cell::{BitcellGeometry, DeviceSizing};
pub use error::SramError;
pub use params::FormulaParams;
pub use readout::{
    simulate_read, simulate_read_batch_in, ReadBatchScratch, ReadConfig, ReadOutcome,
};
pub use writepath::{
    simulate_write, simulate_write_batch_in, WriteBatchScratch, WriteConfig, WriteOutcome,
};

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::array::SramArray;
    pub use crate::cell::{BitcellGeometry, DeviceSizing};
    pub use crate::error::SramError;
    pub use crate::params::FormulaParams;
    pub use crate::readout::{
        simulate_read, simulate_read_batch_in, ReadBatchScratch, ReadConfig, ReadOutcome,
    };
    pub use crate::writepath::{
        simulate_write, simulate_write_batch_in, WriteBatchScratch, WriteConfig, WriteOutcome,
    };
}
