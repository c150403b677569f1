//! A from-scratch SPICE-class circuit simulator for the `mpvar` workspace.
//!
//! The paper's SRAM read-time analysis is "based on SPICE-level
//! simulations of the SRAM cell array including the N10 transistor compact
//! models" (§II.A). This crate is that simulation engine, built without
//! external numerical dependencies:
//!
//! * [`netlist`] — circuit description: nodes, R/C elements, independent
//!   sources, MOSFETs;
//! * [`waveform`] — DC / PULSE / PWL source waveforms;
//! * [`mosfet`] — the Sakurai–Newton alpha-power-law compact model
//!   (saturation exponent `alpha`, channel-length modulation, smooth
//!   subthreshold turn-on for Newton robustness);
//! * [`sparse`] — the compiled sparse LU kernel (frozen CSR pattern, one
//!   symbolic analysis, numeric-only refactors), plus a dense reference
//!   solver for cross-checks;
//! * `mna` — modified nodal analysis assembly and the Newton–Raphson
//!   DC operating-point solver;
//! * [`transient`] — backward-Euler / trapezoidal transient analysis with
//!   per-step Newton iteration;
//! * [`measure`] — waveform measurements (threshold crossings,
//!   differential crossings — the sense-amp criterion `|Vbl - Vblb| >=
//!   70mV` is a differential crossing);
//! * [`parser`] — a SPICE-deck subset reader/writer, standing in for the
//!   "LPE deck" files the paper's tool generates;
//! * [`value`] — engineering-notation number parsing (`10f`, `4.7k`).
//!
//! # Example: RC discharge matches the analytic exponential
//!
//! ```
//! use mpvar_spice::prelude::*;
//!
//! let mut net = Netlist::new();
//! let n1 = net.node("n1");
//! net.add_resistor("R1", n1, Netlist::GROUND, 1_000.0)?;
//! net.add_capacitor("C1", n1, Netlist::GROUND, 1e-12)?;
//!
//! let mut tran = Transient::new(&net)?;
//! tran.set_initial_voltage(n1, 1.0);
//! let result = tran.run(1e-11, 5e-9)?;
//! let v_at_tau = result.sample(n1, 1e-9)?; // one RC constant
//! assert!((v_at_tau - (-1.0f64).exp()).abs() < 0.01);
//! # Ok::<(), mpvar_spice::SpiceError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod error;
pub mod measure;
pub(crate) mod mna;
pub mod mosfet;
pub mod netlist;
pub mod parser;
pub mod sparse;
pub mod transient;
pub mod value;
pub mod waveform;

pub use batch::{
    run_transient_batch_until, BatchLaneOutcome, BatchTransientResult, BatchTransientSpec,
    BatchedMnaWorkspace, LaneFalloutReason,
};
pub use error::SpiceError;
pub use measure::{
    cross_differential_series, cross_threshold, cross_threshold_series, CrossDirection,
};
pub use mosfet::{MosfetModel, SmallSignal};
pub use netlist::{Element, Netlist, NodeId};
pub use sparse::{CsrMatrix, DenseMatrix, LuWorkspace, SymbolicLu};
pub use transient::{Method, SolverKernel, Transient, TransientResult};
pub use waveform::Waveform;

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::batch::{
        BatchLaneOutcome, BatchTransientResult, BatchTransientSpec, BatchedMnaWorkspace,
        LaneFalloutReason,
    };
    pub use crate::error::SpiceError;
    pub use crate::measure::{
        cross_differential_series, cross_threshold, cross_threshold_series, CrossDirection,
    };
    pub use crate::mosfet::MosfetModel;
    pub use crate::netlist::{Element, Netlist, NodeId};
    pub use crate::transient::{Transient, TransientResult};
    pub use crate::waveform::Waveform;
}
