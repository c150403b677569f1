//! The paper's analysis layer: worst-case variability, the analytical
//! read-time formula, and Monte-Carlo `tdp` distributions.
//!
//! This crate reproduces the three contributions of *"Impact of
//! Interconnect Multiple-Patterning Variability on SRAMs"* (Karageorgos
//! et al., DATE 2015) on top of the `mpvar` substrates:
//!
//! * [`worst_case`] — §II: enumerate CD/overlay corner combinations per
//!   patterning option, find the corner maximizing the bit-line
//!   capacitance (Table I), and simulate the read-time penalty across
//!   array sizes (Fig. 4);
//! * [`formula`] — §III.A: the lumped-RC analytical `td` model (eqs.
//!   1–5) parameterized by per-cell parasitics and the array size;
//! * [`elmore`] — the distributed (Elmore) refinement the paper names as
//!   the better approximation of the bit line;
//! * [`montecarlo`] — §III.B: the Monte-Carlo `tdp` distribution from
//!   sampled process variation (Fig. 5, Table IV);
//! * [`rareevent`] — the 6σ extension: adaptive importance-sampled
//!   read-failure probabilities per option and timing margin, far past
//!   the reach of the plain Monte-Carlo;
//! * [`experiments`] — typed runners regenerating every table and
//!   figure, consumed by the `repro` binary and the benches.
//!
//! # Example
//!
//! ```
//! use mpvar_core::formula::AnalyticalModel;
//! use mpvar_sram::{BitcellGeometry, FormulaParams};
//! use mpvar_tech::preset::n10;
//!
//! let tech = n10();
//! let cell = BitcellGeometry::n10_hd(&tech)?;
//! let params = FormulaParams::derive(&tech, &cell, 0.7)?;
//! let model = AnalyticalModel::new(params, 0.10)?; // 10% discharge level
//! let td64 = model.td_s(64, 1.0, 1.0);
//! let tdp = model.tdp_percent(64, 0.9, 1.5); // R -10%, C +50%
//! assert!(td64 > 0.0);
//! assert!(tdp > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod elmore;
pub mod error;
pub mod experiments;
pub mod formula;
pub mod montecarlo;
pub mod nominal;
pub mod rareevent;
pub mod report;
pub mod sensitivity;
pub mod worst_case;
pub mod writeexp;

pub use elmore::ElmoreModel;
pub use error::CoreError;
pub use experiments::{ExperimentContext, ExperimentContextBuilder};
pub use formula::AnalyticalModel;
pub use montecarlo::{
    tdp_distribution, tdp_distribution_with, McConfig, McConfigBuilder, TdpDistribution,
};
pub use mpvar_exec::try_par_map_range;
pub use mpvar_exec::ExecConfig;
pub use nominal::NominalWindow;
pub use rareevent::{yield_6sigma, FormulaYieldProblem, YieldRow, YieldSettings, YieldTable, ZMap};
pub use sensitivity::{sensitivity_profile, SensitivityProfile};
pub use worst_case::{find_worst_case_with, WorstCase};
pub use writeexp::{
    sense_margin, wl_delay, write_margin, write_time, write_yield, SenseMargin, WlDelay,
    WriteMargin, WriteStudySettings, WriteTime, WriteYieldRow, WriteYieldTable,
};

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::elmore::ElmoreModel;
    pub use crate::error::CoreError;
    pub use crate::experiments;
    pub use crate::experiments::{ExperimentContext, ExperimentContextBuilder};
    pub use crate::formula::AnalyticalModel;
    pub use crate::montecarlo::{
        tdp_distribution, tdp_distribution_with, McConfig, McConfigBuilder, TdpDistribution,
    };
    pub use crate::nominal::NominalWindow;
    pub use crate::rareevent::{
        yield_6sigma, FormulaYieldProblem, YieldRow, YieldSettings, YieldTable, ZMap,
    };
    pub use crate::sensitivity::{sensitivity_profile, SensitivityProfile};
    pub use crate::worst_case::{find_worst_case_with, WorstCase};
    pub use crate::writeexp::{
        sense_margin, wl_delay, write_margin, write_time, write_yield, SenseMargin, WlDelay,
        WriteMargin, WriteStudySettings, WriteTime, WriteYieldRow, WriteYieldTable,
    };
    pub use mpvar_exec::ExecConfig;
}
