//! Paper-fidelity verification toolkit for the `mpvar` workspace.
//!
//! `EXPERIMENTS.md` claims that every table and figure of Karageorgos
//! et al. (DATE 2015) reproduces *in shape* — orderings, factors,
//! trends. This crate turns those claims into machine-checked
//! contracts, consumed by the `repro -- check` subcommand in
//! `mpvar-bench`:
//!
//! * [`csv`] — a tolerant reader for the committed `results/*.csv`
//!   goldens: quoted fields, unit suffixes (`%`, `ps`), interval cells
//!   (`[lo, hi]`), and column lookup by header name, so comparisons
//!   diff *values*, never bytes;
//! * [`compare`] — the golden comparison engine: per-column tolerance
//!   policies (exact text, numeric bands, ignore), key-joined rows so
//!   a reduced design of experiments still gates the rows it shares
//!   with the golden;
//! * [`invariants`] — the paper's shape claims as named predicates
//!   over the structured experiment outputs (LE3 ≫ SADP/EUV worst-case
//!   ΔC_bl, tdp growth with array height, Table IV overlay
//!   monotonicity, Fig. 5 skew/normality structure);
//! * [`oracle`] — differential oracles cross-validating the three
//!   independent delay paths (analytical formula of eqs. 1–5, Elmore
//!   RC, SPICE transient) on randomized small arrays with documented
//!   mutual-error bounds;
//! * [`write_oracle`] — the write-side mirror: the write-route formula
//!   against the scalar and batched SPICE write transients, including
//!   the batch-vs-scalar bit-identity and thread-invariance contracts.
//!
//! Everything here is deterministic: the oracles and invariants are
//! seed-stable and thread-count invariant, so two `check` runs on the
//! same tree render byte-identical reports.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod csv;
pub mod invariants;
pub mod oracle;
pub mod report;
pub mod write_oracle;

pub use compare::{compare_tables, ColumnSpec, Policy, TableSpec};
pub use csv::CsvTable;
pub use oracle::{run_delay_oracles, OracleConfig, OracleReport};
pub use report::{CheckItem, CheckReport};
pub use write_oracle::{run_write_oracles, WriteOracleConfig, WriteOracleReport};

/// Errors surfaced by the verification toolkit.
#[derive(Debug, Clone, PartialEq)]
pub enum TestkitError {
    /// A golden CSV file could not be parsed.
    Csv {
        /// What was malformed.
        message: String,
    },
    /// An underlying analysis (experiment, extraction, simulation)
    /// failed while the toolkit was re-deriving a quantity.
    Analysis {
        /// The propagated failure, rendered.
        message: String,
    },
}

impl std::fmt::Display for TestkitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestkitError::Csv { message } => write!(f, "csv: {message}"),
            TestkitError::Analysis { message } => write!(f, "analysis: {message}"),
        }
    }
}

impl std::error::Error for TestkitError {}

/// Wraps a propagated analysis failure.
pub(crate) fn analysis(e: impl std::fmt::Display) -> TestkitError {
    TestkitError::Analysis {
        message: e.to_string(),
    }
}

impl From<mpvar_core::CoreError> for TestkitError {
    fn from(e: mpvar_core::CoreError) -> Self {
        TestkitError::Analysis {
            message: e.to_string(),
        }
    }
}

impl From<mpvar_stats::StatsError> for TestkitError {
    fn from(e: mpvar_stats::StatsError) -> Self {
        TestkitError::Analysis {
            message: e.to_string(),
        }
    }
}
