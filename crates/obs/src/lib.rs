//! # mpvar-obs — turning traces into answers
//!
//! The workspace's observability *spine* (`mpvar-trace`) emits
//! machine-readable run telemetry; this crate is its *consumer*. It
//! takes a parsed `mpvar-trace/v1` document and answers the questions
//! an operator actually asks:
//!
//! * **Where did the time go?** [`forest::SpanForest`] rebuilds the
//!   cross-thread span tree from the flat completion-ordered JSONL
//!   stream; [`analytics::profile`] aggregates it per span name
//!   (count, total/self time, p50/p95/p99), walks the **critical
//!   path** through the dominant root, names the parallel map that
//!   left the most worker time idle, and exports **folded stacks** in
//!   the standard flamegraph format.
//! * **Did performance regress?** [`baseline::PerfBaseline`] is a
//!   committed profile of *relative* self-time shares and counter
//!   invariants (never absolute times, so CI machine noise cannot
//!   flake the gate); [`baseline::check`] evaluates a trace against
//!   it into named pass/fail verdicts — the observability analogue of
//!   `repro check`.
//!
//! Like the rest of the workspace this crate is zero-dependency and
//! strictly read-only over traces: it never installs a collector, so
//! it cannot perturb the runs it analyzes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod analytics;
pub mod baseline;
pub mod forest;

use std::fmt;

pub use analytics::{
    folded_stacks, profile, profile_spans, render_profile, CriticalPathNode, IdlestMap,
    SpanAggregate, TraceProfile,
};
pub use baseline::{check, render_report, PerfBaseline, PerfCheck, PerfReport};
pub use forest::{ForestError, SpanForest};

use mpvar_trace::schema::SchemaError;

/// Any failure while analyzing a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ObsError {
    /// The document failed `mpvar-trace/v1` parsing/validation —
    /// truncated final lines, junk bytes, schema violations all land
    /// here with their 1-based line number.
    Trace(SchemaError),
    /// The span stream parsed but does not form a forest.
    Forest(ForestError),
    /// A perf baseline file is malformed.
    Baseline(String),
    /// The trace is structurally fine but empty of spans, so there is
    /// nothing to profile.
    EmptyTrace,
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::Trace(e) => write!(f, "{e}"),
            ObsError::Forest(e) => write!(f, "{e}"),
            ObsError::Baseline(m) => write!(f, "perf baseline error: {m}"),
            ObsError::EmptyTrace => write!(f, "trace contains no spans to profile"),
        }
    }
}

impl std::error::Error for ObsError {}

impl From<SchemaError> for ObsError {
    fn from(e: SchemaError) -> Self {
        ObsError::Trace(e)
    }
}

impl From<ForestError> for ObsError {
    fn from(e: ForestError) -> Self {
        ObsError::Forest(e)
    }
}
