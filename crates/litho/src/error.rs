//! Error type for the lithography crate.

use std::error::Error;
use std::fmt;

use mpvar_tech::PatterningOption;

/// Errors from patterning decomposition and variation application.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LithoError {
    /// A draw of one patterning option was applied where another was
    /// required.
    DrawMismatch {
        /// The option the draw belongs to.
        got: PatterningOption,
        /// The option that was expected.
        expected: PatterningOption,
    },
    /// Printed geometry became physically impossible (a line of
    /// non-positive width after variation).
    CollapsedLine {
        /// Net of the collapsed line.
        net: String,
        /// Width after variation, nm.
        width_nm: f64,
    },
    /// Printed geometry shorted two lines (non-positive gap) and the
    /// caller asked for strict checking.
    ShortedLines {
        /// Lower net.
        lower: String,
        /// Upper net.
        upper: String,
        /// Gap after variation, nm.
        gap_nm: f64,
    },
    /// SADP needs an alternating mandrel/spacer stack; this stack cannot
    /// be decomposed (e.g. fewer than 2 tracks).
    UndecomposableStack {
        /// Human-readable reason.
        reason: String,
    },
    /// A variation parameter was non-finite.
    NonFiniteDraw {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// A single-track print asked for a track the stack does not have.
    TrackOutOfRange {
        /// Requested index.
        index: usize,
        /// Number of tracks in the stack.
        len: usize,
    },
}

impl fmt::Display for LithoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LithoError::DrawMismatch { got, expected } => {
                write!(f, "draw is for `{got}` but `{expected}` was expected")
            }
            LithoError::CollapsedLine { net, width_nm } => {
                write!(f, "line `{net}` collapsed to {width_nm:.3}nm width")
            }
            LithoError::ShortedLines {
                lower,
                upper,
                gap_nm,
            } => write!(
                f,
                "lines `{lower}` and `{upper}` shorted (gap {gap_nm:.3}nm)"
            ),
            LithoError::UndecomposableStack { reason } => {
                write!(f, "stack cannot be decomposed: {reason}")
            }
            LithoError::NonFiniteDraw { name, value } => {
                write!(f, "draw parameter `{name}` is not finite: {value}")
            }
            LithoError::TrackOutOfRange { index, len } => {
                write!(
                    f,
                    "track index {index} out of range for a {len}-track stack"
                )
            }
        }
    }
}

impl Error for LithoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = LithoError::ShortedLines {
            lower: "VSS".into(),
            upper: "BL".into(),
            gap_nm: -0.5,
        };
        let s = e.to_string();
        assert!(s.contains("VSS") && s.contains("BL"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LithoError>();
    }
}
