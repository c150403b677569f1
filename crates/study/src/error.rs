//! Error helpers shared across the engine.

use mpvar_core::CoreError;

/// The error returned for an unknown artifact/experiment id — the same
/// shape the pre-`Study` harness surfaced, so existing callers keep
/// their matching behaviour.
pub(crate) fn unknown_artifact() -> CoreError {
    CoreError::InvalidParameter {
        name: "experiment id",
        value: f64::NAN,
        constraint: "must be one of the known experiment ids (or `all`)",
    }
}

/// The error returned when a stored value is not of the variant the
/// artifact table declares for its id: a producer input, or a value
/// [`crate::Study::get`] projects.
pub(crate) fn wrong_variant() -> CoreError {
    CoreError::InvalidParameter {
        name: "artifact value",
        value: f64::NAN,
        constraint: "must be the variant the artifact table declares for its id",
    }
}
