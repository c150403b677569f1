//! Error type for the analysis crate.

use std::error::Error;
use std::fmt;

/// Errors from the analysis layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// An analysis parameter was out of range.
    InvalidParameter {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
        /// Constraint description.
        constraint: &'static str,
    },
    /// No feasible corner existed (every candidate printed shorted or
    /// collapsed lines).
    NoFeasibleCorner {
        /// The option being searched.
        option: String,
    },
    /// A Monte-Carlo study hit its draw-attempt cap because too many
    /// draws printed shorted or collapsed lines to fill its trial
    /// budget.
    ShortedDrawsExhausted {
        /// The option being sampled.
        option: String,
        /// Draws sampled before giving up.
        attempts: u64,
        /// Trials evaluated (non-shorted draws) by then.
        evaluated: usize,
    },
    /// Propagated SRAM-layer failure.
    Sram(String),
    /// Propagated litho-layer failure.
    Litho(String),
    /// Propagated extraction failure.
    Extract(String),
    /// Propagated statistics failure.
    Stats(String),
    /// Propagated tech failure.
    Tech(String),
    /// Propagated rare-event yield-engine failure.
    Yield(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidParameter {
                name,
                value,
                constraint,
            } => write!(f, "parameter `{name}` = {value} is invalid: {constraint}"),
            CoreError::NoFeasibleCorner { option } => {
                write!(f, "no feasible corner for option `{option}`")
            }
            CoreError::ShortedDrawsExhausted {
                option,
                attempts,
                evaluated,
            } => write!(
                f,
                "option `{option}`: {attempts} draws left only {evaluated} non-shorted trials"
            ),
            CoreError::Sram(m) => write!(f, "sram error: {m}"),
            CoreError::Litho(m) => write!(f, "litho error: {m}"),
            CoreError::Extract(m) => write!(f, "extraction error: {m}"),
            CoreError::Stats(m) => write!(f, "statistics error: {m}"),
            CoreError::Tech(m) => write!(f, "tech error: {m}"),
            CoreError::Yield(m) => write!(f, "yield error: {m}"),
        }
    }
}

impl Error for CoreError {}

impl From<mpvar_sram::SramError> for CoreError {
    fn from(e: mpvar_sram::SramError) -> Self {
        CoreError::Sram(e.to_string())
    }
}

impl From<mpvar_litho::LithoError> for CoreError {
    fn from(e: mpvar_litho::LithoError) -> Self {
        CoreError::Litho(e.to_string())
    }
}

impl From<mpvar_extract::ExtractError> for CoreError {
    fn from(e: mpvar_extract::ExtractError) -> Self {
        CoreError::Extract(e.to_string())
    }
}

impl From<mpvar_stats::StatsError> for CoreError {
    fn from(e: mpvar_stats::StatsError) -> Self {
        CoreError::Stats(e.to_string())
    }
}

impl From<mpvar_tech::TechError> for CoreError {
    fn from(e: mpvar_tech::TechError) -> Self {
        CoreError::Tech(e.to_string())
    }
}

impl From<mpvar_yield::YieldError> for CoreError {
    fn from(e: mpvar_yield::YieldError) -> Self {
        CoreError::Yield(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversion() {
        let e: CoreError = mpvar_stats::StatsError::ZeroTrials.into();
        assert!(e.to_string().contains("statistics"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
