//! Rare-event yield engine for `mpvar`: adaptive importance sampling
//! down to 6σ failure probabilities.
//!
//! The paper's Fig. 5 Monte-Carlo resolves SRAM read-failure rates to
//! roughly 1e-4; array-level yield sign-off needs 1e-9. This crate runs
//! the importance-sampling estimators from `mpvar-stats`
//! ([`Proposal::ScaledSigma`], [`Proposal::ShiftedMixture`], and the
//! [`Proposal::BruteForce`] reference) through an *adaptive sequential
//! controller*: instead of a fixed trial count, [`run_yield`] dispatches
//! geometrically-growing rounds through `mpvar-exec`'s
//! [`dispatch_rounds`](mpvar_exec::dispatch_rounds) engine and stops as
//! soon as the failure-probability confidence interval is tight enough
//! ([`YieldConfig::target_rel_half_width`]) with enough raw failures
//! observed ([`YieldConfig::min_failures`]) to trust the normal
//! approximation.
//!
//! # Determinism, resume, and merge
//!
//! Three properties make a [`YieldRun`] bit-identical at any thread
//! count *and* across resumed runs:
//!
//! 1. trial `k` always draws from RNG substream `k` of the config seed,
//!    so a trial's `z` vector depends only on its global index;
//! 2. round sizes are a **pure function of the round index**
//!    (`base_round << min(round, MAX_ROUND_SHIFT)`) — never of the
//!    budget. [`YieldConfig::max_trials`] is a *soft* cap checked
//!    between rounds, so a budget change can stop the schedule early
//!    but never split a round;
//! 3. round sums are folded left-to-right with plain `f64` adds
//!    ([`FailureEstimate::from_rounds`]).
//!
//! Together these mean a truncated run's rounds are a prefix of a
//! longer run's rounds, so [`resume_yield`] (or
//! [`YieldRun::merge`]) reproduces the uninterrupted run exactly —
//! float-for-float, not just statistically.
//!
//! The same three properties let runs that differ only in their
//! failure criterion share one draw stream. A problem reporting
//! [`FailureProblem::criteria`] > 1 (several margins, or a write and a
//! read model) goes through [`run_yields`]: each trial is drawn and
//! evaluated once, its flags fold into every criterion still running,
//! and each criterion stops on its own rounds by its own rule and
//! budget. Round `r` has the same size for every criterion active at
//! round `r`, so run `c` is bit-identical to [`run_yield`] on criterion
//! `c` alone. [`run_yield`] and [`resume_yield`] are the one-criterion
//! case of the same loop.
//!
//! # Telemetry
//!
//! With an `mpvar-trace` collector installed, a run emits a
//! `yield_run` span (its `criteria` field counts the criteria sharing
//! the stream) with one `yield_round` child per round. The counters
//! `yield.rounds` / `yield.trials` / `yield.zero_weight_trials` count
//! per criterion, exactly as separate runs would; `yield.evaluated_trials`
//! counts each shared trial once. A final `yield.ess` gauge holds the
//! last criterion's effective sample size.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod controller;
mod problem;

pub use controller::{
    brute_force_trials_for, resume_yield, run_yield, run_yields, YieldConfig, YieldRun,
};
pub use problem::{FailureProblem, PlantedThreshold};

// Re-export the estimator vocabulary so downstream crates need only
// one import path for the full yield API.
pub use mpvar_stats::{FailureEstimate, Proposal, RoundAccumulator, ZDomain};

use mpvar_stats::StatsError;

/// Errors from the yield engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum YieldError {
    /// An estimator-layer error (bad proposal, bad confidence, …).
    Stats(StatsError),
    /// The controller configuration is internally inconsistent.
    InvalidConfig {
        /// Human-readable explanation.
        reason: String,
    },
    /// The failure problem's batch evaluation failed.
    Problem(Box<dyn std::error::Error + Send + Sync>),
}

impl std::fmt::Display for YieldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            YieldError::Stats(e) => write!(f, "estimator error: {e}"),
            YieldError::InvalidConfig { reason } => {
                write!(f, "invalid yield configuration: {reason}")
            }
            YieldError::Problem(e) => write!(f, "failure problem evaluation failed: {e}"),
        }
    }
}

impl std::error::Error for YieldError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            YieldError::Stats(e) => Some(e),
            YieldError::InvalidConfig { .. } => None,
            YieldError::Problem(e) => Some(e.as_ref()),
        }
    }
}

impl From<StatsError> for YieldError {
    fn from(e: StatsError) -> Self {
        YieldError::Stats(e)
    }
}
