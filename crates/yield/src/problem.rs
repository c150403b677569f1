//! The failure-problem abstraction the controller estimates over, plus
//! an analytic planted-failure problem for statistical verification.

use mpvar_stats::{inverse_normal_cdf, StatsError};

use crate::YieldError;

/// A deterministic failure predicate over standardized `z`-space.
///
/// The controller hands each worker chunk a *batch* of `z` vectors
/// (flattened, `dims()` values per trial) so circuit-level
/// implementations can route the whole batch through the SoA SPICE
/// solver in one call. Implementations must be pure functions of `z` —
/// the bit-identity guarantees of [`run_yield`](crate::run_yield)
/// depend on it.
pub trait FailureProblem: Sync {
    /// Number of `z` coordinates per trial.
    fn dims(&self) -> usize;

    /// Number of failure criteria judged per trial (margins, models).
    /// [`run_yields`](crate::run_yields) returns one run per criterion;
    /// [`run_yield`](crate::run_yield) needs exactly one.
    fn criteria(&self) -> usize {
        1
    }

    /// Evaluates `zs.len() / dims()` trials and returns `criteria()`
    /// failure flags per trial, trial-major (trial `i`'s flag for
    /// criterion `c` at index `i * criteria() + c`).
    ///
    /// # Errors
    ///
    /// Implementation-defined; circuit problems surface solver errors
    /// as [`YieldError::Problem`].
    fn evaluate_batch(&self, zs: &[f64]) -> Result<Vec<bool>, YieldError>;
}

/// An analytic planted-failure problem: trial fails iff `z[0] > threshold`.
///
/// Its exact failure probability under the untruncated standard-normal
/// target is `normal_tail(threshold)`, which makes it the ground truth
/// for CI-coverage, agreement, and convergence tests at any depth —
/// including 6σ tails no brute-force run could certify.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlantedThreshold {
    dims: usize,
    threshold: f64,
}

impl PlantedThreshold {
    /// A planted problem failing when the first coordinate exceeds
    /// `threshold`; extra dimensions are sampled but irrelevant,
    /// exercising the weight arithmetic in higher dimension.
    ///
    /// # Errors
    ///
    /// [`StatsError::InsufficientSamples`] for `dims == 0`;
    /// [`StatsError::NonFinite`] for a non-finite threshold.
    pub fn new(dims: usize, threshold: f64) -> Result<Self, StatsError> {
        if dims == 0 {
            return Err(StatsError::InsufficientSamples { needed: 1, got: 0 });
        }
        if !threshold.is_finite() {
            return Err(StatsError::NonFinite {
                name: "threshold",
                value: threshold,
            });
        }
        Ok(Self { dims, threshold })
    }

    /// Plants a failure region with exact probability `p` by placing
    /// the threshold at the standard-normal quantile `Φ⁻¹(1 − p)`.
    ///
    /// # Errors
    ///
    /// [`StatsError::QuantileOutOfRange`] for `p ∉ (0, 1)`;
    /// [`StatsError::InsufficientSamples`] for `dims == 0`.
    pub fn for_failure_probability(dims: usize, p: f64) -> Result<Self, StatsError> {
        if dims == 0 {
            return Err(StatsError::InsufficientSamples { needed: 1, got: 0 });
        }
        let threshold = inverse_normal_cdf(1.0 - p)?;
        Ok(Self { dims, threshold })
    }

    /// The planted threshold on `z[0]`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl FailureProblem for PlantedThreshold {
    fn dims(&self) -> usize {
        self.dims
    }

    fn evaluate_batch(&self, zs: &[f64]) -> Result<Vec<bool>, YieldError> {
        if !zs.len().is_multiple_of(self.dims) {
            return Err(YieldError::InvalidConfig {
                reason: format!(
                    "batch length {} is not a multiple of dims {}",
                    zs.len(),
                    self.dims
                ),
            });
        }
        Ok(zs
            .chunks_exact(self.dims)
            .map(|z| z[0] > self.threshold)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_stats::normal_tail;

    #[test]
    fn planted_probability_round_trips() {
        for p in [1e-2, 1e-4, 1e-6, 1e-9] {
            let problem = PlantedThreshold::for_failure_probability(3, p).unwrap();
            let back = normal_tail(problem.threshold());
            assert!(
                (back - p).abs() / p < 1e-5,
                "p = {p}, threshold = {}, back = {back}",
                problem.threshold()
            );
        }
    }

    #[test]
    fn batch_evaluation_matches_scalar_rule() {
        let problem = PlantedThreshold::new(2, 1.5).unwrap();
        let zs = [0.0, 9.0, 2.0, -1.0, 1.5, 0.0];
        assert_eq!(
            problem.evaluate_batch(&zs).unwrap(),
            vec![false, true, false]
        );
        assert!(problem.evaluate_batch(&zs[..5]).is_err());
    }

    #[test]
    fn constructors_validate() {
        assert!(PlantedThreshold::new(0, 1.0).is_err());
        assert!(PlantedThreshold::new(1, f64::NAN).is_err());
        assert!(PlantedThreshold::for_failure_probability(1, 0.0).is_err());
        assert!(PlantedThreshold::for_failure_probability(1, 1.0).is_err());
        assert!(PlantedThreshold::for_failure_probability(0, 0.5).is_err());
    }
}
