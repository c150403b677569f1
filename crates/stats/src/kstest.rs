//! One-sample Kolmogorov–Smirnov test against a Gaussian.
//!
//! Quantifies how Gaussian a tdp distribution is: SADP/EUV are
//! near-normal, LE3's is right-skewed (gap closing is convex). The
//! testkit invariants use it through `ks_test_fitted`.

use crate::error::StatsError;
use crate::sampler::Gaussian;

/// Result of a one-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsTest {
    /// The KS statistic `D`: the largest |ECDF − CDF| gap.
    pub statistic: f64,
    /// Sample count.
    pub n: usize,
    /// Approximate p-value (Kolmogorov asymptotic series; good for
    /// `n > 35`).
    pub p_value: f64,
}

impl KsTest {}

/// Kolmogorov asymptotic survival function
/// `Q(λ) = 2 Σ_{k≥1} (−1)^{k−1} e^{−2 k² λ²}`.
fn kolmogorov_q(lambda: f64) -> f64 {
    if lambda < 1e-3 {
        return 1.0;
    }
    let mut sum = 0.0;
    let mut sign = 1.0;
    for k in 1..=100 {
        let term = (-2.0 * (k as f64).powi(2) * lambda * lambda).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

/// Tests `data` against `N(mean, sigma²)`.
///
/// # Errors
///
/// * [`StatsError::InsufficientSamples`] with fewer than 8 samples;
/// * [`StatsError::NonFinite`] for NaN data;
/// * distribution-construction errors for a bad sigma.
///
/// # Example
///
/// ```
/// use mpvar_stats::ks_test_gaussian;
/// use mpvar_stats::{Gaussian, RngStream};
///
/// let g = Gaussian::new(0.0, 1.0)?;
/// let mut rng = RngStream::from_seed(5);
/// let data: Vec<f64> = (0..2000).map(|_| g.sample(&mut rng)).collect();
/// let ks = ks_test_gaussian(&data, 0.0, 1.0)?;
/// assert!(ks.p_value >= 0.01); // truly Gaussian data passes
/// # Ok::<(), mpvar_stats::StatsError>(())
/// ```
pub fn ks_test_gaussian(data: &[f64], mean: f64, sigma: f64) -> Result<KsTest, StatsError> {
    if data.len() < 8 {
        return Err(StatsError::InsufficientSamples {
            needed: 8,
            got: data.len(),
        });
    }
    if data.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NonFinite {
            name: "data",
            value: f64::NAN,
        });
    }
    let dist = Gaussian::new(mean, sigma)?;
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("nan screened above"));
    let n = sorted.len();
    let nf = n as f64;

    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let cdf = dist.cdf(x);
        let ecdf_hi = (i as f64 + 1.0) / nf;
        let ecdf_lo = i as f64 / nf;
        d = d.max((ecdf_hi - cdf).abs()).max((cdf - ecdf_lo).abs());
    }

    let sqrt_n = nf.sqrt();
    // Stephens' small-sample correction.
    let lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
    Ok(KsTest {
        statistic: d,
        n,
        p_value: kolmogorov_q(lambda),
    })
}

/// Tests `data` against a Gaussian with the *sample's own* mean and
/// standard deviation (Lilliefors-style; the reported p-value is then
/// conservative only as a relative measure between datasets).
///
/// # Errors
///
/// Same as [`ks_test_gaussian`], plus insufficient samples for a
/// standard deviation.
pub fn ks_test_fitted(data: &[f64]) -> Result<KsTest, StatsError> {
    let summary: crate::descriptive::Summary = data.iter().copied().collect();
    let sigma = summary.try_variance()?.sqrt();
    ks_test_gaussian(data, summary.mean(), sigma)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngStream;

    #[test]
    fn gaussian_data_passes() {
        let g = Gaussian::new(3.0, 2.0).unwrap();
        let mut rng = RngStream::from_seed(7);
        let data: Vec<f64> = (0..5000).map(|_| g.sample(&mut rng)).collect();
        let ks = ks_test_gaussian(&data, 3.0, 2.0).unwrap();
        assert!(ks.statistic < 0.03, "D = {}", ks.statistic);
        assert!(ks.p_value >= 0.01, "p = {}", ks.p_value);
    }

    #[test]
    fn uniform_data_rejected() {
        let mut rng = RngStream::from_seed(9);
        let data: Vec<f64> = (0..2000).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
        // Compare against N(0,1): clearly wrong shape.
        let ks = ks_test_gaussian(&data, 0.0, 1.0).unwrap();
        assert!(ks.p_value < 0.001, "p = {}", ks.p_value);
    }

    #[test]
    fn skewed_data_rejected_by_fitted_test() {
        // Exponential-ish data: squares of Gaussians.
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let mut rng = RngStream::from_seed(4);
        let data: Vec<f64> = (0..3000).map(|_| g.sample(&mut rng).powi(2)).collect();
        let ks = ks_test_fitted(&data).unwrap();
        assert!(ks.p_value < 0.001, "p = {}", ks.p_value);
    }

    #[test]
    fn wrong_mean_detected() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let mut rng = RngStream::from_seed(2);
        let data: Vec<f64> = (0..2000).map(|_| g.sample(&mut rng)).collect();
        let ks = ks_test_gaussian(&data, 0.5, 1.0).unwrap();
        assert!(ks.p_value < 0.001);
    }

    #[test]
    fn validation() {
        assert!(ks_test_gaussian(&[1.0; 4], 0.0, 1.0).is_err());
        assert!(
            ks_test_gaussian(&[1.0, 2.0, f64::NAN, 4.0, 5.0, 6.0, 7.0, 8.0], 0.0, 1.0).is_err()
        );
        assert!(ks_test_gaussian(&[1.0; 10], 0.0, 0.0).is_err());
    }

    #[test]
    fn q_function_reference_values() {
        // Known values of the Kolmogorov distribution.
        assert!((kolmogorov_q(1.36) - 0.049).abs() < 0.005);
        assert!((kolmogorov_q(1.63) - 0.010).abs() < 0.002);
        assert!(kolmogorov_q(0.0) == 1.0);
        assert!(kolmogorov_q(3.0) < 1e-6);
    }
}
