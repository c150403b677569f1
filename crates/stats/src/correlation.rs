//! Covariance and correlation estimators.
//!
//! The SADP analysis in the paper (§III.A) hinges on an *anti-correlation*
//! between the bit-line resistance and the VSS-rail resistance: a core-CD
//! shrink widens the spacer-defined bit line while narrowing its
//! mandrel-defined neighbours. These estimators let tests and ablations
//! verify that the litho model actually produces that anti-correlation.

use crate::error::StatsError;

/// Unbiased sample covariance of two equally long series.
///
/// # Errors
///
/// * [`StatsError::InsufficientSamples`] if the series have fewer than two
///   points or different lengths (the length mismatch is reported as the
///   shorter length being insufficient for the longer);
/// * [`StatsError::NonFinite`] if any value is NaN.
pub(crate) fn covariance(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::InsufficientSamples {
            needed: x.len().max(y.len()),
            got: x.len().min(y.len()),
        });
    }
    if x.len() < 2 {
        return Err(StatsError::InsufficientSamples {
            needed: 2,
            got: x.len(),
        });
    }
    if x.iter().chain(y.iter()).any(|v| v.is_nan()) {
        return Err(StatsError::NonFinite {
            name: "data",
            value: f64::NAN,
        });
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let s: f64 = x.iter().zip(y).map(|(a, b)| (a - mx) * (b - my)).sum();
    Ok(s / (n - 1.0))
}

/// Pearson correlation coefficient in `[-1, 1]`.
///
/// # Errors
///
/// [`StatsError::InsufficientSamples`] for series shorter than two points
/// or of different lengths, [`StatsError::NonFinite`] for NaN, and
/// [`StatsError::NonPositiveScale`] when either series is constant (zero
/// variance makes the coefficient undefined).
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    let cov = covariance(x, y)?;
    let vx = covariance(x, x)?;
    let vy = covariance(y, y)?;
    if vx <= 0.0 {
        return Err(StatsError::NonPositiveScale { value: vx });
    }
    if vy <= 0.0 {
        return Err(StatsError::NonPositiveScale { value: vy });
    }
    Ok((cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngStream;
    use crate::sampler::Gaussian;

    #[test]
    fn perfect_positive_and_negative() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 1.0).collect();
        let z: Vec<f64> = x.iter().map(|v| -2.0 * v + 7.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        assert!((pearson(&x, &z).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_series_near_zero() {
        let g = Gaussian::new(0.0, 1.0).unwrap();
        let mut r1 = RngStream::from_seed(1);
        let mut r2 = RngStream::from_seed(2);
        let x: Vec<f64> = (0..20_000).map(|_| g.sample(&mut r1)).collect();
        let y: Vec<f64> = (0..20_000).map(|_| g.sample(&mut r2)).collect();
        assert!(pearson(&x, &y).unwrap().abs() < 0.03);
    }

    #[test]
    fn covariance_symmetry() {
        let x = [1.0, 5.0, 2.0, 8.0];
        let y = [0.5, 1.5, -2.0, 4.0];
        assert_eq!(covariance(&x, &y).unwrap(), covariance(&y, &x).unwrap());
        assert!((covariance(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_mismatched_and_tiny() {
        assert!(covariance(&[1.0, 2.0], &[1.0]).is_err());
        assert!(covariance(&[1.0], &[1.0]).is_err());
        assert!(covariance(&[], &[]).is_err());
    }

    #[test]
    fn rejects_nan() {
        assert!(matches!(
            covariance(&[1.0, f64::NAN], &[1.0, 2.0]),
            Err(StatsError::NonFinite { .. })
        ));
    }

    #[test]
    fn pearson_rejects_constant_series() {
        let c = [4.0, 4.0, 4.0];
        let x = [1.0, 2.0, 3.0];
        assert!(matches!(
            pearson(&c, &x),
            Err(StatsError::NonPositiveScale { .. })
        ));
    }
}
