//! Bootstrap confidence intervals for sampled statistics.
//!
//! Table IV of the paper reports Monte-Carlo standard deviations with
//! no error bars. The nonparametric bootstrap supplies them: resample
//! the tdp samples with replacement, recompute σ per resample, and take
//! percentile bounds of the resampled statistic.

use crate::descriptive::Summary;
use crate::error::StatsError;
use crate::percentile::quantile_sorted;
use crate::rng::RngStream;

/// A bootstrap confidence interval for a statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapCi {
    /// Point estimate on the original sample.
    pub estimate: f64,
    /// Lower percentile bound.
    pub lo: f64,
    /// Upper percentile bound.
    pub hi: f64,
    /// Confidence level used (e.g. 0.95).
    pub confidence: f64,
    /// Resamples drawn.
    pub resamples: usize,
}

impl BootstrapCi {
    /// Half-width of the interval.
    pub fn half_width(&self) -> f64 {
        0.5 * (self.hi - self.lo)
    }

    /// `true` when `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (self.lo..=self.hi).contains(&value)
    }
}

/// Percentile-bootstrap CI for an arbitrary statistic of `data`.
///
/// # Errors
///
/// * [`StatsError::InsufficientSamples`] for fewer than 8 samples;
/// * [`StatsError::InvalidHistogram`]-style misuse is prevented by
///   construction; bad `confidence` yields
///   [`StatsError::QuantileOutOfRange`].
pub(crate) fn bootstrap_ci<F>(
    data: &[f64],
    resamples: usize,
    confidence: f64,
    seed: u64,
    statistic: F,
) -> Result<BootstrapCi, StatsError>
where
    F: Fn(&[f64]) -> f64,
{
    if data.len() < 8 {
        return Err(StatsError::InsufficientSamples {
            needed: 8,
            got: data.len(),
        });
    }
    if resamples == 0 {
        return Err(StatsError::ZeroTrials);
    }
    if !(0.0 < confidence && confidence < 1.0) {
        return Err(StatsError::QuantileOutOfRange { q: confidence });
    }

    let estimate = statistic(data);
    let base = RngStream::from_seed(seed);
    let n = data.len();
    let mut stats = Vec::with_capacity(resamples);
    let mut buffer = vec![0.0; n];
    for k in 0..resamples {
        let mut rng = base.substream(k as u64);
        for slot in buffer.iter_mut() {
            let idx = (rng.next_f64() * n as f64) as usize;
            *slot = data[idx.min(n - 1)];
        }
        stats.push(statistic(buffer.as_slice()));
    }
    if stats.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NonFinite {
            name: "data",
            value: f64::NAN,
        });
    }
    stats.sort_by(|a, b| a.partial_cmp(b).expect("nan screened above"));
    let alpha = 1.0 - confidence;
    let lo = quantile_sorted(&stats, alpha / 2.0)?;
    let hi = quantile_sorted(&stats, 1.0 - alpha / 2.0)?;
    Ok(BootstrapCi {
        estimate,
        lo,
        hi,
        confidence,
        resamples,
    })
}

/// Convenience: percentile-bootstrap CI for the sample standard
/// deviation — Table IV's statistic.
///
/// # Errors
///
/// * [`StatsError::InsufficientSamples`] for fewer than 8 samples;
/// * [`StatsError::ZeroTrials`] for zero resamples;
/// * [`StatsError::QuantileOutOfRange`] for `confidence` outside `(0, 1)`.
pub fn bootstrap_sigma_ci(
    data: &[f64],
    resamples: usize,
    confidence: f64,
    seed: u64,
) -> Result<BootstrapCi, StatsError> {
    bootstrap_ci(data, resamples, confidence, seed, |xs| {
        let s: Summary = xs.iter().copied().collect();
        s.std_dev()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::Gaussian;

    fn gaussian_data(n: usize, sigma: f64, seed: u64) -> Vec<f64> {
        let g = Gaussian::new(0.0, sigma).unwrap();
        let mut rng = RngStream::from_seed(seed);
        (0..n).map(|_| g.sample(&mut rng)).collect()
    }

    #[test]
    fn sigma_ci_covers_truth() {
        let data = gaussian_data(2000, 2.0, 5);
        let ci = bootstrap_sigma_ci(&data, 400, 0.95, 9).unwrap();
        assert!(ci.contains(2.0), "CI [{}, {}]", ci.lo, ci.hi);
        assert!((ci.estimate - 2.0).abs() < 0.15);
        assert!(ci.half_width() < 0.15);
        assert!(ci.lo < ci.estimate && ci.estimate < ci.hi);
    }

    #[test]
    fn wider_confidence_widens_interval() {
        let data = gaussian_data(500, 1.0, 3);
        let ci90 = bootstrap_sigma_ci(&data, 400, 0.90, 1).unwrap();
        let ci99 = bootstrap_sigma_ci(&data, 400, 0.99, 1).unwrap();
        assert!(ci99.half_width() > ci90.half_width());
    }

    #[test]
    fn more_samples_tighten_interval() {
        let small = bootstrap_sigma_ci(&gaussian_data(100, 1.0, 4), 400, 0.95, 2).unwrap();
        let large = bootstrap_sigma_ci(&gaussian_data(5000, 1.0, 4), 400, 0.95, 2).unwrap();
        assert!(large.half_width() < small.half_width());
    }

    #[test]
    fn deterministic_per_seed() {
        let data = gaussian_data(300, 1.0, 6);
        let a = bootstrap_sigma_ci(&data, 200, 0.95, 42).unwrap();
        let b = bootstrap_sigma_ci(&data, 200, 0.95, 42).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn validation() {
        let data = gaussian_data(100, 1.0, 1);
        assert!(bootstrap_sigma_ci(&data[..4], 100, 0.95, 1).is_err());
        assert!(bootstrap_sigma_ci(&data, 0, 0.95, 1).is_err());
        assert!(bootstrap_sigma_ci(&data, 100, 0.0, 1).is_err());
        assert!(bootstrap_sigma_ci(&data, 100, 1.0, 1).is_err());
    }

    #[test]
    fn generic_statistic_mean() {
        let data: Vec<f64> = (0..200).map(|k| k as f64).collect();
        let ci = bootstrap_ci(&data, 300, 0.95, 8, |xs| {
            let s: Summary = xs.iter().copied().collect();
            s.mean()
        })
        .unwrap();
        assert!(ci.contains(99.5), "CI [{}, {}]", ci.lo, ci.hi);
    }
}
