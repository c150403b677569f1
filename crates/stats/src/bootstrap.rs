//! Bootstrap confidence intervals for sampled statistics.
//!
//! Table IV of the paper reports Monte-Carlo standard deviations with
//! no error bars. The nonparametric bootstrap supplies them: resample
//! the tdp samples with replacement, recompute σ per resample, and take
//! percentile bounds of the resampled statistic.
//!
//! Resample `k` draws its `n` indices from substream `k` of the seed,
//! so the interval is a function of `(data, resamples, confidence,
//! seed)` alone. The resamples run in groups of eight lanes: the
//! `LaneStreams` generator steps substreams `k0..k0 + 8` together, and
//! each lane keeps only the `mean` and `m2` that σ reads, through the
//! same Welford step as [`Summary::push`]. Every σ therefore has the
//! bits of `Summary::std_dev` over its resample, and the CI does not
//! depend on the group width. A last group that is not full draws its
//! spare lanes from the next substreams and drops them.
//!
//! The lane generator holds its xoshiro256** state word-major
//! (`[[u64; 8]; 4]`: word 0 of every lane, then word 1, ...), so each
//! step and each Welford update is one operation across eight
//! independent lanes that the compiler vectorizes, and eight `mean`
//! chains hide the divide's latency. The same lanes held as eight
//! generators, each with its four words together, did not vectorize.
//! For the same reason the resample indices are truncated by
//! `trunc_index`, not by an `as usize` cast, which compiles to one
//! scalar conversion per lane.

use crate::descriptive::{welford_step, Summary};
use crate::error::StatsError;
use crate::percentile::quantile_sorted;
use crate::rng::{LaneStreams, RngStream};

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

/// Resamples drawn together, one per lane of a [`LaneStreams`] group.
const LANES: usize = 8;

/// Percentile-bootstrap CI for the sample standard deviation — Table
/// IV's statistic.
///
/// # Errors
///
/// * [`StatsError::InsufficientSamples`] for fewer than 8 samples;
/// * [`StatsError::ZeroTrials`] for zero resamples;
/// * [`StatsError::QuantileOutOfRange`] for `confidence` outside `(0, 1)`;
/// * [`StatsError::NonFinite`] when a resampled σ is NaN (non-finite
///   data).
pub fn bootstrap_sigma_ci(
    data: &[f64],
    resamples: usize,
    confidence: f64,
    seed: u64,
) -> Result<BootstrapCi, StatsError> {
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
    let _span = mpvar_trace::span!(
        mpvar_trace::names::SPAN_STATS_BOOTSTRAP,
        n = data.len(),
        resamples = resamples,
    );

    let estimate = data.iter().copied().collect::<Summary>().std_dev();
    let base = RngStream::from_seed(seed);
    let mut stats = Vec::with_capacity(resamples);
    for k0 in (0..resamples).step_by(LANES) {
        let sigmas = resample_sigmas(data, &base, k0 as u64);
        stats.extend_from_slice(&sigmas[..LANES.min(resamples - k0)]);
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

/// The σ of resamples `k0..k0 + LANES` of `data` (`len() >= 2`):
/// resample `k` draws its indices from substream `k` of `base`, and
/// each lane runs [`Summary::push`]'s `mean`/`m2` steps, so lane `l`
/// holds the bits of `Summary::std_dev` over resample `k0 + l`.
fn resample_sigmas(data: &[f64], base: &RngStream, k0: u64) -> [f64; LANES] {
    let n = data.len();
    let nf = n as f64;
    let mut rng = LaneStreams::<LANES>::new(base, k0);
    let mut mean = [0.0; LANES];
    let mut m2 = [0.0; LANES];
    for i in 0..n {
        let idx = rng.next_f64().map(|u| trunc_index(u * nf).min(n - 1));
        let (n1, count) = (i as f64, (i + 1) as f64);
        for l in 0..LANES {
            let (_, term1) = welford_step(&mut mean[l], data[idx[l]], n1, count);
            m2[l] += term1;
        }
    }
    m2.map(|m2| (m2 / (nf - 1.0)).sqrt())
}

/// `x as usize` for `0 <= x < 2^52` (a resample index lies below
/// `data.len()`), in operations that vectorize: the saturating `as
/// usize` cast compiles to one scalar conversion per lane. `floor(x)`
/// is an integer below 2^52, so adding 2^52 is exact and leaves it in
/// the mantissa bits.
#[inline]
fn trunc_index(x: f64) -> usize {
    const TWO_52: f64 = (1u64 << 52) as f64;
    ((x.floor() + TWO_52).to_bits() - TWO_52.to_bits()) as usize
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
    fn trunc_index_is_the_cast_below_2_pow_52() {
        let top = (1u64 << 52) as f64;
        let mut rng = RngStream::from_seed(12);
        let edges = [
            0.0,
            0.5,
            1.0 - f64::EPSILON,
            1.0,
            2999.999,
            top - 1.0,
            top - 0.5,
        ];
        let random = (0..10_000).map(|k| rng.next_f64() * 10f64.powi(k % 16));
        for x in edges.into_iter().chain(random) {
            assert_eq!(trunc_index(x), x as usize, "{x}");
        }
    }

    #[test]
    fn validation() {
        let data = gaussian_data(100, 1.0, 1);
        assert!(bootstrap_sigma_ci(&data[..4], 100, 0.95, 1).is_err());
        assert!(bootstrap_sigma_ci(&data, 0, 0.95, 1).is_err());
        assert!(bootstrap_sigma_ci(&data, 100, 0.0, 1).is_err());
        assert!(bootstrap_sigma_ci(&data, 100, 1.0, 1).is_err());
    }
}
