//! Distribution samplers used for process-variation draws.
//!
//! The paper's variation model (§II.A) is Gaussian throughout: CD, overlay
//! and spacer-thickness errors are specified by their 3σ values. Foundry
//! practice usually *truncates* these distributions at inspection limits,
//! so a truncated Gaussian is provided as well; the corner analysis of
//! Table I corresponds to evaluating at the ±3σ truncation bounds.

use crate::error::StatsError;
use crate::rng::RngStream;

fn ensure_finite(name: &'static str, value: f64) -> Result<(), StatsError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(StatsError::NonFinite { name, value })
    }
}

/// A Gaussian (normal) distribution `N(mean, sigma²)`.
///
/// Sampling uses the polar (Marsaglia) variant of the Box–Muller transform;
/// the spare deviate is cached so consecutive draws cost one transform per
/// two samples.
///
/// # Example
///
/// ```
/// use mpvar_stats::{Gaussian, RngStream};
///
/// // A 3nm 3-sigma CD error (σ = 1nm), as assumed for LE3 and EUV in the paper.
/// let cd = Gaussian::new(0.0, 1.0)?;
/// let mut rng = RngStream::from_seed(1);
/// let draw = cd.sample(&mut rng);
/// assert!(draw.abs() < 15.0); // loose sanity bound
/// # Ok::<(), mpvar_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gaussian {
    mean: f64,
    sigma: f64,
}

impl Gaussian {
    /// Creates a Gaussian with the given mean and standard deviation.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::NonPositiveScale`] if `sigma <= 0` and
    /// [`StatsError::NonFinite`] if either parameter is NaN/infinite.
    pub fn new(mean: f64, sigma: f64) -> Result<Self, StatsError> {
        ensure_finite("mean", mean)?;
        ensure_finite("sigma", sigma)?;
        if sigma <= 0.0 {
            return Err(StatsError::NonPositiveScale { value: sigma });
        }
        Ok(Self { mean, sigma })
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The distribution standard deviation.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Draws one deviate.
    pub fn sample(&self, rng: &mut RngStream) -> f64 {
        self.mean + self.sigma * standard_normal(rng)
    }

    /// Cumulative distribution function at `x`, via `erf`.
    pub(crate) fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / (self.sigma * std::f64::consts::SQRT_2);
        0.5 * (1.0 + erf(z))
    }
}

/// Draws a standard-normal deviate with the polar Box–Muller method.
///
/// Exposed for callers that want raw `z` values (e.g. to reuse one draw for
/// two anti-correlated parameters).
pub fn standard_normal(rng: &mut RngStream) -> f64 {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            let factor = (-2.0 * s.ln() / s).sqrt();
            return u * factor;
        }
    }
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, |ε| < 1.5e-7).
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Complementary error function with bounded **relative** error
/// (Chebyshev-fitted rational form, |ε/erfc| < 1.2e-7 everywhere).
///
/// [`erf`] bounds its *absolute* error at 1.5e-7, which is useless deep in
/// the tail: at `erfc(5) ≈ 1.5e-12` that absolute bound is five orders of
/// magnitude larger than the answer. Rare-event yield estimation needs tail
/// masses down to 1e-9 and beyond, so this variant keeps ~7 significant
/// digits at any argument.
pub(crate) fn erfc(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.5 * x.abs());
    let ans = t
        * (-x * x - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Upper-tail probability `Q(z) = P[Z > z]` of the standard normal,
/// accurate in a **relative** sense arbitrarily deep in the tail
/// (via `erfc`).
pub fn normal_tail(z: f64) -> f64 {
    0.5 * erfc(z / std::f64::consts::SQRT_2)
}

/// Inverse CDF (quantile function) of the standard normal.
///
/// Acklam's rational approximation (|relative ε| < 1.15e-9) followed by one
/// Halley refinement step against the `erfc`-based CDF, which makes the
/// result self-consistent with [`normal_tail`] (round-trips agree to the
/// ~1e-7 relative accuracy of `erfc`). Used to plant analytically-known
/// failure thresholds (`z = Φ⁻¹(1 − P_fail)`) and to turn confidence levels
/// into normal critical values.
///
/// # Errors
///
/// [`StatsError::QuantileOutOfRange`] unless `0 < p < 1`.
pub fn inverse_normal_cdf(p: f64) -> Result<f64, StatsError> {
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::QuantileOutOfRange { q: p });
    }
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley step: e = Φ(x) − p, u = e/φ(x), x ← x − u/(1 + xu/2).
    let e = 0.5 * erfc(-x / std::f64::consts::SQRT_2) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    Ok(x - u / (1.0 + 0.5 * x * u))
}

/// A Gaussian truncated to `[lo, hi]`, sampled by rejection.
///
/// Process-control screens reject wafers beyond inspection limits, so
/// realistic Monte-Carlo runs often clip variation at ±3σ or ±4σ. For the
/// bounds used here (a handful of sigmas) plain rejection is efficient.
///
/// # Example
///
/// ```
/// use mpvar_stats::{TruncatedGaussian, RngStream};
///
/// let t = TruncatedGaussian::new(0.0, 1.0, -3.0, 3.0)?;
/// let mut rng = RngStream::from_seed(9);
/// for _ in 0..1000 {
///     let x = t.sample(&mut rng)?;
///     assert!((-3.0..=3.0).contains(&x));
/// }
/// # Ok::<(), mpvar_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncatedGaussian {
    inner: Gaussian,
    lo: f64,
    hi: f64,
}

/// Maximum rejection attempts before [`TruncatedGaussian::sample`] gives up.
const REJECTION_BUDGET: usize = 100_000;

impl TruncatedGaussian {
    /// Creates a truncated Gaussian on `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Propagates [`Gaussian::new`] errors; additionally returns
    /// [`StatsError::EmptyInterval`] when `lo >= hi`.
    pub fn new(mean: f64, sigma: f64, lo: f64, hi: f64) -> Result<Self, StatsError> {
        let inner = Gaussian::new(mean, sigma)?;
        ensure_finite("lo", lo)?;
        ensure_finite("hi", hi)?;
        if lo >= hi {
            return Err(StatsError::EmptyInterval { lo, hi });
        }
        Ok(Self { inner, lo, hi })
    }

    /// The untruncated parent distribution.
    pub fn parent(&self) -> Gaussian {
        self.inner
    }

    /// Truncation bounds `(lo, hi)`.
    pub fn bounds(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Draws one deviate in `[lo, hi]`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::RejectionBudgetExhausted`] if the acceptance
    /// region is so far in the tail that 100 000 attempts all miss.
    pub fn sample(&self, rng: &mut RngStream) -> Result<f64, StatsError> {
        for _ in 0..REJECTION_BUDGET {
            let x = self.inner.sample(rng);
            if x >= self.lo && x <= self.hi {
                return Ok(x);
            }
        }
        Err(StatsError::RejectionBudgetExhausted {
            attempts: REJECTION_BUDGET,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::descriptive::Summary;

    #[test]
    fn gaussian_rejects_bad_sigma() {
        assert!(matches!(
            Gaussian::new(0.0, 0.0),
            Err(StatsError::NonPositiveScale { .. })
        ));
        assert!(matches!(
            Gaussian::new(0.0, -1.0),
            Err(StatsError::NonPositiveScale { .. })
        ));
        assert!(matches!(
            Gaussian::new(f64::NAN, 1.0),
            Err(StatsError::NonFinite { .. })
        ));
    }

    #[test]
    fn gaussian_moments_match() {
        let g = Gaussian::new(2.0, 0.5).unwrap();
        let mut rng = RngStream::from_seed(17);
        let s: Summary = (0..200_000).map(|_| g.sample(&mut rng)).collect();
        assert!((s.mean() - 2.0).abs() < 0.01, "mean {}", s.mean());
        assert!((s.std_dev() - 0.5).abs() < 0.01, "std {}", s.std_dev());
    }

    #[test]
    fn cdf_is_half_at_mean_and_monotone() {
        let g = Gaussian::new(1.0, 2.0).unwrap();
        assert!((g.cdf(1.0) - 0.5).abs() < 1e-7);
        assert!(g.cdf(0.0) < g.cdf(1.0));
        assert!(g.cdf(3.0) > g.cdf(1.0));
        // ~99.73% within 3 sigma.
        let p3 = g.cdf(7.0) - g.cdf(-5.0);
        assert!((p3 - 0.9973).abs() < 1e-3);
    }

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-8);
        assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-6);
        assert!((erf(3.0) - 0.9999779095030014).abs() < 1e-6);
    }

    #[test]
    fn erfc_relative_accuracy_in_deep_tail() {
        // Reference values (Mathematica / mpmath, 16 digits).
        let cases = [
            (0.0, 1.0),
            (1.0, 0.157_299_207_050_285_13),
            (2.0, 4.677_734_981_063_127e-3),
            (3.0, 2.209_049_699_858_544e-5),
            (4.0, 1.541_725_790_028_002e-8),
            (5.0, 1.537_459_794_428_035e-12),
        ];
        for (x, truth) in cases {
            let rel = (erfc(x) - truth).abs() / truth;
            assert!(rel < 2e-7, "erfc({x}) rel err {rel}");
        }
        // Symmetry: erfc(-x) = 2 - erfc(x).
        assert!((erfc(-1.0) - (2.0 - erfc(1.0))).abs() < 1e-12);
    }

    #[test]
    fn normal_tail_reference_values() {
        // Q(z) for z = 0..6; Q(4.753424) = 1e-6 is the planted 6σ-style case.
        assert!((normal_tail(0.0) - 0.5).abs() < 1e-7);
        let q3 = normal_tail(3.0);
        assert!((q3 - 1.349_898_031_630_095e-3).abs() / q3 < 2e-7);
        let q6 = normal_tail(6.0);
        assert!((q6 - 9.865_876_450_376_946e-10).abs() / q6 < 2e-6, "{q6}");
    }

    #[test]
    fn inverse_normal_cdf_round_trips() {
        for &p in &[1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 0.975, 1.0 - 1e-6] {
            let z = inverse_normal_cdf(p).unwrap();
            let back = 1.0 - normal_tail(z);
            assert!(
                (back - p).abs() / p.min(1.0 - p) < 1e-6,
                "p={p} z={z} back={back}"
            );
        }
        // The classic 97.5% critical value.
        let z975 = inverse_normal_cdf(0.975).unwrap();
        assert!((z975 - 1.959_963_984_540_054).abs() < 1e-6);
        assert!(inverse_normal_cdf(0.0).is_err());
        assert!(inverse_normal_cdf(1.0).is_err());
        assert!(inverse_normal_cdf(f64::NAN).is_err());
    }

    #[test]
    fn truncated_respects_bounds() {
        let t = TruncatedGaussian::new(0.0, 1.0, -1.0, 1.0).unwrap();
        let mut rng = RngStream::from_seed(3);
        for _ in 0..5_000 {
            let x = t.sample(&mut rng).unwrap();
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn truncated_rejects_empty_interval() {
        assert!(matches!(
            TruncatedGaussian::new(0.0, 1.0, 2.0, 2.0),
            Err(StatsError::EmptyInterval { .. })
        ));
    }

    #[test]
    fn truncated_budget_exhaustion_in_far_tail() {
        // Acceptance probability ~ 1e-89: must error out, not hang forever.
        let t = TruncatedGaussian::new(0.0, 1.0, 20.0, 21.0).unwrap();
        let mut rng = RngStream::from_seed(3);
        assert!(matches!(
            t.sample(&mut rng),
            Err(StatsError::RejectionBudgetExhausted { .. })
        ));
    }
}
