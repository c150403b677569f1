//! Single-pass descriptive statistics (Welford's online algorithm).

use crate::error::StatsError;

/// Online summary statistics: count, mean, variance, extrema and
/// skewness.
///
/// Values are accumulated with Welford's numerically stable one-pass
/// update (extended to the third central moment), so summaries of
/// millions of Monte-Carlo trials never need to buffer samples.
///
/// # Example
///
/// ```
/// use mpvar_stats::Summary;
///
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.std_dev() - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The raw accumulator state `(n, mean, m2, m3, min, max)` —
    /// the exact running-moment internals, exposed so persistence
    /// layers can store a summary bit-exactly instead of re-pushing
    /// samples (whose accumulation order would have to be replayed).
    pub fn raw_moments(&self) -> (u64, f64, f64, f64, f64, f64) {
        (self.n, self.mean, self.m2, self.m3, self.min, self.max)
    }

    /// Rebuilds a summary from [`Summary::raw_moments`] output. Values
    /// are taken verbatim (no validation), so feed this only state that
    /// came from a real summary.
    pub fn from_raw_moments(parts: (u64, f64, f64, f64, f64, f64)) -> Summary {
        let (n, mean, m2, m3, min, max) = parts;
        Summary {
            n,
            mean,
            m2,
            m3,
            min,
            max,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let (delta_n, term1) = welford_step(&mut self.mean, x, n1, n);
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another summary into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let na = self.n as f64;
        let nb = other.n as f64;
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;

        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;

        self.mean += delta * nb / n;
        self.m2 = m2;
        self.m3 = m3;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean. Returns NaN for an empty summary.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (`n - 1` denominator).
    ///
    /// Returns NaN with fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            f64::NAN
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Unbiased sample variance, or an error with fewer than two samples.
    ///
    /// # Errors
    ///
    /// [`StatsError::InsufficientSamples`] if `count < 2`.
    pub(crate) fn try_variance(&self) -> Result<f64, StatsError> {
        if self.n < 2 {
            Err(StatsError::InsufficientSamples {
                needed: 2,
                got: self.n as usize,
            })
        } else {
            Ok(self.m2 / (self.n as f64 - 1.0))
        }
    }

    /// Unbiased sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample skewness (Fisher–Pearson `g1`).
    pub fn skewness(&self) -> f64 {
        if self.n < 3 || self.m2 == 0.0 {
            f64::NAN
        } else {
            let n = self.n as f64;
            (n.sqrt() * self.m3) / self.m2.powf(1.5)
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Range `max - min`.
    pub fn range(&self) -> f64 {
        self.max - self.min
    }

    /// `true` when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

/// The mean update of Welford's algorithm for the `n`-th observation
/// `x` (`n1 = n - 1` came before): moves `mean` and returns
/// `(delta_n, term1)`, where `term1` is the observation's `m2`
/// increment. [`Summary::push`] and the bootstrap's lane loop both step
/// through here, so their `mean` and `m2` cannot drift apart.
#[inline]
pub(crate) fn welford_step(mean: &mut f64, x: f64, n1: f64, n: f64) -> (f64, f64) {
    let delta = x - *mean;
    let delta_n = delta / n;
    let term1 = delta * delta_n * n1;
    *mean += delta_n;
    (delta_n, term1)
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.6e} std={:.6e} min={:.6e} max={:.6e}",
            self.n,
            self.mean(),
            self.std_dev(),
            self.min,
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_moments(xs: &[f64]) -> (f64, f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let m2 = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let m3 = xs.iter().map(|x| (x - mean).powi(3)).sum::<f64>() / n;
        let skew = m3 / m2.powf(1.5);
        (mean, var, skew)
    }

    #[test]
    fn matches_two_pass_reference() {
        let xs: Vec<f64> = (0..500)
            .map(|i| ((i * 37 % 101) as f64).sin() * 3.0 + 1.0)
            .collect();
        let s: Summary = xs.iter().copied().collect();
        let (mean, var, skew) = reference_moments(&xs);
        assert!((s.mean() - mean).abs() < 1e-10);
        assert!((s.variance() - var).abs() < 1e-9);
        assert!((s.skewness() - skew).abs() < 1e-8);
    }

    #[test]
    fn empty_summary_behaviour() {
        let s = Summary::new();
        assert!(s.is_empty());
        assert!(s.mean().is_nan());
        assert!(s.variance().is_nan());
        assert!(matches!(
            s.try_variance(),
            Err(StatsError::InsufficientSamples { needed: 2, got: 0 })
        ));
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.push(5.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 5.0);
        assert!(s.variance().is_nan());
        assert_eq!(s.min(), 5.0);
        assert_eq!(s.max(), 5.0);
        assert_eq!(s.range(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.7).cos() * 2.0).collect();
        let seq: Summary = xs.iter().copied().collect();
        let mut a: Summary = xs[..300].iter().copied().collect();
        let b: Summary = xs[300..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-12);
        assert!((a.variance() - seq.variance()).abs() < 1e-10);
        assert!((a.skewness() - seq.skewness()).abs() < 1e-9);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let xs = [1.0, 2.0, 3.0];
        let mut s: Summary = xs.into_iter().collect();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s, before);

        let mut empty = Summary::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn constant_data_has_zero_variance() {
        let s: Summary = std::iter::repeat_n(4.2, 100).collect();
        assert!(s.variance().abs() < 1e-24);
        assert!(s.skewness().is_nan());
    }

    #[test]
    fn display_contains_fields() {
        let s: Summary = [1.0, 2.0].into_iter().collect();
        let txt = s.to_string();
        assert!(txt.contains("n=2"));
        assert!(txt.contains("mean="));
    }

    #[test]
    fn extend_accumulates() {
        let mut s = Summary::new();
        s.extend([1.0, 2.0]);
        s.extend([3.0]);
        assert_eq!(s.count(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }
}
