//! Quantile and median estimation.

use crate::error::StatsError;

/// Computes the `q`-quantile (`0 <= q <= 1`) of `data` with linear
/// interpolation between order statistics (type-7 estimator, the default
/// in R and NumPy).
///
/// The input does not need to be sorted; a sorted copy is made internally.
///
/// # Errors
///
/// * [`StatsError::QuantileOutOfRange`] if `q` is outside `[0, 1]`;
/// * [`StatsError::InsufficientSamples`] for an empty slice;
/// * [`StatsError::NonFinite`] if the data contains NaN (quantiles of
///   unordered data are undefined).
///
/// # Example
///
/// ```
/// use mpvar_stats::quantile;
///
/// let data = [1.0, 2.0, 3.0, 4.0];
/// assert_eq!(quantile(&data, 0.0)?, 1.0);
/// assert_eq!(quantile(&data, 1.0)?, 4.0);
/// assert_eq!(quantile(&data, 0.5)?, 2.5);
/// # Ok::<(), mpvar_stats::StatsError>(())
/// ```
pub fn quantile(data: &[f64], q: f64) -> Result<f64, StatsError> {
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::QuantileOutOfRange { q });
    }
    if data.is_empty() {
        return Err(StatsError::InsufficientSamples { needed: 1, got: 0 });
    }
    if data.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NonFinite {
            name: "data",
            value: f64::NAN,
        });
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("nan filtered above"));
    Ok(quantile_sorted_unchecked(&sorted, q))
}

/// Quantile of data already sorted ascending; skips the sort and NaN scan.
///
/// # Errors
///
/// Same range/emptiness checks as [`quantile`]; the caller is trusted on
/// sortedness (debug builds assert it).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Result<f64, StatsError> {
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::QuantileOutOfRange { q });
    }
    if sorted.is_empty() {
        return Err(StatsError::InsufficientSamples { needed: 1, got: 0 });
    }
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input not sorted");
    Ok(quantile_sorted_unchecked(sorted, q))
}

fn quantile_sorted_unchecked(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n as f64 - 1.0);
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    let frac = h - lo as f64;
    let (a, b) = (sorted[lo], sorted[hi]);
    if a.is_finite() && b.is_finite() {
        a + frac * (b - a)
    } else if frac == 0.0 || a.is_infinite() {
        // Interpolating towards or away from ±∞ would give `∞ − ∞` or
        // `0 · ∞`, both NaN; the limit is the infinite order statistic.
        a
    } else {
        b
    }
}

/// Median of `data` (the 0.5 quantile).
///
/// # Errors
///
/// Same as [`quantile`].
pub fn median(data: &[f64]) -> Result<f64, StatsError> {
    quantile(data, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_quantiles() {
        let d = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(quantile(&d, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&d, 1.0).unwrap(), 4.0);
        assert_eq!(quantile(&d, 0.5).unwrap(), 2.5);
        assert!((quantile(&d, 0.25).unwrap() - 1.75).abs() < 1e-12);
    }

    #[test]
    fn odd_length_median_is_middle() {
        assert_eq!(median(&[9.0, 1.0, 5.0]).unwrap(), 5.0);
    }

    #[test]
    fn single_element() {
        assert_eq!(quantile(&[7.0], 0.3).unwrap(), 7.0);
        assert_eq!(median(&[7.0]).unwrap(), 7.0);
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            quantile(&[1.0], 1.5),
            Err(StatsError::QuantileOutOfRange { .. })
        ));
        assert!(matches!(
            quantile(&[1.0], -0.1),
            Err(StatsError::QuantileOutOfRange { .. })
        ));
        assert!(matches!(
            quantile(&[], 0.5),
            Err(StatsError::InsufficientSamples { .. })
        ));
        assert!(matches!(
            quantile(&[1.0, f64::NAN], 0.5),
            Err(StatsError::NonFinite { .. })
        ));
    }

    #[test]
    fn sorted_variant_agrees() {
        let mut d: Vec<f64> = (0..100).map(|i| ((i * 31) % 17) as f64).collect();
        let q1 = quantile(&d, 0.37).unwrap();
        d.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q2 = quantile_sorted(&d, 0.37).unwrap();
        assert_eq!(q1, q2);
    }

    #[test]
    fn quantile_is_monotone_in_q() {
        let d: Vec<f64> = (0..50).map(|i| ((i * 7) % 13) as f64).collect();
        let mut last = f64::NEG_INFINITY;
        for k in 0..=20 {
            let q = k as f64 / 20.0;
            let v = quantile(&d, q).unwrap();
            assert!(v >= last);
            last = v;
        }
    }
}
