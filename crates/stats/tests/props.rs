//! Property-based tests of percentile and KS-test boundary behaviour:
//! single-sample inputs, ties, all-equal data, and invalid-input
//! rejection must never panic or return out-of-range statistics.

use proptest::prelude::*;

use mpvar_stats::percentile::quantile_sorted;
use mpvar_stats::{ks_test_fitted, ks_test_gaussian, median, quantile};

fn finite() -> impl Strategy<Value = f64> {
    (-1.0e6..1.0e6).prop_map(|x: f64| x)
}

proptest! {
    /// A single sample is every quantile of itself.
    #[test]
    fn single_sample_is_every_quantile(x in finite(), q in 0.0..=1.0) {
        prop_assert_eq!(quantile(&[x], q).unwrap(), x);
        prop_assert_eq!(median(&[x]).unwrap(), x);
    }

    /// All-equal data collapses every quantile to the common value, for
    /// any length.
    #[test]
    fn all_equal_data_collapses(x in finite(), n in 1usize..50, q in 0.0..=1.0) {
        let data = vec![x; n];
        prop_assert_eq!(quantile(&data, q).unwrap(), x);
    }

    /// Quantiles are bounded by the extremes, monotone in `q`, and
    /// permutation-invariant — including under heavy ties and next to
    /// an infinite order statistic.
    #[test]
    fn quantile_order_laws(
        mut data in prop::collection::vec(finite(), 1..40),
        q1 in 0.0..=1.0,
        q2 in 0.0..=1.0,
        infinity in prop::sample::select(vec![None, Some(f64::INFINITY), Some(f64::NEG_INFINITY)]),
        slot in 0usize..40,
    ) {
        // Inject ties: duplicate the first element over the first half.
        let half = data.len() / 2;
        let tie = data[0];
        for slot in data.iter_mut().take(half) {
            *slot = tie;
        }
        if let Some(inf) = infinity {
            let i = slot % data.len();
            data[i] = inf;
        }
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let vlo = quantile(&data, lo).unwrap();
        let vhi = quantile(&data, hi).unwrap();
        prop_assert!(vlo <= vhi, "quantile not monotone: {vlo} > {vhi}");
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(quantile(&data, 0.0).unwrap() == min);
        prop_assert!(quantile(&data, 1.0).unwrap() == max);
        // Permutation invariance: reversing the data changes nothing.
        let reversed: Vec<f64> = data.iter().rev().cloned().collect();
        prop_assert_eq!(quantile(&reversed, hi).unwrap(), vhi);
        // The sorted fast path agrees with the sorting path.
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(quantile_sorted(&sorted, hi).unwrap(), vhi);
    }

    /// Out-of-range `q`, empty data, and NaN are rejected as errors on
    /// every entry point, never panics.
    #[test]
    fn invalid_quantile_inputs_are_errors(x in finite(), q in 1.0001..10.0) {
        prop_assert!(quantile(&[x], q).is_err());
        prop_assert!(quantile(&[x], -q).is_err());
        prop_assert!(quantile(&[], 0.5).is_err());
        prop_assert!(quantile(&[x, f64::NAN], 0.5).is_err());
        prop_assert!(median(&[]).is_err());
    }

    /// The KS statistic and p-value stay in [0, 1] for arbitrary data
    /// with ties, and the sample-size gate sits exactly at n = 8.
    #[test]
    fn ks_statistic_and_p_are_probabilities(
        mut data in prop::collection::vec(finite(), 8..64),
        mean in -10.0..10.0,
        sigma in 0.1..10.0,
    ) {
        // Force ties to exercise the step-CDF corners.
        let tie = data[0];
        data[1] = tie;
        data[2] = tie;
        let ks = ks_test_gaussian(&data, mean, sigma).unwrap();
        prop_assert!((0.0..=1.0).contains(&ks.statistic));
        prop_assert!((0.0..=1.0).contains(&ks.p_value));
        prop_assert_eq!(ks.n, data.len());
        // One sample short of the gate: an error, not a panic.
        prop_assert!(ks_test_gaussian(&data[..7], mean, sigma).is_err());
    }

    /// All-equal data has zero sample sigma, so the fitted test must
    /// reject it as an invalid Gaussian rather than divide by zero.
    #[test]
    fn ks_fitted_rejects_degenerate_data(x in finite(), n in 8usize..40) {
        prop_assert!(ks_test_fitted(&vec![x; n]).is_err());
    }

    /// NaN poisoning is rejected by both test variants.
    #[test]
    fn ks_rejects_nan(mut data in prop::collection::vec(finite(), 8..32)) {
        data[3] = f64::NAN;
        prop_assert!(ks_test_gaussian(&data, 0.0, 1.0).is_err());
        prop_assert!(ks_test_fitted(&data).is_err());
    }
}
