//! The lane-group bootstrap gives the bits of a one-resample-at-a-time
//! reference: resample `k` from substream `k`, its σ from a full
//! `Summary`, then the NaN screen, the sort and `quantile_sorted`.
//! Resample counts straddle the eight-lane group (1, 7, 8, 9, 300), and
//! the data may carry an infinity or a NaN.

use proptest::prelude::*;

use mpvar_stats::percentile::quantile_sorted;
use mpvar_stats::{bootstrap_sigma_ci, BootstrapCi, Gaussian, RngStream, StatsError, Summary};

/// The one-resample-at-a-time percentile bootstrap of σ.
fn reference(
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
    let n = data.len();
    let base = RngStream::from_seed(seed);
    let mut stats: Vec<f64> = (0..resamples)
        .map(|k| {
            let mut rng = base.substream(k as u64);
            let s: Summary = (0..n)
                .map(|_| data[((rng.next_f64() * n as f64) as usize).min(n - 1)])
                .collect();
            s.std_dev()
        })
        .collect();
    if stats.iter().any(|x| x.is_nan()) {
        return Err(StatsError::NonFinite {
            name: "data",
            value: f64::NAN,
        });
    }
    stats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let alpha = 1.0 - confidence;
    Ok(BootstrapCi {
        estimate: data.iter().copied().collect::<Summary>().std_dev(),
        lo: quantile_sorted(&stats, alpha / 2.0)?,
        hi: quantile_sorted(&stats, 1.0 - alpha / 2.0)?,
        confidence,
        resamples,
    })
}

/// A result as comparable bits (a NaN estimate equals itself), or the
/// error's rendering.
fn bits(r: Result<BootstrapCi, StatsError>) -> Result<[u64; 5], String> {
    r.map(|ci| {
        [
            ci.estimate.to_bits(),
            ci.lo.to_bits(),
            ci.hi.to_bits(),
            ci.confidence.to_bits(),
            ci.resamples as u64,
        ]
    })
    .map_err(|e| format!("{e:?}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lane_bootstrap_matches_scalar_reference(
        n in 8usize..3001,
        resamples in prop::sample::select(vec![1usize, 7, 8, 9, 300]),
        seed in any::<u64>(),
        data_seed in any::<u64>(),
        scale_exp in -6i32..7,
        confidence in prop::sample::select(vec![0.5, 0.9, 0.95, 0.99]),
        special in prop::sample::select(vec![
            None,
            Some(f64::INFINITY),
            Some(f64::NEG_INFINITY),
            Some(f64::NAN),
        ]),
        slot in 0usize..3000,
    ) {
        let scale = 10f64.powi(scale_exp);
        let g = Gaussian::new(3.0 * scale, scale).unwrap();
        let mut rng = RngStream::from_seed(data_seed);
        let mut data: Vec<f64> = (0..n).map(|_| g.sample(&mut rng)).collect();
        if let Some(v) = special {
            data[slot % n] = v;
        }
        prop_assert_eq!(
            bits(bootstrap_sigma_ci(&data, resamples, confidence, seed)),
            bits(reference(&data, resamples, confidence, seed))
        );
    }
}

#[test]
fn validation_errors_match_the_reference() {
    let data: Vec<f64> = (0..20).map(f64::from).collect();
    for (xs, resamples, confidence) in [
        (&data[..7], 10, 0.95),
        (&data[..], 0, 0.95),
        (&data[..], 10, 0.0),
        (&data[..], 10, 1.0),
        (&data[..], 10, f64::NAN),
    ] {
        let got = bits(bootstrap_sigma_ci(xs, resamples, confidence, 3));
        assert!(got.is_err());
        assert_eq!(got, bits(reference(xs, resamples, confidence, 3)));
    }
}
