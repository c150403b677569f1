//! Order statistics the benchmark reports: medians and quartiles over
//! repeated measurements, and the tail-percentile rule for latencies.

/// Median and quartiles of a sample, plus its extremes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Spread {
    /// Summarizes `values` (any order). `None` when empty.
    ///
    /// The quartiles follow Python's `statistics.quantiles(values, n=4)`
    /// (the "exclusive" method), so a spread computed here matches one
    /// computed from the printed values with the standard library.
    pub fn of(values: &[f64]) -> Option<Spread> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let (p25, p75) = if sorted.len() == 1 {
            (min, max)
        } else {
            (quartile(&sorted, 1), quartile(&sorted, 3))
        };
        Some(Spread {
            median: median_sorted(&sorted),
            p25,
            p75,
            min,
            max,
            n: sorted.len(),
        })
    }

    /// Interquartile distance as a share of the median (0 for a single
    /// sample or a zero median).
    pub fn rel_iqr(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.p75 - self.p25) / self.median.abs()
        }
    }
}

/// Median of `values` (any order). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Spread::of(values).map(|s| s.median)
}

fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The `i`-th of the three cut points of `statistics.quantiles(n=4)`
/// over at least two sorted values.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let len = sorted.len();
    let m = len + 1;
    let j = (i * m / 4).clamp(1, len - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// The highest whole percentile with at least ten samples beyond it,
/// for a sample of `n` latencies: p90 of 100, p98 of 500. `None` below
/// eleven samples, where no percentile has ten samples beyond it.
pub fn tail_percentile(n: usize) -> Option<usize> {
    (n >= 11).then(|| 100 * (n - 10) / n)
}

/// The nearest-rank `pct`-th percentile of `values` (any order): the
/// smallest sample with at least `pct`% of the sample at or below it.
pub fn percentile(values: &[f64], pct: usize) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (pct * sorted.len()).div_ceil(100).max(1);
    sorted.get(rank - 1).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(500), Some(98));
        assert_eq!(tail_percentile(105), Some(90));
        assert_eq!(tail_percentile(210), Some(95));
        for n in 0..11 {
            assert_eq!(tail_percentile(n), None, "n = {n}");
        }
        for n in [11, 20, 57, 100, 105, 210, 500, 1000] {
            let pct = tail_percentile(n).expect("enough samples");
            let values: Vec<f64> = (0..n).map(|v| v as f64).collect();
            let at = percentile(&values, pct).expect("non-empty");
            let beyond = values.iter().filter(|&&v| v > at).count();
            assert!(beyond >= 10, "n = {n}: p{pct} leaves {beyond} beyond");
            let next = percentile(&values, pct + 1).expect("non-empty");
            let beyond_next = values.iter().filter(|&&v| v > next).count();
            assert!(beyond_next < 10, "n = {n}: p{pct} is not the highest");
        }
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&values).expect("non-empty");
        assert_eq!((s.p25, s.median, s.p75), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.p25, s.median, s.p75), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Spread::of(&[1.0, 2.0]).expect("non-empty");
        assert_eq!((s.p25, s.median, s.p75), (0.75, 1.5, 2.25));
        let s = Spread::of(&[4.0]).expect("non-empty");
        assert_eq!((s.p25, s.median, s.p75, s.rel_iqr()), (4.0, 4.0, 4.0, 0.0));
        assert!(Spread::of(&[]).is_none());
    }
}
