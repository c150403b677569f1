//! Fixed-bin histograms with CSV and ASCII rendering.
//!
//! Used to regenerate the paper's Fig. 5 (Monte-Carlo distribution of the
//! read-time penalty for each patterning option).

use crate::error::StatsError;

/// A histogram over `[lo, hi)` with equally sized bins plus underflow and
/// overflow counters.
///
/// # Example
///
/// ```
/// use mpvar_stats::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5)?;
/// for x in [0.5, 1.5, 2.5, 2.6, 9.9, -1.0, 11.0] {
///     h.record(x);
/// }
/// assert_eq!(h.iter().nth(1), Some((3.0, 2))); // [2,4) holds 2.5 and 2.6
/// assert_eq!(h.underflow(), 1);
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 7);
/// # Ok::<(), mpvar_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram over `[lo, hi)` with `nbins` equal bins.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidHistogram`] if `nbins == 0`, bounds are not
    /// finite, or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Result<Self, StatsError> {
        if nbins == 0 {
            return Err(StatsError::InvalidHistogram {
                reason: "bin count must be nonzero".into(),
            });
        }
        if !lo.is_finite() || !hi.is_finite() {
            return Err(StatsError::InvalidHistogram {
                reason: format!("bounds must be finite, got [{lo}, {hi})"),
            });
        }
        if lo >= hi {
            return Err(StatsError::InvalidHistogram {
                reason: format!("lower bound {lo} must be below upper bound {hi}"),
            });
        }
        Ok(Self {
            lo,
            hi,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
        })
    }

    /// Builds a histogram sized to cover `data` (min..max padded by 1%)
    /// and records every value.
    ///
    /// # Errors
    ///
    /// [`StatsError::InsufficientSamples`] for an empty slice;
    /// [`StatsError::InvalidHistogram`] when all values are identical or
    /// non-finite (the range would be degenerate).
    pub fn from_data(data: &[f64], nbins: usize) -> Result<Self, StatsError> {
        if data.is_empty() {
            return Err(StatsError::InsufficientSamples { needed: 1, got: 0 });
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &x in data {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if !lo.is_finite() || !hi.is_finite() || lo == hi {
            return Err(StatsError::InvalidHistogram {
                reason: format!("degenerate data range [{lo}, {hi}]"),
            });
        }
        let pad = (hi - lo) * 0.01;
        let mut h = Self::new(lo - pad, hi + pad, nbins)?;
        for &x in data {
            h.record(x);
        }
        Ok(h)
    }

    /// Records a single observation.
    ///
    /// Values below `lo` increment the underflow counter, values at or
    /// above `hi` increment the overflow counter; NaN values count as
    /// overflow so mass is never silently dropped.
    pub fn record(&mut self, x: f64) {
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi || x.is_nan() {
            self.overflow += 1;
        } else {
            let w = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((x - self.lo) / w) as usize;
            // Guard against a floating rounding landing exactly on len().
            let idx = idx.min(self.bins.len() - 1);
            self.bins[idx] += 1;
        }
    }

    /// Half-open range `[lo, hi)` covered by bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a bin index.
    pub(crate) fn bin_range(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins.len(), "bin index out of range");
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + w * i as f64, self.lo + w * (i + 1) as f64)
    }

    /// Center value of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not a bin index.
    pub(crate) fn bin_center(&self, i: usize) -> f64 {
        let (a, b) = self.bin_range(i);
        0.5 * (a + b)
    }

    /// Observations below the histogram range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at/above the histogram range (including NaN).
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total number of recorded observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Count inside the histogram range.
    pub fn in_range(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Iterator over `(bin_center, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        (0..self.bins.len()).map(move |i| (self.bin_center(i), self.bins[i]))
    }

    /// Normalized bin heights (probability density estimate). Sums to
    /// `in_range / total / bin_width` over the range.
    pub fn density(&self) -> Vec<f64> {
        let total = self.total() as f64;
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.bins
            .iter()
            .map(|&c| {
                if total == 0.0 {
                    0.0
                } else {
                    c as f64 / (total * w)
                }
            })
            .collect()
    }

    /// Merges another histogram with identical binning.
    ///
    /// # Errors
    ///
    /// [`StatsError::InvalidHistogram`] if ranges or bin counts differ.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), StatsError> {
        if self.lo != other.lo || self.hi != other.hi || self.bins.len() != other.bins.len() {
            return Err(StatsError::InvalidHistogram {
                reason: "cannot merge histograms with different binning".into(),
            });
        }
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a += b;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        Ok(())
    }

    /// Renders the histogram as CSV: `bin_lo,bin_hi,count` rows with a
    /// header, suitable for plotting the paper's Fig. 5.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("bin_lo,bin_hi,count\n");
        for i in 0..self.bins.len() {
            let (a, b) = self.bin_range(i);
            out.push_str(&format!("{a},{b},{}\n", self.bins[i]));
        }
        out
    }

    /// Renders a simple ASCII bar chart, `width` characters at the mode.
    pub fn to_ascii(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0);
        let mut out = String::new();
        for i in 0..self.bins.len() {
            let (a, b) = self.bin_range(i);
            let bar = if max == 0 {
                0
            } else {
                (self.bins[i] as usize * width) / max as usize
            };
            out.push_str(&format!(
                "[{a:>10.4}, {b:>10.4}) |{}{} {}\n",
                "#".repeat(bar),
                " ".repeat(width.saturating_sub(bar)),
                self.bins[i]
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructor_validation() {
        assert!(Histogram::new(0.0, 1.0, 0).is_err());
        assert!(Histogram::new(1.0, 1.0, 4).is_err());
        assert!(Histogram::new(2.0, 1.0, 4).is_err());
        assert!(Histogram::new(f64::NAN, 1.0, 4).is_err());
        assert!(Histogram::new(0.0, f64::INFINITY, 4).is_err());
        assert!(Histogram::new(0.0, 1.0, 4).is_ok());
    }

    #[test]
    fn mass_is_conserved() {
        let mut h = Histogram::new(-1.0, 1.0, 10).unwrap();
        let xs: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.137).sin() * 2.0).collect();
        for &x in &xs {
            h.record(x);
        }
        assert_eq!(h.total(), xs.len() as u64);
        assert_eq!(h.in_range() + h.underflow() + h.overflow(), h.total());
    }

    #[test]
    fn bin_assignment_edges() {
        let mut h = Histogram::new(0.0, 10.0, 10).unwrap();
        h.record(0.0); // first bin, inclusive lower edge
        h.record(9.999); // last bin
        h.record(10.0); // overflow (half-open upper edge)
        let counts: Vec<u64> = h.iter().map(|(_, c)| c).collect();
        assert_eq!((counts[0], counts[9]), (1, 1));
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn nan_counts_as_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2).unwrap();
        h.record(f64::NAN);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn from_data_covers_everything() {
        let xs: Vec<f64> = (0..256).map(|i| i as f64 * 0.31 - 20.0).collect();
        let h = Histogram::from_data(&xs, 16).unwrap();
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.in_range(), xs.len() as u64);
    }

    #[test]
    fn from_data_rejects_degenerate() {
        assert!(Histogram::from_data(&[], 4).is_err());
        assert!(Histogram::from_data(&[1.0, 1.0, 1.0], 4).is_err());
        assert!(Histogram::from_data(&[f64::NAN, 1.0], 4).is_err());
    }

    #[test]
    fn density_integrates_to_one_when_in_range() {
        let xs: Vec<f64> = (0..1000).map(|i| (i % 97) as f64 / 97.0).collect();
        let h = Histogram::from_data(&xs, 20).unwrap();
        let w = (h.bin_range(0).1 - h.bin_range(0).0).abs();
        let integral: f64 = h.density().iter().map(|d| d * w).sum();
        assert!((integral - 1.0).abs() < 1e-9, "integral {integral}");
    }

    #[test]
    fn merge_requires_same_binning() {
        let mut a = Histogram::new(0.0, 1.0, 4).unwrap();
        let b = Histogram::new(0.0, 1.0, 5).unwrap();
        assert!(a.merge(&b).is_err());

        let mut c = Histogram::new(0.0, 1.0, 4).unwrap();
        let mut d = Histogram::new(0.0, 1.0, 4).unwrap();
        c.record(0.1);
        d.record(0.1);
        d.record(2.0);
        c.merge(&d).unwrap();
        assert_eq!(c.iter().next().map(|(_, n)| n), Some(2));
        assert_eq!(c.overflow(), 1);
    }

    #[test]
    fn csv_and_ascii_render() {
        let mut h = Histogram::new(0.0, 2.0, 2).unwrap();
        h.record(0.5);
        h.record(1.5);
        h.record(1.6);
        let csv = h.to_csv();
        assert!(csv.starts_with("bin_lo,bin_hi,count\n"));
        assert_eq!(csv.lines().count(), 3);
        let ascii = h.to_ascii(20);
        assert_eq!(ascii.lines().count(), 2);
        assert!(ascii.contains('#'));
    }

    #[test]
    fn bin_centers_are_midpoints() {
        let h = Histogram::new(0.0, 4.0, 4).unwrap();
        assert!((h.bin_center(0) - 0.5).abs() < 1e-12);
        assert!((h.bin_center(3) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn iter_yields_all_bins() {
        let h = Histogram::new(0.0, 1.0, 8).unwrap();
        assert_eq!(h.iter().count(), 8);
    }
}
