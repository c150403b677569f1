//! The metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Each [`crate::Collector`] owns one `MetricsRegistry`; the free
//! functions in [`crate::collector`] fan updates out to every active
//! collector. Metrics are cumulative over a collector's lifetime and
//! are delivered to sinks as one [`MetricsSnapshot`] when the collector
//! session ends.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// One metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonic sum of deltas.
    Counter(u64),
    /// Last set value.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(HistogramMetric),
}

/// A fixed-bucket histogram: `bounds` are the ascending bucket edges,
/// `counts[i]` tallies values in `[bounds[i], bounds[i + 1])`, with
/// dedicated underflow/overflow tallies outside the edge range.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramMetric {
    /// Ascending bucket edges (`counts.len() + 1` entries).
    pub bounds: Vec<f64>,
    /// Per-bucket tallies.
    pub counts: Vec<u64>,
    /// Values below the first edge.
    pub underflow: u64,
    /// Values at or above the last edge.
    pub overflow: u64,
    /// Sum of all recorded values (including under/overflow).
    pub sum: f64,
    /// Number of recorded values.
    pub count: u64,
}

impl HistogramMetric {
    /// An empty histogram over `bounds` (ascending bucket edges;
    /// `bounds.len() - 1` buckets).
    ///
    /// Public so consumers outside the registry — the serve-side
    /// latency telemetry, trace analytics — can accumulate their own
    /// histograms and share [`HistogramMetric::quantile`].
    pub fn with_bounds(bounds: &[f64]) -> Self {
        HistogramMetric {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len().saturating_sub(1)],
            underflow: 0,
            overflow: 0,
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one value into its bucket (or the under/overflow tally).
    pub fn record(&mut self, value: f64) {
        self.sum += value;
        self.count += 1;
        let Some((&first, &last)) = self.bounds.first().zip(self.bounds.last()) else {
            return;
        };
        if value < first {
            self.underflow += 1;
        } else if value >= last {
            self.overflow += 1;
        } else {
            // partition_point gives the count of edges <= value; the
            // bucket index is that count minus one.
            let idx = self.bounds.partition_point(|&b| b <= value) - 1;
            self.counts[idx] += 1;
        }
    }

    /// Mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile of the recorded distribution, linearly
    /// interpolated inside the bucket the target rank lands in (the
    /// values of a bucket are assumed uniform over `[lo, hi)`).
    ///
    /// Defined behavior at the edges (p0/p100 semantics pinned):
    ///
    /// * empty histogram (`count == 0`), no bucket geometry
    ///   (`bounds.len() < 2`), or a NaN `q` → `None`;
    /// * `q` outside `[0, 1]` is clamped;
    /// * a rank landing in the **underflow** tally returns the first
    ///   edge (an upper bound on the true quantile — the histogram only
    ///   knows those values were below it); an all-underflow histogram
    ///   therefore returns the first edge for *every* `q`, p0 and p100
    ///   included;
    /// * a rank landing in the **overflow** tally returns the last
    ///   edge (a lower bound, symmetrically); an all-overflow histogram
    ///   returns the last edge for every `q`;
    /// * `q = 0.0` with `underflow == 0` returns the lower edge of the
    ///   first populated bucket, and `q = 1.0` with `overflow == 0`
    ///   returns the upper edge of the last populated bucket — the walk
    ///   never escapes past a populated bucket unless real overflow
    ///   mass exists, even when floating-point accumulation or an
    ///   inconsistent parsed entry (`count` ≠ tallies) would otherwise
    ///   push the target rank beyond the cumulative sum.
    ///
    /// Monotone in `q` by construction: the target rank is monotone,
    /// buckets are walked in ascending-edge order, and interpolation
    /// inside a bucket is monotone (clamped to the bucket).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let (bounds, counts, underflow, count) =
            (&self.bounds, &self.counts, self.underflow, self.count);
        if count == 0 || bounds.len() < 2 || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * count as f64;
        let mut cum = underflow as f64;
        if underflow > 0 && target <= cum {
            return Some(bounds[0]);
        }
        let mut last_upper = None;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c as f64;
            if target <= next {
                // Clamped so an inconsistent `count` (parsed entries) can't
                // extrapolate past the bucket.
                let frac = ((target - cum) / c as f64).clamp(0.0, 1.0);
                return Some(bounds[i] + frac * (bounds[i + 1] - bounds[i]));
            }
            cum = next;
            last_upper = Some(bounds[i + 1]);
        }
        // The walk is exhausted. The remaining rank lives in the overflow
        // tally only if one actually exists (implied by the tallies, which
        // keeps parsed entries honest); otherwise the top of the last
        // populated bucket is the tightest defensible answer, falling back
        // to the first edge for all-underflow histograms.
        let in_buckets: u64 = counts.iter().sum();
        if count > underflow.saturating_add(in_buckets) {
            return bounds.last().copied();
        }
        last_upper.or(Some(bounds[0]))
    }
}

crate::json_record! { HistogramMetric { bounds, counts, underflow, overflow, sum, count } }

/// The cumulative metrics of one collector session, name-keyed.
pub type MetricsSnapshot = BTreeMap<String, Metric>;

/// A registry of named metrics, safe for concurrent update.
#[derive(Debug, Default)]
pub(crate) struct MetricsRegistry {
    inner: Mutex<BTreeMap<&'static str, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `name` (created at 0 on first use).
    ///
    /// A name registered under a different metric kind is left
    /// untouched: the first kind wins.
    pub fn counter_add(&self, name: &'static str, delta: u64) {
        let mut inner = self.lock();
        if let Metric::Counter(v) = inner.entry(name).or_insert(Metric::Counter(0)) {
            *v += delta;
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        let mut inner = self.lock();
        if let Metric::Gauge(v) = inner.entry(name).or_insert(Metric::Gauge(value)) {
            *v = value;
        }
    }

    /// Records `values` into the fixed-bucket histogram `name`,
    /// creating it with `bounds` (ascending edges) on first use. Later
    /// calls reuse the original bounds.
    pub fn histogram_record(&self, name: &'static str, bounds: &[f64], values: &[f64]) {
        let mut inner = self.lock();
        if let Metric::Histogram(h) = inner
            .entry(name)
            .or_insert_with(|| Metric::Histogram(HistogramMetric::with_bounds(bounds)))
        {
            for &v in values {
                h.record(v);
            }
        }
    }

    /// A snapshot of every metric, name-keyed.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.lock()
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<&'static str, Metric>> {
        self.inner.lock().expect("metrics registry lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        r.counter_add("b", 1);
        let snap = r.snapshot();
        assert_eq!(snap["a"], Metric::Counter(5));
        assert_eq!(snap["b"], Metric::Counter(1));
    }

    #[test]
    fn gauges_keep_last_value() {
        let r = MetricsRegistry::new();
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 2.5);
        assert_eq!(r.snapshot()["g"], Metric::Gauge(2.5));
    }

    #[test]
    fn histogram_bucketing_with_under_and_overflow() {
        let r = MetricsRegistry::new();
        let bounds = [0.0, 1.0, 2.0, 3.0];
        r.histogram_record("h", &bounds, &[-0.5, 0.0, 0.9, 1.0, 2.99, 3.0, 10.0]);
        let Metric::Histogram(h) = &r.snapshot()["h"] else {
            panic!("histogram expected");
        };
        assert_eq!(h.counts, vec![2, 1, 1]);
        assert_eq!(h.underflow, 1);
        assert_eq!(h.overflow, 2);
        assert_eq!(h.count, 7);
        assert!((h.sum - 17.39).abs() < 1e-9);
    }

    #[test]
    fn quantile_interpolates_and_defines_the_edges() {
        let mut h = HistogramMetric::with_bounds(&[0.0, 10.0, 20.0]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for v in [2.0, 4.0, 6.0, 8.0, 12.0] {
            h.record(v);
        }
        // Rank 2.5 of 5 lands in the first bucket (4 values): lerp at
        // 2.5/4 of [0, 10).
        let p50 = h.quantile(0.5).expect("quantile");
        assert!((p50 - 6.25).abs() < 1e-12, "p50 = {p50}");
        // q is clamped; 1.0 is the top of the last populated bucket.
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), None);
        // Underflow/overflow ranks pin to the first/last edge.
        h.record(-5.0);
        h.record(99.0);
        assert_eq!(h.quantile(0.0), Some(0.0), "underflow rank → first edge");
        assert_eq!(h.quantile(1.0), Some(20.0), "overflow rank → last edge");
    }

    #[test]
    fn quantile_without_bucket_geometry_is_none() {
        let mut h = HistogramMetric::with_bounds(&[]);
        h.record(1.0);
        assert_eq!(h.count, 1);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantile_zero_lands_on_the_first_populated_bucket() {
        let mut h = HistogramMetric::with_bounds(&[0.0, 1.0, 2.0, 3.0]);
        h.record(2.5);
        assert_eq!(h.quantile(0.0), Some(2.0));
        assert_eq!(h.quantile(1.0), Some(3.0));
    }

    #[test]
    fn all_underflow_pins_every_quantile_to_the_first_edge() {
        let mut h = HistogramMetric::with_bounds(&[0.0, 1.0, 2.0]);
        h.record(-3.0);
        h.record(-1.0);
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(0.0), "q = {q}");
        }
    }

    #[test]
    fn all_overflow_pins_every_quantile_to_the_last_edge() {
        let mut h = HistogramMetric::with_bounds(&[0.0, 1.0, 2.0]);
        h.record(5.0);
        h.record(9.0);
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(h.quantile(q), Some(2.0), "q = {q}");
        }
    }

    #[test]
    fn p100_without_overflow_tops_the_last_populated_bucket() {
        // Last *populated* bucket is [1, 2); the empty [2, 3) bucket
        // beyond it must not pull p100 out to the global last edge.
        let mut h = HistogramMetric::with_bounds(&[0.0, 1.0, 2.0, 3.0]);
        h.record(0.5);
        h.record(1.5);
        assert_eq!(h.quantile(1.0), Some(2.0));
        assert_eq!(h.overflow, 0);
    }

    #[test]
    fn inconsistent_parsed_count_cannot_extrapolate_past_the_buckets() {
        // A hand-built (parsed) entry whose `count` exceeds its tallies:
        // the leftover rank implies overflow, so the walk pins to the
        // last edge instead of running off the end or extrapolating.
        let parsed = HistogramMetric {
            counts: vec![1, 0],
            count: 5,
            ..HistogramMetric::with_bounds(&[0.0, 1.0, 2.0])
        };
        assert_eq!(parsed.quantile(1.0), Some(2.0));
        // And mid-bucket ranks stay clamped inside their bucket.
        assert_eq!(parsed.quantile(0.2), Some(1.0));
    }

    #[test]
    fn histogram_bounds_are_fixed_by_first_call() {
        let r = MetricsRegistry::new();
        r.histogram_record("h", &[0.0, 10.0], &[5.0]);
        r.histogram_record("h", &[0.0, 1.0, 2.0], &[0.5]);
        let Metric::Histogram(h) = &r.snapshot()["h"] else {
            panic!("histogram expected");
        };
        assert_eq!(h.bounds, vec![0.0, 10.0]);
        assert_eq!(h.count, 2);
    }
}
