//! Live serve telemetry: per-outcome request latency histograms,
//! derived gauges, and a fixed-size ring of periodic snapshot windows.
//!
//! Every answered request is classified into one of three
//! **outcomes**:
//!
//! * `warm_hit` — its wave ran zero producers (the store answered
//!   everything);
//! * `deduped` — it joined another request's in-flight wave;
//! * `cold` — its wave actually computed at least one artifact.
//!
//! Latency (submit → answer, queue time included) is recorded into a
//! log-scale histogram per outcome (1-2-5 bucket edges from 1 µs to
//! 100 s), from which [`ServeStats`] derives p50/p95/p99 via the
//! shared [`HistogramMetric::quantile`]. Two gauges summarize the
//! cache economics — `serve.cache_hit_rate` (warm hits over answered
//! waves) and `serve.dedupe_ratio` (deduped over all answered) — and
//! a ring of the last `RING_WINDOWS` per-window count snapshots
//! gives "last N windows" trends without a timer thread: windows roll
//! lazily whenever the telemetry is touched past the window length.
//!
//! Everything here is observational: recording takes one short mutex
//! hold on the answer path, and nothing feeds back into scheduling.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use mpvar_trace::json_record;
use mpvar_trace::metrics::HistogramMetric;
use mpvar_trace::sink::fmt_ns;

/// Log-scale latency bucket edges, nanoseconds: 1-2-5 per decade from
/// 1 µs to 100 s. Fine enough that interpolated quantiles are tight,
/// coarse enough that a snapshot stays one JSON line.
pub(crate) const LATENCY_BOUNDS_NS: [f64; 25] = [
    1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8, 1e9,
    2e9, 5e9, 1e10, 2e10, 5e10, 1e11,
];

/// How many closed snapshot windows the ring retains.
pub(crate) const RING_WINDOWS: usize = 16;

/// Default wall-clock length of one snapshot window.
pub(crate) const DEFAULT_WINDOW: Duration = Duration::from_secs(60);

/// How an answered request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RequestOutcome {
    /// The wave ran entirely from cache (zero producers).
    WarmHit,
    /// The request rode another request's in-flight wave.
    Deduped,
    /// The wave computed at least one artifact.
    Cold,
}

impl RequestOutcome {
    /// The wire/key name of the outcome.
    pub fn as_str(self) -> &'static str {
        match self {
            RequestOutcome::WarmHit => "warm_hit",
            RequestOutcome::Deduped => "deduped",
            RequestOutcome::Cold => "cold",
        }
    }
}

/// One snapshot window's request counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsWindow {
    /// Monotone window sequence number (0 = first window since start).
    pub seq: u64,
    /// Requests answered in the window.
    pub requests: u64,
    /// ... of which warm hits.
    pub warm_hit: u64,
    /// ... of which deduped.
    pub deduped: u64,
    /// ... of which cold.
    pub cold: u64,
    /// Requests that failed (context errors, wave failures).
    pub errors: u64,
}

json_record! {
    StatsWindow { seq, requests, warm_hit, deduped, cold, errors },
    check StatsWindow::check
}

impl StatsWindow {
    fn check(&self) -> Result<(), String> {
        let (w, d, c) = (self.warm_hit, self.deduped, self.cold);
        if u128::from(w) + u128::from(d) + u128::from(c) == u128::from(self.requests) {
            return Ok(());
        }
        let requests = self.requests;
        Err(format!(
            "`requests` {requests} disagrees with outcome counts ({w} + {d} + {c})"
        ))
    }
}

/// One outcome's latency distribution plus derived quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStat {
    /// The full histogram (shared log-scale bounds).
    pub histogram: HistogramMetric,
    /// Interpolated median latency, nanoseconds.
    pub p50_ns: f64,
    /// Interpolated 95th-percentile latency, nanoseconds.
    pub p95_ns: f64,
    /// Interpolated 99th-percentile latency, nanoseconds.
    pub p99_ns: f64,
}

json_record! {
    LatencyStat { #[flatten] histogram, p50_ns, p95_ns, p99_ns },
    check LatencyStat::check
}

impl LatencyStat {
    fn check(&self) -> Result<(), String> {
        let (h, p50, p95, p99) = (&self.histogram, self.p50_ns, self.p95_ns, self.p99_ns);
        if h.bounds.len() < 2 || h.bounds.len() != h.counts.len() + 1 {
            let (edges, counts) = (h.bounds.len(), h.counts.len());
            return Err(format!(
                "{edges} bounds do not frame {counts} counts (need counts + 1 >= 2)"
            ));
        }
        if h.bounds.iter().any(|b| !b.is_finite()) || h.bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err("`bounds` must be finite and strictly ascending".to_string());
        }
        let tallied: u128 = h
            .counts
            .iter()
            .chain([&h.underflow, &h.overflow])
            .map(|&c| u128::from(c))
            .sum();
        if u128::from(h.count) != tallied {
            return Err(format!(
                "`count` {} disagrees with buckets + under/overflow ({tallied})",
                h.count
            ));
        }
        if ![h.sum, p50, p95, p99].iter().all(|v| v.is_finite()) {
            return Err("`sum` and the quantiles must be finite".to_string());
        }
        if !(p50 <= p95 && p95 <= p99) {
            return Err(format!(
                "quantiles out of order: p50 {p50} / p95 {p95} / p99 {p99}"
            ));
        }
        Ok(())
    }

    /// Derives the quantile triplet from a histogram.
    pub(crate) fn from_histogram(histogram: HistogramMetric) -> LatencyStat {
        let q = |q: f64| histogram.quantile(q).unwrap_or(0.0);
        LatencyStat {
            p50_ns: q(0.50),
            p95_ns: q(0.95),
            p99_ns: q(0.99),
            histogram,
        }
    }
}

/// The full enriched `stats` payload: counters, gauges, per-outcome
/// latencies, and the window ring (oldest first, current window last).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeStats {
    /// Dispatch counters (`serve.*` names).
    pub counters: BTreeMap<String, u64>,
    /// Derived gauges (`serve.cache_hit_rate`, `serve.dedupe_ratio`),
    /// always finite.
    pub gauges: BTreeMap<String, f64>,
    /// Latency distributions keyed by outcome name; only outcomes
    /// that answered at least one request appear.
    pub latencies: BTreeMap<String, LatencyStat>,
    /// Closed windows oldest-first, then the still-open current
    /// window.
    pub windows: Vec<StatsWindow>,
}

json_record! {
    ServeStats { counters, #[optional] gauges, #[optional] latencies, #[optional] windows },
    check ServeStats::check
}

impl ServeStats {
    fn check(&self) -> Result<(), String> {
        match self.gauges.iter().find(|(_, v)| !v.is_finite()) {
            Some((name, _)) => Err(format!("gauge `{name}` must be a finite number")),
            None => Ok(()),
        }
    }

    /// Renders the human report `repro client --stats` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("serve stats:\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name:<28} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "  {name:<28} {:.1}%", value * 100.0);
        }
        for (outcome, stat) in &self.latencies {
            let _ = writeln!(
                out,
                "  latency [{outcome:<8}] n={:<5} p50 {:>9}  p95 {:>9}  p99 {:>9}",
                stat.histogram.count,
                fmt_ns(stat.p50_ns as u64),
                fmt_ns(stat.p95_ns as u64),
                fmt_ns(stat.p99_ns as u64),
            );
        }
        if !self.windows.is_empty() {
            out.push_str("  windows (oldest -> current):\n");
            for w in &self.windows {
                let _ = writeln!(
                    out,
                    "    #{:<4} {:>4} req  ({} cold, {} deduped, {} warm, {} errors)",
                    w.seq, w.requests, w.cold, w.deduped, w.warm_hit, w.errors
                );
            }
        }
        out
    }
}

struct TelemetryState {
    latencies: BTreeMap<&'static str, HistogramMetric>,
    ring: VecDeque<StatsWindow>,
    current: StatsWindow,
    window_started: Instant,
}

/// The accumulator one [`crate::Dispatcher`] owns.
pub(crate) struct ServeTelemetry {
    window_len: Duration,
    inner: Mutex<TelemetryState>,
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeTelemetry {
    /// Telemetry with the default window length.
    pub fn new() -> Self {
        Self::with_window(DEFAULT_WINDOW)
    }

    /// Telemetry whose snapshot windows roll every `window_len`
    /// (tests use short windows).
    pub(crate) fn with_window(window_len: Duration) -> Self {
        ServeTelemetry {
            window_len,
            inner: Mutex::new(TelemetryState {
                latencies: BTreeMap::new(),
                ring: VecDeque::new(),
                current: StatsWindow::default(),
                window_started: Instant::now(),
            }),
        }
    }

    /// Records one answered request.
    pub fn record(&self, outcome: RequestOutcome, latency: Duration) {
        let mut state = self.lock();
        self.roll_if_due(&mut state);
        state
            .latencies
            .entry(outcome.as_str())
            .or_insert_with(|| HistogramMetric::with_bounds(&LATENCY_BOUNDS_NS))
            .record(latency.as_nanos() as f64);
        state.current.requests += 1;
        match outcome {
            RequestOutcome::WarmHit => state.current.warm_hit += 1,
            RequestOutcome::Deduped => state.current.deduped += 1,
            RequestOutcome::Cold => state.current.cold += 1,
        }
    }

    /// Records one failed request (no latency class — failures are
    /// counted, not timed).
    pub(crate) fn record_error(&self) {
        let mut state = self.lock();
        self.roll_if_due(&mut state);
        state.current.errors += 1;
    }

    /// Closes the current window into the ring immediately, so tests
    /// get deterministic snapshots (production windows roll lazily by
    /// wall clock).
    #[cfg(test)]
    pub(crate) fn roll_window(&self) {
        let mut state = self.lock();
        self.roll(&mut state);
    }

    /// The enriched stats payload, merged over the dispatcher's
    /// `counters`.
    pub fn snapshot(&self, counters: BTreeMap<String, u64>) -> ServeStats {
        let mut state = self.lock();
        self.roll_if_due(&mut state);

        let latencies: BTreeMap<String, LatencyStat> = state
            .latencies
            .iter()
            .filter(|(_, h)| h.count > 0)
            .map(|(name, h)| (name.to_string(), LatencyStat::from_histogram(h.clone())))
            .collect();
        let count_of = |name: &str| state.latencies.get(name).map(|h| h.count).unwrap_or(0);
        let warm = count_of(RequestOutcome::WarmHit.as_str());
        let deduped = count_of(RequestOutcome::Deduped.as_str());
        let cold = count_of(RequestOutcome::Cold.as_str());
        let waves = warm + cold;
        let answered = waves + deduped;
        let rate = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        let gauges = BTreeMap::from([
            ("serve.cache_hit_rate".to_string(), rate(warm, waves)),
            ("serve.dedupe_ratio".to_string(), rate(deduped, answered)),
        ]);

        let mut windows: Vec<StatsWindow> = state.ring.iter().copied().collect();
        windows.push(state.current);
        ServeStats {
            counters,
            gauges,
            latencies,
            windows,
        }
    }

    fn roll_if_due(&self, state: &mut TelemetryState) {
        if state.window_started.elapsed() >= self.window_len {
            self.roll(state);
        }
    }

    fn roll(&self, state: &mut TelemetryState) {
        let seq = state.current.seq;
        let closed = std::mem::take(&mut state.current);
        state.ring.push_back(closed);
        while state.ring.len() > RING_WINDOWS {
            state.ring.pop_front();
        }
        state.current.seq = seq + 1;
        state.window_started = Instant::now();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TelemetryState> {
        self.inner.lock().expect("serve telemetry lock poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_accumulate_into_their_histograms_and_windows() {
        let t = ServeTelemetry::with_window(Duration::from_secs(3600));
        t.record(RequestOutcome::Cold, Duration::from_secs(2));
        t.record(RequestOutcome::WarmHit, Duration::from_millis(3));
        t.record(RequestOutcome::WarmHit, Duration::from_millis(4));
        t.record(RequestOutcome::Deduped, Duration::from_secs(1));
        t.record_error();
        let stats = t.snapshot(BTreeMap::new());
        assert_eq!(stats.latencies["cold"].histogram.count, 1);
        assert_eq!(stats.latencies["warm_hit"].histogram.count, 2);
        // Gauges: warm 2 of 3 waves; deduped 1 of 4 answered.
        assert!((stats.gauges["serve.cache_hit_rate"] - 2.0 / 3.0).abs() < 1e-12);
        assert!((stats.gauges["serve.dedupe_ratio"] - 0.25).abs() < 1e-12);
        // One open window carrying everything.
        assert_eq!(stats.windows.len(), 1);
        let w = stats.windows[0];
        assert_eq!(
            (w.requests, w.cold, w.warm_hit, w.deduped, w.errors),
            (4, 1, 2, 1, 1)
        );
        // Quantiles are present and ordered.
        let warm = &stats.latencies["warm_hit"];
        assert!(warm.p50_ns > 0.0 && warm.p50_ns <= warm.p95_ns && warm.p95_ns <= warm.p99_ns);
    }

    #[test]
    fn ring_is_bounded_and_ordered() {
        let t = ServeTelemetry::with_window(Duration::from_secs(3600));
        for i in 0..(RING_WINDOWS as u64 + 5) {
            t.record(RequestOutcome::Cold, Duration::from_millis(i + 1));
            t.roll_window();
        }
        let stats = t.snapshot(BTreeMap::new());
        // RING_WINDOWS closed + 1 current.
        assert_eq!(stats.windows.len(), RING_WINDOWS + 1);
        let seqs: Vec<u64> = stats.windows.iter().map(|w| w.seq).collect();
        let newest = RING_WINDOWS as u64 + 5;
        let expect: Vec<u64> = (newest - RING_WINDOWS as u64..=newest).collect();
        assert_eq!(seqs, expect, "oldest windows evicted, order kept");
        // Histograms are cumulative across windows.
        assert_eq!(
            stats.latencies["cold"].histogram.count,
            RING_WINDOWS as u64 + 5
        );
    }

    #[test]
    fn render_is_humane() {
        let t = ServeTelemetry::with_window(Duration::from_secs(3600));
        t.record(RequestOutcome::WarmHit, Duration::from_micros(80));
        let stats = t.snapshot(BTreeMap::from([("serve.requests".to_string(), 1)]));
        let text = stats.render();
        assert!(text.contains("serve.requests"), "{text}");
        assert!(text.contains("latency [warm_hit"), "{text}");
        assert!(text.contains("serve.cache_hit_rate"), "{text}");
    }
}
