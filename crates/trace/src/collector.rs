//! Collector installation and the global dispatch fan-out.
//!
//! A [`Collector`] bundles a set of sinks with one
//! `MetricsRegistry`. Installing it ([`Collector::install`]) makes
//! tracing globally *enabled*; dropping the returned
//! [`CollectorGuard`] removes it again and flushes the accumulated
//! metrics snapshot into every sink. Multiple collectors may be active
//! at once (e.g. a JSONL exporter and a recording sink in a test);
//! span and metric events fan out to all of them.
//!
//! The hot-path cost while **no** collector is installed is a single
//! relaxed atomic load ([`enabled`]).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use crate::sink::TraceSink;
use crate::span::SpanRecord;

/// Number of currently installed collectors (the `enabled()` fast path).
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// The installed collectors. Guarded by a `RwLock`: dispatch takes the
/// read side, install/uninstall the (rare) write side.
static COLLECTORS: RwLock<Vec<Arc<Collector>>> = RwLock::new(Vec::new());

/// Whether any collector is installed. One relaxed atomic load — this
/// is the check every `span!`/counter call makes first.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// A set of sinks plus a metrics registry, installable as a trace
/// session.
pub struct Collector {
    sinks: Vec<Arc<dyn TraceSink>>,
    metrics: MetricsRegistry,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("sinks", &self.sinks.len())
            .finish()
    }
}

impl Collector {
    /// A collector feeding the given sinks. Keep your own `Arc` clones
    /// of sinks you want to inspect after the session (e.g. a
    /// [`crate::RecordingSink`] feeding a post-run report).
    pub fn new(sinks: Vec<Arc<dyn TraceSink>>) -> Arc<Self> {
        Arc::new(Collector {
            sinks,
            metrics: MetricsRegistry::new(),
        })
    }

    /// Installs this collector globally; tracing is enabled until the
    /// returned guard drops. Dropping the guard flushes the metrics
    /// snapshot to every sink ([`TraceSink::on_flush`]).
    pub fn install(self: &Arc<Self>) -> CollectorGuard {
        let mut collectors = COLLECTORS.write().expect("collector registry poisoned");
        collectors.push(Arc::clone(self));
        ACTIVE.store(collectors.len(), Ordering::Relaxed);
        CollectorGuard {
            collector: Arc::clone(self),
        }
    }

    /// A snapshot of this collector's metrics so far.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }
}

/// RAII handle for an installed [`Collector`]; uninstalls and flushes
/// on drop.
#[must_use = "dropping the guard ends the trace session"]
#[derive(Debug)]
pub struct CollectorGuard {
    collector: Arc<Collector>,
}

impl Drop for CollectorGuard {
    fn drop(&mut self) {
        {
            let mut collectors = COLLECTORS.write().expect("collector registry poisoned");
            if let Some(pos) = collectors
                .iter()
                .position(|c| Arc::ptr_eq(c, &self.collector))
            {
                collectors.remove(pos);
            }
            ACTIVE.store(collectors.len(), Ordering::Relaxed);
        }
        let snapshot = self.collector.metrics.snapshot();
        for sink in &self.collector.sinks {
            sink.on_flush(&snapshot);
        }
    }
}

/// Delivers a completed span to every installed collector's sinks.
pub(crate) fn dispatch_span(record: &SpanRecord) {
    if !enabled() {
        return;
    }
    let collectors = COLLECTORS.read().expect("collector registry poisoned");
    for collector in collectors.iter() {
        for sink in &collector.sinks {
            sink.on_span(record);
        }
    }
}

/// Adds `delta` to the counter `name` in every active collector.
/// No-op (one atomic load) while tracing is disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    let collectors = COLLECTORS.read().expect("collector registry poisoned");
    for collector in collectors.iter() {
        collector.metrics.counter_add(name, delta);
    }
}

/// Sets the gauge `name` in every active collector. No-op while
/// tracing is disabled.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    let collectors = COLLECTORS.read().expect("collector registry poisoned");
    for collector in collectors.iter() {
        collector.metrics.gauge_set(name, value);
    }
}

/// Records `values` into the histogram `name` (bucket edges `bounds`,
/// fixed on first use) in every active collector. No-op while tracing
/// is disabled.
#[inline]
pub fn histogram_record(name: &'static str, bounds: &[f64], values: &[f64]) {
    if !enabled() {
        return;
    }
    let collectors = COLLECTORS.read().expect("collector registry poisoned");
    for collector in collectors.iter() {
        collector.metrics.histogram_record(name, bounds, values);
    }
}

/// Serializes tests that install collectors: the registry is global,
/// so concurrent test threads would see each other's spans.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Metric;
    use crate::sink::RecordingSink;

    #[test]
    fn enabled_tracks_install_and_drop() {
        let _lock = test_serial();
        assert!(!enabled());
        let collector = Collector::new(vec![]);
        let session = collector.install();
        assert!(enabled());
        drop(session);
        assert!(!enabled());
    }

    #[test]
    fn metrics_fan_out_to_all_active_collectors() {
        let _lock = test_serial();
        let sink_a = Arc::new(RecordingSink::new());
        let sink_b = Arc::new(RecordingSink::new());
        let a = Collector::new(vec![sink_a.clone()]);
        let b = Collector::new(vec![sink_b.clone()]);
        let ga = a.install();
        let gb = b.install();
        counter_add("x", 3);
        gauge_set("g", 0.5);
        histogram_record("h", &[0.0, 1.0], &[0.5]);
        drop(ga);
        counter_add("x", 4); // only `b` still active
        drop(gb);

        let ma = sink_a.metrics().expect("flushed");
        let mb = sink_b.metrics().expect("flushed");
        assert_eq!(ma["x"], Metric::Counter(3));
        assert_eq!(mb["x"], Metric::Counter(7));
        assert_eq!(ma["g"], Metric::Gauge(0.5));
        assert!(matches!(mb["h"], Metric::Histogram(_)));
    }

    #[test]
    fn disabled_metric_calls_are_dropped() {
        let _lock = test_serial();
        counter_add("never", 1);
        let sink = Arc::new(RecordingSink::new());
        let collector = Collector::new(vec![sink.clone()]);
        drop(collector.install());
        assert!(!sink.metrics().expect("flushed").contains_key("never"));
    }
}
