//! Routing of `mpvar-trace` span completions to the requests that
//! caused them.
//!
//! Spans are only delivered when they *complete* (children before
//! parents), so a live trace stream cannot be demultiplexed by
//! parent-chain walking — the parent `study_materialize` span has not
//! arrived yet while its nodes are finishing. Instead every serve wave
//! runs its `Study` with a unique [`Study::with_span_label`] label,
//! which stamps a `session` field on each `study_node` span, and this
//! sink routes on that field.
//!
//! [`Study::with_span_label`]: mpvar_study::Study::with_span_label

use std::collections::HashMap;
use std::sync::mpsc::Sender;
use std::sync::Mutex;

use mpvar_trace::{names, MetricsSnapshot, SpanRecord, TraceSink};

use crate::protocol::RenderedArtifact;

/// One artifact-graph node finishing inside a materialization wave.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct NodeProgress {
    /// Artifact name.
    pub artifact: String,
    /// `computed` or `cache_hit`.
    pub outcome: String,
    /// Node wall-clock, nanoseconds (0 for cache hits).
    pub dur_ns: u64,
}

/// Everything a submitted job can emit, in delivery order: zero or
/// more progress events, then exactly one `Done`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JobEvent {
    /// A node of the wave serving this job finished.
    Progress(NodeProgress),
    /// The job finished: the requested artifacts in request order, or
    /// a failure description.
    Done(Result<Vec<RenderedArtifact>, String>),
}

/// A [`TraceSink`] that forwards `study_node` completions to the job
/// channels subscribed under the emitting wave's session label.
///
/// Install it in the process [`Collector`] alongside any other sinks;
/// without an installed collector tracing is off and no progress
/// flows (results are unaffected — progress is purely observational).
///
/// [`Collector`]: mpvar_trace::Collector
#[derive(Debug, Default)]
pub struct ProgressRouter {
    routes: Mutex<HashMap<String, Vec<Sender<JobEvent>>>>,
}

impl ProgressRouter {
    /// An empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Subscribes `tx` to node completions of the wave labelled
    /// `label`. A subscriber joining mid-wave only sees the nodes that
    /// finish after it attaches.
    pub(crate) fn attach(&self, label: &str, tx: Sender<JobEvent>) {
        self.routes
            .lock()
            .expect("progress routes lock poisoned")
            .entry(label.to_string())
            .or_default()
            .push(tx);
    }

    /// Drops every subscription for `label` (called when its wave
    /// completes; labels are never reused).
    pub fn clear(&self, label: &str) {
        self.routes
            .lock()
            .expect("progress routes lock poisoned")
            .remove(label);
    }
}

impl TraceSink for ProgressRouter {
    fn on_span(&self, span: &SpanRecord) {
        if span.name != names::SPAN_STUDY_NODE {
            return;
        }
        let Some(label) = span.str_field("session") else {
            return;
        };
        let (Some(artifact), Some(outcome)) =
            (span.str_field("artifact"), span.str_field("outcome"))
        else {
            return;
        };
        let mut routes = self.routes.lock().expect("progress routes lock poisoned");
        let Some(subscribers) = routes.get_mut(label) else {
            return;
        };
        let event = NodeProgress {
            artifact: artifact.to_string(),
            outcome: outcome.to_string(),
            dur_ns: span.dur_ns,
        };
        // A subscriber whose receiver is gone (request already
        // answered, connection dropped) just falls out of the route.
        subscribers.retain(|tx| tx.send(JobEvent::Progress(event.clone())).is_ok());
    }

    fn on_flush(&self, _metrics: &MetricsSnapshot) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_trace::{FieldValue, SpanRecord};
    use std::sync::mpsc::channel;
    use std::time::Duration;

    fn node_span(label: &str, artifact: &'static str, outcome: &'static str) -> SpanRecord {
        SpanRecord::completed(
            names::SPAN_STUDY_NODE,
            vec![
                ("artifact", FieldValue::from(artifact)),
                ("outcome", FieldValue::from(outcome)),
                ("session", FieldValue::from(label.to_string())),
            ],
            Duration::from_nanos(42),
        )
    }

    #[test]
    fn routes_by_session_label_and_drops_dead_subscribers() {
        let router = ProgressRouter::new();
        let (tx_a, rx_a) = channel();
        let (tx_b, rx_b) = channel();
        router.attach("wave-1", tx_a);
        router.attach("wave-2", tx_b);

        router.on_span(&node_span("wave-1", "table1", "computed"));
        let JobEvent::Progress(event) = rx_a.try_recv().expect("wave-1 event") else {
            panic!("progress expected");
        };
        assert_eq!(event.artifact, "table1");
        assert_eq!(event.outcome, "computed");
        assert_eq!(event.dur_ns, 42);
        assert!(rx_b.try_recv().is_err(), "wave-2 must not see wave-1 spans");

        // Unlabelled and non-node spans are ignored.
        router.on_span(&SpanRecord::completed(
            names::SPAN_STUDY_NODE,
            vec![],
            Duration::ZERO,
        ));
        router.on_span(&SpanRecord::completed(
            names::SPAN_MC_WAVE,
            vec![("session", FieldValue::from("wave-1"))],
            Duration::ZERO,
        ));
        assert!(rx_a.try_recv().is_err());

        // A dropped receiver self-heals out of the route table.
        drop(rx_a);
        router.on_span(&node_span("wave-1", "fig4", "cache_hit"));
        router.clear("wave-2");
        router.on_span(&node_span("wave-2", "fig4", "computed"));
        assert!(rx_b.try_recv().is_err(), "cleared route must be silent");
    }
}
