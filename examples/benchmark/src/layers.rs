//! Per-layer numbers from one traced execution: the trace is checked
//! against the `mpvar-trace/v1` schema, profiled with `mpvar-obs`, and
//! reduced to span times and counters per layer.

use std::collections::BTreeMap;

use mpvar_obs::{profile, SpanForest, TraceProfile};
use mpvar_trace::schema::{FieldScalar, SpanEntry, TraceLog};
use mpvar_trace::{names, validate_jsonl};

use crate::serve_mix::SPAN_REQUEST;
use crate::store::{SPAN_GET, SPAN_PUT};
use crate::workload::Workload;

/// The benchmark's root span around one execution.
pub const SPAN_RUN: &str = "bench.run";

/// Artifacts whose node time is reported as `study.node_s.<artifact>`.
const NODES: [&str; 6] = [
    "yield_6sigma",
    "write_yield",
    "fig4",
    "table4",
    "write_time",
    "fig5",
];

/// Counters reported under their own names, zero when absent.
const COUNTERS: [&str; 14] = [
    names::YIELD_TRIALS,
    names::YIELD_ZERO_WEIGHT,
    names::YIELD_ROUNDS,
    names::MC_TRIALS,
    names::SPICE_TRANSIENT_STEPS,
    names::SPICE_NR_ITERATIONS,
    names::SPICE_BATCH_LANE_TRIALS,
    names::SPICE_BATCH_FALLOUTS,
    names::EXEC_CHUNKS,
    names::STORE_DISK_HITS,
    names::STORE_DISK_WRITES,
    names::SERVE_MATERIALIZATIONS,
    names::SERVE_DEDUPED,
    names::SERVE_BATCHED,
];

/// Self time the executor and study spans hold for want of a named
/// layer beneath them.
const UNATTRIBUTED: [&str; 3] = [
    names::SPAN_EXEC_PAR_MAP,
    names::SPAN_EXEC_CHUNK,
    names::SPAN_STUDY_MATERIALIZE,
];

/// What a trace yielded: the per-layer metrics, and every way it fell
/// short of a valid, profilable trace carrying the benchmark's spans.
#[derive(Debug, Default)]
pub struct TraceReport {
    /// Metric name to value; a metric the trace cannot give is absent.
    pub metrics: BTreeMap<String, f64>,
    /// One line per problem; empty for a good trace.
    pub problems: Vec<String>,
}

/// Analyses the JSONL trace of one execution of `workload`.
pub fn analyse(text: &str, workload: Workload) -> TraceReport {
    let mut report = TraceReport::default();
    let log = match validate_jsonl(text) {
        Ok(log) => log,
        Err(e) => {
            report.problems.push(format!("trace fails the schema: {e}"));
            return report;
        }
    };
    let profile = match profile(&log) {
        Ok(profile) => profile,
        Err(e) => {
            report.problems.push(format!("trace does not profile: {e}"));
            return report;
        }
    };
    let mut required = vec![SPAN_RUN, SPAN_GET, SPAN_PUT];
    if workload == Workload::ServeMix {
        required.push(SPAN_REQUEST);
    }
    for span in required {
        if profile.aggregate(span).is_none() {
            report.problems.push(format!("trace lacks `{span}` spans"));
        }
    }
    report.metrics = layer_metrics(&log, &profile);
    report
}

fn str_field<'a>(span: &'a SpanEntry, key: &str) -> Option<&'a str> {
    match span.fields.get(key) {
        Some(FieldScalar::Str(s)) => Some(s),
        _ => None,
    }
}

fn layer_metrics(log: &TraceLog, profile: &TraceProfile) -> BTreeMap<String, f64> {
    let mut metrics = BTreeMap::new();
    for node in NODES {
        let computed: Vec<u64> = log
            .spans_named(names::SPAN_STUDY_NODE)
            .filter(|s| str_field(s, "artifact") == Some(node))
            .filter(|s| str_field(s, "outcome") == Some("computed"))
            .map(|s| s.dur_ns)
            .collect();
        if !computed.is_empty() {
            metrics.insert(
                format!("study.node_s.{node}"),
                computed.iter().sum::<u64>() as f64 / 1e9,
            );
        }
    }
    if let Some(runs) = profile.aggregate(names::SPAN_YIELD_RUN) {
        metrics.insert("yield.run_s".to_string(), runs.total_ns as f64 / 1e9);
    }
    if let Some(transient) = profile.aggregate(names::SPAN_SPICE_TRANSIENT) {
        metrics.insert(
            "spice.transient_self_s".to_string(),
            transient.self_ns as f64 / 1e9,
        );
    }
    for counter in COUNTERS {
        let value = log.counters.get(counter).copied().unwrap_or(0);
        metrics.insert(counter.to_string(), value as f64);
    }
    for (span, op) in [(SPAN_GET, "get"), (SPAN_PUT, "put")] {
        let (calls, busy_ns) = profile
            .aggregate(span)
            .map_or((0, 0), |a| (a.count, a.total_ns));
        metrics.insert(format!("store.{op}_calls"), calls as f64);
        metrics.insert(format!("store.{op}_busy_ms"), busy_ns as f64 / 1e6);
    }
    let unattributed: u64 = UNATTRIBUTED
        .iter()
        .filter_map(|name| profile.aggregate(name))
        .map(|a| a.self_ns)
        .sum();
    if profile.total_self_ns > 0 {
        metrics.insert(
            "obs.unattributed_share".to_string(),
            unattributed as f64 / profile.total_self_ns as f64,
        );
    }
    if let Some(imbalance) = exec_imbalance(log) {
        metrics.insert("exec.imbalance".to_string(), imbalance);
    }
    metrics
}

/// Slowest over mean chunk time of every parallel map that ran more
/// than one chunk, averaged with each map's duration as its weight.
fn exec_imbalance(log: &TraceLog) -> Option<f64> {
    let forest = SpanForest::build(log.spans.clone()).ok()?;
    let (mut weighted, mut weight) = (0.0, 0.0);
    for (i, span) in forest.spans().iter().enumerate() {
        if span.name != names::SPAN_EXEC_PAR_MAP {
            continue;
        }
        let chunks: Vec<f64> = forest
            .children(i)
            .iter()
            .map(|&c| forest.span(c))
            .filter(|c| c.name == names::SPAN_EXEC_CHUNK)
            .map(|c| c.dur_ns as f64)
            .collect();
        let mean = chunks.iter().sum::<f64>() / chunks.len() as f64;
        if chunks.len() < 2 || mean <= 0.0 {
            continue;
        }
        let slowest = chunks.iter().copied().fold(0.0, f64::max);
        weighted += span.dur_ns as f64 * slowest / mean;
        weight += span.dur_ns as f64;
    }
    (weight > 0.0).then(|| weighted / weight)
}
