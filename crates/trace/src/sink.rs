//! Trace sinks: pluggable consumers of spans and metric snapshots.
//!
//! Three built-ins cover the workspace's needs: [`RecordingSink`]
//! keeps everything in memory for tests and post-run reports,
//! [`JsonlSink`] renders the machine-readable JSONL export (schema
//! documented in [`crate::schema`]), and [`NullSink`] discards
//! everything (overhead measurement). [`render_tree`] and
//! [`render_metrics`] turn recorded data into the human-readable
//! report behind `repro --timings`.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use crate::metrics::{Metric, MetricsSnapshot};
use crate::span::{FieldValue, SpanRecord};

/// A consumer of trace events. Spans arrive on completion (from the
/// emitting thread, so implementations must be `Send + Sync`); the
/// metrics snapshot arrives once, when the collector session ends.
pub trait TraceSink: Send + Sync {
    /// Called once per completed span.
    fn on_span(&self, _span: &SpanRecord) {}

    /// Called once when the owning collector uninstalls, with the
    /// session's cumulative metrics.
    fn on_flush(&self, _metrics: &MetricsSnapshot) {}
}

/// A sink that discards everything (for overhead measurement).
#[derive(Debug, Default)]
pub struct NullSink;

impl NullSink {
    /// A new discarding sink.
    pub fn new() -> Self {
        NullSink
    }
}

impl TraceSink for NullSink {}

/// An in-memory sink for tests and post-run reports.
#[derive(Debug, Default)]
pub struct RecordingSink {
    spans: Mutex<Vec<SpanRecord>>,
    metrics: Mutex<Option<MetricsSnapshot>>,
}

impl RecordingSink {
    /// An empty recording sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a span directly (used by adapters that synthesize
    /// records outside the global dispatch path).
    pub fn record(&self, span: SpanRecord) {
        self.spans
            .lock()
            .expect("recording sink poisoned")
            .push(span);
    }

    /// All spans recorded so far, in completion order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("recording sink poisoned").clone()
    }

    /// The flushed metrics snapshot, once the session has ended.
    pub fn metrics(&self) -> Option<MetricsSnapshot> {
        self.metrics
            .lock()
            .expect("recording sink poisoned")
            .clone()
    }
}

impl TraceSink for RecordingSink {
    fn on_span(&self, span: &SpanRecord) {
        self.record(span.clone());
    }

    fn on_flush(&self, metrics: &MetricsSnapshot) {
        *self.metrics.lock().expect("recording sink poisoned") = Some(metrics.clone());
    }
}

/// The JSONL schema identifier emitted in the meta line.
pub const SCHEMA_ID: &str = "mpvar-trace/v1";

/// A sink rendering the JSONL trace export.
///
/// The first line is a `meta` record naming the schema
/// ([`SCHEMA_ID`]); each completed span appends a `span` line; the
/// final metrics snapshot appends one `counter`/`gauge`/`histogram`
/// line per metric. Spans are written on completion, so **children
/// precede their parents** — consumers must collect before resolving
/// parent links (as [`crate::schema::validate_jsonl`] does).
#[derive(Debug)]
pub struct JsonlSink {
    lines: Mutex<Vec<String>>,
}

impl JsonlSink {
    /// A new JSONL sink with the meta line already written.
    pub fn new() -> Self {
        JsonlSink {
            lines: Mutex::new(vec![format!(
                "{{\"type\":\"meta\",\"schema\":\"{SCHEMA_ID}\",\"producer\":\"mpvar\"}}"
            )]),
        }
    }

    /// The JSONL document rendered so far (trailing newline included).
    pub fn contents(&self) -> String {
        let lines = self.lines.lock().expect("jsonl sink poisoned");
        let mut out = lines.join("\n");
        out.push('\n');
        out
    }

    /// Writes the JSONL document to `path`.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut file = std::fs::File::create(path)?;
        file.write_all(self.contents().as_bytes())?;
        file.flush()
    }
}

impl Default for JsonlSink {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceSink for JsonlSink {
    fn on_span(&self, span: &SpanRecord) {
        let mut line = String::with_capacity(128);
        line.push_str("{\"type\":\"span\",\"id\":");
        line.push_str(&span.id.to_string());
        line.push_str(",\"parent\":");
        match span.parent {
            Some(p) => line.push_str(&p.to_string()),
            None => line.push_str("null"),
        }
        line.push_str(",\"name\":");
        write_json_str(&mut line, span.name);
        line.push_str(",\"thread\":");
        line.push_str(&span.thread.to_string());
        line.push_str(",\"start_ns\":");
        line.push_str(&span.start_ns.to_string());
        line.push_str(",\"dur_ns\":");
        line.push_str(&span.dur_ns.to_string());
        line.push_str(",\"fields\":{");
        for (i, (key, value)) in span.fields.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            write_json_str(&mut line, key);
            line.push(':');
            match value {
                FieldValue::U64(v) => line.push_str(&v.to_string()),
                FieldValue::I64(v) => line.push_str(&v.to_string()),
                FieldValue::F64(v) => write_json_f64(&mut line, *v),
                FieldValue::Str(s) => write_json_str(&mut line, s),
                FieldValue::Bool(b) => line.push_str(if *b { "true" } else { "false" }),
            }
        }
        line.push_str("}}");
        self.lines.lock().expect("jsonl sink poisoned").push(line);
    }

    fn on_flush(&self, metrics: &MetricsSnapshot) {
        let mut lines = self.lines.lock().expect("jsonl sink poisoned");
        for (name, metric) in metrics {
            let mut line = String::with_capacity(64);
            match metric {
                Metric::Counter(v) => {
                    line.push_str("{\"type\":\"counter\",\"name\":");
                    write_json_str(&mut line, name);
                    line.push_str(",\"value\":");
                    line.push_str(&v.to_string());
                    line.push('}');
                }
                Metric::Gauge(v) => {
                    line.push_str("{\"type\":\"gauge\",\"name\":");
                    write_json_str(&mut line, name);
                    line.push_str(",\"value\":");
                    write_json_f64(&mut line, *v);
                    line.push('}');
                }
                Metric::Histogram(h) => {
                    line.push_str("{\"type\":\"histogram\",\"name\":");
                    write_json_str(&mut line, name);
                    line.push_str(",\"bounds\":[");
                    for (i, b) in h.bounds.iter().enumerate() {
                        if i > 0 {
                            line.push(',');
                        }
                        write_json_f64(&mut line, *b);
                    }
                    line.push_str("],\"counts\":[");
                    for (i, c) in h.counts.iter().enumerate() {
                        if i > 0 {
                            line.push(',');
                        }
                        line.push_str(&c.to_string());
                    }
                    line.push_str("],\"underflow\":");
                    line.push_str(&h.underflow.to_string());
                    line.push_str(",\"overflow\":");
                    line.push_str(&h.overflow.to_string());
                    line.push_str(",\"sum\":");
                    write_json_f64(&mut line, h.sum);
                    line.push_str(",\"count\":");
                    line.push_str(&h.count.to_string());
                    line.push('}');
                }
            }
            lines.push(line);
        }
    }
}

/// Appends `s` to `out` as a JSON string literal.
fn write_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Appends `v` as a JSON number (`null` for non-finite values, which
/// JSON cannot represent).
fn write_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v:?}"));
    } else {
        out.push_str("null");
    }
}

/// Renders recorded spans as an indented aggregate tree — the
/// human-readable `repro --timings` report.
///
/// Sibling spans sharing a name and `label` field collapse into one
/// line with a repeat count, total, and mean wall time. A per-thread
/// busy summary (sum of span self-time per thread) follows the tree.
pub fn render_tree(spans: &[SpanRecord]) -> String {
    if spans.is_empty() {
        return "trace: no spans recorded\n".to_string();
    }
    let by_id: BTreeMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for span in spans {
        match span.parent.filter(|p| by_id.contains_key(p)) {
            Some(p) => children.entry(p).or_default().push(span),
            None => roots.push(span),
        }
    }
    roots.sort_by_key(|s| s.start_ns);
    for list in children.values_mut() {
        list.sort_by_key(|s| s.start_ns);
    }

    let mut out = String::from("trace tree (wall clock; xN = sibling spans aggregated)\n");
    render_level(&mut out, &roots, &children, 0);

    // Per-thread busy time: each span's self-time (duration minus its
    // children's durations, clamped at zero) attributed to its thread.
    let mut busy: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        let child_ns: u64 = children
            .get(&span.id)
            .map(|c| c.iter().map(|s| s.dur_ns).sum())
            .unwrap_or(0);
        *busy.entry(span.thread).or_insert(0) += span.dur_ns.saturating_sub(child_ns);
    }
    out.push_str("threads (busy self-time):\n");
    for (thread, ns) in &busy {
        out.push_str(&format!("  t{thread}: {}\n", fmt_ns(*ns)));
    }
    out
}

fn render_level(
    out: &mut String,
    siblings: &[&SpanRecord],
    children: &BTreeMap<u64, Vec<&SpanRecord>>,
    depth: usize,
) {
    // Group siblings by (name, label) in first-seen order.
    let mut order: Vec<(&str, Option<&str>)> = Vec::new();
    let mut groups: BTreeMap<(&str, Option<&str>), Vec<&SpanRecord>> = BTreeMap::new();
    for span in siblings {
        let key = (span.name, span.str_field("label"));
        if !groups.contains_key(&key) {
            order.push(key);
        }
        groups.entry(key).or_default().push(span);
    }
    for key in order {
        let group = &groups[&key];
        let total_ns: u64 = group.iter().map(|s| s.dur_ns).sum();
        let (name, label) = key;
        out.push_str(&"  ".repeat(depth + 1));
        out.push_str(name);
        if let Some(label) = label {
            out.push_str(&format!("[{label}]"));
        }
        if group.len() > 1 {
            out.push_str(&format!(
                "  x{}  total {}  mean {}",
                group.len(),
                fmt_ns(total_ns),
                fmt_ns(total_ns / group.len() as u64)
            ));
        } else {
            out.push_str(&format!("  {}", fmt_ns(total_ns)));
        }
        out.push('\n');
        let mut next: Vec<&SpanRecord> = group
            .iter()
            .flat_map(|s| children.get(&s.id).into_iter().flatten().copied())
            .collect();
        next.sort_by_key(|s| s.start_ns);
        render_level(out, &next, children, depth + 1);
    }
}

/// Renders a metrics snapshot as aligned `name = value` lines.
pub fn render_metrics(metrics: &MetricsSnapshot) -> String {
    if metrics.is_empty() {
        return "metrics: none recorded\n".to_string();
    }
    let width = metrics.keys().map(|k| k.len()).max().unwrap_or(0);
    let mut out = String::from("metrics:\n");
    for (name, metric) in metrics {
        match metric {
            Metric::Counter(v) => {
                out.push_str(&format!("  {name:<width$} = {v}\n"));
            }
            Metric::Gauge(v) => {
                out.push_str(&format!("  {name:<width$} = {v:.3}\n"));
            }
            Metric::Histogram(h) => {
                out.push_str(&format!(
                    "  {name:<width$} : count={} mean={:.3} underflow={} overflow={}\n",
                    h.count,
                    h.mean(),
                    h.underflow,
                    h.overflow
                ));
            }
        }
    }
    out
}

/// Formats nanoseconds with a unit suited to the magnitude.
/// Formats a nanosecond count at human scale (`123ns`, `4.5us`,
/// `6.7ms`, `8.90s`).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        thread: u64,
        dur_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name,
            thread,
            start_ns: id * 10,
            dur_ns,
            fields: vec![],
        }
    }

    #[test]
    fn tree_aggregates_repeated_siblings() {
        let spans = vec![
            span(1, None, "mc_distribution", 0, 10_000_000),
            span(2, Some(1), "mc_wave", 0, 4_000_000),
            span(3, Some(1), "mc_wave", 1, 5_000_000),
        ];
        let tree = render_tree(&spans);
        assert!(tree.contains("mc_distribution"), "{tree}");
        assert!(tree.contains("mc_wave  x2"), "{tree}");
        assert!(tree.contains("t0:"), "{tree}");
        assert!(tree.contains("t1:"), "{tree}");
    }

    #[test]
    fn jsonl_escapes_strings() {
        let sink = JsonlSink::new();
        let mut record = span(1, None, "node", 0, 5);
        record.fields = vec![("label", FieldValue::Str("a\"b\\c\nd".to_string()))];
        sink.on_span(&record);
        let contents = sink.contents();
        assert!(contents.contains(r#""label":"a\"b\\c\nd""#), "{contents}");
    }

    #[test]
    fn jsonl_non_finite_floats_become_null() {
        let sink = JsonlSink::new();
        let mut metrics = MetricsSnapshot::new();
        metrics.insert("g".to_string(), Metric::Gauge(f64::NAN));
        sink.on_flush(&metrics);
        assert!(sink.contents().contains("\"value\":null"));
    }

    #[test]
    fn metrics_report_lists_all_kinds() {
        let mut metrics = MetricsSnapshot::new();
        metrics.insert("c".to_string(), Metric::Counter(7));
        metrics.insert("g".to_string(), Metric::Gauge(1.25));
        let report = render_metrics(&metrics);
        assert!(report.contains("c = 7"), "{report}");
        assert!(report.contains("g = 1.250"), "{report}");
    }
}
