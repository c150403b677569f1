//! The JSONL export schema (`mpvar-trace/v1`) and its validator.
//!
//! A trace document is newline-delimited JSON. The **first** line is a
//! `meta` record; every other line is one of `span`, `counter`,
//! `gauge`, or `histogram`:
//!
//! ```text
//! {"type":"meta","schema":"mpvar-trace/v1","producer":"mpvar"}
//! {"type":"span","id":2,"parent":1,"name":"mc_wave","thread":0,
//!  "start_ns":1200,"dur_ns":88000,"fields":{"trials":512}}
//! {"type":"counter","name":"mc.trials","value":2000}
//! {"type":"gauge","name":"mc.trials_per_sec","value":48211.5}
//! {"type":"histogram","name":"mc.tdp_percent","bounds":[-50.0,...],
//!  "counts":[0,...],"underflow":0,"overflow":0,"sum":123.0,"count":9}
//! ```
//!
//! Rules enforced by [`validate_jsonl`]:
//!
//! 1. the first line is `meta` with `schema == "mpvar-trace/v1"`;
//! 2. span ids are unique, and every non-null `parent` refers to a
//!    span id present **somewhere** in the document (spans are written
//!    on completion, so children precede parents — resolution happens
//!    after collecting the whole file);
//! 3. span fields hold scalars only (numbers, strings, booleans);
//! 4. histogram `bounds` has exactly `counts.len() + 1` edges.
//!
//! The parser is the crate's self-contained subset-of-JSON reader
//! ([`crate::json`]) so the validator works under the workspace's
//! no-external-dependency rule.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::json::{get_f64, get_str, get_u64, parse_json, Json, JsonCodec, Obj};
use crate::metrics::HistogramMetric;

/// A validation or parse failure, with the 1-based line number.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaError {
    /// 1-based line number of the offending JSONL line.
    pub line: usize,
    /// Human-readable description of the failure.
    pub message: String,
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace schema error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for SchemaError {}

/// One span entry of a parsed trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEntry {
    /// Unique span id.
    pub id: u64,
    /// Parent span id (`None` for roots).
    pub parent: Option<u64>,
    /// Span name.
    pub name: String,
    /// Emitting thread ordinal.
    pub thread: u64,
    /// Start offset from the trace epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
    /// Scalar fields, name-keyed.
    pub fields: BTreeMap<String, FieldScalar>,
}

/// A scalar span-field value as read back from JSONL.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldScalar {
    /// Any JSON number.
    Num(f64),
    /// A JSON string.
    Str(String),
    /// A JSON boolean.
    Bool(bool),
}

/// A fully parsed and validated trace document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceLog {
    /// Schema identifier from the meta line.
    pub schema: String,
    /// All spans, in file (= completion) order.
    pub spans: Vec<SpanEntry>,
    /// Final counter values, name-keyed.
    pub counters: BTreeMap<String, u64>,
    /// Final gauge values, name-keyed (`NaN` when exported as null).
    pub gauges: BTreeMap<String, f64>,
    /// Final histograms, name-keyed.
    pub histograms: BTreeMap<String, HistogramMetric>,
}

impl TraceLog {
    /// Spans with the given name, in file order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanEntry> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The distinct span names present, sorted.
    pub fn span_names(&self) -> Vec<&str> {
        let names: BTreeSet<&str> = self.spans.iter().map(|s| s.name.as_str()).collect();
        names.into_iter().collect()
    }
}

/// Parses and validates a JSONL trace document.
pub fn validate_jsonl(text: &str) -> Result<TraceLog, SchemaError> {
    let mut log = TraceLog::default();
    let mut seen_ids = BTreeSet::new();
    let mut first = true;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let err = |message: String| SchemaError {
            line: line_no,
            message,
        };
        let value = parse_json(raw).map_err(&err)?;
        let obj = value
            .as_object()
            .ok_or_else(|| err("line is not a JSON object".into()))?;
        let kind = get_str(obj, "type").map_err(&err)?;
        if first {
            if kind != "meta" {
                return Err(err(format!(
                    "first line must be a meta record, got `{kind}`"
                )));
            }
            let schema = get_str(obj, "schema").map_err(&err)?;
            if schema != crate::sink::SCHEMA_ID {
                return Err(err(format!(
                    "unsupported schema `{schema}` (expected `{}`)",
                    crate::sink::SCHEMA_ID
                )));
            }
            log.schema = schema.to_string();
            first = false;
            continue;
        }
        match kind {
            "meta" => return Err(err("duplicate meta record".into())),
            "span" => {
                let id = get_u64(obj, "id").map_err(&err)?;
                if !seen_ids.insert(id) {
                    return Err(err(format!("duplicate span id {id}")));
                }
                let parent = match obj.get("parent") {
                    None => None,
                    Some(v) => Option::<u64>::get(v).map_err(|m| err(format!("parent: {m}")))?,
                };
                let empty = Obj::new();
                let fields_obj = match obj.get("fields") {
                    None => &empty,
                    Some(Json::Obj(map)) => map,
                    Some(_) => return Err(err("fields must be an object".into())),
                };
                let mut fields = BTreeMap::new();
                for (key, val) in fields_obj {
                    let scalar = match val {
                        Json::Num(n) => FieldScalar::Num(*n),
                        Json::BigUint(n) => FieldScalar::Num(*n as f64),
                        Json::Str(s) => FieldScalar::Str(s.clone()),
                        Json::Bool(b) => FieldScalar::Bool(*b),
                        _ => {
                            return Err(err(format!("field `{key}` must be a scalar")));
                        }
                    };
                    fields.insert(key.clone(), scalar);
                }
                log.spans.push(SpanEntry {
                    id,
                    parent,
                    name: get_str(obj, "name").map_err(&err)?.to_string(),
                    thread: get_u64(obj, "thread").map_err(&err)?,
                    start_ns: get_u64(obj, "start_ns").map_err(&err)?,
                    dur_ns: get_u64(obj, "dur_ns").map_err(&err)?,
                    fields,
                });
            }
            "counter" => {
                let name = get_str(obj, "name").map_err(&err)?.to_string();
                let value = get_u64(obj, "value").map_err(&err)?;
                log.counters.insert(name, value);
            }
            "gauge" => {
                let name = get_str(obj, "name").map_err(&err)?.to_string();
                let value = get_f64(obj, "value").map_err(&err)?;
                log.gauges.insert(name, value);
            }
            "histogram" => {
                let name = get_str(obj, "name").map_err(&err)?.to_string();
                let histogram = HistogramMetric::get(&value).map_err(&err)?;
                let (bounds, counts) = (histogram.bounds.len(), histogram.counts.len());
                if bounds != 0 && bounds != counts + 1 {
                    return Err(err(format!(
                        "histogram `{name}`: {bounds} bounds for {counts} counts \
                         (expected counts + 1)"
                    )));
                }
                log.histograms.insert(name, histogram);
            }
            other => return Err(err(format!("unknown record type `{other}`"))),
        }
    }
    if first {
        return Err(SchemaError {
            line: 1,
            message: "empty document (meta line required)".into(),
        });
    }
    // Parent links resolve against the whole document: spans are
    // emitted on completion, so children appear before their parents.
    for span in &log.spans {
        if let Some(parent) = span.parent {
            if !seen_ids.contains(&parent) {
                return Err(SchemaError {
                    line: 0,
                    message: format!("span {} references unknown parent {parent}", span.id),
                });
            }
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::Collector;
    use crate::sink::{JsonlSink, TraceSink};
    use crate::span::SpanGuard;
    use std::sync::Arc;

    #[test]
    fn round_trip_through_jsonl_export() {
        let _lock = crate::collector::test_serial();
        let sink = Arc::new(JsonlSink::new());
        let collector = Collector::new(vec![sink.clone()]);
        {
            let _session = collector.install();
            let outer = SpanGuard::enter(
                "mc_distribution",
                vec![("label", crate::FieldValue::from("quick"))],
            );
            {
                let _wave = SpanGuard::enter("mc_wave", vec![("trials", 512usize.into())]);
            }
            drop(outer);
            crate::counter_add("mc.trials", 512);
            crate::gauge_set("mc.trials_per_sec", 1000.5);
            crate::histogram_record("mc.tdp_percent", &[-50.0, 0.0, 50.0], &[-1.0, 3.0, 99.0]);
        }
        let log = validate_jsonl(&sink.contents()).expect("valid trace");
        assert_eq!(log.schema, crate::sink::SCHEMA_ID);
        assert_eq!(log.spans.len(), 2);
        // Children are written first (completion order); parent links
        // still resolve.
        assert_eq!(log.spans[0].name, "mc_wave");
        assert_eq!(log.spans[0].parent, Some(log.spans[1].id));
        assert_eq!(log.spans[0].fields["trials"], FieldScalar::Num(512.0));
        assert_eq!(
            log.spans[1].fields["label"],
            FieldScalar::Str("quick".to_string())
        );
        assert_eq!(log.counters["mc.trials"], 512);
        assert!((log.gauges["mc.trials_per_sec"] - 1000.5).abs() < 1e-9);
        let hist = &log.histograms["mc.tdp_percent"];
        assert_eq!(hist.counts, vec![1, 1]);
        assert_eq!(hist.underflow, 0);
        assert_eq!(hist.overflow, 1);
        assert_eq!(hist.count, 3);
    }

    #[test]
    fn missing_meta_line_is_rejected() {
        let doc = "{\"type\":\"counter\",\"name\":\"x\",\"value\":1}\n";
        let result = validate_jsonl(doc);
        assert!(result.is_err());
        assert!(result.unwrap_err().message.contains("meta"));
    }

    #[test]
    fn unknown_parent_is_rejected() {
        let sink = JsonlSink::new();
        sink.on_span(&crate::SpanRecord {
            id: 5,
            parent: Some(99),
            name: "orphan",
            thread: 0,
            start_ns: 0,
            dur_ns: 1,
            fields: vec![],
        });
        let result = validate_jsonl(&sink.contents());
        assert!(result.unwrap_err().message.contains("unknown parent"));
    }

    #[test]
    fn duplicate_span_ids_are_rejected() {
        let sink = JsonlSink::new();
        for _ in 0..2 {
            sink.on_span(&crate::SpanRecord {
                id: 7,
                parent: None,
                name: "dup",
                thread: 0,
                start_ns: 0,
                dur_ns: 1,
                fields: vec![],
            });
        }
        let result = validate_jsonl(&sink.contents());
        assert!(result.unwrap_err().message.contains("duplicate span id"));
    }

    #[test]
    fn histogram_edge_count_mismatch_is_rejected() {
        let doc = format!(
            "{{\"type\":\"meta\",\"schema\":\"{}\"}}\n{}",
            crate::sink::SCHEMA_ID,
            "{\"type\":\"histogram\",\"name\":\"h\",\"bounds\":[0.0,1.0],\
             \"counts\":[1,2],\"underflow\":0,\"overflow\":0,\"sum\":0.0,\"count\":3}"
        );
        let result = validate_jsonl(&doc);
        assert!(result.unwrap_err().message.contains("bounds"));
    }
}
