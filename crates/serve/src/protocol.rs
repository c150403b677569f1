//! The `mpvar-serve/v1` wire protocol: versioned request / response /
//! progress message types, their newline-delimited JSON encoding, and
//! a transcript validator mirroring `mpvar-trace/v1`'s.
//!
//! Every message is one line of JSON and carries
//! `"schema":"mpvar-serve/v1"`, so a transcript is self-describing
//! line by line (unlike a trace document, a serve conversation has no
//! natural "first line" once client and server streams are
//! interleaved).
//!
//! Client → server:
//!
//! ```text
//! {"schema":"mpvar-serve/v1","type":"request","id":"r1",
//!  "artifacts":["table3"],"context":{"preset":"quick","sizes":[8],
//!  "trials":500,"seed":7,"threads":2},"progress":true}
//! {"schema":"mpvar-serve/v1","type":"stats"}
//! {"schema":"mpvar-serve/v1","type":"shutdown"}
//! ```
//!
//! Server → client (all tagged with the request `id` they answer):
//!
//! ```text
//! {"schema":"mpvar-serve/v1","type":"ack","id":"r1","fingerprint":"91ab...cd"}
//! {"schema":"mpvar-serve/v1","type":"progress","id":"r1",
//!  "artifact":"table1","outcome":"computed","dur_ns":81000000}
//! {"schema":"mpvar-serve/v1","type":"result","id":"r1",
//!  "artifacts":[{"id":"table3","text":"...","csv":"..."}]}
//! {"schema":"mpvar-serve/v1","type":"error","id":"r1","message":"..."}
//! {"schema":"mpvar-serve/v1","type":"stats","counters":{"serve.requests":4},
//!  "gauges":{"serve.cache_hit_rate":0.75,"serve.dedupe_ratio":0.2},
//!  "latencies":{"warm_hit":{"bounds":[...],"counts":[...],"underflow":0,
//!  "overflow":0,"sum":81000,"count":3,"p50_ns":21000,"p95_ns":60000,
//!  "p99_ns":71000}},"windows":[{"seq":0,"requests":4,"warm_hit":3,
//!  "deduped":0,"cold":1,"errors":0}]}
//! ```
//!
//! Parsing is strict where it matters (unknown artifact names, bad
//! types, wrong schema are errors) and closed-world: an unknown
//! message `type` is rejected, so a v2 speaker fails loudly instead of
//! being half-understood.

use std::collections::BTreeMap;
use std::fmt;

use mpvar_core::experiments::ExperimentContext;
use mpvar_core::{CoreError, ExecConfig};
use mpvar_study::ArtifactId;
use mpvar_trace::json::{
    get_f64, get_f64_array, get_str, get_str_array, get_u64, get_u64_array, parse_json,
    push_json_f64, push_json_str, Json, Obj,
};
use mpvar_trace::metrics::HistogramMetric;

use crate::telemetry::{LatencyStat, ServeStats, StatsWindow};

/// Schema identifier carried by every `mpvar-serve/v1` message.
pub const SCHEMA_ID: &str = "mpvar-serve/v1";

/// A protocol parse/validation failure, with the 1-based line number
/// (0 when validating a single line).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// 1-based line number of the offending line (0 for single-line
    /// parses).
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serve protocol error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ProtocolError {}

// ---------------------------------------------------------------------
// Context specification
// ---------------------------------------------------------------------

/// The experiment preset a request starts from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preset {
    /// `ExperimentContext::quick()` scale (seconds).
    #[default]
    Quick,
    /// The paper's full design of experiments (minutes).
    Paper,
}

/// The context knobs a request may override, applied on top of the
/// preset. Everything here is part of the server-side cache identity
/// except `threads` (results are bit-identical at any thread count, so
/// thread count is deliberately not result-affecting).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ContextSpec {
    /// Base preset (default: quick).
    pub preset: Preset,
    /// SRAM array sizes override.
    pub sizes: Option<Vec<usize>>,
    /// Monte-Carlo trial count override.
    pub trials: Option<usize>,
    /// Monte-Carlo seed override.
    pub seed: Option<u64>,
    /// Worker-thread count for this materialization, capped at the
    /// host's available parallelism when the context is built.
    pub threads: Option<usize>,
}

/// The cores the OS lets this process use: the worker count of an
/// [`ExecConfig`] left at its default.
fn host_parallelism() -> usize {
    ExecConfig::default().effective_threads()
}

impl ContextSpec {
    /// Builds the [`ExperimentContext`] this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates context-construction failures (bad technology
    /// presets).
    pub fn build(&self) -> Result<ExperimentContext, CoreError> {
        let mut builder = ExperimentContext::builder()?;
        builder = match self.preset {
            Preset::Quick => builder.quick_preset(),
            Preset::Paper => builder.paper_preset(),
        };
        if let Some(sizes) = &self.sizes {
            builder = builder.sizes(sizes.clone());
        }
        if let Some(trials) = self.trials {
            builder = builder.trials(trials);
        }
        if let Some(seed) = self.seed {
            builder = builder.seed(seed);
        }
        if let Some(threads) = self.threads {
            // A client names a worker count, not a thread budget: more
            // workers than cores only adds OS threads (each map spawns
            // up to `threads` of them), and results are bit-identical at
            // any count.
            builder = builder.threads(threads.min(host_parallelism()));
        }
        Ok(builder.build())
    }

    fn encode(&self, out: &mut String) {
        out.push_str("{\"preset\":");
        push_json_str(
            out,
            match self.preset {
                Preset::Quick => "quick",
                Preset::Paper => "paper",
            },
        );
        if let Some(sizes) = &self.sizes {
            out.push_str(",\"sizes\":[");
            for (i, n) in sizes.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&n.to_string());
            }
            out.push(']');
        }
        if let Some(trials) = self.trials {
            out.push_str(&format!(",\"trials\":{trials}"));
        }
        if let Some(seed) = self.seed {
            out.push_str(&format!(",\"seed\":{seed}"));
        }
        if let Some(threads) = self.threads {
            out.push_str(&format!(",\"threads\":{threads}"));
        }
        out.push('}');
    }

    fn decode(obj: &Obj) -> Result<ContextSpec, String> {
        for key in obj.keys() {
            if !matches!(
                key.as_str(),
                "preset" | "sizes" | "trials" | "seed" | "threads"
            ) {
                return Err(format!("unknown context knob `{key}`"));
            }
        }
        let preset = match obj.get("preset") {
            None => Preset::Quick,
            Some(Json::Str(s)) if s == "quick" => Preset::Quick,
            Some(Json::Str(s)) if s == "paper" => Preset::Paper,
            Some(Json::Str(s)) => return Err(format!("unknown preset `{s}`")),
            Some(_) => return Err("`preset` must be a string".to_string()),
        };
        let sizes = match obj.get("sizes") {
            None => None,
            Some(_) => {
                let raw = mpvar_trace::json::get_u64_array(obj, "sizes")?;
                if raw.is_empty() {
                    return Err("`sizes` must not be empty".to_string());
                }
                Some(raw.into_iter().map(|n| n as usize).collect())
            }
        };
        let opt_u64 = |key: &str| -> Result<Option<u64>, String> {
            match obj.get(key) {
                None => Ok(None),
                Some(_) => get_u64(obj, key).map(Some),
            }
        };
        Ok(ContextSpec {
            preset,
            sizes,
            trials: opt_u64("trials")?.map(|n| n as usize),
            seed: opt_u64("seed")?,
            threads: opt_u64("threads")?.map(|n| n as usize),
        })
    }
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// An analysis request.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisRequest {
    /// Client-chosen correlation id; every server message answering
    /// this request echoes it.
    pub id: String,
    /// The artifacts to materialize, in response order.
    pub artifacts: Vec<ArtifactId>,
    /// Context knobs.
    pub context: ContextSpec,
    /// Whether to stream per-node progress events.
    pub progress: bool,
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMessage {
    /// Submit an analysis request.
    Request(AnalysisRequest),
    /// Ask for the server's live dispatch counters.
    Stats,
    /// Ask the server to stop accepting connections and exit.
    Shutdown,
}

/// One rendered artifact in a result message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderedArtifact {
    /// Artifact name (as in [`ArtifactId::name`]).
    pub id: String,
    /// Rendered report text.
    pub text: String,
    /// Rendered CSV.
    pub csv: String,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// The request was accepted; materialization is scheduled.
    Ack {
        /// Echoed request id.
        id: String,
        /// Hex context fingerprint governing cache identity.
        fingerprint: String,
    },
    /// One artifact-graph node finished (or was served from cache)
    /// while materializing this request.
    Progress {
        /// Echoed request id.
        id: String,
        /// Node name.
        artifact: String,
        /// `computed` or `cache_hit`.
        outcome: String,
        /// Node wall-clock, nanoseconds (0 for cache hits).
        dur_ns: u64,
    },
    /// The request finished: every requested artifact, rendered, in
    /// request order.
    Result {
        /// Echoed request id.
        id: String,
        /// Rendered artifacts.
        artifacts: Vec<RenderedArtifact>,
    },
    /// The request (or the line that tried to be one) failed.
    Error {
        /// Echoed request id ("" when the line was unparseable).
        id: String,
        /// Failure description.
        message: String,
    },
    /// Live dispatch telemetry: counters plus (since the telemetry
    /// extension) gauges, per-outcome latency histograms with derived
    /// quantiles, and the recent snapshot-window ring. The enriched
    /// fields are optional on the wire — a `{"counters":{...}}`-only
    /// line from an older server still parses, with the extras empty.
    Stats {
        /// The full stats payload.
        stats: ServeStats,
    },
}

impl ClientMessage {
    /// Encodes the message as one newline-terminated JSON line.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"schema\":");
        push_json_str(&mut out, SCHEMA_ID);
        match self {
            ClientMessage::Request(req) => {
                out.push_str(",\"type\":\"request\",\"id\":");
                push_json_str(&mut out, &req.id);
                out.push_str(",\"artifacts\":[");
                for (i, a) in req.artifacts.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(&mut out, a.name());
                }
                out.push_str("],\"context\":");
                req.context.encode(&mut out);
                out.push_str(&format!(",\"progress\":{}", req.progress));
            }
            ClientMessage::Stats => out.push_str(",\"type\":\"stats\""),
            ClientMessage::Shutdown => out.push_str(",\"type\":\"shutdown\""),
        }
        out.push_str("}\n");
        out
    }

    /// Parses one client line.
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema problem.
    pub fn parse(line: &str) -> Result<ClientMessage, String> {
        let obj = parse_object(line)?;
        match get_str(&obj, "type")? {
            "request" => {
                let id = get_str(&obj, "id")?.to_string();
                if id.is_empty() {
                    return Err("request `id` must not be empty".to_string());
                }
                let names = get_str_array(&obj, "artifacts")?;
                if names.is_empty() {
                    return Err("`artifacts` must not be empty".to_string());
                }
                let artifacts = names
                    .iter()
                    .map(|name| {
                        ArtifactId::try_parse(name)
                            .map_err(|_| format!("unknown artifact `{name}`"))
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let context = match obj.get("context") {
                    None => ContextSpec::default(),
                    Some(Json::Obj(ctx)) => ContextSpec::decode(ctx)?,
                    Some(_) => return Err("`context` must be an object".to_string()),
                };
                let progress = match obj.get("progress") {
                    None => false,
                    Some(Json::Bool(b)) => *b,
                    Some(_) => return Err("`progress` must be a boolean".to_string()),
                };
                Ok(ClientMessage::Request(AnalysisRequest {
                    id,
                    artifacts,
                    context,
                    progress,
                }))
            }
            "stats" => Ok(ClientMessage::Stats),
            "shutdown" => Ok(ClientMessage::Shutdown),
            other => Err(format!("unknown client message type `{other}`")),
        }
    }
}

impl ServerMessage {
    /// Encodes the message as one newline-terminated JSON line.
    pub fn to_line(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"schema\":");
        push_json_str(&mut out, SCHEMA_ID);
        match self {
            ServerMessage::Ack { id, fingerprint } => {
                out.push_str(",\"type\":\"ack\",\"id\":");
                push_json_str(&mut out, id);
                out.push_str(",\"fingerprint\":");
                push_json_str(&mut out, fingerprint);
            }
            ServerMessage::Progress {
                id,
                artifact,
                outcome,
                dur_ns,
            } => {
                out.push_str(",\"type\":\"progress\",\"id\":");
                push_json_str(&mut out, id);
                out.push_str(",\"artifact\":");
                push_json_str(&mut out, artifact);
                out.push_str(",\"outcome\":");
                push_json_str(&mut out, outcome);
                out.push_str(&format!(",\"dur_ns\":{dur_ns}"));
            }
            ServerMessage::Result { id, artifacts } => {
                out.push_str(",\"type\":\"result\",\"id\":");
                push_json_str(&mut out, id);
                out.push_str(",\"artifacts\":[");
                for (i, a) in artifacts.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"id\":");
                    push_json_str(&mut out, &a.id);
                    out.push_str(",\"text\":");
                    push_json_str(&mut out, &a.text);
                    out.push_str(",\"csv\":");
                    push_json_str(&mut out, &a.csv);
                    out.push('}');
                }
                out.push(']');
            }
            ServerMessage::Error { id, message } => {
                out.push_str(",\"type\":\"error\",\"id\":");
                push_json_str(&mut out, id);
                out.push_str(",\"message\":");
                push_json_str(&mut out, message);
            }
            ServerMessage::Stats { stats } => {
                out.push_str(",\"type\":\"stats\",\"counters\":{");
                for (i, (name, value)) in stats.counters.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    push_json_str(&mut out, name);
                    out.push_str(&format!(":{value}"));
                }
                out.push('}');
                if !stats.gauges.is_empty() {
                    out.push_str(",\"gauges\":{");
                    for (i, (name, value)) in stats.gauges.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        push_json_str(&mut out, name);
                        out.push(':');
                        push_json_f64(&mut out, *value);
                    }
                    out.push('}');
                }
                if !stats.latencies.is_empty() {
                    out.push_str(",\"latencies\":{");
                    for (i, (outcome, stat)) in stats.latencies.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        push_json_str(&mut out, outcome);
                        out.push(':');
                        encode_latency(&mut out, stat);
                    }
                    out.push('}');
                }
                if !stats.windows.is_empty() {
                    out.push_str(",\"windows\":[");
                    for (i, w) in stats.windows.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&format!(
                            "{{\"seq\":{},\"requests\":{},\"warm_hit\":{},\
                             \"deduped\":{},\"cold\":{},\"errors\":{}}}",
                            w.seq, w.requests, w.warm_hit, w.deduped, w.cold, w.errors
                        ));
                    }
                    out.push(']');
                }
            }
        }
        out.push_str("}\n");
        out
    }

    /// Parses one server line.
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema problem.
    pub fn parse(line: &str) -> Result<ServerMessage, String> {
        let obj = parse_object(line)?;
        match get_str(&obj, "type")? {
            "ack" => Ok(ServerMessage::Ack {
                id: get_str(&obj, "id")?.to_string(),
                fingerprint: get_str(&obj, "fingerprint")?.to_string(),
            }),
            "progress" => {
                let outcome = get_str(&obj, "outcome")?.to_string();
                if outcome != "computed" && outcome != "cache_hit" {
                    return Err(format!("unknown progress outcome `{outcome}`"));
                }
                Ok(ServerMessage::Progress {
                    id: get_str(&obj, "id")?.to_string(),
                    artifact: get_str(&obj, "artifact")?.to_string(),
                    outcome,
                    dur_ns: get_u64(&obj, "dur_ns")?,
                })
            }
            "result" => {
                let Some(Json::Arr(items)) = obj.get("artifacts") else {
                    return Err("`artifacts` must be an array".to_string());
                };
                let artifacts = items
                    .iter()
                    .map(|item| {
                        let entry = item.as_object().ok_or("result artifacts must be objects")?;
                        let id = get_str(entry, "id")?;
                        ArtifactId::try_parse(id)
                            .map_err(|_| format!("unknown artifact `{id}`"))?;
                        Ok(RenderedArtifact {
                            id: id.to_string(),
                            text: get_str(entry, "text")?.to_string(),
                            csv: get_str(entry, "csv")?.to_string(),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(ServerMessage::Result {
                    id: get_str(&obj, "id")?.to_string(),
                    artifacts,
                })
            }
            "error" => Ok(ServerMessage::Error {
                id: get_str(&obj, "id")?.to_string(),
                message: get_str(&obj, "message")?.to_string(),
            }),
            "stats" => decode_stats(&obj).map(|stats| ServerMessage::Stats { stats }),
            other => Err(format!("unknown server message type `{other}`")),
        }
    }
}

fn encode_latency(out: &mut String, stat: &LatencyStat) {
    let h = &stat.histogram;
    out.push_str("{\"bounds\":[");
    for (i, b) in h.bounds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_f64(out, *b);
    }
    out.push_str("],\"counts\":[");
    for (i, c) in h.counts.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&c.to_string());
    }
    out.push_str(&format!(
        "],\"underflow\":{},\"overflow\":{},\"sum\":",
        h.underflow, h.overflow
    ));
    push_json_f64(out, h.sum);
    out.push_str(&format!(",\"count\":{},\"p50_ns\":", h.count));
    push_json_f64(out, stat.p50_ns);
    out.push_str(",\"p95_ns\":");
    push_json_f64(out, stat.p95_ns);
    out.push_str(",\"p99_ns\":");
    push_json_f64(out, stat.p99_ns);
    out.push('}');
}

fn decode_stats(obj: &Obj) -> Result<ServeStats, String> {
    let Some(Json::Obj(raw)) = obj.get("counters") else {
        return Err("`counters` must be an object".to_string());
    };
    let mut counters = BTreeMap::new();
    for (name, value) in raw {
        let Json::Num(n) = value else {
            return Err(format!("counter `{name}` must be a number"));
        };
        counters.insert(
            name.clone(),
            mpvar_trace::json::to_u64(*n).map_err(|m| format!("counter `{name}`: {m}"))?,
        );
    }
    let mut gauges = BTreeMap::new();
    match obj.get("gauges") {
        None => {}
        Some(Json::Obj(raw)) => {
            for (name, value) in raw {
                let Json::Num(n) = value else {
                    return Err(format!("gauge `{name}` must be a finite number"));
                };
                if !n.is_finite() {
                    return Err(format!("gauge `{name}` must be a finite number"));
                }
                gauges.insert(name.clone(), *n);
            }
        }
        Some(_) => return Err("`gauges` must be an object".to_string()),
    }
    let mut latencies = BTreeMap::new();
    match obj.get("latencies") {
        None => {}
        Some(Json::Obj(raw)) => {
            for (outcome, value) in raw {
                let entry = value
                    .as_object()
                    .ok_or_else(|| format!("latency `{outcome}` must be an object"))?;
                let stat =
                    decode_latency(entry).map_err(|m| format!("latency `{outcome}`: {m}"))?;
                latencies.insert(outcome.clone(), stat);
            }
        }
        Some(_) => return Err("`latencies` must be an object".to_string()),
    }
    let mut windows = Vec::new();
    match obj.get("windows") {
        None => {}
        Some(Json::Arr(items)) => {
            for (i, item) in items.iter().enumerate() {
                let entry = item
                    .as_object()
                    .ok_or_else(|| format!("window {i} must be an object"))?;
                windows.push(decode_window(entry).map_err(|m| format!("window {i}: {m}"))?);
            }
        }
        Some(_) => return Err("`windows` must be an array".to_string()),
    }
    Ok(ServeStats {
        counters,
        gauges,
        latencies,
        windows,
    })
}

fn decode_latency(entry: &Obj) -> Result<LatencyStat, String> {
    let bounds = get_f64_array(entry, "bounds")?;
    if bounds.len() < 2 {
        return Err("`bounds` needs at least two edges".to_string());
    }
    if bounds.iter().any(|b| !b.is_finite()) || bounds.windows(2).any(|w| w[0] >= w[1]) {
        return Err("`bounds` must be finite and strictly ascending".to_string());
    }
    let counts = get_u64_array(entry, "counts")?;
    if bounds.len() != counts.len() + 1 {
        return Err(format!(
            "{} bounds do not frame {} counts (need counts + 1)",
            bounds.len(),
            counts.len()
        ));
    }
    let underflow = get_u64(entry, "underflow")?;
    let overflow = get_u64(entry, "overflow")?;
    let count = get_u64(entry, "count")?;
    let bucketed: u64 = counts.iter().sum();
    if count != bucketed + underflow + overflow {
        return Err(format!(
            "`count` {count} disagrees with buckets + under/overflow \
             ({bucketed} + {underflow} + {overflow})"
        ));
    }
    let sum = get_f64(entry, "sum")?;
    if !sum.is_finite() {
        return Err("`sum` must be finite".to_string());
    }
    let quantile = |key: &str| -> Result<f64, String> {
        let v = get_f64(entry, key)?;
        if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("`{key}` must be finite"))
        }
    };
    let (p50_ns, p95_ns, p99_ns) = (
        quantile("p50_ns")?,
        quantile("p95_ns")?,
        quantile("p99_ns")?,
    );
    if !(p50_ns <= p95_ns && p95_ns <= p99_ns) {
        return Err(format!(
            "quantiles out of order: p50 {p50_ns} / p95 {p95_ns} / p99 {p99_ns}"
        ));
    }
    Ok(LatencyStat {
        histogram: HistogramMetric {
            bounds,
            counts,
            underflow,
            overflow,
            sum,
            count,
        },
        p50_ns,
        p95_ns,
        p99_ns,
    })
}

fn decode_window(entry: &Obj) -> Result<StatsWindow, String> {
    let window = StatsWindow {
        seq: get_u64(entry, "seq")?,
        requests: get_u64(entry, "requests")?,
        warm_hit: get_u64(entry, "warm_hit")?,
        deduped: get_u64(entry, "deduped")?,
        cold: get_u64(entry, "cold")?,
        errors: get_u64(entry, "errors")?,
    };
    if window.warm_hit + window.deduped + window.cold != window.requests {
        return Err(format!(
            "`requests` {} disagrees with outcome counts ({} + {} + {})",
            window.requests, window.warm_hit, window.deduped, window.cold
        ));
    }
    Ok(window)
}

fn parse_object(line: &str) -> Result<Obj, String> {
    let value = parse_json(line.trim())?;
    let obj = value
        .as_object()
        .ok_or("line is not a JSON object")?
        .clone();
    let schema = get_str(&obj, "schema")?;
    if schema != SCHEMA_ID {
        return Err(format!(
            "unsupported schema `{schema}` (expected `{SCHEMA_ID}`)"
        ));
    }
    Ok(obj)
}

/// Either side's message, as it appears in a transcript.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeMessage {
    /// A client → server line.
    Client(ClientMessage),
    /// A server → client line.
    Server(ServerMessage),
}

/// A parsed and validated `mpvar-serve/v1` transcript.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServeLog {
    /// All messages, in file order.
    pub messages: Vec<ServeMessage>,
}

impl ServeLog {
    /// Number of `request` lines.
    pub fn requests(&self) -> usize {
        self.count(|m| matches!(m, ServeMessage::Client(ClientMessage::Request(_))))
    }

    /// Number of `result` lines.
    pub fn results(&self) -> usize {
        self.count(|m| matches!(m, ServeMessage::Server(ServerMessage::Result { .. })))
    }

    /// Number of `error` lines.
    pub fn errors(&self) -> usize {
        self.count(|m| matches!(m, ServeMessage::Server(ServerMessage::Error { .. })))
    }

    /// Number of `progress` lines.
    pub fn progress_events(&self) -> usize {
        self.count(|m| matches!(m, ServeMessage::Server(ServerMessage::Progress { .. })))
    }

    fn count(&self, pred: impl Fn(&ServeMessage) -> bool) -> usize {
        self.messages.iter().filter(|m| pred(m)).count()
    }
}

/// Parses and validates a newline-delimited `mpvar-serve/v1`
/// transcript (client lines, server lines, or a mix).
///
/// Every line must parse as *some* valid serve message and every
/// `result` must answer an acknowledged or at least seen request id
/// when requests are present in the transcript.
///
/// # Errors
///
/// [`ProtocolError`] with the first offending line.
pub fn validate_serve_jsonl(text: &str) -> Result<ServeLog, ProtocolError> {
    let mut log = ServeLog::default();
    let mut request_ids: Vec<String> = Vec::new();
    let mut saw_request_lines = false;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let err = |message: String| ProtocolError {
            line: line_no,
            message,
        };
        // A line must be a valid client message or a valid server
        // message; report the server-side diagnosis when neither (the
        // type tag picks the side, so only one parse can get past it).
        let message = match ClientMessage::parse(raw) {
            Ok(m) => {
                if let ClientMessage::Request(req) = &m {
                    saw_request_lines = true;
                    request_ids.push(req.id.clone());
                }
                ServeMessage::Client(m)
            }
            Err(client_err) => match ServerMessage::parse(raw) {
                Ok(m) => ServeMessage::Server(m),
                Err(server_err) => {
                    let detail = if client_err.contains("unknown client message type") {
                        server_err
                    } else {
                        client_err
                    };
                    return Err(err(detail));
                }
            },
        };
        if let ServeMessage::Server(ServerMessage::Result { id, .. }) = &message {
            if saw_request_lines && !request_ids.iter().any(|r| r == id) {
                return Err(err(format!("result answers unknown request id `{id}`")));
            }
        }
        log.messages.push(message);
    }
    if log.messages.is_empty() {
        return Err(ProtocolError {
            line: 1,
            message: "empty transcript".into(),
        });
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> AnalysisRequest {
        AnalysisRequest {
            id: "r1".to_string(),
            artifacts: vec![ArtifactId::Table3, ArtifactId::Table1],
            context: ContextSpec {
                preset: Preset::Quick,
                sizes: Some(vec![8, 16]),
                trials: Some(500),
                seed: Some(7),
                threads: Some(2),
            },
            progress: true,
        }
    }

    #[test]
    fn client_messages_round_trip() {
        for message in [
            ClientMessage::Request(sample_request()),
            ClientMessage::Stats,
            ClientMessage::Shutdown,
        ] {
            let line = message.to_line();
            assert_eq!(ClientMessage::parse(&line).as_ref(), Ok(&message), "{line}");
        }
    }

    #[test]
    fn server_messages_round_trip() {
        let messages = [
            ServerMessage::Ack {
                id: "r1".into(),
                fingerprint: "00ab3f".into(),
            },
            ServerMessage::Progress {
                id: "r1".into(),
                artifact: "table1".into(),
                outcome: "computed".into(),
                dur_ns: 81_000_000,
            },
            ServerMessage::Result {
                id: "r1".into(),
                artifacts: vec![RenderedArtifact {
                    id: "table1".into(),
                    text: "line1\nline2 \"quoted\"".into(),
                    csv: "a,b\n1,2\n".into(),
                }],
            },
            ServerMessage::Error {
                id: "r9".into(),
                message: "unknown artifact `tableX`".into(),
            },
            ServerMessage::Stats {
                stats: ServeStats {
                    counters: BTreeMap::from([
                        ("serve.requests".to_string(), 4),
                        ("serve.materializations".to_string(), 2),
                    ]),
                    ..ServeStats::default()
                },
            },
        ];
        for message in messages {
            let line = message.to_line();
            assert_eq!(ServerMessage::parse(&line).as_ref(), Ok(&message), "{line}");
        }
    }

    /// An enriched stats payload as the telemetry produces it.
    fn sample_stats() -> ServeStats {
        use crate::telemetry::{RequestOutcome, ServeTelemetry};
        use std::time::Duration;
        let t = ServeTelemetry::with_window(Duration::from_secs(3600));
        t.record(RequestOutcome::Cold, Duration::from_millis(700));
        t.record(RequestOutcome::WarmHit, Duration::from_micros(40));
        t.record(RequestOutcome::WarmHit, Duration::from_micros(55));
        t.record(RequestOutcome::Deduped, Duration::from_millis(650));
        t.record_error();
        t.roll_window();
        t.record(RequestOutcome::WarmHit, Duration::from_micros(35));
        t.snapshot(BTreeMap::from([
            ("serve.requests".to_string(), 5),
            ("serve.dedup_hits".to_string(), 1),
        ]))
    }

    #[test]
    fn enriched_stats_round_trip_exactly() {
        let message = ServerMessage::Stats {
            stats: sample_stats(),
        };
        let line = message.to_line();
        assert_eq!(ServerMessage::parse(&line), Ok(message), "{line}");
    }

    #[test]
    fn stats_keys_encode_deterministically_sorted() {
        let line = ServerMessage::Stats {
            stats: sample_stats(),
        }
        .to_line();
        // Counters, gauges, and latency outcomes must appear in sorted
        // key order regardless of insertion history.
        let pos = |needle: &str| {
            line.find(needle)
                .unwrap_or_else(|| panic!("{needle} in {line}"))
        };
        assert!(pos("serve.dedup_hits") < pos("serve.requests"));
        assert!(pos("serve.cache_hit_rate") < pos("serve.dedupe_ratio"));
        assert!(pos("\"cold\"") < pos("\"deduped\""));
        assert!(pos("\"deduped\"") < pos("\"warm_hit\""));
        // Re-encoding the parse is byte-identical: the line is canonical.
        let reparsed = ServerMessage::parse(&line).expect("parses");
        assert_eq!(reparsed.to_line(), line);
    }

    #[test]
    fn stats_parser_rejects_malformed_telemetry_shapes() {
        let line = ServerMessage::Stats {
            stats: sample_stats(),
        }
        .to_line();
        // Quantiles out of order.
        let doctored = line.replace("\"p99_ns\":", "\"p99_ns\":0e0,\"ignored\":");
        assert!(
            ServerMessage::parse(&doctored)
                .unwrap_err()
                .contains("quantiles out of order"),
            "{doctored}"
        );
        // Window outcome counts that do not add up.
        let bad_window = line.replace("\"cold\":1", "\"cold\":2");
        assert!(ServerMessage::parse(&bad_window)
            .unwrap_err()
            .contains("disagrees with outcome counts"));
        // Histogram count that disagrees with its buckets.
        let bad_count = line.replace("\"underflow\":0", "\"underflow\":7");
        assert!(ServerMessage::parse(&bad_count)
            .unwrap_err()
            .contains("disagrees with buckets"));
        // Non-finite gauges are unrepresentable and rejected.
        let bad_gauge = line.replace(
            "\"serve.cache_hit_rate\":",
            "\"serve.cache_hit_rate\":null,\"x\":",
        );
        assert!(ServerMessage::parse(&bad_gauge)
            .unwrap_err()
            .contains("finite"));
        // Old counters-only stats lines still parse, extras empty.
        let legacy =
            r#"{"schema":"mpvar-serve/v1","type":"stats","counters":{"serve.requests":4}}"#;
        let ServerMessage::Stats { stats } = ServerMessage::parse(legacy).expect("legacy parses")
        else {
            panic!("stats expected");
        };
        assert_eq!(stats.counters["serve.requests"], 4);
        assert!(stats.gauges.is_empty() && stats.latencies.is_empty() && stats.windows.is_empty());
    }

    #[test]
    fn context_spec_rejects_unknown_knobs_and_bad_values() {
        let bad_knob = r#"{"schema":"mpvar-serve/v1","type":"request","id":"r","artifacts":["table1"],"context":{"turbo":true}}"#;
        assert!(ClientMessage::parse(bad_knob)
            .unwrap_err()
            .contains("unknown context knob"));
        let bad_artifact =
            r#"{"schema":"mpvar-serve/v1","type":"request","id":"r","artifacts":["tableX"]}"#;
        assert!(ClientMessage::parse(bad_artifact)
            .unwrap_err()
            .contains("unknown artifact"));
        let empty_id =
            r#"{"schema":"mpvar-serve/v1","type":"request","id":"","artifacts":["table1"]}"#;
        assert!(ClientMessage::parse(empty_id)
            .unwrap_err()
            .contains("must not be empty"));
        let wrong_schema = r#"{"schema":"mpvar-serve/v2","type":"stats"}"#;
        assert!(ClientMessage::parse(wrong_schema)
            .unwrap_err()
            .contains("unsupported schema"));
    }

    #[test]
    fn deeply_nested_line_is_an_error_not_a_stack_overflow() {
        // 60 KB fits under the 64 KiB line cap; unbounded recursion
        // would need far more stack than a connection thread has.
        let err = ClientMessage::parse(&"[".repeat(60_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }

    #[test]
    fn context_spec_builds_the_context_it_names() {
        let spec = ContextSpec {
            preset: Preset::Quick,
            sizes: Some(vec![8]),
            trials: Some(200),
            seed: Some(9),
            threads: Some(2),
        };
        let ctx = spec.build().expect("context builds");
        assert_eq!(ctx.sizes, vec![8]);
        assert_eq!(ctx.mc.trials, 200);
        assert_eq!(ctx.mc.seed, 9);
    }

    #[test]
    fn context_spec_caps_threads_at_the_host_parallelism() {
        // Builds the context only: nothing here spawns a thread.
        let cap = host_parallelism();
        for requested in [1, cap, cap + 1, 1_000_000, usize::MAX] {
            let spec = ContextSpec {
                threads: Some(requested),
                ..ContextSpec::default()
            };
            let ctx = spec.build().expect("context builds");
            for exec in [ctx.exec, ctx.mc.exec] {
                assert!(exec.effective_threads() <= cap, "{requested} threads");
                assert_eq!(exec.effective_threads(), requested.min(cap));
            }
        }
    }

    #[test]
    fn transcript_validator_accepts_a_conversation_and_rejects_junk() {
        let mut transcript = String::new();
        transcript.push_str(&ClientMessage::Request(sample_request()).to_line());
        transcript.push_str(
            &ServerMessage::Ack {
                id: "r1".into(),
                fingerprint: "ab".into(),
            }
            .to_line(),
        );
        transcript.push_str(
            &ServerMessage::Result {
                id: "r1".into(),
                artifacts: vec![],
            }
            .to_line(),
        );
        let log = validate_serve_jsonl(&transcript).expect("valid transcript");
        assert_eq!(log.requests(), 1);
        assert_eq!(log.results(), 1);
        assert_eq!(log.errors(), 0);

        let orphan = format!(
            "{}{}",
            ClientMessage::Request(sample_request()).to_line(),
            ServerMessage::Result {
                id: "r2".into(),
                artifacts: vec![],
            }
            .to_line()
        );
        assert!(validate_serve_jsonl(&orphan)
            .unwrap_err()
            .message
            .contains("unknown request id"));

        assert!(validate_serve_jsonl("not json\n").is_err());
        assert!(validate_serve_jsonl("").is_err());
        let unknown_type = r#"{"schema":"mpvar-serve/v1","type":"frobnicate"}"#;
        assert!(validate_serve_jsonl(unknown_type).is_err());
    }
}
