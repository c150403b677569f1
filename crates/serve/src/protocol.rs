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
//! Each layout is declared once, as a field list
//! ([`mpvar_trace::json_record!`] / [`mpvar_trace::json_tagged!`]) that
//! both writes and reads it; the shape checks run on what was read.
//! Parsing is strict where it matters (unknown artifact names, bad
//! types, wrong schema are errors) and closed-world: an unknown
//! message `type` is rejected, so a v2 speaker fails loudly instead of
//! being half-understood.

use std::fmt;

use mpvar_core::experiments::ExperimentContext;
use mpvar_core::{CoreError, ExecConfig};
use mpvar_study::ArtifactId;
use mpvar_trace::json::{get_str, parse_json, push_json_str, Json, JsonCodec, Obj};
use mpvar_trace::{json_record, json_tagged};

use crate::telemetry::ServeStats;

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

impl JsonCodec for Preset {
    fn put(&self, out: &mut String) {
        push_json_str(
            out,
            match self {
                Preset::Quick => "quick",
                Preset::Paper => "paper",
            },
        );
    }

    fn get(value: &Json) -> Result<Self, String> {
        match value.as_str() {
            Some("quick") => Ok(Preset::Quick),
            Some("paper") => Ok(Preset::Paper),
            Some(other) => Err(format!("unknown preset `{other}`")),
            None => Err("must be a string".to_string()),
        }
    }
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

json_record! {
    ContextSpec {
        #[optional] preset, #[optional] sizes, #[optional] trials, #[optional] seed,
        #[optional] threads,
    },
    unknown "context knob"
}

/// Most Monte-Carlo trials one request may ask for: 50x the paper's
/// 20,000. Each trial index is allocated up front, so this bounds a
/// request's memory.
const MAX_TRIALS: usize = 1_000_000;

/// Tallest array a request may size: 4x the paper's 1,024 rows. Each
/// size builds a SPICE column of that many cells.
const MAX_ROWS: usize = 4_096;

/// Most array sizes one request may list.
const MAX_SIZES: usize = 64;

/// The cores the OS lets this process use: the worker count of an
/// [`ExecConfig`] left at its default.
fn host_parallelism() -> usize {
    ExecConfig::default().effective_threads()
}

impl ContextSpec {
    /// Builds the [`ExperimentContext`] this spec describes. Every
    /// request passes through here before any run starts.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] naming the knob when `trials`
    /// is outside 1..=1,000,000, a size is outside 1..=4,096 rows, or
    /// the sizes number more than 64 (or none); otherwise propagates
    /// context-construction failures (bad technology presets).
    pub fn build(&self) -> Result<ExperimentContext, CoreError> {
        let out_of = |name, value: usize, constraint| CoreError::InvalidParameter {
            name,
            value: value as f64,
            constraint,
        };
        let mut builder = ExperimentContext::builder()?;
        builder = match self.preset {
            Preset::Quick => builder.quick_preset(),
            Preset::Paper => builder.paper_preset(),
        };
        if let Some(sizes) = &self.sizes {
            if !(1..=MAX_SIZES).contains(&sizes.len()) {
                return Err(out_of("sizes", sizes.len(), "list 1 to 64 array sizes"));
            }
            if let Some(&rows) = sizes.iter().find(|n| !(1..=MAX_ROWS).contains(*n)) {
                return Err(out_of("sizes", rows, "each size must be 1 to 4096 rows"));
            }
            builder = builder.sizes(sizes.clone());
        }
        if let Some(trials) = self.trials {
            if !(1..=MAX_TRIALS).contains(&trials) {
                return Err(out_of("trials", trials, "must be 1 to 1000000"));
            }
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

json_record! {
    AnalysisRequest {
        id, #[with(artifact_names)] artifacts, #[optional] context, #[optional] progress,
    },
    check AnalysisRequest::check
}

impl AnalysisRequest {
    fn check(&self) -> Result<(), String> {
        if self.id.is_empty() {
            return Err("request `id` must not be empty".to_string());
        }
        if self.artifacts.is_empty() {
            return Err("`artifacts` must not be empty".to_string());
        }
        Ok(())
    }
}

/// Artifact ids on the wire: their names, checked against the artifact
/// graph as they are read. (`ArtifactId` lives in `mpvar-study`, so it
/// cannot implement [`JsonCodec`] itself.)
mod artifact_names {
    use super::*;

    pub(super) fn put(ids: &[ArtifactId], out: &mut String) {
        let names: Vec<String> = ids.iter().map(|id| id.name().to_string()).collect();
        names.put(out);
    }

    pub(super) fn get(obj: &Obj, key: &str) -> Result<Vec<ArtifactId>, String> {
        Vec::<String>::member(obj, key)?
            .iter()
            .map(|name| ArtifactId::parse(name).ok_or_else(|| format!("unknown artifact `{name}`")))
            .collect()
    }
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

json_tagged! {
    ClientMessage, "type", "client message type" {
        "request" => Request(AnalysisRequest),
        "stats" => Stats {},
        "shutdown" => Shutdown {},
    }
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

json_record! { RenderedArtifact { id, text, csv }, check RenderedArtifact::check }

impl RenderedArtifact {
    fn check(&self) -> Result<(), String> {
        match ArtifactId::parse(&self.id) {
            Some(_) => Ok(()),
            None => Err(format!("unknown artifact `{}`", self.id)),
        }
    }
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMessage {
    /// The request was accepted; materialization is scheduled.
    Ack {
        /// Echoed request id.
        id: String,
        /// Hex context fingerprint: the dispatcher groups waves by it.
        /// It is not the cache identity, which is per artifact and
        /// covers only the knobs that artifact reads.
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

json_tagged! {
    ServerMessage, "type", "server message type" {
        "ack" => Ack { id, fingerprint },
        "progress" => Progress { id, artifact, outcome, dur_ns },
        "result" => Result { id, artifacts },
        "error" => Error { id, message },
        "stats" => Stats { #[flatten] stats },
    },
    check ServerMessage::check
}

impl ServerMessage {
    /// Encodes the message as one newline-terminated JSON line.
    pub fn to_line(&self) -> String {
        to_line(self)
    }

    /// Parses one server line.
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema problem.
    pub fn parse(line: &str) -> Result<ServerMessage, String> {
        from_line(line)
    }

    fn check(&self) -> Result<(), String> {
        match self {
            ServerMessage::Progress { outcome, .. }
                if outcome != "computed" && outcome != "cache_hit" =>
            {
                Err(format!("unknown progress outcome `{outcome}`"))
            }
            _ => Ok(()),
        }
    }
}

impl ClientMessage {
    /// Encodes the message as one newline-terminated JSON line.
    pub fn to_line(&self) -> String {
        to_line(self)
    }

    /// Parses one client line.
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema problem.
    pub fn parse(line: &str) -> Result<ClientMessage, String> {
        from_line(line)
    }
}

/// One message as a line: the schema, then the message's own members.
fn to_line(message: &impl JsonCodec) -> String {
    let mut out = String::with_capacity(128);
    out.push_str("{\"schema\":");
    push_json_str(&mut out, SCHEMA_ID);
    message.put_fields(&mut out);
    out.push_str("}\n");
    out
}

fn from_line<T: JsonCodec>(line: &str) -> Result<T, String> {
    let value = parse_json(line.trim())?;
    let obj = value.as_object().ok_or("line is not a JSON object")?;
    let schema = get_str(obj, "schema")?;
    if schema != SCHEMA_ID {
        return Err(format!(
            "unsupported schema `{schema}` (expected `{SCHEMA_ID}`)"
        ));
    }
    T::get(&value)
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
    use std::collections::BTreeMap;

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

    /// One of each client message: a request with every context knob
    /// set, one with none, and the two bare commands.
    fn pinned_client_messages() -> Vec<ClientMessage> {
        vec![
            ClientMessage::Request(AnalysisRequest {
                id: "full".into(),
                artifacts: vec![ArtifactId::Fig4, ArtifactId::WriteYield],
                context: ContextSpec {
                    preset: Preset::Paper,
                    sizes: Some(vec![8, 1024]),
                    trials: Some(20_000),
                    seed: Some(2015),
                    threads: Some(4),
                },
                progress: true,
            }),
            ClientMessage::Request(AnalysisRequest {
                id: "bare".into(),
                artifacts: vec![ArtifactId::Table1],
                context: ContextSpec::default(),
                progress: false,
            }),
            ClientMessage::Stats,
            ClientMessage::Shutdown,
        ]
    }

    /// One of each server message, with a counters-only and an
    /// enriched `stats` line.
    fn pinned_server_messages() -> Vec<ServerMessage> {
        vec![
            ServerMessage::Ack {
                id: "r1".into(),
                fingerprint: "00ab3f".into(),
            },
            ServerMessage::Progress {
                id: "r1".into(),
                artifact: "table1".into(),
                outcome: "cache_hit".into(),
                dur_ns: 0,
            },
            ServerMessage::Result {
                id: "r1".into(),
                artifacts: vec![
                    RenderedArtifact {
                        id: "table1".into(),
                        text: "line1\nline2 \"quoted\"\t\\ ctrl\u{1} uni\u{e9}".into(),
                        csv: "a,b\n1,2.5\n".into(),
                    },
                    RenderedArtifact {
                        id: "fig5".into(),
                        text: String::new(),
                        csv: String::new(),
                    },
                ],
            },
            ServerMessage::Error {
                id: String::new(),
                message: "unknown artifact `tableX`".into(),
            },
            ServerMessage::Stats {
                stats: ServeStats {
                    counters: BTreeMap::from([("serve.requests".to_string(), 4)]),
                    ..ServeStats::default()
                },
            },
            ServerMessage::Stats {
                stats: sample_stats(),
            },
        ]
    }

    /// FNV-1a, 64-bit: a digest for the lines too long to pin verbatim.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Every line this module writes, in the order the pins list them.
    fn pinned_lines() -> Vec<String> {
        let client = pinned_client_messages().into_iter().map(|m| m.to_line());
        let server = pinned_server_messages().into_iter().map(|m| m.to_line());
        client.chain(server).collect()
    }

    #[test]
    fn wire_bytes_are_pinned() {
        let lines = pinned_lines();
        let verbatim = [
            r#"{"schema":"mpvar-serve/v1","type":"request","id":"full","artifacts":["fig4","write_yield"],"context":{"preset":"paper","sizes":[8,1024],"trials":20000,"seed":2015,"threads":4},"progress":true}"#,
            r#"{"schema":"mpvar-serve/v1","type":"request","id":"bare","artifacts":["table1"],"context":{"preset":"quick"},"progress":false}"#,
            r#"{"schema":"mpvar-serve/v1","type":"stats"}"#,
            r#"{"schema":"mpvar-serve/v1","type":"shutdown"}"#,
            r#"{"schema":"mpvar-serve/v1","type":"ack","id":"r1","fingerprint":"00ab3f"}"#,
            r#"{"schema":"mpvar-serve/v1","type":"progress","id":"r1","artifact":"table1","outcome":"cache_hit","dur_ns":0}"#,
            r#"{"schema":"mpvar-serve/v1","type":"result","id":"r1","artifacts":[{"id":"table1","text":"line1\nline2 \"quoted\"\t\\ ctrl\u0001 unié","csv":"a,b\n1,2.5\n"},{"id":"fig5","text":"","csv":""}]}"#,
            r#"{"schema":"mpvar-serve/v1","type":"error","id":"","message":"unknown artifact `tableX`"}"#,
            r#"{"schema":"mpvar-serve/v1","type":"stats","counters":{"serve.requests":4}}"#,
        ];
        assert_eq!(lines.len(), verbatim.len() + 1);
        for (line, expected) in lines.iter().zip(verbatim) {
            assert_eq!(line.strip_suffix('\n'), Some(expected));
        }
        // The enriched stats line: counters, gauges, three latency
        // histograms with quantiles, two windows.
        let enriched = &lines[verbatim.len()];
        assert_eq!(enriched.len(), 1556);
        assert_eq!(fnv1a(enriched.as_bytes()), 0x9937_5a4e_afb9_ad12);
    }

    /// Parses `line` as whichever side's message it is and, when it
    /// parses, requires that its re-encoding parse back equal.
    fn reparses_or_errs(line: &str) -> bool {
        match ClientMessage::parse(line) {
            Ok(m) => ClientMessage::parse(&m.to_line()) == Ok(m),
            Err(_) => match ServerMessage::parse(line) {
                Ok(m) => ServerMessage::parse(&m.to_line()) == Ok(m),
                Err(_) => true,
            },
        }
    }

    #[test]
    fn reader_never_panics_on_cut_or_flipped_lines() {
        for line in pinned_lines() {
            let bytes = line.trim_end().as_bytes();
            let mut variants: Vec<Vec<u8>> =
                (0..bytes.len()).map(|n| bytes[..n].to_vec()).collect();
            for i in 0..bytes.len() {
                for mask in [0x01, 0x80, 0xff] {
                    let mut flipped = bytes.to_vec();
                    flipped[i] ^= mask;
                    variants.push(flipped);
                }
            }
            for variant in variants {
                let text = String::from_utf8_lossy(&variant);
                let outcome = std::panic::catch_unwind(|| reparses_or_errs(&text));
                assert_eq!(outcome.ok(), Some(true), "{text}");
            }
        }
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
    fn big_seeds_run_exactly_or_are_refused() {
        let request = |seed: &str| {
            ClientMessage::parse(&format!(
                r#"{{"schema":"mpvar-serve/v1","type":"request","id":"r","artifacts":["table1"],"context":{{"seed":{seed}}}}}"#
            ))
        };
        // 2^53 + 1 used to run as 2^53.
        match request("9007199254740993") {
            Ok(ClientMessage::Request(r)) => assert_eq!(r.context.seed, Some((1 << 53) + 1)),
            other => panic!("{other:?}"),
        }
        // 2^64 used to saturate to u64::MAX; now the knob is named.
        let err = request("18446744073709551616").unwrap_err();
        assert!(
            err.contains("seed") && err.contains("out of range"),
            "{err}"
        );
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

    /// Builds the context only: no bound below starts a run, so none
    /// allocates what it names.
    #[test]
    fn context_spec_bounds_what_one_request_may_allocate() {
        let build_err = |spec: ContextSpec| match spec.build() {
            Err(CoreError::InvalidParameter { name, .. }) => name,
            other => panic!("expected a named error, got {other:?}"),
        };
        for trials in [0, MAX_TRIALS + 1, 1_000_000_000_000] {
            let spec = ContextSpec {
                trials: Some(trials),
                ..ContextSpec::default()
            };
            assert_eq!(build_err(spec), "trials", "{trials} trials");
        }
        for sizes in [
            vec![],
            vec![8, 0],
            vec![MAX_ROWS + 1],
            vec![8; MAX_SIZES + 1],
        ] {
            let spec = ContextSpec {
                sizes: Some(sizes.clone()),
                ..ContextSpec::default()
            };
            assert_eq!(build_err(spec), "sizes", "{sizes:?}");
        }
        // The edges themselves are allowed.
        let edge = ContextSpec {
            sizes: Some(vec![MAX_ROWS; MAX_SIZES]),
            trials: Some(MAX_TRIALS),
            ..ContextSpec::default()
        };
        let ctx = edge.build().expect("edges build");
        assert_eq!((ctx.sizes.len(), ctx.mc.trials), (MAX_SIZES, MAX_TRIALS));
        let low = ContextSpec {
            sizes: Some(vec![1]),
            trials: Some(1),
            ..ContextSpec::default()
        };
        assert!(low.build().is_ok());
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
