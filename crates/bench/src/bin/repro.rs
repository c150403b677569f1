//! `repro` — regenerates the paper's tables and figures.
//!
//! ```text
//! repro [--quick] [--out DIR] [--trace FILE] [--metrics] [--timings] <experiment | all>
//! repro check [--fast] [--golden DIR] [--oracle-cases N] [--trace FILE] [--metrics] [--timings]
//! repro validate-trace FILE
//! repro profile [--folded OUT] FILE
//! repro perf-check [--baseline FILE] FILE
//! repro serve [--addr HOST:PORT] [--store DIR]
//! repro client [--addr HOST:PORT] [--quick] <artifact>... | --stats | --shutdown
//! repro validate-serve FILE
//! repro serve-smoke [--store DIR]
//! ```
//!
//! The experiments are the artifact table's string ids; `repro --help`
//! lists all of them, from `ArtifactId::ALL`. `--quick` uses the down-scaled
//! context (small arrays, fewer Monte-Carlo trials); the default is the
//! paper's full design of experiments. CSV artefacts land in `--out`
//! (default `target/repro/`, so no run overwrites the committed goldens;
//! regenerating them takes an explicit `--out results`). The extra
//! `bench-batch-smoke` target times 16-lane batched SPICE reads against
//! per-draw scalar reads of the same 64 draws and fails unless the
//! batched path holds a 2x floor
//! (CI runs it traced and then validates the `spice.batch_*` counters
//! from the trace);
//! `bench-yield-smoke` runs the adaptive importance-sampling yield
//! engine on the planted `P_fail = 1e-6` problem and fails unless the
//! run converges with a truth-covering CI, holds the 50x
//! brute-force-equivalent floor, and is bit-identical across worker
//! counts (CI runs it traced and requires the `yield.rounds` counter).
//!
//! Every evaluation runs through a [`Study`] session and every layer of
//! the pipeline is instrumented with `mpvar-trace` spans and metrics:
//!
//! * `--trace FILE` writes the full run telemetry — spans from the
//!   parallel executor, the Monte-Carlo engine, the SPICE solver, and
//!   the study graph, plus the final metrics — as machine-readable
//!   JSONL (schema `mpvar-trace/v1`);
//! * `--metrics` prints the metrics snapshot (MC trials/sec, solver
//!   iterations, cache hits/misses, …) to stderr after the run;
//! * `--timings` prints the aggregated span tree — producer runs,
//!   cache hits, wall-clock per stage — to stderr after the run;
//! * `validate-trace FILE` parses a JSONL trace and checks it against
//!   the schema (CI runs this on every traced pipeline run);
//!   `--require-counter NAME` (repeatable) additionally fails unless
//!   the trace recorded a nonzero final value for that counter — the
//!   CI solver smoke uses it to prove the compiled kernel actually
//!   reused its symbolic analysis (`spice.lu_symbolic_reuses`) —
//!   and `--require-span NAME` (repeatable) fails unless the trace
//!   contains at least one completed span of that name;
//! * `profile FILE` runs the `mpvar-obs` trace analytics over a
//!   captured trace: per-span-name aggregates (count, total/self
//!   time, latency quantiles), the critical path through the dominant
//!   root, and — with `--folded OUT` — the folded-stack flamegraph
//!   export (`stack;frames self_ns`, one line per distinct stack,
//!   ready for `flamegraph.pl` or speedscope);
//! * `perf-check FILE` evaluates the trace against the committed
//!   relative perf baseline (`--baseline`, default
//!   `results/perf_baseline.json`) and exits non-zero when any named
//!   check regresses — the observability analogue of `repro check`.
//!
//! The serving quartet fronts the same study graph over a socket
//! (`mpvar-serve/v1`, newline-delimited JSON): `serve` runs the job
//! server against a persistent on-disk artifact store (warm restarts
//! replay cached analyses without touching a solver), `client` submits
//! one request and streams its progress (`client --stats` instead
//! renders the server's live telemetry: dispatch counters, cache
//! hit-rate and dedupe-ratio gauges, per-outcome latency quantiles,
//! and the recent snapshot windows), `validate-serve FILE` checks
//! a protocol transcript against the schema, and `serve-smoke` is the
//! CI gate — it proves request dedupe (3 identical concurrent
//! requests + 1 distinct = exactly 2 materializations, counter-
//! asserted) and the zero-solver warm restart.
//!
//! `check` re-runs the matrix and verdicts it: committed goldens are
//! compared value-wise under per-column tolerances, the paper's shape
//! claims are asserted as named invariants, and the three delay paths
//! (formula, Elmore, SPICE) are cross-validated on randomized arrays.
//! Exit status is non-zero when any named check fails. `--fast` runs
//! the reduced profile (heights {16, 64}, 5 000 trials, statistical
//! bands on Monte-Carlo columns).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use mpvar_bench::check::{check_context, run_check_in, CheckOptions};
use mpvar_bench::{spice_batch_bench, yield_bench, yield_threads_identical};
use mpvar_core::experiments::ExperimentContext;
use mpvar_obs::{
    check as run_perf_check, folded_stacks, profile as profile_trace, render_profile,
    render_report, PerfBaseline, SpanForest,
};
use mpvar_serve::protocol::{AnalysisRequest, ContextSpec, Preset};
use mpvar_serve::{
    validate_serve_jsonl, Client, ClientMessage, Dispatcher, ProgressRouter, RenderedArtifact,
    Server, ServerMessage,
};
use mpvar_study::{ArtifactId, DiskStore, Study};
use mpvar_trace::sink::{render_metrics, render_tree, TraceSink};
use mpvar_trace::{
    names, validate_jsonl, Collector, CollectorGuard, JsonlSink, RecordingSink, SpanRecord,
};

/// Streams one progress line per evaluated study node to stderr.
struct ProgressLines;

impl TraceSink for ProgressLines {
    fn on_span(&self, span: &SpanRecord) {
        if span.name != names::SPAN_STUDY_NODE {
            return;
        }
        let artifact = span.str_field("artifact").unwrap_or("?");
        match span.str_field("outcome") {
            Some("cache_hit") => eprintln!("[study] {artifact}: cache hit"),
            _ => eprintln!(
                "[study] {artifact}: computed in {:.3} s",
                span.dur_ns as f64 / 1e9
            ),
        }
    }
}

/// The run's trace pipeline: which sinks are installed and where the
/// telemetry goes when the run finishes.
struct Telemetry {
    collector: Arc<Collector>,
    session: CollectorGuard,
    recording: Option<Arc<RecordingSink>>,
    jsonl: Option<(Arc<JsonlSink>, PathBuf)>,
    metrics: bool,
}

impl Telemetry {
    /// Installs the collector: progress lines always, a recording sink
    /// when `--timings` wants the span tree, a JSONL sink for `--trace`.
    fn install(trace: Option<PathBuf>, metrics: bool, timings: bool) -> Self {
        let mut sinks: Vec<Arc<dyn TraceSink>> = vec![Arc::new(ProgressLines)];
        let recording = timings.then(|| {
            let sink = Arc::new(RecordingSink::new());
            sinks.push(sink.clone());
            sink
        });
        let jsonl = trace.map(|path| {
            let sink = Arc::new(JsonlSink::new());
            sinks.push(sink.clone());
            (sink, path)
        });
        let collector = Collector::new(sinks);
        let session = collector.install();
        Telemetry {
            collector,
            session,
            recording,
            jsonl,
            metrics,
        }
    }

    /// Flushes and renders: uninstalls the collector (writing the final
    /// metrics lines into the JSONL sink), writes `--trace`, prints the
    /// `--timings` tree and `--metrics` report to stderr.
    fn finish(self) -> Result<(), String> {
        let snapshot = self.collector.metrics_snapshot();
        drop(self.session);
        if let Some((sink, path)) = &self.jsonl {
            sink.write_to(path)
                .map_err(|e| format!("cannot write trace {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
        }
        if let Some(recording) = &self.recording {
            eprint!("{}", render_tree(&recording.spans()));
        }
        if self.metrics {
            eprint!("{}", render_metrics(&snapshot));
        }
        Ok(())
    }
}

fn usage() -> String {
    format!(
        "usage: repro [--quick] [--out DIR] [--trace FILE] [--metrics] [--timings] \
         <experiment | all | bench-batch-smoke | bench-yield-smoke>\n\
         \x20      repro check [--fast] [--golden DIR] [--oracle-cases N] [--trace FILE] \
         [--metrics] [--timings]\n\
         \x20      repro validate-trace [--require-counter NAME]... [--require-span NAME]... FILE\n\
         \x20      repro profile [--folded OUT] FILE\n\
         \x20      repro perf-check [--baseline FILE] FILE\n\
         \x20      repro serve [--addr HOST:PORT] [--store DIR]\n\
         \x20      repro client [--addr HOST:PORT] [--quick] <artifact>... | --stats | --shutdown\n\
         \x20      repro validate-serve FILE\n\
         \x20      repro serve-smoke [--store DIR]\n\
         CSVs go to --out DIR (default target/repro); --out results regenerates the goldens\n\
         experiments: {}",
        ArtifactId::ALL.map(ArtifactId::name).join(" ")
    )
}

/// The CI serving gate, in two phases against one on-disk store.
///
/// Phase 1 (cold): three identical concurrent requests plus one
/// distinct must cost exactly two materializations — two of the
/// identical ones dedupe onto the first one's in-flight wave
/// (deterministically: they are sent only after the wave's first
/// progress event proves it is still running) — asserted from the
/// server's own `serve.*` counters.
///
/// Phase 2 (warm): a fresh server over the same store answers the
/// same request bit-identically without opening a single solver span,
/// proved by a recording trace sink and the store's disk-hit counter.
/// The same holds for table3 under another Monte-Carlo seed, which no
/// node of its closure reads; fig5 reads the seed, so under the new
/// seed it is computed.
fn serve_smoke(root: &Path) -> Result<(), String> {
    let spec = ContextSpec {
        preset: Preset::Quick,
        sizes: Some(vec![8]),
        trials: Some(120),
        seed: Some(11),
        threads: Some(2),
    };
    let request_at =
        |id: &str, artifacts: Vec<ArtifactId>, progress: bool, seed: u64| AnalysisRequest {
            id: id.to_string(),
            artifacts,
            context: ContextSpec {
                seed: Some(seed),
                ..spec.clone()
            },
            progress,
        };
    let request = |id: &str, artifacts: Vec<ArtifactId>, progress: bool| {
        request_at(id, artifacts, progress, 11)
    };
    let start = |root: &Path| -> Result<(Server, Arc<RecordingSink>, CollectorGuard), String> {
        let sink = Arc::new(RecordingSink::new());
        let router = Arc::new(ProgressRouter::new());
        let store = Arc::new(DiskStore::open(root).map_err(|e| format!("cannot open store: {e}"))?);
        let dispatcher = Arc::new(Dispatcher::new(store, Arc::clone(&router)));
        let sinks: Vec<Arc<dyn TraceSink>> = vec![router, Arc::clone(&sink) as Arc<dyn TraceSink>];
        let guard = Collector::new(sinks).install();
        let server = Server::start("127.0.0.1:0", dispatcher)
            .map_err(|e| format!("cannot bind server: {e}"))?;
        Ok((server, sink, guard))
    };

    // ----------------------------------------------------------- cold
    let (server, cold_sink, cold_guard) = start(root)?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("cannot connect: {e}"))?;
    client
        .send(&ClientMessage::Request(request(
            "r1",
            vec![ArtifactId::Table3],
            true,
        )))
        .map_err(|e| format!("send r1: {e}"))?;

    // Gate: once table1 finishes inside r1's wave, fig4 and table3 are
    // still to come, so the next requests provably arrive in flight.
    loop {
        match client.recv().map_err(|e| format!("recv: {e}"))? {
            ServerMessage::Ack { .. } => {}
            ServerMessage::Progress { artifact, .. } => {
                eprintln!("[smoke] r1 progress: {artifact}");
                if artifact == "table1" {
                    break;
                }
            }
            other => return Err(format!("unexpected message before gate: {other:?}")),
        }
    }
    for id in ["r2", "r3"] {
        client
            .send(&ClientMessage::Request(request(
                id,
                vec![ArtifactId::Table3],
                false,
            )))
            .map_err(|e| format!("send {id}: {e}"))?;
    }
    client
        .send(&ClientMessage::Request(request(
            "r4",
            vec![ArtifactId::Fig5],
            false,
        )))
        .map_err(|e| format!("send r4: {e}"))?;

    let mut results: BTreeMap<String, Vec<RenderedArtifact>> = BTreeMap::new();
    while results.len() < 4 {
        match client.recv().map_err(|e| format!("recv: {e}"))? {
            ServerMessage::Result { id, artifacts } => {
                eprintln!("[smoke] {id} answered");
                results.insert(id, artifacts);
            }
            ServerMessage::Ack { .. } | ServerMessage::Progress { .. } => {}
            other => return Err(format!("unexpected message: {other:?}")),
        }
    }
    if results["r1"] != results["r2"] || results["r1"] != results["r3"] {
        return Err("deduped requests answered differently".into());
    }
    let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
    let expect = |name: &str, want: u64| -> Result<(), String> {
        match stats.get(name) {
            Some(&got) if got == want => {
                eprintln!("[smoke] {name} = {got}");
                Ok(())
            }
            got => Err(format!("{name}: want {want}, got {got:?}")),
        }
    };
    expect(names::SERVE_REQUESTS, 4)?;
    expect(names::SERVE_DEDUPED, 2)?;
    expect(names::SERVE_MATERIALIZATIONS, 2)?;
    client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    if !server.join(Duration::from_secs(300)) {
        return Err("cold server waves did not drain".into());
    }
    drop(cold_guard);
    if !cold_sink
        .spans()
        .iter()
        .any(|s| s.name == names::SPAN_SPICE_TRANSIENT)
    {
        return Err("cold run never reached the solver — smoke is not probing anything".into());
    }

    // ----------------------------------------------------------- warm
    let (server, warm_sink, warm_guard) = start(root)?;
    let mut client =
        Client::connect(server.addr()).map_err(|e| format!("cannot connect warm: {e}"))?;
    let warm = client
        .request(request("w1", vec![ArtifactId::Table3], true), |_| {})
        .map_err(|e| format!("warm request: {e}"))?;
    if warm != results["r1"] {
        return Err("warm replay differs from the cold answer".into());
    }
    let disk = server.dispatcher().store().stats();
    if disk.disk_hits < 3 {
        return Err(format!(
            "expected >= 3 disk hits on warm replay, got {disk:?}"
        ));
    }
    let reseeded = client
        .request(
            request_at("w2", vec![ArtifactId::Table3], false, 12),
            |_| {},
        )
        .map_err(|e| format!("reseeded request: {e}"))?;
    if reseeded != results["r1"] {
        return Err("table3 under another seed differs from the cold answer".into());
    }
    for span in [
        names::SPAN_SPICE_TRANSIENT,
        names::SPAN_SPICE_BATCH,
        names::SPAN_MC_WAVE,
        names::SPAN_MC_DISTRIBUTION,
        names::SPAN_CORNER_SEARCH,
    ] {
        if warm_sink.spans().iter().any(|s| s.name == span) {
            return Err(format!(
                "warm or reseeded replay opened solver span `{span}`"
            ));
        }
    }
    client
        .request(request_at("w3", vec![ArtifactId::Fig5], false, 12), |_| {})
        .map_err(|e| format!("reseeded fig5 request: {e}"))?;
    let fig5_computed = warm_sink.spans().iter().any(|s| {
        s.name == names::SPAN_STUDY_NODE
            && s.str_field("artifact") == Some("fig5")
            && s.str_field("outcome") == Some("computed")
    });
    if !fig5_computed {
        return Err("fig5 reads the seed, yet a reseeded request did not compute it".into());
    }
    client
        .shutdown()
        .map_err(|e| format!("shutdown warm: {e}"))?;
    if !server.join(Duration::from_secs(300)) {
        return Err("warm server waves did not drain".into());
    }
    drop(warm_guard);
    eprintln!(
        "[smoke] warm replay: bit-identical, {} disk hits, zero solver spans; \
         reseeded table3 shared, reseeded fig5 computed",
        disk.disk_hits
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut fast = false;
    let mut timings = false;
    let mut metrics = false;
    let mut trace: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from("target/repro");
    let mut golden_dir = PathBuf::from("results");
    let mut oracle_cases = 128usize;
    let mut target: Option<String> = None;
    let mut trace_to_validate: Option<PathBuf> = None;
    let mut required_counters: Vec<String> = Vec::new();
    let mut required_spans: Vec<String> = Vec::new();
    let mut folded_out: Option<PathBuf> = None;
    let mut baseline_path = PathBuf::from("results/perf_baseline.json");
    let mut addr = String::from("127.0.0.1:7878");
    let mut store_dir: Option<PathBuf> = None;
    let mut client_artifacts: Vec<String> = Vec::new();
    let mut shutdown_server = false;
    let mut client_stats = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--fast" => fast = true,
            "--timings" => timings = true,
            "--metrics" => metrics = true,
            "--trace" => match args.next() {
                Some(path) => trace = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--trace needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--golden" => match args.next() {
                Some(dir) => golden_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--golden needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--require-counter" => match args.next() {
                Some(name) if !name.is_empty() => required_counters.push(name),
                _ => {
                    eprintln!("--require-counter needs a counter name\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--require-span" => match args.next() {
                Some(name) if !name.is_empty() => required_spans.push(name),
                _ => {
                    eprintln!("--require-span needs a span name\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--folded" => match args.next() {
                Some(path) => folded_out = Some(PathBuf::from(path)),
                None => {
                    eprintln!("--folded needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--baseline" => match args.next() {
                Some(path) => baseline_path = PathBuf::from(path),
                None => {
                    eprintln!("--baseline needs a file path\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--stats" => client_stats = true,
            "--shutdown" => shutdown_server = true,
            "--addr" => match args.next() {
                Some(a) if !a.is_empty() => addr = a,
                _ => {
                    eprintln!("--addr needs HOST:PORT\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--store" => match args.next() {
                Some(dir) => store_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--store needs a directory\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "--oracle-cases" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => oracle_cases = n,
                _ => {
                    eprintln!("--oracle-cases needs a positive integer\n{}", usage());
                    return ExitCode::FAILURE;
                }
            },
            "-h" | "--help" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other
                if matches!(
                    target.as_deref(),
                    Some("validate-trace")
                        | Some("validate-serve")
                        | Some("profile")
                        | Some("perf-check")
                ) && trace_to_validate.is_none()
                    && !other.starts_with('-') =>
            {
                trace_to_validate = Some(PathBuf::from(other));
            }
            other if target.as_deref() == Some("client") && !other.starts_with('-') => {
                client_artifacts.push(other.to_string());
            }
            other if target.is_none() && !other.starts_with('-') => {
                target = Some(other.to_string());
            }
            other => {
                eprintln!("unknown argument `{other}`\n{}", usage());
                return ExitCode::FAILURE;
            }
        }
    }

    let Some(target) = target else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };

    if target == "validate-trace" {
        let Some(path) = trace_to_validate else {
            eprintln!("validate-trace needs a JSONL file\n{}", usage());
            return ExitCode::FAILURE;
        };
        let raw = match std::fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        return match validate_jsonl(&raw) {
            Ok(log) => {
                println!(
                    "{}: valid {} trace — {} spans ({} distinct names), {} counters, \
                     {} gauges, {} histograms",
                    path.display(),
                    log.schema,
                    log.spans.len(),
                    log.span_names().len(),
                    log.counters.len(),
                    log.gauges.len(),
                    log.histograms.len()
                );
                let mut ok = true;
                for name in &required_counters {
                    match log.counters.get(name) {
                        Some(&v) if v > 0 => println!("  counter `{name}` = {v}"),
                        Some(_) => {
                            eprintln!("{}: counter `{name}` is zero", path.display());
                            ok = false;
                        }
                        None => {
                            eprintln!("{}: counter `{name}` missing", path.display());
                            ok = false;
                        }
                    }
                }
                for name in &required_spans {
                    let hits = log.spans.iter().filter(|s| &s.name == name).count();
                    if hits > 0 {
                        println!("  span `{name}` x{hits}");
                    } else {
                        eprintln!("{}: span `{name}` missing", path.display());
                        ok = false;
                    }
                }
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("{}: invalid trace: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    if target == "profile" {
        let Some(path) = trace_to_validate else {
            eprintln!("profile needs a JSONL trace file\n{}", usage());
            return ExitCode::FAILURE;
        };
        let raw = match std::fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let log = match validate_jsonl(&raw) {
            Ok(log) => log,
            Err(e) => {
                eprintln!("{}: invalid trace: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let prof = match profile_trace(&log) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}: cannot profile: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        print!("{}", render_profile(&prof));
        if let Some(out) = folded_out {
            let forest = match SpanForest::build(log.spans.clone()) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("{}: cannot rebuild span forest: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            };
            if let Err(e) = std::fs::write(&out, folded_stacks(&forest)) {
                eprintln!("cannot write {}: {e}", out.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", out.display());
        }
        return ExitCode::SUCCESS;
    }

    if target == "perf-check" {
        let Some(path) = trace_to_validate else {
            eprintln!("perf-check needs a JSONL trace file\n{}", usage());
            return ExitCode::FAILURE;
        };
        let baseline_raw = match std::fs::read_to_string(&baseline_path) {
            Ok(raw) => raw,
            Err(e) => {
                eprintln!("cannot read baseline {}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        };
        let baseline = match PerfBaseline::parse(&baseline_raw) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("{}: {e}", baseline_path.display());
                return ExitCode::FAILURE;
            }
        };
        let raw = match std::fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let log = match validate_jsonl(&raw) {
            Ok(log) => log,
            Err(e) => {
                eprintln!("{}: invalid trace: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "perf-check: {} against baseline {} ({} checks, workload `{}`)",
            path.display(),
            baseline_path.display(),
            baseline.checks.len(),
            baseline.workload
        );
        let report = match run_perf_check(&baseline, &log) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perf-check failed to evaluate: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", render_report(&report));
        return if report.passed() {
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "perf regression gate failed: {}",
                report.failed_names().join(", ")
            );
            ExitCode::FAILURE
        };
    }

    if target == "validate-serve" {
        let Some(path) = trace_to_validate else {
            eprintln!("validate-serve needs a JSONL transcript\n{}", usage());
            return ExitCode::FAILURE;
        };
        let raw = match std::fs::read_to_string(&path) {
            Ok(raw) => raw,
            Err(e) => {
                eprintln!("cannot read {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        return match validate_serve_jsonl(&raw) {
            Ok(log) => {
                println!(
                    "{}: valid mpvar-serve/v1 transcript — {} messages \
                     ({} requests, {} results, {} progress, {} errors)",
                    path.display(),
                    log.messages.len(),
                    log.requests(),
                    log.results(),
                    log.progress_events(),
                    log.errors()
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{}: invalid transcript: {e}", path.display());
                ExitCode::FAILURE
            }
        };
    }

    if target == "serve" {
        let root = store_dir.unwrap_or_else(|| PathBuf::from("artifact-store"));
        let store = match DiskStore::open(&root) {
            Ok(s) => Arc::new(s),
            Err(e) => {
                eprintln!("cannot open artifact store {}: {e}", root.display());
                return ExitCode::FAILURE;
            }
        };
        let router = Arc::new(ProgressRouter::new());
        let dispatcher = Arc::new(Dispatcher::new(store, Arc::clone(&router)));
        // Progress lines to stderr for the operator; the router feeds
        // the per-request progress streams.
        let sinks: Vec<Arc<dyn TraceSink>> = vec![Arc::new(ProgressLines), router];
        let session = Collector::new(sinks).install();
        let server = match Server::start(addr.as_str(), dispatcher) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!(
            "mpvar-serve listening on {} (store: {}); send a shutdown message to stop",
            server.addr(),
            root.display()
        );
        let drained = server.join(Duration::from_secs(3600));
        drop(session);
        return if drained {
            ExitCode::SUCCESS
        } else {
            eprintln!("shutdown timed out waiting for running waves");
            ExitCode::FAILURE
        };
    }

    if target == "client" {
        if client_stats {
            let mut client = match Client::connect(addr.as_str()) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot connect to {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            return match client.stats_full() {
                Ok(stats) => {
                    print!("{}", stats.render());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot fetch stats from {addr}: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        if shutdown_server {
            return match Client::connect(addr.as_str()).and_then(Client::shutdown) {
                Ok(()) => {
                    eprintln!("sent shutdown to {addr}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("cannot shut down {addr}: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        if client_artifacts.is_empty() {
            eprintln!("client needs at least one artifact name\n{}", usage());
            return ExitCode::FAILURE;
        }
        let mut artifacts = Vec::with_capacity(client_artifacts.len());
        for name in &client_artifacts {
            match ArtifactId::try_parse(name) {
                Ok(id) => artifacts.push(id),
                Err(_) => {
                    eprintln!("unknown artifact `{name}`\n{}", usage());
                    return ExitCode::FAILURE;
                }
            }
        }
        let mut client = match Client::connect(addr.as_str()) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("cannot connect to {addr}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let request = AnalysisRequest {
            id: format!("cli-{}", std::process::id()),
            artifacts,
            context: ContextSpec {
                preset: if quick { Preset::Quick } else { Preset::Paper },
                ..ContextSpec::default()
            },
            progress: true,
        };
        let answer = client.request(request, |event| match event {
            ServerMessage::Ack { fingerprint, .. } => {
                eprintln!("[serve] accepted (fingerprint {fingerprint})");
            }
            ServerMessage::Progress {
                artifact,
                outcome,
                dur_ns,
                ..
            } => {
                if outcome == "cache_hit" {
                    eprintln!("[serve] {artifact}: cache hit");
                } else {
                    eprintln!(
                        "[serve] {artifact}: computed in {:.3} s",
                        *dur_ns as f64 / 1e9
                    );
                }
            }
            _ => {}
        });
        let artifacts = match answer {
            Ok(a) => a,
            Err(e) => {
                eprintln!("request failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = std::fs::create_dir_all(&out_dir) {
            eprintln!("cannot create output directory {}: {e}", out_dir.display());
            return ExitCode::FAILURE;
        }
        for artifact in &artifacts {
            println!("{}", artifact.text);
            if !artifact.csv.is_empty() {
                let path = out_dir.join(format!("{}.csv", artifact.id));
                if let Err(e) = std::fs::write(&path, &artifact.csv) {
                    eprintln!("cannot write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", path.display());
            }
        }
        return ExitCode::SUCCESS;
    }

    if target == "serve-smoke" {
        let default_root = store_dir.is_none();
        let root = store_dir.unwrap_or_else(|| {
            std::env::temp_dir().join(format!("mpvar-serve-smoke-{}", std::process::id()))
        });
        let _ = std::fs::remove_dir_all(&root);
        let verdict = serve_smoke(&root);
        if default_root {
            let _ = std::fs::remove_dir_all(&root);
        }
        return match verdict {
            Ok(()) => {
                println!("serve smoke: OK");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("serve smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if target == "check" {
        let opts = CheckOptions {
            fast,
            golden_dir,
            oracle_cases,
            ..CheckOptions::new(fast)
        };
        eprintln!(
            "repro check ({} profile, goldens from {}, {} oracle cases)",
            if fast { "fast" } else { "full" },
            opts.golden_dir.display(),
            opts.oracle_cases
        );
        let ctx = match check_context(&opts) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("failed to build check context: {e}");
                return ExitCode::FAILURE;
            }
        };
        let telemetry = Telemetry::install(trace, metrics, timings);
        let study = Study::new(ctx);
        let report = match run_check_in(&opts, &study) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("check could not regenerate the matrix: {e}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", report.render());
        if let Err(e) = telemetry.finish() {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        return if report.passed() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if fast || oracle_cases != 128 {
        eprintln!(
            "--fast/--oracle-cases are only valid with `check`\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }
    if !required_counters.is_empty() || !required_spans.is_empty() {
        eprintln!(
            "--require-counter/--require-span are only valid with `validate-trace`\n{}",
            usage()
        );
        return ExitCode::FAILURE;
    }

    let ctx = match if quick {
        ExperimentContext::quick()
    } else {
        ExperimentContext::paper()
    } {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to build experiment context: {e}");
            return ExitCode::FAILURE;
        }
    };

    eprintln!(
        "running `{target}` ({} context: sizes {:?}, {} MC trials)",
        if quick { "quick" } else { "paper" },
        ctx.sizes,
        ctx.mc.trials
    );

    if target == "bench-batch-smoke" {
        // CI floor for the batched SoA trial solver: 64 reads must
        // hold at least 2x over the per-draw scalar path.
        // Telemetry is allowed here — it loads both paths equally and
        // lets CI validate the spice.batch_* counters from the trace.
        let telemetry = Telemetry::install(trace, metrics, timings);
        let bench = match spice_batch_bench(&ctx, 64) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("batch bench failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "batch smoke: n = {}, {} trials, {} lanes: scalar {:.1} trials/s, \
             batched {:.1} trials/s, speedup {:.2}x",
            bench.n_cells,
            bench.trials,
            bench.lanes,
            bench.scalar_tps(),
            bench.batched_tps(),
            bench.speedup()
        );
        if let Err(e) = telemetry.finish() {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        if bench.speedup() < 2.0 {
            eprintln!(
                "batched trial solver below the 2x smoke floor ({:.2}x)",
                bench.speedup()
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    if target == "bench-yield-smoke" {
        // CI floor for the rare-event yield engine: the planted 1e-6
        // problem must converge with a truth-covering CI at >= 50x the
        // brute-force-equivalent trial count, bit-identically across
        // worker counts. Telemetry is allowed (and CI-required): the
        // traced run must record the yield.rounds counter.
        let telemetry = Telemetry::install(trace, metrics, timings);
        let yb = match yield_bench() {
            Ok(y) => y,
            Err(e) => {
                eprintln!("yield bench failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let identical = match yield_threads_identical() {
            Ok(i) => i,
            Err(e) => {
                eprintln!("yield thread-identity probe failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        println!(
            "yield smoke: planted P_fail = {:.0e}: p = {:.3e} (rel_hw {:.3}, converged {}), \
             {} trials vs {:.0} brute-equivalent ({:.0}x), CI covers truth: {}, \
             thread-identical: {identical}",
            yb.p_true,
            yb.p_fail,
            yb.rel_half_width,
            yb.converged,
            yb.trials,
            yb.brute_equivalent_trials,
            yb.speedup(),
            yb.ci_covers_truth
        );
        if let Err(e) = telemetry.finish() {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        let mut ok = true;
        if !yb.converged || !yb.ci_covers_truth {
            eprintln!("yield smoke: run must converge with a truth-covering CI");
            ok = false;
        }
        if yb.speedup() < 50.0 {
            eprintln!(
                "yield smoke: speedup {:.1}x below the 50x floor",
                yb.speedup()
            );
            ok = false;
        }
        if !identical {
            eprintln!("yield smoke: runs diverged across worker counts");
            ok = false;
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let telemetry = Telemetry::install(trace, metrics, timings);
    let study = Study::new(ctx);
    let artifacts = match study.run_named(&target) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("experiment failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create output directory {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    for artifact in &artifacts {
        println!("{}", artifact.text);
        if !artifact.csv.is_empty() {
            let path = out_dir.join(format!("{}.csv", artifact.id));
            if let Err(e) = std::fs::write(&path, &artifact.csv) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    if let Err(e) = telemetry.finish() {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
