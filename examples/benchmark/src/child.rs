//! The child processes the harness spawns: one execution of a workload,
//! or the per-layer probes. A child prints `ready` once it is set up,
//! then one JSON line with its results; problems go to stderr.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use mpvar_study::{MemoryStore, Study};
use mpvar_trace::json::{push_json_f64, push_json_str};
use mpvar_trace::{Collector, JsonlSink, SpanGuard, SpanId, TraceSink};

use crate::layers::{self, TraceReport, SPAN_RUN};
use crate::serve_mix;
use crate::store::timed_if;
use crate::workload::{self, Outcome, Workload};

/// Line a child prints once set up.
pub const READY: &str = "ready";

/// What a child is asked to do.
#[derive(Debug, Clone)]
pub struct Task {
    /// The workload to execute.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Where to write the trace of a traced execution.
    pub trace: Option<PathBuf>,
    /// Stop once set up: the parent only measures set-up time.
    pub setup_only: bool,
    /// Scratch directory for stores.
    pub work_dir: PathBuf,
}

fn ready() {
    println!("{READY}");
    let _ = std::io::stdout().flush();
}

/// Executes `task` and prints its result line.
///
/// # Errors
///
/// When the workload cannot be set up or run at all.
pub fn run_one(task: &Task) -> Result<(), String> {
    let w = task.workload;
    let (wall_s, outcome, trace) = if w == Workload::ServeMix {
        let schedule = serve_mix::schedule(task.seed);
        ready();
        if task.setup_only {
            return Ok(());
        }
        let root = task
            .work_dir
            .join(format!("serve-store-{}", std::process::id()));
        let clients = std::thread::available_parallelism().map_or(1, usize::from);
        let traced = task.trace.is_some();
        let (result, trace) = traced_run(task.trace.as_deref(), w, |parent| {
            serve_mix::run(&schedule, &root, clients, traced, parent)
        });
        let (wall_s, outcome) = result?;
        (wall_s, outcome, trace)
    } else {
        let ctx = workload::context(w, task.seed).map_err(|e| e.to_string())?;
        ready();
        if task.setup_only {
            return Ok(());
        }
        let store = timed_if(task.trace.is_some(), Arc::new(MemoryStore::new()));
        let study = Study::with_store(ctx, store);
        let ((wall_s, outcome), trace) = traced_run(task.trace.as_deref(), w, |_| {
            workload::run_pipeline(w, task.seed, &study)
        });
        (wall_s, outcome, trace)
    };
    print_result(wall_s, &outcome, trace);
    Ok(())
}

/// Runs `f` under a trace collector when `path` is given, inside a
/// `bench.run` span whose id `f` receives; writes the trace to `path`
/// at the end and analyses it.
fn traced_run<T>(
    path: Option<&Path>,
    workload: Workload,
    f: impl FnOnce(Option<SpanId>) -> T,
) -> (T, Option<TraceReport>) {
    let Some(path) = path else {
        return (f(None), None);
    };
    let sink = Arc::new(JsonlSink::new());
    let collector = Collector::new(vec![Arc::clone(&sink) as Arc<dyn TraceSink>]);
    let guard = collector.install();
    let span = SpanGuard::enter(SPAN_RUN, vec![("workload", workload.name().into())]);
    let out = f(span.id());
    drop(span);
    drop(guard);
    let text = sink.contents();
    let mut report = layers::analyse(&text, workload);
    if let Err(e) = std::fs::write(path, &text) {
        report
            .problems
            .push(format!("cannot write {}: {e}", path.display()));
    }
    (out, Some(report))
}

/// User plus system CPU time of this process, from `/proc/self/stat`
/// (in clock ticks of 1/100 s, Linux's fixed `USER_HZ`).
fn cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name start at field 3.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = |field: usize| fields.get(field - 3)?.parse::<u64>().ok();
    Some((ticks(14)? + ticks(15)?) as f64 / 100.0)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn print_result(wall_s: f64, outcome: &Outcome, trace: Option<TraceReport>) {
    let mut values: BTreeMap<String, f64> = outcome
        .metrics
        .iter()
        .map(|(k, v)| (k.to_string(), *v))
        .collect();
    values.insert("wall_s".to_string(), wall_s);
    values.extend(cpu_s().map(|v| ("cpu_s".to_string(), v)));
    values.extend(peak_rss_mb().map(|v| ("peak_rss_mb".to_string(), v)));
    for problem in &outcome.mismatches {
        eprintln!("output mismatch: {problem}");
    }
    let trace_problems = trace.as_ref().map_or(0, |t| t.problems.len());
    if let Some(trace) = trace {
        for problem in &trace.problems {
            eprintln!("trace problem: {problem}");
        }
        values.extend(trace.metrics);
    }
    let mut line = format!(
        "{{\"attempted\":{},\"failed\":{},\"mismatches\":{},\"trace_problems\":{trace_problems},\"digest\":\"{:016x}\",\"values\":",
        outcome.attempted,
        outcome.failed,
        outcome.mismatches.len(),
        outcome.digest,
    );
    push_values(&mut line, values.iter().map(|(k, v)| (k.as_str(), *v)));
    line.push('}');
    println!("{line}");
}

/// Appends `{"name": value, ...}`.
pub fn push_values<'a>(out: &mut String, values: impl Iterator<Item = (&'a str, f64)>) {
    out.push('{');
    for (i, (name, value)) in values.enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, name);
        out.push(':');
        push_json_f64(out, value);
    }
    out.push('}');
}

/// Runs the probes and prints their result line.
///
/// # Errors
///
/// When a probe cannot run.
pub fn probes(work_dir: &Path) -> Result<(), String> {
    ready();
    let values = crate::probes::run(work_dir).map_err(|e| format!("probes failed: {e}"))?;
    let mut line = String::from(
        "{\"attempted\":0,\"failed\":0,\"mismatches\":0,\"trace_problems\":0,\"digest\":\"\",\"values\":",
    );
    push_values(&mut line, values.into_iter());
    line.push('}');
    println!("{line}");
    Ok(())
}
