//! `mpvar`'s end-to-end and per-layer benchmark.
//!
//! It builds `mpvar` from source and drives it from outside, through
//! the public API of each crate, one child process per execution. See
//! `README.md` next to this package for the workloads, the metrics and
//! how to read them.

mod child;
mod harness;
mod layers;
mod metrics;
mod probes;
mod results;
mod serve_mix;
mod stats;
mod store;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mpvar_trace::json::push_json_str;

use crate::harness::{Budget, Report};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::results::WorkloadResult;
use crate::workload::{Workload, COMMITTED_SEED};

const USAGE: &str = "\
usage (run from the repository root):
  benchmark --workload NAME --seed S --seconds T --trace 0|1
      measure one workload for about T seconds; print one JSON line of
      end-to-end metrics (--trace 0) or per-layer metrics (--trace 1)
  benchmark run [--workload NAME]... [--seed S] [--reps N] [--out DIR]
      measure workloads (default: all, seed 2015, 3 reps); print tables
      and write DIR/results.json and DIR/trace-<workload>.jsonl
  benchmark compare A.json B.json
      judge B's end-to-end medians against A's; exit 1 on `worse`
workloads: quick_all quick_all_t1 paper_all check_fast serve_mix";

/// Scratch and output directory, relative to the repository root.
const DEFAULT_OUT: &str = ".bench_work";

/// Command-line flags shared by the commands.
#[derive(Debug)]
struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_to: Option<PathBuf>,
    reps: usize,
    out: PathBuf,
    setup_only: bool,
    positional: Vec<String>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workloads: Vec::new(),
            seed: COMMITTED_SEED,
            seconds: None,
            trace: false,
            trace_to: None,
            reps: 3,
            out: PathBuf::from(DEFAULT_OUT),
            setup_only: false,
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value = |flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            match arg.as_str() {
                "--workload" => {
                    let name = value(arg)?;
                    o.workloads
                        .push(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
                }
                "--seed" => o.seed = number(arg, &value(arg)?)?,
                "--seconds" => {
                    let seconds: f64 = number(arg, &value(arg)?)?;
                    if !(seconds > 0.0 && seconds <= 3600.0) {
                        return Err("--seconds must be in (0, 3600]".to_string());
                    }
                    o.seconds = Some(seconds);
                }
                "--trace" => {
                    o.trace = match value(arg)?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                    }
                }
                "--trace-to" => o.trace_to = Some(PathBuf::from(value(arg)?)),
                "--reps" => {
                    o.reps = number(arg, &value(arg)?)?;
                    if o.reps == 0 {
                        return Err("--reps must be at least 1".to_string());
                    }
                }
                "--out" => o.out = PathBuf::from(value(arg)?),
                "--setup-only" => o.setup_only = true,
                flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
                _ => o.positional.push(arg.clone()),
            }
        }
        Ok(o)
    }

    fn one_workload(&self) -> Result<Workload, String> {
        match self.workloads[..] {
            [w] => Ok(w),
            _ => Err("name exactly one --workload".to_string()),
        }
    }
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag}: `{text}` is not a valid number"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(flag) if flag.starts_with("--") => ("", args),
        Some(command) => (command, &args[1..]),
        None => return Err("no command".to_string()),
    };
    let o = Options::parse(rest)?;
    let done = |ok: bool| {
        if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    };
    match (command, &o.positional[..]) {
        ("", []) => bench(&o).map(|()| ExitCode::SUCCESS),
        ("run", []) => run(&o).map(done),
        ("compare", [a, b]) => results::compare(Path::new(a), Path::new(b)).map(done),
        ("run-one", [name]) => {
            let task = child::Task {
                workload: Workload::parse(name).ok_or(format!("unknown workload `{name}`"))?,
                seed: o.seed,
                trace: o.trace_to.clone(),
                setup_only: o.setup_only,
                work_dir: o.out.clone(),
            };
            child::run_one(&task).map(|()| ExitCode::SUCCESS)
        }
        ("probes", []) => child::probes(&o.out).map(|()| ExitCode::SUCCESS),
        _ => Err(format!("cannot parse `{}`", args.join(" "))),
    }
}

fn create(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))
}

fn trace_path(out: &Path, workload: Workload) -> PathBuf {
    out.join(format!("trace-{}.jsonl", workload.name()))
}

/// One measurement of one workload, printed as the single JSON line
/// `{"correct", "attempted", "failed", "metrics"}`: the medians of the
/// listed end-to-end metrics, or with `--trace 1` the listed per-layer
/// metrics.
fn bench(o: &Options) -> Result<(), String> {
    let w = o.one_workload()?;
    let seconds = o.seconds.ok_or("--seconds is required")?;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    create(&o.out)?;
    // With --trace 1: the probes, one traced execution, then untraced
    // ones for the tracing overhead.
    let (s, traced) = if o.trace {
        let probes = harness::probes(&o.out)?;
        let traced = harness::spawn(&harness::child_args(
            w,
            o.seed,
            &o.out,
            Some(&trace_path(&o.out, w)),
            false,
        ))?;
        let s = harness::sample(w, o.seed, Budget::Until(deadline), &o.out, false);
        (s, Some((probes, traced)))
    } else {
        let s = harness::sample(w, o.seed, Budget::Until(deadline), &o.out, true);
        (s, None)
    };
    let reference = match &traced {
        Some((_, t)) => t.digest.clone(),
        None => s.runs.first().map(|r| r.digest.clone()).unwrap_or_default(),
    };
    let values = match &traced {
        Some((probes, t)) => {
            let layers = harness::per_layer(w, probes, t, &s);
            listed(PER_LAYER, |name| layers.get(name).copied())
        }
        None => {
            let e2e = harness::end_to_end(w, &s, &reference);
            listed(END_TO_END, |name| e2e.get(name).map(|s| s.median))
        }
    };
    let traced = traced.map(|(_, t)| t);
    let correct = harness::all_correct(&s, traced.as_ref(), &reference);
    let mut metrics = String::new();
    for (i, (m, value)) in values.iter().enumerate() {
        let value = value.filter(|v| v.is_finite()).ok_or(format!(
            "{}: `{}` was not measured",
            w.name(),
            m.name
        ))?;
        if i > 0 {
            metrics.push(',');
        }
        push_json_str(&mut metrics, m.name);
        let _ = write!(metrics, ":{{\"value\":{value},\"unit\":");
        push_json_str(&mut metrics, m.unit);
        metrics.push('}');
    }
    // An execution that did not finish counts as one failed operation.
    let crashed = s.errors.len() as u64;
    let runs = || s.runs.iter().chain(traced.as_ref());
    let attempted = runs().map(|r| r.attempted).sum::<u64>() + crashed;
    let failed = runs().map(|r| r.failed).sum::<u64>() + crashed;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
        attempted.max(1)
    );
    Ok(())
}

fn listed(
    table: &'static [Metric],
    value: impl Fn(&str) -> Option<f64>,
) -> Vec<(&'static Metric, Option<f64>)> {
    table
        .iter()
        .filter(|m| m.listed)
        .map(|m| (m, value(m.name)))
        .collect()
}

/// Measures each workload with `--reps` untraced executions and one
/// traced execution, prints the tables and writes `results.json`.
/// Returns whether every output was correct.
fn run(o: &Options) -> Result<bool, String> {
    let workloads = if o.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        o.workloads.clone()
    };
    create(&o.out)?;
    let started = Instant::now();
    let probes = harness::probes(&o.out)?;
    let mut correct = true;
    let mut quick_digest: Option<String> = None;
    let mut results = Vec::new();
    for &w in &workloads {
        eprintln!("benchmark: {} ...", w.name());
        let start = Instant::now();
        let s = harness::sample(w, o.seed, Budget::Reps(o.reps), &o.out, true);
        let traced = harness::spawn(&harness::child_args(
            w,
            o.seed,
            &o.out,
            Some(&trace_path(&o.out, w)),
            false,
        ))
        .unwrap_or_else(|e| {
            eprintln!("{}: traced execution: {e}", w.name());
            correct = false;
            Report::default()
        });
        // Thread count never changes results: the one-thread run must
        // reproduce the all-core run's outputs.
        let own = s.runs.first().map(|r| r.digest.clone()).unwrap_or_default();
        let reference = match (w, &quick_digest) {
            (Workload::QuickAllT1, Some(quick)) => quick.clone(),
            _ => own,
        };
        if w == Workload::QuickAll {
            quick_digest = Some(reference.clone());
        }
        correct &= harness::all_correct(&s, Some(&traced), &reference);
        results.push(WorkloadResult {
            workload: w.name().to_string(),
            runtime_s: start.elapsed().as_secs_f64(),
            end_to_end: harness::end_to_end(w, &s, &reference)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            per_layer: harness::per_layer(w, &probes, &traced, &s)
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        });
    }
    let wall = |name: &str| {
        results
            .iter()
            .find(|r| r.workload == name)
            .and_then(|r| r.end_to_end.get("wall_s"))
            .map(|s| s.median)
    };
    if let (Some(t1), Some(all)) = (wall("quick_all_t1"), wall("quick_all")) {
        if let Some(quick) = results.iter_mut().find(|r| r.workload == "quick_all") {
            quick.per_layer.insert("exec.speedup".to_string(), t1 / all);
        }
    }
    results::print_tables(&results);
    let path = o.out.join("results.json");
    std::fs::write(&path, results::to_json(o.seed, o.reps, &results))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!(
        "\nwrote {} ({:.1} s, outputs {})",
        path.display(),
        started.elapsed().as_secs_f64(),
        if correct { "correct" } else { "NOT correct" }
    );
    Ok(correct)
}
