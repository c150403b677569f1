//! The parent process: spawns one child per execution, one at a time,
//! and turns their result lines into end-to-end and per-layer metrics.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mpvar_trace::json::{get_str, get_u64, parse_json, Json};

use crate::child::READY;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::{median, Spread};
use crate::workload::Workload;

/// Set-up-only children spawned per measurement, so `setup_s` is a
/// median over many cold starts: one takes about a millisecond, most of
/// it process start-up, whose cost drifts with the machine's load.
const SETUP_SPAWNS: usize = 16;

/// One child's result line, plus the set-up time the parent saw.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Spawn to `ready`, seconds.
    pub setup_s: Option<f64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Output mismatches.
    pub mismatches: u64,
    /// Ways the trace fell short (traced executions only).
    pub trace_problems: u64,
    /// Digest over the outputs.
    pub digest: String,
    /// Measured values by metric name.
    pub values: BTreeMap<String, f64>,
}

fn parse_report(line: &str) -> Result<Report, String> {
    let doc = parse_json(line)?;
    let obj = doc.as_object().ok_or("result line is not an object")?;
    let values = match obj.get("values") {
        Some(Json::Obj(values)) => values
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Num(n) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect(),
        _ => return Err("result line lacks `values`".to_string()),
    };
    Ok(Report {
        setup_s: None,
        attempted: get_u64(obj, "attempted")?,
        failed: get_u64(obj, "failed")?,
        mismatches: get_u64(obj, "mismatches")?,
        trace_problems: get_u64(obj, "trace_problems")?,
        digest: get_str(obj, "digest")?.to_string(),
        values,
    })
}

/// Spawns this executable with `args` and waits for its result line.
///
/// # Errors
///
/// When the child cannot start, fails, or prints no result.
pub fn spawn(args: &[String]) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn {args:?}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let (mut setup_s, mut last) = (None, None);
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("read child output: {e}"))?;
        if line == READY && setup_s.is_none() {
            setup_s = Some(start.elapsed().as_secs_f64());
        } else {
            last = Some(line);
        }
    }
    let status = child.wait().map_err(|e| format!("wait for child: {e}"))?;
    if !status.success() {
        return Err(format!("child {args:?} exited with {status}"));
    }
    let mut report = match last {
        Some(line) => parse_report(&line)?,
        None => Report::default(),
    };
    report.setup_s = setup_s;
    Ok(report)
}

/// Arguments of a child executing `workload`.
pub fn child_args(
    workload: Workload,
    seed: u64,
    out: &Path,
    trace: Option<&Path>,
    setup_only: bool,
) -> Vec<String> {
    let mut args = vec![
        "run-one".to_string(),
        workload.name().to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--out".to_string(),
        out.display().to_string(),
    ];
    if let Some(trace) = trace {
        args.extend(["--trace-to".to_string(), trace.display().to_string()]);
    }
    if setup_only {
        args.push("--setup-only".to_string());
    }
    args
}

/// Runs the probes child.
///
/// # Errors
///
/// As [`spawn`].
pub fn probes(out: &Path) -> Result<Report, String> {
    spawn(&[
        "probes".to_string(),
        "--out".to_string(),
        out.display().to_string(),
    ])
}

/// How many untraced executions to make.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Exactly this many.
    Reps(usize),
    /// As many as fit before this instant, at least one.
    Until(Instant),
}

/// The untraced executions of one workload.
#[derive(Debug, Default)]
pub struct Sampled {
    /// Set-up times, seconds.
    pub setups: Vec<f64>,
    /// Result of every execution that ran to the end.
    pub runs: Vec<Report>,
    /// Executions that did not.
    pub errors: Vec<String>,
}

/// Executes `workload` untraced within `budget`. With `setup_spawns`,
/// set-up is also measured alone, [`SETUP_SPAWNS`] times.
pub fn sample(
    workload: Workload,
    seed: u64,
    budget: Budget,
    out: &Path,
    setup_spawns: bool,
) -> Sampled {
    let mut s = Sampled::default();
    let record = |s: &mut Sampled, result: Result<Report, String>, setup_only: bool| match result {
        Ok(report) => {
            s.setups.extend(report.setup_s);
            if !setup_only {
                s.runs.push(report);
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name());
            s.errors.push(e);
        }
    };
    // Set-up is measured before and after the executions, so its median
    // spans the whole measurement rather than one moment of it.
    let setups = |s: &mut Sampled| {
        for _ in 0..SETUP_SPAWNS / 2 {
            record(s, spawn(&child_args(workload, seed, out, None, true)), true);
        }
    };
    if setup_spawns {
        setups(&mut s);
    }
    // The next execution starts only if one as long as the longest so
    // far still ends before the deadline.
    let mut longest = Duration::ZERO;
    loop {
        let done = s.runs.len() + s.errors.len();
        let stop = match budget {
            Budget::Reps(n) => done >= n,
            Budget::Until(deadline) => done > 0 && Instant::now() + longest > deadline,
        };
        if stop {
            break;
        }
        let start = Instant::now();
        let result = spawn(&child_args(workload, seed, out, None, false));
        longest = longest.max(start.elapsed());
        record(&mut s, result, false);
    }
    if setup_spawns {
        setups(&mut s);
    }
    s
}

/// Output mismatches of a run: its own, plus one when its outputs
/// differ from `reference`'s.
fn mismatches(run: &Report, reference: &str) -> f64 {
    (run.mismatches + u64::from(run.digest != reference)) as f64
}

/// Median and quartiles of every end-to-end metric of `workload` over
/// the untraced executions. Outputs must match `reference`'s digest.
pub fn end_to_end(
    workload: Workload,
    s: &Sampled,
    reference: &str,
) -> BTreeMap<&'static str, Spread> {
    END_TO_END
        .iter()
        .filter(|m| m.applies_to(workload))
        .filter_map(|m| {
            let values: Vec<f64> = match m.name {
                "setup_s" => s.setups.clone(),
                "fail_ratio" => s
                    .runs
                    .iter()
                    .map(|r| r.failed as f64 / r.attempted.max(1) as f64)
                    .collect(),
                "output_mismatches" => s.runs.iter().map(|r| mismatches(r, reference)).collect(),
                name => s
                    .runs
                    .iter()
                    .filter_map(|r| r.values.get(name).copied())
                    .collect(),
            };
            Some((m.name, Spread::of(&values)?))
        })
        .collect()
}

/// Every per-layer metric of `workload`: probe results, the traced
/// execution's trace numbers, and values derived from the untraced
/// executions. A metric that could not be measured is absent.
pub fn per_layer(
    workload: Workload,
    probes: &Report,
    traced: &Report,
    s: &Sampled,
) -> BTreeMap<&'static str, f64> {
    let untraced = |name: &str| {
        let values: Vec<f64> = s
            .runs
            .iter()
            .filter_map(|r| r.values.get(name).copied())
            .collect();
        median(&values)
    };
    let mut out = BTreeMap::new();
    for m in PER_LAYER.iter().filter(|m| m.applies_to(workload)) {
        let value = match m.name {
            "trace.overhead_pct" => traced
                .values
                .get("wall_s")
                .zip(untraced("wall_s"))
                .map(|(traced, untraced)| (traced / untraced - 1.0) * 100.0),
            "serve.server_warm_p50_ms" => untraced(m.name),
            "serve.transport_ms" => untraced("warm_p50_ms")
                .zip(untraced("serve.server_warm_p50_ms"))
                .map(|(client, server)| client - server),
            name => probes
                .values
                .get(name)
                .or_else(|| traced.values.get(name))
                .copied(),
        };
        out.extend(value.map(|v| (m.name, v)));
    }
    out
}

/// Whether every execution in `s` (and `traced`) matched `reference`
/// with no failures and no trace problems.
pub fn all_correct(s: &Sampled, traced: Option<&Report>, reference: &str) -> bool {
    s.errors.is_empty()
        && s.runs
            .iter()
            .chain(traced)
            .all(|r| r.failed == 0 && mismatches(r, reference) == 0.0 && r.trace_problems == 0)
}
