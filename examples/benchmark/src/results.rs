//! `results.json`: what `run` measured per workload, the tables it
//! prints, and `compare`, which judges one results file against
//! another with the catalogue's bounds.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use mpvar_trace::json::{get_f64, get_u64, parse_json, push_json_str, Json, Obj};

use crate::child::push_values;
use crate::metrics::{self, Better, Metric, END_TO_END, PER_LAYER};
use crate::stats::Spread;
use crate::workload::Workload;

/// Everything `run` measured on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Wall time of all its executions, set-up spawns and traced run.
    pub runtime_s: f64,
    /// End-to-end metrics over the untraced executions.
    pub end_to_end: BTreeMap<String, Spread>,
    /// Per-layer metrics that could be measured.
    pub per_layer: BTreeMap<String, f64>,
}

fn unit_of(name: &str) -> &'static str {
    metrics::find(name).map_or("", |m| m.unit)
}

/// Prints the end-to-end table (`workload metric median p25 p75 unit`)
/// and the per-layer table, where a metric that was not measured reads
/// `n/a` with the reason.
pub fn print_tables(results: &[WorkloadResult]) {
    println!(
        "{:<13} {:<20} {:>12} {:>12} {:>12}  unit",
        "workload", "metric", "median", "p25", "p75"
    );
    for r in results {
        for (name, s) in &r.end_to_end {
            println!(
                "{:<13} {:<20} {:>12.4} {:>12.4} {:>12.4}  {}",
                r.workload,
                name,
                s.median,
                s.p25,
                s.p75,
                unit_of(name)
            );
        }
    }
    println!();
    println!(
        "{:<13} {:<32} {:>14}  unit",
        "workload", "per-layer metric", "value"
    );
    for r in results {
        let workload = Workload::parse(&r.workload);
        for m in PER_LAYER {
            let cell = match r.per_layer.get(m.name) {
                Some(v) if m.unit == "count" => format!("{v:>14.0}  count"),
                Some(v) => format!("{v:>14.4}  {}", m.unit),
                None if workload.is_some_and(|w| !m.applies_to(w)) => format!(
                    "{:>14}  (only on {})",
                    "n/a",
                    m.only
                        .iter()
                        .map(|w| w.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                None if m.name == "exec.speedup" => {
                    format!("{:>14}  (needs quick_all_t1 in the same run)", "n/a")
                }
                None => format!("{:>14}  (not in this workload's trace)", "n/a"),
            };
            println!("{:<13} {:<32} {cell}", r.workload, m.name);
        }
    }
}

/// Renders the results document.
pub fn to_json(seed: u64, reps: usize, results: &[WorkloadResult]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = format!(
        "{{\"schema\":\"mpvar-benchmark/v1\",\"seed\":{seed},\"reps\":{reps},\"nproc\":{nproc},\"workloads\":{{"
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(&mut out, &r.workload);
        let _ = write!(out, ":{{\"runtime_s\":{},\"end_to_end\":{{", r.runtime_s);
        for (j, (name, s)) in r.end_to_end.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_json_str(&mut out, name);
            out.push(':');
            push_values(
                &mut out,
                [
                    ("median", s.median),
                    ("p25", s.p25),
                    ("p75", s.p75),
                    ("min", s.min),
                    ("max", s.max),
                    ("n", s.n as f64),
                ]
                .into_iter(),
            );
        }
        out.push_str("},\"per_layer\":");
        push_values(&mut out, r.per_layer.iter().map(|(k, v)| (k.as_str(), *v)));
        out.push('}');
    }
    out.push_str("}}\n");
    out
}

fn object<'a>(obj: &'a Obj, key: &str) -> Result<&'a Obj, String> {
    obj.get(key)
        .and_then(Json::as_object)
        .ok_or_else(|| format!("missing object `{key}`"))
}

/// Parses a results document.
///
/// # Errors
///
/// When the text is not a results document.
pub fn parse(text: &str) -> Result<Vec<WorkloadResult>, String> {
    let doc = parse_json(text)?;
    let root = doc.as_object().ok_or("results are not an object")?;
    let mut results = Vec::new();
    for (workload, body) in object(root, "workloads")? {
        let body = body.as_object().ok_or("workload entry is not an object")?;
        let mut end_to_end = BTreeMap::new();
        for (name, s) in object(body, "end_to_end")? {
            let s = s.as_object().ok_or("metric entry is not an object")?;
            end_to_end.insert(
                name.clone(),
                Spread {
                    median: get_f64(s, "median")?,
                    p25: get_f64(s, "p25")?,
                    p75: get_f64(s, "p75")?,
                    min: get_f64(s, "min")?,
                    max: get_f64(s, "max")?,
                    n: get_u64(s, "n")? as usize,
                },
            );
        }
        let layers = object(body, "per_layer")?;
        let per_layer = layers
            .keys()
            .map(|name| Ok((name.clone(), get_f64(layers, name)?)))
            .collect::<Result<_, String>>()?;
        results.push(WorkloadResult {
            workload: workload.clone(),
            runtime_s: get_f64(body, "runtime_s")?,
            end_to_end,
            per_layer,
        });
    }
    Ok(results)
}

/// How a metric moved from one results file to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved beyond the run-to-run spread, or every run of B beat
    /// every run of A.
    Better,
    /// Within the bound.
    Unchanged,
    /// The median worsened by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, so the bound
    /// cannot be judged.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a`'s median
/// (negative when better).
fn worsening(metric: &Metric, a: &Spread, b: &Spread) -> f64 {
    let delta = match metric.better {
        Better::Lower => b.median - a.median,
        Better::Higher => a.median - b.median,
    };
    if a.median == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / a.median.abs()
    }
}

/// Judges `b` against the baseline `a` under `metric`'s bound. A
/// metric with a zero bound (failures, mismatches) is judged on its
/// worst run, so a single bad run counts.
pub fn verdict(metric: &Metric, a: &Spread, b: &Spread) -> Verdict {
    if metric.bound == 0.0 {
        let worst = |s: &Spread| match metric.better {
            Better::Lower => s.max,
            Better::Higher => -s.min,
        };
        return match worst(b).total_cmp(&worst(a)) {
            std::cmp::Ordering::Greater => Verdict::Worse,
            std::cmp::Ordering::Less => Verdict::Better,
            std::cmp::Ordering::Equal => Verdict::Unchanged,
        };
    }
    let worse_by = worsening(metric, a, b);
    let spread = a.rel_iqr().max(b.rel_iqr());
    let every_run_better = match metric.better {
        Better::Lower => b.max < a.min,
        Better::Higher => b.min > a.max,
    };
    if spread > metric.bound {
        if every_run_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > spread && every_run_better {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Compares the end-to-end metrics of two results files, workload by
/// workload. Returns whether nothing got worse.
///
/// # Errors
///
/// When a file cannot be read or parsed.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {}: {e}", p.display()))
            .and_then(|text| parse(&text).map_err(|e| format!("{}: {e}", p.display())))
    };
    let (a, b) = (read(a_path)?, read(b_path)?);
    println!(
        "{:<13} {:<20} {:>30} {:>30} {:>9}  verdict",
        "workload", "metric", "A median [p25, p75]", "B median [p25, p75]", "change"
    );
    let mut ok = true;
    for ra in &a {
        let Some(rb) = b.iter().find(|r| r.workload == ra.workload) else {
            println!("{:<13} missing from {}", ra.workload, b_path.display());
            continue;
        };
        for m in END_TO_END {
            let (Some(sa), Some(sb)) = (ra.end_to_end.get(m.name), rb.end_to_end.get(m.name))
            else {
                continue;
            };
            let v = verdict(m, sa, sb);
            ok &= v != Verdict::Worse;
            let cell = |s: &Spread| format!("{:.4} [{:.4}, {:.4}]", s.median, s.p25, s.p75);
            let change = if sa.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", (sb.median / sa.median - 1.0) * 100.0)
            };
            println!(
                "{:<13} {:<20} {:>30} {:>30} {:>9}  {}",
                ra.workload,
                m.name,
                cell(sa),
                cell(sb),
                change,
                v.as_str()
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(values: &[f64]) -> Spread {
        Spread::of(values).expect("non-empty")
    }

    fn metric(better: Better, bound: f64) -> Metric {
        Metric {
            name: "m",
            unit: "s",
            better,
            bound,
            listed: false,
            only: &[],
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let wall = &metric(Better::Lower, 0.05);
        let base = spread(&[10.0, 10.05, 10.1]);
        assert_eq!(
            verdict(wall, &base, &spread(&[10.0, 10.1, 10.2])),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(wall, &base, &spread(&[11.0, 11.1, 11.2])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(wall, &base, &spread(&[9.0, 9.1, 9.2])),
            Verdict::Better
        );
        // Overlapping runs with a small median gain: not a claim.
        assert_eq!(
            verdict(wall, &base, &spread(&[9.9, 10.0, 10.06])),
            Verdict::Unchanged
        );
        // Run-to-run spread wider than the bound: cannot be judged ...
        let noisy = spread(&[9.0, 10.0, 11.0, 12.0]);
        assert_eq!(verdict(wall, &base, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(wall, &noisy, &base), Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        assert_eq!(
            verdict(wall, &noisy, &spread(&[5.0, 6.0, 7.0, 8.0])),
            Verdict::Better
        );
    }

    #[test]
    fn higher_is_better_metrics_flip_direction() {
        let rate = &metric(Better::Higher, 0.10);
        let base = spread(&[100.0, 101.0, 102.0]);
        assert_eq!(
            verdict(rate, &base, &spread(&[80.0, 81.0, 82.0])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(rate, &base, &spread(&[120.0, 121.0, 122.0])),
            Verdict::Better
        );
    }

    #[test]
    fn zero_bound_metrics_flag_a_single_bad_run() {
        let mismatches = &metric(Better::Lower, 0.0);
        let zero = spread(&[0.0, 0.0, 0.0]);
        assert_eq!(verdict(mismatches, &zero, &zero), Verdict::Unchanged);
        assert_eq!(
            verdict(mismatches, &zero, &spread(&[0.0, 0.0, 1.0])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(mismatches, &spread(&[0.0, 2.0, 0.0]), &zero),
            Verdict::Better
        );
    }

    #[test]
    fn results_round_trip_through_json() {
        let results = vec![WorkloadResult {
            workload: "quick_all".to_string(),
            runtime_s: 12.5,
            end_to_end: BTreeMap::from([("wall_s".to_string(), spread(&[3.6, 3.7, 3.65]))]),
            per_layer: BTreeMap::from([("yield.trials".to_string(), 1_970_176.0)]),
        }];
        assert_eq!(parse(&to_json(2015, 3, &results)), Ok(results));
    }
}
