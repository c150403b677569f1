//! The perf-regression gate: a committed baseline of *relative*
//! expectations, checked against any traced run.
//!
//! Absolute times flake in CI — machines differ, neighbors steal
//! cycles. What stays stable is the run's *shape*: which span names
//! own which fraction of self time, and which counter invariants the
//! engineered fast paths guarantee (the compiled LU kernel reuses its
//! symbolic analysis; the batched solver keeps lane fall-out rare).
//! `results/perf_baseline.json` (schema `mpvar-perf-baseline/v1`)
//! records those expectations as **named, thresholded checks**;
//! [`check`] evaluates a trace against them — the observability
//! analogue of `repro check`'s golden-CSV gate:
//!
//! ```text
//! {"schema":"mpvar-perf-baseline/v1",
//!  "workload":"repro --quick all --trace",
//!  "checks":[
//!    {"name":"solver-self-share","kind":"share_window",
//!     "span":"spice_transient","min":0.05,"max":0.9},
//!    {"name":"lu-reuse-present","kind":"counter_min",
//!     "counter":"spice.lu_symbolic_reuses","min":1},
//!    {"name":"symbolic-rebuild-rate","kind":"counter_ratio_max",
//!     "num":"spice.lu_symbolic_builds","den":"spice.lu_refactors",
//!     "max":0.1}]}
//! ```

use mpvar_trace::json::{get_str, parse_json, JsonCodec};
use mpvar_trace::schema::TraceLog;
use mpvar_trace::{json_record, json_tagged};

use crate::analytics::profile;
use crate::ObsError;

/// Schema identifier of a perf baseline document.
pub(crate) const BASELINE_SCHEMA_ID: &str = "mpvar-perf-baseline/v1";

/// What one named check asserts.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum CheckKind {
    /// The span name's share of total self time must sit in
    /// `[min, max]`. A missing span counts as share 0 — and fails
    /// unless `min` is 0.
    ShareWindow {
        /// Span name the share is computed for.
        span: String,
        /// Inclusive lower share bound, `[0, 1]`.
        min: f64,
        /// Inclusive upper share bound, `[0, 1]`.
        max: f64,
    },
    /// The counter's final value must be at least `min` (a missing
    /// counter reads as 0).
    CounterMin {
        /// Counter name.
        counter: String,
        /// Inclusive minimum.
        min: u64,
    },
    /// `num / den` must not exceed `max`. A zero or missing
    /// denominator passes only when the numerator is 0 too.
    CounterRatioMax {
        /// Numerator counter name.
        num: String,
        /// Denominator counter name.
        den: String,
        /// Inclusive maximum ratio.
        max: f64,
    },
}

/// One named, thresholded expectation.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfCheck {
    /// Stable check name, reported on failure.
    pub name: String,
    /// The assertion.
    pub(crate) kind: CheckKind,
}

/// A parsed perf baseline document.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfBaseline {
    /// The workload the baseline was calibrated on (informational).
    pub workload: String,
    /// The named checks, in file order.
    pub checks: Vec<PerfCheck>,
}

json_tagged! {
    CheckKind, "kind", "kind" {
        "share_window" => ShareWindow { span, min, max },
        "counter_min" => CounterMin { counter, min },
        "counter_ratio_max" => CounterRatioMax { num, den, max },
    }
}

json_record! { PerfCheck { name, #[flatten] kind }, check PerfCheck::check }

json_record! { PerfBaseline { workload, checks }, check PerfBaseline::check }

impl PerfCheck {
    fn check(&self) -> Result<(), String> {
        let name = &self.name;
        if name.is_empty() {
            return Err("check has an empty name".to_string());
        }
        match self.kind {
            CheckKind::ShareWindow { min, max, .. }
                if !(0.0..=1.0).contains(&min) || !(0.0..=1.0).contains(&max) || min > max =>
            {
                Err(format!(
                    "check `{name}`: share window [{min}, {max}] is not a sub-interval of [0, 1]"
                ))
            }
            CheckKind::CounterRatioMax { max, .. } if !max.is_finite() || max < 0.0 => Err(
                format!("check `{name}`: ratio max {max} must be finite and >= 0"),
            ),
            _ => Ok(()),
        }
    }
}

impl PerfBaseline {
    /// Parses a `mpvar-perf-baseline/v1` JSON document.
    ///
    /// # Errors
    ///
    /// [`ObsError::Baseline`] describing the first problem.
    pub fn parse(text: &str) -> Result<PerfBaseline, ObsError> {
        let value = parse_json(text.trim()).map_err(ObsError::Baseline)?;
        let obj = value
            .as_object()
            .ok_or_else(|| ObsError::Baseline("document is not a JSON object".into()))?;
        let schema = get_str(obj, "schema").map_err(ObsError::Baseline)?;
        if schema != BASELINE_SCHEMA_ID {
            return Err(ObsError::Baseline(format!(
                "unsupported schema `{schema}` (expected `{BASELINE_SCHEMA_ID}`)"
            )));
        }
        PerfBaseline::get(&value).map_err(ObsError::Baseline)
    }

    fn check(&self) -> Result<(), String> {
        if self.checks.is_empty() {
            return Err("`checks` must not be empty".to_string());
        }
        Ok(())
    }
}

/// One evaluated check.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PerfCheckResult {
    /// The check's name.
    pub name: String,
    /// Whether the trace satisfied it.
    pub passed: bool,
    /// Human-readable measurement vs threshold.
    pub detail: String,
}

/// Every check's verdict against one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Results in baseline order.
    pub(crate) checks: Vec<PerfCheckResult>,
}

impl PerfReport {
    /// Whether every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// Names of the failing checks, in baseline order.
    pub fn failed_names(&self) -> Vec<&str> {
        self.checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| c.name.as_str())
            .collect()
    }
}

/// Evaluates `baseline` against a parsed trace.
///
/// Missing spans and counters are *failing measurements* (share 0,
/// value 0), not errors — a trace that silently lost its solver spans
/// is exactly the regression this gate exists to catch.
///
/// # Errors
///
/// Only structural ones: an empty trace or an unbuildable span forest.
pub fn check(baseline: &PerfBaseline, log: &TraceLog) -> Result<PerfReport, ObsError> {
    let profile = profile(log)?;
    let counter = |name: &str| log.counters.get(name).copied().unwrap_or(0);
    let checks = baseline
        .checks
        .iter()
        .map(|c| {
            let (passed, detail) = match &c.kind {
                CheckKind::ShareWindow { span, min, max } => {
                    let share = profile.aggregate(span).map(|a| a.share).unwrap_or(0.0);
                    (
                        (*min..=*max).contains(&share),
                        format!(
                            "span `{span}` self-time share {:.1}% (window {:.1}%..{:.1}%)",
                            share * 100.0,
                            min * 100.0,
                            max * 100.0
                        ),
                    )
                }
                CheckKind::CounterMin { counter: name, min } => {
                    let value = counter(name);
                    (
                        value >= *min,
                        format!("counter `{name}` = {value} (min {min})"),
                    )
                }
                CheckKind::CounterRatioMax { num, den, max } => {
                    let (n, d) = (counter(num), counter(den));
                    let (passed, shown) = if d == 0 {
                        (n == 0, "undefined (zero denominator)".to_string())
                    } else {
                        let ratio = n as f64 / d as f64;
                        (ratio <= *max, format!("{ratio:.4}"))
                    };
                    (
                        passed,
                        format!("`{num}`/`{den}` = {n}/{d} = {shown} (max {max})"),
                    )
                }
            };
            PerfCheckResult {
                name: c.name.clone(),
                passed,
                detail,
            }
        })
        .collect();
    Ok(PerfReport { checks })
}

/// Renders a report as `repro perf-check` prints it: one `PASS`/`FAIL`
/// line per check, then the verdict.
pub fn render_report(report: &PerfReport) -> String {
    let mut out = String::new();
    for c in &report.checks {
        out.push_str(&format!(
            "  [{}] {:<28} {}\n",
            if c.passed { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        ));
    }
    let failed = report.failed_names();
    if failed.is_empty() {
        out.push_str(&format!(
            "perf-check: OK ({} checks)\n",
            report.checks.len()
        ));
    } else {
        out.push_str(&format!(
            "perf-check: FAILED ({}/{} checks): {}\n",
            failed.len(),
            report.checks.len(),
            failed.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_baseline() -> PerfBaseline {
        PerfBaseline {
            workload: "test".into(),
            checks: vec![
                PerfCheck {
                    name: "solver-share".into(),
                    kind: CheckKind::ShareWindow {
                        span: "work".into(),
                        min: 0.5,
                        max: 0.95,
                    },
                },
                PerfCheck {
                    name: "reuse-present".into(),
                    kind: CheckKind::CounterMin {
                        counter: "reuses".into(),
                        min: 1,
                    },
                },
                PerfCheck {
                    name: "rebuild-rate".into(),
                    kind: CheckKind::CounterRatioMax {
                        num: "builds".into(),
                        den: "solves".into(),
                        max: 0.5,
                    },
                },
            ],
        }
    }

    #[test]
    fn baseline_parses_every_check_kind() {
        let text = r#"{"schema":"mpvar-perf-baseline/v1","workload":"test","checks":[
            {"name":"solver-share","kind":"share_window","span":"work","min":0.5,"max":0.95},
            {"name":"reuse-present","kind":"counter_min","counter":"reuses","min":1},
            {"name":"rebuild-rate","kind":"counter_ratio_max","num":"builds","den":"solves","max":0.5}
        ]}"#;
        assert_eq!(PerfBaseline::parse(text), Ok(sample_baseline()));
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(matches!(
            PerfBaseline::parse("{}"),
            Err(ObsError::Baseline(_))
        ));
        let wrong_schema = r#"{"schema":"perf/v0","workload":"w","checks":[]}"#;
        assert!(PerfBaseline::parse(wrong_schema).is_err());
        let empty_checks = r#"{"schema":"mpvar-perf-baseline/v1","workload":"w","checks":[]}"#;
        assert!(PerfBaseline::parse(empty_checks).is_err());
        let bad_window = r#"{"schema":"mpvar-perf-baseline/v1","workload":"w",
            "checks":[{"name":"x","kind":"share_window","span":"s","min":0.9,"max":0.1}]}"#;
        assert!(PerfBaseline::parse(bad_window).is_err());
        let unknown_kind = r#"{"schema":"mpvar-perf-baseline/v1","workload":"w",
            "checks":[{"name":"x","kind":"wall_time_max","max":1.0}]}"#;
        let err = PerfBaseline::parse(unknown_kind).unwrap_err();
        assert!(err.to_string().contains("unknown kind"), "{err}");
    }

    fn trace_with(work_ns: u64, other_ns: u64, counters: &[(&str, u64)]) -> TraceLog {
        use mpvar_trace::schema::SpanEntry;
        use std::collections::BTreeMap;
        let mut log = TraceLog {
            schema: "mpvar-trace/v1".into(),
            ..TraceLog::default()
        };
        log.spans.push(SpanEntry {
            id: 1,
            parent: None,
            name: "work".into(),
            thread: 0,
            start_ns: 0,
            dur_ns: work_ns,
            fields: BTreeMap::new(),
        });
        log.spans.push(SpanEntry {
            id: 2,
            parent: None,
            name: "other".into(),
            thread: 0,
            start_ns: work_ns,
            dur_ns: other_ns,
            fields: BTreeMap::new(),
        });
        for (name, value) in counters {
            log.counters.insert(name.to_string(), *value);
        }
        log
    }

    #[test]
    fn honest_trace_passes_and_inflated_share_fails_by_name() {
        let baseline = sample_baseline();
        let honest = trace_with(80, 20, &[("reuses", 10), ("builds", 1), ("solves", 10)]);
        let report = check(&baseline, &honest).expect("check");
        assert!(report.passed(), "{report:?}");

        // Doctoring `other` up (so `work`'s share collapses) must fail
        // exactly the share check, by name.
        let doctored = trace_with(80, 2000, &[("reuses", 10), ("builds", 1), ("solves", 10)]);
        let report = check(&baseline, &doctored).expect("check");
        assert!(!report.passed());
        assert_eq!(report.failed_names(), ["solver-share"]);
        assert!(
            render_report(&report).contains("FAIL"),
            "render names failure"
        );
    }

    /// The committed baseline checks properties, so each of its checks
    /// fails on the regression it guards whatever the run costs: the
    /// counters below are a traced quick `all`, then that trace with
    /// the transient stop or the symbolic LU reuse switched off.
    #[test]
    fn committed_baseline_fails_on_the_regressions_it_guards() {
        let baseline = PerfBaseline::parse(include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/perf_baseline.json"
        )))
        .expect("committed baseline parses");
        let honest = [
            ("spice.lu_symbolic_reuses", 11_538),
            ("spice.lu_symbolic_builds", 24),
            ("spice.lu_refactors", 11_562),
            ("spice.nr_failures", 0),
            ("spice.nr_iterations", 11_562),
            ("spice.transient_steps", 5_547),
            ("spice.transients", 24),
            ("mc.trials", 97_500),
            ("yield.rounds", 123),
            ("yield.evaluated_trials", 837_632),
            ("yield.trials", 1_970_176),
            ("formula.lane_trials", 667_216),
            ("formula.lane_fallbacks", 173),
        ];
        let failed = |changes: &[(&str, u64)]| {
            let mut counters = honest.to_vec();
            for &(name, value) in changes {
                match counters.iter_mut().find(|(n, _)| *n == name) {
                    Some(entry) => entry.1 = value,
                    None => counters.push((name, value)),
                }
            }
            let report = check(&baseline, &trace_with(80, 20, &counters)).expect("check");
            report
                .failed_names()
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
        };
        assert!(failed(&[]).is_empty(), "honest trace passes");
        // Every scalar transient runs its whole 2000-step window.
        assert_eq!(
            failed(&[("spice.transient_steps", 48_000)]),
            ["steps-per-transient"]
        );
        // A trace that lost the run counter cannot pass either.
        assert_eq!(failed(&[("spice.transients", 0)]), ["steps-per-transient"]);
        // Every factor rebuilds its symbolic analysis.
        assert_eq!(
            failed(&[
                ("spice.lu_symbolic_reuses", 0),
                ("spice.lu_symbolic_builds", 11_562)
            ]),
            ["lu-symbolic-reuse", "symbolic-rebuild-rate"]
        );
        // Every formula-route trial printed one draw at a time.
        assert_eq!(
            failed(&[
                ("formula.lane_trials", 0),
                ("formula.lane_fallbacks", 667_389)
            ]),
            ["formula-lane-trials", "formula-lane-fallback-rate"]
        );
    }

    /// The `check --fast` baseline watches the batched solver: its
    /// counters below are a traced `check --fast`, then that trace with
    /// the batch's crossing stop never firing.
    #[test]
    fn check_fast_baseline_fails_when_the_batch_runs_whole_windows() {
        let baseline = PerfBaseline::parse(include_str!(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/perf_baseline_check_fast.json"
        )))
        .expect("committed baseline parses");
        let failed = |counters: &[(&str, u64)]| {
            let report = check(&baseline, &trace_with(80, 20, counters)).expect("check");
            report
                .failed_names()
                .iter()
                .map(|n| n.to_string())
                .collect::<Vec<_>>()
        };
        let lanes = ("spice.batch_lane_trials", 341);
        assert!(failed(&[("spice.batch_solves", 12_575), lanes]).is_empty());
        assert_eq!(
            failed(&[("spice.batch_solves", 110_000), lanes]),
            ["batch-solves-per-lane-trial"]
        );
        assert_eq!(failed(&[]), ["batch-solver-ran"]);
        assert_eq!(
            failed(&[
                ("spice.batch_solves", 12_575),
                lanes,
                ("spice.batch_fallouts", 40)
            ]),
            ["batch-fallout-rate"]
        );
    }

    #[test]
    fn counter_checks_fail_on_missing_and_zero_denominator() {
        let baseline = sample_baseline();
        let no_counters = trace_with(80, 20, &[]);
        let report = check(&baseline, &no_counters).expect("check");
        // reuse-present fails (missing = 0); rebuild-rate passes (0/0).
        assert_eq!(report.failed_names(), ["reuse-present"]);

        let zero_den = trace_with(80, 20, &[("reuses", 5), ("builds", 3)]);
        let report = check(&baseline, &zero_den).expect("check");
        assert_eq!(report.failed_names(), ["rebuild-rate"]);
    }
}
