//! The `repro -- check` verdict engine: golden gate + invariants +
//! differential oracles in one pass.
//!
//! [`run_check`] regenerates the experiment matrix once (sharing the
//! expensive corner-search and simulation stages exactly like
//! [`Study::run_all`](mpvar_study::Study::run_all)), then renders three
//! families of named
//! [`CheckItem`]s:
//!
//! 1. **Golden gate** (`golden.<id>`): each freshly rendered CSV is
//!    compared against the committed `results/<id>.csv` under a
//!    per-column tolerance policy. Deterministic corner-search columns
//!    are held to formatting noise; Monte-Carlo sigma columns re-run
//!    under the reduced `--fast` profile get statistical bands sized
//!    from the sampling error of the smaller trial count.
//! 2. **Shape invariants** (`<artefact>.<claim>`): the paper's
//!    qualitative claims, checked on the structured experiment outputs
//!    (see `mpvar_testkit::invariants`).
//! 3. **Differential oracles** (`oracle.<bound>`): formula, Elmore,
//!    and SPICE delays cross-validated on randomized small arrays.
//!
//! The whole pass is deterministic for a fixed profile: seeds are
//! fixed, and every Monte-Carlo stage is thread-count invariant, so a
//! `check` report is byte-identical across machines and worker counts.

use std::path::PathBuf;

use mpvar_core::experiments::{
    AblationSadpAnticorrelation, ExperimentContext, ExtensionLe2, ExtensionLer, ExtensionScaling,
    Fig4, Fig5, Table1, Table2, Table3, Table4,
};
use mpvar_core::rareevent::YieldTable;
use mpvar_core::writeexp::{SenseMargin, WlDelay, WriteMargin, WriteTime, WriteYieldTable};
use mpvar_core::{try_par_map_range, CoreError, ExecConfig};
use mpvar_sram::WriteConfig;
use mpvar_study::{ArtifactId, Study};
use mpvar_testkit::compare::{compare_tables, Policy, TableSpec};
use mpvar_testkit::csv::CsvTable;
use mpvar_testkit::invariants;
use mpvar_testkit::oracle::{run_delay_oracles, OracleConfig};
use mpvar_testkit::write_oracle::{run_write_oracles, WriteOracleConfig};
use mpvar_testkit::{CheckItem, CheckReport};
use mpvar_trace::names;

/// Maximum simulation-vs-formula tdp gap (percentage points) asserted
/// by the Table III methods-agree invariant. The golden gap peaks at
/// 6.3pp (10x16, LELELE); the paper itself reports the formula as an
/// upper bound that loosens with height (Table II ratio 0.95 → 0.73).
const TABLE3_MAX_GAP_PP: f64 = 13.0;

/// Relative tolerance for Monte-Carlo sigma columns under `--fast`:
/// the 5 000-trial estimate shares its draws with the 20 000-trial
/// golden (same seed, substream-per-trial), so the deviation is the
/// sampling error of the withheld 15 000 draws — about 1–2% for a
/// standard deviation. 8% keeps a 4× guard band without masking a
/// real change (the smallest inter-option sigma gap is ~35%).
const FAST_SIGMA_REL: f64 = 0.08;

/// Configuration of one `check` pass.
#[derive(Debug, Clone)]
pub struct CheckOptions {
    /// Reduced profile: array heights {16, 64} and 5 000 Monte-Carlo
    /// trials instead of the paper's {16, 64, 256, 1024} × 20 000.
    /// Deterministic artefacts still gate exactly; statistical columns
    /// widen to the fast-profile sigma band (`FAST_SIGMA_REL`).
    pub fast: bool,
    /// Directory holding the committed golden CSVs.
    pub golden_dir: PathBuf,
    /// Randomized arrays for the differential delay oracles.
    pub oracle_cases: usize,
    /// Worker-thread configuration for the experiment stages.
    pub exec: ExecConfig,
    /// Test hook: override the profile's Monte-Carlo trial count.
    /// Statistical golden comparisons are only calibrated for the
    /// profile defaults, so tests using this should assert report
    /// *determinism*, not passing verdicts.
    pub trials: Option<usize>,
}

impl CheckOptions {
    /// Defaults: goldens from `results/`, 128 oracle cases, all cores.
    pub fn new(fast: bool) -> Self {
        Self {
            fast,
            golden_dir: PathBuf::from("results"),
            oracle_cases: 128,
            exec: ExecConfig::default(),
            trials: None,
        }
    }
}

/// The experiment context a `check` profile runs under.
///
/// The full profile is exactly [`ExperimentContext::paper`] — the
/// matrix that regenerated the committed goldens byte-for-byte. The
/// fast profile keeps the paper's seed and corner searches but drops
/// the two largest array heights and reduces trials to 5 000; heights
/// 16 and 64 are retained because every n-pinned artefact (Fig. 5,
/// Table IV, sensitivity, LE2, scaling) measures at n = 64.
///
/// # Errors
///
/// Propagates context-construction failures.
pub fn check_context(opts: &CheckOptions) -> Result<ExperimentContext, CoreError> {
    let mut ctx = ExperimentContext::paper()?;
    ctx.exec = opts.exec;
    ctx.mc.exec = opts.exec;
    if opts.fast {
        ctx.sizes = vec![16, 64];
        ctx.mc.trials = 5_000;
    }
    if let Some(trials) = opts.trials {
        ctx.mc.trials = trials;
    }
    Ok(ctx)
}

/// The golden-gate contracts, one per committed CSV.
///
/// `fast` widens Monte-Carlo sigma columns and lets the fresh rows be
/// a subset of the golden design of experiments for the
/// height-swept artefacts; everything else stays exact. Table IV's
/// bootstrap-CI column is skipped under `fast` (its width is a
/// function of the trial count), and `extension-ler` /
/// `ablation-sadp-vss` stay exact in both profiles because their
/// runners clamp trials at or below the fast profile's 5 000.
pub fn table_specs(fast: bool) -> Vec<TableSpec> {
    let all_rows = !fast;
    let strict = Policy::strict;
    let mc = |rel: f64| {
        if fast {
            Policy::statistical(rel)
        } else {
            Policy::strict()
        }
    };
    vec![
        TableSpec::new(
            "table1",
            &["option"],
            &[
                ("worst corner", Policy::Text),
                ("C_bl impact", strict()),
                ("R_bl impact", strict()),
            ],
            true,
        ),
        TableSpec::new(
            "fig4",
            &["array"],
            &[
                ("td nominal", strict()),
                ("tdp LELELE", strict()),
                ("tdp SADP", strict()),
                ("tdp EUV", strict()),
            ],
            all_rows,
        ),
        TableSpec::new(
            "table2",
            &["array"],
            &[
                ("simulation", strict()),
                ("formula", strict()),
                ("ratio sim/formula", strict()),
            ],
            all_rows,
        ),
        TableSpec::new(
            "table3",
            &["method", "array"],
            &[("LELELE", strict()), ("SADP", strict()), ("EUV", strict())],
            all_rows,
        ),
        TableSpec::new(
            "table4",
            &["patterning option"],
            &[
                ("std deviation (% tdp)", mc(FAST_SIGMA_REL)),
                (
                    "95% bootstrap CI",
                    if fast {
                        Policy::Ignore
                    } else {
                        Policy::strict()
                    },
                ),
            ],
            true,
        ),
        TableSpec::new(
            "ablation-delay",
            &["array"],
            &[
                ("simulation", strict()),
                ("lumped formula", strict()),
                ("elmore", strict()),
            ],
            all_rows,
        ),
        TableSpec::new(
            "ablation-bl-width",
            &["bl width"],
            &[
                ("LELELE dC", strict()),
                ("SADP dC", strict()),
                ("EUV dC", strict()),
            ],
            true,
        ),
        TableSpec::new(
            "ablation-sadp-vss",
            &["metric"],
            &[("value", strict())],
            true,
        ),
        TableSpec::new(
            "extension-le2",
            &["option"],
            &[
                ("worst dC_bl", strict()),
                ("worst dR_bl", strict()),
                ("tdp sigma (%)", mc(FAST_SIGMA_REL)),
            ],
            true,
        ),
        TableSpec::new(
            "extension-ler",
            &["option"],
            &[
                ("tdp sigma, MP only", strict()),
                ("tdp sigma, MP+LER", strict()),
                ("mean R_var, LER only", strict()),
            ],
            true,
        ),
        TableSpec::new(
            "extension-sensitivity",
            &["option", "parameter"],
            &[
                ("slope_pp_per_nm", strict()),
                ("curvature_pp_per_nm2", strict()),
            ],
            true,
        ),
        TableSpec::new(
            "extension-scaling",
            &["node", "option"],
            &[
                ("worst dC_bl", strict()),
                ("tdp sigma (%)", mc(FAST_SIGMA_REL)),
            ],
            true,
        ),
        // The yield experiment fixes its own seed and budgets (see
        // `YieldSettings`), so the artefact is profile-independent and
        // gates exactly in BOTH profiles — including the fast one.
        TableSpec::new(
            "yield_6sigma",
            &["option", "estimator", "margin"],
            &[
                ("p_fail", strict()),
                ("ci_lo", strict()),
                ("ci_hi", strict()),
                ("rel_hw", Policy::Text),
                ("trials", strict()),
                ("converged", Policy::Text),
                ("mean_w", strict()),
                ("gauss_fit", strict()),
            ],
            true,
        ),
        // The write-family artefacts fix their own sizes, trials, and
        // seeds (see `WriteStudySettings`), so like `yield_6sigma` they
        // are profile-independent and gate exactly in BOTH profiles.
        TableSpec::new(
            "write_time",
            &["array"],
            &[
                ("t_write sim", strict()),
                ("t_write formula", strict()),
                ("twp LELELE", strict()),
                ("twp SADP", strict()),
                ("twp EUV", strict()),
            ],
            true,
        ),
        TableSpec::new(
            "write_margin",
            &["option"],
            &[
                ("sigma (% twp)", strict()),
                ("mean", strict()),
                ("min", strict()),
                ("max", strict()),
            ],
            true,
        ),
        TableSpec::new(
            "sense_margin",
            &["option"],
            &[
                ("failure fraction", strict()),
                ("mean margin", strict()),
                ("sigma margin", strict()),
            ],
            true,
        ),
        TableSpec::new(
            "wl_delay",
            &["option"],
            &[
                ("near (worst)", strict()),
                ("far (worst)", strict()),
                ("far penalty", strict()),
            ],
            true,
        ),
        TableSpec::new(
            "write_yield",
            &["option", "margin"],
            &[
                ("write p_fail", strict()),
                ("ci_lo", strict()),
                ("ci_hi", strict()),
                ("trials", strict()),
                ("converged", Policy::Text),
                ("read p_fail", strict()),
            ],
            true,
        ),
    ]
}

/// Compares one freshly rendered CSV against its committed golden.
fn golden_gate_item(spec: &TableSpec, golden_dir: &std::path::Path, fresh_csv: &str) -> CheckItem {
    let name = format!("golden.{}", spec.id);
    let path = golden_dir.join(format!("{}.csv", spec.id));
    let golden_text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            return CheckItem::fail(&name, format!("cannot read golden {}: {e}", path.display()))
        }
    };
    let golden = match CsvTable::parse(&golden_text) {
        Ok(t) => t,
        Err(e) => return CheckItem::fail(&name, format!("golden {}: {e}", path.display())),
    };
    let fresh = match CsvTable::parse(fresh_csv) {
        Ok(t) => t,
        Err(e) => return CheckItem::fail(&name, format!("fresh {} artefact: {e}", spec.id)),
    };
    let violations = compare_tables(spec, &golden, &fresh);
    CheckItem::from_violations(
        &name,
        &format!(
            "{} fresh rows match {} within tolerance",
            fresh.rows.len(),
            path.display()
        ),
        &violations,
    )
}

/// Runs the full verdict pass and collects every named check.
///
/// Hard failures of the experiment runners themselves (the matrix
/// cannot even be regenerated) propagate as errors; everything
/// downstream — golden drift, broken shape claims, oracle
/// disagreement — lands as a failed [`CheckItem`] in the report.
///
/// # Errors
///
/// Propagates experiment-runner failures.
pub fn run_check(opts: &CheckOptions) -> Result<CheckReport, CoreError> {
    let study = Study::new(check_context(opts)?);
    run_check_in(opts, &study)
}

/// Runs the verdict pass against an existing [`Study`] session.
///
/// The session's memoized cache makes the reuse explicit: the Table I
/// corner search and Fig. 4 simulations are computed once and every
/// downstream artefact (Tables II/III, ablation A1) fetches them as
/// cache hits — visible in the session's `timings()` counters and, with
/// a trace collector installed, as zero-duration `study_node` spans.
///
/// The differential oracles share nothing with the matrix, so the two
/// run as the two indices of one parallel map on `opts.exec`'s thread
/// budget: the oracles (under a `check_oracles` span) first, since they
/// take longer, and the matrix alongside. Nested maps in either borrow
/// from that one budget. Their items still come last, in the same
/// order, so the report does not depend on the overlap.
///
/// # Errors
///
/// Propagates experiment-runner failures.
pub fn run_check_in(opts: &CheckOptions, study: &Study) -> Result<CheckReport, CoreError> {
    let ctx = study.context();
    let mut halves = try_par_map_range(2, opts.exec.effective_threads(), |half| match half {
        0 => Ok(oracle_items(opts, ctx)),
        _ => matrix_items(opts, study),
    })?;
    let matrix = halves.pop().expect("two halves");
    let oracles = halves.pop().expect("two halves");
    let mut report = CheckReport::new();
    report.extend(matrix);
    report.extend(oracles);
    Ok(report)
}

/// Regenerates the experiment matrix and renders the golden-gate and
/// shape-invariant items.
fn matrix_items(opts: &CheckOptions, study: &Study) -> Result<Vec<CheckItem>, CoreError> {
    let ctx = study.context();
    let mut report = Vec::new();

    // Regenerate the matrix once; the artifact graph shares the
    // expensive stages through the content-keyed cache.
    let t1 = study.get::<Table1>()?;
    let f4 = study.get::<Fig4>()?;
    let t2 = study.get::<Table2>()?;
    let t3 = study.get::<Table3>()?;
    let f5 = study.get::<Fig5>()?;
    let t4 = study.get::<Table4>()?;
    let a3 = study.get::<AblationSadpAnticorrelation>()?;
    let e1 = study.get::<ExtensionLe2>()?;
    let e2 = study.get::<ExtensionLer>()?;
    let e3 = study.get::<ExtensionScaling>()?;
    let yt = study.get::<YieldTable>()?;
    let wt = study.get::<WriteTime>()?;
    let wm = study.get::<WriteMargin>()?;
    let sm = study.get::<SenseMargin>()?;
    let wl = study.get::<WlDelay>()?;
    let wy = study.get::<WriteYieldTable>()?;

    // Golden gate: fresh CSV vs committed artefact, value-wise.
    for spec in table_specs(opts.fast) {
        let fresh = study.artifact(ArtifactId::try_parse(&spec.id)?)?.render();
        report.push(golden_gate_item(&spec, &opts.golden_dir, &fresh.csv));
    }

    // Shape invariants on the structured outputs.
    report.extend(invariants::table1_invariants(&t1));
    report.extend(invariants::fig4_invariants(&f4));
    report.extend(invariants::table2_invariants(&t2));
    report.extend(invariants::table3_invariants(&t3, TABLE3_MAX_GAP_PP));
    report.extend(invariants::fig5_invariants(&f5));
    report.extend(invariants::table4_invariants(
        &t4,
        ctx.le3_overlay_sweep_nm.len(),
    ));
    report.extend(invariants::sadp_anticorrelation_invariants(&a3));
    report.extend(invariants::le2_invariants(&e1));
    report.extend(invariants::ler_invariants(&e2));
    report.extend(invariants::scaling_invariants(&e3));
    report.extend(invariants::yield_invariants(&yt));
    report.extend(invariants::write_time_invariants(&wt));
    report.extend(invariants::write_margin_invariants(&wm));
    report.extend(invariants::sense_margin_invariants(&sm));
    report.extend(invariants::wl_delay_invariants(&wl));
    report.extend(invariants::write_yield_invariants(&wy));
    Ok(report)
}

/// Runs both differential oracles and renders their items.
fn oracle_items(opts: &CheckOptions, ctx: &ExperimentContext) -> Vec<CheckItem> {
    let _root = mpvar_trace::span!(names::SPAN_CHECK_ORACLES, cases = opts.oracle_cases);
    let mut items = Vec::new();

    // Differential delay oracles on randomized arrays.
    let oracle_cfg = OracleConfig {
        cases: opts.oracle_cases,
        ..OracleConfig::default()
    };
    let delay = {
        let _span = mpvar_trace::span!(names::SPAN_ORACLE_DELAY, cases = oracle_cfg.cases);
        run_delay_oracles(
            &ctx.tech,
            &ctx.cell,
            &ctx.read_config,
            &oracle_cfg,
            opts.exec,
        )
    };
    match delay {
        Ok(oracle_report) => items.extend(oracle_report.items()),
        Err(e) => items.push(CheckItem::fail("oracle.run", e.to_string())),
    }

    // The write-side mirror: formula vs scalar vs batched write
    // transients, including the batch bit-identity contract.
    let write_cfg = WriteOracleConfig {
        cases: (opts.oracle_cases * 3 / 4).max(1),
        ..WriteOracleConfig::default()
    };
    let write = {
        let _span = mpvar_trace::span!(names::SPAN_ORACLE_WRITE, cases = write_cfg.cases);
        run_write_oracles(
            &ctx.tech,
            &ctx.cell,
            &WriteConfig::default(),
            &write_cfg,
            opts.exec,
        )
    };
    match write {
        Ok(write_report) => items.extend(write_report.items()),
        Err(e) => items.push(CheckItem::fail("write_oracle.run", e.to_string())),
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_id_is_a_known_experiment() {
        for fast in [false, true] {
            for spec in table_specs(fast) {
                assert!(
                    ArtifactId::parse(&spec.id).is_some(),
                    "spec id `{}` is not an experiment id",
                    spec.id
                );
                assert!(!spec.key.is_empty());
                assert!(!spec.columns.is_empty());
            }
        }
    }

    #[test]
    fn fast_profile_keeps_the_pinned_height() {
        let opts = CheckOptions::new(true);
        let ctx = check_context(&opts).unwrap();
        assert_eq!(ctx.sizes, vec![16, 64]);
        assert_eq!(ctx.mc.trials, 5_000);
        assert_eq!(ctx.mc.seed, ExperimentContext::paper().unwrap().mc.seed);
    }

    #[test]
    fn full_profile_is_the_paper_matrix() {
        let opts = CheckOptions::new(false);
        let ctx = check_context(&opts).unwrap();
        let paper = ExperimentContext::paper().unwrap();
        assert_eq!(ctx.sizes, paper.sizes);
        assert_eq!(ctx.mc.trials, paper.mc.trials);
    }

    #[test]
    fn fast_specs_widen_only_mc_columns() {
        let fast = table_specs(true);
        let full = table_specs(false);
        assert_eq!(fast.len(), full.len());
        // Fast must never be stricter than full, and Table I stays
        // exact in both.
        let t1_fast = fast.iter().find(|s| s.id == "table1").unwrap();
        let t1_full = full.iter().find(|s| s.id == "table1").unwrap();
        assert_eq!(t1_fast, t1_full);
        let t4_fast = fast.iter().find(|s| s.id == "table4").unwrap();
        assert!(t4_fast
            .columns
            .iter()
            .any(|c| matches!(c.policy, Policy::Numeric { rel, .. } if rel >= 0.01)));
    }

    #[test]
    fn check_is_thread_invariant_with_oracle_items_last() {
        let opts = |exec: ExecConfig| CheckOptions {
            exec,
            trials: Some(400),
            oracle_cases: 8,
            ..CheckOptions::new(true)
        };
        let serial = run_check(&opts(ExecConfig::SERIAL)).unwrap();
        let four = run_check(&opts(ExecConfig::with_threads(4))).unwrap();
        assert_eq!(serial.render(), four.render());
        // The oracles overlap the matrix but still report last, delay
        // oracle first.
        let names: Vec<&str> = serial.items.iter().map(|i| i.name.as_str()).collect();
        let first_oracle = names.len() - 10;
        assert_eq!(names[first_oracle], "oracle.coverage");
        assert_eq!(names[first_oracle + 5], "write_oracle.coverage");
        assert!(names[..first_oracle]
            .iter()
            .all(|n| !n.starts_with("oracle.") && !n.starts_with("write_oracle.")));
    }

    #[test]
    fn missing_golden_fails_with_named_item() {
        let spec = TableSpec::new("table1", &["option"], &[("x", Policy::Text)], true);
        let item = golden_gate_item(&spec, std::path::Path::new("/nonexistent"), "a,b\n1,2\n");
        assert!(!item.passed);
        assert_eq!(item.name, "golden.table1");
        assert!(item.detail.contains("cannot read golden"));
    }
}
