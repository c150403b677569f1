//! The five workloads: how their inputs follow from the seed, what one
//! execution of a pipeline workload does, and how its outputs are
//! checked. `serve_mix` lives in [`crate::serve_mix`].

use std::collections::BTreeMap;
use std::time::Instant;

use mpvar_bench::check::{check_context, run_check_in, CheckOptions};
use mpvar_core::experiments::{
    AblationSadpAnticorrelation, ExperimentContext, ExtensionLe2, ExtensionLer, ExtensionScaling,
    Fig4, Fig5, Table1, Table2, Table3, Table4,
};
use mpvar_core::rareevent::YieldTable;
use mpvar_core::writeexp::{SenseMargin, WlDelay, WriteMargin, WriteTime, WriteYieldTable};
use mpvar_core::CoreError;
use mpvar_study::Study;
use mpvar_testkit::invariants;
use mpvar_testkit::CheckItem;

/// The seed at which every context keeps the committed seeds, so the
/// outputs can be compared with `results/` and `reference/`.
pub const COMMITTED_SEED: u64 = 2015;

/// Table III's simulation-vs-formula gap bound, as `repro check` uses it.
const TABLE3_MAX_GAP_PP: f64 = 13.0;

/// FNV-1a digests of the quick-preset artifact CSVs at the committed
/// seed; `*` marks the artifacts whose CSV does not depend on the
/// Monte-Carlo seed.
const QUICK_REFERENCE: &str = include_str!("../reference/quick_all.fnv");

/// The FNV-1a digest of the paper-preset `fig5.csv`, which `results/`
/// does not hold.
const PAPER_REFERENCE: &str = include_str!("../reference/paper_all.fnv");

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// `ExperimentContext::quick()` → `run_all()` on every core.
    QuickAll,
    /// The same inputs on one thread.
    QuickAllT1,
    /// `ExperimentContext::paper()` → `run_all()`.
    PaperAll,
    /// The fast `repro check` pass.
    CheckFast,
    /// Cold, warm and disk-warm requests against an in-process server.
    ServeMix,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::QuickAll,
        Workload::QuickAllT1,
        Workload::PaperAll,
        Workload::CheckFast,
        Workload::ServeMix,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QuickAll => "quick_all",
            Workload::QuickAllT1 => "quick_all_t1",
            Workload::PaperAll => "paper_all",
            Workload::CheckFast => "check_fast",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What one execution produced, apart from its timing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: artifacts, checks or requests.
    pub attempted: u64,
    /// Operations that failed outright.
    pub failed: u64,
    /// Outputs that differ from what they must be, one line each.
    pub mismatches: Vec<String>,
    /// FNV-1a over every output, so executions can be compared.
    pub digest: u64,
    /// Workload-specific end-to-end values (`serve_mix` latencies).
    pub metrics: BTreeMap<&'static str, f64>,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The experiment context a pipeline workload runs at `seed`.
///
/// The seed replaces the Monte-Carlo seed only. The yield and write
/// studies keep their committed seeds at every `seed`: their adaptive
/// controllers stop when the confidence interval converges, so another
/// seed changes how many trials they run (1.97–2.27 M across seeds
/// 1–5 on the quick preset) and with it the run time the benchmark is
/// measuring. `check_fast` ignores the seed: its goldens pin it.
///
/// # Panics
///
/// For `serve_mix`, which has no single context.
pub fn context(workload: Workload, seed: u64) -> Result<ExperimentContext, CoreError> {
    let builder = ExperimentContext::builder()?;
    Ok(match workload {
        Workload::QuickAll => builder.quick_preset().seed(seed).build(),
        Workload::QuickAllT1 => builder.quick_preset().seed(seed).threads(1).build(),
        Workload::PaperAll => builder.paper_preset().seed(seed).build(),
        Workload::CheckFast => check_context(&CheckOptions::new(true))?,
        Workload::ServeMix => panic!("serve_mix builds one context per request"),
    })
}

/// Runs one pipeline workload over `study` and checks its outputs.
/// Returns the wall time of the run itself, then the outcome.
pub fn run_pipeline(workload: Workload, seed: u64, study: &Study) -> (f64, Outcome) {
    let start = Instant::now();
    if workload == Workload::CheckFast {
        let report = run_check_in(&CheckOptions::new(true), study);
        let wall_s = start.elapsed().as_secs_f64();
        return (wall_s, check_outcome(report));
    }
    let artifacts = study.run_all();
    let wall_s = start.elapsed().as_secs_f64();
    let attempted = mpvar_study::ArtifactId::ALL.len() as u64;
    let artifacts = match artifacts {
        Ok(artifacts) => artifacts,
        Err(e) => {
            return (
                wall_s,
                Outcome {
                    attempted,
                    failed: attempted,
                    mismatches: vec![format!("run_all failed: {e}")],
                    ..Outcome::default()
                },
            )
        }
    };
    let mut outcome = Outcome {
        attempted,
        failed: attempted.saturating_sub(artifacts.len() as u64),
        ..Outcome::default()
    };
    let digests: Vec<(String, u64)> = artifacts
        .iter()
        .map(|a| (a.id.clone(), fnv1a(a.csv.as_bytes())))
        .collect();
    outcome.digest = fnv1a(format!("{digests:?}").as_bytes());
    let fixed_only = seed != COMMITTED_SEED;
    match workload {
        Workload::PaperAll => {
            for (artifact, (id, digest)) in artifacts.iter().zip(&digests) {
                if id == "fig5" {
                    compare_digest(&mut outcome, PAPER_REFERENCE, id, *digest, fixed_only);
                } else if !fixed_only || seed_fixed(id) {
                    compare_golden(&mut outcome, id, &artifact.csv);
                }
            }
            // The claims are stated for the paper's design of experiments.
            outcome.mismatches.extend(
                shape_claims(study)
                    .into_iter()
                    .filter(|item| !item.passed)
                    .map(|item| format!("{}: {}", item.name, item.detail)),
            );
        }
        _ => {
            for (id, digest) in &digests {
                compare_digest(&mut outcome, QUICK_REFERENCE, id, *digest, fixed_only);
            }
        }
    }
    (wall_s, outcome)
}

fn check_outcome(report: Result<mpvar_testkit::CheckReport, CoreError>) -> Outcome {
    match report {
        Ok(report) => Outcome {
            attempted: report.items.len() as u64,
            failed: 0,
            mismatches: report
                .failures()
                .iter()
                .map(|item| format!("{}: {}", item.name, item.detail))
                .collect(),
            digest: fnv1a(report.render().as_bytes()),
            metrics: BTreeMap::new(),
        },
        Err(e) => Outcome {
            attempted: 1,
            failed: 1,
            mismatches: vec![format!("check runner failed: {e}")],
            ..Outcome::default()
        },
    }
}

/// `(digest, seed-independent)` of `id` in a reference file.
fn reference_entry(reference: &str, id: &str) -> Option<(u64, bool)> {
    reference
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| line.split_whitespace().collect::<Vec<_>>())
        .find(|fields| fields.first() == Some(&id))
        .and_then(|fields| {
            let digest = u64::from_str_radix(fields.get(1)?, 16).ok()?;
            Some((digest, fields.get(2) == Some(&"*")))
        })
}

/// Whether the CSV of `id` is the same at every Monte-Carlo seed.
fn seed_fixed(id: &str) -> bool {
    reference_entry(QUICK_REFERENCE, id).is_some_and(|(_, fixed)| fixed)
}

fn compare_digest(outcome: &mut Outcome, reference: &str, id: &str, digest: u64, fixed_only: bool) {
    match reference_entry(reference, id) {
        None => outcome
            .mismatches
            .push(format!("{id}: no reference digest (got {digest:016x})")),
        Some((_, false)) if fixed_only => {}
        Some((expected, _)) if expected != digest => outcome.mismatches.push(format!(
            "{id}: CSV digest {digest:016x} != reference {expected:016x}"
        )),
        Some(_) => {}
    }
}

/// Byte comparison with the committed `results/<id>.csv`.
fn compare_golden(outcome: &mut Outcome, id: &str, csv: &str) {
    match std::fs::read_to_string(format!("results/{id}.csv")) {
        Ok(golden) if golden == csv => {}
        Ok(_) => outcome
            .mismatches
            .push(format!("{id}: CSV differs from results/{id}.csv")),
        Err(e) => outcome
            .mismatches
            .push(format!("{id}: cannot read results/{id}.csv: {e}")),
    }
}

/// The paper's shape claims, as `repro check` states them, on the
/// artifacts `study` already holds.
fn shape_claims(study: &Study) -> Vec<CheckItem> {
    let sweep_len = study.context().le3_overlay_sweep_nm.len();
    let claims = || -> Result<Vec<CheckItem>, CoreError> {
        let mut items = invariants::table1_invariants(&*study.get::<Table1>()?);
        items.extend(invariants::fig4_invariants(&*study.get::<Fig4>()?));
        items.extend(invariants::table2_invariants(&*study.get::<Table2>()?));
        items.extend(invariants::table3_invariants(
            &*study.get::<Table3>()?,
            TABLE3_MAX_GAP_PP,
        ));
        items.extend(invariants::fig5_invariants(&*study.get::<Fig5>()?));
        items.extend(invariants::table4_invariants(
            &*study.get::<Table4>()?,
            sweep_len,
        ));
        items.extend(invariants::sadp_anticorrelation_invariants(
            &*study.get::<AblationSadpAnticorrelation>()?,
        ));
        items.extend(invariants::le2_invariants(&*study.get::<ExtensionLe2>()?));
        items.extend(invariants::ler_invariants(&*study.get::<ExtensionLer>()?));
        items.extend(invariants::scaling_invariants(
            &*study.get::<ExtensionScaling>()?,
        ));
        items.extend(invariants::yield_invariants(&*study.get::<YieldTable>()?));
        items.extend(invariants::write_time_invariants(
            &*study.get::<WriteTime>()?,
        ));
        items.extend(invariants::write_margin_invariants(
            &*study.get::<WriteMargin>()?,
        ));
        items.extend(invariants::sense_margin_invariants(
            &*study.get::<SenseMargin>()?,
        ));
        items.extend(invariants::wl_delay_invariants(&*study.get::<WlDelay>()?));
        items.extend(invariants::write_yield_invariants(
            &*study.get::<WriteYieldTable>()?,
        ));
        Ok(items)
    };
    claims().unwrap_or_else(|e| vec![CheckItem::fail("shape_claims", e.to_string())])
}
