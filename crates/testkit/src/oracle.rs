//! Differential oracles over the three independent delay paths.
//!
//! The workspace computes the read delay three independent ways:
//!
//! 1. the paper's analytical lumped-RC formula (eqs. 1–5,
//!    [`mpvar_core::formula`]);
//! 2. the distributed Elmore refinement ([`mpvar_core::elmore`]);
//! 3. the SPICE transient testbench, run as one batched read per
//!    array height ([`mpvar_sram::simulate_read_batch_in`]), which is
//!    bit-identical to the scalar [`mpvar_sram::simulate_read`] by
//!    contract (`tests/batch_differential.rs`).
//!
//! None of them shares code below the extracted parasitics, so they
//! cross-validate each other: on randomized small arrays (random
//! patterning option, random sampled draw, random height) the three
//! answers must stay inside documented mutual-error bounds. A bug in
//! `litho`, `extract`, `spice`, or `core` that shifts any one path
//! breaks a bound; a bug that shifts all three identically is caught
//! by the golden comparisons instead.
//!
//! Documented bounds (see also `EXPERIMENTS.md`):
//!
//! * Elmore is a strict lower bound on the lumped formula (distributed
//!   wire halves the wire-R·wire-C product) and never below half of it;
//! * SPICE/formula stays within the paper's own Table II band —
//!   configurable, default `[0.4, 1.6]` — and likewise SPICE/Elmore;
//! * the worst-case *penalty* (`tdp`) of SPICE and formula agree
//!   within a per-case bound in percentage points (default 15pp, the
//!   paper's Table III worst observed gap plus margin).

use std::cmp::Reverse;
use std::collections::BTreeMap;

use mpvar_core::{AnalyticalModel, ElmoreModel, NominalWindow};
use mpvar_exec::ExecConfig;
use mpvar_extract::RelativeVariation;
use mpvar_litho::{sample_draw, Draw};
use mpvar_sram::{
    simulate_read_batch_in, BitcellGeometry, FormulaParams, ReadBatchScratch, ReadConfig,
};
use mpvar_stats::RngStream;
use mpvar_tech::{PatterningOption, TechDb, VariationBudget};

use crate::report::CheckItem;
use crate::{analysis, TestkitError};

/// Configuration of the randomized differential study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OracleConfig {
    /// Randomized arrays to evaluate (shorted draws are skipped and
    /// replaced, so this many cases actually run).
    pub cases: usize,
    /// RNG seed; the whole study is bit-reproducible per seed.
    pub seed: u64,
    /// Smallest array height sampled.
    pub n_min: usize,
    /// Largest array height sampled.
    pub n_max: usize,
    /// LE3 overlay budget (3σ, nm) for sampled draws.
    pub overlay_nm: f64,
    /// Allowed `td_spice / td_formula` band.
    pub spice_formula_band: (f64, f64),
    /// Allowed `td_spice / td_elmore` band.
    pub spice_elmore_band: (f64, f64),
    /// Allowed `td_elmore / td_lumped` band (upper end 1: Elmore is a
    /// lower bound).
    pub elmore_lumped_band: (f64, f64),
    /// Max |tdp_spice − tdp_formula| per case, percentage points.
    pub max_tdp_gap_pp: f64,
}

impl Default for OracleConfig {
    /// 128 cases, heights 4–24, the documented default bands.
    fn default() -> Self {
        Self {
            cases: 128,
            seed: 0xD1FF_0DA7,
            n_min: 4,
            n_max: 24,
            overlay_nm: 8.0,
            spice_formula_band: (0.4, 1.6),
            spice_elmore_band: (0.4, 1.6),
            elmore_lumped_band: (0.5, 1.0 + 1e-9),
            max_tdp_gap_pp: 15.0,
        }
    }
}

/// Outcome of the differential study.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleReport {
    /// Cases actually evaluated.
    pub cases_evaluated: usize,
    /// Sampled draws skipped because the geometry shorted.
    pub shorted_skipped: usize,
    /// Observed `td_spice / td_formula` range.
    pub spice_formula_range: (f64, f64),
    /// Observed `td_spice / td_elmore` range.
    pub spice_elmore_range: (f64, f64),
    /// Observed `td_elmore / td_lumped` range.
    pub elmore_lumped_range: (f64, f64),
    /// Largest observed |tdp_spice − tdp_formula|, pp.
    pub max_tdp_gap_pp: f64,
    /// Per-bound violations (empty = all oracles agree).
    pub violations: Vec<String>,
    /// The configuration the study ran under.
    pub config: OracleConfig,
}

impl OracleReport {
    /// Renders the report as named check items (one per bound).
    pub fn items(&self) -> Vec<CheckItem> {
        let cases = self.cases_evaluated;
        let by_bound = |prefix: &str| -> Vec<String> {
            self.violations
                .iter()
                .filter(|v| v.starts_with(prefix))
                .cloned()
                .collect()
        };
        let mut items = Vec::new();
        items.push(if cases >= self.config.cases {
            CheckItem::pass(
                "oracle.coverage",
                format!(
                    "{cases} randomized arrays ({} shorted draws replaced)",
                    self.shorted_skipped
                ),
            )
        } else {
            CheckItem::fail(
                "oracle.coverage",
                format!(
                    "only {cases}/{} cases could be evaluated",
                    self.config.cases
                ),
            )
        });
        items.push(CheckItem::from_violations(
            "oracle.elmore-below-lumped",
            &format!(
                "td_elmore/td_lumped in [{:.4}, {:.4}] over {cases} cases (bound [{}, 1])",
                self.elmore_lumped_range.0,
                self.elmore_lumped_range.1,
                self.config.elmore_lumped_band.0
            ),
            &by_bound("elmore-lumped"),
        ));
        items.push(CheckItem::from_violations(
            "oracle.spice-vs-formula",
            &format!(
                "td_spice/td_formula in [{:.4}, {:.4}] over {cases} cases (bound [{}, {}])",
                self.spice_formula_range.0,
                self.spice_formula_range.1,
                self.config.spice_formula_band.0,
                self.config.spice_formula_band.1
            ),
            &by_bound("spice-formula"),
        ));
        items.push(CheckItem::from_violations(
            "oracle.spice-vs-elmore",
            &format!(
                "td_spice/td_elmore in [{:.4}, {:.4}] over {cases} cases (bound [{}, {}])",
                self.spice_elmore_range.0,
                self.spice_elmore_range.1,
                self.config.spice_elmore_band.0,
                self.config.spice_elmore_band.1
            ),
            &by_bound("spice-elmore"),
        ));
        items.push(CheckItem::from_violations(
            "oracle.tdp-agreement",
            &format!(
                "max |tdp_spice - tdp_formula| = {:.2}pp over {cases} cases (bound {}pp)",
                self.max_tdp_gap_pp, self.config.max_tdp_gap_pp
            ),
            &by_bound("tdp-gap"),
        ));
        items
    }
}

/// One sampled case of a randomized oracle study.
pub(crate) struct Case {
    pub(crate) option: PatterningOption,
    pub(crate) n: usize,
    pub(crate) draw: Draw,
    pub(crate) var: RelativeVariation,
    /// The RNG substream the case was drawn from (its label).
    pub(crate) substream: u64,
}

/// Samples the case set of a randomized oracle study.
///
/// Case `k` consumes RNG substream `k` of `seed`: pick an option
/// round-robin, a height uniformly in `heights`, and a draw from the
/// option's budget, print the one-cell window, and extract
/// `R_var`/`C_var`. Shorted or collapsed prints are skipped and
/// replaced (up to `4 · cases + 64` attempts); every other print or
/// extraction error is returned. Returns the cases and the number of
/// shorted draws skipped.
pub(crate) fn sample_cases(
    tech: &TechDb,
    cell: &BitcellGeometry,
    seed: u64,
    cases: usize,
    heights: (usize, usize),
    overlay_nm: f64,
) -> Result<(Vec<Case>, usize), TestkitError> {
    let options = PatterningOption::ALL;
    let mut windows = Vec::with_capacity(options.len());
    for &option in &options {
        windows.push(NominalWindow::build(tech, cell, option)?);
    }
    let (n_min, n_max) = heights;
    let base = RngStream::from_seed(seed);
    let mut out = Vec::with_capacity(cases);
    let mut shorted = 0usize;
    let attempt_limit = 4 * cases as u64 + 64;
    let mut k = 0u64;
    while out.len() < cases && k < attempt_limit {
        let mut rng = base.substream(k);
        let slot = k as usize % options.len();
        k += 1;
        let option = options[slot];
        let span = (n_max - n_min + 1) as f64;
        let n = n_min + ((rng.next_f64() * span) as usize).min(n_max - n_min);
        let budget = VariationBudget::paper_default(option, overlay_nm).map_err(analysis)?;
        let draw = sample_draw(option, &budget, &mut rng)?;
        let Some(var) = windows[slot].variation(&draw)? else {
            shorted += 1;
            continue;
        };
        out.push(Case {
            option,
            n,
            draw,
            var,
            substream: k - 1,
        });
    }
    Ok((out, shorted))
}

/// The indices of `cases` grouped by height, heights ascending.
pub(crate) fn group_by_height(cases: &[Case]) -> Vec<(usize, Vec<usize>)> {
    let mut by_n: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, case) in cases.iter().enumerate() {
        by_n.entry(case.n).or_default().push(i);
    }
    by_n.into_iter().collect()
}

/// A per-case or per-height simulation result.
type Td = Result<f64, TestkitError>;

/// SPICE `td` of every case, and the nominal `td` of every height the
/// cases use: one batched read per distinct height (lane 0 the nominal
/// EUV draw, then the height's cases), the heights spread over
/// `threads` workers. The workers claim the groups costliest
/// (`n × lanes`) first, so the tallest are not left for last.
fn spice_tds(
    tech: &TechDb,
    cell: &BitcellGeometry,
    read_config: &ReadConfig,
    cases: &[Case],
    threads: usize,
) -> (Vec<Td>, BTreeMap<usize, Td>) {
    let mut groups = group_by_height(cases);
    groups.sort_by_key(|(n, lanes)| Reverse(n * (lanes.len() + 1)));
    let per_group = mpvar_exec::par_map_indexed(&groups, threads, |_, (n, indices)| {
        let draws: Vec<Draw> = std::iter::once(Draw::nominal(PatterningOption::Euv))
            .chain(indices.iter().map(|&i| cases[i].draw))
            .collect();
        match simulate_read_batch_in(
            tech,
            cell,
            read_config,
            *n,
            &draws,
            &mut ReadBatchScratch::new(),
        ) {
            Ok(lanes) => lanes
                .into_iter()
                .map(|lane| lane.map(|out| out.td_s).map_err(analysis))
                .collect(),
            Err(e) => vec![Err(analysis(e)); draws.len()],
        }
    });
    let mut case_td: Vec<Option<Td>> = vec![None; cases.len()];
    let mut nominal_td = BTreeMap::new();
    for ((n, indices), tds) in groups.iter().zip(per_group) {
        let mut tds = tds.into_iter();
        nominal_td.insert(*n, tds.next().expect("lane 0 is the nominal"));
        for (&i, td) in indices.iter().zip(tds) {
            case_td[i] = Some(td);
        }
    }
    let case_td = case_td
        .into_iter()
        .map(|td| td.expect("every case has a lane"))
        .collect();
    (case_td, nominal_td)
}

/// Runs the randomized differential study.
///
/// Per case: pick an option round-robin, sample a draw from its
/// budget, print the one-cell window, extract `R_var`/`C_var`, then
/// compute `td` through the formula, the Elmore model, and the SPICE
/// transient on a random-height column, and check every mutual bound.
///
/// The cases are sampled first, in one sequential loop; the SPICE
/// reads then run as one batch per distinct height on `exec`'s
/// workers, and the verdicts fold in case order.
///
/// Deterministic: case `k` consumes RNG substream `k` of `cfg.seed`,
/// no state leaks between cases, and the report is bit-identical at
/// every thread count.
///
/// # Errors
///
/// Propagates hard analysis failures (model construction, extraction,
/// simulation); shorted draws are skipped and replaced, not errors.
pub fn run_delay_oracles(
    tech: &TechDb,
    cell: &BitcellGeometry,
    read_config: &ReadConfig,
    cfg: &OracleConfig,
    exec: ExecConfig,
) -> Result<OracleReport, TestkitError> {
    if cfg.cases == 0 || cfg.n_min == 0 || cfg.n_max < cfg.n_min {
        return Err(TestkitError::Analysis {
            message: format!(
                "invalid oracle config: cases {}, n in [{}, {}]",
                cfg.cases, cfg.n_min, cfg.n_max
            ),
        });
    }
    let params = FormulaParams::derive(tech, cell, read_config.vdd_v).map_err(analysis)?;
    let level = read_config.sense_dv_v / read_config.vdd_v;
    let lumped = AnalyticalModel::new(params, level)?;
    let elmore = ElmoreModel::new(params, level)?;

    let (cases, shorted) = sample_cases(
        tech,
        cell,
        cfg.seed,
        cfg.cases,
        (cfg.n_min, cfg.n_max),
        cfg.overlay_nm,
    )?;
    let (spice_td, nominal_td) =
        spice_tds(tech, cell, read_config, &cases, exec.effective_threads());

    let mut violations = Vec::new();
    let mut sf_range = (f64::INFINITY, f64::NEG_INFINITY);
    let mut se_range = (f64::INFINITY, f64::NEG_INFINITY);
    let mut el_range = (f64::INFINITY, f64::NEG_INFINITY);
    let mut max_gap = 0.0f64;

    for (case, td_spice) in cases.iter().zip(spice_td) {
        let (n, var) = (case.n, case.var);
        let td_formula = lumped.td_s(n, var.r_var, var.c_var);
        let td_elmore = elmore.td_s(n, var.r_var, var.c_var);
        let td_spice = td_spice?;
        let td_nominal = nominal_td[&n].clone()?;

        let case = format!("case {} ({}, n={n})", case.substream, case.option);
        let el = td_elmore / td_formula;
        el_range = (el_range.0.min(el), el_range.1.max(el));
        if el < cfg.elmore_lumped_band.0 || el > cfg.elmore_lumped_band.1 {
            violations.push(format!("elmore-lumped {case}: ratio {el:.4}"));
        }
        let sf = td_spice / td_formula;
        sf_range = (sf_range.0.min(sf), sf_range.1.max(sf));
        if sf < cfg.spice_formula_band.0 || sf > cfg.spice_formula_band.1 {
            violations.push(format!("spice-formula {case}: ratio {sf:.4}"));
        }
        let se = td_spice / td_elmore;
        se_range = (se_range.0.min(se), se_range.1.max(se));
        if se < cfg.spice_elmore_band.0 || se > cfg.spice_elmore_band.1 {
            violations.push(format!("spice-elmore {case}: ratio {se:.4}"));
        }
        let tdp_spice_pp = (td_spice / td_nominal - 1.0) * 100.0;
        let tdp_formula_pp = lumped.tdp_percent(n, var.r_var, var.c_var);
        let gap = (tdp_spice_pp - tdp_formula_pp).abs();
        max_gap = max_gap.max(gap);
        if gap > cfg.max_tdp_gap_pp {
            violations.push(format!(
                "tdp-gap {case}: spice {tdp_spice_pp:+.2}pp vs formula {tdp_formula_pp:+.2}pp"
            ));
        }
    }

    Ok(OracleReport {
        cases_evaluated: cases.len(),
        shorted_skipped: shorted,
        spice_formula_range: sf_range,
        spice_elmore_range: se_range,
        elmore_lumped_range: el_range,
        max_tdp_gap_pp: max_gap,
        violations,
        config: *cfg,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_tech::preset::n10;

    fn setup() -> (TechDb, BitcellGeometry) {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech).unwrap();
        (tech, cell)
    }

    #[test]
    fn oracles_agree_on_small_study() {
        let (tech, cell) = setup();
        let cfg = OracleConfig {
            cases: 24,
            n_max: 12,
            ..OracleConfig::default()
        };
        let report = run_delay_oracles(
            &tech,
            &cell,
            &ReadConfig::default(),
            &cfg,
            ExecConfig::SERIAL,
        )
        .unwrap();
        assert_eq!(report.cases_evaluated, 24);
        for item in report.items() {
            assert!(item.passed, "{}: {}", item.name, item.detail);
        }
        // Elmore really is a lower bound, not an alias.
        assert!(report.elmore_lumped_range.1 <= 1.0 + 1e-9);
        assert!(report.elmore_lumped_range.0 < 1.0);
    }

    #[test]
    fn study_is_deterministic() {
        let (tech, cell) = setup();
        let cfg = OracleConfig {
            cases: 8,
            n_max: 8,
            ..OracleConfig::default()
        };
        let a = run_delay_oracles(
            &tech,
            &cell,
            &ReadConfig::default(),
            &cfg,
            ExecConfig::SERIAL,
        )
        .unwrap();
        let b = run_delay_oracles(
            &tech,
            &cell,
            &ReadConfig::default(),
            &cfg,
            ExecConfig::SERIAL,
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_config_rejected() {
        let (tech, cell) = setup();
        for cfg in [
            OracleConfig {
                cases: 0,
                ..OracleConfig::default()
            },
            OracleConfig {
                n_min: 8,
                n_max: 4,
                ..OracleConfig::default()
            },
        ] {
            assert!(run_delay_oracles(
                &tech,
                &cell,
                &ReadConfig::default(),
                &cfg,
                ExecConfig::SERIAL
            )
            .is_err());
        }
    }

    #[test]
    fn tight_band_trips_named_violation() {
        let (tech, cell) = setup();
        let cfg = OracleConfig {
            cases: 6,
            n_max: 8,
            spice_formula_band: (0.999, 1.001),
            ..OracleConfig::default()
        };
        let report = run_delay_oracles(
            &tech,
            &cell,
            &ReadConfig::default(),
            &cfg,
            ExecConfig::SERIAL,
        )
        .unwrap();
        let items = report.items();
        let sf = items
            .iter()
            .find(|i| i.name == "oracle.spice-vs-formula")
            .unwrap();
        assert!(!sf.passed);
        assert!(sf.detail.contains("spice-formula case"));
    }
}
