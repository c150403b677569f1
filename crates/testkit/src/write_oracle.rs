//! Differential oracle over the two independent write paths.
//!
//! The workspace computes the cell-flip time two independent ways:
//!
//! 1. the write-route analytical formula
//!    ([`mpvar_sram::FormulaParams::derive_write`] driving
//!    [`mpvar_core::AnalyticalModel`] at the flip-fraction level);
//! 2. the SPICE write transient ([`mpvar_sram::simulate_write`]) and
//!    its batched SoA twin ([`mpvar_sram::simulate_write_batch_in`]).
//!
//! They share nothing below the extracted parasitics, so on randomized
//! small columns (random patterning option, random sampled draw,
//! random height) the two answers must stay inside documented mutual
//! bounds — the write-side mirror of [`crate::oracle`]. On top of the
//! cross-route bounds, the batched solver is held to its contract: its
//! per-lane flip times must be **bit-identical** to the scalar path,
//! and the whole study must be bit-identical across worker thread
//! counts.
//!
//! Documented bounds (see also `EXPERIMENTS.md`):
//!
//! * `t_spice / t_formula` stays in a configurable band (default
//!   `[0.3, 2.0]`: the lumped formula ignores the latch fight, the
//!   transient includes it);
//! * the worst-case *penalty* (`twp`) of SPICE and formula agree
//!   within a per-case bound in percentage points (default 20pp).

use std::collections::{BTreeMap, BTreeSet};

use mpvar_core::AnalyticalModel;
use mpvar_exec::ExecConfig;
use mpvar_litho::Draw;
use mpvar_sram::{
    simulate_write, simulate_write_batch_in, BitcellGeometry, FormulaParams, WriteBatchScratch,
    WriteConfig,
};
use mpvar_tech::{PatterningOption, TechDb};

use crate::oracle::{group_by_height, sample_cases, Case};
use crate::report::CheckItem;
use crate::{analysis, TestkitError};

/// Configuration of the randomized differential write study.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteOracleConfig {
    /// Randomized columns to evaluate (shorted draws are skipped and
    /// replaced, so this many cases actually run).
    pub cases: usize,
    /// RNG seed; the whole study is bit-reproducible per seed.
    pub seed: u64,
    /// Smallest column height sampled.
    pub n_min: usize,
    /// Largest column height sampled.
    pub n_max: usize,
    /// LE3 overlay budget (3σ, nm) for sampled draws.
    pub overlay_nm: f64,
    /// Allowed `t_spice / t_formula` band.
    pub spice_formula_band: (f64, f64),
    /// Max |twp_spice − twp_formula| per case, percentage points.
    pub max_twp_gap_pp: f64,
    /// The two worker thread counts the study must agree across.
    pub thread_counts: (usize, usize),
}

impl Default for WriteOracleConfig {
    /// 96 cases, heights 4–20, the documented default bands, and the
    /// 1-vs-4-thread identity check.
    fn default() -> Self {
        Self {
            cases: 96,
            seed: 0xBEEF_F11B,
            n_min: 4,
            n_max: 20,
            overlay_nm: 8.0,
            spice_formula_band: (0.3, 2.0),
            max_twp_gap_pp: 20.0,
            thread_counts: (1, 4),
        }
    }
}

/// Outcome of the differential write study.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteOracleReport {
    /// Cases actually evaluated.
    pub cases_evaluated: usize,
    /// Sampled draws skipped because the geometry shorted.
    pub shorted_skipped: usize,
    /// Observed `t_spice / t_formula` range.
    pub spice_formula_range: (f64, f64),
    /// Largest observed |twp_spice − twp_formula|, pp.
    pub max_twp_gap_pp: f64,
    /// Batched lanes whose flip time differed bit-wise from the
    /// scalar path (empty = contract holds).
    pub batch_mismatches: Vec<String>,
    /// `true` when both thread counts produced bit-identical studies.
    pub thread_invariant: bool,
    /// Per-bound violations (empty = the routes agree).
    pub violations: Vec<String>,
    /// The configuration the study ran under.
    pub config: WriteOracleConfig,
}

impl WriteOracleReport {
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
                "write_oracle.coverage",
                format!(
                    "{cases} randomized columns ({} shorted draws replaced)",
                    self.shorted_skipped
                ),
            )
        } else {
            CheckItem::fail(
                "write_oracle.coverage",
                format!(
                    "only {cases}/{} cases could be evaluated",
                    self.config.cases
                ),
            )
        });
        items.push(CheckItem::from_violations(
            "write_oracle.spice-vs-formula",
            &format!(
                "t_spice/t_formula in [{:.4}, {:.4}] over {cases} cases (bound [{}, {}])",
                self.spice_formula_range.0,
                self.spice_formula_range.1,
                self.config.spice_formula_band.0,
                self.config.spice_formula_band.1
            ),
            &by_bound("spice-formula"),
        ));
        items.push(CheckItem::from_violations(
            "write_oracle.twp-agreement",
            &format!(
                "max |twp_spice - twp_formula| = {:.2}pp over {cases} cases (bound {}pp)",
                self.max_twp_gap_pp, self.config.max_twp_gap_pp
            ),
            &by_bound("twp-gap"),
        ));
        items.push(CheckItem::from_violations(
            "write_oracle.batch-matches-scalar",
            &format!("batched flip times bit-identical to scalar over {cases} cases"),
            &self.batch_mismatches,
        ));
        items.push(if self.thread_invariant {
            CheckItem::pass(
                "write_oracle.thread-invariance",
                format!(
                    "study bit-identical at {} and {} worker threads",
                    self.config.thread_counts.0, self.config.thread_counts.1
                ),
            )
        } else {
            CheckItem::fail(
                "write_oracle.thread-invariance",
                format!(
                    "flip times diverged between {} and {} worker threads",
                    self.config.thread_counts.0, self.config.thread_counts.1
                ),
            )
        });
        items
    }
}

/// Evaluates every case's batched flip time, grouped by height so each
/// group shares one symbolic analysis, with `threads` outer workers.
fn batched_flip_times(
    tech: &TechDb,
    cell: &BitcellGeometry,
    wc: &WriteConfig,
    cases: &[Case],
    threads: usize,
) -> Result<Vec<f64>, TestkitError> {
    let groups = group_by_height(cases);
    let per_group = mpvar_exec::try_par_map_indexed(&groups, threads, |_, (n, indices)| {
        let draws: Vec<Draw> = indices.iter().map(|&i| cases[i].draw).collect();
        let mut scratch = WriteBatchScratch::new();
        let lanes =
            simulate_write_batch_in(tech, cell, wc, *n, &draws, &mut scratch).map_err(|e| {
                TestkitError::Analysis {
                    message: e.to_string(),
                }
            })?;
        lanes
            .into_iter()
            .map(|lane| {
                lane.map(|out| out.t_write_s)
                    .map_err(|e| TestkitError::Analysis {
                        message: format!("batched lane failed: {e}"),
                    })
            })
            .collect::<Result<Vec<f64>, TestkitError>>()
    })?;
    let mut out = vec![0.0; cases.len()];
    for ((_, indices), times) in groups.iter().zip(per_group) {
        for (&i, t) in indices.iter().zip(times) {
            out[i] = t;
        }
    }
    Ok(out)
}

/// Runs the randomized differential write study.
///
/// Per case: pick an option round-robin, sample a draw from its
/// budget, print the one-cell window, extract `R_var`/`C_var`, then
/// compute the flip time through the write-route formula and the SPICE
/// write transient (scalar *and* batched) on a random-height column,
/// and check every bound. Deterministic: case `k` consumes RNG
/// substream `k` of `cfg.seed`.
///
/// The scalar reference route runs on `exec`'s workers; the batched
/// route runs at both of `cfg.thread_counts`, since its thread
/// invariance is one of the contracts under test.
///
/// # Errors
///
/// Propagates hard analysis failures (model construction, extraction,
/// simulation); shorted draws are skipped and replaced, not errors.
pub fn run_write_oracles(
    tech: &TechDb,
    cell: &BitcellGeometry,
    write_config: &WriteConfig,
    cfg: &WriteOracleConfig,
    exec: ExecConfig,
) -> Result<WriteOracleReport, TestkitError> {
    if cfg.cases == 0 || cfg.n_min == 0 || cfg.n_max < cfg.n_min {
        return Err(TestkitError::Analysis {
            message: format!(
                "invalid write-oracle config: cases {}, n in [{}, {}]",
                cfg.cases, cfg.n_min, cfg.n_max
            ),
        });
    }
    let params =
        FormulaParams::derive_write(tech, cell, write_config.vdd_v, write_config.driver_strength)
            .map_err(analysis)?;
    let model = AnalyticalModel::new(params, write_config.flip_fraction)?;

    // Sample the case set first; the same set feeds every route.
    let (cases, shorted) = sample_cases(
        tech,
        cell,
        cfg.seed,
        cfg.cases,
        (cfg.n_min, cfg.n_max),
        cfg.overlay_nm,
    )?;

    // Batched route at both thread counts: bit-identity is the claim.
    let batch_a = batched_flip_times(tech, cell, write_config, &cases, cfg.thread_counts.0)?;
    let batch_b = batched_flip_times(tech, cell, write_config, &cases, cfg.thread_counts.1)?;
    let thread_invariant = batch_a
        .iter()
        .zip(&batch_b)
        .all(|(a, b)| a.to_bits() == b.to_bits());

    // Scalar reference route on `exec`'s workers: every case, then the
    // nominal flip time of each distinct height, placed by index.
    let heights: BTreeSet<usize> = cases.iter().map(|case| case.n).collect();
    let nominal = Draw::nominal(PatterningOption::Euv);
    let jobs: Vec<(usize, &Draw)> = cases
        .iter()
        .map(|case| (case.n, &case.draw))
        .chain(heights.iter().map(|&n| (n, &nominal)))
        .collect();
    let scalar = mpvar_exec::par_map_indexed(&jobs, exec.effective_threads(), |_, &(n, draw)| {
        simulate_write(tech, cell, write_config, n, draw)
            .map(|out| out.t_write_s)
            .map_err(analysis)
    });
    let (scalar_t, nominal_t) = scalar.split_at(cases.len());
    let nominal_t: BTreeMap<usize, &Result<f64, TestkitError>> =
        heights.into_iter().zip(nominal_t).collect();

    let mut violations = Vec::new();
    let mut batch_mismatches = Vec::new();
    let mut sf_range = (f64::INFINITY, f64::NEG_INFINITY);
    let mut max_gap = 0.0f64;

    for ((case, t_scalar), t_batch) in cases.iter().zip(scalar_t).zip(&batch_a) {
        let t_scalar = t_scalar.clone()?;
        let label = format!("case {} ({}, n={})", case.substream, case.option, case.n);
        if t_scalar.to_bits() != t_batch.to_bits() {
            batch_mismatches.push(format!(
                "{label}: scalar {t_scalar:.6e}s vs batched {t_batch:.6e}s"
            ));
        }
        let t_formula = model.td_s(case.n, case.var.r_var, case.var.c_var);
        let sf = t_scalar / t_formula;
        sf_range = (sf_range.0.min(sf), sf_range.1.max(sf));
        if sf < cfg.spice_formula_band.0 || sf > cfg.spice_formula_band.1 {
            violations.push(format!("spice-formula {label}: ratio {sf:.4}"));
        }
        let twp_spice_pp = (t_scalar / nominal_t[&case.n].clone()? - 1.0) * 100.0;
        let twp_formula_pp = model.tdp_percent(case.n, case.var.r_var, case.var.c_var);
        let gap = (twp_spice_pp - twp_formula_pp).abs();
        max_gap = max_gap.max(gap);
        if gap > cfg.max_twp_gap_pp {
            violations.push(format!(
                "twp-gap {label}: spice {twp_spice_pp:+.2}pp vs formula {twp_formula_pp:+.2}pp"
            ));
        }
    }

    Ok(WriteOracleReport {
        cases_evaluated: cases.len(),
        shorted_skipped: shorted,
        spice_formula_range: sf_range,
        max_twp_gap_pp: max_gap,
        batch_mismatches,
        thread_invariant,
        violations,
        config: cfg.clone(),
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
    fn write_routes_agree_on_small_study() {
        let (tech, cell) = setup();
        let cfg = WriteOracleConfig {
            cases: 18,
            n_max: 10,
            ..WriteOracleConfig::default()
        };
        let report = run_write_oracles(
            &tech,
            &cell,
            &WriteConfig::default(),
            &cfg,
            ExecConfig::SERIAL,
        )
        .unwrap();
        assert_eq!(report.cases_evaluated, 18);
        for item in report.items() {
            assert!(item.passed, "{}: {}", item.name, item.detail);
        }
        assert!(report.thread_invariant);
        assert!(report.batch_mismatches.is_empty());
    }

    #[test]
    fn study_is_deterministic() {
        let (tech, cell) = setup();
        let cfg = WriteOracleConfig {
            cases: 6,
            n_max: 8,
            ..WriteOracleConfig::default()
        };
        let a = run_write_oracles(
            &tech,
            &cell,
            &WriteConfig::default(),
            &cfg,
            ExecConfig::SERIAL,
        )
        .unwrap();
        let b = run_write_oracles(
            &tech,
            &cell,
            &WriteConfig::default(),
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
            WriteOracleConfig {
                cases: 0,
                ..WriteOracleConfig::default()
            },
            WriteOracleConfig {
                n_min: 8,
                n_max: 4,
                ..WriteOracleConfig::default()
            },
        ] {
            assert!(run_write_oracles(
                &tech,
                &cell,
                &WriteConfig::default(),
                &cfg,
                ExecConfig::SERIAL
            )
            .is_err());
        }
    }

    #[test]
    fn tight_band_trips_named_violation() {
        let (tech, cell) = setup();
        let cfg = WriteOracleConfig {
            cases: 6,
            n_max: 8,
            spice_formula_band: (0.999, 1.001),
            ..WriteOracleConfig::default()
        };
        let report = run_write_oracles(
            &tech,
            &cell,
            &WriteConfig::default(),
            &cfg,
            ExecConfig::SERIAL,
        )
        .unwrap();
        let items = report.items();
        let sf = items
            .iter()
            .find(|i| i.name == "write_oracle.spice-vs-formula")
            .unwrap();
        assert!(!sf.passed);
        assert!(sf.detail.contains("spice-formula case"));
    }
}
