//! Differential test of the parallel oracle phase: the batched,
//! multi-threaded `run_delay_oracles` / `run_write_oracles` must return
//! exactly the report of a plain sequential loop that simulates one
//! case at a time through the scalar testbenches and memoizes the
//! nominal per height — same f64 ranges and gaps, same violations in
//! the same order — at every thread count.

use std::collections::BTreeMap;

use mpvar_core::{AnalyticalModel, ElmoreModel, NominalWindow};
use mpvar_exec::ExecConfig;
use mpvar_extract::{extract_track, RelativeVariation};
use mpvar_litho::{apply_draw, sample_draw, Draw};
use mpvar_sram::{
    simulate_read, simulate_write, simulate_write_batch_in, BitcellGeometry, FormulaParams,
    ReadConfig, WriteBatchScratch, WriteConfig,
};
use mpvar_stats::RngStream;
use mpvar_tech::preset::n10;
use mpvar_tech::{PatterningOption, TechDb, VariationBudget};
use mpvar_testkit::{
    run_delay_oracles, run_write_oracles, OracleConfig, OracleReport, WriteOracleConfig,
    WriteOracleReport,
};

const EXECS: [ExecConfig; 2] = [ExecConfig::SERIAL, ExecConfig { threads: Some(4) }];

fn setup() -> (TechDb, BitcellGeometry) {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    (tech, cell)
}

/// One sampled case: `(substream, option, n, draw, variation)`.
type Case = (u64, PatterningOption, usize, Draw, RelativeVariation);

/// The sequential case sampler: substream `k`, option round-robin,
/// shorted draws skipped and replaced.
fn sample(
    tech: &TechDb,
    cell: &BitcellGeometry,
    seed: u64,
    cases: usize,
    (n_min, n_max): (usize, usize),
    overlay_nm: f64,
) -> (Vec<Case>, usize) {
    let options = PatterningOption::ALL;
    let windows: Vec<NominalWindow> = options
        .iter()
        .map(|&o| NominalWindow::build(tech, cell, o).unwrap())
        .collect();
    let base = RngStream::from_seed(seed);
    let mut out = Vec::new();
    let mut shorted = 0;
    let mut k = 0u64;
    while out.len() < cases && k < 4 * cases as u64 + 64 {
        let mut rng = base.substream(k);
        let option = options[k as usize % options.len()];
        let window = &windows[k as usize % options.len()];
        k += 1;
        let span = (n_max - n_min + 1) as f64;
        let n = n_min + ((rng.next_f64() * span) as usize).min(n_max - n_min);
        let budget = VariationBudget::paper_default(option, overlay_nm).unwrap();
        let draw = sample_draw(option, &budget, &mut rng).unwrap();
        let Ok(printed) = apply_draw(window.stack(), &draw) else {
            shorted += 1;
            continue;
        };
        let parasitics = extract_track(&printed, window.bl_index(), window.metal()).unwrap();
        let var = RelativeVariation::between(window.nominal(), &parasitics);
        out.push((k - 1, option, n, draw, var));
    }
    (out, shorted)
}

/// The sequential delay study: one scalar `simulate_read` per case.
fn reference_delay(tech: &TechDb, cell: &BitcellGeometry, cfg: &OracleConfig) -> OracleReport {
    let rc = ReadConfig::default();
    let params = FormulaParams::derive(tech, cell, rc.vdd_v).unwrap();
    let level = rc.sense_dv_v / rc.vdd_v;
    let lumped = AnalyticalModel::new(params, level).unwrap();
    let elmore = ElmoreModel::new(params, level).unwrap();
    let (cases, shorted) = sample(
        tech,
        cell,
        cfg.seed,
        cfg.cases,
        (cfg.n_min, cfg.n_max),
        cfg.overlay_nm,
    );
    let mut nominal: BTreeMap<usize, f64> = BTreeMap::new();
    let mut violations = Vec::new();
    let mut sf_range = (f64::INFINITY, f64::NEG_INFINITY);
    let mut se_range = (f64::INFINITY, f64::NEG_INFINITY);
    let mut el_range = (f64::INFINITY, f64::NEG_INFINITY);
    let mut max_gap = 0.0f64;
    for &(k, option, n, draw, var) in &cases {
        let td_formula = lumped.td_s(n, var.r_var, var.c_var);
        let td_elmore = elmore.td_s(n, var.r_var, var.c_var);
        let td_spice = simulate_read(tech, cell, &rc, n, &draw).unwrap().td_s;
        let td_nominal = *nominal.entry(n).or_insert_with(|| {
            simulate_read(tech, cell, &rc, n, &Draw::nominal(PatterningOption::Euv))
                .unwrap()
                .td_s
        });
        let case = format!("case {k} ({option}, n={n})");
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
    OracleReport {
        cases_evaluated: cases.len(),
        shorted_skipped: shorted,
        spice_formula_range: sf_range,
        spice_elmore_range: se_range,
        elmore_lumped_range: el_range,
        max_tdp_gap_pp: max_gap,
        violations,
        config: *cfg,
    }
}

/// The sequential write study: one scalar `simulate_write` per case,
/// checked against one batched run per height.
fn reference_write(
    tech: &TechDb,
    cell: &BitcellGeometry,
    cfg: &WriteOracleConfig,
) -> WriteOracleReport {
    let wc = WriteConfig::default();
    let params = FormulaParams::derive_write(tech, cell, wc.vdd_v, wc.driver_strength).unwrap();
    let model = AnalyticalModel::new(params, wc.flip_fraction).unwrap();
    let (cases, shorted) = sample(
        tech,
        cell,
        cfg.seed,
        cfg.cases,
        (cfg.n_min, cfg.n_max),
        cfg.overlay_nm,
    );
    let mut batched = vec![0.0; cases.len()];
    let mut by_n: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (i, case) in cases.iter().enumerate() {
        by_n.entry(case.2).or_default().push(i);
    }
    for (n, indices) in by_n {
        let draws: Vec<Draw> = indices.iter().map(|&i| cases[i].3).collect();
        let lanes =
            simulate_write_batch_in(tech, cell, &wc, n, &draws, &mut WriteBatchScratch::new())
                .unwrap();
        for (&i, lane) in indices.iter().zip(lanes) {
            batched[i] = lane.unwrap().t_write_s;
        }
    }
    let mut nominal: BTreeMap<usize, f64> = BTreeMap::new();
    let mut violations = Vec::new();
    let mut batch_mismatches = Vec::new();
    let mut sf_range = (f64::INFINITY, f64::NEG_INFINITY);
    let mut max_gap = 0.0f64;
    for (&(k, option, n, draw, var), t_batch) in cases.iter().zip(&batched) {
        let t_scalar = simulate_write(tech, cell, &wc, n, &draw).unwrap().t_write_s;
        let label = format!("case {k} ({option}, n={n})");
        if t_scalar.to_bits() != t_batch.to_bits() {
            batch_mismatches.push(format!(
                "{label}: scalar {t_scalar:.6e}s vs batched {t_batch:.6e}s"
            ));
        }
        let t_formula = model.td_s(n, var.r_var, var.c_var);
        let sf = t_scalar / t_formula;
        sf_range = (sf_range.0.min(sf), sf_range.1.max(sf));
        if sf < cfg.spice_formula_band.0 || sf > cfg.spice_formula_band.1 {
            violations.push(format!("spice-formula {label}: ratio {sf:.4}"));
        }
        let t_nominal = *nominal.entry(n).or_insert_with(|| {
            simulate_write(tech, cell, &wc, n, &Draw::nominal(PatterningOption::Euv))
                .unwrap()
                .t_write_s
        });
        let twp_spice_pp = (t_scalar / t_nominal - 1.0) * 100.0;
        let twp_formula_pp = model.tdp_percent(n, var.r_var, var.c_var);
        let gap = (twp_spice_pp - twp_formula_pp).abs();
        max_gap = max_gap.max(gap);
        if gap > cfg.max_twp_gap_pp {
            violations.push(format!(
                "twp-gap {label}: spice {twp_spice_pp:+.2}pp vs formula {twp_formula_pp:+.2}pp"
            ));
        }
    }
    WriteOracleReport {
        cases_evaluated: cases.len(),
        shorted_skipped: shorted,
        spice_formula_range: sf_range,
        max_twp_gap_pp: max_gap,
        batch_mismatches,
        // The sequential loop has no thread counts to disagree.
        thread_invariant: true,
        violations,
        config: cfg.clone(),
    }
}

#[test]
fn delay_oracle_matches_the_sequential_loop() {
    let (tech, cell) = setup();
    let small = OracleConfig {
        cases: 16,
        n_max: 12,
        ..OracleConfig::default()
    };
    let tight = OracleConfig {
        spice_formula_band: (0.999, 1.001),
        max_tdp_gap_pp: 0.05,
        ..small
    };
    for cfg in [small, tight] {
        let reference = reference_delay(&tech, &cell, &cfg);
        assert_eq!(reference.cases_evaluated, 16);
        if cfg.max_tdp_gap_pp < 1.0 {
            assert!(
                reference.violations.len() > 2,
                "the tight bands must trip several cases: {:?}",
                reference.violations
            );
        }
        for exec in EXECS {
            let report =
                run_delay_oracles(&tech, &cell, &ReadConfig::default(), &cfg, exec).unwrap();
            assert_eq!(report, reference, "{exec:?}");
        }
    }
}

#[test]
fn write_oracle_matches_the_sequential_loop() {
    let (tech, cell) = setup();
    let small = WriteOracleConfig {
        cases: 16,
        n_max: 12,
        ..WriteOracleConfig::default()
    };
    let tight = WriteOracleConfig {
        spice_formula_band: (0.999, 1.001),
        max_twp_gap_pp: 0.05,
        ..small.clone()
    };
    for cfg in [small, tight] {
        let reference = reference_write(&tech, &cell, &cfg);
        assert_eq!(reference.cases_evaluated, 16);
        if cfg.max_twp_gap_pp < 1.0 {
            assert!(
                reference.violations.len() > 2,
                "the tight bands must trip several cases: {:?}",
                reference.violations
            );
        }
        for exec in EXECS {
            let report =
                run_write_oracles(&tech, &cell, &WriteConfig::default(), &cfg, exec).unwrap();
            assert_eq!(report, reference, "{exec:?}");
        }
    }
}
