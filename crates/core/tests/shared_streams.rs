//! Differential tests of the shared-draw-stream yield nodes: every row
//! of `yield_6sigma` and `write_yield` must be bit-identical to a
//! reference that runs its margin and model alone through
//! `FormulaYieldProblem::new` + `run_yield`, and a multi-criterion
//! `FormulaYieldProblem` must flag exactly what its one-criterion
//! problems flag.

use mpvar_core::experiments::ExperimentContext;
use mpvar_core::nominal::NominalWindow;
use mpvar_core::rareevent::{yield_6sigma, FormulaYieldProblem, ZMap};
use mpvar_core::writeexp::write_yield;
use mpvar_core::AnalyticalModel;
use mpvar_sram::{BitcellGeometry, FormulaParams, WriteConfig};
use mpvar_stats::RngStream;
use mpvar_tech::preset::n10;
use mpvar_tech::{PatterningOption, VariationBudget};
use mpvar_yield::{run_yield, FailureEstimate, FailureProblem, Proposal, YieldConfig, YieldRun};

/// The quick context with the yield budgets shrunk, keeping several
/// margins per option so the shared streams have criteria to share.
fn shrunk_ctx() -> ExperimentContext {
    let mut ctx = ExperimentContext::builder()
        .expect("context builds")
        .quick_preset()
        .threads(2)
        .build();
    let y = &mut ctx.yield_settings;
    y.sigma_margins = vec![1.0, 2.0, 4.0];
    y.common_margins_percent = vec![6.0, 22.0];
    y.fit_trials = 2_000;
    y.base_round = 256;
    y.max_trials = 4_096;
    y.brute_max_trials = 2_048;
    let w = &mut ctx.write_settings;
    w.yield_margins_percent = vec![4.0, 8.0, 14.0];
    w.yield_base_round = 256;
    w.yield_max_trials = 4_096;
    ctx
}

fn read_model(ctx: &ExperimentContext) -> AnalyticalModel {
    let params = FormulaParams::derive(&ctx.tech, &ctx.cell, ctx.read_config.vdd_v).unwrap();
    AnalyticalModel::new(params, ctx.read_config.sense_dv_v / ctx.read_config.vdd_v).unwrap()
}

/// One margin and model, run alone.
fn run_alone(
    window: &NominalWindow<'_>,
    budget: &VariationBudget,
    model: AnalyticalModel,
    n: usize,
    margin: f64,
    cfg: impl FnOnce(&ZMap) -> YieldConfig,
) -> YieldRun {
    let problem = FormulaYieldProblem::new(window, budget, model, n, margin).unwrap();
    run_yield(&problem, &cfg(problem.map())).unwrap()
}

#[test]
fn yield_6sigma_rows_equal_runs_alone() {
    let ctx = shrunk_ctx();
    let s = &ctx.yield_settings;
    let n = ctx.pinned_height();
    let model = read_model(&ctx);
    let table = yield_6sigma(&ctx).unwrap();
    let mut shared_trials = Vec::new();
    for option in PatterningOption::ALL {
        let window = NominalWindow::build(&ctx.tech, &ctx.cell, option).unwrap();
        let budget = ctx.budget(option).unwrap();
        let rows: Vec<_> = table.rows_of(option).collect();
        let expected = s.sigma_margins.len()
            + s.common_margins_percent.len()
            + if option == s.agreement_option { 2 } else { 0 };
        assert_eq!(rows.len(), expected, "{option}");
        for row in rows {
            let (proposal, max_trials) = match row.estimator {
                "brute-force" => (Proposal::BruteForce, s.brute_max_trials),
                _ => {
                    shared_trials.push(row.trials);
                    (
                        Proposal::ScaledSigma {
                            scale: s.sigma_scale,
                        },
                        s.max_trials,
                    )
                }
            };
            let run = run_alone(&window, &budget, model, n, row.margin_percent, |map| {
                YieldConfig::new(map.domain().unwrap(), proposal)
                    .seed(s.seed)
                    .confidence(s.confidence)
                    .target_rel_half_width(s.target_rel_half_width)
                    .min_failures(s.min_failures)
                    .base_round(s.base_round)
                    .max_trials(max_trials)
                    .exec(ctx.exec)
            });
            let est = run.estimate(s.confidence).unwrap();
            let what = format!("{option} {} @ {}%", row.estimator, row.margin_percent);
            assert_eq!(row.p_fail.to_bits(), est.p_fail.to_bits(), "{what}");
            assert_eq!(row.ci_lo.to_bits(), est.ci_lo.to_bits(), "{what}");
            assert_eq!(row.ci_hi.to_bits(), est.ci_hi.to_bits(), "{what}");
            assert_eq!(
                row.rel_half_width.to_bits(),
                est.rel_half_width().to_bits(),
                "{what}"
            );
            assert_eq!(
                row.mean_weight.to_bits(),
                est.mean_weight.to_bits(),
                "{what}"
            );
            assert_eq!(row.trials, est.trials, "{what}");
            assert_eq!(row.converged, run.converged(), "{what}");
        }
    }
    // As in `write_yield_rows_equal_runs_alone`: the shared criteria
    // must stop at different points.
    shared_trials.sort_unstable();
    shared_trials.dedup();
    assert!(shared_trials.len() > 1, "{shared_trials:?}");
}

#[test]
fn write_yield_rows_equal_runs_alone() {
    let ctx = shrunk_ctx();
    let s = &ctx.write_settings;
    let wc = WriteConfig::default();
    let w_params =
        FormulaParams::derive_write(&ctx.tech, &ctx.cell, wc.vdd_v, wc.driver_strength).unwrap();
    let w_model = AnalyticalModel::new(w_params, wc.flip_fraction).unwrap();
    let r_model = read_model(&ctx);
    let table = write_yield(&ctx).unwrap();
    assert_eq!(
        table.rows.len(),
        PatterningOption::ALL.len() * s.yield_margins_percent.len()
    );
    let mut stop_points = Vec::new();
    for option in PatterningOption::ALL {
        let window = NominalWindow::build(&ctx.tech, &ctx.cell, option).unwrap();
        let budget = s.budget(option).unwrap();
        let alone = |model: AnalyticalModel, margin: f64| -> (YieldRun, FailureEstimate) {
            let run = run_alone(&window, &budget, model, s.margin_n, margin, |map| {
                YieldConfig::new(
                    map.domain().unwrap(),
                    Proposal::ScaledSigma {
                        scale: s.sigma_scale,
                    },
                )
                .seed(s.seed)
                .base_round(s.yield_base_round)
                .max_trials(s.yield_max_trials)
                .exec(ctx.exec)
            });
            let est = run.estimate(0.95).unwrap();
            (run, est)
        };
        for (row, &margin) in table.rows_of(option).zip(&s.yield_margins_percent) {
            assert_eq!(row.margin_percent.to_bits(), margin.to_bits());
            let (write_run, write) = alone(w_model, margin);
            let (read_run, read) = alone(r_model, margin);
            let what = format!("{option} @ {margin}%");
            assert_eq!(row.write_p_fail.to_bits(), write.p_fail.to_bits(), "{what}");
            assert_eq!(row.ci_lo.to_bits(), write.ci_lo.to_bits(), "{what}");
            assert_eq!(row.ci_hi.to_bits(), write.ci_hi.to_bits(), "{what}");
            assert_eq!(row.trials, write.trials, "{what}");
            assert_eq!(row.converged, write_run.converged(), "{what}");
            assert_eq!(row.read_p_fail.to_bits(), read.p_fail.to_bits(), "{what}");
            stop_points.push(write_run.consumed());
            stop_points.push(read_run.consumed());
        }
    }
    // The criteria of a stream must not all stop together, or the
    // comparison would not exercise a criterion leaving early.
    stop_points.sort_unstable();
    stop_points.dedup();
    assert!(stop_points.len() > 1, "{stop_points:?}");
}

#[test]
fn with_criteria_flags_equal_one_criterion_flags() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    let read =
        AnalyticalModel::new(FormulaParams::derive(&tech, &cell, 0.7).unwrap(), 0.1).unwrap();
    let write = AnalyticalModel::new(
        FormulaParams::derive_write(&tech, &cell, 0.7, 1.0).unwrap(),
        0.5,
    )
    .unwrap();
    let criteria = vec![(read, 2.0), (write, 2.0), (read, 6.0), (write, 14.0)];
    let n = 64;
    let mut shorted = 0;
    for option in PatterningOption::ALL {
        let window = NominalWindow::build(&tech, &cell, option).unwrap();
        let budget = VariationBudget::paper_default(option, 8.0).unwrap();
        let shared =
            FormulaYieldProblem::with_criteria(&window, &budget, n, criteria.clone()).unwrap();
        assert_eq!(shared.criteria(), criteria.len());
        let map = shared.map();
        let domain = map.domain().unwrap();
        let proposal = Proposal::ScaledSigma { scale: 3.0 };
        let mut rng = RngStream::from_seed(2015);
        let (mut zs, mut z) = (Vec::new(), Vec::new());
        for _ in 0..10_000 {
            proposal.draw(&domain, &mut rng, &mut z).unwrap();
            zs.extend_from_slice(&z);
        }
        shorted += zs
            .chunks_exact(map.dims())
            .filter(|z| window.variation(&map.draw_from_z(z)).unwrap().is_none())
            .count();
        let flags = shared.evaluate_batch(&zs).unwrap();
        assert_eq!(flags.len(), 10_000 * criteria.len(), "{option}");
        for (c, &(model, margin)) in criteria.iter().enumerate() {
            let alone = FormulaYieldProblem::new(&window, &budget, model, n, margin).unwrap();
            let want = alone.evaluate_batch(&zs).unwrap();
            let got: Vec<bool> = flags
                .iter()
                .skip(c)
                .step_by(criteria.len())
                .copied()
                .collect();
            assert_eq!(got, want, "{option} criterion {c}");
        }
    }
    assert!(shorted > 0, "the draws must include shorted prints");
}

#[test]
fn with_criteria_rejects_an_empty_list() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    let option = PatterningOption::Le3;
    let window = NominalWindow::build(&tech, &cell, option).unwrap();
    let budget = VariationBudget::paper_default(option, 8.0).unwrap();
    assert!(FormulaYieldProblem::with_criteria(&window, &budget, 64, Vec::new()).is_err());
}
