//! Rare-event read-failure yield per patterning option (6σ extension).
//!
//! The paper's Monte-Carlo (Fig. 5) resolves `tdp` distributions to
//! ~1e-4 failure probability; array sign-off needs the deep tail. This
//! module maps the MP-variability parameter space onto the
//! `mpvar-yield` engine's standardized `z`-domain and runs its adaptive
//! importance-sampling controller against the analytical-formula read
//! model:
//!
//! * [`ZMap`] — the fixed ordering of an option's *active* variation
//!   parameters (budget 3σ > 0) onto i.i.d. standard-normal
//!   coordinates, truncated at ±3.5σ exactly like the litho sampler;
//! * [`FormulaYieldProblem`] — the batch failure predicate
//!   (`shorted print` OR `tdp > margin`) over that domain;
//! * [`yield_6sigma`] — the experiment: per option and timing margin,
//!   a scaled-sigma importance-sampled failure probability with CI,
//!   cross-checked against a Gaussian-fit extrapolation and (at a
//!   shallow margin) against a brute-force agreement run.
//!
//! Failure here means a *read* failure at a timing margin: the sampled
//! draw either prints shorted geometry (a hard yield loss, exactly the
//! event the MC path screens out) or its read-time penalty exceeds the
//! margin.

use mpvar_litho::{Draw, EuvDraw, Le2Draw, Le3Draw, SadpDraw, TRUNCATION_SIGMAS};
use mpvar_stats::normal_tail;
use mpvar_tech::{PatterningOption, VariationBudget};
use mpvar_yield::{
    resume_yield, run_yield, run_yields, FailureProblem, Proposal, YieldConfig, YieldError,
    YieldRun, ZDomain,
};

use crate::error::CoreError;
use crate::experiments::ExperimentContext;
use crate::formula::AnalyticalModel;
use crate::montecarlo::McConfig;
use crate::nominal::{NominalCache, NominalWindow};
use crate::report::TextTable;

pub use mpvar_yield::FailureEstimate;

/// The ordered mapping of an option's active variation parameters onto
/// standardized `z` coordinates.
///
/// Dimension order matches [`mpvar_litho::sample_draw`]'s parameter
/// order with zero-budget parameters removed, so the same physical
/// corner always has the same `z` signature; `z_i` maps to parameter
/// value `z_i · σ_i` with `σ_i` the budget's 3σ over 3.
#[derive(Debug, Clone, PartialEq)]
pub struct ZMap {
    option: PatterningOption,
    /// `(parameter name, sigma_nm)` per active dimension.
    entries: Vec<(&'static str, f64)>,
    /// Per active dimension, the parameter's position in
    /// [`Draw::parameters`] order.
    slots: Vec<usize>,
}

impl ZMap {
    /// Builds the map for `option` under `budget`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] when the budget has no active
    /// parameter for the option (nothing to sample).
    pub fn build(option: PatterningOption, budget: &VariationBudget) -> Result<Self, CoreError> {
        let cd = budget.cd_three_sigma_nm() / 3.0;
        let ol = budget.overlay_three_sigma_nm() / 3.0;
        let sp = budget.spacer_three_sigma_nm() / 3.0;
        let mut entries: Vec<(&'static str, f64)> = Vec::new();
        let mut push = |name: &'static str, sigma: f64| {
            if sigma > 0.0 {
                entries.push((name, sigma));
            }
        };
        match option {
            PatterningOption::Le3 => {
                push("cd_a", cd);
                push("cd_b", cd);
                push("cd_c", cd);
                // Mask A is the overlay reference and stays pinned.
                push("ol_b", ol);
                push("ol_c", ol);
            }
            PatterningOption::Sadp => {
                push("cd_core", cd);
                push("spacer", sp);
            }
            PatterningOption::Euv => push("cd", cd),
            PatterningOption::Le2 => {
                push("cd_a", cd);
                push("cd_b", cd);
                push("ol_b", ol);
            }
        }
        if entries.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "budget",
                value: 0.0,
                constraint: "option has no active variation parameter",
            });
        }
        let names = Draw::nominal(option).parameters();
        let slots = entries
            .iter()
            .map(|(name, _)| {
                names
                    .iter()
                    .position(|(n, _)| n == name)
                    .expect("every z-map name is a parameter of its option's draw")
            })
            .collect();
        Ok(Self {
            option,
            entries,
            slots,
        })
    }

    /// The option this map belongs to.
    pub fn option(&self) -> PatterningOption {
        self.option
    }

    /// Number of active (sampled) dimensions.
    pub fn dims(&self) -> usize {
        self.entries.len()
    }

    /// Active parameter names, in `z` order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|(n, _)| *n)
    }

    /// The standardized domain of this map: `dims` coordinates
    /// truncated at the litho sampler's ±3.5σ inspection screen.
    ///
    /// # Errors
    ///
    /// Propagates domain validation (impossible for a built map).
    pub fn domain(&self) -> Result<ZDomain, CoreError> {
        Ok(ZDomain::truncated(self.dims(), TRUNCATION_SIGMAS)?)
    }

    /// Materializes one `z` vector (length [`ZMap::dims`]) as a draw.
    pub fn draw_from_z(&self, z: &[f64]) -> Draw {
        debug_assert_eq!(z.len(), self.dims());
        // Parameters in `Draw::parameters` order; inactive ones stay 0.
        let mut p = [0.0; 6];
        for ((&slot, (_, sigma)), zi) in self.slots.iter().zip(&self.entries).zip(z) {
            p[slot] = zi * sigma;
        }
        match self.option {
            PatterningOption::Le3 => Draw::Le3(Le3Draw {
                cd_nm: [p[0], p[1], p[2]],
                overlay_nm: [p[3], p[4], p[5]],
            }),
            PatterningOption::Sadp => Draw::Sadp(SadpDraw {
                core_cd_nm: p[0],
                spacer_nm: p[1],
            }),
            PatterningOption::Euv => Draw::Euv(EuvDraw { cd_nm: p[0] }),
            PatterningOption::Le2 => Draw::Le2(Le2Draw {
                cd_nm: [p[0], p[1]],
                overlay_nm: p[2],
            }),
        }
    }
}

/// Formula-route failure predicate: a trial fails when its draw prints
/// shorted geometry or its analytical `tdp` exceeds the margin.
///
/// One problem may hold several criteria — `(model, margin)` pairs
/// judged on the same printed bit line — so that
/// [`mpvar_yield::run_yields`] evaluates each trial once for all of
/// them.
#[derive(Debug)]
pub struct FormulaYieldProblem<'a> {
    window: &'a NominalWindow<'a>,
    map: ZMap,
    n: usize,
    criteria: Vec<(AnalyticalModel, f64)>,
}

impl<'a> FormulaYieldProblem<'a> {
    /// Builds the one-criterion predicate for `window`'s option at
    /// array height `n` and the given timing margin.
    ///
    /// # Errors
    ///
    /// Propagates formula-parameter derivation and map construction.
    pub fn new(
        window: &'a NominalWindow<'a>,
        budget: &VariationBudget,
        model: AnalyticalModel,
        n: usize,
        margin_percent: f64,
    ) -> Result<Self, CoreError> {
        Self::with_criteria(window, budget, n, vec![(model, margin_percent)])
    }

    /// Builds a predicate judging every `(model, margin_percent)`
    /// criterion on each trial, in the given order.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an empty criteria list;
    /// propagates map construction.
    pub fn with_criteria(
        window: &'a NominalWindow<'a>,
        budget: &VariationBudget,
        n: usize,
        criteria: Vec<(AnalyticalModel, f64)>,
    ) -> Result<Self, CoreError> {
        if criteria.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "criteria",
                value: 0.0,
                constraint: "at least one (model, margin) criterion",
            });
        }
        Ok(Self {
            map: ZMap::build(window.option(), budget)?,
            window,
            n,
            criteria,
        })
    }

    /// The parameter map in use.
    pub fn map(&self) -> &ZMap {
        &self.map
    }
}

impl FailureProblem for FormulaYieldProblem<'_> {
    fn dims(&self) -> usize {
        self.map.dims()
    }

    fn criteria(&self) -> usize {
        self.criteria.len()
    }

    fn evaluate_batch(&self, zs: &[f64]) -> Result<Vec<bool>, YieldError> {
        let dims = self.map.dims();
        if !zs.len().is_multiple_of(dims) {
            return Err(YieldError::InvalidConfig {
                reason: format!("batch length {} not a multiple of dims {dims}", zs.len()),
            });
        }
        let draws: Vec<Draw> = zs
            .chunks_exact(dims)
            .map(|z| self.map.draw_from_z(z))
            .collect();
        let mut vars = Vec::with_capacity(draws.len());
        self.window.variation_batch(&draws, &mut vars);
        let mut out = Vec::with_capacity(draws.len() * self.criteria.len());
        for var in vars {
            match var.map_err(|e| YieldError::Problem(Box::new(e)))? {
                Some(var) => out.extend(self.criteria.iter().map(|(model, margin)| {
                    model.tdp_percent(self.n, var.r_var, var.c_var) > *margin
                })),
                // Shorted print: a hard read failure under every
                // criterion, not an error.
                None => out.extend(self.criteria.iter().map(|_| true)),
            }
        }
        Ok(out)
    }
}

/// Settings of the [`yield_6sigma`] experiment.
///
/// Deliberately *independent* of the context's Monte-Carlo settings
/// (own seed, own trial budgets): the experiment's output is a pure
/// function of these settings and the technology, so its golden CSV is
/// compared strictly in both `repro check` profiles.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct YieldSettings {
    /// Per-option margins expressed as Gaussian-fit sigma multiples:
    /// margin = fit mean + k·σ_fit. Each option's tail is probed where
    /// it actually lives (LE3's σ is several times SADP's/EUV's).
    pub sigma_margins: Vec<f64>,
    /// Absolute margins (percent `tdp`) evaluated for **every** option
    /// — the cross-option ordering rows. Deep values land ~1e-9 for
    /// LE3 while the bounded-support options (SADP's ±3.5σ screen
    /// caps its reachable `tdp`) are exactly zero there.
    pub common_margins_percent: Vec<f64>,
    /// Margin of the brute-force/IS agreement pair (shallow enough
    /// for brute force to resolve within its budget).
    pub agreement_margin_percent: f64,
    /// The option the agreement pair runs on (the heavy-tailed one).
    pub agreement_option: PatterningOption,
    /// Scaled-sigma proposal's sigma multiplier.
    pub sigma_scale: f64,
    /// RNG seed of every yield run (independent of the MC seed).
    pub seed: u64,
    /// CI confidence level.
    pub confidence: f64,
    /// Convergence target: relative CI half-width.
    pub target_rel_half_width: f64,
    /// Minimum raw failures before the CI is trusted for stopping.
    pub min_failures: u64,
    /// First-round trial count.
    pub base_round: usize,
    /// Soft trial budget per importance-sampled run.
    pub max_trials: usize,
    /// Soft trial budget of the brute-force agreement run.
    pub brute_max_trials: usize,
    /// Trials of the plain MC used for the Gaussian-fit cross-check
    /// column (fixed, so the artifact is profile-independent).
    pub fit_trials: usize,
}

impl Default for YieldSettings {
    /// 2σ/4σ/6σ per-option margins, a 22% common deep margin (~1e-8
    /// for LE3, exactly zero for the bounded options), a 12% LE3
    /// agreement pair, scale-3 proposal, seed 65, and budgets sized so
    /// the full experiment stays in CI-smoke territory.
    fn default() -> Self {
        Self {
            sigma_margins: vec![2.0, 4.0, 6.0],
            common_margins_percent: vec![22.0],
            agreement_margin_percent: 12.0,
            agreement_option: PatterningOption::Le3,
            sigma_scale: 3.0,
            seed: 65,
            confidence: 0.95,
            target_rel_half_width: 0.3,
            min_failures: 8,
            base_round: 2048,
            max_trials: 65_536,
            brute_max_trials: 262_144,
            fit_trials: 20_000,
        }
    }
}

/// One row of the [`YieldTable`]: a failure-probability estimate for
/// one option, margin, and estimator.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldRow {
    /// Patterning option.
    pub option: PatterningOption,
    /// Estimator label (`scaled-sigma` or `brute-force`).
    pub estimator: &'static str,
    /// Timing margin (percent `tdp`) defining failure.
    pub margin_percent: f64,
    /// Estimated failure probability.
    pub p_fail: f64,
    /// CI lower bound.
    pub ci_lo: f64,
    /// CI upper bound.
    pub ci_hi: f64,
    /// Relative CI half-width (`inf` when `p_fail` is 0).
    pub rel_half_width: f64,
    /// Trials consumed by the adaptive run.
    pub trials: u64,
    /// Whether the stopping rule (not the budget) ended the run.
    pub converged: bool,
    /// Weight-normalization oracle `Σw/N` (≈ 1 for a healthy run).
    pub mean_weight: f64,
    /// Gaussian-fit extrapolation `Q((margin − mean)/σ)` from the
    /// fixed plain-MC fit.
    pub gaussian_fit_p: f64,
}

/// The rare-event yield experiment's result: failure probabilities per
/// option and margin, estimator-labelled, with a brute-force agreement
/// pair at the shallow margin.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldTable {
    /// Array height (word lines) of every run.
    pub n: usize,
    /// Settings the experiment ran with.
    pub settings: YieldSettings,
    /// All rows: per option, the importance-sampled σ-multiple margins
    /// (shallow to deep), the common absolute margins, then — on the
    /// agreement option only — the brute-force + scaled-sigma pair at
    /// [`YieldSettings::agreement_margin_percent`].
    pub rows: Vec<YieldRow>,
}

impl YieldTable {
    /// Rows of one option, in emission order.
    pub fn rows_of(&self, option: PatterningOption) -> impl Iterator<Item = &YieldRow> + '_ {
        self.rows.iter().filter(move |r| r.option == option)
    }

    /// The agreement pair (brute-force, scaled-sigma) of one option.
    pub fn agreement_pair(&self, option: PatterningOption) -> Option<(&YieldRow, &YieldRow)> {
        let brute = self
            .rows_of(option)
            .find(|r| r.estimator == "brute-force")?;
        let is = self
            .rows_of(option)
            .find(|r| r.estimator == "scaled-sigma" && r.margin_percent == brute.margin_percent)?;
        Some((brute, is))
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Rare-event yield: importance-sampled P_fail per option (n = {})",
                self.n
            ),
            &[
                "option",
                "estimator",
                "margin",
                "p_fail",
                "ci_lo",
                "ci_hi",
                "rel_hw",
                "trials",
                "converged",
                "mean_w",
                "gauss_fit",
            ],
        );
        for r in &self.rows {
            t.row(&[
                r.option.paper_label(),
                r.estimator,
                &format!("{:.1}%", r.margin_percent),
                &format!("{:.6e}", r.p_fail),
                &format!("{:.6e}", r.ci_lo),
                &format!("{:.6e}", r.ci_hi),
                &if r.rel_half_width.is_finite() {
                    format!("{:.4}", r.rel_half_width)
                } else {
                    "inf".to_string()
                },
                &r.trials.to_string(),
                if r.converged { "yes" } else { "no" },
                &format!("{:.4}", r.mean_weight),
                &format!("{:.6e}", r.gaussian_fit_p),
            ]);
        }
        t
    }
}

fn row_from_run(
    option: PatterningOption,
    estimator: &'static str,
    margin_percent: f64,
    run: &YieldRun,
    confidence: f64,
    gaussian_fit_p: f64,
) -> Result<YieldRow, CoreError> {
    let est = run.estimate(confidence)?;
    Ok(YieldRow {
        option,
        estimator,
        margin_percent,
        p_fail: est.p_fail,
        ci_lo: est.ci_lo,
        ci_hi: est.ci_hi,
        rel_half_width: est.rel_half_width(),
        trials: est.trials,
        converged: run.converged(),
        mean_weight: est.mean_weight,
        gaussian_fit_p,
    })
}

/// Runs the rare-event yield experiment: per patterning option, an
/// adaptive scaled-sigma importance-sampling run at each σ-multiple
/// margin of [`YieldSettings::sigma_margins`] (anchored to that
/// option's own Gaussian fit, so every option is probed where its tail
/// lives) and each absolute [`YieldSettings::common_margins_percent`]
/// (the cross-option ordering rows), plus — on the heavy-tailed
/// [`YieldSettings::agreement_option`] — a brute-force/IS agreement
/// pair at the shallow [`YieldSettings::agreement_margin_percent`].
///
/// An option's scaled-sigma runs share one draw stream through
/// [`mpvar_yield::run_yields`] (each bit-identical to its run alone);
/// the brute-force run draws its own.
///
/// Runs are deterministic and bit-identical at any thread count; the
/// settings (not the context's MC knobs) fix every budget and seed, so
/// the result is profile-independent and its golden CSV can be
/// compared strictly.
///
/// # Errors
///
/// Propagated tech/extraction/yield-engine failures.
pub fn yield_6sigma(ctx: &ExperimentContext) -> Result<YieldTable, CoreError> {
    let s = &ctx.yield_settings;
    let n = ctx.pinned_height();
    let options = PatterningOption::ALL;
    let cache = NominalCache::build(&ctx.tech, &ctx.cell, &options)?;
    let params = mpvar_sram::FormulaParams::derive(&ctx.tech, &ctx.cell, ctx.read_config.vdd_v)?;
    let model = AnalyticalModel::new(params, ctx.read_config.sense_dv_v / ctx.read_config.vdd_v)?;

    // Options are independent cells; each cell's yield runs share the
    // same thread budget, and results are bit-identical for any thread
    // count.
    let threads = ctx.exec.effective_threads();
    let per_option = mpvar_exec::try_par_map_indexed(&options, threads, |_, &option| {
        let window = cache.window(option)?;
        let budget = ctx.budget(option)?;

        // Fixed-budget plain MC for the Gaussian-fit cross-check.
        let fit = crate::montecarlo::tdp_distribution_with(
            window,
            &budget,
            n,
            &McConfig {
                trials: s.fit_trials,
                seed: s.seed,
                exec: ctx.exec,
            },
        )?;
        let (mean, sigma) = (fit.summary().mean(), fit.summary().std_dev());
        let fit_tail = |margin: f64| {
            if sigma > 0.0 {
                normal_tail((margin - mean) / sigma)
            } else if margin >= mean {
                0.0
            } else {
                1.0
            }
        };

        let domain = ZMap::build(option, &budget)?.domain()?;
        let cfg = |proposal: Proposal, max_trials: usize| {
            YieldConfig::new(domain, proposal)
                .seed(s.seed)
                .confidence(s.confidence)
                .target_rel_half_width(s.target_rel_half_width)
                .min_failures(s.min_failures)
                .base_round(s.base_round)
                .max_trials(max_trials)
                .exec(ctx.exec)
        };
        let row = |estimator: &'static str, margin: f64, run: &YieldRun| {
            row_from_run(
                option,
                estimator,
                margin,
                run,
                s.confidence,
                fit_tail(margin),
            )
        };

        // Every scaled-sigma margin shares one draw stream: the
        // per-option tail probe at fit mean + k·σ, the cross-option
        // ordering rows at fixed absolute margins and, on the agreement
        // option, the importance-sampled half of the agreement pair.
        let agreement = option == s.agreement_option;
        let mut margins: Vec<f64> = s.sigma_margins.iter().map(|k| mean + k * sigma).collect();
        margins.extend_from_slice(&s.common_margins_percent);
        if agreement {
            margins.push(s.agreement_margin_percent);
        }
        let mut rows = Vec::with_capacity(margins.len() + 1);
        if !margins.is_empty() {
            let problem = FormulaYieldProblem::with_criteria(
                window,
                &budget,
                n,
                margins.iter().map(|&m| (model, m)).collect(),
            )?;
            let scaled = Proposal::ScaledSigma {
                scale: s.sigma_scale,
            };
            let runs = run_yields(&problem, &cfg(scaled, s.max_trials))?;
            for (&margin, run) in margins.iter().zip(&runs) {
                rows.push(row("scaled-sigma", margin, run)?);
            }
        }

        // Agreement pair at the shallow margin: brute force samples the
        // target itself (weights exactly 1), so overlapping CIs here
        // certify the IS weighting end-to-end on the real circuit. Its
        // proposal differs, so it draws its own stream; its row goes
        // just before the scaled-sigma half of the pair.
        if agreement {
            let margin = s.agreement_margin_percent;
            let problem = FormulaYieldProblem::new(window, &budget, model, n, margin)?;
            let run = run_yield(&problem, &cfg(Proposal::BruteForce, s.brute_max_trials))?;
            rows.insert(rows.len() - 1, row("brute-force", margin, &run)?);
        }
        Ok::<Vec<YieldRow>, CoreError>(rows)
    })?;

    Ok(YieldTable {
        n,
        settings: s.clone(),
        rows: per_option.into_iter().flatten().collect(),
    })
}

/// Resumes one formula-route yield run from a prior partial run — the
/// circuit-level face of [`mpvar_yield::resume_yield`], used by the
/// determinism suite to prove merge bit-identity on the real model.
///
/// # Errors
///
/// As [`yield_6sigma`].
pub fn resume_option_yield(
    ctx: &ExperimentContext,
    option: PatterningOption,
    margin_percent: f64,
    max_trials: usize,
    prior: &YieldRun,
) -> Result<YieldRun, CoreError> {
    let s = &ctx.yield_settings;
    let n = ctx.pinned_height();
    let window = NominalWindow::build(&ctx.tech, &ctx.cell, option)?;
    let budget = ctx.budget(option)?;
    let params = mpvar_sram::FormulaParams::derive(&ctx.tech, &ctx.cell, ctx.read_config.vdd_v)?;
    let model = AnalyticalModel::new(params, ctx.read_config.sense_dv_v / ctx.read_config.vdd_v)?;
    let problem = FormulaYieldProblem::new(&window, &budget, model, n, margin_percent)?;
    let cfg = YieldConfig::new(
        problem.map().domain()?,
        Proposal::ScaledSigma {
            scale: s.sigma_scale,
        },
    )
    .seed(s.seed)
    .confidence(s.confidence)
    .target_rel_half_width(s.target_rel_half_width)
    .min_failures(s.min_failures)
    .base_round(s.base_round)
    .max_trials(max_trials)
    .exec(ctx.exec);
    Ok(resume_yield(&problem, &cfg, prior)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ExperimentContext;

    fn quick_ctx(threads: usize) -> ExperimentContext {
        ExperimentContext::builder()
            .unwrap()
            .quick_preset()
            .threads(threads)
            .build()
    }

    #[test]
    fn zmap_matches_sampler_dimensionality() {
        for (option, dims) in [
            (PatterningOption::Le3, 5),
            (PatterningOption::Sadp, 2),
            (PatterningOption::Euv, 1),
            (PatterningOption::Le2, 3),
        ] {
            let budget = VariationBudget::paper_default(option, 8.0).unwrap();
            let map = ZMap::build(option, &budget).unwrap();
            assert_eq!(map.dims(), dims, "{option}");
            let domain = map.domain().unwrap();
            assert_eq!(domain.truncation(), Some(TRUNCATION_SIGMAS));
        }
    }

    #[test]
    fn zmap_drops_zero_budget_dims() {
        // EUV has no overlay/spacer; a zero-CD budget leaves nothing.
        let budget = VariationBudget::new(0.0, 0.0, 0.0).unwrap();
        assert!(ZMap::build(PatterningOption::Euv, &budget).is_err());
    }

    #[test]
    fn draw_from_z_scales_by_sigma() {
        let budget = VariationBudget::paper_default(PatterningOption::Le3, 8.0).unwrap();
        let map = ZMap::build(PatterningOption::Le3, &budget).unwrap();
        let draw = map.draw_from_z(&[3.0, 0.0, 0.0, -3.0, 0.0]);
        match draw {
            Draw::Le3(d) => {
                // z = 3 is the full 3σ budget.
                assert!((d.cd_nm[0] - budget.cd_three_sigma_nm()).abs() < 1e-12);
                assert_eq!(d.cd_nm[1], 0.0);
                assert!((d.overlay_nm[1] + budget.overlay_three_sigma_nm()).abs() < 1e-12);
                // Mask A stays the pinned overlay reference.
                assert_eq!(d.overlay_nm[0], 0.0);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn draw_from_z_slots_match_named_parameters() {
        for option in PatterningOption::ALL_WITH_EXTENSIONS {
            let budget = VariationBudget::paper_default(option, 8.0).unwrap();
            let map = ZMap::build(option, &budget).unwrap();
            let z: Vec<f64> = (0..map.dims()).map(|i| 0.7 - 0.9 * i as f64).collect();
            let mut named = Draw::nominal(option);
            for ((name, sigma), zi) in map.entries.iter().zip(&z) {
                assert!(named.set_parameter(name, zi * sigma), "{option}: {name}");
            }
            let slotted = map.draw_from_z(&z);
            let bits = |d: &Draw| -> Vec<(&'static str, u64)> {
                d.parameters()
                    .into_iter()
                    .map(|(n, v)| (n, v.to_bits()))
                    .collect()
            };
            assert_eq!(bits(&slotted), bits(&named), "{option}");
        }
    }

    #[test]
    fn formula_problem_flags_deep_corners_and_passes_nominal() {
        let ctx = quick_ctx(1);
        let option = PatterningOption::Le3;
        let window = NominalWindow::build(&ctx.tech, &ctx.cell, option).unwrap();
        let budget = ctx.budget(option).unwrap();
        let params =
            mpvar_sram::FormulaParams::derive(&ctx.tech, &ctx.cell, ctx.read_config.vdd_v).unwrap();
        let model =
            AnalyticalModel::new(params, ctx.read_config.sense_dv_v / ctx.read_config.vdd_v)
                .unwrap();
        let problem = FormulaYieldProblem::new(&window, &budget, model, 64, 5.0).unwrap();
        // Nominal z passes; an extreme all-up corner fails.
        let nominal = vec![0.0; problem.dims()];
        let corner = vec![3.4; problem.dims()];
        let flags = problem.evaluate_batch(&[nominal, corner].concat()).unwrap();
        assert_eq!(flags, vec![false, true]);
    }
}
