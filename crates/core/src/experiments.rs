//! Typed experiment runners: one per table and figure of the paper.
//!
//! Every runner returns structured data plus a [`TextTable`] report so
//! the `repro` binary, the benches, and the tests all consume the same
//! code path. [`ExperimentContext::paper`] uses the paper's exact design
//! of experiments (arrays of 16/64/256/1024 word lines, 20k Monte-Carlo
//! trials); [`ExperimentContext::quick`] is a down-scaled variant for
//! CI-speed runs.

use std::fmt::Write as _;

use mpvar_exec::ExecConfig;
use mpvar_extract::extract_track;
use mpvar_geometry::TrackStack;
use mpvar_litho::{apply_draw, sample_draw, Draw, LithoError, PerturbedStack};
use mpvar_sram::{simulate_read, BitcellGeometry, FormulaParams, ReadConfig};
use mpvar_stats::RngStream;
use mpvar_tech::{preset::n10, PatterningOption, TechDb, VariationBudget};

use crate::elmore::ElmoreModel;
use crate::error::CoreError;
use crate::formula::AnalyticalModel;
use crate::montecarlo::{tdp_distribution, tdp_distribution_with, McConfig, TdpDistribution};
use crate::nominal::NominalCache;
use crate::report::{pct, ps, TextTable};
use crate::worst_case::{find_worst_case, find_worst_case_with, WorstCase};

/// Everything an experiment needs: technology, cell, DOE sizes, and
/// Monte-Carlo settings.
///
/// Construct via [`ExperimentContext::paper`], [`ExperimentContext::quick`],
/// or [`ExperimentContext::builder`]; the struct is `#[non_exhaustive]`
/// so future knobs are not breaking changes (fields stay public for
/// reading and in-place mutation).
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ExperimentContext {
    /// Technology under test.
    pub tech: TechDb,
    /// Bitcell geometry.
    pub cell: BitcellGeometry,
    /// Read-testbench configuration.
    pub read_config: ReadConfig,
    /// Array sizes (word lines) of the DOE.
    pub sizes: Vec<usize>,
    /// Monte-Carlo settings.
    pub mc: McConfig,
    /// LE3 overlay budgets (3σ, nm) swept in Table IV.
    pub le3_overlay_sweep_nm: Vec<f64>,
    /// The reference LE3 overlay budget (worst case of §II.B), nm.
    pub le3_overlay_nm: f64,
    /// Rare-event yield-engine settings (seeds and budgets independent
    /// of [`ExperimentContext::mc`], so the yield artifact is
    /// profile-invariant).
    pub yield_settings: crate::rareevent::YieldSettings,
    /// Write-path study settings (own sizes, trials, and seed, so the
    /// write-family artifacts are profile-invariant too).
    pub write_settings: crate::writeexp::WriteStudySettings,
    /// Thread-count knob for parallel cell dispatch; results are
    /// bit-identical for any setting.
    pub exec: ExecConfig,
}

impl ExperimentContext {
    /// A builder seeded with the paper's full design of experiments
    /// (the [`ExperimentContextBuilder::paper_preset`]).
    ///
    /// # Errors
    ///
    /// Propagates tech/cell construction failures.
    pub fn builder() -> Result<ExperimentContextBuilder, CoreError> {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech)?;
        Ok(ExperimentContextBuilder {
            ctx: Self {
                tech,
                cell,
                read_config: ReadConfig::default(),
                sizes: mpvar_sram::array::PAPER_ARRAY_SIZES.to_vec(),
                mc: McConfig::default(),
                le3_overlay_sweep_nm: vec![3.0, 5.0, 7.0, 8.0],
                le3_overlay_nm: 8.0,
                yield_settings: crate::rareevent::YieldSettings::default(),
                write_settings: crate::writeexp::WriteStudySettings::default(),
                exec: ExecConfig::default(),
            },
        })
    }

    /// The paper's full design of experiments (the builder's
    /// [`ExperimentContextBuilder::paper_preset`]).
    ///
    /// # Errors
    ///
    /// Propagates tech/cell construction failures.
    pub fn paper() -> Result<Self, CoreError> {
        Ok(Self::builder()?.build())
    }

    /// A down-scaled context for fast runs (the builder's
    /// [`ExperimentContextBuilder::quick_preset`]).
    ///
    /// # Errors
    ///
    /// Propagates tech/cell construction failures.
    pub fn quick() -> Result<Self, CoreError> {
        Ok(Self::builder()?.quick_preset().build())
    }

    /// The array height n-pinned artefacts (Fig. 5, Table IV, the
    /// sensitivity/LE2/LER/scaling extensions) measure at: 64 when the
    /// DOE includes it (the paper's choice), else the largest size.
    pub fn pinned_height(&self) -> usize {
        if self.sizes.contains(&64) {
            64
        } else {
            *self.sizes.last().expect("context has sizes")
        }
    }

    /// The variation budget of `option` with this context's LE3 overlay.
    ///
    /// # Errors
    ///
    /// Propagates budget validation.
    pub fn budget(&self, option: PatterningOption) -> Result<VariationBudget, CoreError> {
        Ok(VariationBudget::paper_default(option, self.le3_overlay_nm)?)
    }

    fn analytical_model(&self) -> Result<AnalyticalModel, CoreError> {
        let params = FormulaParams::derive(&self.tech, &self.cell, self.read_config.vdd_v)?;
        AnalyticalModel::new(params, self.read_config.sense_dv_v / self.read_config.vdd_v)
    }
}

/// Builder for [`ExperimentContext`].
///
/// Starts from the paper's full design of experiments; presets and
/// knob setters layer on top, so adding a knob later never breaks
/// callers.
///
/// ```
/// use mpvar_core::experiments::ExperimentContext;
///
/// let ctx = ExperimentContext::builder()?
///     .quick_preset()
///     .trials(500)
///     .seed(7)
///     .threads(1)
///     .build();
/// assert_eq!(ctx.mc.trials, 500);
/// assert_eq!(ctx.exec.effective_threads(), 1);
/// # Ok::<(), mpvar_core::CoreError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentContextBuilder {
    ctx: ExperimentContext,
}

impl ExperimentContextBuilder {
    /// The paper's full design of experiments: arrays of 16/64/256/1024
    /// word lines, 20 000 Monte-Carlo trials (the builder's default).
    #[must_use]
    pub fn paper_preset(mut self) -> Self {
        self.ctx.sizes = mpvar_sram::array::PAPER_ARRAY_SIZES.to_vec();
        self.ctx.mc.trials = McConfig::default().trials;
        self
    }

    /// The down-scaled CI-speed preset: 8/16-word-line arrays, 1 500
    /// trials.
    #[must_use]
    pub fn quick_preset(mut self) -> Self {
        self.ctx.sizes = vec![8, 16];
        self.ctx.mc.trials = 1_500;
        self
    }

    /// Overrides the read-testbench configuration.
    #[must_use]
    pub fn read_config(mut self, read_config: ReadConfig) -> Self {
        self.ctx.read_config = read_config;
        self
    }

    /// Overrides the DOE array sizes (word lines).
    #[must_use]
    pub fn sizes(mut self, sizes: Vec<usize>) -> Self {
        self.ctx.sizes = sizes;
        self
    }

    /// Overrides the Monte-Carlo trial count.
    #[must_use]
    pub fn trials(mut self, trials: usize) -> Self {
        self.ctx.mc.trials = trials;
        self
    }

    /// Overrides the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.ctx.mc.seed = seed;
        self
    }

    /// Pins both thread-count knobs (experiment dispatch and the
    /// Monte-Carlo farm). Results are bit-identical for any setting.
    #[must_use]
    pub fn threads(self, threads: usize) -> Self {
        self.exec(ExecConfig::with_threads(threads))
    }

    /// Sets both execution knobs from an [`ExecConfig`].
    #[must_use]
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.ctx.exec = exec;
        self.ctx.mc.exec = exec;
        self
    }

    /// Overrides the LE3 overlay budgets swept in Table IV.
    #[must_use]
    pub fn le3_overlay_sweep_nm(mut self, sweep: Vec<f64>) -> Self {
        self.ctx.le3_overlay_sweep_nm = sweep;
        self
    }

    /// Overrides the reference LE3 overlay budget (3σ, nm).
    #[must_use]
    pub fn le3_overlay_nm(mut self, overlay_nm: f64) -> Self {
        self.ctx.le3_overlay_nm = overlay_nm;
        self
    }

    /// Overrides the rare-event yield-engine settings.
    #[must_use]
    pub fn yield_settings(mut self, settings: crate::rareevent::YieldSettings) -> Self {
        self.ctx.yield_settings = settings;
        self
    }

    /// Overrides the write-path study settings.
    #[must_use]
    pub fn write_settings(mut self, settings: crate::writeexp::WriteStudySettings) -> Self {
        self.ctx.write_settings = settings;
        self
    }

    /// Finalizes the context.
    pub fn build(self) -> ExperimentContext {
        self.ctx
    }
}

// ---------------------------------------------------------------------------
// Table I — worst-case variability per patterning option
// ---------------------------------------------------------------------------

/// Table I: the worst corner of each option and its R/C impact.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Worst cases in [`PatterningOption::ALL`] order.
    pub worst_cases: Vec<WorstCase>,
}

/// Runs the Table I corner search.
///
/// The three options are independent cells: the nominal windows are
/// cached per option, the options dispatched in parallel, and each
/// option's corner search shares the same thread budget.
///
/// # Errors
///
/// Propagates the per-option search failures.
pub fn table1(ctx: &ExperimentContext) -> Result<Table1, CoreError> {
    let cache = NominalCache::build(&ctx.tech, &ctx.cell, &PatterningOption::ALL)?;
    let options = PatterningOption::ALL;
    let threads = ctx.exec.effective_threads();
    let worst_cases = mpvar_exec::try_par_map_indexed(&options, threads, |_, &option| {
        let budget = ctx.budget(option)?;
        find_worst_case_with(cache.window(option)?, &budget, ctx.exec)
    })?;
    Ok(Table1 { worst_cases })
}

impl Table1 {
    /// The worst case of one option.
    pub fn of(&self, option: PatterningOption) -> &WorstCase {
        self.worst_cases
            .iter()
            .find(|w| w.option == option)
            .expect("all options are populated")
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table I: worst case variability for each patterning option",
            &["option", "worst corner", "C_bl impact", "R_bl impact"],
        );
        for w in &self.worst_cases {
            let corner = w
                .draw
                .parameters()
                .into_iter()
                .filter(|&(_, v)| v != 0.0)
                .map(|(k, v)| format!("{k}={v:+.1}"))
                .collect::<Vec<_>>()
                .join(" ");
            t.row(&[
                w.option.paper_label(),
                &corner,
                &pct(w.variation.c_percent()),
                &pct(w.variation.r_percent()),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Fig. 4 — worst-case wire-variability impact on td
// ---------------------------------------------------------------------------

/// Fig. 4: simulated nominal `td` and the worst-case penalty per option
/// and array size.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4 {
    /// Array sizes simulated.
    pub sizes: Vec<usize>,
    /// Simulated nominal `td` per size, s.
    pub td_nominal_s: Vec<f64>,
    /// Per option: simulated worst-case `td` per size, s.
    pub td_worst_s: Vec<(PatterningOption, Vec<f64>)>,
}

/// Runs the Fig. 4 study using the Table I worst corners.
///
/// The nominal geometry is patterning-independent, so nominal `td` is
/// simulated once per size and shared across options.
///
/// # Errors
///
/// Propagates read-simulation failures.
pub fn fig4(ctx: &ExperimentContext, table1: &Table1) -> Result<Fig4, CoreError> {
    let threads = ctx.exec.effective_threads();
    // Every simulation cell (nominal per size, worst per option × size)
    // is independent; results are placed by index, so the vectors are
    // identical to the sequential loops for any thread count.
    let td_nominal_s = mpvar_exec::try_par_map_indexed(&ctx.sizes, threads, |_, &n| {
        simulate_read(
            &ctx.tech,
            &ctx.cell,
            &ctx.read_config,
            n,
            &Draw::nominal(PatterningOption::Euv),
        )
        .map(|out| out.td_s)
        .map_err(CoreError::from)
    })?;
    let n_sizes = ctx.sizes.len();
    let flat = mpvar_exec::try_par_map_range(table1.worst_cases.len() * n_sizes, threads, |i| {
        let w = &table1.worst_cases[i / n_sizes];
        let n = ctx.sizes[i % n_sizes];
        simulate_read(&ctx.tech, &ctx.cell, &ctx.read_config, n, &w.draw)
            .map(|out| out.td_s)
            .map_err(CoreError::from)
    })?;
    let td_worst_s = table1
        .worst_cases
        .iter()
        .enumerate()
        .map(|(j, w)| (w.option, flat[j * n_sizes..(j + 1) * n_sizes].to_vec()))
        .collect();
    Ok(Fig4 {
        sizes: ctx.sizes.clone(),
        td_nominal_s,
        td_worst_s,
    })
}

impl Fig4 {
    /// Simulated worst-case `tdp` (percent) of one option per size.
    pub fn tdp_percent(&self, option: PatterningOption) -> Vec<f64> {
        let worst = &self
            .td_worst_s
            .iter()
            .find(|(o, _)| *o == option)
            .expect("all options are populated")
            .1;
        worst
            .iter()
            .zip(&self.td_nominal_s)
            .map(|(w, n)| (w / n - 1.0) * 100.0)
            .collect()
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            "Fig. 4: worst case wire variability impact on td (simulation)",
            &["array", "td nominal", "tdp LELELE", "tdp SADP", "tdp EUV"],
        );
        let le3 = self.tdp_percent(PatterningOption::Le3);
        let sadp = self.tdp_percent(PatterningOption::Sadp);
        let euv = self.tdp_percent(PatterningOption::Euv);
        for (i, &n) in self.sizes.iter().enumerate() {
            t.row(&[
                &format!("10x{n}"),
                &ps(self.td_nominal_s[i]),
                &pct(le3[i]),
                &pct(sadp[i]),
                &pct(euv[i]),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Table II — formula versus simulation, nominal td
// ---------------------------------------------------------------------------

/// Table II: nominal `td` from simulation vs the analytical formula.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// `(n, simulated td, formula td)` rows, s.
    pub rows: Vec<(usize, f64, f64)>,
}

/// Builds Table II from the Fig. 4 nominal simulations.
///
/// # Errors
///
/// Propagates model construction failures.
pub fn table2(ctx: &ExperimentContext, fig4: &Fig4) -> Result<Table2, CoreError> {
    let model = ctx.analytical_model()?;
    let rows = fig4
        .sizes
        .iter()
        .zip(&fig4.td_nominal_s)
        .map(|(&n, &sim)| (n, sim, model.td_nominal_s(n)))
        .collect();
    Ok(Table2 { rows })
}

impl Table2 {
    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table II: formula versus simulation td_nom values",
            &["array", "simulation", "formula", "ratio sim/formula"],
        );
        for &(n, sim, formula) in &self.rows {
            t.row(&[
                &format!("10x{n}"),
                &ps(sim),
                &ps(formula),
                &format!("{:.2}", sim / formula),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Table III — formula versus simulation, worst-case tdp
// ---------------------------------------------------------------------------

/// Table III: worst-case `tdp` (percent) per option and size, by both
/// methods.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3 {
    /// Sizes of the study.
    pub sizes: Vec<usize>,
    /// Simulated `tdp` percent per option (in [`PatterningOption::ALL`]
    /// order), per size.
    pub simulation: Vec<Vec<f64>>,
    /// Formula `tdp` percent per option, per size.
    pub formula: Vec<Vec<f64>>,
}

/// Builds Table III from the Table I corners and Fig. 4 simulations.
///
/// # Errors
///
/// Propagates model construction failures.
pub fn table3(ctx: &ExperimentContext, table1: &Table1, fig4: &Fig4) -> Result<Table3, CoreError> {
    let model = ctx.analytical_model()?;
    let mut simulation = Vec::new();
    let mut formula = Vec::new();
    for option in PatterningOption::ALL {
        simulation.push(fig4.tdp_percent(option));
        let w = table1.of(option);
        formula.push(
            fig4.sizes
                .iter()
                .map(|&n| model.tdp_percent(n, w.variation.r_var, w.variation.c_var))
                .collect(),
        );
    }
    Ok(Table3 {
        sizes: fig4.sizes.clone(),
        simulation,
        formula,
    })
}

impl Table3 {
    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            "Table III: formula versus simulation tdp values (%) using the worst case variability",
            &["method", "array", "LELELE", "SADP", "EUV"],
        );
        for (label, data) in [("simulation", &self.simulation), ("formula", &self.formula)] {
            for (i, &n) in self.sizes.iter().enumerate() {
                t.row(&[
                    label,
                    &format!("10x{n}"),
                    &format!("{:.2}", data[0][i]),
                    &format!("{:.2}", data[1][i]),
                    &format!("{:.2}", data[2][i]),
                ]);
            }
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Fig. 5 — Monte-Carlo tdp distributions
// ---------------------------------------------------------------------------

/// Fig. 5: the Monte-Carlo `tdp` distributions at one array size.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5 {
    /// The array size (the paper uses n = 64).
    pub n: usize,
    /// Distributions for LE3 (at the context overlay), SADP, EUV.
    pub distributions: Vec<TdpDistribution>,
}

/// Runs the Fig. 5 Monte-Carlo study at `n = 64` cells (or the largest
/// context size if smaller).
///
/// # Errors
///
/// Propagates Monte-Carlo failures.
pub fn fig5(ctx: &ExperimentContext) -> Result<Fig5, CoreError> {
    let n = ctx.pinned_height();
    // Per-option cells run in parallel against cached nominal windows;
    // each cell's Monte-Carlo farm shares the same thread budget.
    let cache = NominalCache::build(&ctx.tech, &ctx.cell, &PatterningOption::ALL)?;
    let options = PatterningOption::ALL;
    let threads = ctx.exec.effective_threads();
    let distributions = mpvar_exec::try_par_map_indexed(&options, threads, |_, &option| {
        let budget = ctx.budget(option)?;
        tdp_distribution_with(cache.window(option)?, &budget, n, &ctx.mc)
    })?;
    Ok(Fig5 { n, distributions })
}

impl Fig5 {
    /// Renders the report: summary lines plus an ASCII histogram per
    /// option.
    pub fn report(&self) -> String {
        let mut out = format!(
            "Fig. 5: Monte-Carlo tdp distribution (n = {}, {} trials/option)\n\n",
            self.n,
            self.distributions
                .first()
                .map(|d| d.samples_percent().len())
                .unwrap_or(0)
        );
        for d in &self.distributions {
            out.push_str(&format!(
                "{}: mean {:+.3}% sigma {:.3}% min {:+.2}% max {:+.2}%\n",
                d.option().paper_label(),
                d.summary().mean(),
                d.sigma_percent(),
                d.summary().min(),
                d.summary().max()
            ));
            if let Ok(h) = d.histogram(25) {
                out.push_str(&h.to_ascii(50));
            }
            out.push('\n');
        }
        out
    }

    /// The raw samples as CSV: an `option,tdp_percent` row per trial.
    pub fn to_csv(&self) -> String {
        let mut csv = String::from("option,tdp_percent\n");
        for d in &self.distributions {
            for &s in d.samples_percent() {
                let _ = writeln!(csv, "{},{s}", d.option());
            }
        }
        csv
    }
}

// ---------------------------------------------------------------------------
// Table IV — tdp sigma per option and overlay budget
// ---------------------------------------------------------------------------

/// Table IV: `tdp` standard deviations at n = 64 for the LE3 overlay
/// sweep plus SADP and EUV, with bootstrap 95% confidence bounds (an
/// `mpvar` addition — the paper reports point values only).
#[derive(Debug, Clone, PartialEq)]
pub struct Table4 {
    /// The array size used.
    pub n: usize,
    /// `(label, sigma percent, ci_lo, ci_hi)` rows.
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// Runs the Table IV sigma sweep.
///
/// # Errors
///
/// Propagates Monte-Carlo failures.
pub fn table4(ctx: &ExperimentContext) -> Result<Table4, CoreError> {
    let n = ctx.pinned_height();
    // Independent cells: the LE3 overlay sweep plus SADP and EUV. All
    // LE3 cells share one cached nominal window (the nominal print does
    // not depend on the overlay budget).
    let mut cells: Vec<(String, PatterningOption, VariationBudget)> = Vec::new();
    for &ol in &ctx.le3_overlay_sweep_nm {
        cells.push((
            format!("LELELE {ol:.0}nm OL"),
            PatterningOption::Le3,
            VariationBudget::paper_default(PatterningOption::Le3, ol)?,
        ));
    }
    for option in [PatterningOption::Sadp, PatterningOption::Euv] {
        cells.push((
            option.paper_label().to_string(),
            option,
            ctx.budget(option)?,
        ));
    }
    let cache = NominalCache::build(&ctx.tech, &ctx.cell, &PatterningOption::ALL)?;
    let threads = ctx.exec.effective_threads();
    let rows = mpvar_exec::try_par_map_indexed(&cells, threads, |_, (label, option, budget)| {
        let d = tdp_distribution_with(cache.window(*option)?, budget, n, &ctx.mc)?;
        let ci = mpvar_stats::bootstrap_sigma_ci(d.samples_percent(), 300, 0.95, ctx.mc.seed)?;
        Ok::<_, CoreError>((label.clone(), d.sigma_percent(), ci.lo, ci.hi))
    })?;
    Ok(Table4 { n, rows })
}

impl Table4 {
    /// The sigma of a labelled row, if present.
    pub fn sigma_of(&self, label_prefix: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(l, _, _, _)| l.starts_with(label_prefix))
            .map(|&(_, s, _, _)| s)
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Table IV: patterning options & tdp sigma values (n = {})",
                self.n
            ),
            &[
                "patterning option",
                "std deviation (% tdp)",
                "95% bootstrap CI",
            ],
        );
        for (label, sigma, lo, hi) in &self.rows {
            t.row(&[
                label,
                &format!("{sigma:.3}"),
                &format!("[{lo:.3}, {hi:.3}]"),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Ablation A1 — delay models: lumped vs Elmore vs simulation
// ---------------------------------------------------------------------------

/// Ablation A1: nominal `td` by the three delay models.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationDelayModels {
    /// `(n, simulated, lumped formula, elmore)` rows, s.
    pub rows: Vec<(usize, f64, f64, f64)>,
}

/// Compares the lumped formula and the Elmore refinement against the
/// Fig. 4 nominal simulations (the paper's §III.A discussion).
///
/// # Errors
///
/// Propagates model construction failures.
pub fn ablation_delay_models(
    ctx: &ExperimentContext,
    fig4: &Fig4,
) -> Result<AblationDelayModels, CoreError> {
    let params = FormulaParams::derive(&ctx.tech, &ctx.cell, ctx.read_config.vdd_v)?;
    let level = ctx.read_config.sense_dv_v / ctx.read_config.vdd_v;
    let lumped = AnalyticalModel::new(params, level)?;
    let elmore = ElmoreModel::new(params, level)?;
    let rows = fig4
        .sizes
        .iter()
        .zip(&fig4.td_nominal_s)
        .map(|(&n, &sim)| (n, sim, lumped.td_nominal_s(n), elmore.td_nominal_s(n)))
        .collect();
    Ok(AblationDelayModels { rows })
}

impl AblationDelayModels {
    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            "Ablation A1: delay models (nominal td)",
            &["array", "simulation", "lumped formula", "elmore"],
        );
        for &(n, sim, lumped, elmore) in &self.rows {
            t.row(&[&format!("10x{n}"), &ps(sim), &ps(lumped), &ps(elmore)]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Ablation A2 — bit-line width (non-minimum CD) sensitivity
// ---------------------------------------------------------------------------

/// Ablation A2: how the drawn bit-line width changes the worst-case
/// C_bl impact per option.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationBlWidth {
    /// `(width_nm, dC% per option in ALL order)` rows.
    pub rows: Vec<(i64, Vec<f64>)>,
}

/// Sweeps the drawn bit-line width and re-runs the Table I corner
/// search (the paper motivates non-minimum bit-line CD in §II.B).
///
/// # Errors
///
/// Propagates search failures.
pub fn ablation_bl_width(ctx: &ExperimentContext) -> Result<AblationBlWidth, CoreError> {
    let mut rows = Vec::new();
    for width in [24i64, 26, 28, 30] {
        let cell = ctx.cell.clone().with_bl_width(mpvar_geometry::Nm(width))?;
        let mut deltas = Vec::new();
        for option in PatterningOption::ALL {
            let budget = ctx.budget(option)?;
            let wc = find_worst_case(&ctx.tech, &cell, option, &budget)?;
            deltas.push(wc.variation.c_percent());
        }
        rows.push((width, deltas));
    }
    Ok(AblationBlWidth { rows })
}

impl AblationBlWidth {
    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            "Ablation A2: bit-line drawn width vs worst-case C_bl impact",
            &["bl width", "LELELE dC", "SADP dC", "EUV dC"],
        );
        for (w, deltas) in &self.rows {
            t.row(&[
                &format!("{w}nm"),
                &pct(deltas[0]),
                &pct(deltas[1]),
                &pct(deltas[2]),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Ablation A3 — SADP R_bl / R_VSS anti-correlation
// ---------------------------------------------------------------------------

/// Ablation A3: the SADP anti-correlation between bit-line and VSS-rail
/// resistance the paper blames for its formula's SADP mismatch (§III.A).
#[derive(Debug, Clone, PartialEq)]
pub struct AblationSadpAnticorrelation {
    /// Pearson correlation of (R_bl, R_vss) over Monte-Carlo draws.
    pub pearson_r: f64,
    /// Worst-corner R_bl change, percent.
    pub worst_rbl_percent: f64,
    /// Worst-corner R_vss change, percent.
    pub worst_rvss_percent: f64,
}

/// [`apply_draw`], with a shorted or collapsed print (a yield loss the
/// Monte-Carlo loops skip) as `None`.
fn print_unless_shorted(
    stack: &TrackStack,
    draw: &Draw,
) -> Result<Option<PerturbedStack>, CoreError> {
    match apply_draw(stack, draw) {
        Ok(printed) => Ok(Some(printed)),
        Err(LithoError::ShortedLines { .. } | LithoError::CollapsedLine { .. }) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Measures the SADP R_bl/R_VSS anti-correlation by Monte-Carlo and at
/// the worst corner.
///
/// # Errors
///
/// Propagates sampling/extraction failures.
pub fn ablation_sadp_anticorrelation(
    ctx: &ExperimentContext,
) -> Result<AblationSadpAnticorrelation, CoreError> {
    let m1 = ctx
        .tech
        .metal(1)
        .ok_or_else(|| CoreError::Tech("technology lacks metal1".to_string()))?;
    let stack = ctx
        .cell
        .column_stack(mpvar_sram::array::PAPER_BL_PAIRS, 5, 1)?;
    let nominal = apply_draw(&stack, &Draw::nominal(PatterningOption::Sadp))?;
    let bl = nominal
        .index_of_net("BL")
        .ok_or_else(|| CoreError::Sram("no BL track".to_string()))?;
    let vss = nominal
        .index_of_net("VSS5")
        .ok_or_else(|| CoreError::Sram("no VSS5 track".to_string()))?;
    let nom_bl = extract_track(&nominal, bl, m1)?;
    let nom_vss = extract_track(&nominal, vss, m1)?;

    let budget = ctx.budget(PatterningOption::Sadp)?;
    let base = RngStream::from_seed(ctx.mc.seed);
    let trials = ctx.mc.trials.clamp(200, 5_000);
    let mut rbl = Vec::with_capacity(trials);
    let mut rvss = Vec::with_capacity(trials);
    for k in 0..trials {
        let mut rng = base.substream(k as u64);
        let draw = sample_draw(PatterningOption::Sadp, &budget, &mut rng)?;
        let Some(printed) = print_unless_shorted(&stack, &draw)? else {
            continue;
        };
        rbl.push(extract_track(&printed, bl, m1)?.resistance_ohm());
        rvss.push(extract_track(&printed, vss, m1)?.resistance_ohm());
    }
    let pearson_r = mpvar_stats::pearson(&rbl, &rvss)?;

    let wc = find_worst_case(&ctx.tech, &ctx.cell, PatterningOption::Sadp, &budget)?;
    let printed = apply_draw(&stack, &wc.draw)?;
    let worst_rbl = extract_track(&printed, bl, m1)?.resistance_ohm();
    let worst_rvss = extract_track(&printed, vss, m1)?.resistance_ohm();

    Ok(AblationSadpAnticorrelation {
        pearson_r,
        worst_rbl_percent: (worst_rbl / nom_bl.resistance_ohm() - 1.0) * 100.0,
        worst_rvss_percent: (worst_rvss / nom_vss.resistance_ohm() - 1.0) * 100.0,
    })
}

impl AblationSadpAnticorrelation {
    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            "Ablation A3: SADP R_bl / R_VSS anti-correlation",
            &["metric", "value"],
        );
        t.row(&["pearson(R_bl, R_vss)", &format!("{:.3}", self.pearson_r)]);
        t.row(&["worst-corner dR_bl", &pct(self.worst_rbl_percent)]);
        t.row(&["worst-corner dR_vss", &pct(self.worst_rvss_percent)]);
        t
    }
}

// ---------------------------------------------------------------------------
// Extension E1 — LELE (double litho-etch) versus the paper's options
// ---------------------------------------------------------------------------

/// Extension E1: the 32nm-era LELE option placed in the paper's
/// comparison — worst-case impact and Monte-Carlo spread per option,
/// including LELE.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtensionLe2 {
    /// `(option, worst dC_bl %, worst dR_bl %, tdp sigma %)` rows over
    /// all implemented options.
    pub rows: Vec<(PatterningOption, f64, f64, f64)>,
    /// Array size used for the sigma column.
    pub n: usize,
}

/// Runs the LELE comparison: corner search plus Monte-Carlo sigma for
/// every implemented option (the paper's three plus LELE).
///
/// # Errors
///
/// Propagates search / Monte-Carlo failures.
pub fn extension_le2(ctx: &ExperimentContext) -> Result<ExtensionLe2, CoreError> {
    let n = ctx.pinned_height();
    let mut rows = Vec::new();
    for option in PatterningOption::ALL_WITH_EXTENSIONS {
        let budget = VariationBudget::paper_default(option, ctx.le3_overlay_nm)?;
        let wc = find_worst_case(&ctx.tech, &ctx.cell, option, &budget)?;
        let dist = tdp_distribution(&ctx.tech, &ctx.cell, option, &budget, n, &ctx.mc)?;
        rows.push((
            option,
            wc.variation.c_percent(),
            wc.variation.r_percent(),
            dist.sigma_percent(),
        ));
    }
    Ok(ExtensionLe2 { rows, n })
}

impl ExtensionLe2 {
    /// The row of one option.
    pub fn of(&self, option: PatterningOption) -> Option<&(PatterningOption, f64, f64, f64)> {
        self.rows.iter().find(|(o, _, _, _)| *o == option)
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Extension E1: LELE versus the paper's options (sigma at n = {})",
                self.n
            ),
            &["option", "worst dC_bl", "worst dR_bl", "tdp sigma (%)"],
        );
        for (option, dc, dr, sigma) in &self.rows {
            t.row(&[
                option.paper_label(),
                &pct(*dc),
                &pct(*dr),
                &format!("{sigma:.3}"),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Extension E2 — line-edge roughness on top of multiple patterning
// ---------------------------------------------------------------------------

/// Extension E2: tdp spread decomposition into multiple-patterning and
/// line-edge-roughness contributions.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtensionLer {
    /// Array size used.
    pub n: usize,
    /// LER model parameters (sigma, correlation length), nm.
    pub ler_sigma_nm: f64,
    /// `(option, sigma MP only, sigma MP+LER, mean R_var under LER only)`
    /// rows.
    pub rows: Vec<(PatterningOption, f64, f64, f64)>,
}

/// Runs the LER decomposition at `n = 64` (or the largest context size).
///
/// Per trial: sample the option's MP draw, print the window, then add an
/// AR(1) width profile along the bit line (own-edge roughness; each gap
/// absorbs half of the local width change). Segment-wise R and C sum to
/// the trial's `R_var`/`C_var`, evaluated through the analytical formula.
///
/// # Errors
///
/// Propagates sampling/extraction/model failures.
pub fn extension_ler(ctx: &ExperimentContext) -> Result<ExtensionLer, CoreError> {
    use mpvar_extract::capacitance::capacitance_breakdown;
    use mpvar_extract::wire_resistance_ohm;
    use mpvar_litho::LerModel;

    let n = ctx.pinned_height();
    let m1 = ctx
        .tech
        .metal(1)
        .ok_or_else(|| CoreError::Tech("technology lacks metal1".to_string()))?;
    let ler = LerModel::new(1.0, 26.0)?;
    let seg_len_nm = ctx.cell.cell_len_x().to_f64();
    let trials = ctx.mc.trials.clamp(200, 4_000);

    // One-cell window defines the uniform (pre-LER) geometry per draw.
    let stack = ctx
        .cell
        .column_stack(mpvar_sram::array::PAPER_BL_PAIRS, 5, 1)?;
    let params = FormulaParams::derive(&ctx.tech, &ctx.cell, ctx.read_config.vdd_v)?;
    let model = AnalyticalModel::new(params, ctx.read_config.sense_dv_v / ctx.read_config.vdd_v)?;

    // Nominal per-cell baseline (no MP, no LER).
    let nominal_printed = apply_draw(&stack, &Draw::nominal(PatterningOption::Euv))?;
    let bl = nominal_printed
        .index_of_net("BL")
        .ok_or_else(|| CoreError::Sram("column stack lost its BL track".to_string()))?;
    let nom = extract_track(&nominal_printed, bl, m1)?;

    // One segment's R and C at width `w` between gaps `lo` and `hi`.
    let segment = |w: f64, lo: f64, hi: f64| -> Result<(f64, f64), CoreError> {
        Ok((
            wire_resistance_ohm(m1, w, seg_len_nm)?,
            capacitance_breakdown(m1, w, Some(lo), Some(hi))?.total_f_per_m() * seg_len_nm * 1e-9,
        ))
    };
    // Per-cell multipliers: segment sums against k nominal cells.
    let multipliers = |r_total: f64, c_total: f64, k: usize| {
        let k = k as f64;
        (
            r_total / (k * nom.resistance_ohm()),
            c_total / (k * nom.c_total_f()),
        )
    };
    // Segment-summed multipliers for one (draw, profile) realization.
    let realize =
        |w_mp: f64, g_lo: f64, g_hi: f64, profile: &[f64]| -> Result<(f64, f64), CoreError> {
            let mut r_total = 0.0;
            let mut c_total = 0.0;
            for &d in profile {
                let (r, c) = segment(w_mp + d, g_lo - d / 2.0, g_hi - d / 2.0)?;
                r_total += r;
                c_total += c;
            }
            Ok(multipliers(r_total, c_total, profile.len()))
        };
    // The flat (MP-only) profile's n segments are all the same one:
    // evaluate it once and add it n times in order, so the sums carry
    // the bits of the segment loop.
    let realize_flat = |w_mp: f64, g_lo: f64, g_hi: f64| -> Result<(f64, f64), CoreError> {
        let (r, c) = segment(w_mp, g_lo, g_hi)?;
        let mut r_total = 0.0;
        let mut c_total = 0.0;
        for _ in 0..n {
            r_total += r;
            c_total += c;
        }
        Ok(multipliers(r_total, c_total, n))
    };

    let base = RngStream::from_seed(ctx.mc.seed ^ 0x004C_4552);
    let mut rows = Vec::new();
    for option in PatterningOption::ALL {
        let budget = ctx.budget(option)?;
        let mut tdp_mp = Vec::with_capacity(trials);
        let mut tdp_both = Vec::with_capacity(trials);
        let mut rvar_ler_only = Vec::with_capacity(trials);
        for k in 0..trials {
            let mut rng = base.substream(k as u64);
            let draw = sample_draw(option, &budget, &mut rng)?;
            let Some(printed) = print_unless_shorted(&stack, &draw)? else {
                continue;
            };
            let t = printed.track(bl);
            let (w_mp, g_lo, g_hi) = (
                t.width_nm(),
                printed.gap_below_nm(bl).expect("interior track"),
                printed.gap_above_nm(bl).expect("interior track"),
            );
            let profile = ler.sample_profile(n, seg_len_nm, &mut rng)?;

            let (r_mp, c_mp) = realize_flat(w_mp, g_lo, g_hi)?;
            let (r_both, c_both) = realize(w_mp, g_lo, g_hi, &profile)?;
            tdp_mp.push(model.tdp_percent(n, r_mp, c_mp));
            tdp_both.push(model.tdp_percent(n, r_both, c_both));

            // LER on nominal geometry, for the Jensen-effect column.
            let nom_t = nominal_printed.track(bl);
            let (r_ler, _) = realize(
                nom_t.width_nm(),
                nominal_printed.gap_below_nm(bl).expect("interior"),
                nominal_printed.gap_above_nm(bl).expect("interior"),
                &profile,
            )?;
            rvar_ler_only.push(r_ler);
        }
        let s_mp: mpvar_stats::Summary = tdp_mp.iter().copied().collect();
        let s_both: mpvar_stats::Summary = tdp_both.iter().copied().collect();
        let s_rler: mpvar_stats::Summary = rvar_ler_only.iter().copied().collect();
        rows.push((option, s_mp.std_dev(), s_both.std_dev(), s_rler.mean()));
    }

    Ok(ExtensionLer {
        n,
        ler_sigma_nm: ler.sigma_nm(),
        rows,
    })
}

impl ExtensionLer {
    /// The row of one option.
    pub fn of(&self, option: PatterningOption) -> Option<&(PatterningOption, f64, f64, f64)> {
        self.rows.iter().find(|(o, _, _, _)| *o == option)
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Extension E2: line-edge roughness (sigma {}nm) on top of MP, n = {}",
                self.ler_sigma_nm, self.n
            ),
            &[
                "option",
                "tdp sigma, MP only",
                "tdp sigma, MP+LER",
                "mean R_var, LER only",
            ],
        );
        for (option, s_mp, s_both, r_ler) in &self.rows {
            t.row(&[
                option.paper_label(),
                &format!("{s_mp:.3}%"),
                &format!("{s_both:.3}%"),
                &format!("{r_ler:.5}"),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Extension E3 — node scaling: N10 versus N7 under the same budgets
// ---------------------------------------------------------------------------

/// Extension E3: the paper's "scaling exacerbates this" claim, tested —
/// the same absolute 3σ budgets applied to N10-class and N7-class
/// geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtensionScaling {
    /// `(node name, option, worst dC_bl %, tdp sigma %)` rows.
    pub rows: Vec<(String, PatterningOption, f64, f64)>,
    /// Array size of the sigma column.
    pub n: usize,
}

/// Runs the cross-node comparison at `n = 64` (or the largest context
/// size): worst-case C impact and Monte-Carlo sigma per option on the
/// N10 preset and the scaled N7 preset.
///
/// # Errors
///
/// Propagates search / Monte-Carlo failures.
pub fn extension_scaling(ctx: &ExperimentContext) -> Result<ExtensionScaling, CoreError> {
    let n = ctx.pinned_height();
    let mut rows = Vec::new();
    for tech in [n10(), mpvar_tech::preset::n7()] {
        let cell = BitcellGeometry::hd(&tech)?;
        for option in PatterningOption::ALL {
            let budget = VariationBudget::paper_default(option, ctx.le3_overlay_nm)?;
            let wc = find_worst_case(&tech, &cell, option, &budget)?;
            let dist = tdp_distribution(&tech, &cell, option, &budget, n, &ctx.mc)?;
            rows.push((
                tech.name().to_string(),
                option,
                wc.variation.c_percent(),
                dist.sigma_percent(),
            ));
        }
    }
    Ok(ExtensionScaling { rows, n })
}

impl ExtensionScaling {
    /// The row for one node/option pair.
    pub fn of(
        &self,
        node: &str,
        option: PatterningOption,
    ) -> Option<&(String, PatterningOption, f64, f64)> {
        self.rows
            .iter()
            .find(|(t, o, _, _)| t == node && *o == option)
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Extension E3: node scaling under constant 3-sigma budgets (n = {})",
                self.n
            ),
            &["node", "option", "worst dC_bl", "tdp sigma (%)"],
        );
        for (node, option, dc, sigma) in &self.rows {
            t.row(&[
                node,
                option.paper_label(),
                &pct(*dc),
                &format!("{sigma:.3}"),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> ExperimentContext {
        ExperimentContext::quick().unwrap()
    }

    #[test]
    fn only_a_shorted_print_is_skipped() {
        let c = ctx();
        let stack = c
            .cell
            .column_stack(mpvar_sram::array::PAPER_BL_PAIRS, 5, 1)
            .unwrap();
        let nominal = Draw::nominal(PatterningOption::Euv);
        assert!(print_unless_shorted(&stack, &nominal).unwrap().is_some());
        let shorted = Draw::Euv(mpvar_litho::EuvDraw { cd_nm: 1e3 });
        assert_eq!(print_unless_shorted(&stack, &shorted), Ok(None));
        let non_finite = Draw::Euv(mpvar_litho::EuvDraw { cd_nm: f64::NAN });
        assert!(matches!(
            print_unless_shorted(&stack, &non_finite),
            Err(CoreError::Litho(_))
        ));
    }

    #[test]
    fn table1_orders_options_as_paper() {
        let t1 = table1(&ctx()).unwrap();
        assert_eq!(t1.worst_cases.len(), 3);
        let le3 = t1.of(PatterningOption::Le3).variation.c_percent();
        let sadp = t1.of(PatterningOption::Sadp).variation.c_percent();
        let euv = t1.of(PatterningOption::Euv).variation.c_percent();
        assert!(le3 > euv && euv > sadp, "{le3} / {euv} / {sadp}");
        let report = t1.report().render();
        assert!(report.contains("LELELE"));
        assert!(report.contains("SADP"));
    }

    #[test]
    fn fig4_and_downstream_tables() {
        let c = ctx();
        let t1 = table1(&c).unwrap();
        let f4 = fig4(&c, &t1).unwrap();
        assert_eq!(f4.sizes, vec![8, 16]);
        // LE3 penalty dominates at every size.
        let le3 = f4.tdp_percent(PatterningOption::Le3);
        let sadp = f4.tdp_percent(PatterningOption::Sadp);
        for (a, b) in le3.iter().zip(&sadp) {
            assert!(a > b, "LE3 {a}% vs SADP {b}%");
        }
        assert!(f4.report().render().contains("10x16"));

        let t2 = table2(&c, &f4).unwrap();
        assert_eq!(t2.rows.len(), 2);
        for &(_, sim, formula) in &t2.rows {
            assert!(sim > 0.0 && formula > 0.0);
            // Same order of magnitude (the paper's own deviation is 2-4x).
            let ratio = sim / formula;
            assert!(ratio > 0.2 && ratio < 5.0, "ratio {ratio}");
        }
        assert!(t2.report().render().contains("ratio"));

        let t3 = table3(&c, &t1, &f4).unwrap();
        // Formula tracks the simulation direction and magnitude. At the
        // tiny quick-context sizes the testbench's fixed caps (internal
        // node, device junctions) dilute the simulated penalty more than
        // the formula's C_pre does, so allow a generous band here; the
        // paper-size agreement is exercised by the repro harness.
        for i in 0..t3.sizes.len() {
            let gap = (t3.simulation[0][i] - t3.formula[0][i]).abs();
            assert!(gap < 13.0, "LE3 gap {gap}pp at n={}", t3.sizes[i]);
            assert!(
                t3.simulation[0][i] > 0.0 && t3.formula[0][i] > 0.0,
                "both methods must show a positive LE3 penalty"
            );
        }
        assert!(t3.report().render().contains("simulation"));
    }

    #[test]
    fn fig5_and_table4() {
        let c = ctx();
        let f5 = fig5(&c).unwrap();
        assert_eq!(f5.distributions.len(), 3);
        let report = f5.report();
        assert!(report.contains("sigma"));
        assert!(report.contains('#'));

        let t4 = table4(&c).unwrap();
        assert_eq!(t4.rows.len(), 6);
        // Sigma rises monotonically along the LE3 overlay sweep.
        let sweep: Vec<f64> = t4.rows[..4].iter().map(|&(_, s, _, _)| s).collect();
        for w in sweep.windows(2) {
            assert!(w[1] > w[0] * 0.9, "sweep not rising: {sweep:?}");
        }
        // LE3 at 8nm is well above SADP (paper: "more than double").
        let le3_8 = t4.sigma_of("LELELE 8nm").unwrap();
        let sadp = t4.sigma_of("SADP").unwrap();
        assert!(le3_8 > 1.5 * sadp, "{le3_8} vs {sadp}");
        assert!(t4.report().render().contains("std deviation"));
    }

    #[test]
    fn ablations() {
        let c = ctx();
        let t1 = table1(&c).unwrap();
        let f4 = fig4(&c, &t1).unwrap();

        let a1 = ablation_delay_models(&c, &f4).unwrap();
        for &(_, sim, lumped, elmore) in &a1.rows {
            assert!(elmore < lumped, "elmore below lumped");
            assert!(sim > 0.0);
        }
        assert!(a1.report().render().contains("elmore"));

        let a2 = ablation_bl_width(&c).unwrap();
        assert_eq!(a2.rows.len(), 4);
        // LE3 dominates at every width.
        for (_, deltas) in &a2.rows {
            assert!(deltas[0] > deltas[1] && deltas[0] > deltas[2]);
        }

        let a3 = ablation_sadp_anticorrelation(&c).unwrap();
        // The defining physics: strongly negative correlation.
        assert!(a3.pearson_r < -0.5, "pearson {}", a3.pearson_r);
        assert!(a3.worst_rbl_percent < 0.0);
        assert!(a3.worst_rvss_percent > 0.0);
        assert!(a3.report().render().contains("pearson"));
    }

    #[test]
    fn le2_sits_between_le3_and_single_patterning() {
        let mut c = ctx();
        c.mc.trials = 800;
        let e1 = extension_le2(&c).unwrap();
        assert_eq!(e1.rows.len(), 4);
        let le3 = e1.of(PatterningOption::Le3).unwrap();
        let le2 = e1.of(PatterningOption::Le2).unwrap();
        let euv = e1.of(PatterningOption::Euv).unwrap();
        // With two masks, both neighbours of a bit line share a mask, so
        // an overlay shift closes one gap while opening the other: the
        // worst-case C hit is far below LE3's two-sided squeeze...
        assert!(le2.1 < 0.6 * le3.1, "LE2 {} vs LE3 {}", le2.1, le3.1);
        // ...and its sigma sits well below LE3's: the anti-symmetric gap
        // motion cancels to first order, leaving only the convexity
        // residue, comparable to (in our model slightly below) EUV's
        // fully-correlated CD effect and above SADP's.
        let sadp = e1.of(PatterningOption::Sadp).unwrap();
        assert!(le2.3 < le3.3, "LE2 sigma {} vs LE3 {}", le2.3, le3.3);
        assert!(le2.3 > sadp.3, "LE2 sigma {} vs SADP {}", le2.3, sadp.3);
        assert!(le2.3 < 1.3 * euv.3, "LE2 sigma {} vs EUV {}", le2.3, euv.3);
        assert!(e1.report().render().contains("LELE"));
    }

    #[test]
    fn scaling_exacerbates_variability() {
        // The paper's introduction, tested: constant absolute budgets on
        // smaller geometry hurt more.
        let mut c = ctx();
        c.mc.trials = 600;
        let e3 = extension_scaling(&c).unwrap();
        assert_eq!(e3.rows.len(), 6);
        for option in PatterningOption::ALL {
            let n10_row = e3.of("n10", option).unwrap();
            let n7_row = e3.of("n7", option).unwrap();
            assert!(
                n7_row.2 > n10_row.2,
                "{option}: N7 worst dC {} vs N10 {}",
                n7_row.2,
                n10_row.2
            );
            assert!(
                n7_row.3 > n10_row.3,
                "{option}: N7 sigma {} vs N10 {}",
                n7_row.3,
                n10_row.3
            );
        }
        assert!(e3.report().render().contains("n7"));
    }

    #[test]
    fn ler_adds_spread_and_jensen_resistance() {
        let mut c = ctx();
        c.mc.trials = 400;
        let e2 = extension_ler(&c).unwrap();
        assert_eq!(e2.rows.len(), 3);
        for (option, s_mp, s_both, r_ler) in &e2.rows {
            // LER only ever adds variance.
            assert!(s_both >= s_mp, "{option}: {s_both} < {s_mp}");
            // Jensen: E[1/w] > 1/E[w] makes the LER-only mean R_var > 1.
            assert!(
                *r_ler > 1.0 && *r_ler < 1.02,
                "{option}: mean LER R_var {r_ler}"
            );
        }
        // LER matters relatively more for the quiet options: the SADP
        // sigma grows by a larger factor than LE3's.
        let le3 = e2.of(PatterningOption::Le3).unwrap();
        let sadp = e2.of(PatterningOption::Sadp).unwrap();
        let le3_growth = le3.2 / le3.1;
        let sadp_growth = sadp.2 / sadp.1;
        assert!(
            sadp_growth >= le3_growth,
            "SADP growth {sadp_growth} vs LE3 {le3_growth}"
        );
        assert!(e2.report().render().contains("LER"));
    }

    #[test]
    fn context_constructors() {
        let p = ExperimentContext::paper().unwrap();
        assert_eq!(p.sizes, vec![16, 64, 256, 1024]);
        assert_eq!(p.mc.trials, 20_000);
        let q = ExperimentContext::quick().unwrap();
        assert!(q.mc.trials < p.mc.trials);
        assert!(q.budget(PatterningOption::Le3).is_ok());
    }
}
