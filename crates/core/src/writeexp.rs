//! Write path, sense periphery, and word-line studies under MP
//! variability — the write-side counterparts of the paper's read
//! experiments.
//!
//! The paper quantifies how interconnect multiple-patterning
//! variability stretches the *read* time; the same decomposed-M1
//! population carries the write operation's bit-line discharge, the
//! differential the sense amplifier must resolve, and the word line
//! that selects the row. This module covers those three faces:
//!
//! * [`write_time`] — nominal and worst-corner write (cell-flip) time
//!   per array height, simulation against the write-path analytical
//!   formula ([`mpvar_sram::FormulaParams::derive_write`]);
//! * [`write_margin`] — Monte-Carlo write-time-penalty spread per
//!   option on the shared trial farm;
//! * [`sense_margin`] — per-trial Gaussian sense-amp input offset
//!   interacting with the MP-induced bit-line RC skew: a read fails
//!   when the developed differential inside the sense window does not
//!   clear the offset;
//! * [`wl_delay`] — near- versus far-column word-line Elmore delay
//!   from the same printed-wire population;
//! * [`write_yield`] — rare-event write-failure probability per option
//!   through the importance-sampling engine, reported next to the
//!   read-model failure probability at the same margin.
//!
//! Every runner reads its knobs from [`WriteStudySettings`] — fixed
//! sizes, trials, and seeds independent of the context's quick/paper
//! profile — so the artifacts are profile-invariant and their golden
//! CSVs are compared strictly in both `repro check` profiles.

use mpvar_extract::extract_track;
use mpvar_litho::{apply_draw, Draw};
use mpvar_sram::{simulate_write, FormulaParams, WriteConfig};
use mpvar_stats::sampler::standard_normal;
use mpvar_stats::RngStream;
use mpvar_tech::{PatterningOption, VariationBudget};
use mpvar_yield::{run_yields, Proposal, YieldConfig};

use crate::error::CoreError;
use crate::experiments::{ExperimentContext, Table1};
use crate::formula::AnalyticalModel;
use crate::montecarlo::{farm_trials, twp_distribution_with, McConfig};
use crate::nominal::NominalCache;
use crate::rareevent::FormulaYieldProblem;
use crate::report::{pct, ps, TextTable};

/// Settings of the write-path study family.
///
/// Deliberately independent of the context's DOE sizes and Monte-Carlo
/// knobs (own sizes, trials, and seed): each artifact's output is a
/// pure function of these settings and the technology, so its golden
/// CSV is compared strictly in both `repro check` profiles.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct WriteStudySettings {
    /// Array heights of the [`write_time`] ladder.
    pub sizes: Vec<usize>,
    /// Array height of the margin/sense/yield studies.
    pub margin_n: usize,
    /// Monte-Carlo trials of [`write_margin`].
    pub margin_trials: usize,
    /// Monte-Carlo trials of [`sense_margin`].
    pub sense_trials: usize,
    /// RNG seed of every write-family study (independent of the MC
    /// seed).
    pub seed: u64,
    /// LE3 overlay budget (3σ, nm) of the whole family.
    pub le3_overlay_nm: f64,
    /// Sense-amp input-referred offset sigma, V.
    pub sense_offset_sigma_v: f64,
    /// Sense window as a multiple of the nominal formula read time.
    pub sense_window_factor: f64,
    /// Columns of the [`wl_delay`] word line.
    pub wl_columns: usize,
    /// Word-line driver strength relative to the unit NMOS.
    pub wl_driver_strength: f64,
    /// Absolute write-time-penalty margins (percent) of [`write_yield`].
    pub yield_margins_percent: Vec<f64>,
    /// Scaled-sigma proposal multiplier of the yield runs.
    pub sigma_scale: f64,
    /// Soft trial budget per yield run.
    pub yield_max_trials: usize,
    /// First-round trial count of the yield runs.
    pub yield_base_round: usize,
}

impl Default for WriteStudySettings {
    /// A 4–32 write-time ladder, n = 64 margin studies at 3000/2000
    /// trials, an 8 mV offset sense amp with a 1.2× window, a 64-column
    /// word line, and 8%/14% yield margins — all sized to stay in
    /// CI-smoke territory.
    fn default() -> Self {
        Self {
            sizes: vec![4, 8, 16, 32],
            margin_n: 64,
            margin_trials: 3_000,
            sense_trials: 2_000,
            seed: 77,
            le3_overlay_nm: 8.0,
            sense_offset_sigma_v: 0.008,
            sense_window_factor: 1.2,
            wl_columns: 64,
            wl_driver_strength: 8.0,
            yield_margins_percent: vec![8.0, 14.0],
            sigma_scale: 3.0,
            yield_max_trials: 32_768,
            yield_base_round: 2_048,
        }
    }
}

impl WriteStudySettings {
    /// The variation budget of `option` at this family's LE3 overlay.
    ///
    /// # Errors
    ///
    /// Propagates budget validation.
    pub fn budget(&self, option: PatterningOption) -> Result<VariationBudget, CoreError> {
        Ok(VariationBudget::paper_default(option, self.le3_overlay_nm)?)
    }
}

fn write_model(ctx: &ExperimentContext, wc: &WriteConfig) -> Result<AnalyticalModel, CoreError> {
    let params = FormulaParams::derive_write(&ctx.tech, &ctx.cell, wc.vdd_v, wc.driver_strength)?;
    AnalyticalModel::new(params, wc.flip_fraction)
}

// ---------------------------------------------------------------------------
// Write time — nominal and worst-corner flip time per array height
// ---------------------------------------------------------------------------

/// Write-time study: simulated and formula flip times per array height,
/// plus the simulated worst-corner penalty per option.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteTime {
    /// Array heights of the ladder.
    pub sizes: Vec<usize>,
    /// Simulated nominal flip time per size, s.
    pub t_write_sim_s: Vec<f64>,
    /// Write-formula flip time per size, s.
    pub t_write_formula_s: Vec<f64>,
    /// Per option: simulated worst-corner write-time penalty (percent)
    /// per size, in [`PatterningOption::ALL`] order.
    pub penalty_percent: Vec<(PatterningOption, Vec<f64>)>,
}

/// Runs the write-time ladder using the Table I worst corners.
///
/// The nominal geometry is patterning-independent, so the nominal flip
/// time is simulated once per size and shared across options — the
/// write-side mirror of the Fig. 4 study.
///
/// # Errors
///
/// Propagates write-simulation and model failures.
pub fn write_time(ctx: &ExperimentContext, table1: &Table1) -> Result<WriteTime, CoreError> {
    let s = &ctx.write_settings;
    let wc = WriteConfig::default();
    let model = write_model(ctx, &wc)?;
    let threads = ctx.exec.effective_threads();
    let t_write_sim_s = mpvar_exec::try_par_map_indexed(&s.sizes, threads, |_, &n| {
        simulate_write(
            &ctx.tech,
            &ctx.cell,
            &wc,
            n,
            &Draw::nominal(PatterningOption::Euv),
        )
        .map(|out| out.t_write_s)
        .map_err(CoreError::from)
    })?;
    let t_write_formula_s = s.sizes.iter().map(|&n| model.td_nominal_s(n)).collect();
    let n_sizes = s.sizes.len();
    let flat = mpvar_exec::try_par_map_range(table1.worst_cases.len() * n_sizes, threads, |i| {
        let w = &table1.worst_cases[i / n_sizes];
        let n = s.sizes[i % n_sizes];
        simulate_write(&ctx.tech, &ctx.cell, &wc, n, &w.draw)
            .map(|out| out.t_write_s)
            .map_err(CoreError::from)
    })?;
    let penalty_percent = table1
        .worst_cases
        .iter()
        .enumerate()
        .map(|(j, w)| {
            let penalties = flat[j * n_sizes..(j + 1) * n_sizes]
                .iter()
                .zip(&t_write_sim_s)
                .map(|(worst, nom)| (worst / nom - 1.0) * 100.0)
                .collect();
            (w.option, penalties)
        })
        .collect();
    Ok(WriteTime {
        sizes: s.sizes.clone(),
        t_write_sim_s,
        t_write_formula_s,
        penalty_percent,
    })
}

impl WriteTime {
    /// The worst-corner penalty column of one option.
    pub fn penalty_of(&self, option: PatterningOption) -> &[f64] {
        &self
            .penalty_percent
            .iter()
            .find(|(o, _)| *o == option)
            .expect("all options are populated")
            .1
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            "Write time: simulated and formula flip time per array height",
            &[
                "array",
                "t_write sim",
                "t_write formula",
                "twp LELELE",
                "twp SADP",
                "twp EUV",
            ],
        );
        let le3 = self.penalty_of(PatterningOption::Le3);
        let sadp = self.penalty_of(PatterningOption::Sadp);
        let euv = self.penalty_of(PatterningOption::Euv);
        for (i, &n) in self.sizes.iter().enumerate() {
            t.row(&[
                &format!("10x{n}"),
                &ps(self.t_write_sim_s[i]),
                &ps(self.t_write_formula_s[i]),
                &pct(le3[i]),
                &pct(sadp[i]),
                &pct(euv[i]),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Write margin — Monte-Carlo write-time-penalty spread per option
// ---------------------------------------------------------------------------

/// Write-margin study: the Monte-Carlo write-time-penalty distribution
/// summary per option.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteMargin {
    /// Array height of every run.
    pub n: usize,
    /// `(option, sigma %, mean %, min %, max %)` rows in
    /// [`PatterningOption::ALL`] order.
    pub rows: Vec<(PatterningOption, f64, f64, f64, f64)>,
}

/// Runs the write-margin Monte-Carlo on the shared trial farm.
///
/// # Errors
///
/// Propagates Monte-Carlo failures.
pub fn write_margin(ctx: &ExperimentContext) -> Result<WriteMargin, CoreError> {
    let s = &ctx.write_settings;
    let wc = WriteConfig::default();
    let n = s.margin_n;
    let cache = NominalCache::build(&ctx.tech, &ctx.cell, &PatterningOption::ALL)?;
    let options = PatterningOption::ALL;
    let threads = ctx.exec.effective_threads();
    let rows = mpvar_exec::try_par_map_indexed(&options, threads, |_, &option| {
        let budget = s.budget(option)?;
        let d = twp_distribution_with(
            cache.window(option)?,
            &budget,
            n,
            &McConfig {
                trials: s.margin_trials,
                seed: s.seed,
                exec: ctx.exec,
            },
            wc.driver_strength,
            wc.flip_fraction,
        )?;
        Ok::<_, CoreError>((
            option,
            d.sigma_percent(),
            d.summary().mean(),
            d.summary().min(),
            d.summary().max(),
        ))
    })?;
    Ok(WriteMargin { n, rows })
}

impl WriteMargin {
    /// The row of one option.
    pub fn of(&self, option: PatterningOption) -> &(PatterningOption, f64, f64, f64, f64) {
        self.rows
            .iter()
            .find(|(o, _, _, _, _)| *o == option)
            .expect("all options are populated")
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Write margin: Monte-Carlo write-time-penalty spread (n = {})",
                self.n
            ),
            &["option", "sigma (% twp)", "mean", "min", "max"],
        );
        for (option, sigma, mean, min, max) in &self.rows {
            t.row(&[
                option.paper_label(),
                &format!("{sigma:.3}"),
                &format!("{mean:+.3}"),
                &format!("{min:+.2}"),
                &format!("{max:+.2}"),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Sense margin — per-trial sense-amp offset against the MP-skewed RC
// ---------------------------------------------------------------------------

/// Sense-margin study: the interaction of a Gaussian sense-amp input
/// offset with the MP-induced bit-line RC skew.
#[derive(Debug, Clone, PartialEq)]
pub struct SenseMargin {
    /// Array height of every trial.
    pub n: usize,
    /// Sense window, s (a fixed multiple of the nominal formula read
    /// time).
    pub window_s: f64,
    /// Offset sigma, V.
    pub offset_sigma_v: f64,
    /// `(option, failure fraction, mean margin V, sigma margin V)` rows
    /// in [`PatterningOption::ALL`] order.
    pub rows: Vec<(PatterningOption, f64, f64, f64)>,
}

/// Runs the sense-margin Monte-Carlo: per trial, the MP draw fixes the
/// bit-line RC (so the differential developed inside the fixed sense
/// window), the offset is an independent Gaussian, and the read fails
/// when the differential does not clear `sense_dv + offset`.
///
/// Trial `k` consumes RNG substream `k` (draw first, then offset), so
/// the result is independent of evaluation order. Shorted prints are
/// screened out: they are hard yield losses, counted by the read and
/// write yield studies, not sense failures.
///
/// # Errors
///
/// [`CoreError::ShortedDrawsExhausted`] when an option's draws print
/// shorted lines so often that the Monte-Carlo farm's draw cap does not
/// fill the trial budget; otherwise propagates
/// sampling/extraction/model failures.
pub fn sense_margin(ctx: &ExperimentContext) -> Result<SenseMargin, CoreError> {
    let s = &ctx.write_settings;
    let n = s.margin_n;
    let params = FormulaParams::derive(&ctx.tech, &ctx.cell, ctx.read_config.vdd_v)?;
    let level = ctx.read_config.sense_dv_v / ctx.read_config.vdd_v;
    let model = AnalyticalModel::new(params, level)?;
    // td = a·τ at discharge level `level`, so the trial RC constant is
    // recoverable from the formula time.
    let a = -(1.0 - level).ln();
    let window_s = s.sense_window_factor * model.td_nominal_s(n);
    let cache = NominalCache::build(&ctx.tech, &ctx.cell, &PatterningOption::ALL)?;

    let options = PatterningOption::ALL;
    let threads = ctx.exec.effective_threads();
    let rows = mpvar_exec::try_par_map_indexed(&options, threads, |_, &option| {
        let window = cache.window(option)?;
        let budget = s.budget(option)?;
        let base = RngStream::from_seed(s.seed);
        let (margins, _) = farm_trials(
            window,
            &budget,
            &base,
            s.sense_trials,
            threads,
            |var, rng| {
                let tau_s = model.td_s(n, var.r_var, var.c_var) / a;
                let dv_v = ctx.read_config.vdd_v * (1.0 - (-window_s / tau_s).exp());
                let offset_v = s.sense_offset_sigma_v * standard_normal(rng);
                dv_v - ctx.read_config.sense_dv_v - offset_v
            },
        )?;
        let failures = margins.iter().filter(|&&margin_v| margin_v < 0.0).count();
        let summary: mpvar_stats::Summary = margins.iter().copied().collect();
        Ok::<_, CoreError>((
            option,
            failures as f64 / s.sense_trials as f64,
            summary.mean(),
            summary.std_dev(),
        ))
    })?;
    Ok(SenseMargin {
        n,
        window_s,
        offset_sigma_v: s.sense_offset_sigma_v,
        rows,
    })
}

impl SenseMargin {
    /// The row of one option.
    pub fn of(&self, option: PatterningOption) -> &(PatterningOption, f64, f64, f64) {
        self.rows
            .iter()
            .find(|(o, _, _, _)| *o == option)
            .expect("all options are populated")
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Sense margin: offset sigma {:.0} mV inside a {} window (n = {})",
                self.offset_sigma_v * 1e3,
                ps(self.window_s),
                self.n
            ),
            &["option", "failure fraction", "mean margin", "sigma margin"],
        );
        for (option, frac, mean, sigma) in &self.rows {
            t.row(&[
                option.paper_label(),
                &format!("{frac:.4}"),
                &format!("{:.2} mV", mean * 1e3),
                &format!("{:.2} mV", sigma * 1e3),
            ]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Word-line delay — near versus far column from the same population
// ---------------------------------------------------------------------------

/// Word-line delay study: near- and far-column Elmore delay per option
/// at the nominal print and the Table I worst corner.
#[derive(Debug, Clone, PartialEq)]
pub struct WlDelay {
    /// Columns of the word line.
    pub columns: usize,
    /// Nominal near-column delay, s.
    pub near_nominal_s: f64,
    /// Nominal far-column delay, s.
    pub far_nominal_s: f64,
    /// `(option, worst near s, worst far s, far penalty %)` rows in
    /// [`PatterningOption::ALL`] order.
    pub rows: Vec<(PatterningOption, f64, f64, f64)>,
}

/// Elmore delay at column `j` (1-based) of a uniform RC ladder driven
/// through `r_drv`: `R_drv·C_total + Σ_{k≤j} r_w·C_downstream(k)`.
fn elmore_at(j: usize, m: usize, r_drv: f64, r_w: f64, c_cell: f64) -> f64 {
    let c_total = m as f64 * c_cell;
    let mut t = r_drv * c_total;
    for k in 1..=j {
        t += r_w * (m - k + 1) as f64 * c_cell;
    }
    t
}

/// Runs the word-line delay study: the word line is one more track of
/// the same decomposed horizontal-M1 population the bit lines come
/// from, so each option's worst corner stretches it the same way. The
/// per-cell wire RC is extracted from the printed window; every column
/// adds two pass-gate gate loads.
///
/// # Errors
///
/// Propagates extraction failures.
pub fn wl_delay(ctx: &ExperimentContext, table1: &Table1) -> Result<WlDelay, CoreError> {
    let s = &ctx.write_settings;
    let m = s.wl_columns;
    let cache = NominalCache::build(&ctx.tech, &ctx.cell, &PatterningOption::ALL)?;
    let nmos = ctx.tech.nmos();
    let vov = (ctx.read_config.vdd_v - nmos.vth_v()).max(0.05);
    let r_drv = nmos.equivalent_resistance(vov, ctx.read_config.vdd_v) / s.wl_driver_strength;
    // Two access transistors hang off the word line in every cell.
    let c_gate = 2.0 * nmos.c_gate_f() * ctx.cell.sizing().pass_gate;

    let delays = |parasitics: &mpvar_extract::WireParasitics| {
        let r_w = parasitics.resistance_ohm();
        let c_cell = parasitics.c_total_f() + c_gate;
        (
            elmore_at(1, m, r_drv, r_w, c_cell),
            elmore_at(m, m, r_drv, r_w, c_cell),
        )
    };

    // The nominal print is patterning-independent.
    let nominal_window = cache.window(PatterningOption::Euv)?;
    let (near_nominal_s, far_nominal_s) = delays(nominal_window.nominal());

    let mut rows = Vec::new();
    for w in &table1.worst_cases {
        let window = cache.window(w.option)?;
        let printed = apply_draw(window.stack(), &w.draw)?;
        let parasitics = extract_track(&printed, window.bl_index(), window.metal())?;
        let (near, far) = delays(&parasitics);
        rows.push((w.option, near, far, (far / far_nominal_s - 1.0) * 100.0));
    }
    Ok(WlDelay {
        columns: m,
        near_nominal_s,
        far_nominal_s,
        rows,
    })
}

impl WlDelay {
    /// The row of one option.
    pub fn of(&self, option: PatterningOption) -> &(PatterningOption, f64, f64, f64) {
        self.rows
            .iter()
            .find(|(o, _, _, _)| *o == option)
            .expect("all options are populated")
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Word-line delay: near vs far column over {} columns (nominal far {})",
                self.columns,
                ps(self.far_nominal_s)
            ),
            &["option", "near (worst)", "far (worst)", "far penalty"],
        );
        for (option, near, far, penalty) in &self.rows {
            t.row(&[option.paper_label(), &ps(*near), &ps(*far), &pct(*penalty)]);
        }
        t
    }
}

// ---------------------------------------------------------------------------
// Write yield — rare-event write-failure probability per option
// ---------------------------------------------------------------------------

/// One row of [`WriteYieldTable`]: the write- and read-model failure
/// probabilities of one option at one margin.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteYieldRow {
    /// Patterning option.
    pub option: PatterningOption,
    /// Timing margin (percent penalty) defining failure.
    pub margin_percent: f64,
    /// Write-model failure probability.
    pub write_p_fail: f64,
    /// Write-model CI lower bound.
    pub ci_lo: f64,
    /// Write-model CI upper bound.
    pub ci_hi: f64,
    /// Trials consumed by the write run.
    pub trials: u64,
    /// Whether the write run's stopping rule (not the budget) ended it.
    pub converged: bool,
    /// Read-model failure probability at the same margin, for the
    /// side-by-side comparison.
    pub read_p_fail: f64,
}

/// Write-yield study: importance-sampled write-failure probability per
/// option and margin, next to the read-model probability.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteYieldTable {
    /// Array height of every run.
    pub n: usize,
    /// All rows, option-major in [`PatterningOption::ALL`] order.
    pub rows: Vec<WriteYieldRow>,
}

/// Runs the write-yield study: per option and margin, an adaptive
/// scaled-sigma importance-sampling run of the *write* analytical model
/// (failure = shorted print OR write-time penalty above the margin)
/// through the same [`FormulaYieldProblem`] machinery the read yield
/// uses, plus a read-model run at the same margin for the side-by-side
/// column. All of an option's write and read runs share one draw stream
/// through [`mpvar_yield::run_yields`]; each run is bit-identical to the
/// run it would be alone.
///
/// Runs are deterministic and bit-identical at any thread count.
///
/// # Errors
///
/// Propagates tech/extraction/yield-engine failures.
pub fn write_yield(ctx: &ExperimentContext) -> Result<WriteYieldTable, CoreError> {
    let s = &ctx.write_settings;
    let wc = WriteConfig::default();
    let n = s.margin_n;
    let w_model = write_model(ctx, &wc)?;
    let read_params = FormulaParams::derive(&ctx.tech, &ctx.cell, ctx.read_config.vdd_v)?;
    let r_model = AnalyticalModel::new(
        read_params,
        ctx.read_config.sense_dv_v / ctx.read_config.vdd_v,
    )?;
    let options = PatterningOption::ALL;
    let cache = NominalCache::build(&ctx.tech, &ctx.cell, &options)?;
    let threads = ctx.exec.effective_threads();
    let per_option = mpvar_exec::try_par_map_indexed(&options, threads, |_, &option| {
        let window = cache.window(option)?;
        let budget = s.budget(option)?;
        // One shared draw stream per option: criterion `2i` is the
        // write model at margin `i`, criterion `2i + 1` the read model.
        let criteria = s
            .yield_margins_percent
            .iter()
            .flat_map(|&margin| [(w_model, margin), (r_model, margin)])
            .collect::<Vec<_>>();
        let mut rows = Vec::with_capacity(s.yield_margins_percent.len());
        if criteria.is_empty() {
            return Ok(rows);
        }
        let problem = FormulaYieldProblem::with_criteria(window, &budget, n, criteria)?;
        let cfg = YieldConfig::new(
            problem.map().domain()?,
            Proposal::ScaledSigma {
                scale: s.sigma_scale,
            },
        )
        .seed(s.seed)
        .base_round(s.yield_base_round)
        .max_trials(s.yield_max_trials)
        .exec(ctx.exec);
        let runs = run_yields(&problem, &cfg)?;
        for (&margin, pair) in s.yield_margins_percent.iter().zip(runs.chunks_exact(2)) {
            let (write_run, read_run) = (&pair[0], &pair[1]);
            let est = write_run.estimate(0.95)?;
            rows.push(WriteYieldRow {
                option,
                margin_percent: margin,
                write_p_fail: est.p_fail,
                ci_lo: est.ci_lo,
                ci_hi: est.ci_hi,
                trials: est.trials,
                converged: write_run.converged(),
                read_p_fail: read_run.estimate(0.95)?.p_fail,
            });
        }
        Ok::<Vec<WriteYieldRow>, CoreError>(rows)
    })?;
    Ok(WriteYieldTable {
        n,
        rows: per_option.into_iter().flatten().collect(),
    })
}

impl WriteYieldTable {
    /// Rows of one option, in emission order.
    pub fn rows_of(&self, option: PatterningOption) -> impl Iterator<Item = &WriteYieldRow> + '_ {
        self.rows.iter().filter(move |r| r.option == option)
    }

    /// Renders the report table.
    pub fn report(&self) -> TextTable {
        let mut t = TextTable::new(
            &format!(
                "Write yield: importance-sampled write-failure probability (n = {})",
                self.n
            ),
            &[
                "option",
                "margin",
                "write p_fail",
                "ci_lo",
                "ci_hi",
                "trials",
                "converged",
                "read p_fail",
            ],
        );
        for r in &self.rows {
            t.row(&[
                r.option.paper_label(),
                &format!("{:.1}%", r.margin_percent),
                &format!("{:.6e}", r.write_p_fail),
                &format!("{:.6e}", r.ci_lo),
                &format!("{:.6e}", r.ci_hi),
                &r.trials.to_string(),
                if r.converged { "yes" } else { "no" },
                &format!("{:.6e}", r.read_p_fail),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{table1, ExperimentContext};

    fn ctx() -> ExperimentContext {
        ExperimentContext::quick().unwrap()
    }

    #[test]
    fn write_time_grows_with_height_and_tracks_the_formula() {
        let c = ctx();
        let t1 = table1(&c).unwrap();
        let wt = write_time(&c, &t1).unwrap();
        assert_eq!(wt.sizes, vec![4, 8, 16, 32]);
        for pair in wt.t_write_sim_s.windows(2) {
            assert!(pair[1] > pair[0], "sim write time not growing: {pair:?}");
        }
        for pair in wt.t_write_formula_s.windows(2) {
            assert!(pair[1] > pair[0], "formula not growing: {pair:?}");
        }
        // LE3 penalty dominates at the tallest column.
        let last = wt.sizes.len() - 1;
        let le3 = wt.penalty_of(PatterningOption::Le3)[last];
        let sadp = wt.penalty_of(PatterningOption::Sadp)[last];
        assert!(le3 > sadp, "LE3 {le3}% vs SADP {sadp}%");
        assert!(le3 > 0.0);
        assert!(wt.report().render().contains("twp"));
    }

    #[test]
    fn write_margin_spread_orders_like_table4() {
        let mut c = ctx();
        c.write_settings.margin_trials = 800;
        let wm = write_margin(&c).unwrap();
        assert_eq!(wm.rows.len(), 3);
        let le3 = wm.of(PatterningOption::Le3).1;
        let sadp = wm.of(PatterningOption::Sadp).1;
        let euv = wm.of(PatterningOption::Euv).1;
        assert!(le3 > 2.0 * sadp, "LE3 {le3} vs SADP {sadp}");
        assert!(le3 > euv, "LE3 {le3} vs EUV {euv}");
        assert!(wm.report().render().contains("sigma"));
        // Determinism across thread counts.
        let mut c1 = c.clone();
        c1.exec = mpvar_exec::ExecConfig::with_threads(1);
        let wm1 = write_margin(&c1).unwrap();
        for (a, b) in wm.rows.iter().zip(&wm1.rows) {
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn sense_margin_fails_more_under_le3() {
        let mut c = ctx();
        c.write_settings.sense_trials = 600;
        let sm = sense_margin(&c).unwrap();
        assert_eq!(sm.rows.len(), 3);
        let le3 = sm.of(PatterningOption::Le3);
        let sadp = sm.of(PatterningOption::Sadp);
        // The nominal margin clears comfortably, so failures are driven
        // by the RC tail ∩ offset tail: the wide-spread option fails at
        // least as often, and its margin spread is strictly wider.
        assert!(le3.1 >= sadp.1, "LE3 frac {} vs SADP {}", le3.1, sadp.1);
        assert!(le3.3 > sadp.3, "LE3 sigma {} vs SADP {}", le3.3, sadp.3);
        // Every row keeps a positive mean margin (the periphery is
        // sized to work at nominal).
        for (option, frac, mean, _) in &sm.rows {
            assert!(*mean > 0.0, "{option}: mean margin {mean}");
            assert!(*frac < 0.5, "{option}: failure fraction {frac}");
        }
        assert!(sm.report().render().contains("failure fraction"));
    }

    #[test]
    fn sense_margin_gives_up_on_an_always_shorting_budget() {
        let mut c = ctx();
        c.write_settings.sense_trials = 50;
        // A 1 mm overlay 3σ shorts LE3's bit line on every draw.
        c.write_settings.le3_overlay_nm = 1e6;
        match sense_margin(&c) {
            Err(CoreError::ShortedDrawsExhausted {
                option,
                attempts,
                evaluated,
            }) => {
                assert_eq!(option, PatterningOption::Le3.to_string());
                // The Monte-Carlo farm's cap: 20 draws per trial + 1000.
                assert_eq!(attempts, 20 * 50 + 1000);
                assert!(evaluated < 50, "evaluated {evaluated}");
            }
            other => panic!("expected ShortedDrawsExhausted, got {other:?}"),
        }
    }

    #[test]
    fn wl_delay_far_column_at_least_near() {
        let c = ctx();
        let t1 = table1(&c).unwrap();
        let wl = wl_delay(&c, &t1).unwrap();
        assert!(wl.far_nominal_s > wl.near_nominal_s);
        for (option, near, far, penalty) in &wl.rows {
            assert!(far > near, "{option}: far {far} vs near {near}");
            assert!(penalty.is_finite());
        }
        // LE3's worst corner stretches the far column the most.
        let le3 = wl.of(PatterningOption::Le3).3;
        let sadp = wl.of(PatterningOption::Sadp).3;
        assert!(le3 > sadp, "LE3 {le3}% vs SADP {sadp}%");
        assert!(wl.report().render().contains("far"));
    }

    #[test]
    fn write_yield_le3_dominates_and_sits_next_to_read() {
        let mut c = ctx();
        c.write_settings.yield_max_trials = 8_192;
        let wy = write_yield(&c).unwrap();
        assert_eq!(wy.rows.len(), 6);
        let le3: Vec<_> = wy.rows_of(PatterningOption::Le3).collect();
        let sadp: Vec<_> = wy.rows_of(PatterningOption::Sadp).collect();
        // At the shallow margin the heavy-tailed option fails more.
        assert!(
            le3[0].write_p_fail > sadp[0].write_p_fail,
            "LE3 {} vs SADP {}",
            le3[0].write_p_fail,
            sadp[0].write_p_fail
        );
        // Deeper margins never fail more often.
        assert!(le3[1].write_p_fail <= le3[0].write_p_fail);
        // The read column is populated (same margin, read model).
        assert!(le3[0].read_p_fail.is_finite());
        assert!(wy.report().render().contains("read p_fail"));
    }

    #[test]
    fn settings_are_profile_invariant() {
        let quick = ExperimentContext::quick().unwrap();
        let paper = ExperimentContext::paper().unwrap();
        assert_eq!(quick.write_settings, paper.write_settings);
    }
}
