//! Monte-Carlo distribution of the read-time penalty (paper §III.B).
//!
//! Each trial samples one process-variation draw, prints the bit-line
//! window, extracts `R_var`/`C_var`, and evaluates the analytical
//! formula — "this formula ... allows a fast extraction of the
//! statistical distribution of the read time penalty, using the
//! Monte-Carlo method". Draws whose geometry shorts (deep-tail overlay
//! events) are yield losses, not timing samples; they are counted and
//! excluded, mirroring inspection screening.
//!
//! # Parallel execution
//!
//! Trial `k` always consumes RNG substream `k`, so trials are farmed to
//! worker threads by contiguous substream-index chunks (`mpvar-exec`)
//! and the sample vector is **bit-identical to the sequential run for a
//! given seed regardless of thread count**. Shorted draws are tallied
//! per index during the deterministic in-order merge, never from racy
//! shared counters.

use std::ops::ControlFlow;

use mpvar_exec::ExecConfig;
use mpvar_extract::RelativeVariation;
use mpvar_litho::{sample_draw, Draw};
use mpvar_sram::BitcellGeometry;
use mpvar_stats::{Histogram, RngStream, Summary};
use mpvar_tech::{PatterningOption, TechDb, VariationBudget};
use mpvar_trace::names;

use crate::error::CoreError;
use crate::nominal::NominalWindow;

/// Monte-Carlo configuration.
///
/// Construct via [`McConfig::default`] or [`McConfig::builder`]; the
/// struct is `#[non_exhaustive]` so future knobs are not breaking
/// changes (fields stay public for reading and in-place mutation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct McConfig {
    /// Number of trials.
    pub trials: usize,
    /// RNG seed (every run with the same seed is bit-identical).
    pub seed: u64,
    /// Thread-count knob for the parallel trial farm. Results are
    /// bit-identical for any setting; `ExecConfig::SERIAL` recovers the
    /// sequential code path exactly.
    pub exec: ExecConfig,
}

impl Default for McConfig {
    /// 20 000 trials, seed 2015 (the paper's year), all cores.
    fn default() -> Self {
        Self {
            trials: 20_000,
            seed: 2015,
            exec: ExecConfig::default(),
        }
    }
}

impl McConfig {
    /// A builder starting from the defaults.
    ///
    /// ```
    /// use mpvar_core::montecarlo::McConfig;
    ///
    /// let mc = McConfig::builder().trials(500).seed(7).threads(1).build();
    /// assert_eq!((mc.trials, mc.seed), (500, 7));
    /// assert_eq!(mc.exec.effective_threads(), 1);
    /// ```
    pub fn builder() -> McConfigBuilder {
        McConfigBuilder {
            cfg: Self::default(),
        }
    }
}

/// Builder for [`McConfig`].
#[derive(Debug, Clone, Copy)]
pub struct McConfigBuilder {
    cfg: McConfig,
}

impl McConfigBuilder {
    /// Sets the trial count.
    #[must_use]
    pub fn trials(mut self, trials: usize) -> Self {
        self.cfg.trials = trials;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the trial-farm thread configuration.
    #[must_use]
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.cfg.exec = exec;
        self
    }

    /// Pins the trial farm to `threads` workers.
    #[must_use]
    pub fn threads(self, threads: usize) -> Self {
        self.exec(ExecConfig::with_threads(threads))
    }

    /// Finalizes the configuration.
    pub fn build(self) -> McConfig {
        self.cfg
    }
}

/// The sampled `tdp` distribution of one patterning option.
#[derive(Debug, Clone, PartialEq)]
pub struct TdpDistribution {
    option: PatterningOption,
    n: usize,
    samples_percent: Vec<f64>,
    summary: Summary,
    shorted_draws: usize,
}

impl TdpDistribution {
    /// Reassembles a distribution from its stored parts — the inverse
    /// of reading every accessor, used by the `mpvar-study` artifact
    /// codec to round-trip persisted results bit-exactly. Values are
    /// taken verbatim (in particular `summary` is NOT re-derived from
    /// the samples, preserving the original accumulation order), so
    /// feed this only parts that came from a real distribution.
    pub fn from_parts(
        option: PatterningOption,
        n: usize,
        samples_percent: Vec<f64>,
        summary: Summary,
        shorted_draws: usize,
    ) -> TdpDistribution {
        TdpDistribution {
            option,
            n,
            samples_percent,
            summary,
            shorted_draws,
        }
    }

    /// The patterning option sampled.
    pub fn option(&self) -> PatterningOption {
        self.option
    }

    /// The array size the formula was evaluated at.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-trial `tdp` values, in percent.
    pub fn samples_percent(&self) -> &[f64] {
        &self.samples_percent
    }

    /// Summary statistics of `tdp` (percent).
    pub fn summary(&self) -> &Summary {
        &self.summary
    }

    /// The standard deviation of `tdp` in percent — Table IV's metric.
    pub fn sigma_percent(&self) -> f64 {
        self.summary.std_dev()
    }

    /// Sampled draws that printed shorted geometry and were excluded.
    pub fn shorted_draws(&self) -> usize {
        self.shorted_draws
    }

    /// Histogram of the distribution (Fig. 5).
    ///
    /// # Errors
    ///
    /// Propagates histogram construction failure (degenerate range).
    pub fn histogram(&self, bins: usize) -> Result<Histogram, CoreError> {
        Ok(Histogram::from_data(&self.samples_percent, bins)?)
    }
}

/// Samples the `tdp` distribution of `option` at array size `n` using
/// the analytical formula with extracted `R_var`/`C_var` per trial.
///
/// # Errors
///
/// Propagated tech/extraction/statistics failures (per-trial shorted
/// geometry is handled internally, not an error).
pub fn tdp_distribution(
    tech: &TechDb,
    cell: &BitcellGeometry,
    option: PatterningOption,
    budget: &VariationBudget,
    n: usize,
    config: &McConfig,
) -> Result<TdpDistribution, CoreError> {
    let window = NominalWindow::build(tech, cell, option)?;
    tdp_distribution_with(&window, budget, n, config)
}

/// The outcome of evaluating one trial index: a sample, `None` when the
/// draw printed shorted geometry (a yield loss, excluded from the trial
/// count entirely, which mirrors inspection screening), or a hard
/// error.
type TrialResult = Result<Option<f64>, CoreError>;

/// In-order merge state for the round-based trial farm.
struct Farm {
    trials: usize,
    samples: Vec<f64>,
    shorted: usize,
    /// Earliest per-trial hard error, surfaced after the dispatch loop
    /// (kept out of the chunk error channel so an error *after* the
    /// final accepted sample is ignored, exactly like a sequential
    /// loop that stops first).
    error: Option<CoreError>,
}

/// Farms trial indices through [`mpvar_exec::dispatch_rounds`] until
/// `trials` samples are collected: each round's size is the current
/// deficit, so the rounds (and their chunks) do not depend on the
/// thread count; outcomes merge in global index order, and indices past
/// the final sample are discarded — so samples, shorted counts, and
/// surfaced errors are bit-identical to a sequential scan for any
/// thread count.
///
/// Trial `k` samples its draw from substream `k` of `base`. A chunk
/// samples all its draws, prints them as one batch through `window`,
/// and hands each printed trial's variation to `sample` together with
/// the trial's substream, positioned after the draw. A shorted or
/// collapsed print is a yield loss: skipped and counted, not a sample.
///
/// # Errors
///
/// The earliest per-trial error before the final sample, or
/// [`CoreError::ShortedDrawsExhausted`] when `20 · trials + 1000`
/// indices leave fewer than `trials` samples.
pub(crate) fn farm_trials(
    window: &NominalWindow<'_>,
    budget: &VariationBudget,
    base: &RngStream,
    trials: usize,
    threads: usize,
    sample: impl Fn(RelativeVariation, &mut RngStream) -> f64 + Sync,
) -> Result<(Vec<f64>, usize), CoreError> {
    let option = window.option();
    let eval_chunk = |range: std::ops::Range<usize>| -> Vec<TrialResult> {
        let mut rngs: Vec<RngStream> = range.map(|k| base.substream(k as u64)).collect();
        let sampled: Vec<Result<Draw, CoreError>> = rngs
            .iter_mut()
            .map(|rng| sample_draw(option, budget, rng).map_err(CoreError::from))
            .collect();
        let draws: Vec<Draw> = sampled
            .iter()
            .filter_map(|d| d.as_ref().ok())
            .copied()
            .collect();
        let mut vars = Vec::with_capacity(draws.len());
        window.variation_batch(&draws, &mut vars);
        let mut vars = vars.into_iter();
        sampled
            .into_iter()
            .zip(&mut rngs)
            .map(|(draw, rng)| {
                draw?;
                let var = vars.next().expect("one variation per sampled draw");
                Ok(var?.map(|var| sample(var, rng)))
            })
            .collect()
    };
    // Hard stop so a pathological budget cannot loop forever: trial
    // indices beyond this bound mean the budget shorts essentially
    // every draw.
    let limit = 20usize.saturating_mul(trials).saturating_add(1000);
    let mut farm = Farm {
        trials,
        samples: Vec::with_capacity(trials),
        shorted: 0,
        error: None,
    };
    mpvar_exec::dispatch_rounds(
        &mut farm,
        names::SPAN_MC_WAVE,
        limit,
        threads,
        |farm, _round, _consumed| {
            if farm.samples.len() >= farm.trials {
                0
            } else {
                farm.trials - farm.samples.len()
            }
        },
        |range| Ok::<Vec<TrialResult>, std::convert::Infallible>(eval_chunk(range)),
        |farm, outcome| match outcome {
            Ok(Some(s)) => {
                farm.samples.push(s);
                if farm.samples.len() == farm.trials {
                    ControlFlow::Break(())
                } else {
                    ControlFlow::Continue(())
                }
            }
            Ok(None) => {
                farm.shorted += 1;
                ControlFlow::Continue(())
            }
            Err(e) => {
                farm.error = Some(e);
                ControlFlow::Break(())
            }
        },
    )
    .unwrap_or_else(|e| match e {});
    if let Some(e) = farm.error {
        return Err(e);
    }
    if farm.samples.len() < farm.trials {
        // The dispatcher consumed all `limit` indices first.
        return Err(CoreError::ShortedDrawsExhausted {
            option: option.to_string(),
            attempts: limit as u64,
            evaluated: farm.samples.len(),
        });
    }
    Ok((farm.samples, farm.shorted))
}

/// [`tdp_distribution`] against a precomputed [`NominalWindow`] — the
/// cache-aware entry point used by the experiment matrix so the nominal
/// setup is derived once per option instead of once per cell.
///
/// # Errors
///
/// Propagated tech/extraction/statistics failures (per-trial shorted
/// geometry is handled internally, not an error).
pub fn tdp_distribution_with(
    window: &NominalWindow<'_>,
    budget: &VariationBudget,
    n: usize,
    config: &McConfig,
) -> Result<TdpDistribution, CoreError> {
    let params = mpvar_sram::FormulaParams::derive(window.tech(), window.cell(), 0.7)?;
    let model = crate::formula::AnalyticalModel::new(params, 0.10)?;
    penalty_distribution_with(window, budget, n, config, &model)
}

/// The *write-time* penalty distribution: the same decomposed-M1
/// population and trial farm as [`tdp_distribution_with`], but the
/// analytical model is built from the write-path parameters (driver +
/// pass gate in series, [`mpvar_sram::FormulaParams::derive_write`]) at
/// the flip level instead of the sense level. Samples are write-time
/// penalty in percent; the summary's sigma is the write-margin spread.
///
/// # Errors
///
/// Propagated tech/extraction/statistics failures, or invalid
/// `driver_strength`/`flip_fraction`.
pub(crate) fn twp_distribution_with(
    window: &NominalWindow<'_>,
    budget: &VariationBudget,
    n: usize,
    config: &McConfig,
    driver_strength: f64,
    flip_fraction: f64,
) -> Result<TdpDistribution, CoreError> {
    let params = mpvar_sram::FormulaParams::derive_write(
        window.tech(),
        window.cell(),
        0.7,
        driver_strength,
    )?;
    let model = crate::formula::AnalyticalModel::new(params, flip_fraction)?;
    penalty_distribution_with(window, budget, n, config, &model)
}

/// Shared formula-route penalty farm behind [`tdp_distribution_with`]
/// and [`twp_distribution_with`]: only the analytical model differs.
fn penalty_distribution_with(
    window: &NominalWindow<'_>,
    budget: &VariationBudget,
    n: usize,
    config: &McConfig,
    model: &crate::formula::AnalyticalModel,
) -> Result<TdpDistribution, CoreError> {
    let option = window.option();
    if config.trials == 0 {
        return Err(CoreError::InvalidParameter {
            name: "trials",
            value: 0.0,
            constraint: "must be at least 1",
        });
    }

    let _dist_span = mpvar_trace::span!(
        names::SPAN_MC_DISTRIBUTION,
        option = option.to_string(),
        n = n,
        trials = config.trials,
    );
    let traced = mpvar_trace::enabled();
    let started = traced.then(std::time::Instant::now);

    let base = RngStream::from_seed(config.seed);
    let threads = config.exec.effective_threads();
    let (samples, shorted) =
        farm_trials(window, budget, &base, config.trials, threads, |var, _| {
            model.tdp_percent(n, var.r_var, var.c_var)
        })?;

    if traced {
        mpvar_trace::counter_add(names::MC_TRIALS, samples.len() as u64);
        mpvar_trace::counter_add(names::MC_SHORTED, shorted as u64);
        if let Some(started) = started {
            let secs = started.elapsed().as_secs_f64();
            if secs > 0.0 {
                mpvar_trace::gauge_set(names::MC_TRIALS_PER_SEC, samples.len() as f64 / secs);
            }
        }
        // Fixed ±50% tdp buckets in 5% steps, shared by every run so
        // exported histograms are directly comparable.
        let bounds: Vec<f64> = (-10..=10).map(|i| f64::from(i) * 5.0).collect();
        mpvar_trace::histogram_record(names::MC_TDP_PERCENT, &bounds, &samples);
    }

    let summary = samples.iter().copied().collect();
    Ok(TdpDistribution {
        option,
        n,
        samples_percent: samples,
        summary,
        shorted_draws: shorted,
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

    fn dist(option: PatterningOption, ol: f64, trials: usize) -> TdpDistribution {
        let (tech, cell) = setup();
        let budget = VariationBudget::paper_default(option, ol).unwrap();
        tdp_distribution(
            &tech,
            &cell,
            option,
            &budget,
            64,
            &McConfig {
                trials,
                seed: 7,
                ..McConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn an_always_shorting_budget_exhausts_its_draws() {
        let (tech, cell) = setup();
        // A 1 mm overlay 3σ shorts LE3's bit line on every draw.
        let budget = VariationBudget::paper_default(PatterningOption::Le3, 1e6).unwrap();
        let config = McConfig {
            trials: 50,
            ..McConfig::default()
        };
        match tdp_distribution(&tech, &cell, PatterningOption::Le3, &budget, 64, &config) {
            Err(CoreError::ShortedDrawsExhausted {
                option,
                attempts,
                evaluated,
            }) => {
                assert_eq!(option, PatterningOption::Le3.to_string());
                assert_eq!(attempts, 20 * 50 + 1000);
                assert!(evaluated < 50, "evaluated {evaluated}");
            }
            other => panic!("expected ShortedDrawsExhausted, got {other:?}"),
        }
    }

    #[test]
    fn distributions_center_near_zero() {
        for option in PatterningOption::ALL {
            let d = dist(option, 8.0, 4000);
            assert_eq!(d.samples_percent().len(), 4000);
            // Mean tdp near 0 (variation is zero-mean), slight positive
            // skew for LE3 (coupling is convex in gap).
            assert!(
                d.summary().mean().abs() < 2.0,
                "{option}: mean {}",
                d.summary().mean()
            );
        }
    }

    #[test]
    fn le3_sigma_dominates_and_grows_with_overlay() {
        let le3_8 = dist(PatterningOption::Le3, 8.0, 4000).sigma_percent();
        let le3_3 = dist(PatterningOption::Le3, 3.0, 4000).sigma_percent();
        let sadp = dist(PatterningOption::Sadp, 8.0, 4000).sigma_percent();
        let euv = dist(PatterningOption::Euv, 8.0, 4000).sigma_percent();
        // Table IV's qualitative content.
        assert!(le3_8 > le3_3, "OL raises sigma: {le3_8} vs {le3_3}");
        assert!(le3_8 > 1.5 * sadp, "LE3(8nm) {le3_8} vs SADP {sadp}");
        assert!(le3_8 > euv, "LE3(8nm) {le3_8} vs EUV {euv}");
        // With tight 3nm OL, LE3 approaches the others (paper's
        // conclusion).
        assert!(le3_3 < 2.5 * euv.max(sadp), "le3_3 = {le3_3}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = dist(PatterningOption::Sadp, 8.0, 500);
        let b = dist(PatterningOption::Sadp, 8.0, 500);
        assert_eq!(a.samples_percent(), b.samples_percent());
        assert_eq!(a.sigma_percent(), b.sigma_percent());
    }

    #[test]
    fn histogram_covers_all_samples() {
        let d = dist(PatterningOption::Le3, 8.0, 2000);
        let h = d.histogram(40).unwrap();
        assert_eq!(h.total(), 2000);
        assert_eq!(h.underflow() + h.overflow(), 0);
    }

    #[test]
    fn zero_trials_rejected() {
        let (tech, cell) = setup();
        let budget = VariationBudget::paper_default(PatterningOption::Euv, 8.0).unwrap();
        assert!(tdp_distribution(
            &tech,
            &cell,
            PatterningOption::Euv,
            &budget,
            64,
            &McConfig {
                trials: 0,
                seed: 1,
                ..McConfig::default()
            }
        )
        .is_err());
    }

    #[test]
    fn accessors() {
        let d = dist(PatterningOption::Euv, 8.0, 100);
        assert_eq!(d.option(), PatterningOption::Euv);
        assert_eq!(d.n(), 64);
        assert_eq!(d.shorted_draws(), 0);
    }

    #[test]
    fn write_penalty_distribution_runs_on_the_same_farm() {
        let (tech, cell) = setup();
        let budget = VariationBudget::paper_default(PatterningOption::Le3, 8.0).unwrap();
        let window =
            crate::nominal::NominalWindow::build(&tech, &cell, PatterningOption::Le3).unwrap();
        let cfg = McConfig::builder().trials(2000).seed(9).build();
        let write = twp_distribution_with(&window, &budget, 64, &cfg, 4.0, 0.5).unwrap();
        let read = tdp_distribution_with(&window, &budget, 64, &cfg).unwrap();
        assert_eq!(write.samples_percent().len(), 2000);
        // Same zero-mean population, both percent-scale spreads.
        assert!(write.summary().mean().abs() < 2.0);
        assert!(write.sigma_percent() > 0.1);
        // The write path is more FET-dominated (driver + pass in a
        // stiffer series path), so wire-induced spread differs from the
        // read's but stays in the same family.
        let ratio = write.sigma_percent() / read.sigma_percent();
        assert!(ratio > 0.2 && ratio < 5.0, "ratio {ratio}");
        // Determinism: same seed, same bits.
        let again = twp_distribution_with(&window, &budget, 64, &cfg, 4.0, 0.5).unwrap();
        assert_eq!(write.samples_percent(), again.samples_percent());
    }
}
