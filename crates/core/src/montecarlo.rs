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

use mpvar_exec::ExecConfig;
use mpvar_extract::{extract_track, RelativeVariation};
use mpvar_litho::{apply_draw, sample_draw, Draw};
use mpvar_sram::{
    simulate_read, simulate_read_batch_in, BitcellGeometry, ReadBatchScratch, ReadConfig,
    ReadOutcome, SramError,
};
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
    failed_reads: usize,
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
        failed_reads: usize,
    ) -> TdpDistribution {
        TdpDistribution {
            option,
            n,
            samples_percent,
            summary,
            shorted_draws,
            failed_reads,
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

    /// Trials whose read never tripped the sense threshold — *measured
    /// failures* that consumed a trial slot without contributing a `td`
    /// sample. Always 0 on the formula route; on the SPICE route a
    /// pathological trial lands here instead of aborting the wave.
    pub fn failed_reads(&self) -> usize {
        self.failed_reads
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

/// How one evaluated trial index resolved, before the in-order merge
/// decides which indices actually count.
enum TrialResolution {
    /// A measured `tdp` sample.
    Sample(f64),
    /// The draw printed shorted geometry: a yield loss, excluded from
    /// the trial count entirely (mirrors inspection screening).
    Shorted,
    /// The simulated operation never completed (e.g. the sense never
    /// tripped): a *measured failure* that consumes its trial slot but
    /// contributes no sample — one pathological trial must not abort
    /// the other lanes of its wave.
    Failed,
}

/// The outcome of evaluating one trial index.
type TrialResult = Result<TrialResolution, CoreError>;

/// In-order merge state for the round-based trial farm.
struct Farm {
    trials: usize,
    threads: usize,
    samples: Vec<f64>,
    shorted: usize,
    failed: usize,
    /// Earliest per-trial hard error, surfaced after the dispatch loop
    /// (kept out of the chunk error channel so an error *after* the
    /// final accepted sample is ignored, exactly like a sequential
    /// loop that stops first).
    error: Option<CoreError>,
}

impl Farm {
    /// Trial slots consumed so far (samples plus measured failures).
    fn consumed(&self) -> usize {
        self.samples.len() + self.failed
    }
}

/// Farms trial indices through [`mpvar_exec::dispatch_rounds`] until
/// `trials` slots are consumed by non-shorted trials (samples plus
/// measured failures): each round's size is the current deficit (at
/// least one index per worker), outcomes merge in global index order,
/// and indices past the final consumed slot are discarded — so samples,
/// shorted/failed counts, and surfaced errors are bit-identical to a
/// sequential scan for any thread count.
///
/// `eval_chunk` receives **global** trial-index ranges; trial `k` must
/// consume RNG substream `k`.
fn farm_trials<F>(
    option: PatterningOption,
    trials: usize,
    threads: usize,
    eval_chunk: F,
) -> Result<(Vec<f64>, usize, usize), CoreError>
where
    F: Fn(std::ops::Range<usize>) -> Vec<TrialResult> + Sync,
{
    // Hard stop so a pathological budget cannot loop forever: trial
    // indices beyond this bound mean the budget shorts essentially
    // every draw.
    let limit = 20usize.saturating_mul(trials).saturating_add(1000);
    let mut farm = Farm {
        trials,
        threads,
        samples: Vec::with_capacity(trials),
        shorted: 0,
        failed: 0,
        error: None,
    };
    mpvar_exec::dispatch_rounds(
        &mut farm,
        names::SPAN_MC_WAVE,
        limit,
        threads,
        |farm, _round, _consumed| {
            if farm.consumed() >= farm.trials {
                0
            } else {
                (farm.trials - farm.consumed()).max(farm.threads)
            }
        },
        |range| Ok::<Vec<TrialResult>, std::convert::Infallible>(eval_chunk(range)),
        |farm, outcome| {
            match outcome {
                Ok(TrialResolution::Sample(s)) => farm.samples.push(s),
                Ok(TrialResolution::Shorted) => {
                    farm.shorted += 1;
                    return std::ops::ControlFlow::Continue(());
                }
                Ok(TrialResolution::Failed) => farm.failed += 1,
                Err(e) => {
                    farm.error = Some(e);
                    return std::ops::ControlFlow::Break(());
                }
            }
            if farm.consumed() == farm.trials {
                std::ops::ControlFlow::Break(())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        },
    )
    .unwrap_or_else(|e| match e {});
    if let Some(e) = farm.error {
        return Err(e);
    }
    if farm.consumed() < farm.trials {
        // The dispatcher exhausted `limit` indices first.
        return Err(CoreError::NoFeasibleCorner {
            option: option.to_string(),
        });
    }
    Ok((farm.samples, farm.shorted, farm.failed))
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
pub fn twp_distribution_with(
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
    // Trial k consumes substream k: a sample, a shorted draw (yield
    // loss, skipped), or a hard error.
    let eval = |k: u64| -> TrialResult {
        let mut rng = base.substream(k);
        let draw = sample_draw(option, budget, &mut rng)?;
        let printed = match apply_draw(window.stack(), &draw) {
            Ok(p) => p,
            Err(_) => return Ok(TrialResolution::Shorted),
        };
        let parasitics = extract_track(&printed, window.bl_index(), window.metal())?;
        let var = RelativeVariation::between(window.nominal(), &parasitics);
        Ok(TrialResolution::Sample(
            model.tdp_percent(n, var.r_var, var.c_var),
        ))
    };

    let threads = config.exec.effective_threads();
    let (samples, shorted, failed) = farm_trials(option, config.trials, threads, |range| {
        range.map(|k| eval(k as u64)).collect()
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
        failed_reads: failed,
    })
}

/// Options for the SPICE-backed Monte-Carlo distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpiceMcOptions {
    /// Read-testbench configuration used for every trial and for the
    /// nominal reference read.
    pub read: ReadConfig,
    /// Trials per batched solver call inside each worker chunk. `0`
    /// runs the per-trial scalar solver; every width produces the same
    /// bits, because the batched kernel is lane-exact and evicts
    /// divergent trials to the scalar path.
    pub batch_width: usize,
}

impl Default for SpiceMcOptions {
    /// Default read testbench with 8-wide solver batches.
    fn default() -> Self {
        Self {
            read: ReadConfig::default(),
            batch_width: 16,
        }
    }
}

/// Classifies one SPICE read result as a trial outcome: a `tdp` sample,
/// a shorted-draw exclusion, or a hard error.
fn read_to_outcome(r: Result<ReadOutcome, SramError>, td_nom_s: f64) -> TrialResult {
    match r {
        Ok(o) => Ok(TrialResolution::Sample((o.td_s / td_nom_s - 1.0) * 100.0)),
        // A shorted print is a yield loss — excluded and counted, the
        // same screening the formula path applies at `apply_draw`.
        Err(SramError::Litho(_)) => Ok(TrialResolution::Shorted),
        // A sense that never trips is a *measured failure* of this one
        // trial — recorded, not escalated, so the rest of the wave's
        // lanes keep their results.
        Err(SramError::SenseNeverTripped { .. }) => Ok(TrialResolution::Failed),
        Err(e) => Err(e.into()),
    }
}

/// Samples the `tdp` distribution of `option` at column depth `n_cells`
/// with **full SPICE read simulations** per trial (the methodology
/// behind Fig. 5) instead of the analytical formula: each trial prints
/// one sampled draw, builds the §II.C read testbench, and measures `td`
/// against the nominal read.
///
/// Worker threads receive contiguous chunks of trial indices
/// ([`mpvar_exec::try_par_chunk_map`]) and push them through the
/// batched trial solver in [`SpiceMcOptions::batch_width`]-wide lanes,
/// reusing one solver workspace per chunk so steady-state waves
/// allocate nothing in the solve loop. Trial `k` always consumes RNG
/// substream `k`, so results are **bit-identical for a given seed at
/// any thread count and any batch width**.
///
/// # Errors
///
/// Propagated tech/litho/SPICE failures (shorted draws are yield
/// losses — excluded and counted, not errors), or
/// [`CoreError::NoFeasibleCorner`] when the budget shorts essentially
/// every draw.
pub fn tdp_distribution_spice(
    tech: &TechDb,
    cell: &BitcellGeometry,
    option: PatterningOption,
    budget: &VariationBudget,
    n_cells: usize,
    config: &McConfig,
    opts: &SpiceMcOptions,
) -> Result<TdpDistribution, CoreError> {
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
        n = n_cells,
        trials = config.trials,
    );
    let traced = mpvar_trace::enabled();
    let started = traced.then(std::time::Instant::now);

    // Nominal reference read: the denominator of every trial's penalty.
    let td_nom_s = simulate_read(tech, cell, &opts.read, n_cells, &Draw::nominal(option))?.td_s;

    let base = RngStream::from_seed(config.seed);

    // One worker chunk of global trial indices: sample draws by
    // substream index, run them in `batch_width`-wide sub-batches
    // through one reusable workspace.
    let eval_chunk = |range: std::ops::Range<usize>| -> Vec<TrialResult> {
        let width = opts.batch_width;
        let mut outcomes: Vec<TrialResult> = Vec::with_capacity(range.len());
        if width == 0 {
            for i in range {
                let mut rng = base.substream(i as u64);
                outcomes.push(match sample_draw(option, budget, &mut rng) {
                    Ok(d) => read_to_outcome(
                        simulate_read(tech, cell, &opts.read, n_cells, &d),
                        td_nom_s,
                    ),
                    Err(e) => Err(e.into()),
                });
            }
            return outcomes;
        }
        let mut scratch = ReadBatchScratch::new();
        let mut draws: Vec<Draw> = Vec::with_capacity(width);
        let mut lane_slots: Vec<usize> = Vec::with_capacity(width);
        let mut idx = range.start;
        while idx < range.end {
            let stop = (idx + width).min(range.end);
            draws.clear();
            lane_slots.clear();
            for i in idx..stop {
                let mut rng = base.substream(i as u64);
                match sample_draw(option, budget, &mut rng) {
                    Ok(d) => {
                        lane_slots.push(outcomes.len());
                        draws.push(d);
                        // Placeholder; overwritten with the lane result.
                        outcomes.push(Ok(TrialResolution::Shorted));
                    }
                    Err(e) => outcomes.push(Err(e.into())),
                }
            }
            match simulate_read_batch_in(tech, cell, &opts.read, n_cells, &draws, &mut scratch) {
                Ok(lane_results) => {
                    for (&slot, r) in lane_slots.iter().zip(lane_results) {
                        outcomes[slot] = read_to_outcome(r, td_nom_s);
                    }
                }
                Err(e) => {
                    // Structural failure — impossible for the n_cells the
                    // nominal read above already simulated, but if it
                    // surfaces, park it on the sub-batch's first lane so
                    // the in-order merge reports it before any later
                    // outcome.
                    if let Some(&slot) = lane_slots.first() {
                        outcomes[slot] = Err(e.into());
                    }
                }
            }
            idx = stop;
        }
        outcomes
    };

    let threads = config.exec.effective_threads();
    let (samples, shorted, failed) = farm_trials(option, config.trials, threads, eval_chunk)?;

    if traced {
        mpvar_trace::counter_add(names::MC_TRIALS, samples.len() as u64);
        mpvar_trace::counter_add(names::MC_SHORTED, shorted as u64);
        if let Some(started) = started {
            let secs = started.elapsed().as_secs_f64();
            if secs > 0.0 {
                mpvar_trace::gauge_set(names::MC_TRIALS_PER_SEC, samples.len() as f64 / secs);
            }
        }
        let bounds: Vec<f64> = (-10..=10).map(|i| f64::from(i) * 5.0).collect();
        mpvar_trace::histogram_record(names::MC_TDP_PERCENT, &bounds, &samples);
    }

    let summary = samples.iter().copied().collect();
    Ok(TdpDistribution {
        option,
        n: n_cells,
        samples_percent: samples,
        summary,
        shorted_draws: shorted,
        failed_reads: failed,
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
    fn spice_distribution_identical_across_widths_and_threads() {
        let (tech, cell) = setup();
        let budget = VariationBudget::paper_default(PatterningOption::Le3, 8.0).unwrap();
        let run = |width: usize, threads: usize| {
            tdp_distribution_spice(
                &tech,
                &cell,
                PatterningOption::Le3,
                &budget,
                8,
                &McConfig::builder()
                    .trials(10)
                    .seed(11)
                    .threads(threads)
                    .build(),
                &SpiceMcOptions {
                    batch_width: width,
                    ..SpiceMcOptions::default()
                },
            )
            .unwrap()
        };
        let scalar = run(0, 1);
        assert_eq!(scalar.samples_percent().len(), 10);
        // SPICE tdp values are percent-scale, like the formula path's.
        assert!(scalar.summary().std_dev() > 0.01);
        for (width, threads) in [(4, 1), (10, 2), (3, 2)] {
            let batched = run(width, threads);
            assert_eq!(
                scalar.samples_percent(),
                batched.samples_percent(),
                "width {width}, {threads} threads"
            );
            assert_eq!(scalar.shorted_draws(), batched.shorted_draws());
        }
    }

    #[test]
    fn accessors() {
        let d = dist(PatterningOption::Euv, 8.0, 100);
        assert_eq!(d.option(), PatterningOption::Euv);
        assert_eq!(d.n(), 64);
        assert_eq!(d.shorted_draws(), 0);
        assert_eq!(d.failed_reads(), 0, "formula route never fails a read");
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

    #[test]
    fn sense_never_tripped_is_a_recorded_failure_not_a_wave_abort() {
        // Plant never-tripping trials: a tight simulation window
        // (window_scale 0.6, no retries) that the nominal read clears
        // but roughly half the Le3 draws at this seed do not. Before
        // the fix, the first such trial aborted the whole farm with
        // SramError::SenseNeverTripped, killing the wave's other lanes;
        // now each failure consumes its trial slot as a measured
        // failure and the distribution completes.
        let (tech, cell) = setup();
        let budget = VariationBudget::paper_default(PatterningOption::Le3, 8.0).unwrap();
        let run = |width: usize, threads: usize| {
            tdp_distribution_spice(
                &tech,
                &cell,
                PatterningOption::Le3,
                &budget,
                64,
                &McConfig::builder()
                    .trials(6)
                    .seed(11)
                    .threads(threads)
                    .build(),
                &SpiceMcOptions {
                    read: ReadConfig {
                        window_scale: 0.6,
                        max_retries: 0,
                        ..ReadConfig::default()
                    },
                    batch_width: width,
                },
            )
        };
        let scalar = run(0, 1).expect("per-trial failures must not abort the farm");
        assert!(scalar.failed_reads() > 0, "the plant produced no failure");
        assert!(
            !scalar.samples_percent().is_empty(),
            "good lanes must survive alongside the failing ones"
        );
        assert_eq!(
            scalar.failed_reads() + scalar.samples_percent().len(),
            6,
            "failures consume trial slots"
        );
        // Bit-identical accounting for any batch width / thread count:
        // the batched path resolves failing lanes through the scalar
        // fallback without killing the other lanes of the wave.
        for (width, threads) in [(4, 1), (3, 2)] {
            let batched = run(width, threads).unwrap();
            assert_eq!(batched.failed_reads(), scalar.failed_reads());
            assert_eq!(batched.shorted_draws(), scalar.shorted_draws());
            assert_eq!(batched.samples_percent(), scalar.samples_percent());
        }
    }

    #[test]
    fn nominal_read_failure_still_surfaces_as_an_error() {
        // The nominal reference read runs outside the farm; if *it*
        // cannot trip the sense there is no denominator and the whole
        // distribution is meaningless — that stays a hard error.
        let (tech, cell) = setup();
        let budget = VariationBudget::paper_default(PatterningOption::Euv, 8.0).unwrap();
        let err = tdp_distribution_spice(
            &tech,
            &cell,
            PatterningOption::Euv,
            &budget,
            0, // structural error path
            &McConfig::builder().trials(2).seed(1).threads(1).build(),
            &SpiceMcOptions::default(),
        );
        assert!(err.is_err());
    }
}
