//! The adaptive sequential controller: convergence-driven rounds over
//! the `mpvar-exec` round dispatcher.

use std::ops::ControlFlow;

use mpvar_exec::{dispatch_rounds, ExecConfig};
use mpvar_stats::{
    inverse_normal_cdf, FailureEstimate, Proposal, RngStream, RoundAccumulator, StatsError, ZDomain,
};
use mpvar_trace::names;

use crate::{FailureProblem, YieldError};

/// Round sizes double per round up to `base_round << MAX_ROUND_SHIFT`,
/// then stay flat; the cap bounds both memory per round and budget
/// overshoot while keeping the schedule a pure function of the index.
const MAX_ROUND_SHIFT: usize = 16;

/// Configuration for one adaptive yield run.
///
/// Built with [`YieldConfig::new`] plus chainable setters; every field
/// that influences trial draws or round boundaries is part of the
/// determinism contract (same config + same problem ⇒ bit-identical
/// [`YieldRun`] at any thread count).
#[derive(Debug, Clone, PartialEq)]
pub struct YieldConfig {
    domain: ZDomain,
    proposal: Proposal,
    seed: u64,
    confidence: f64,
    target_rel_half_width: f64,
    min_failures: u64,
    base_round: usize,
    max_trials: usize,
    exec: ExecConfig,
}

impl YieldConfig {
    /// A controller config with the workspace defaults: seed 2015,
    /// 95% confidence, target relative half-width 0.3, at least 8 raw
    /// failures, 2048-trial base round, and a soft budget of 131072
    /// trials.
    pub fn new(domain: ZDomain, proposal: Proposal) -> Self {
        Self {
            domain,
            proposal,
            seed: 2015,
            confidence: 0.95,
            target_rel_half_width: 0.3,
            min_failures: 8,
            base_round: 2048,
            max_trials: 131_072,
            exec: ExecConfig::default(),
        }
    }

    /// Sets the RNG seed (trial `k` draws from substream `k`).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the CI confidence level used by the stopping rule.
    pub fn confidence(mut self, confidence: f64) -> Self {
        self.confidence = confidence;
        self
    }

    /// Sets the convergence target: stop once
    /// `half_width / p_fail ≤ target`.
    pub fn target_rel_half_width(mut self, target: f64) -> Self {
        self.target_rel_half_width = target;
        self
    }

    /// Sets the minimum raw failure count required before the normal
    /// CI is trusted for stopping.
    pub fn min_failures(mut self, min_failures: u64) -> Self {
        self.min_failures = min_failures;
        self
    }

    /// Sets the first-round trial count (later rounds double up to a
    /// cap).
    pub fn base_round(mut self, base_round: usize) -> Self {
        self.base_round = base_round;
        self
    }

    /// Sets the *soft* trial budget: the controller stops before
    /// starting any round at or beyond this count, but never truncates
    /// a round — so a smaller budget yields a prefix of a larger
    /// budget's rounds (the resume/merge bit-identity invariant).
    pub fn max_trials(mut self, max_trials: usize) -> Self {
        self.max_trials = max_trials;
        self
    }

    /// Sets the execution (thread-count) configuration.
    pub fn exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Convenience for [`YieldConfig::exec`] with an explicit count.
    pub fn threads(self, threads: usize) -> Self {
        self.exec(ExecConfig::with_threads(threads))
    }

    /// The sampling domain.
    pub fn domain(&self) -> &ZDomain {
        &self.domain
    }

    /// The proposal distribution.
    pub fn proposal(&self) -> &Proposal {
        &self.proposal
    }

    /// Trial count of round `round` — a pure function of the index.
    fn round_trials(&self, round: usize) -> usize {
        self.base_round << round.min(MAX_ROUND_SHIFT)
    }

    fn validate(&self, problem_dims: usize) -> Result<(), YieldError> {
        self.proposal.validate(&self.domain)?;
        if problem_dims != self.domain.dims() {
            return Err(YieldError::InvalidConfig {
                reason: format!(
                    "problem has {} dims but domain has {}",
                    problem_dims,
                    self.domain.dims()
                ),
            });
        }
        if !(self.confidence > 0.0 && self.confidence < 1.0) {
            return Err(YieldError::InvalidConfig {
                reason: format!("confidence {} not in (0, 1)", self.confidence),
            });
        }
        if self.target_rel_half_width <= 0.0 || !self.target_rel_half_width.is_finite() {
            return Err(YieldError::InvalidConfig {
                reason: format!(
                    "target relative half-width {} must be finite and positive",
                    self.target_rel_half_width
                ),
            });
        }
        if self.base_round == 0 {
            return Err(YieldError::InvalidConfig {
                reason: "base_round must be positive".to_string(),
            });
        }
        if self.max_trials == 0 {
            return Err(YieldError::InvalidConfig {
                reason: "max_trials must be positive".to_string(),
            });
        }
        Ok(())
    }
}

/// The mergeable result of an adaptive yield run: the per-round
/// accumulators (in round order) plus whether the stopping rule fired.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldRun {
    rounds: Vec<RoundAccumulator>,
    converged: bool,
}

impl YieldRun {
    /// An empty, not-yet-converged run (the identity for
    /// [`YieldRun::merge`] and the starting point of [`run_yield`]).
    pub fn empty() -> Self {
        Self {
            rounds: Vec::new(),
            converged: false,
        }
    }

    /// Reassembles a run from its parts (e.g. deserialized telemetry).
    pub fn from_parts(rounds: Vec<RoundAccumulator>, converged: bool) -> Self {
        Self { rounds, converged }
    }

    /// Per-round accumulators, in dispatch order.
    pub fn rounds(&self) -> &[RoundAccumulator] {
        &self.rounds
    }

    /// Total trials consumed (the RNG substream offset a resumed run
    /// continues from).
    pub fn consumed(&self) -> u64 {
        self.rounds.iter().map(|r| r.trials()).sum()
    }

    /// `true` when the stopping rule (not the budget) ended the run.
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Folds the rounds into a failure-probability estimate with a
    /// `confidence`-level CI.
    ///
    /// # Errors
    ///
    /// [`StatsError`] via [`FailureEstimate::from_rounds`] on an empty
    /// run or an out-of-range confidence.
    pub fn estimate(&self, confidence: f64) -> Result<FailureEstimate, YieldError> {
        Ok(FailureEstimate::from_rounds(&self.rounds, confidence)?)
    }

    /// Concatenates a continuation onto a truncated prefix run.
    ///
    /// `other` must have been produced by [`resume_yield`] from `self`
    /// (same config, substream offset `self.consumed()`); the merge is
    /// then bit-identical to the run that never stopped.
    ///
    /// # Errors
    ///
    /// [`YieldError::InvalidConfig`] when `self` already converged —
    /// appending trials to a converged run would silently change its
    /// estimate.
    pub fn merge(&self, other: &YieldRun) -> Result<YieldRun, YieldError> {
        if self.converged && !other.rounds.is_empty() {
            return Err(YieldError::InvalidConfig {
                reason: "cannot append rounds to a run that already converged".to_string(),
            });
        }
        let mut rounds = self.rounds.clone();
        rounds.extend_from_slice(&other.rounds);
        Ok(YieldRun {
            rounds,
            converged: self.converged || other.converged,
        })
    }
}

/// Brute-force trials needed to reach a `confidence`-level CI of
/// relative half-width `rel_half_width` on a failure probability `p`:
/// `z² (1 − p) / (p · h²)`. The denominator of every IS speedup claim.
///
/// # Errors
///
/// [`StatsError::QuantileOutOfRange`] for `p ∉ (0, 1)` or a bad
/// confidence; [`StatsError::NonPositiveScale`] for `h ≤ 0`.
pub fn brute_force_trials_for(
    p: f64,
    rel_half_width: f64,
    confidence: f64,
) -> Result<f64, StatsError> {
    if !(p > 0.0 && p < 1.0) {
        return Err(StatsError::QuantileOutOfRange { q: p });
    }
    if rel_half_width <= 0.0 || !rel_half_width.is_finite() {
        return Err(StatsError::NonPositiveScale {
            value: rel_half_width,
        });
    }
    let z = inverse_normal_cdf(0.5 + confidence / 2.0)?;
    Ok(z * z * (1.0 - p) / (p * rel_half_width * rel_half_width))
}

/// Most criteria one run can fold: a trial's flags travel through the
/// round dispatcher packed one bit per criterion into a `u64`.
const MAX_CRITERIA: usize = 64;

/// Controller state of one criterion, folded between rounds.
struct Controller<'a> {
    cfg: &'a YieldConfig,
    /// Finalized rounds, including any resumed prefix (the prefix is
    /// not re-counted in telemetry — only `consume`d rounds are).
    rounds: Vec<RoundAccumulator>,
    /// The round currently being filled by `consume`.
    current: RoundAccumulator,
    converged: bool,
    /// `true` once this criterion's stopping rule, budget or estimator
    /// error ended it; a stopped criterion folds no further trials.
    stopped: bool,
    /// Deferred estimator error (stopping rule only; surfaced after
    /// dispatch so the round loop itself stays infallible).
    stats_error: Option<StatsError>,
}

impl Controller<'_> {
    /// Finalizes the just-dispatched round, then decides the next
    /// round's size (0 = stop).
    fn next_round_size(&mut self, consumed_before: u64) -> usize {
        if self.current.trials() > 0 {
            mpvar_trace::counter_add(names::YIELD_ROUNDS, 1);
            mpvar_trace::counter_add(names::YIELD_TRIALS, self.current.trials());
            mpvar_trace::counter_add(names::YIELD_ZERO_WEIGHT, self.current.zero_weight());
            self.rounds.push(self.current);
            self.current = RoundAccumulator::new();
        }
        if !self.rounds.is_empty() {
            match FailureEstimate::from_rounds(&self.rounds, self.cfg.confidence) {
                Ok(est) => {
                    if est.failures >= self.cfg.min_failures
                        && est.rel_half_width() <= self.cfg.target_rel_half_width
                    {
                        self.converged = true;
                        return 0;
                    }
                }
                Err(e) => {
                    self.stats_error = Some(e);
                    return 0;
                }
            }
        }
        // Soft budget: stop *between* rounds, never inside one.
        if consumed_before >= self.cfg.max_trials as u64 {
            return 0;
        }
        self.cfg.round_trials(self.rounds.len())
    }
}

/// Runs the adaptive controller from scratch: equivalent to
/// [`resume_yield`] from [`YieldRun::empty`].
///
/// # Errors
///
/// [`YieldError::InvalidConfig`] / [`YieldError::Stats`] for a bad
/// config or a problem with more than one criterion;
/// [`YieldError::Problem`] when the problem's batch evaluation fails.
pub fn run_yield<P: FailureProblem>(
    problem: &P,
    cfg: &YieldConfig,
) -> Result<YieldRun, YieldError> {
    resume_yield(problem, cfg, &YieldRun::empty())
}

/// Resumes the adaptive controller from a prior (budget-stopped) run:
/// trial indices continue at `prior.consumed()`, the round schedule
/// continues at round `prior.rounds().len()`, and the returned run
/// contains the prior rounds plus the new ones — bit-identical to the
/// run that had the larger budget from the start.
///
/// A prior that already converged is returned unchanged.
///
/// # Errors
///
/// As [`run_yield`].
pub fn resume_yield<P: FailureProblem>(
    problem: &P,
    cfg: &YieldConfig,
    prior: &YieldRun,
) -> Result<YieldRun, YieldError> {
    if problem.criteria() != 1 {
        return Err(YieldError::InvalidConfig {
            reason: format!(
                "run_yield needs a one-criterion problem, got {} criteria (use run_yields)",
                problem.criteria()
            ),
        });
    }
    cfg.validate(problem.dims())?;
    if prior.converged() {
        return Ok(prior.clone());
    }
    let mut runs = drive(problem, cfg, prior)?;
    Ok(runs.remove(0))
}

/// Runs the adaptive controller once for every criterion of `problem`,
/// sharing one draw stream: trial `k` is drawn and evaluated once, and
/// its flags fold into every criterion still running. Run `c` of the
/// result is bit-identical to [`run_yield`] on a one-criterion problem
/// holding criterion `c` alone.
///
/// # Errors
///
/// As [`run_yield`]; [`YieldError::InvalidConfig`] also for a problem
/// with no criteria or more than 64.
pub fn run_yields<P: FailureProblem>(
    problem: &P,
    cfg: &YieldConfig,
) -> Result<Vec<YieldRun>, YieldError> {
    cfg.validate(problem.dims())?;
    drive(problem, cfg, &YieldRun::empty())
}

/// The one controller loop: every criterion of `problem` starts from
/// `prior` and stops on its own rule, while the round dispatcher draws
/// each trial once for all of them.
///
/// Each criterion's run stays the run it would be alone because trial
/// `k` draws from substream `k` whatever the criteria, round `r`'s size
/// is the same for every criterion active at round `r`, and a
/// criterion stops on its own rounds only.
fn drive<P: FailureProblem>(
    problem: &P,
    cfg: &YieldConfig,
    prior: &YieldRun,
) -> Result<Vec<YieldRun>, YieldError> {
    let criteria = problem.criteria();
    if criteria == 0 || criteria > MAX_CRITERIA {
        return Err(YieldError::InvalidConfig {
            reason: format!("problem has {criteria} criteria, expected 1..={MAX_CRITERIA}"),
        });
    }
    let offset = prior.consumed();
    let threads = cfg.exec.effective_threads();
    let dims = cfg.domain.dims();

    let _run_span = mpvar_trace::span!(
        names::SPAN_YIELD_RUN,
        estimator = cfg.proposal.label(),
        dims = dims,
        criteria = criteria,
        seed = cfg.seed,
        target_rel_half_width = cfg.target_rel_half_width,
        resumed_trials = offset
    );

    let mut state: Vec<Controller> = (0..criteria)
        .map(|_| Controller {
            cfg,
            rounds: prior.rounds().to_vec(),
            current: RoundAccumulator::new(),
            converged: false,
            stopped: false,
            stats_error: None,
        })
        .collect();
    let base_stream = RngStream::from_seed(cfg.seed);
    let mut drawn = 0usize;

    // The dispatcher's hard `limit` is unbounded: the budget is
    // enforced (softly) inside the size callback so that no round is
    // ever clamped mid-schedule.
    dispatch_rounds(
        &mut state,
        names::SPAN_YIELD_ROUND,
        usize::MAX,
        threads,
        |state, _round, consumed| {
            drawn = consumed;
            // Every active criterion has run every round so far, so all
            // of them ask for the same next size.
            let mut next = 0;
            for c in state.iter_mut().filter(|c| !c.stopped) {
                match c.next_round_size(offset + consumed as u64) {
                    0 => c.stopped = true,
                    size => {
                        debug_assert!(next == 0 || next == size, "criteria out of step");
                        next = size;
                    }
                }
            }
            next
        },
        |range| -> Result<Vec<(f64, u64)>, YieldError> {
            // Per trial: its weight and its flags, one bit per criterion.
            let mut out: Vec<(f64, u64)> = Vec::with_capacity(range.len());
            let mut zs: Vec<f64> = Vec::new();
            let mut pending: Vec<usize> = Vec::new();
            let mut z: Vec<f64> = Vec::with_capacity(dims);
            for k in range {
                // Global trial index — offset past the resumed prefix.
                let mut rng = base_stream.substream(offset + k as u64);
                let log_w = cfg.proposal.draw(&cfg.domain, &mut rng, &mut z)?;
                let w = log_w.exp();
                if w > 0.0 {
                    pending.push(out.len());
                    zs.extend_from_slice(&z);
                    out.push((w, 0));
                } else {
                    // Out-of-support draw: weight 0, simulation skipped.
                    out.push((0.0, 0));
                }
            }
            if !pending.is_empty() {
                let failed = problem.evaluate_batch(&zs)?;
                if failed.len() != pending.len() * criteria {
                    return Err(YieldError::InvalidConfig {
                        reason: format!(
                            "problem returned {} flags for {} trials of {criteria} criteria",
                            failed.len(),
                            pending.len()
                        ),
                    });
                }
                for (slot, flags) in pending.into_iter().zip(failed.chunks_exact(criteria)) {
                    out[slot].1 = flags
                        .iter()
                        .enumerate()
                        .fold(0, |bits, (c, &f)| bits | (u64::from(f) << c));
                }
            }
            Ok(out)
        },
        |state, (w, bits)| {
            for (c, ctl) in state.iter_mut().enumerate().filter(|(_, c)| !c.stopped) {
                ctl.current.push(w, bits >> c & 1 == 1);
            }
            ControlFlow::Continue(())
        },
    )?;
    mpvar_trace::counter_add(names::YIELD_EVALUATED_TRIALS, drawn as u64);

    state
        .into_iter()
        .map(|c| {
            if let Some(e) = c.stats_error {
                return Err(YieldError::Stats(e));
            }
            debug_assert_eq!(c.current.trials(), 0, "round left unfinalized");
            let run = YieldRun {
                rounds: c.rounds,
                converged: c.converged,
            };
            if let Ok(est) = run.estimate(cfg.confidence) {
                mpvar_trace::gauge_set(names::YIELD_ESS, est.ess);
            }
            Ok(run)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PlantedThreshold;

    fn planted_cfg(p: f64, dims: usize) -> (PlantedThreshold, YieldConfig) {
        let problem = PlantedThreshold::for_failure_probability(dims, p).unwrap();
        let domain = ZDomain::unbounded(dims).unwrap();
        let cfg = YieldConfig::new(domain, Proposal::ScaledSigma { scale: 3.0 })
            .seed(42)
            .threads(1);
        (problem, cfg)
    }

    #[test]
    fn converges_on_planted_1e6_within_budget() {
        let (problem, cfg) = planted_cfg(1e-6, 1);
        let run = run_yield(&problem, &cfg).unwrap();
        assert!(run.converged(), "consumed {} trials", run.consumed());
        let est = run.estimate(0.95).unwrap();
        assert!(est.rel_half_width() <= 0.3);
        assert!(
            est.contains(1e-6),
            "CI [{}, {}] misses 1e-6",
            est.ci_lo,
            est.ci_hi
        );
        // ≤ 1/50th of the brute-force budget for the same precision.
        let brute = brute_force_trials_for(1e-6, 0.3, 0.95).unwrap();
        assert!(
            (run.consumed() as f64) <= brute / 50.0,
            "IS used {} trials, brute needs {brute:.0}",
            run.consumed()
        );
    }

    #[test]
    fn thread_count_does_not_change_the_run() {
        let (problem, cfg) = planted_cfg(1e-5, 3);
        let runs: Vec<YieldRun> = [1usize, 4, 8]
            .iter()
            .map(|&t| run_yield(&problem, &cfg.clone().threads(t)).unwrap())
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn resume_reproduces_the_uninterrupted_run() {
        let (problem, cfg) = planted_cfg(1e-6, 2);
        let full = run_yield(&problem, &cfg).unwrap();
        assert!(full.converged());
        // Stop the first run after a prefix of the budget, then resume.
        let small = cfg.clone().max_trials(cfg.round_trials(0) + 1);
        let half = run_yield(&problem, &small).unwrap();
        assert!(!half.converged());
        assert!(half.consumed() < full.consumed());
        let resumed = resume_yield(&problem, &cfg, &half).unwrap();
        assert_eq!(resumed, full);
        // merge() of the prefix with the continuation is the same run.
        let continuation = YieldRun::from_parts(
            resumed.rounds()[half.rounds().len()..].to_vec(),
            resumed.converged(),
        );
        assert_eq!(half.merge(&continuation).unwrap(), full);
    }

    #[test]
    fn budget_stops_between_rounds_without_converging() {
        // Brute force at 1e-8 sees no failures in a few thousand trials,
        // so only the soft budget can end the run.
        let problem = PlantedThreshold::for_failure_probability(1, 1e-8).unwrap();
        let cfg = YieldConfig::new(ZDomain::unbounded(1).unwrap(), Proposal::BruteForce)
            .seed(42)
            .threads(1)
            .max_trials(4096);
        let run = run_yield(&problem, &cfg).unwrap();
        assert!(!run.converged());
        // Soft budget: full rounds only, possibly overshooting 4096.
        assert!(run.consumed() >= 4096);
        for (i, r) in run.rounds().iter().enumerate() {
            assert_eq!(r.trials() as usize, cfg.round_trials(i));
        }
    }

    #[test]
    fn resuming_a_converged_run_is_a_no_op() {
        let (problem, cfg) = planted_cfg(1e-4, 1);
        let run = run_yield(&problem, &cfg).unwrap();
        assert!(run.converged());
        let again = resume_yield(&problem, &cfg, &run).unwrap();
        assert_eq!(again, run);
    }

    #[test]
    fn merge_rejects_appending_to_a_converged_run() {
        let (problem, cfg) = planted_cfg(1e-4, 1);
        let run = run_yield(&problem, &cfg).unwrap();
        assert!(run.converged());
        let err = run.merge(&run).unwrap_err();
        assert!(matches!(err, YieldError::InvalidConfig { .. }));
        // Merging an empty continuation is always fine.
        assert_eq!(run.merge(&YieldRun::empty()).unwrap(), run);
    }

    #[test]
    fn config_validation_rejects_bad_inputs() {
        let (problem, cfg) = planted_cfg(1e-4, 1);
        assert!(run_yield(&problem, &cfg.clone().confidence(1.0)).is_err());
        assert!(run_yield(&problem, &cfg.clone().target_rel_half_width(0.0)).is_err());
        assert!(run_yield(&problem, &cfg.clone().base_round(0)).is_err());
        assert!(run_yield(&problem, &cfg.clone().max_trials(0)).is_err());
        let wrong_dims = PlantedThreshold::new(2, 3.0).unwrap();
        assert!(matches!(
            run_yield(&wrong_dims, &cfg),
            Err(YieldError::InvalidConfig { .. })
        ));
        let bad_proposal = YieldConfig::new(
            ZDomain::unbounded(1).unwrap(),
            Proposal::ScaledSigma { scale: 0.5 },
        );
        assert!(matches!(
            run_yield(&problem, &bad_proposal),
            Err(YieldError::Stats(_))
        ));
    }

    #[test]
    fn brute_force_formula_matches_hand_calculation() {
        // p = 1e-6, h = 0.3, 95%: z ≈ 1.95996, n ≈ 4.268e7.
        let n = brute_force_trials_for(1e-6, 0.3, 0.95).unwrap();
        assert!((n - 4.268e7).abs() / 4.268e7 < 1e-3, "{n}");
        assert!(brute_force_trials_for(0.0, 0.3, 0.95).is_err());
        assert!(brute_force_trials_for(1e-6, 0.0, 0.95).is_err());
        assert!(brute_force_trials_for(1e-6, 0.3, 1.5).is_err());
    }

    #[test]
    fn round_schedule_is_geometric_then_capped() {
        let domain = ZDomain::unbounded(1).unwrap();
        let cfg = YieldConfig::new(domain, Proposal::BruteForce).base_round(8);
        assert_eq!(cfg.round_trials(0), 8);
        assert_eq!(cfg.round_trials(3), 64);
        assert_eq!(cfg.round_trials(MAX_ROUND_SHIFT), 8 << MAX_ROUND_SHIFT);
        assert_eq!(cfg.round_trials(MAX_ROUND_SHIFT + 10), 8 << MAX_ROUND_SHIFT);
    }

    #[test]
    fn brute_force_and_scaled_sigma_agree_on_shallow_tail() {
        // p = 1e-2 is shallow enough for brute force to resolve quickly;
        // the two estimators' CIs must overlap around the truth.
        let p = 1e-2;
        let problem = PlantedThreshold::for_failure_probability(2, p).unwrap();
        let domain = ZDomain::unbounded(2).unwrap();
        let brute = run_yield(
            &problem,
            &YieldConfig::new(domain, Proposal::BruteForce)
                .seed(7)
                .threads(1),
        )
        .unwrap();
        let is = run_yield(
            &problem,
            &YieldConfig::new(domain, Proposal::ScaledSigma { scale: 2.0 })
                .seed(7)
                .threads(1),
        )
        .unwrap();
        let eb = brute.estimate(0.95).unwrap();
        let ei = is.estimate(0.95).unwrap();
        assert!(eb.contains(p), "brute CI [{}, {}]", eb.ci_lo, eb.ci_hi);
        assert!(ei.contains(p), "IS CI [{}, {}]", ei.ci_lo, ei.ci_hi);
        assert!(eb.ci_lo <= ei.ci_hi && ei.ci_lo <= eb.ci_hi);
    }
}
