//! Importance-sampling estimators for rare-event failure probabilities.
//!
//! The paper's Fig. 5 Monte-Carlo resolves failure probabilities down to
//! roughly 1e-4 at 100k trials; production SRAM arrays need read-failure
//! estimates at 1e-9 and beyond. This module supplies the statistical core
//! of that extension: proposal distributions over the standardized
//! variation space (`z`-space), numerically-safe log-weight arithmetic,
//! and a mergeable, order-deterministic accumulator/estimator pair.
//!
//! # Model
//!
//! The *target* distribution is an isotropic standard normal over
//! [`ZDomain::dims`] independent dimensions — exactly the standardized form
//! of the paper's Gaussian variation budgets — optionally truncated at
//! ±[`ZDomain::truncation`] sigmas per dimension (foundry inspection
//! screens; the litho sampler truncates at ±3.5σ). A [`Proposal`] draws
//! `z` vectors from a heavier-tailed distribution `q` and reports the
//! log-likelihood ratio `log w = log p(z) − log q(z)`; the *unnormalized*
//! importance-sampling estimator is then
//!
//! ```text
//! P̂_fail = (1/N) Σ w_i · I[failure(z_i)]
//! ```
//!
//! which is unbiased for any proposal whose support covers the target's.
//! Two built-in diagnostics guard against silent weight degeneracy: the
//! *weight-normalization oracle* `Σw/N → 1` (its deviation from 1 is pure
//! proposal-mismatch noise) and the effective sample size
//! `ESS = (Σw)²/Σw²`.
//!
//! # Determinism and mergeability
//!
//! A [`RoundAccumulator`] is filled by pushing trial outcomes **in trial
//! index order**; [`FailureEstimate::from_rounds`] folds a slice of round
//! accumulators left-to-right with plain `f64` additions. Because every
//! reduction order is fixed by construction, estimates are bit-identical
//! across thread counts and across resumed/merged runs as long as the
//! round boundaries are reproduced — which the `mpvar-yield` controller
//! guarantees with a config-deterministic round schedule.

use crate::error::StatsError;
use crate::rng::RngStream;
use crate::sampler::{erf, inverse_normal_cdf, standard_normal};

/// Rejection budget for brute-force draws from a truncated target.
const REJECTION_BUDGET: usize = 100_000;

/// The standardized sampling domain: `dims` i.i.d. standard-normal
/// coordinates, optionally truncated at `±truncation` per dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZDomain {
    dims: usize,
    truncation: Option<f64>,
    /// `log` of the per-dimension truncation mass `P[|Z| ≤ t] =
    /// erf(t/√2)`, computed once at construction; `0.0` when unbounded.
    log_trunc_mass: f64,
}

impl ZDomain {
    /// An untruncated standard-normal domain (analytic planted problems).
    ///
    /// # Errors
    ///
    /// [`StatsError::ZeroTrials`] is *not* used here; `dims == 0` returns
    /// [`StatsError::InsufficientSamples`].
    pub fn unbounded(dims: usize) -> Result<Self, StatsError> {
        if dims == 0 {
            return Err(StatsError::InsufficientSamples { needed: 1, got: 0 });
        }
        Ok(Self {
            dims,
            truncation: None,
            log_trunc_mass: 0.0,
        })
    }

    /// A domain truncated at `±truncation` sigmas per dimension, matching
    /// the litho sampler's inspection screen.
    ///
    /// # Errors
    ///
    /// [`StatsError::InsufficientSamples`] for `dims == 0`;
    /// [`StatsError::NonPositiveScale`] / [`StatsError::NonFinite`] for a
    /// bad truncation bound.
    pub fn truncated(dims: usize, truncation: f64) -> Result<Self, StatsError> {
        if dims == 0 {
            return Err(StatsError::InsufficientSamples { needed: 1, got: 0 });
        }
        if !truncation.is_finite() {
            return Err(StatsError::NonFinite {
                name: "truncation",
                value: truncation,
            });
        }
        if truncation <= 0.0 {
            return Err(StatsError::NonPositiveScale { value: truncation });
        }
        Ok(Self {
            dims,
            truncation: Some(truncation),
            log_trunc_mass: erf(truncation / std::f64::consts::SQRT_2).ln(),
        })
    }

    /// Number of sampled dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Per-dimension truncation bound, if any.
    pub fn truncation(&self) -> Option<f64> {
        self.truncation
    }

    /// `true` when `z` lies inside the (possibly truncated) support.
    pub(crate) fn in_support(&self, z: &[f64]) -> bool {
        match self.truncation {
            None => true,
            Some(t) => z.iter().all(|zi| zi.abs() <= t),
        }
    }
}

/// An importance-sampling proposal distribution over a [`ZDomain`].
///
/// All three proposals guarantee **bounded weights** (no overflow):
///
/// * [`Proposal::BruteForce`] samples the target itself — `w ≡ 1` exactly,
///   which makes it the reference estimator for agreement oracles;
/// * [`Proposal::ScaledSigma`] samples `N(0, s²)` per dimension with
///   `s ≥ 1`, so `w ≤ (s / P[|Z| ≤ t])^dims`;
/// * [`Proposal::ShiftedMixture`] is the defensive mixture
///   `α·N(0,1) + (1−α)·N(μ,1)`, so `w ≤ 1/(α · P[|Z| ≤ t]^dims)`.
///
/// Weights *underflow gracefully* to `0.0` for draws that are absurdly
/// unlikely under the target, and are exactly `0.0` outside a truncated
/// target's support (callers skip the simulation for those draws).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Proposal {
    /// Sample the target directly; every weight is exactly 1.
    BruteForce,
    /// Scale every coordinate's sigma by `scale ≥ 1` (heavier tails
    /// everywhere; the classic scaled-sigma rare-event proposal).
    ScaledSigma {
        /// Sigma multiplier, `1 ≤ scale` (practically `≤ 8`).
        scale: f64,
    },
    /// Defensive mixture `α·N(0, I) + (1−α)·N(shift, I)`: mass `1−α`
    /// relocated to a suspected failure corner, mass `α` kept at the
    /// nominal to bound weights by `1/α`.
    ShiftedMixture {
        /// Per-dimension mean shift of the relocated component.
        shift: Vec<f64>,
        /// Nominal-component mass, `0 < alpha < 1`.
        alpha: f64,
    },
}

impl Proposal {
    /// Short stable label for telemetry and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Proposal::BruteForce => "brute-force",
            Proposal::ScaledSigma { .. } => "scaled-sigma",
            Proposal::ShiftedMixture { .. } => "shifted-mixture",
        }
    }

    /// Validates the proposal against a domain.
    ///
    /// # Errors
    ///
    /// * [`StatsError::NonPositiveScale`] for `scale < 1` (lighter-tailed
    ///   proposals make rare-event weights unbounded) or `alpha ∉ (0, 1)`;
    /// * [`StatsError::NonFinite`] for non-finite parameters;
    /// * [`StatsError::InsufficientSamples`] when `shift.len() ≠ dims`.
    pub fn validate(&self, domain: &ZDomain) -> Result<(), StatsError> {
        match self {
            Proposal::BruteForce => Ok(()),
            Proposal::ScaledSigma { scale } => {
                if !scale.is_finite() {
                    return Err(StatsError::NonFinite {
                        name: "scale",
                        value: *scale,
                    });
                }
                if *scale < 1.0 {
                    return Err(StatsError::NonPositiveScale { value: *scale });
                }
                Ok(())
            }
            Proposal::ShiftedMixture { shift, alpha } => {
                if !alpha.is_finite() {
                    return Err(StatsError::NonFinite {
                        name: "alpha",
                        value: *alpha,
                    });
                }
                if !(*alpha > 0.0 && *alpha < 1.0) {
                    return Err(StatsError::NonPositiveScale { value: *alpha });
                }
                if shift.len() != domain.dims() {
                    return Err(StatsError::InsufficientSamples {
                        needed: domain.dims(),
                        got: shift.len(),
                    });
                }
                if let Some(bad) = shift.iter().find(|s| !s.is_finite()) {
                    return Err(StatsError::NonFinite {
                        name: "shift",
                        value: *bad,
                    });
                }
                Ok(())
            }
        }
    }

    /// Draws one `z` vector into `z` (cleared first) and returns the
    /// **log-weight** `log p(z) − log q(z)`.
    ///
    /// Returns `f64::NEG_INFINITY` (weight exactly 0 after `exp`) for
    /// draws outside a truncated target's support.
    ///
    /// # Errors
    ///
    /// [`StatsError::RejectionBudgetExhausted`] if a brute-force draw from
    /// a pathologically tight truncated target keeps missing.
    pub fn draw(
        &self,
        domain: &ZDomain,
        rng: &mut RngStream,
        z: &mut Vec<f64>,
    ) -> Result<f64, StatsError> {
        z.clear();
        let log_zt = domain.log_trunc_mass;
        match self {
            Proposal::BruteForce => {
                for _ in 0..domain.dims() {
                    let zi = match domain.truncation() {
                        None => standard_normal(rng),
                        Some(t) => {
                            let mut accepted = None;
                            for _ in 0..REJECTION_BUDGET {
                                let cand = standard_normal(rng);
                                if cand.abs() <= t {
                                    accepted = Some(cand);
                                    break;
                                }
                            }
                            accepted.ok_or(StatsError::RejectionBudgetExhausted {
                                attempts: REJECTION_BUDGET,
                            })?
                        }
                    };
                    z.push(zi);
                }
                Ok(0.0)
            }
            Proposal::ScaledSigma { scale } => {
                let s = *scale;
                for _ in 0..domain.dims() {
                    z.push(s * standard_normal(rng));
                }
                if !domain.in_support(z) {
                    return Ok(f64::NEG_INFINITY);
                }
                // Per dim: log(s) + z²(1/(2s²) − 1/2) − log P[|Z| ≤ t].
                // For s ≥ 1 the quadratic coefficient is ≤ 0, so the
                // total is bounded above by dims·(log s − log Zt).
                let coeff = 0.5 / (s * s) - 0.5;
                let ln_s = s.ln();
                let mut log_w = 0.0;
                for zi in z.iter() {
                    log_w += ln_s + zi * zi * coeff - log_zt;
                }
                Ok(log_w)
            }
            Proposal::ShiftedMixture { shift, alpha } => {
                let u = rng.next_f64();
                let shifted = u >= *alpha;
                for mu in shift.iter().take(domain.dims()) {
                    let mu = if shifted { *mu } else { 0.0 };
                    z.push(mu + standard_normal(rng));
                }
                if !domain.in_support(z) {
                    return Ok(f64::NEG_INFINITY);
                }
                // Gaussian kernels (2π factors cancel between p and q):
                // a = log-kernel of N(0,I), b = of N(shift,I).
                let mut a = 0.0;
                let mut b = 0.0;
                for (zi, mu) in z.iter().zip(shift.iter()) {
                    a -= 0.5 * zi * zi;
                    b -= 0.5 * (zi - mu) * (zi - mu);
                }
                // log q = logsumexp(log α + a, log(1−α) + b).
                let la = alpha.ln() + a;
                let lb = (1.0 - alpha).ln() + b;
                let m = la.max(lb);
                let log_q = m + ((la - m).exp() + (lb - m).exp()).ln();
                Ok(a - log_q - domain.dims() as f64 * log_zt)
            }
        }
    }
}

/// Plain-sum accumulator for one round of importance-sampled trials.
///
/// Filled by calling [`RoundAccumulator::push`] once per trial **in trial
/// index order**; all sums are plain `f64` additions so the result is a
/// pure function of the pushed sequence.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RoundAccumulator {
    trials: u64,
    zero_weight: u64,
    failures: u64,
    sum_w: f64,
    sum_w2: f64,
    sum_wf: f64,
    sum_wf2: f64,
}

impl RoundAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one trial with importance weight `weight` and failure
    /// indicator `failed`. Zero-weight trials (out-of-support draws)
    /// still count toward the trial denominator.
    pub fn push(&mut self, weight: f64, failed: bool) {
        self.trials += 1;
        if weight == 0.0 {
            self.zero_weight += 1;
            return;
        }
        self.sum_w += weight;
        self.sum_w2 += weight * weight;
        if failed {
            self.failures += 1;
            self.sum_wf += weight;
            self.sum_wf2 += weight * weight;
        }
    }

    /// Trials recorded (including zero-weight skips).
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Trials whose proposal draw fell outside the truncated support.
    pub fn zero_weight(&self) -> u64 {
        self.zero_weight
    }

    /// Raw failure-indicator count (unweighted).
    pub fn failures(&self) -> u64 {
        self.failures
    }
}

/// A failure-probability estimate folded from one or more rounds.
///
/// Produced by [`FailureEstimate::from_rounds`]; all fields are plain data
/// so estimates can be compared bit-for-bit in determinism tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureEstimate {
    /// Unnormalized IS estimate `Σ wI / N`.
    pub p_fail: f64,
    /// Standard error of `p_fail` (sample-variance based).
    pub std_error: f64,
    /// Unclamped CI half-width `z_{conf} · std_error` (for degenerate
    /// zero-variance rounds, a generalized rule-of-three bound).
    pub half_width: f64,
    /// Lower CI bound, clamped to `[0, 1]`.
    pub ci_lo: f64,
    /// Upper CI bound, clamped to `[0, 1]`.
    pub ci_hi: f64,
    /// Confidence level of the interval (e.g. 0.95).
    pub confidence: f64,
    /// Total trials across all rounds (including zero-weight skips).
    pub trials: u64,
    /// Raw (unweighted) failure count across all rounds.
    pub failures: u64,
    /// Out-of-support draws skipped across all rounds.
    pub zero_weight: u64,
    /// Effective sample size `(Σw)²/Σw²` (0 when every weight was 0).
    pub ess: f64,
    /// Self-normalized estimate `Σ wI / Σ w` — a sanity oracle: it must
    /// agree with `p_fail` whenever the normalization oracle
    /// [`FailureEstimate::mean_weight`] is near 1.
    pub self_normalized: f64,
    /// Weight-normalization oracle `Σw/N`; `E[w] = 1` for any valid
    /// proposal, so values far from 1 flag proposal/target mismatch.
    pub mean_weight: f64,
}

impl FailureEstimate {
    /// Folds round accumulators (left-to-right, order-deterministic) into
    /// an estimate with a `confidence`-level normal-approximation CI.
    ///
    /// Degenerate inputs stay well-defined instead of producing NaN:
    /// an all-pass fold yields `p_fail = 0` with a generalized
    /// rule-of-three upper bound `ln(1/(1−conf)) / max(ESS, 1)`, and an
    /// all-fail zero-variance fold gets the mirrored lower bound.
    ///
    /// # Errors
    ///
    /// [`StatsError::ZeroTrials`] when no trials were recorded;
    /// [`StatsError::QuantileOutOfRange`] for `confidence ∉ (0, 1)`.
    pub fn from_rounds(rounds: &[RoundAccumulator], confidence: f64) -> Result<Self, StatsError> {
        if !(confidence > 0.0 && confidence < 1.0) {
            return Err(StatsError::QuantileOutOfRange { q: confidence });
        }
        let mut trials = 0u64;
        let mut failures = 0u64;
        let mut zero_weight = 0u64;
        let mut sum_w = 0.0f64;
        let mut sum_w2 = 0.0f64;
        let mut sum_wf = 0.0f64;
        let mut sum_wf2 = 0.0f64;
        for r in rounds {
            trials += r.trials;
            failures += r.failures;
            zero_weight += r.zero_weight;
            sum_w += r.sum_w;
            sum_w2 += r.sum_w2;
            sum_wf += r.sum_wf;
            sum_wf2 += r.sum_wf2;
        }
        if trials == 0 {
            return Err(StatsError::ZeroTrials);
        }
        let n = trials as f64;
        let p = sum_wf / n;
        let var = ((sum_wf2 / n - p * p) / n).max(0.0);
        let se = var.sqrt();
        let ess = if sum_w2 > 0.0 {
            sum_w * sum_w / sum_w2
        } else {
            0.0
        };
        let z = inverse_normal_cdf(0.5 + confidence / 2.0)?;
        // Generalized rule of three: with zero observed variance the
        // normal interval collapses, so bound the miss probability by the
        // exact binomial zero-count argument on the effective sample size.
        let rule_of_three = (1.0 - confidence).recip().ln() / ess.max(1.0);
        let (half_width, ci_lo, ci_hi) = if failures == 0 {
            let hw = rule_of_three.min(1.0);
            (hw, 0.0, hw)
        } else if se == 0.0 {
            let hw = (p * rule_of_three).min(p);
            // clamp() both ends: weights > 1 can push the unnormalized
            // point estimate past 1, and the bounds stay probabilities.
            (hw, (p - hw).clamp(0.0, 1.0), p.min(1.0))
        } else {
            let hw = z * se;
            (hw, (p - hw).clamp(0.0, 1.0), (p + hw).min(1.0))
        };
        Ok(Self {
            p_fail: p,
            std_error: se,
            half_width,
            ci_lo,
            ci_hi,
            confidence,
            trials,
            failures,
            zero_weight,
            ess,
            self_normalized: if sum_w > 0.0 { sum_wf / sum_w } else { 0.0 },
            mean_weight: sum_w / n,
        })
    }

    /// Relative CI half-width `half_width / p_fail`
    /// (`+∞` when `p_fail == 0` — never NaN).
    pub fn rel_half_width(&self) -> f64 {
        if self.p_fail > 0.0 {
            self.half_width / self.p_fail
        } else {
            f64::INFINITY
        }
    }

    /// `true` when `truth` lies inside `[ci_lo, ci_hi]`.
    pub fn contains(&self, truth: f64) -> bool {
        (self.ci_lo..=self.ci_hi).contains(&truth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::normal_tail;

    fn run_planted(
        proposal: &Proposal,
        domain: &ZDomain,
        threshold: f64,
        trials: u64,
        seed: u64,
    ) -> FailureEstimate {
        let base = RngStream::from_seed(seed);
        let mut acc = RoundAccumulator::new();
        let mut z = Vec::new();
        for k in 0..trials {
            let mut rng = base.substream(k);
            let log_w = proposal.draw(domain, &mut rng, &mut z).unwrap();
            let w = log_w.exp();
            let failed = w > 0.0 && z[0] > threshold;
            acc.push(w, failed);
        }
        FailureEstimate::from_rounds(&[acc], 0.95).unwrap()
    }

    #[test]
    fn brute_force_weights_are_exactly_one() {
        let domain = ZDomain::unbounded(3).unwrap();
        let mut rng = RngStream::from_seed(1);
        let mut z = Vec::new();
        for _ in 0..100 {
            let log_w = Proposal::BruteForce
                .draw(&domain, &mut rng, &mut z)
                .unwrap();
            assert_eq!(log_w, 0.0);
            assert_eq!(z.len(), 3);
        }
    }

    #[test]
    fn weight_normalization_oracle_near_one() {
        let domain = ZDomain::unbounded(2).unwrap();
        for proposal in [
            Proposal::ScaledSigma { scale: 2.0 },
            Proposal::ShiftedMixture {
                shift: vec![2.0, 0.0],
                alpha: 0.3,
            },
        ] {
            let est = run_planted(&proposal, &domain, f64::INFINITY, 40_000, 11);
            assert!(
                (est.mean_weight - 1.0).abs() < 0.05,
                "{}: Σw/N = {}",
                proposal.label(),
                est.mean_weight
            );
        }
    }

    #[test]
    fn scaled_sigma_recovers_planted_tail() {
        let p_true = 1e-4;
        let t = inverse_normal_cdf(1.0 - p_true).unwrap();
        let domain = ZDomain::unbounded(1).unwrap();
        let est = run_planted(&Proposal::ScaledSigma { scale: 3.0 }, &domain, t, 20_000, 5);
        assert!(est.contains(p_true), "CI [{}, {}]", est.ci_lo, est.ci_hi);
        assert!((est.p_fail - p_true).abs() / p_true < 0.3, "{}", est.p_fail);
        // The self-normalized oracle must agree to leading order.
        assert!((est.self_normalized - est.p_fail).abs() / p_true < 0.3);
    }

    #[test]
    fn shifted_mixture_weights_bounded_by_inverse_alpha() {
        let alpha = 0.2;
        let domain = ZDomain::unbounded(2).unwrap();
        let proposal = Proposal::ShiftedMixture {
            shift: vec![4.0, 4.0],
            alpha,
        };
        let mut rng = RngStream::from_seed(3);
        let mut z = Vec::new();
        for _ in 0..20_000 {
            let w = proposal.draw(&domain, &mut rng, &mut z).unwrap().exp();
            assert!(w <= 1.0 / alpha + 1e-12, "w = {w}");
        }
    }

    #[test]
    fn truncated_domain_zeroes_out_of_support_draws() {
        let domain = ZDomain::truncated(2, 3.5).unwrap();
        let proposal = Proposal::ScaledSigma { scale: 4.0 };
        let base = RngStream::from_seed(7);
        let mut z = Vec::new();
        let mut acc = RoundAccumulator::new();
        for k in 0..20_000u64 {
            let mut rng = base.substream(k);
            let w = proposal.draw(&domain, &mut rng, &mut z).unwrap().exp();
            if w == 0.0 {
                assert!(!domain.in_support(&z));
            }
            acc.push(w, false);
        }
        // σ-scale 4 puts a large fraction of mass beyond ±3.5.
        assert!(acc.zero_weight() > 2_000, "{}", acc.zero_weight());
        let est = FailureEstimate::from_rounds(&[acc], 0.95).unwrap();
        // The normalization oracle still holds on the truncated target.
        assert!((est.mean_weight - 1.0).abs() < 0.05, "{}", est.mean_weight);
    }

    #[test]
    fn brute_force_respects_truncation() {
        let domain = ZDomain::truncated(3, 2.0).unwrap();
        let mut rng = RngStream::from_seed(9);
        let mut z = Vec::new();
        for _ in 0..2_000 {
            let log_w = Proposal::BruteForce
                .draw(&domain, &mut rng, &mut z)
                .unwrap();
            assert_eq!(log_w, 0.0);
            assert!(domain.in_support(&z));
        }
    }

    #[test]
    fn estimate_fold_is_order_deterministic_and_mergeable() {
        let domain = ZDomain::unbounded(1).unwrap();
        let proposal = Proposal::ScaledSigma { scale: 2.5 };
        let t = inverse_normal_cdf(1.0 - 1e-3).unwrap();
        let base = RngStream::from_seed(21);
        let mut z = Vec::new();
        let mut full = RoundAccumulator::new();
        let mut first = RoundAccumulator::new();
        let mut second = RoundAccumulator::new();
        for k in 0..10_000u64 {
            let mut rng = base.substream(k);
            let w = proposal.draw(&domain, &mut rng, &mut z).unwrap().exp();
            let failed = w > 0.0 && z[0] > t;
            full.push(w, failed);
            if k < 5_000 {
                first.push(w, failed);
            } else {
                second.push(w, failed);
            }
        }
        let merged = FailureEstimate::from_rounds(&[first, second], 0.95).unwrap();
        let whole = FailureEstimate::from_rounds(&[full], 0.95).unwrap();
        // Same trial order within rounds, same round order: identical
        // counts; sums differ only by association — check tight agreement
        // plus bit-identity of the integer fields.
        assert_eq!(merged.trials, whole.trials);
        assert_eq!(merged.failures, whole.failures);
        assert!((merged.p_fail - whole.p_fail).abs() <= 1e-15 * whole.p_fail.abs());
        // And two identical folds are bit-identical.
        let again = FailureEstimate::from_rounds(&[first, second], 0.95).unwrap();
        assert_eq!(merged, again);
    }

    #[test]
    fn degenerate_all_pass_and_all_fail_are_finite() {
        let mut pass = RoundAccumulator::new();
        let mut fail = RoundAccumulator::new();
        for _ in 0..100 {
            pass.push(1.0, false);
            fail.push(1.0, true);
        }
        let ep = FailureEstimate::from_rounds(&[pass], 0.95).unwrap();
        assert_eq!(ep.p_fail, 0.0);
        assert!(ep.ci_lo == 0.0 && ep.ci_hi > 0.0 && ep.ci_hi <= 1.0);
        assert!(ep.ci_hi.is_finite() && !ep.rel_half_width().is_nan());
        let ef = FailureEstimate::from_rounds(&[fail], 0.95).unwrap();
        assert_eq!(ef.p_fail, 1.0);
        assert!(ef.ci_lo < 1.0 && ef.ci_lo >= 0.0 && ef.ci_hi == 1.0);
        assert!(ef.rel_half_width().is_finite());
    }

    #[test]
    fn all_zero_weight_rounds_are_finite() {
        let mut acc = RoundAccumulator::new();
        for _ in 0..50 {
            acc.push(0.0, false);
        }
        let est = FailureEstimate::from_rounds(&[acc], 0.95).unwrap();
        assert_eq!(est.p_fail, 0.0);
        assert_eq!(est.ess, 0.0);
        assert_eq!(est.zero_weight, 50);
        assert!(est.ci_hi.is_finite());
        assert!(!est.self_normalized.is_nan());
    }

    #[test]
    fn from_rounds_validates_inputs() {
        assert!(matches!(
            FailureEstimate::from_rounds(&[], 0.95),
            Err(StatsError::ZeroTrials)
        ));
        let mut acc = RoundAccumulator::new();
        acc.push(1.0, false);
        assert!(matches!(
            FailureEstimate::from_rounds(&[acc], 1.5),
            Err(StatsError::QuantileOutOfRange { .. })
        ));
    }

    #[test]
    fn proposal_validation() {
        let d = ZDomain::unbounded(2).unwrap();
        assert!(Proposal::BruteForce.validate(&d).is_ok());
        assert!(Proposal::ScaledSigma { scale: 0.5 }.validate(&d).is_err());
        assert!(Proposal::ScaledSigma { scale: f64::NAN }
            .validate(&d)
            .is_err());
        assert!(Proposal::ScaledSigma { scale: 4.0 }.validate(&d).is_ok());
        assert!(Proposal::ShiftedMixture {
            shift: vec![1.0],
            alpha: 0.5
        }
        .validate(&d)
        .is_err());
        assert!(Proposal::ShiftedMixture {
            shift: vec![1.0, 1.0],
            alpha: 0.0
        }
        .validate(&d)
        .is_err());
        assert!(Proposal::ShiftedMixture {
            shift: vec![1.0, 1.0],
            alpha: 0.3
        }
        .validate(&d)
        .is_ok());
        assert!(ZDomain::unbounded(0).is_err());
        assert!(ZDomain::truncated(1, 0.0).is_err());
        assert!(ZDomain::truncated(1, f64::NAN).is_err());
    }

    #[test]
    fn is_variance_beats_brute_force_at_equal_budget() {
        // Planted P = 1e-4: at 4000 trials brute force sees ~0 failures
        // while scaled-sigma resolves the tail with a usable std error.
        let p_true = 1e-4;
        let t = inverse_normal_cdf(1.0 - p_true).unwrap();
        let domain = ZDomain::unbounded(1).unwrap();
        let brute = run_planted(&Proposal::BruteForce, &domain, t, 4_000, 31);
        let is = run_planted(&Proposal::ScaledSigma { scale: 3.0 }, &domain, t, 4_000, 31);
        assert!(is.failures > brute.failures);
        assert!(is.p_fail > 0.0);
        assert!((is.p_fail - p_true).abs() / p_true < 1.0);
        // normal_tail sanity: truth used above really is 1e-4.
        assert!((normal_tail(t) - p_true).abs() / p_true < 1e-6);
    }
}
