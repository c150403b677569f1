//! Statistics and Monte-Carlo substrate for the `mpvar` workspace.
//!
//! The paper's methodology (Karageorgos et al., DATE 2015, §III.B) extracts
//! the statistical distribution of the SRAM read-time penalty by
//! Monte-Carlo sampling of process-variation parameters. This crate provides
//! everything that analysis needs and nothing circuit-specific:
//!
//! * [`rng`] — reproducible, splittable random-number streams so every
//!   experiment is seed-stable across runs and thread counts;
//! * [`sampler`] — Gaussian, truncated-Gaussian and uniform samplers built
//!   on the polar Box–Muller transform (no external distribution crate);
//! * [`descriptive`] — single-pass (Welford) summary statistics;
//! * [`histogram`] — fixed-bin histograms with CSV and ASCII rendering,
//!   used to regenerate the paper's Fig. 5;
//! * [`percentile`] — quantile estimation with linear interpolation;
//! * [`correlation`] — covariance / Pearson correlation, used by the
//!   SADP R_bl/R_VSS anti-correlation ablation.
//!
//! # Example
//!
//! ```
//! use mpvar_stats::prelude::*;
//!
//! let mut rng = RngStream::from_seed(42);
//! let gauss = Gaussian::new(0.0, 1.0)?;
//! let summary: Summary = (0..10_000).map(|_| gauss.sample(&mut rng)).collect();
//! assert!(summary.mean().abs() < 0.05);
//! assert!((summary.std_dev() - 1.0).abs() < 0.05);
//! # Ok::<(), mpvar_stats::StatsError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod bootstrap;
pub mod correlation;
pub mod descriptive;
pub mod error;
pub mod histogram;
pub mod importance;
pub mod kstest;
pub mod percentile;
pub mod rng;
pub mod sampler;
pub mod scratch;

pub use bootstrap::{bootstrap_ci, bootstrap_ci_with, bootstrap_sigma_ci, BootstrapCi};
pub use correlation::{covariance, pearson};
pub use descriptive::Summary;
pub use error::StatsError;
pub use histogram::Histogram;
pub use importance::{FailureEstimate, Proposal, RoundAccumulator, ZDomain};
pub use kstest::{ks_test_fitted, ks_test_gaussian, KsTest};
pub use percentile::{median, quantile};
pub use rng::RngStream;
pub use sampler::{
    erfc, inverse_normal_cdf, normal_tail, Gaussian, TruncatedGaussian, UniformRange,
};
pub use scratch::StatsScratch;

/// Convenient glob-import surface for downstream crates.
pub mod prelude {
    pub use crate::bootstrap::{bootstrap_ci, bootstrap_ci_with, bootstrap_sigma_ci, BootstrapCi};
    pub use crate::correlation::{covariance, pearson};
    pub use crate::descriptive::Summary;
    pub use crate::error::StatsError;
    pub use crate::histogram::Histogram;
    pub use crate::importance::{FailureEstimate, Proposal, RoundAccumulator, ZDomain};
    pub use crate::kstest::{ks_test_fitted, ks_test_gaussian, KsTest};
    pub use crate::percentile::{median, quantile};
    pub use crate::rng::RngStream;
    pub use crate::sampler::{
        erfc, inverse_normal_cdf, normal_tail, Gaussian, TruncatedGaussian, UniformRange,
    };
    pub use crate::scratch::StatsScratch;
}
