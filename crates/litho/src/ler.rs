//! Line-edge roughness (LER): stochastic width variation *along* a wire.
//!
//! The paper's variation model is per-mask/per-wafer (CD, overlay,
//! spacer); LER is the complementary, intrinsically stochastic component
//! — resist and etch noise make the printed width fluctuate along the
//! line with a finite correlation length. `mpvar` models the per-segment
//! width deviation as a stationary AR(1) process:
//!
//! ```text
//! delta[0] ~ N(0, sigma²)
//! delta[k] = rho * delta[k-1] + sqrt(1 - rho²) * N(0, sigma²)
//! ```
//!
//! where `rho = exp(-L_seg / L_corr)` links the segment pitch to the
//! physical correlation length. Because resistance goes as `1/w`, LER
//! *raises* the expected wire resistance (Jensen's inequality) on top of
//! adding spread — an effect the extension experiment quantifies.

use mpvar_stats::{Gaussian, RngStream, StatsError};

use crate::error::LithoError;

/// An AR(1) line-edge-roughness model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LerModel {
    sigma_nm: f64,
    correlation_length_nm: f64,
}

impl LerModel {
    /// Creates a model from the 1σ width deviation and the correlation
    /// length, both in nm. Typical 193i/EUV resist LER: σ of 0.5–1.5nm
    /// with 10–40nm correlation length.
    ///
    /// # Errors
    ///
    /// [`LithoError::NonFiniteDraw`] for non-finite or negative inputs.
    pub fn new(sigma_nm: f64, correlation_length_nm: f64) -> Result<Self, LithoError> {
        for (name, v) in [
            ("ler_sigma_nm", sigma_nm),
            ("ler_correlation_length_nm", correlation_length_nm),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(LithoError::NonFiniteDraw { name, value: v });
            }
        }
        Ok(Self {
            sigma_nm,
            correlation_length_nm,
        })
    }

    /// The 1σ width deviation, nm.
    pub fn sigma_nm(&self) -> f64 {
        self.sigma_nm
    }

    /// The AR(1) coefficient for segments of `segment_length_nm`.
    pub fn rho(&self, segment_length_nm: f64) -> f64 {
        if self.correlation_length_nm == 0.0 {
            0.0
        } else {
            (-segment_length_nm / self.correlation_length_nm).exp()
        }
    }

    /// Samples a width-deviation profile for `segments` segments of
    /// `segment_length_nm` each.
    ///
    /// # Errors
    ///
    /// Propagates sampler failures; returns all-zero for a zero-sigma
    /// model.
    pub fn sample_profile(
        &self,
        segments: usize,
        segment_length_nm: f64,
        rng: &mut RngStream,
    ) -> Result<Vec<f64>, StatsError> {
        if self.sigma_nm == 0.0 || segments == 0 {
            return Ok(vec![0.0; segments]);
        }
        let gauss = Gaussian::new(0.0, self.sigma_nm)?;
        let rho = self.rho(segment_length_nm);
        let innovation_scale = (1.0 - rho * rho).sqrt();
        let mut profile = Vec::with_capacity(segments);
        let mut prev = gauss.sample(rng);
        profile.push(prev);
        for _ in 1..segments {
            prev = rho * prev + innovation_scale * gauss.sample(rng);
            profile.push(prev);
        }
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_stats::Summary;

    #[test]
    fn validation() {
        assert!(LerModel::new(-1.0, 20.0).is_err());
        assert!(LerModel::new(1.0, f64::NAN).is_err());
        assert!(LerModel::new(0.0, 0.0).is_ok());
        let m = LerModel::new(1.0, 20.0).unwrap();
        assert_eq!(m.sigma_nm(), 1.0);
    }

    #[test]
    fn profile_is_stationary() {
        let m = LerModel::new(1.2, 30.0).unwrap();
        let mut rng = RngStream::from_seed(3);
        let mut all = Summary::new();
        for _ in 0..200 {
            let p = m.sample_profile(100, 130.0, &mut rng).unwrap();
            all.extend(p.iter().copied());
        }
        assert!(all.mean().abs() < 0.02, "mean {}", all.mean());
        assert!((all.std_dev() - 1.2).abs() < 0.02, "std {}", all.std_dev());
    }

    #[test]
    fn correlation_follows_rho() {
        let m = LerModel::new(1.0, 130.0).unwrap(); // L_corr = one segment
        let expected_rho = m.rho(130.0);
        let mut rng = RngStream::from_seed(8);
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..500 {
            let p = m.sample_profile(50, 130.0, &mut rng).unwrap();
            for w in p.windows(2) {
                a.push(w[0]);
                b.push(w[1]);
            }
        }
        let r = mpvar_stats::pearson(&a, &b).unwrap();
        assert!(
            (r - expected_rho).abs() < 0.02,
            "measured {r} vs expected {expected_rho}"
        );
    }

    #[test]
    fn short_correlation_length_decorrelates() {
        let m = LerModel::new(1.0, 1.0).unwrap(); // much shorter than a segment
        assert!(m.rho(130.0) < 1e-10);
        let m0 = LerModel::new(1.0, 0.0).unwrap();
        assert_eq!(m0.rho(130.0), 0.0);
    }

    #[test]
    fn zero_sigma_gives_flat_profile() {
        let m = LerModel::new(0.0, 20.0).unwrap();
        let mut rng = RngStream::from_seed(1);
        let p = m.sample_profile(16, 130.0, &mut rng).unwrap();
        assert!(p.iter().all(|&d| d == 0.0));
        assert_eq!(p.len(), 16);
        assert!(m.sample_profile(0, 130.0, &mut rng).unwrap().is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let m = LerModel::new(0.8, 25.0).unwrap();
        let p1 = m
            .sample_profile(32, 130.0, &mut RngStream::from_seed(42))
            .unwrap();
        let p2 = m
            .sample_profile(32, 130.0, &mut RngStream::from_seed(42))
            .unwrap();
        assert_eq!(p1, p2);
    }
}
