//! Independent-source waveforms: DC, PULSE, PWL.

use crate::error::SpiceError;

/// A time-domain source waveform.
///
/// # Example
///
/// ```
/// use mpvar_spice::Waveform;
///
/// // The word-line enable pulse from the read testbench:
/// // 0 -> 0.7V with a 10ps edge starting at t = 0.
/// let wl = Waveform::pulse(0.0, 0.7, 0.0, 10e-12, 10e-12, 5e-9, 10e-9)?;
/// assert_eq!(wl.eval(0.0), 0.0);
/// assert!((wl.eval(5e-12) - 0.35).abs() < 1e-12); // mid-edge
/// assert_eq!(wl.eval(1e-9), 0.7);
/// # Ok::<(), mpvar_spice::SpiceError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Waveform {
    /// A constant value.
    Dc(f64),
    /// A periodic trapezoidal pulse (SPICE `PULSE`).
    Pulse {
        /// Initial value.
        v0: f64,
        /// Pulsed value.
        v1: f64,
        /// Delay before the first edge, s.
        delay: f64,
        /// Rise time, s.
        rise: f64,
        /// Fall time, s.
        fall: f64,
        /// Pulse width (time at `v1`), s.
        width: f64,
        /// Period, s.
        period: f64,
    },
    /// Piecewise-linear (SPICE `PWL`): sorted `(time, value)` points,
    /// clamped at the ends.
    Pwl(Vec<(f64, f64)>),
}

impl Waveform {
    /// Creates a DC waveform.
    pub fn dc(value: f64) -> Waveform {
        Waveform::Dc(value)
    }

    /// Creates a PULSE waveform, validating the timing parameters.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] when rise/fall are negative, width is
    /// negative, or the period is positive but shorter than
    /// `rise + width + fall`.
    pub fn pulse(
        v0: f64,
        v1: f64,
        delay: f64,
        rise: f64,
        fall: f64,
        width: f64,
        period: f64,
    ) -> Result<Waveform, SpiceError> {
        let bad = |message: &str| SpiceError::InvalidValue {
            element: "PULSE".into(),
            message: message.into(),
        };
        if rise < 0.0 || fall < 0.0 || width < 0.0 || delay < 0.0 {
            return Err(bad("delay, rise, fall and width must be non-negative"));
        }
        if period > 0.0 && period < rise + width + fall {
            return Err(bad("period shorter than rise + width + fall"));
        }
        Ok(Waveform::Pulse {
            v0,
            v1,
            delay,
            rise,
            fall,
            width,
            period,
        })
    }

    /// Creates a PWL waveform from `(time, value)` points.
    ///
    /// # Errors
    ///
    /// [`SpiceError::InvalidValue`] when empty or times are not strictly
    /// increasing.
    pub fn pwl(points: Vec<(f64, f64)>) -> Result<Waveform, SpiceError> {
        let bad = |message: &str| SpiceError::InvalidValue {
            element: "PWL".into(),
            message: message.into(),
        };
        if points.is_empty() {
            return Err(bad("needs at least one point"));
        }
        if points.windows(2).any(|w| w[1].0 <= w[0].0) {
            return Err(bad("times must be strictly increasing"));
        }
        Ok(Waveform::Pwl(points))
    }

    /// Evaluates the waveform at time `t` (seconds).
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            Waveform::Dc(v) => *v,
            Waveform::Pulse {
                v0,
                v1,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                if t < *delay {
                    return *v0;
                }
                let mut tau = t - delay;
                if *period > 0.0 {
                    tau %= period;
                }
                if tau < *rise {
                    if *rise == 0.0 {
                        *v1
                    } else {
                        v0 + (v1 - v0) * tau / rise
                    }
                } else if tau < rise + width {
                    *v1
                } else if tau < rise + width + fall {
                    if *fall == 0.0 {
                        *v0
                    } else {
                        v1 + (v0 - v1) * (tau - rise - width) / fall
                    }
                } else {
                    *v0
                }
            }
            Waveform::Pwl(points) => {
                if t <= points[0].0 {
                    return points[0].1;
                }
                if t >= points[points.len() - 1].0 {
                    return points[points.len() - 1].1;
                }
                // Binary search for the bracketing segment.
                let mut lo = 0;
                let mut hi = points.len() - 1;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    if points[mid].0 <= t {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                let (t0, v0) = points[lo];
                let (t1, v1) = points[hi];
                v0 + (v1 - v0) * (t - t0) / (t1 - t0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_is_constant() {
        let w = Waveform::dc(0.7);
        assert_eq!(w.eval(0.0), 0.7);
        assert_eq!(w.eval(1e9), 0.7);
    }

    #[test]
    fn pulse_phases() {
        let w = Waveform::pulse(0.0, 1.0, 1e-9, 1e-10, 2e-10, 1e-9, 0.0).unwrap();
        assert_eq!(w.eval(0.5e-9), 0.0); // before delay
        assert!((w.eval(1.05e-9) - 0.5).abs() < 1e-9); // mid-rise
        assert_eq!(w.eval(1.5e-9), 1.0); // flat top
        assert!((w.eval(1e-9 + 1e-10 + 1e-9 + 1e-10) - 0.5).abs() < 1e-9); // mid-fall
        assert_eq!(w.eval(5e-9), 0.0); // after fall, no period
    }

    #[test]
    fn pulse_periodic_repeats() {
        let w = Waveform::pulse(0.0, 1.0, 0.0, 0.0, 0.0, 1e-9, 2e-9).unwrap();
        assert_eq!(w.eval(0.5e-9), 1.0);
        assert_eq!(w.eval(1.5e-9), 0.0);
        assert_eq!(w.eval(2.5e-9), 1.0); // second period
    }

    #[test]
    fn pulse_zero_edges_step() {
        let w = Waveform::pulse(0.2, 0.9, 0.0, 0.0, 0.0, 1e-9, 0.0).unwrap();
        assert_eq!(w.eval(0.0), 0.9);
        assert_eq!(w.eval(2e-9), 0.2);
    }

    #[test]
    fn pulse_validation() {
        assert!(Waveform::pulse(0.0, 1.0, -1.0, 0.0, 0.0, 1.0, 0.0).is_err());
        assert!(Waveform::pulse(0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0).is_err());
        assert!(Waveform::pulse(0.0, 1.0, 0.0, 0.5, 0.5, 1.0, 1.5).is_err());
        assert!(Waveform::pulse(0.0, 1.0, 0.0, 0.5, 0.5, 1.0, 2.0).is_ok());
    }

    #[test]
    fn pwl_interpolates_and_clamps() {
        let w = Waveform::pwl(vec![(0.0, 0.0), (1.0, 1.0), (2.0, -1.0)]).unwrap();
        assert_eq!(w.eval(-1.0), 0.0);
        assert!((w.eval(0.5) - 0.5).abs() < 1e-12);
        assert!((w.eval(1.5) - 0.0).abs() < 1e-12);
        assert_eq!(w.eval(3.0), -1.0);
    }

    #[test]
    fn pwl_binary_search_many_points() {
        let pts: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, (i % 7) as f64)).collect();
        let w = Waveform::pwl(pts).unwrap();
        assert!((w.eval(42.5) - ((42 % 7) as f64 + (43 % 7) as f64) / 2.0).abs() < 1e-12);
    }

    #[test]
    fn pwl_validation() {
        assert!(Waveform::pwl(vec![]).is_err());
        assert!(Waveform::pwl(vec![(0.0, 1.0), (0.0, 2.0)]).is_err());
        assert!(Waveform::pwl(vec![(1.0, 1.0), (0.5, 2.0)]).is_err());
        assert!(Waveform::pwl(vec![(0.0, 1.0)]).is_ok());
    }
}
