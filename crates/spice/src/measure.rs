//! Waveform measurements.
//!
//! The paper's figure of merit is the time-to-discharge `td`: the moment
//! the sense-amp input differential reaches 70mV (`|Vbl - Vblb| >=
//! 0.07V`, §II.C). That is a *differential threshold crossing*, provided
//! here along with plain single-signal crossings and edge-to-edge delay.

use crate::error::SpiceError;
use crate::netlist::NodeId;
use crate::transient::TransientResult;

/// Which way a signal must cross the threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossDirection {
    /// Crossing from below to at-or-above the threshold.
    Rising,
    /// Crossing from above to at-or-below the threshold.
    Falling,
    /// Either direction.
    Either,
}

fn crossing_time(
    times: &[f64],
    values: &[f64],
    threshold: f64,
    direction: CrossDirection,
    t_start: f64,
) -> Option<f64> {
    for i in 1..times.len() {
        if times[i] < t_start {
            continue;
        }
        let (v0, v1) = (values[i - 1], values[i]);
        let rising = v0 < threshold && v1 >= threshold;
        let falling = v0 > threshold && v1 <= threshold;
        let hit = match direction {
            CrossDirection::Rising => rising,
            CrossDirection::Falling => falling,
            CrossDirection::Either => rising || falling,
        };
        if hit {
            let (t0, t1) = (times[i - 1], times[i]);
            // Exact-sample hit: the sample time IS the crossing; the
            // interpolation below could perturb it by an ulp.
            if v1 == threshold || v1 == v0 {
                return Some(t1);
            }
            let t = t0 + (threshold - v0) * (t1 - t0) / (v1 - v0);
            if t >= t_start {
                return Some(t);
            }
        }
    }
    None
}

/// Time at which a raw sample series first crosses `threshold` in
/// `direction`, at or after `t_start` — the slice-level primitive behind
/// [`cross_threshold`], for callers (the batched trial solver) that hold
/// probe waveforms outside a [`TransientResult`].
///
/// Returns `None` when the series never crosses; the crossing arithmetic
/// is bit-identical to [`cross_threshold`] on the same samples.
pub fn cross_threshold_series(
    times: &[f64],
    values: &[f64],
    threshold: f64,
    direction: CrossDirection,
    t_start: f64,
) -> Option<f64> {
    crossing_time(times, values, threshold, direction, t_start)
}

/// Time at which the differential `a - b` of two raw sample series first
/// crosses `threshold` in `direction`, at or after `t_start`.
///
/// The sense-amp criterion of the paper is
/// `cross_differential_series(times, v(blb), v(bl), 0.07, Rising, t_wl, diff)`:
/// BLB stays precharged while BL discharges, so the differential rises
/// through +70mV.
///
/// The differential is staged into `diff` (cleared and refilled), so a
/// caller measuring many trials can reuse one buffer and allocate
/// nothing in steady state.
pub fn cross_differential_series(
    times: &[f64],
    a: &[f64],
    b: &[f64],
    threshold: f64,
    direction: CrossDirection,
    t_start: f64,
    diff: &mut Vec<f64>,
) -> Option<f64> {
    diff.clear();
    diff.extend(a.iter().zip(b).map(|(x, y)| x - y));
    crossing_time(times, diff, threshold, direction, t_start)
}

/// Time at which `node` first crosses `threshold` in `direction`, at or
/// after `t_start`, with linear interpolation between samples.
///
/// # Errors
///
/// [`SpiceError::MeasurementNotFound`] when the signal never crosses
/// within the simulated window.
///
/// # Example
///
/// ```
/// use mpvar_spice::prelude::*;
/// use mpvar_spice::measure::{cross_threshold, CrossDirection};
///
/// let mut net = Netlist::new();
/// let n1 = net.node("n1");
/// net.add_resistor("R1", n1, Netlist::GROUND, 1_000.0)?;
/// net.add_capacitor("C1", n1, Netlist::GROUND, 1e-12)?;
/// let mut tran = Transient::new(&net)?;
/// tran.set_initial_voltage(n1, 1.0);
/// let result = tran.run(1e-12, 5e-9)?;
/// // 10% discharge of an RC: t = -ln(0.9) * tau = 0.105ns.
/// let t = cross_threshold(&result, n1, 0.9, CrossDirection::Falling, 0.0)?;
/// assert!((t - 0.10536e-9).abs() < 2e-12);
/// # Ok::<(), mpvar_spice::SpiceError>(())
/// ```
pub fn cross_threshold(
    result: &TransientResult,
    node: NodeId,
    threshold: f64,
    direction: CrossDirection,
    t_start: f64,
) -> Result<f64, SpiceError> {
    crossing_time(
        result.times(),
        result.waveform(node),
        threshold,
        direction,
        t_start,
    )
    .ok_or_else(|| SpiceError::MeasurementNotFound {
        message: format!(
            "node `{}` never crossed {threshold} after t = {t_start}",
            result.node_name(node)
        ),
    })
}

/// Delay between a crossing on `from` and the next crossing on `to`.
///
/// # Errors
///
/// [`SpiceError::MeasurementNotFound`] if either crossing is missing.
pub fn delay(
    result: &TransientResult,
    from: NodeId,
    from_threshold: f64,
    from_direction: CrossDirection,
    to: NodeId,
    to_threshold: f64,
    to_direction: CrossDirection,
) -> Result<f64, SpiceError> {
    let t0 = cross_threshold(result, from, from_threshold, from_direction, 0.0)?;
    let t1 = cross_threshold(result, to, to_threshold, to_direction, t0)?;
    Ok(t1 - t0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Netlist;
    use crate::transient::Transient;
    use crate::waveform::Waveform;

    fn rc_result() -> (TransientResult, NodeId) {
        let mut net = Netlist::new();
        let n1 = net.node("n1");
        net.add_resistor("R1", n1, Netlist::GROUND, 1e3).unwrap();
        net.add_capacitor("C1", n1, Netlist::GROUND, 1e-12).unwrap();
        let mut tran = Transient::new(&net).unwrap();
        tran.set_initial_voltage(n1, 1.0);
        (tran.run(1e-12, 5e-9).unwrap(), n1)
    }

    #[test]
    fn falling_crossing_interpolates() {
        let (r, n1) = rc_result();
        // v = exp(-t/tau): 50% at t = ln(2) * 1ns.
        let t = cross_threshold(&r, n1, 0.5, CrossDirection::Falling, 0.0).unwrap();
        assert!((t - 0.6931e-9).abs() < 2e-12, "t = {t}");
    }

    #[test]
    fn rising_direction_not_found_on_decay() {
        let (r, n1) = rc_result();
        assert!(matches!(
            cross_threshold(&r, n1, 0.5, CrossDirection::Rising, 0.0),
            Err(SpiceError::MeasurementNotFound { .. })
        ));
        // Either direction finds the falling edge.
        assert!(cross_threshold(&r, n1, 0.5, CrossDirection::Either, 0.0).is_ok());
    }

    #[test]
    fn t_start_skips_early_crossings() {
        let mut net = Netlist::new();
        let a = net.node("a");
        net.add_vsource(
            "V1",
            a,
            Netlist::GROUND,
            Waveform::pulse(0.0, 1.0, 0.1e-9, 0.1e-9, 0.1e-9, 0.3e-9, 1e-9).unwrap(),
        )
        .unwrap();
        net.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
        let tran = Transient::new(&net).unwrap();
        let r = tran.run(1e-12, 2.5e-9).unwrap();
        let first = cross_threshold(&r, a, 0.5, CrossDirection::Rising, 0.0).unwrap();
        let second = cross_threshold(&r, a, 0.5, CrossDirection::Rising, first + 0.1e-9).unwrap();
        assert!(second > first + 0.5e-9, "{first} then {second}");
    }

    #[test]
    fn differential_crossing_bl_blb_style() {
        // a discharges, b holds: differential b - a rises through 70mV.
        let mut net = Netlist::new();
        let a = net.node("bl");
        let b = net.node("blb");
        net.add_resistor("R1", a, Netlist::GROUND, 1e3).unwrap();
        net.add_capacitor("Ca", a, Netlist::GROUND, 1e-12).unwrap();
        net.add_capacitor("Cb", b, Netlist::GROUND, 1e-12).unwrap();
        net.add_resistor("Rhold", b, Netlist::GROUND, 1e12).unwrap();
        let mut tran = Transient::new(&net).unwrap();
        tran.set_initial_voltage(a, 0.7);
        tran.set_initial_voltage(b, 0.7);
        let r = tran.run(1e-12, 2e-9).unwrap();
        let t = cross_differential_series(
            r.times(),
            r.waveform(b),
            r.waveform(a),
            0.07,
            CrossDirection::Rising,
            0.0,
            &mut Vec::new(),
        )
        .unwrap();
        // 0.07/0.7 = 10% discharge: t = -ln(0.9) * tau.
        assert!((t - 0.10536e-9).abs() < 2e-12, "t = {t}");
    }

    #[test]
    fn delay_between_edges() {
        let mut net = Netlist::new();
        let a = net.node("a");
        let b = net.node("b");
        net.add_vsource(
            "VA",
            a,
            Netlist::GROUND,
            Waveform::pwl(vec![(0.0, 0.0), (1e-10, 1.0)]).unwrap(),
        )
        .unwrap();
        net.add_resistor("RA", a, Netlist::GROUND, 1e3).unwrap();
        net.add_resistor("RB", a, b, 1e3).unwrap();
        net.add_capacitor("CB", b, Netlist::GROUND, 1e-12).unwrap();
        let tran = Transient::new(&net).unwrap();
        let r = tran.run(1e-12, 5e-9).unwrap();
        let d = delay(
            &r,
            a,
            0.5,
            CrossDirection::Rising,
            b,
            0.5,
            CrossDirection::Rising,
        )
        .unwrap();
        assert!(d > 0.0, "b lags a: {d}");
    }

    #[test]
    fn exact_sample_hit_returns_that_time() {
        let times = [0.0, 1.0, 2.0];
        let vals = [0.0, 0.5, 1.0];
        let t = crossing_time(&times, &vals, 0.5, CrossDirection::Rising, 0.0).unwrap();
        assert!((t - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// A sample landing exactly on the threshold IS the crossing:
        /// `crossing_time` returns that sample time bit-for-bit, with no
        /// interpolation rounding.
        #[test]
        fn exact_threshold_sample_is_returned_verbatim(
            threshold in -2.0f64..2.0,
            below in 0.01f64..1.0,
            above in 0.01f64..1.0,
            steps in prop::collection::vec(1e-12f64..1e-9, 3..20),
            hit_at in 1usize..19,
        ) {
            let hit = hit_at.min(steps.len() - 1);
            let times: Vec<f64> = steps
                .iter()
                .scan(0.0, |acc, dt| {
                    *acc += dt;
                    Some(*acc)
                })
                .collect();
            let values: Vec<f64> = (0..times.len())
                .map(|i| match i.cmp(&hit) {
                    std::cmp::Ordering::Less => threshold - below,
                    std::cmp::Ordering::Equal => threshold,
                    std::cmp::Ordering::Greater => threshold + above,
                })
                .collect();
            let t = crossing_time(&times, &values, threshold, CrossDirection::Rising, 0.0);
            prop_assert_eq!(t, Some(times[hit]));
        }

        /// A plateau that *touches* the threshold from below yields
        /// exactly one rising crossing (the first touch) and never a
        /// falling one: leaving an at-threshold plateau downward is not
        /// a fall from above.
        #[test]
        fn plateau_touching_threshold_rises_once_never_falls(
            threshold in -2.0f64..2.0,
            depth in 0.01f64..1.0,
            pre in 1usize..5,
            plateau in 1usize..5,
            post in 1usize..5,
            dt in 1e-12f64..1e-9,
        ) {
            let n = pre + plateau + post;
            let times: Vec<f64> = (0..n).map(|i| i as f64 * dt).collect();
            let values: Vec<f64> = (0..n)
                .map(|i| {
                    if i >= pre && i < pre + plateau {
                        threshold
                    } else {
                        threshold - depth
                    }
                })
                .collect();
            let rising = crossing_time(&times, &values, threshold, CrossDirection::Rising, 0.0);
            prop_assert_eq!(rising, Some(times[pre]));
            let falling = crossing_time(&times, &values, threshold, CrossDirection::Falling, 0.0);
            prop_assert_eq!(falling, None);
            let either = crossing_time(&times, &values, threshold, CrossDirection::Either, 0.0);
            prop_assert_eq!(either, rising);
            // Restarting the search after the plateau finds nothing:
            // the single touch was the only crossing.
            let after = times[pre + plateau - 1] + dt / 2.0;
            let again = crossing_time(&times, &values, threshold, CrossDirection::Either, after);
            prop_assert_eq!(again, None);
        }
    }
}
