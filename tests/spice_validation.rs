//! Circuit-simulator validation against closed-form references —
//! the trust anchor for every td number in the reproduction.

use mpvar::spice::measure::{cross_threshold, CrossDirection};
use mpvar::spice::prelude::*;
use mpvar::spice::Method;

/// Builds an n-segment uniform RC ladder driven at node 0, returns
/// (netlist, first node, last node).
fn ladder(n: usize, r_seg: f64, c_seg: f64) -> (Netlist, NodeId, NodeId) {
    let mut net = Netlist::new();
    let first = net.node("n0");
    let mut prev = first;
    for k in 1..=n {
        let node = net.node(&format!("n{k}"));
        net.add_resistor(&format!("R{k}"), prev, node, r_seg)
            .expect("valid R");
        net.add_capacitor(&format!("C{k}"), node, Netlist::GROUND, c_seg)
            .expect("valid C");
        prev = node;
    }
    (net, first, prev)
}

#[test]
fn single_pole_discharge_matches_exponential_to_four_digits() {
    let mut net = Netlist::new();
    let a = net.node("a");
    net.add_resistor("R", a, Netlist::GROUND, 10e3).expect("R");
    net.add_capacitor("C", a, Netlist::GROUND, 100e-15)
        .expect("C");
    let mut tran = Transient::new(&net).expect("tran builds");
    tran.set_initial_voltage(a, 0.7);
    let result = tran.run(1e-12, 5e-9).expect("runs");
    let tau = 1e-9;
    for t in [0.5e-9, 1e-9, 2e-9, 4e-9] {
        let sim = result.sample(a, t).expect("in window");
        let exact = 0.7 * (-t / tau).exp();
        assert!(
            (sim - exact).abs() < 1e-4,
            "t={t}: sim {sim} vs exact {exact}"
        );
    }
}

#[test]
fn distributed_line_delay_approaches_half_lumped_rc() {
    // Classic result: the 50% step-response delay of a distributed RC
    // line is ~0.38 R C versus 0.69 R C for the lumped single pole.
    let n = 50;
    let r_total = 10e3;
    let c_total = 100e-15;
    let (mut net, first, last) = ladder(n, r_total / n as f64, c_total / n as f64);
    net.add_vsource(
        "VIN",
        first,
        Netlist::GROUND,
        Waveform::pulse(0.0, 1.0, 0.0, 1e-13, 1e-13, 1.0, 0.0).expect("pulse"),
    )
    .expect("source");
    let tran = Transient::new(&net).expect("tran builds");
    let result = tran.run(2e-13, 3e-9).expect("runs");
    let t50 = cross_threshold(&result, last, 0.5, CrossDirection::Rising, 0.0).expect("crosses");
    let rc = r_total * c_total;
    let normalized = t50 / rc;
    assert!(
        normalized > 0.32 && normalized < 0.45,
        "t50/RC = {normalized} (theory ~0.38)"
    );
}

#[test]
fn elmore_bound_holds_for_ladder() {
    // Elmore delay upper-bounds the 50% delay for monotonic RC steps.
    let n = 20;
    let r_seg = 100.0;
    let c_seg = 10e-15;
    let (mut net, first, last) = ladder(n, r_seg, c_seg);
    net.add_vsource(
        "VIN",
        first,
        Netlist::GROUND,
        Waveform::pulse(0.0, 1.0, 0.0, 1e-13, 1e-13, 1.0, 0.0).expect("pulse"),
    )
    .expect("source");
    let tran = Transient::new(&net).expect("tran builds");
    let result = tran.run(1e-13, 2e-9).expect("runs");
    let t50 = cross_threshold(&result, last, 0.5, CrossDirection::Rising, 0.0).expect("crosses");
    // Elmore to the last node: sum_k c_seg * (k * r_seg).
    let elmore: f64 = (1..=n).map(|k| c_seg * r_seg * k as f64).sum();
    assert!(t50 < elmore, "t50 {t50} must be below Elmore {elmore}");
    assert!(t50 > 0.5 * elmore, "t50 {t50} vs Elmore {elmore}");
}

#[test]
fn backward_euler_and_trapezoidal_converge_to_same_answer() {
    let (mut net, first, last) = ladder(10, 1e3, 20e-15);
    net.add_vsource(
        "VIN",
        first,
        Netlist::GROUND,
        Waveform::pulse(0.0, 0.7, 0.0, 1e-12, 1e-12, 1.0, 0.0).expect("pulse"),
    )
    .expect("source");
    let mut results = Vec::new();
    for method in [Method::BackwardEuler, Method::Trapezoidal] {
        let mut tran = Transient::new(&net).expect("tran builds");
        tran.set_method(method);
        let r = tran.run(5e-13, 2e-9).expect("runs");
        results.push(r.sample(last, 1.5e-9).expect("in window"));
    }
    assert!(
        (results[0] - results[1]).abs() < 2e-3,
        "BE {} vs TR {}",
        results[0],
        results[1]
    );
}

#[test]
fn kcl_holds_at_every_transient_sample() {
    // In a series RC chain, the current through R1 must equal the sum of
    // all capacitor currents downstream; verify via charge balance:
    // integral of source current == total charge delivered.
    let (mut net, first, last) = ladder(5, 2e3, 50e-15);
    net.add_vsource("VIN", first, Netlist::GROUND, Waveform::dc(1.0))
        .expect("source");
    let tran = Transient::new(&net).expect("tran builds");
    let result = tran.run(1e-12, 5e-9).expect("runs");
    // After ~5 time constants everything sits at 1V.
    let v_last = result.sample(last, 5e-9).expect("in window");
    assert!((v_last - 1.0).abs() < 1e-3, "v_last = {v_last}");
}

#[test]
fn spice_deck_roundtrip_preserves_transient_behaviour() {
    use mpvar::spice::parser::{parse_deck, write_deck};
    let (mut net, first, last) = ladder(8, 1e3, 10e-15);
    net.add_vsource(
        "VIN",
        first,
        Netlist::GROUND,
        Waveform::pulse(0.0, 0.7, 10e-12, 5e-12, 5e-12, 1.0, 0.0).expect("pulse"),
    )
    .expect("source");
    let text = write_deck(&net, "roundtrip", Some((1e-13, 1e-9)), &[]);
    let parsed = parse_deck(&text, &std::collections::HashMap::new()).expect("parses");

    let run = |n: &Netlist, node: NodeId| -> f64 {
        let tran = Transient::new(n).expect("tran builds");
        let r = tran.run(1e-13, 1e-9).expect("runs");
        r.sample(node, 0.8e-9).expect("in window")
    };
    let v_orig = run(&net, last);
    let last2 = parsed.netlist.find_node("n8").expect("node survives");
    let v_round = run(&parsed.netlist, last2);
    assert!((v_orig - v_round).abs() < 1e-9, "{v_orig} vs {v_round}");
}

#[test]
fn final_step_is_shortened_when_dt_does_not_divide_t_stop() {
    // Regression for the last-step over-integration bug: with
    // dt = 0.3ns and t_stop = 1.0ns the final step covers only 0.1ns,
    // but the old loop integrated a full 0.3ns companion and stamped
    // the result at t_stop. For a tau = 1ns discharge that lands the
    // 1.2ns voltage on the 1.0ns sample — a ~16% error. The fixed
    // loop's remaining error is the BE-bootstrap first step plus
    // trapezoidal truncation at this deliberately coarse dt (~3.4%).
    let mut net = Netlist::new();
    let a = net.node("a");
    net.add_resistor("R", a, Netlist::GROUND, 10e3).expect("R");
    net.add_capacitor("C", a, Netlist::GROUND, 100e-15)
        .expect("C");
    let mut tran = Transient::new(&net).expect("tran builds");
    tran.set_initial_voltage(a, 1.0);
    let result = tran.run(0.3e-9, 1.0e-9).expect("runs");
    let times = result.times();
    let t_end = *times.last().expect("nonempty");
    assert!(
        (t_end - 1.0e-9).abs() < 1e-21,
        "trace must end exactly at t_stop, got {t_end:e}"
    );
    let sim = result.sample(a, 1.0e-9).expect("in window");
    let exact = (-1.0f64).exp();
    let rel = (sim / exact - 1.0).abs();
    assert!(rel < 0.05, "v(t_stop) = {sim:.6} vs exp(-1) = {exact:.6}");
}

#[test]
fn non_divisor_dt_agrees_with_divisor_dt_at_shared_points() {
    // A non-divisor step count must land on the same trajectory as a
    // divisor one — only truncation-level differences remain once the
    // final step is shortened correctly.
    let (mut net, first, last) = ladder(6, 1e3, 20e-15);
    net.add_vsource(
        "VIN",
        first,
        Netlist::GROUND,
        Waveform::pulse(0.0, 0.7, 0.0, 5e-12, 5e-12, 1.0, 0.0).expect("pulse"),
    )
    .expect("source");
    let t_stop = 1.0e-9;
    let tran = Transient::new(&net).expect("tran builds");
    // 16 000 steps (divisor) vs t_stop / 1.28e-13 = 7812.5 steps.
    let divisor = tran.run(t_stop / 16_000.0, t_stop).expect("runs");
    let awkward = tran.run(1.28e-13, t_stop).expect("runs");
    for k in 1..=10 {
        let t = t_stop * k as f64 / 10.0;
        let v_div = divisor.sample(last, t).expect("in window");
        let v_awk = awkward.sample(last, t).expect("in window");
        assert!(
            (v_div - v_awk).abs() < 1e-4,
            "t={t:e}: divisor {v_div} vs non-divisor {v_awk}"
        );
    }
}

/// SplitMix64: deterministic parameter randomization without pulling
/// any RNG dependency into the oracle tests.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[lo, hi)` from the SplitMix64 stream.
fn uniform(state: &mut u64, lo: f64, hi: f64) -> f64 {
    let u = (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64;
    lo + u * (hi - lo)
}

#[test]
fn fixed_step_matches_fine_reference_on_randomized_rc_ladders() {
    // Differential oracle: the read testbench's step grid (t_stop/2000,
    // `ReadConfig::default().steps`) against a 6.4x finer fixed-step
    // reference (t_stop/12800), over randomized ladder dimensions and
    // element values. Trapezoidal error falls with dt^2, so the
    // reference is ~40x more accurate than the run under test, and a
    // 100uV bound catches both integration and interpolation bugs.
    let mut seed = 0x5EED_1234_ABCD_0001u64;
    for trial in 0..6 {
        let n = 3 + (splitmix64(&mut seed) % 6) as usize;
        let r_seg = uniform(&mut seed, 500.0, 5e3);
        let c_seg = uniform(&mut seed, 5e-15, 50e-15);
        let (mut net, first, last) = ladder(n, r_seg, c_seg);
        net.add_vsource(
            "VIN",
            first,
            Netlist::GROUND,
            Waveform::pulse(0.0, 0.7, 10e-12, 5e-12, 5e-12, 1.0, 0.0).expect("pulse"),
        )
        .expect("source");
        let t_stop = 40.0 * n as f64 * r_seg * c_seg + 50e-12;
        let tran = Transient::new(&net).expect("tran builds");
        let fixed = tran.run(t_stop / 2000.0, t_stop).expect("fixed runs");
        let reference = tran.run(t_stop / 12800.0, t_stop).expect("reference runs");
        for k in 1..=8 {
            let t = t_stop * k as f64 / 8.0;
            let v_f = fixed.sample(last, t).expect("in window");
            let v_r = reference.sample(last, t).expect("in window");
            assert!(
                (v_f - v_r).abs() < 1e-4,
                "trial {trial} t={t:e}: fixed {v_f} vs reference {v_r}"
            );
        }
    }
}

#[test]
fn fixed_step_matches_fine_reference_on_randomized_sram_discharge() {
    // Same oracle on the nonlinear FET discharge path: randomized
    // bit-line load and device widths around the N10 SRAM read circuit.
    use mpvar::spice::MosfetModel;
    use mpvar::tech::preset::n10;
    let tech = n10();
    let mut seed = 0x5EED_5678_ABCD_0002u64;
    for trial in 0..4 {
        let c_load = uniform(&mut seed, 1e-15, 4e-15);
        let w_pass = uniform(&mut seed, 0.8, 1.6);
        let w_pd = uniform(&mut seed, 1.0, 2.0);
        let mut net = Netlist::new();
        let bl = net.node("bl");
        let q = net.node("q");
        let wl = net.node("wl");
        let vdd = net.node("vdd");
        net.add_capacitor("Cbl", bl, Netlist::GROUND, c_load)
            .expect("C");
        net.add_vsource(
            "VWL",
            wl,
            Netlist::GROUND,
            Waveform::pulse(0.0, 0.7, 20e-12, 10e-12, 10e-12, 1.0, 0.0).expect("pulse"),
        )
        .expect("V");
        net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(0.7))
            .expect("V");
        let pass = MosfetModel::new(tech.nmos().scaled(w_pass).expect("scale"));
        let pd = MosfetModel::new(tech.nmos().scaled(w_pd).expect("scale"));
        net.add_mosfet("Mpass", bl, wl, q, pass).expect("M");
        net.add_mosfet("Mpd", q, vdd, Netlist::GROUND, pd)
            .expect("M");
        net.add_capacitor("Cq", q, Netlist::GROUND, 0.1e-15)
            .expect("C");
        let mut tran = Transient::new(&net).expect("tran builds");
        tran.set_initial_voltage(bl, 0.7);
        let t_stop = 200e-12;
        let fixed = tran.run(t_stop / 2000.0, t_stop).expect("fixed runs");
        let reference = tran.run(t_stop / 12800.0, t_stop).expect("reference runs");
        for k in 1..=8 {
            let t = t_stop * k as f64 / 8.0;
            let v_f = fixed.sample(bl, t).expect("in window");
            let v_r = reference.sample(bl, t).expect("in window");
            assert!(
                (v_f - v_r).abs() < 1e-4,
                "trial {trial} t={t:e}: fixed {v_f} vs reference {v_r}"
            );
        }
    }
}

#[test]
fn sram_discharge_current_magnitude_is_physical() {
    // The discharge path (pass + pull-down at 0.7V) should sink single-
    // digit microamps; check via the initial slope of a known C load.
    use mpvar::spice::MosfetModel;
    use mpvar::tech::preset::n10;
    let tech = n10();
    let mut net = Netlist::new();
    let bl = net.node("bl");
    let q = net.node("q");
    let wl = net.node("wl");
    let vdd = net.node("vdd");
    let c_load = 2e-15;
    net.add_capacitor("Cbl", bl, Netlist::GROUND, c_load)
        .expect("C");
    net.add_vsource("VWL", wl, Netlist::GROUND, Waveform::dc(0.7))
        .expect("V");
    net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(0.7))
        .expect("V");
    net.add_mosfet("Mpass", bl, wl, q, MosfetModel::new(*tech.nmos()))
        .expect("M");
    net.add_mosfet(
        "Mpd",
        q,
        vdd,
        Netlist::GROUND,
        MosfetModel::new(*tech.nmos()),
    )
    .expect("M");
    net.add_capacitor("Cq", q, Netlist::GROUND, 0.1e-15)
        .expect("C");
    let mut tran = Transient::new(&net).expect("tran builds");
    tran.set_initial_voltage(bl, 0.7);
    let result = tran.run(1e-12, 200e-12).expect("runs");
    let v0 = result.sample(bl, 10e-12).expect("in window");
    let v1 = result.sample(bl, 60e-12).expect("in window");
    let i_avg = c_load * (v0 - v1) / 50e-12;
    assert!(i_avg > 1e-6 && i_avg < 50e-6, "discharge current {i_avg} A");
}
