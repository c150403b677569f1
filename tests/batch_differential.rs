//! Differential suite for the batched SoA trial solver.
//!
//! The batch contract is *bit-identity*: for a given seed, the
//! SPICE-backed Monte-Carlo distribution must not depend on batch
//! width or thread count — lanes never mix arithmetically, and any
//! trial the batch cannot carry (pivot drift, non-convergence,
//! structural divergence) is transparently re-run through the scalar
//! path. These tests drive that contract end to end: randomized SRAM
//! read decks through `tdp_distribution_spice` and a deck engineered to
//! force a mid-transient lane eviction. The steady-state no-allocation
//! guarantee of the reusable workspace is `tests/batch_telemetry.rs`,
//! alone in its binary because its collector is process-global.

use mpvar::core::montecarlo::{tdp_distribution_spice, McConfig, SpiceMcOptions, TdpDistribution};
use mpvar::spice::{
    run_transient_batch, BatchLaneOutcome, BatchTransientSpec, BatchedMnaWorkspace,
    LaneFalloutReason, Method, MosfetModel, Netlist, Transient, Waveform,
};
use mpvar::sram::BitcellGeometry;
use mpvar::tech::preset::n10;
use mpvar::tech::{PatterningOption, TechDb, VariationBudget};

fn setup() -> (TechDb, BitcellGeometry, VariationBudget) {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    let budget = VariationBudget::paper_default(PatterningOption::Le3, 8.0).unwrap();
    (tech, cell, budget)
}

fn spice_dist(
    tech: &TechDb,
    cell: &BitcellGeometry,
    budget: &VariationBudget,
    width: usize,
    threads: usize,
    trials: usize,
) -> TdpDistribution {
    tdp_distribution_spice(
        tech,
        cell,
        PatterningOption::Le3,
        budget,
        8,
        &McConfig::builder()
            .trials(trials)
            .seed(42)
            .threads(threads)
            .build(),
        &SpiceMcOptions {
            batch_width: width,
            ..SpiceMcOptions::default()
        },
    )
    .unwrap()
}

/// Widths {1, 3, 8} at 11 trials cover the 1-lane degenerate batch,
/// non-divisor remainders (11 = 3·3+2 = 8+3), and a full 8-wide batch;
/// each at 1 and 4 threads. Every combination must reproduce the
/// scalar (width 0) samples bit-for-bit, including the shorted-draw
/// tally.
#[test]
fn spice_mc_bit_identical_across_widths_and_threads() {
    let (tech, cell, budget) = setup();
    let scalar = spice_dist(&tech, &cell, &budget, 0, 1, 11);
    assert_eq!(scalar.samples_percent().len(), 11);
    assert!(scalar.summary().std_dev() > 0.01, "degenerate distribution");
    for width in [1usize, 3, 8] {
        for threads in [1usize, 4] {
            let batched = spice_dist(&tech, &cell, &budget, width, threads, 11);
            let pairs = scalar
                .samples_percent()
                .iter()
                .zip(batched.samples_percent());
            for (k, (s, b)) in pairs.enumerate() {
                assert_eq!(
                    s.to_bits(),
                    b.to_bits(),
                    "trial {k} diverged at width {width}, {threads} threads: {s} vs {b}"
                );
            }
            assert_eq!(scalar.shorted_draws(), batched.shorted_draws());
        }
    }
}

/// A deck whose `d` node is held up only by a MOSFET channel. A
/// stiff shunt resistor (0.1mΩ, conductance 1e4 S) sets the matrix
/// max-abs, hence the relative pivot tolerance (~1e-9 S), in every
/// lane. The
/// gate pulse starts at VDD in every lane — identical t = 0 values, so
/// every lane's symbolic analysis picks the same pivot order — and
/// falls to `gate_v1` after 5ps. A lane whose gate falls to 0 sends
/// the channel into subthreshold, the `d` diagonal (GMIN + gds) drops
/// below tolerance, and the refactorization flags the lane
/// mid-transient.
fn drift_deck(gate_v1: f64) -> Netlist {
    let tech = n10();
    let mut net = Netlist::new();
    let a = net.node("a");
    net.add_resistor("Rshunt", a, Netlist::GROUND, 1e-4)
        .unwrap();
    let gate = net.node("gate");
    net.add_vsource(
        "VG",
        gate,
        Netlist::GROUND,
        Waveform::pulse(0.7, gate_v1, 5e-12, 1e-12, 1e-12, 1.0, 0.0).unwrap(),
    )
    .unwrap();
    let d = net.node("d");
    net.add_mosfet(
        "M1",
        d,
        gate,
        Netlist::GROUND,
        MosfetModel::new(*tech.nmos()),
    )
    .unwrap();
    net
}

#[test]
fn forced_pivot_drift_evicts_lane_and_scalar_owns_it() {
    let healthy_a = drift_deck(0.7);
    let drifting = drift_deck(0.0);
    let healthy_b = drift_deck(0.65);
    let nets = [&healthy_a, &drifting, &healthy_b];
    let d = healthy_a.find_node("d").unwrap();
    let gate = healthy_a.find_node("gate").unwrap();
    // Start with the channel on (gate at VDD) so the first
    // factorization — which fixes the shared pivot order — sees a
    // healthy `d` diagonal in every lane.
    let initial = [(gate, 0.7), (d, 0.0)];
    let spec = BatchTransientSpec {
        method: Method::Trapezoidal,
        dt: 1e-12,
        t_stop: 10e-12,
        initial: &initial,
        probes: &[d],
    };
    let mut ws = BatchedMnaWorkspace::new();
    let out = run_transient_batch(&nets, &spec, &mut ws).unwrap();

    // The engineered lane must leave the batch mid-transient — via the
    // pivot check, or via Newton giving up on the near-singular system.
    match &out.lanes[1] {
        BatchLaneOutcome::FellOut { reason } => assert!(
            matches!(
                reason,
                LaneFalloutReason::PivotDrift | LaneFalloutReason::NonConvergence
            ),
            "unexpected fall-out reason: {reason:?}"
        ),
        BatchLaneOutcome::Completed { .. } => panic!("engineered lane survived the batch"),
    }

    // The scalar fall-out path owns the evicted trial: it re-runs the
    // deck from scratch and reports the deck's own failure.
    let mut tran = Transient::new(&drifting).unwrap();
    tran.set_initial_voltage(gate, 0.7);
    tran.set_initial_voltage(d, 0.0);
    assert!(
        tran.run(1e-12, 10e-12).is_err(),
        "scalar path should also reject the near-singular deck"
    );

    // Healthy lanes are untouched by their neighbor's eviction:
    // bit-identical to their own scalar runs.
    for (l, net) in [(0usize, &healthy_a), (2, &healthy_b)] {
        let mut tran = Transient::new(net).unwrap();
        tran.set_initial_voltage(gate, 0.7);
        tran.set_initial_voltage(d, 0.0);
        let scalar = tran.run(1e-12, 10e-12).unwrap();
        match &out.lanes[l] {
            BatchLaneOutcome::Completed { probes } => {
                let reference = scalar.waveform(d);
                assert_eq!(probes[0].len(), reference.len());
                for (i, (b, s)) in probes[0].iter().zip(reference).enumerate() {
                    assert_eq!(b.to_bits(), s.to_bits(), "lane {l} sample {i}");
                }
            }
            other => panic!("healthy lane {l} fell out: {other:?}"),
        }
    }
}
