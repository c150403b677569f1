//! Differential suite for the batched SoA trial solver.
//!
//! The batch contract is *bit-identity*: every lane of a batched read
//! or write must reproduce the scalar simulation of its draw bit for
//! bit, whatever the batch width — lanes never mix arithmetically, and
//! any trial the batch cannot carry (pivot drift, non-convergence,
//! structural divergence) is transparently re-run through the scalar
//! path. These tests drive that contract through the entry points
//! `repro check` runs: seeded SRAM read and write draws through
//! `simulate_read_batch_in` / `simulate_write_batch_in`, and a deck
//! engineered to force a mid-transient lane eviction. The steady-state
//! no-allocation guarantee of the reusable workspace is
//! `tests/batch_telemetry.rs`, alone in its binary because its
//! collector is process-global.

use std::fmt::Display;

use mpvar::litho::{sample_draw, Draw};
use mpvar::spice::{
    run_transient_batch_until, BatchLaneOutcome, BatchTransientSpec, BatchedMnaWorkspace,
    LaneFalloutReason, Method, MosfetModel, Netlist, Transient, Waveform,
};
use mpvar::sram::{
    simulate_read, simulate_read_batch_in, simulate_write, simulate_write_batch_in,
    BitcellGeometry, ReadBatchScratch, ReadConfig, WriteBatchScratch, WriteConfig,
};
use mpvar::stats::RngStream;
use mpvar::tech::preset::n10;
use mpvar::tech::{PatterningOption, VariationBudget};

/// Column height of every differential read and write.
const N_CELLS: usize = 8;

/// Draw `k` comes from substream `k` of seed 42.
fn le3_draws(count: usize) -> Vec<Draw> {
    let le3 = PatterningOption::Le3;
    let budget = VariationBudget::paper_default(le3, 8.0).unwrap();
    let base = RngStream::from_seed(42);
    (0..count)
        .map(|k| sample_draw(le3, &budget, &mut base.substream(k as u64)).unwrap())
        .collect()
}

/// A lane's comparable result: the time's bits, or the error text.
fn key<E: Display>(r: Result<f64, E>) -> Result<u64, String> {
    r.map(f64::to_bits).map_err(|e| e.to_string())
}

/// Widths {1, 3, 8} over 11 draws cover the 1-lane degenerate batch,
/// non-divisor remainders (11 = 3·3+2 = 8+3) and a full 8-wide batch.
/// Every width, through one reused scratch per direction, must
/// reproduce the scalar read and write of each draw bit for bit.
#[test]
fn read_and_write_batches_bit_identical_across_widths() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    let draws = le3_draws(11);
    let (read, write) = (ReadConfig::default(), WriteConfig::default());
    let scalar_reads: Vec<_> = draws
        .iter()
        .map(|d| key(simulate_read(&tech, &cell, &read, N_CELLS, d).map(|o| o.td_s)))
        .collect();
    let scalar_writes: Vec<_> = draws
        .iter()
        .map(|d| key(simulate_write(&tech, &cell, &write, N_CELLS, d).map(|o| o.t_write_s)))
        .collect();
    assert!(
        scalar_reads.iter().all(Result::is_ok) && scalar_writes.iter().all(Result::is_ok),
        "every seed-42 draw reads and writes"
    );
    assert!(
        scalar_reads.windows(2).any(|w| w[0] != w[1]),
        "degenerate draws: every read took the same time"
    );

    let mut read_scratch = ReadBatchScratch::new();
    let mut write_scratch = WriteBatchScratch::new();
    for width in [1usize, 3, 8] {
        let mut reads = Vec::new();
        let mut writes = Vec::new();
        for chunk in draws.chunks(width) {
            let lanes =
                simulate_read_batch_in(&tech, &cell, &read, N_CELLS, chunk, &mut read_scratch)
                    .unwrap();
            reads.extend(lanes.into_iter().map(|r| key(r.map(|o| o.td_s))));
            let lanes =
                simulate_write_batch_in(&tech, &cell, &write, N_CELLS, chunk, &mut write_scratch)
                    .unwrap();
            writes.extend(lanes.into_iter().map(|r| key(r.map(|o| o.t_write_s))));
        }
        for (k, (s, b)) in scalar_reads.iter().zip(&reads).enumerate() {
            assert_eq!(s, b, "read {k} diverged at width {width}");
        }
        for (k, (s, b)) in scalar_writes.iter().zip(&writes).enumerate() {
            assert_eq!(s, b, "write {k} diverged at width {width}");
        }
        assert_eq!((reads.len(), writes.len()), (11, 11));
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
    let out = run_transient_batch_until(&nets, &spec, &mut ws, |_, _, _| false).unwrap();

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
