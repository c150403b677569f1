//! Telemetry of the batched SoA trial solver: the `spice.batch_*`
//! counters count, and the reusable workspace stays flat across waves.
//!
//! The collector is process-global and `spice.batch_workspace_bytes` is
//! a last-write gauge, so any other test solving batches in this
//! process could overwrite it between a batch and the session's end.
//! This file therefore holds this one test alone.

use std::sync::Arc;

use mpvar::litho::{sample_draw, Draw};
use mpvar::sram::{simulate_read_batch_in, BitcellGeometry, ReadBatchScratch, ReadConfig};
use mpvar::stats::RngStream;
use mpvar::tech::preset::n10;
use mpvar::tech::{PatterningOption, TechDb, VariationBudget};
use mpvar::trace::{names, Collector, Metric, RecordingSink};

/// Reads the gauge/counter map of one traced session that pushes
/// `batches` 4-wide batches of seed-42 LE3 reads (draw `k` from
/// substream `k`) through one scratch. Collector sessions are
/// process-global, so both sessions live in this single test.
fn traced_batches(
    tech: &TechDb,
    cell: &BitcellGeometry,
    batches: usize,
) -> std::collections::BTreeMap<String, Metric> {
    let le3 = PatterningOption::Le3;
    let budget = VariationBudget::paper_default(le3, 8.0).unwrap();
    let base = RngStream::from_seed(42);
    let draws: Vec<Draw> = (0..4 * batches)
        .map(|k| sample_draw(le3, &budget, &mut base.substream(k as u64)).unwrap())
        .collect();
    let sink = Arc::new(RecordingSink::new());
    let collector = Collector::new(vec![sink.clone()]);
    {
        let _session = collector.install();
        let mut scratch = ReadBatchScratch::new();
        for chunk in draws.chunks(4) {
            simulate_read_batch_in(tech, cell, &ReadConfig::default(), 8, chunk, &mut scratch)
                .unwrap();
        }
    }
    sink.metrics().expect("metrics flushed on session drop")
}

#[test]
fn batch_telemetry_counts_and_workspace_stays_flat() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    // One 4-wide batch vs three consecutive 4-wide batches through the
    // same scratch.
    let short = traced_batches(&tech, &cell, 1);
    let long = traced_batches(&tech, &cell, 3);

    for m in [&short, &long] {
        let Metric::Counter(solves) = m[names::SPICE_BATCH_SOLVES] else {
            panic!("batch_solves missing");
        };
        assert!(solves > 0, "no batched solves recorded");
        let Metric::Counter(refactors) = m[names::SPICE_BATCH_REFACTORS] else {
            panic!("batch_refactors missing");
        };
        assert!(refactors > 0, "no batched refactors recorded");
    }
    let Metric::Counter(lanes_short) = short[names::SPICE_BATCH_LANE_TRIALS] else {
        panic!("lane_trials missing");
    };
    let Metric::Counter(lanes_long) = long[names::SPICE_BATCH_LANE_TRIALS] else {
        panic!("lane_trials missing");
    };
    assert!(lanes_short >= 4 && lanes_long >= 12, "lanes under-counted");

    // Steady state: the workspace after the third batch of the long run
    // holds exactly the bytes it held after the first (and only) batch
    // of the short run — nothing allocated in the solve loop once the
    // buffers reach batch size.
    let Metric::Gauge(bytes_short) = short[names::SPICE_BATCH_WORKSPACE_BYTES] else {
        panic!("workspace gauge missing");
    };
    let Metric::Gauge(bytes_long) = long[names::SPICE_BATCH_WORKSPACE_BYTES] else {
        panic!("workspace gauge missing");
    };
    assert!(bytes_short > 0.0);
    assert_eq!(
        bytes_short, bytes_long,
        "batched workspace grew across waves"
    );
}
