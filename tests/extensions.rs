//! Integration coverage of the extension features through the facade:
//! LELE, LER and device sizing, each exercised in combination with the
//! paper-reproduction substrate.

use mpvar::core::prelude::*;
use mpvar::litho::{Draw, LerModel};
use mpvar::sram::{BitcellGeometry, DeviceSizing};
use mpvar::stats::RngStream;
use mpvar::tech::{preset::n10, PatterningOption, VariationBudget};

#[test]
fn ler_profile_feeds_extraction_consistently() {
    let tech = n10();
    let m1 = tech.metal(1).expect("metal1");
    let ler = LerModel::new(1.0, 26.0).expect("model builds");
    let mut rng = RngStream::from_seed(5);
    let profile = ler.sample_profile(64, 130.0, &mut rng).expect("samples");
    // Segment resistances sum close to, but above, the uniform wire
    // (Jensen) for a zero-mean profile.
    let uniform =
        mpvar::extract::wire_resistance_ohm(m1, 26.0, 130.0 * 64.0).expect("uniform extracts");
    let summed: f64 = profile
        .iter()
        .map(|&d| mpvar::extract::wire_resistance_ohm(m1, 26.0 + d, 130.0).expect("segment"))
        .sum();
    let ratio = summed / uniform;
    assert!(ratio > 1.0, "Jensen: {ratio}");
    assert!(ratio < 1.05, "but small: {ratio}");
}

#[test]
fn stronger_pull_down_reads_faster() {
    // The pull-down sizing knob sets the read current: a stronger
    // pull-down accelerates the bit-line discharge.
    let tech = n10();
    let base = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    let strong_sizing = DeviceSizing {
        pull_down: 1.6,
        ..DeviceSizing::default()
    };
    let weak_sizing = DeviceSizing {
        pull_down: 1.0,
        ..DeviceSizing::default()
    };
    let cfg = mpvar::sram::ReadConfig::default();
    let td_strong = mpvar::sram::simulate_read(
        &tech,
        &base.clone().with_sizing(strong_sizing),
        &cfg,
        16,
        &Draw::nominal(PatterningOption::Euv),
    )
    .expect("read")
    .td_s;
    let td_weak = mpvar::sram::simulate_read(
        &tech,
        &base.with_sizing(weak_sizing),
        &cfg,
        16,
        &Draw::nominal(PatterningOption::Euv),
    )
    .expect("read")
    .td_s;
    assert!(td_strong < td_weak, "{td_strong} vs {td_weak}");
}

#[test]
fn yield_and_le2_compose_with_the_mc_engine() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    let budget = VariationBudget::paper_default(PatterningOption::Le2, 8.0).expect("budget");
    let dist = tdp_distribution(
        &tech,
        &cell,
        PatterningOption::Le2,
        &budget,
        64,
        &McConfig::builder().trials(1500).seed(3).build(),
    )
    .expect("mc runs");
    assert!(dist.sigma_percent() > 0.2);
}
