//! Design-margin analysis: which variation parameter a memory designer
//! must control, per patterning option, including the LELE extension.
//!
//! ```text
//! cargo run --release --example design_margins
//! ```

use mpvar::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech)?;
    let n = 64;

    // Which variation parameter matters? (the paper's §IV claim,
    // quantified)
    println!("per-parameter tdp sensitivities at 10x{n}:\n");
    for option in PatterningOption::ALL_WITH_EXTENSIONS {
        let profile = sensitivity_profile(&tech, &cell, option, n, 0.25)?;
        println!("{}", profile.report().render());
    }
    println!(
        "note: LE3 overlay is FIRST order (each mask moves one neighbour of\n\
         the bit line) while LELE overlay is second order (the line moves\n\
         between its neighbours) — this is why LE3's spread dominates.\n"
    );

    println!(
        "(the full LELE-vs-paper comparison table:\n \
         `cargo run --release -p mpvar-bench --bin repro -- extension-le2`)"
    );
    Ok(())
}
