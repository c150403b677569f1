//! Worst-case variability analysis across patterning options.
//!
//! ```text
//! cargo run --release --example worst_case_analysis
//! ```
//!
//! Reproduces the paper's §II flow at a reduced array sweep: enumerate
//! every ±3σ corner of each patterning option, find the corner that
//! maximizes the bit-line capacitance (Table I), then simulate the read
//! penalty that corner causes across array sizes (Fig. 4's content).

use mpvar::core::worst_case::worst_case_td_study;
use mpvar::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech)?;
    let config = ReadConfig::default();
    let sizes = [16usize, 64];

    println!("worst-case corners (criterion: max C_bl, paper Table I)\n");
    println!("{:<8} {:>10} {:>10}  corner", "option", "dC_bl", "dR_bl");
    let mut worst_cases = Vec::new();
    for option in PatterningOption::ALL {
        let budget = VariationBudget::paper_default(option, 8.0)?;
        let window = NominalWindow::build(&tech, &cell, option)?;
        let wc = find_worst_case_with(&window, &budget, ExecConfig::default())?;
        let corner: Vec<String> = wc
            .draw
            .parameters()
            .into_iter()
            .filter(|&(_, v)| v != 0.0)
            .map(|(k, v)| format!("{k}={v:+.1}"))
            .collect();
        println!(
            "{:<8} {:>+9.2}% {:>+9.2}%  {}",
            option.paper_label(),
            wc.variation.c_percent(),
            wc.variation.r_percent(),
            corner.join(" ")
        );
        worst_cases.push(wc);
    }

    println!("\nsimulated read-time penalty at each array size (Fig. 4)\n");
    println!(
        "{:<8} {}",
        "option",
        sizes.map(|n| format!("{:>10}", format!("10x{n}"))).join("")
    );
    for wc in &worst_cases {
        let rows = worst_case_td_study(&tech, &cell, &config, wc, &sizes)?;
        let cells: Vec<String> = rows
            .iter()
            .map(|r| format!("{:>+9.2}%", r.tdp_percent()))
            .collect();
        println!("{:<8} {}", wc.option.paper_label(), cells.join(" "));
    }

    println!(
        "\n(the paper's full DOE runs 16/64/256/1024 word lines; use\n `cargo run --release -p mpvar-bench --bin repro -- fig4` for that)"
    );
    Ok(())
}
