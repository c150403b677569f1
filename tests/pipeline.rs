//! End-to-end pipeline integration: tech → cell → litho → extraction →
//! read simulation → analysis, crossing every crate boundary.

use mpvar::core::prelude::*;
use mpvar::extract::{extract_track, RelativeVariation};
use mpvar::litho::{apply_draw, Draw};
use mpvar::sram::prelude::*;
use mpvar::tech::{io as tech_io, preset::n10, PatterningOption, TechDb, VariationBudget};

/// The Table I corner search for `option` on every core.
fn worst_case(
    tech: &TechDb,
    cell: &BitcellGeometry,
    option: PatterningOption,
    budget: &VariationBudget,
) -> WorstCase {
    let window = NominalWindow::build(tech, cell, option).expect("window builds");
    find_worst_case_with(&window, budget, ExecConfig::default()).expect("search runs")
}

#[test]
fn tech_file_roundtrip_preserves_experiment_results() {
    // Serialize the preset, parse it back, and verify the worst-case
    // search produces identical numbers from the parsed copy.
    let original = n10();
    let parsed = tech_io::from_text(&tech_io::to_text(&original)).expect("tech parses");
    assert_eq!(original, parsed);

    let cell_a = BitcellGeometry::n10_hd(&original).expect("cell builds");
    let cell_b = BitcellGeometry::n10_hd(&parsed).expect("cell builds");
    let budget = VariationBudget::paper_default(PatterningOption::Le3, 8.0).expect("budget");
    let wc_a = worst_case(&original, &cell_a, PatterningOption::Le3, &budget);
    let wc_b = worst_case(&parsed, &cell_b, PatterningOption::Le3, &budget);
    assert_eq!(wc_a.draw, wc_b.draw);
    assert_eq!(wc_a.variation, wc_b.variation);
}

#[test]
fn nominal_geometry_is_patterning_independent_through_extraction() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    let m1 = tech.metal(1).expect("metal1");
    let stack = cell.column_stack(10, 5, 4).expect("stack builds");

    let mut extracted = Vec::new();
    for option in PatterningOption::ALL {
        let printed = apply_draw(&stack, &Draw::nominal(option)).expect("prints");
        let bl = printed.index_of_net("BL").expect("bl exists");
        extracted.push(extract_track(&printed, bl, m1).expect("extracts"));
    }
    for pair in extracted.windows(2) {
        assert!((pair[0].resistance_ohm() - pair[1].resistance_ohm()).abs() < 1e-9);
        assert!((pair[0].c_total_f() - pair[1].c_total_f()).abs() < 1e-24);
    }
}

#[test]
fn worst_case_draw_actually_slows_the_simulated_read() {
    // The corner chosen on the C_bl criterion must also be pessimal (or
    // near-pessimal) in the full SPICE read — the figure of merit chain
    // is consistent end to end.
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    let config = ReadConfig::default();
    let budget = VariationBudget::paper_default(PatterningOption::Le3, 8.0).expect("budget");
    let wc = worst_case(&tech, &cell, PatterningOption::Le3, &budget);

    let nominal = simulate_read(
        &tech,
        &cell,
        &config,
        16,
        &Draw::nominal(PatterningOption::Le3),
    )
    .expect("nominal read");
    let worst = simulate_read(&tech, &cell, &config, 16, &wc.draw).expect("worst read");
    let tdp = worst.td_s / nominal.td_s - 1.0;
    assert!(tdp > 0.10, "LE3 worst corner should cost >10%: {tdp}");

    // And the extraction-level variation predicts the direction.
    assert!(wc.variation.c_var > 1.0);
}

#[test]
fn formula_and_simulation_agree_on_ordering_and_magnitude() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    let params = FormulaParams::derive(&tech, &cell, 0.7).expect("params derive");
    let model = AnalyticalModel::new(params, 0.10).expect("model builds");
    let config = ReadConfig::default();

    for n in [16usize, 64] {
        let sim = simulate_read(
            &tech,
            &cell,
            &config,
            n,
            &Draw::nominal(PatterningOption::Euv),
        )
        .expect("read simulates")
        .td_s;
        let formula = model.td_nominal_s(n);
        let ratio = sim / formula;
        // The paper's own Table II shows 2-4x lumped-model optimism; we
        // land closer but assert only the same-order-of-magnitude band.
        assert!(ratio > 0.25 && ratio < 4.0, "n={n}: ratio {ratio}");
    }
}

#[test]
fn per_option_variation_ordering_through_full_chain() {
    // LE3 must dominate EUV and SADP in C impact through litho AND in
    // tdp through the formula evaluated at extracted multipliers.
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    let params = FormulaParams::derive(&tech, &cell, 0.7).expect("params derive");
    let model = AnalyticalModel::new(params, 0.10).expect("model builds");

    let mut tdp = Vec::new();
    for option in PatterningOption::ALL {
        let budget = VariationBudget::paper_default(option, 8.0).expect("budget");
        let wc = worst_case(&tech, &cell, option, &budget);
        tdp.push(model.tdp_percent(64, wc.variation.r_var, wc.variation.c_var));
    }
    let (le3, sadp, euv) = (tdp[0], tdp[1], tdp[2]);
    assert!(le3 > 2.0 * euv, "LE3 {le3}% vs EUV {euv}%");
    assert!(le3 > 2.0 * sadp, "LE3 {le3}% vs SADP {sadp}%");
    // Paper's headline: ~20% vs < 3%; allow our calibration band.
    assert!(le3 > 10.0 && le3 < 40.0, "LE3 tdp {le3}%");
    assert!(sadp < 8.0, "SADP tdp {sadp}%");
    assert!(euv < 10.0, "EUV tdp {euv}%");
}

#[test]
fn central_pair_is_free_of_edge_effects() {
    // Paper §II.C: the 10-pair width is "large enough to consider the
    // simulation results of the central lines not affected by edge
    // related effects". Verify: the central BL's parasitics are
    // identical whether the window has 4 or 10 pairs, while the edge
    // pair's differ from the central one.
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    let m1 = tech.metal(1).expect("metal1");

    let extract_bl = |pairs: usize, active: usize| {
        let stack = cell.column_stack(pairs, active, 4).expect("stack builds");
        let printed = apply_draw(&stack, &Draw::nominal(PatterningOption::Euv)).expect("prints");
        let bl = printed.index_of_net("BL").expect("bl exists");
        extract_track(&printed, bl, m1).expect("extracts")
    };

    let central_10 = extract_bl(10, 5);
    let central_4 = extract_bl(4, 2);
    assert!((central_10.c_total_f() - central_4.c_total_f()).abs() < 1e-24);
    assert!((central_10.resistance_ohm() - central_4.resistance_ohm()).abs() < 1e-12);

    // The very first pair's BL sits one rail from the window edge; with
    // the closing VSS rail it still sees two neighbours, so for THIS
    // track arrangement even the edge pair matches — the rails shield
    // everything. Check the strongest edge case instead: a bare stack
    // whose BL has no upper neighbour at all.
    let bare = mpvar::geometry::TrackStack::new(vec![
        mpvar::geometry::Track::new(
            "VSS0",
            mpvar::geometry::Nm(0),
            mpvar::geometry::Nm(24),
            mpvar::geometry::Nm(0),
            mpvar::geometry::Nm(520),
        )
        .expect("track"),
        mpvar::geometry::Track::new(
            "BL",
            mpvar::geometry::Nm(48),
            mpvar::geometry::Nm(26),
            mpvar::geometry::Nm(0),
            mpvar::geometry::Nm(520),
        )
        .expect("track"),
    ])
    .expect("stack");
    let printed = apply_draw(&bare, &Draw::nominal(PatterningOption::Euv)).expect("prints");
    let edge = extract_track(&printed, 1, m1).expect("extracts");
    assert!(
        edge.c_total_f() < central_10.c_total_f(),
        "one-sided line must have less capacitance"
    );
}

#[test]
fn relative_variation_is_length_invariant() {
    // The MC fast path extracts a 1-cell window; verify multipliers are
    // identical for a 64-cell window.
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    let m1 = tech.metal(1).expect("metal1");
    let draw = Draw::Euv(mpvar::litho::EuvDraw { cd_nm: 2.0 });

    let mut vars = Vec::new();
    for n in [1usize, 64] {
        let stack = cell.column_stack(10, 5, n).expect("stack builds");
        let nominal_printed =
            apply_draw(&stack, &Draw::nominal(PatterningOption::Euv)).expect("prints");
        let printed = apply_draw(&stack, &draw).expect("prints");
        let bl = printed.index_of_net("BL").expect("bl exists");
        let nom = extract_track(&nominal_printed, bl, m1).expect("extracts");
        let per = extract_track(&printed, bl, m1).expect("extracts");
        vars.push(RelativeVariation::between(&nom, &per));
    }
    assert!((vars[0].r_var - vars[1].r_var).abs() < 1e-12);
    assert!((vars[0].c_var - vars[1].c_var).abs() < 1e-12);
}
