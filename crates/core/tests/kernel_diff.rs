//! Differential tests of the formula-route trial kernel against the
//! materializing path it replaces: `print_track` + `extract_edges` (and
//! `NominalWindow::variation` on top) must equal `apply_draw` +
//! `extract_track` + `RelativeVariation::between` bit for bit, and
//! `FormulaYieldProblem::evaluate_batch` must flag exactly the trials a
//! reference built on `apply_draw` flags.

use proptest::prelude::*;

use mpvar_core::nominal::NominalWindow;
use mpvar_core::rareevent::FormulaYieldProblem;
use mpvar_core::AnalyticalModel;
use mpvar_extract::{extract_edges, extract_track, RelativeVariation};
use mpvar_litho::{apply_draw, print_track, Draw, LithoError};
use mpvar_sram::{BitcellGeometry, FormulaParams};
use mpvar_stats::RngStream;
use mpvar_tech::preset::n10;
use mpvar_tech::{PatterningOption, TechDb, VariationBudget};
use mpvar_yield::{FailureProblem, Proposal};

fn draw(option: PatterningOption, values: [f64; 6]) -> Draw {
    let mut d = Draw::nominal(option);
    let names: Vec<&str> = d.parameters().iter().map(|&(n, _)| n).collect();
    for (name, v) in names.into_iter().zip(values) {
        assert!(d.set_parameter(name, v));
    }
    d
}

/// The materializing reference of `NominalWindow::variation`.
fn reference_variation(w: &NominalWindow<'_>, d: &Draw) -> Option<RelativeVariation> {
    let printed = apply_draw(w.stack(), d).ok()?;
    let parasitics = extract_track(&printed, w.bl_index(), w.metal()).unwrap();
    Some(RelativeVariation::between(w.nominal(), &parasitics))
}

fn check_window(tech: &TechDb, cell: &BitcellGeometry, option: PatterningOption, values: [f64; 6]) {
    let w = NominalWindow::build(tech, cell, option).unwrap();
    let d = draw(option, values);
    // Every index of the 41-track window, both ends included.
    let full = apply_draw(w.stack(), &d);
    for index in 0..w.stack().len() {
        match (&full, print_track(w.stack(), &d, index)) {
            (Ok(printed), Ok(edges)) => {
                let want = extract_track(printed, index, w.metal());
                let got = extract_edges(w.metal(), &edges);
                match (want, got) {
                    (Ok(p), Ok((r, c))) => {
                        assert_eq!(r.to_bits(), p.resistance_ohm().to_bits(), "{d:?} @ {index}");
                        assert_eq!(c.to_bits(), p.c_total_f().to_bits(), "{d:?} @ {index}");
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("{d:?} @ {index}: extract_track {a:?} vs extract_edges {b:?}"),
                }
            }
            (Err(want), Err(got)) => assert_eq!(want.to_string(), got.to_string()),
            (a, b) => panic!("{d:?} @ {index}: apply_draw {a:?} vs print_track {b:?}"),
        }
    }
    let got = w.variation(&d).unwrap();
    let want = reference_variation(&w, &d);
    match (want, got) {
        (Some(a), Some(b)) => {
            assert_eq!(a.r_var.to_bits(), b.r_var.to_bits(), "{d:?}");
            assert_eq!(a.c_var.to_bits(), b.c_var.to_bits(), "{d:?}");
        }
        (None, None) => {}
        (a, b) => panic!("{d:?}: reference {a:?} vs variation {b:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Draws from clean prints to shorts and collapses, all options.
    #[test]
    fn kernel_matches_materializing_path(
        option_ix in 0usize..4,
        scale in prop::sample::select(vec![2.0, 8.0, 30.0]),
        a in -1.0..1.0,
        b in -1.0..1.0,
        c in -1.0..1.0,
        e in -1.0..1.0,
        f in -1.0..1.0,
        g in -1.0..1.0,
    ) {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech).unwrap();
        let option = PatterningOption::ALL_WITH_EXTENSIONS[option_ix];
        let values = [a, b, c, e, f, g].map(|v| v * scale);
        check_window(&tech, &cell, option, values);
    }
}

#[test]
fn non_finite_draw_is_an_error_not_a_short() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    let w = NominalWindow::build(&tech, &cell, PatterningOption::Euv).unwrap();
    let d = draw(PatterningOption::Euv, [f64::NAN; 6]);
    assert!(w.variation(&d).is_err());
    assert!(matches!(
        print_track(w.stack(), &d, w.bl_index()),
        Err(LithoError::NonFiniteDraw { name: "cd", .. })
    ));
}

#[test]
fn evaluate_batch_matches_apply_draw_reference() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    let params = FormulaParams::derive(&tech, &cell, 0.7).unwrap();
    let model = AnalyticalModel::new(params, 0.1).unwrap();
    let n = 64;
    for option in PatterningOption::ALL {
        let w = NominalWindow::build(&tech, &cell, option).unwrap();
        let budget = VariationBudget::paper_default(option, 8.0).unwrap();
        let margin = 6.0;
        let problem = FormulaYieldProblem::new(&w, &budget, model, n, margin).unwrap();
        let map = problem.map();
        let domain = map.domain().unwrap();
        let proposal = Proposal::ScaledSigma { scale: 3.0 };
        let mut rng = RngStream::from_seed(2015);
        let mut zs = Vec::new();
        let mut z = Vec::new();
        for _ in 0..10_000 {
            proposal.draw(&domain, &mut rng, &mut z).unwrap();
            zs.extend_from_slice(&z);
        }
        let flags = problem.evaluate_batch(&zs).unwrap();
        let reference: Vec<bool> = zs
            .chunks_exact(map.dims())
            .map(|z| match reference_variation(&w, &map.draw_from_z(z)) {
                Some(var) => model.tdp_percent(n, var.r_var, var.c_var) > margin,
                None => true,
            })
            .collect();
        assert_eq!(flags, reference, "{option}");
        let failures = flags.iter().filter(|&&f| f).count();
        assert!(
            failures > 0 && failures < flags.len(),
            "{option}: {failures} failures"
        );
    }
}
