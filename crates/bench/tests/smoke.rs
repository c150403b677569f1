//! End-to-end smoke test of the reproduction harness: a `Study` run of
//! every artefact on a tiny context must produce sane content.

use mpvar_bench::EXPERIMENT_IDS;
use mpvar_core::experiments::ExperimentContext;
use mpvar_core::montecarlo::McConfig;
use mpvar_study::Study;

fn tiny_ctx() -> ExperimentContext {
    let mut ctx = ExperimentContext::quick().expect("context builds");
    ctx.sizes = vec![8];
    ctx.mc = McConfig::builder().trials(250).seed(1).build();
    ctx
}

#[test]
fn run_all_produces_every_artifact() {
    let ctx = tiny_ctx();
    let artifacts = Study::new(ctx).run_all().expect("harness runs");
    assert_eq!(artifacts.len(), EXPERIMENT_IDS.len());
    for (artifact, &id) in artifacts.iter().zip(EXPERIMENT_IDS.iter()) {
        assert_eq!(artifact.id, id);
        assert!(!artifact.text.is_empty(), "{id} text");
        assert!(!artifact.csv.is_empty(), "{id} csv");
        // CSV has a header and at least one data row.
        assert!(artifact.csv.lines().count() >= 2, "{id} csv rows");
    }
}

#[test]
fn individual_runs_match_run_all_ids() {
    let study = Study::new(tiny_ctx());
    // Spot-check the cheapest single-artefact paths.
    for id in ["table1", "table4", "extension-le2"] {
        let arts = study.run_named(id).expect("single run works");
        assert_eq!(arts.len(), 1);
        assert_eq!(arts[0].id, id);
    }
}

#[test]
fn headline_numbers_visible_in_reports() {
    let ctx = tiny_ctx();
    let artifacts = Study::new(ctx).run_all().expect("harness runs");
    let by_id = |id: &str| -> &str {
        &artifacts
            .iter()
            .find(|a| a.id == id)
            .expect("artifact present")
            .text
    };
    // Table I names all the paper's options.
    let t1 = by_id("table1");
    for label in ["LELELE", "SADP", "EUV"] {
        assert!(t1.contains(label), "{label} in table1");
    }
    // Fig. 4 reports per-size rows.
    assert!(by_id("fig4").contains("10x8"));
    // The sigma table includes the overlay sweep.
    assert!(by_id("table4").contains("3nm OL"));
    // The scaling extension compares both nodes.
    let e3 = by_id("extension-scaling");
    assert!(e3.contains("n10") && e3.contains("n7"));
}
