//! Soundness of the artifact table's knob declarations.
//!
//! Each artifact's cache key covers only the context knob groups its
//! row declares (plus technology, cell and its inputs' keys). A row
//! that leaves out a group its producer reads would let two contexts
//! that differ in that group share an entry: a wrong hit. This test
//! perturbs each group of a tiny context to another valid value and,
//! for every artifact whose key the perturbation leaves alone,
//! recomputes it from scratch and demands the encoded bytes of the
//! base context. A witness artifact per group shows the perturbation
//! really changes a result, so the comparison cannot pass vacuously.

use std::collections::BTreeMap;

use mpvar_core::experiments::ExperimentContext;
use mpvar_study::{encode_value, ArtifactId, Study};

/// A context small enough for every artifact to run in a debug build.
fn tiny_ctx() -> ExperimentContext {
    let mut ctx = ExperimentContext::builder()
        .expect("context builds")
        .quick_preset()
        .sizes(vec![8])
        .trials(200)
        .le3_overlay_sweep_nm(vec![3.0, 8.0])
        .threads(2)
        .build();
    let y = &mut ctx.yield_settings;
    y.sigma_margins = vec![2.0];
    y.base_round = 256;
    y.max_trials = 1_024;
    y.brute_max_trials = 1_024;
    y.fit_trials = 300;
    let w = &mut ctx.write_settings;
    w.sizes = vec![4];
    w.margin_n = 8;
    w.margin_trials = 200;
    w.sense_trials = 200;
    w.wl_columns = 8;
    w.yield_margins_percent = vec![3.0];
    w.yield_base_round = 256;
    w.yield_max_trials = 1_024;
    ctx
}

/// One perturbation per knob group (two for the Monte-Carlo group,
/// which holds both the trial count and the seed), each with an
/// artifact that reads the group and whose value it changes. A
/// perturbation moves every field of its group that some producer
/// reads, so each reader sees the change.
type Perturbation = (&'static str, fn(&mut ExperimentContext), ArtifactId);

const PERTURBATIONS: [Perturbation; 8] = [
    (
        "read",
        |c| {
            c.read_config.vdd_v = 0.9;
            c.read_config.sense_dv_v = 0.08;
        },
        ArtifactId::Fig4,
    ),
    ("sizes", |c| c.sizes = vec![4], ArtifactId::Fig5),
    (
        "sweep",
        |c| c.le3_overlay_sweep_nm = vec![5.0, 8.0],
        ArtifactId::Table4,
    ),
    ("overlay", |c| c.le3_overlay_nm = 5.0, ArtifactId::Table1),
    ("mc trials", |c| c.mc.trials = 250, ArtifactId::Table4),
    ("mc seed", |c| c.mc.seed += 1, ArtifactId::Table4),
    (
        "yield",
        |c| c.yield_settings.seed += 1,
        ArtifactId::Yield6Sigma,
    ),
    (
        "write",
        |c| {
            let w = &mut c.write_settings;
            w.seed += 1;
            w.sizes = vec![6];
            w.wl_columns = 10;
        },
        ArtifactId::WriteMargin,
    ),
];

fn encoded(study: &Study, ids: &[ArtifactId]) -> BTreeMap<ArtifactId, Vec<u8>> {
    let values = study.materialize(ids).expect("artifacts evaluate");
    ids.iter()
        .zip(values)
        .map(|(&id, value)| (id, encode_value(&value)))
        .collect()
}

#[test]
fn an_unmoved_key_means_an_unchanged_value() {
    let base = Study::new(tiny_ctx());
    let base_bytes = encoded(&base, &ArtifactId::ALL);

    for (group, perturb, witness) in PERTURBATIONS {
        let mut ctx = tiny_ctx();
        perturb(&mut ctx);
        // A fresh store per perturbation: every value is recomputed.
        let perturbed = Study::new(ctx);
        let shared: Vec<ArtifactId> = ArtifactId::ALL
            .into_iter()
            .filter(|&id| perturbed.key_of(id) == base.key_of(id))
            .collect();
        let mut ids = shared.clone();
        if !ids.contains(&witness) {
            ids.push(witness);
        }
        let bytes = encoded(&perturbed, &ids);
        for id in shared {
            assert!(
                bytes[&id] == base_bytes[&id],
                "{id} keeps its key under a perturbed {group} group but its value \
                 changed: its artifact_table row must declare the group"
            );
        }
        assert_ne!(
            bytes[&witness], base_bytes[&witness],
            "perturbing the {group} group must change {witness}"
        );
    }
}
