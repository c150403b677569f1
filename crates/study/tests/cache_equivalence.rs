//! Store-correctness contract of the `Study` engine.
//!
//! The memoized artifact graph must be invisible in the results: a cold
//! `Study` run returns exactly what the direct experiment functions
//! compute, at any worker-thread count and against any
//! [`ArtifactStore`] (in-memory or on-disk); a warm run over the same
//! store answers bit-identically without recomputation — including a
//! warm run in a *fresh process* against a re-opened disk store; and
//! any perturbed context knob changes the fingerprint so stale entries
//! can never be served.

use std::sync::Arc;

use mpvar_core::experiments::{fig4, table1, table3, ExperimentContext};
use mpvar_core::ExecConfig;
use mpvar_study::{context_fingerprint, ArtifactId, ArtifactStore, DiskStore, Study};

/// A deliberately tiny context so the full dependency chain (table1 →
/// fig4 → table3) runs in well under a second.
fn tiny_ctx(threads: usize) -> ExperimentContext {
    ExperimentContext::builder()
        .expect("context builds")
        .quick_preset()
        .sizes(vec![8])
        .trials(200)
        .threads(threads)
        .build()
}

#[test]
fn cold_run_matches_direct_functions_serial_and_parallel() {
    let direct_ctx = tiny_ctx(1);
    let t1 = table1(&direct_ctx).expect("table1 runs");
    let f4 = fig4(&direct_ctx, &t1).expect("fig4 runs");
    let t3 = table3(&direct_ctx, &t1, &f4).expect("table3 runs");

    for threads in [1usize, 4] {
        let study = Study::new(tiny_ctx(threads));
        let got_t1 = study
            .get::<mpvar_core::experiments::Table1>()
            .expect("table1 via study");
        let got_f4 = study
            .get::<mpvar_core::experiments::Fig4>()
            .expect("fig4 via study");
        let got_t3 = study
            .get::<mpvar_core::experiments::Table3>()
            .expect("table3 via study");
        assert_eq!(*got_t1, t1, "table1 at {threads} threads");
        assert_eq!(*got_f4, f4, "fig4 at {threads} threads");
        assert_eq!(*got_t3, t3, "table3 at {threads} threads");
    }
}

#[test]
fn warm_run_is_bit_identical_and_never_recomputes() {
    let ctx = tiny_ctx(2);
    let cold = Study::new(ctx.clone());
    let first = cold
        .run(&[ArtifactId::Table3])
        .expect("cold table3 evaluates");

    let warm = Study::with_store(ctx, Arc::clone(cold.store()));
    let second = warm
        .run(&[ArtifactId::Table3])
        .expect("warm table3 evaluates");

    assert_eq!(first, second, "rendered artifacts must be bit-identical");
    let timings = warm.timings();
    for (id, s) in &timings {
        assert_eq!(s.computed, 0, "{id} recomputed on the warm run");
    }
    assert!(
        timings[&ArtifactId::Table3].cache_hits >= 1,
        "warm table3 served from the store"
    );
}

#[test]
fn perturbed_context_misses_the_cache() {
    let base = tiny_ctx(1);
    let study = Study::new(base.clone());
    study
        .run(&[ArtifactId::Table1])
        .expect("baseline evaluates");

    let mut reseeded = base.clone();
    reseeded.mc.seed += 1;
    assert_ne!(
        context_fingerprint(&base),
        context_fingerprint(&reseeded),
        "seed must be part of the fingerprint"
    );

    let miss = Study::with_store(reseeded, Arc::clone(study.store()));
    miss.run(&[ArtifactId::Table1])
        .expect("perturbed run evaluates");
    assert_eq!(
        miss.timings()[&ArtifactId::Table1].computed,
        1,
        "perturbed context served a stale cache entry"
    );
}

/// A scratch disk-store root unique to this test invocation.
fn scratch_store(tag: &str) -> std::path::PathBuf {
    let root = std::env::temp_dir().join(format!("mpvar-equiv-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn disk_cold_run_matches_memory_and_direct_at_any_thread_count() {
    let direct_ctx = tiny_ctx(1);
    let t1 = table1(&direct_ctx).expect("table1 runs");
    let f4 = fig4(&direct_ctx, &t1).expect("fig4 runs");
    let t3 = table3(&direct_ctx, &t1, &f4).expect("table3 runs");

    let root = scratch_store("cold");
    for threads in [1usize, 4] {
        let store = Arc::new(DiskStore::open(root.join(format!("t{threads}"))).expect("open"));
        let study = Study::with_store(tiny_ctx(threads), store);
        let got_t3 = study
            .get::<mpvar_core::experiments::Table3>()
            .expect("table3 via disk-backed study");
        assert_eq!(*got_t3, t3, "disk-cold table3 at {threads} threads");
        let got_t1 = study
            .get::<mpvar_core::experiments::Table1>()
            .expect("table1 via disk-backed study");
        assert_eq!(*got_t1, t1, "disk-cold table1 at {threads} threads");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn disk_warm_restart_is_hit_only_and_bit_identical() {
    let root = scratch_store("warm");
    let first = {
        let store = Arc::new(DiskStore::open(&root).expect("open"));
        let cold = Study::with_store(tiny_ctx(2), Arc::clone(&store) as Arc<dyn ArtifactStore>);
        let rendered = cold
            .run(&[ArtifactId::Table3])
            .expect("cold table3 evaluates");
        assert!(
            store.stats().disk_entries >= 3,
            "table1/fig4/table3 envelopes persisted"
        );
        rendered
    };
    // A fresh DiskStore over the same root models a process restart:
    // the memory layer starts empty, so every artifact must be decoded
    // from its envelope — no producer may run.
    let store = Arc::new(DiskStore::open(&root).expect("reopen"));
    let warm = Study::with_store(tiny_ctx(2), Arc::clone(&store) as Arc<dyn ArtifactStore>);
    let second = warm
        .run(&[ArtifactId::Table3])
        .expect("warm table3 evaluates");

    assert_eq!(first, second, "disk-warm render must be bit-identical");
    let timings = warm.timings();
    for (id, s) in &timings {
        assert_eq!(s.computed, 0, "{id} recomputed on the disk-warm run");
    }
    assert!(
        timings[&ArtifactId::Table3].cache_hits >= 1,
        "disk-warm table3 served from the store"
    );
    let stats = warm.store_stats();
    assert!(
        stats.disk_hits >= 1,
        "warm lookups must be served by decoding persisted envelopes"
    );
    assert_eq!(stats.quarantined, 0, "no envelope failed validation");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn disk_store_rejects_perturbed_seed() {
    let root = scratch_store("perturb");
    let base = tiny_ctx(1);
    let store = Arc::new(DiskStore::open(&root).expect("open"));
    Study::with_store(base.clone(), Arc::clone(&store) as Arc<dyn ArtifactStore>)
        .run(&[ArtifactId::Table1])
        .expect("baseline evaluates");

    let mut reseeded = base;
    reseeded.mc.seed += 1;
    let miss = Study::with_store(reseeded, Arc::clone(&store) as Arc<dyn ArtifactStore>);
    miss.run(&[ArtifactId::Table1])
        .expect("perturbed run evaluates");
    assert_eq!(
        miss.timings()[&ArtifactId::Table1].computed,
        1,
        "perturbed context served a stale persisted entry"
    );
    assert_eq!(
        store.stats().disk_entries,
        2,
        "both contexts persisted distinct envelopes"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn exec_knobs_are_excluded_from_the_fingerprint() {
    let serial = tiny_ctx(1);
    let mut parallel = serial.clone();
    parallel.exec = ExecConfig::with_threads(4);
    parallel.mc.exec = ExecConfig::with_threads(4);
    assert_eq!(
        context_fingerprint(&serial),
        context_fingerprint(&parallel),
        "thread count must not change cache identity: results are bit-identical"
    );
}
