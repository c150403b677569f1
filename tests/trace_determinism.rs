//! Instrumentation must observe, never perturb: a fully traced
//! pipeline run is bit-identical to an untraced one at any thread
//! count, and the JSONL it emits validates against the
//! `mpvar-trace/v1` schema with spans from every layer.
//!
//! Everything lives in one `#[test]` on purpose: trace collectors are
//! process-global, so concurrently installed collectors in sibling
//! tests would see each other's spans mid-tree.

use std::sync::Arc;

use mpvar::core::experiments::ExperimentContext;
use mpvar::study::{ArtifactId, Study};
use mpvar::trace::{names, validate_jsonl, Collector, JsonlSink};

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
fn traced_run_is_bit_identical_and_emits_valid_jsonl() {
    for threads in [1usize, 4] {
        // Table3 pulls in the corner search and the SPICE read
        // simulations; Fig5 exercises the Monte-Carlo engine.
        let requested = [ArtifactId::Table3, ArtifactId::Fig5];
        let baseline = Study::new(tiny_ctx(threads))
            .run(&requested)
            .expect("untraced run evaluates");

        let sink = Arc::new(JsonlSink::new());
        let collector = Collector::new(vec![sink.clone()]);
        let session = collector.install();
        let traced = Study::new(tiny_ctx(threads))
            .run(&requested)
            .expect("traced run evaluates");
        drop(session);

        assert_eq!(
            baseline, traced,
            "tracing perturbed the results at {threads} threads"
        );

        let log = validate_jsonl(&sink.contents()).expect("trace validates against the schema");
        assert_eq!(log.schema, "mpvar-trace/v1");

        // Every layer of the pipeline must be visible in the trace.
        let span_names = log.span_names();
        for name in [
            names::SPAN_EXEC_PAR_MAP,
            names::SPAN_MC_DISTRIBUTION,
            names::SPAN_CORNER_SEARCH,
            names::SPAN_SPICE_TRANSIENT,
            names::SPAN_SRAM_READ,
            names::SPAN_STUDY_MATERIALIZE,
            names::SPAN_STUDY_NODE,
        ] {
            assert!(
                span_names.contains(&name),
                "no `{name}` span at {threads} threads (got {span_names:?})"
            );
        }

        // The headline metrics must be populated.
        for counter in [
            names::MC_TRIALS,
            names::SPICE_SOLVES,
            names::SPICE_NR_ITERATIONS,
            names::CORNERS_ENUMERATED,
            names::CACHE_MISSES,
        ] {
            assert!(
                log.counters.contains_key(counter),
                "counter `{counter}` missing at {threads} threads"
            );
        }
        if threads > 1 {
            // Worker chunks (and the imbalance gauge) only exist on the
            // parallel path; a 1-thread run stays on the serial
            // reference path by design.
            assert!(
                log.counters.contains_key(names::EXEC_CHUNKS),
                "chunk counter missing at {threads} threads"
            );
            assert!(
                span_names.contains(&names::SPAN_EXEC_CHUNK),
                "no worker chunk spans at {threads} threads"
            );
        }
        assert!(
            log.gauges.contains_key(names::MC_TRIALS_PER_SEC),
            "mc throughput gauge missing"
        );
        assert!(
            log.histograms.contains_key(names::MC_TDP_PERCENT),
            "tdp histogram missing"
        );
        assert!(
            log.counters[names::MC_TRIALS] >= 200 * 3,
            "expected at least one 200-trial distribution per option"
        );

        // Node spans carry the artifact / outcome fields the tree
        // report and the trace analytics key on.
        assert!(log
            .spans_named(names::SPAN_STUDY_NODE)
            .all(|s| s.fields.contains_key("artifact") && s.fields.contains_key("outcome")));
    }
}
