//! Full-stack serve exercise: cold server with dedupe + batching over
//! one socket, then a warm restart over the same on-disk store that
//! must replay without touching a solver.
//!
//! Single `#[test]` on purpose: it installs process-global trace
//! collectors, so it must own its test binary (cargo runs separate
//! test files as separate processes, but tests inside one file share
//! one).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use mpvar_serve::protocol::{AnalysisRequest, ContextSpec, Preset};
use mpvar_serve::{
    Client, ClientMessage, Dispatcher, ProgressRouter, RenderedArtifact, Server, ServerMessage,
};
use mpvar_study::{ArtifactId, DiskStore};
use mpvar_trace::{names, Collector, RecordingSink, TraceSink};

fn spec() -> ContextSpec {
    ContextSpec {
        preset: Preset::Quick,
        sizes: Some(vec![8]),
        trials: Some(120),
        seed: Some(11),
        threads: Some(1),
    }
}

fn request(id: &str, artifacts: Vec<ArtifactId>, progress: bool) -> AnalysisRequest {
    AnalysisRequest {
        id: id.to_string(),
        artifacts,
        context: spec(),
        progress,
    }
}

fn start_server(
    root: &std::path::Path,
) -> (Server, Arc<RecordingSink>, mpvar_trace::CollectorGuard) {
    let sink = Arc::new(RecordingSink::new());
    let router = Arc::new(ProgressRouter::new());
    let store = Arc::new(DiskStore::open(root).expect("open disk store"));
    let dispatcher = Arc::new(Dispatcher::new(store, Arc::clone(&router)));
    let sinks: Vec<Arc<dyn TraceSink>> = vec![router, Arc::clone(&sink) as Arc<dyn TraceSink>];
    let guard = Collector::new(sinks).install();
    let server = Server::start("127.0.0.1:0", dispatcher).expect("bind server");
    (server, sink, guard)
}

#[test]
fn dedupe_batching_and_warm_restart_without_solvers() {
    let root = std::env::temp_dir().join(format!("mpvar-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // ------------------------------------------------------- phase 1
    // Cold server: three identical concurrent requests plus one
    // distinct one must cost exactly two materializations.
    let (server, cold_sink, cold_guard) = start_server(&root);
    let mut client = Client::connect(server.addr()).expect("connect");

    client
        .send(&ClientMessage::Request(request(
            "r1",
            vec![ArtifactId::Table3],
            true,
        )))
        .expect("send r1");

    // Gate on table1 finishing inside r1's wave: table3 still needs
    // fig4 and itself after that, so requests sent now provably land
    // while the wave is in flight.
    loop {
        match client.recv().expect("recv") {
            ServerMessage::Ack { id, fingerprint } => {
                assert_eq!(id, "r1");
                assert_eq!(fingerprint.len(), 16, "fingerprint is 16 hex digits");
            }
            ServerMessage::Progress {
                id,
                artifact,
                outcome,
                ..
            } => {
                assert_eq!(id, "r1");
                assert_eq!(outcome, "computed", "cold run must compute {artifact}");
                if artifact == "table1" {
                    break;
                }
            }
            other => panic!("unexpected message before gate: {other:?}"),
        }
    }

    for id in ["r2", "r3"] {
        client
            .send(&ClientMessage::Request(request(
                id,
                vec![ArtifactId::Table3],
                false,
            )))
            .expect("send dedupe request");
    }
    client
        .send(&ClientMessage::Request(request(
            "r4",
            vec![ArtifactId::Fig5],
            false,
        )))
        .expect("send distinct request");

    let mut results: BTreeMap<String, Vec<RenderedArtifact>> = BTreeMap::new();
    while results.len() < 4 {
        match client.recv().expect("recv") {
            ServerMessage::Result { id, artifacts } => {
                results.insert(id, artifacts);
            }
            ServerMessage::Ack { .. } | ServerMessage::Progress { .. } => {}
            other => panic!("unexpected message: {other:?}"),
        }
    }
    assert_eq!(results["r1"].len(), 1);
    assert_eq!(results["r1"][0].id, "table3");
    assert_eq!(
        results["r1"], results["r2"],
        "deduped answers are identical"
    );
    assert_eq!(
        results["r1"], results["r3"],
        "deduped answers are identical"
    );
    assert_eq!(results["r4"].len(), 1);
    assert_eq!(results["r4"][0].id, "fig5");

    let stats = client.stats().expect("stats");
    assert_eq!(stats[names::SERVE_REQUESTS], 4);
    assert_eq!(stats[names::SERVE_DEDUPED], 2, "r2 and r3 join r1's wave");
    assert_eq!(
        stats[names::SERVE_MATERIALIZATIONS],
        2,
        "4 requests, 2 waves: r1+r2+r3 share one, r4 gets one"
    );

    // --------------------------------------------------- phase 1-warm
    // The store is now populated, so identical requests on the live
    // server are answered without computing: a sink attached for this
    // phase alone must see no solver span. A batch of them gives the
    // warm-hit latency histogram a meaningful p99.
    let memory_sink = Arc::new(RecordingSink::new());
    let memory_guard =
        Collector::new(vec![Arc::clone(&memory_sink) as Arc<dyn TraceSink>]).install();
    for i in 0..8 {
        let warm = client
            .request(
                request(&format!("warm{i}"), vec![ArtifactId::Table3], false),
                |_| {},
            )
            .expect("warm request");
        assert_eq!(warm, results["r1"], "warm answers are identical");
    }
    drop(memory_guard);
    assert_no_solver_spans(&memory_sink, "memory-warm replay");
    let full = client.stats_full().expect("stats_full");
    let cold = full.latencies.get("cold").expect("cold latency recorded");
    let warm = full
        .latencies
        .get("warm_hit")
        .expect("warm-hit latency recorded");
    assert_eq!(cold.histogram.count, 2, "r1 and r4 rode cold waves");
    assert_eq!(full.latencies["deduped"].histogram.count, 2);
    assert_eq!(warm.histogram.count, 8);
    assert!(
        warm.p50_ns > 0.0 && warm.p50_ns <= warm.p95_ns && warm.p95_ns <= warm.p99_ns,
        "warm quantiles ordered: {warm:?}"
    );
    assert!(
        warm.p99_ns < cold.p50_ns,
        "warm-hit p99 ({} ns) must sit below cold p50 ({} ns)",
        warm.p99_ns,
        cold.p50_ns
    );
    // Gauges: 8 warm of 10 waves; 2 deduped of 12 answered.
    assert!((full.gauges["serve.cache_hit_rate"] - 0.8).abs() < 1e-12);
    assert!((full.gauges["serve.dedupe_ratio"] - 2.0 / 12.0).abs() < 1e-12);
    // Window ring: every answered request landed in some window.
    assert_eq!(
        full.windows.iter().map(|w| w.requests).sum::<u64>(),
        12,
        "windows: {:?}",
        full.windows
    );

    client.shutdown().expect("shutdown");
    assert!(server.join(Duration::from_secs(300)), "waves drain");
    drop(cold_guard);
    assert!(
        cold_sink
            .spans()
            .iter()
            .any(|s| s.name == names::SPAN_SPICE_TRANSIENT),
        "cold run reaches the solver"
    );

    // ------------------------------------------------------- phase 2
    // Warm restart on the same store root: identical answer, zero
    // solver spans, disk hits observed.
    let (server, warm_sink, warm_guard) = start_server(&root);
    let mut client = Client::connect(server.addr()).expect("connect warm");
    let mut progress_outcomes = Vec::new();
    let warm = client
        .request(request("w1", vec![ArtifactId::Table3], true), |event| {
            if let ServerMessage::Progress { outcome, .. } = event {
                progress_outcomes.push(outcome.clone());
            }
        })
        .expect("warm request");
    assert_eq!(warm, results["r1"], "warm replay is bit-identical");
    assert!(
        !progress_outcomes.is_empty() && progress_outcomes.iter().all(|o| o == "cache_hit"),
        "warm progress is all cache hits, got {progress_outcomes:?}"
    );

    let disk_stats = server.dispatcher().store().stats();
    assert!(
        disk_stats.disk_hits >= 3,
        "table1/fig4/table3 come off disk, got {disk_stats:?}"
    );
    assert_eq!(disk_stats.quarantined, 0);

    client.shutdown().expect("shutdown warm");
    assert!(server.join(Duration::from_secs(300)));
    drop(warm_guard);
    assert_no_solver_spans(&warm_sink, "disk-warm replay");

    let _ = std::fs::remove_dir_all(&root);
}

/// Fails when `sink` recorded any solver or Monte-Carlo span: a replay
/// answered by the store computes nothing. The sink must have seen the
/// replay itself (its `study_node` spans), so a detached sink cannot
/// pass.
fn assert_no_solver_spans(sink: &RecordingSink, phase: &str) {
    let spans: Vec<&str> = sink.spans().iter().map(|s| s.name).collect();
    assert!(
        spans.contains(&names::SPAN_STUDY_NODE),
        "{phase} was not traced, spans: {spans:?}"
    );
    for solver_span in [
        names::SPAN_SPICE_TRANSIENT,
        names::SPAN_SPICE_BATCH,
        names::SPAN_MC_WAVE,
        names::SPAN_MC_DISTRIBUTION,
        names::SPAN_CORNER_SEARCH,
    ] {
        assert!(
            !spans.contains(&solver_span),
            "{phase} must not open `{solver_span}`, spans: {spans:?}"
        );
    }
}
