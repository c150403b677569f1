//! Transport latency: warm answers must not wait on Nagle's algorithm.
//!
//! The server writes each answer as an `ack` line then a `result` line.
//! Without `TCP_NODELAY` the second small write waits for the peer's
//! delayed ACK (~40 ms on Linux), so 20 sequential warm requests on one
//! connection cost at least 800 ms; with it they take a few ms.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpvar_serve::protocol::{AnalysisRequest, ContextSpec, Preset};
use mpvar_serve::{Client, Dispatcher, ProgressRouter, Server};
use mpvar_study::{ArtifactId, MemoryStore};

fn request(id: &str) -> AnalysisRequest {
    AnalysisRequest {
        id: id.to_string(),
        artifacts: vec![ArtifactId::Table1],
        context: ContextSpec {
            preset: Preset::Quick,
            sizes: Some(vec![8]),
            trials: Some(120),
            seed: Some(11),
            threads: Some(1),
        },
        progress: false,
    }
}

#[test]
fn sequential_warm_requests_are_not_delayed_by_nagle() {
    let store = Arc::new(MemoryStore::new());
    let dispatcher = Arc::new(Dispatcher::new(store, Arc::new(ProgressRouter::new())));
    let server = Server::start("127.0.0.1:0", dispatcher).expect("bind server");
    let mut client = Client::connect(server.addr()).expect("connect");

    let cold = client
        .request(request("cold"), |_| {})
        .expect("cold request");
    let started = Instant::now();
    for i in 0..20 {
        let warm = client
            .request(request(&format!("warm{i}")), |_| {})
            .expect("warm request");
        assert_eq!(warm, cold, "warm answers are identical");
    }
    let elapsed = started.elapsed();

    client.shutdown().expect("shutdown");
    assert!(server.join(Duration::from_secs(60)), "waves drain");
    assert!(
        elapsed < Duration::from_millis(400),
        "20 warm requests took {elapsed:?}; Nagle plus delayed ACK costs >= 800 ms"
    );
}
