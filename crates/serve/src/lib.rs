//! # mpvar-serve — the analysis job server
//!
//! Long-running front end over the `mpvar-study` artifact graph and
//! its persistent [`ArtifactStore`]: clients submit analysis requests
//! over newline-delimited JSON (`mpvar-serve/v1`), the server
//! materializes them against one shared store, and three layers keep
//! redundant work from ever running:
//!
//! 1. **Dedupe** — a request identical-in-identity to one already in
//!    flight (same context fingerprint, artifact set covered) attaches
//!    to the running materialization instead of starting its own.
//! 2. **Batching** — compatible cold requests that arrive while a wave
//!    is running merge into one shared follow-up wave.
//! 3. **The store** — everything else is answered by the
//!    content-addressed cache (in-memory or on-disk), so a restarted
//!    server replays warm requests without touching a solver. An
//!    artifact's key covers only the context knobs its producer reads,
//!    so requests that differ only in, say, the Monte-Carlo seed share
//!    Fig. 4, Tables I–III and the write ladder across waves.
//!
//! Progress streams live: each wave's `Study` is tagged with a unique
//! session label, a [`ProgressRouter`] trace sink routes the
//! resulting `study_node` span completions back to the requests that
//! caused them, and the server forwards them as `progress` lines.
//!
//! Everything is std-only (threads + channels + `TcpListener`), like
//! the rest of the workspace.
//!
//! ## Wiring
//!
//! The three pieces compose explicitly so embedders control tracing:
//!
//! ```no_run
//! use std::sync::Arc;
//! use std::time::Duration;
//! use mpvar_serve::{Client, Dispatcher, ProgressRouter, Server};
//! use mpvar_serve::protocol::{AnalysisRequest, ContextSpec};
//! use mpvar_study::{ArtifactId, DiskStore};
//! use mpvar_trace::Collector;
//!
//! let store = Arc::new(DiskStore::open("artifact-store")?);
//! let router = Arc::new(ProgressRouter::new());
//! let dispatcher = Arc::new(Dispatcher::new(store, Arc::clone(&router)));
//! // Progress only flows while a collector carrying the router is
//! // installed; results never depend on it.
//! let collector = Collector::new(vec![router]);
//! let _session = collector.install();
//! let server = Server::start("127.0.0.1:0", dispatcher)?;
//!
//! let mut client = Client::connect(server.addr())?;
//! let artifacts = client.request(
//!     AnalysisRequest {
//!         id: "r1".into(),
//!         artifacts: vec![ArtifactId::Table3],
//!         context: ContextSpec::default(),
//!         progress: true,
//!     },
//!     |event| eprintln!("{event:?}"),
//! )?;
//! println!("{}", artifacts[0].text);
//! server.stop();
//! server.join(Duration::from_secs(60));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`ArtifactStore`]: mpvar_study::ArtifactStore
//! [`ProgressRouter`]: crate::progress::ProgressRouter

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod dispatch;
pub mod progress;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use client::{Client, ClientError};
pub use dispatch::Dispatcher;
pub use progress::ProgressRouter;
pub use protocol::{
    validate_serve_jsonl, AnalysisRequest, ClientMessage, ContextSpec, Preset, ProtocolError,
    RenderedArtifact, ServeLog, ServeMessage, ServerMessage, SCHEMA_ID,
};
pub use server::Server;
pub use telemetry::{LatencyStat, ServeStats, StatsWindow};
