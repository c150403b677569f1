//! # mpvar-study — the artifact-graph engine
//!
//! The single public entry point for running `mpvar` analyses. The
//! paper's deliverables (Tables I–IV, Figs. 4/5, ablations, extensions)
//! form a dependency DAG; this crate models each as a typed node,
//! declared once as a row of the artifact table in [`graph`] (id, codec
//! tag, name, result type, producer and typed inputs), and evaluates
//! any requested set through a [`Study`] session that
//!
//! * resolves the request into a topologically-ordered plan
//!   ([`graph::plan`]),
//! * evaluates independent nodes **in parallel** on `mpvar-exec`,
//!   whose one thread budget the nodes' own parallel maps share, so
//!   nested parallelism never oversubscribes,
//! * **memoizes** every result in a content-keyed [`ArtifactStore`]
//!   (key = stable hash of the context knobs the node's producer reads
//!   and of its dependency closure, so sessions that differ only in
//!   knobs a node does not read share its entry) — in-memory
//!   ([`MemoryStore`]) or persisted on disk with a checksummed,
//!   crash-safe binary envelope ([`DiskStore`]) — so
//!   Table I computed for Fig. 4 is reused by Table III and by
//!   `repro check` without re-running the corner search, even across
//!   process restarts, and
//! * surfaces **observability**: with an `mpvar_trace::Collector`
//!   installed, every `materialize` call opens a `study_materialize`
//!   span, every node evaluation a `study_node` span (zero-duration for
//!   cache hits), and the session bumps `study.cache_hits` /
//!   `study.cache_misses` / `study.memo_bytes` metrics; per-node
//!   wall-clock / cache-hit counters remain available via
//!   [`Study::timings`].
//!
//! Determinism is inherited, not re-proven: every producer is
//! bit-identical for any thread count (the `mpvar-exec` contract), so a
//! cached value is *the* value — the cache can never change a result,
//! only skip recomputing it.
//!
//! ```no_run
//! use mpvar_core::experiments::{ExperimentContext, Table3};
//! use mpvar_study::Study;
//!
//! let study = Study::new(ExperimentContext::quick()?);
//! let t3 = study.get::<Table3>()?; // runs table1 → fig4 → table3 once
//! println!("{}", t3.report().render());
//! # Ok::<(), mpvar_core::CoreError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod codec;
pub mod disk;
mod error;
pub mod graph;
pub mod session;
pub mod store;
pub mod value;

pub use cache::{context_fingerprint, CacheKey};
pub use codec::{decode_value, encode_value, CodecError};
pub use disk::{DiskStore, WriteFault};
pub use graph::{plan, ArtifactId};
pub use mpvar_core::sensitivity::SensitivityMatrix;
pub use session::{NodeStats, Study};
pub use store::{ArtifactStore, MemoryStore, StoreStats};
pub use value::{Artifact, ArtifactData, ArtifactValue, TypedArtifact};
