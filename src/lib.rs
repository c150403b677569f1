//! # mpvar — interconnect multiple-patterning variability analysis for SRAMs
//!
//! Facade crate re-exporting the full `mpvar` workspace: a from-scratch Rust
//! reproduction of *"Impact of Interconnect Multiple-Patterning Variability
//! on SRAMs"* (Karageorgos et al., DATE 2015).
//!
//! See the individual crates for subsystem documentation:
//!
//! * [`exec`] — deterministic parallel execution (thread-count knob);
//! * [`stats`] — RNG streams, samplers, summary statistics, importance
//!   sampling;
//! * [`geometry`] — nm-unit layout database;
//! * [`tech`] — technology description and the N10 preset;
//! * [`spice`] — circuit simulator (MNA, transient, MOSFET model);
//! * [`litho`] — LE3 / SADP / EUV patterning and variation models;
//! * [`extract`] — parasitic extraction (R, C, coupling, RC netlists);
//! * [`sram`] — 6T cell, array builder, read testbench;
//! * [`core`] — worst-case analysis, analytical td/tdp formula,
//!   Monte-Carlo tdp distributions: the paper's contribution;
//! * [`yield_engine`] — rare-event yield estimation: importance-sampled
//!   failure probabilities with an adaptive, resumable controller
//!   (re-export of `mpvar-yield`; `yield` is a reserved word);
//! * [`study`] — the artifact-graph engine: memoized, instrumented
//!   experiment evaluation behind the [`study::Study`] session, with
//!   pluggable in-memory / on-disk artifact stores;
//! * [`serve`] — the analysis job server: newline-delimited JSON
//!   requests (`mpvar-serve/v1`) over TCP against a persistent
//!   artifact store, with in-flight request dedupe, wave batching,
//!   streamed per-request progress, and live latency/hit-rate
//!   telemetry in its `stats` reply;
//! * [`obs`] — trace analytics: span-forest rebuilding, per-span-name
//!   aggregates with quantiles, critical paths, flamegraph export,
//!   and the `perf_baseline.json` regression gate behind
//!   `repro profile` / `repro perf-check`;
//! * [`trace`] — structured spans, metrics, and machine-readable run
//!   telemetry (the `--trace` / `--metrics` machinery of `repro`).
//!
//! For everyday use, `use mpvar::prelude::*;` pulls in the ~15 types
//! most programs need:
//!
//! ```no_run
//! use mpvar::prelude::*;
//!
//! let ctx = ExperimentContext::builder()?.quick_preset().build();
//! let study = Study::new(ctx);
//! for artifact in study.run(&[ArtifactId::Table1, ArtifactId::Table3])? {
//!     println!("{}", artifact.text);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! To watch a run, install a trace collector first (see
//! [`trace`]): every layer — the parallel executor, the Monte-Carlo
//! engine, the SPICE solver, and the study graph — emits spans and
//! metrics into it, and `repro all --trace run.jsonl --metrics` writes
//! the same telemetry as machine-readable JSONL.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use mpvar_core as core;
pub use mpvar_exec as exec;
pub use mpvar_extract as extract;
pub use mpvar_geometry as geometry;
pub use mpvar_litho as litho;
pub use mpvar_obs as obs;
pub use mpvar_serve as serve;
pub use mpvar_spice as spice;
pub use mpvar_sram as sram;
pub use mpvar_stats as stats;
pub use mpvar_study as study;
pub use mpvar_tech as tech;
pub use mpvar_trace as trace;
pub use mpvar_yield as yield_engine;

/// The everyday surface of the workspace: experiment contexts and
/// configuration builders, the `Study` artifact-graph engine, the
/// technology/cell substrates, and the core analysis entry points.
pub mod prelude {
    pub use mpvar_core::experiments::{ExperimentContext, ExperimentContextBuilder};
    pub use mpvar_core::montecarlo::{McConfig, McConfigBuilder};
    pub use mpvar_core::{
        find_worst_case, sensitivity_profile, tdp_distribution, yield_6sigma, AnalyticalModel,
        CoreError, ExecConfig, TdpDistribution, WorstCase, YieldSettings, YieldTable,
    };
    pub use mpvar_litho::Draw;
    pub use mpvar_sram::{simulate_read, BitcellGeometry, FormulaParams, ReadConfig};
    pub use mpvar_study::{
        Artifact, ArtifactId, ArtifactStore, ArtifactValue, DiskStore, MemoryStore, StoreStats,
        Study,
    };
    pub use mpvar_tech::preset::{n10, n7};
    pub use mpvar_tech::{PatterningOption, TechDb, VariationBudget};
    pub use mpvar_trace::{Collector, JsonlSink, RecordingSink};
}
