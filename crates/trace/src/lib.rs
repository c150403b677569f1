//! # mpvar-trace — structured observability for the whole pipeline
//!
//! Every layer of the workspace — litho decomposition, extraction,
//! SPICE solves, the Monte-Carlo farm on `mpvar-exec`, the
//! `mpvar-study` artifact DAG — emits into this one zero-dependency
//! tracing/metrics layer, and CI and the bench harness consume the
//! result as data. Three pieces:
//!
//! * **Spans** — [`span!`] guards with parent/child nesting, wall-clock
//!   duration, and per-thread attribution. Nesting follows a
//!   thread-local stack; spans crossing `par_map_indexed` workers are
//!   parented explicitly via [`SpanGuard::enter_with_parent`], so the
//!   trace tree survives the fork-join pool.
//! * **Metrics** — a per-collector registry of counters, gauges, and
//!   fixed-bucket histograms ([`counter_add`], [`gauge_set`],
//!   [`histogram_record`]): MC trials/sec, SPICE Newton iterations and
//!   convergence failures, corner-enumeration counts, cache hit/miss,
//!   bytes memoized per node. Canonical names live in [`names`].
//! * **Sinks** — pluggable consumers: [`sink::render_tree`] for the
//!   human-readable report, [`JsonlSink`] for the machine-readable
//!   JSONL export (schema in [`schema`]), [`RecordingSink`] for tests.
//!
//! # Off by default, never perturbs results
//!
//! Instrumentation is **off until a [`Collector`] is installed**: every
//! `span!`/counter call first checks one relaxed atomic ([`enabled`])
//! and returns immediately when no collector is active. Instrumented
//! code paths only *observe* — they never feed back into any
//! computation — so an instrumented run is bit-identical to an
//! uninstrumented one at any thread count (proved by
//! `tests/trace_determinism.rs` at the workspace root).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use mpvar_trace::{Collector, RecordingSink};
//!
//! let sink = Arc::new(RecordingSink::new());
//! let collector = Collector::new(vec![sink.clone()]);
//! {
//!     let _session = collector.install();
//!     let _span = mpvar_trace::span!("mc_wave", trials = 100usize);
//!     mpvar_trace::counter_add("mc.trials", 100);
//! } // dropping the guard flushes metrics into the sinks
//! assert_eq!(sink.spans().len(), 1);
//! assert_eq!(sink.spans()[0].name, "mc_wave");
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod collector;
pub mod json;
pub mod metrics;
pub mod schema;
pub mod sink;
pub mod span;

pub use collector::{counter_add, enabled, gauge_set, histogram_record, Collector, CollectorGuard};
pub use metrics::{Metric, MetricsSnapshot};
pub use schema::{validate_jsonl, SchemaError, TraceLog};
pub use sink::{JsonlSink, NullSink, RecordingSink, TraceSink};
pub use span::{FieldValue, Fields, SpanGuard, SpanId, SpanRecord};

/// Canonical span and metric names emitted by the workspace crates.
///
/// Using these constants keeps producers and consumers (the tree
/// report, the JSONL schema, CI assertions) agreeing on one vocabulary.
/// The JSONL schema itself does not restrict names; these are the ones
/// the built-in instrumentation emits.
pub mod names {
    /// Span: one parallel map of `mpvar-exec` (`n`, `threads`, and
    /// `workers`: the threads it could use).
    pub const SPAN_EXEC_PAR_MAP: &str = "exec_par_map";
    /// Span: one claimed chunk of an `exec_par_map`.
    pub const SPAN_EXEC_CHUNK: &str = "exec_chunk";
    /// Span: one full Monte-Carlo `tdp` distribution.
    pub const SPAN_MC_DISTRIBUTION: &str = "mc_distribution";
    /// Span: one wave of Monte-Carlo trial indices.
    pub const SPAN_MC_WAVE: &str = "mc_wave";
    /// Span: one ±3σ worst-case corner enumeration.
    pub const SPAN_CORNER_SEARCH: &str = "corner_search";
    /// Span: one SPICE transient analysis.
    pub const SPAN_SPICE_TRANSIENT: &str = "spice_transient";
    /// Span: one SRAM read testbench simulation.
    pub const SPAN_SRAM_READ: &str = "sram_read";
    /// Span: one SRAM write testbench simulation.
    pub const SPAN_SRAM_WRITE: &str = "sram_write";
    /// Span: one batched multi-trial transient analysis.
    pub const SPAN_SPICE_BATCH: &str = "spice_batch_transient";
    /// Span: one `Study::materialize` request.
    pub const SPAN_STUDY_MATERIALIZE: &str = "study_materialize";
    /// Span: one artifact-graph node evaluation (or cache fetch).
    pub const SPAN_STUDY_NODE: &str = "study_node";
    /// Span: the differential-oracle phase of a `check` pass (a root:
    /// it runs on its own thread alongside the experiment matrix).
    pub const SPAN_CHECK_ORACLES: &str = "check_oracles";
    /// Span: the differential delay oracle, under `check_oracles`.
    pub const SPAN_ORACLE_DELAY: &str = "oracle_delay";
    /// Span: the differential write oracle, under `check_oracles`.
    pub const SPAN_ORACLE_WRITE: &str = "oracle_write";
    /// Span: one percentile-bootstrap CI of a σ (`n` samples,
    /// `resamples`).
    pub const SPAN_STATS_BOOTSTRAP: &str = "stats_bootstrap";

    /// Counter: Monte-Carlo samples accepted into distributions.
    pub const MC_TRIALS: &str = "mc.trials";
    /// Counter: Monte-Carlo draws excluded as shorted geometry.
    pub const MC_SHORTED: &str = "mc.shorted_draws";
    /// Gauge: accepted trials per second of the last MC distribution.
    pub const MC_TRIALS_PER_SEC: &str = "mc.trials_per_sec";
    /// Histogram: sampled `tdp` values, percent (fixed ±50% buckets).
    pub const MC_TDP_PERCENT: &str = "mc.tdp_percent";

    /// Counter: nonlinear MNA solves (one per Newton-iterated system).
    pub const SPICE_SOLVES: &str = "spice.solves";
    /// Counter: Newton–Raphson iterations across all solves.
    pub const SPICE_NR_ITERATIONS: &str = "spice.nr_iterations";
    /// Counter: Newton–Raphson non-convergence failures.
    pub const SPICE_NR_FAILURES: &str = "spice.nr_failures";
    /// Counter: accepted transient integration steps.
    pub const SPICE_TRANSIENT_STEPS: &str = "spice.transient_steps";
    /// Counter: completed scalar transient runs (the denominator of the
    /// steps-per-transient check).
    pub const SPICE_TRANSIENTS: &str = "spice.transients";
    /// Counter: symbolic LU analyses (first factor of a structure, or a
    /// pivot-drift rebuild).
    pub const SPICE_LU_SYMBOLIC_BUILDS: &str = "spice.lu_symbolic_builds";
    /// Counter: factorizations that reused an existing symbolic
    /// analysis (the compiled kernel's whole point).
    pub const SPICE_LU_SYMBOLIC_REUSES: &str = "spice.lu_symbolic_reuses";
    /// Counter: numeric-only refactorizations into preallocated
    /// workspaces.
    pub const SPICE_LU_REFACTORS: &str = "spice.lu_refactors";
    /// Counter: batched Newton solves (one per timestep of a batched
    /// transient, whatever the lane count).
    pub const SPICE_BATCH_SOLVES: &str = "spice.batch_solves";
    /// Counter: trial lanes carried through batched transients.
    pub const SPICE_BATCH_LANE_TRIALS: &str = "spice.batch_lane_trials";
    /// Counter: lanes evicted from a batch to the scalar fall-out path
    /// (symbolic disagreement, pivot drift, Newton non-convergence).
    pub const SPICE_BATCH_FALLOUTS: &str = "spice.batch_fallouts";
    /// Counter: batched numeric refactorizations (all lanes at once).
    pub const SPICE_BATCH_REFACTORS: &str = "spice.batch_refactors";
    /// Gauge: capacity bytes held by the batched solver workspace after
    /// the last batched run — steady-state waves must hold this flat
    /// (no allocation inside the solve loop).
    pub const SPICE_BATCH_WORKSPACE_BYTES: &str = "spice.batch_workspace_bytes";

    /// Counter: corner combinations enumerated by worst-case searches.
    pub const CORNERS_ENUMERATED: &str = "corner.enumerated";
    /// Counter: corners skipped as physically infeasible prints.
    pub const CORNERS_INFEASIBLE: &str = "corner.infeasible";

    /// Counter: artifact-graph cache hits.
    pub const CACHE_HITS: &str = "study.cache_hits";
    /// Counter: artifact-graph cache misses (producer runs).
    pub const CACHE_MISSES: &str = "study.cache_misses";
    /// Counter: approximate bytes memoized per inserted node (rendered
    /// text + CSV size; a proxy, since the cache stores typed values).
    pub const MEMO_BYTES: &str = "study.memo_bytes";

    /// Span: one adaptive importance-sampling yield run.
    pub const SPAN_YIELD_RUN: &str = "yield_run";
    /// Span: one convergence-driven round of a yield run.
    pub const SPAN_YIELD_ROUND: &str = "yield_round";
    /// Counter: convergence-driven rounds dispatched by yield runs.
    pub const YIELD_ROUNDS: &str = "yield.rounds";
    /// Counter: importance-sampling trials consumed by yield runs,
    /// counted once per criterion that folds them.
    pub const YIELD_TRIALS: &str = "yield.trials";
    /// Counter: importance-sampling trials drawn and evaluated, once
    /// per shared draw stream however many criteria fold them (so it
    /// reads below `yield.trials` when runs share a stream).
    pub const YIELD_EVALUATED_TRIALS: &str = "yield.evaluated_trials";
    /// Counter: proposal draws that landed outside the truncated target
    /// support (weight exactly zero, so the simulation was skipped).
    pub const YIELD_ZERO_WEIGHT: &str = "yield.zero_weight_trials";
    /// Gauge: effective sample size of the last completed yield run.
    pub const YIELD_ESS: &str = "yield.ess";

    /// Counter: artifact-store lookups answered by decoding a
    /// persisted on-disk entry (a "disk-warm" hit).
    pub const STORE_DISK_HITS: &str = "store.disk_hits";
    /// Counter: artifact envelopes durably written to disk.
    pub const STORE_DISK_WRITES: &str = "store.disk_writes";
    /// Counter: persisted entries rejected (bad envelope, checksum
    /// mismatch, undecodable payload) and moved to quarantine.
    pub const STORE_QUARANTINED: &str = "store.quarantined";

    /// Counter: analysis requests accepted by the serve dispatcher.
    pub const SERVE_REQUESTS: &str = "serve.requests";
    /// Counter: requests coalesced onto an already-in-flight
    /// materialization instead of starting their own.
    pub const SERVE_DEDUPED: &str = "serve.deduped";
    /// Counter: materialization waves the serve dispatcher launched.
    pub const SERVE_MATERIALIZATIONS: &str = "serve.materializations";
    /// Counter: cold requests batched into a shared wave with other
    /// compatible requests (same context fingerprint).
    pub const SERVE_BATCHED: &str = "serve.batched";

    /// Counter: formula-route trials whose bit line the lane walk of
    /// `NominalWindow::variation_batch` printed.
    pub const FORMULA_LANE_TRIALS: &str = "formula.lane_trials";
    /// Counter: formula-route trials `NominalWindow::variation_batch`
    /// left to the one-draw print (chunk remainders, mixed or
    /// non-finite draws).
    pub const FORMULA_LANE_FALLBACKS: &str = "formula.lane_fallbacks";

    /// Counter: chunks the parallel maps were cut into.
    pub const EXEC_CHUNKS: &str = "exec.chunks";
}

/// Opens a span guard: `span!("name")` or
/// `span!("name", trials = n, option = label)`.
///
/// Field values are only evaluated when a collector is installed, so a
/// disabled span costs one relaxed atomic load. The guard records the
/// span (with wall-clock duration and thread attribution) when dropped.
///
/// ```
/// let n = 500usize;
/// let _span = mpvar_trace::span!("mc_wave", trials = n);
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $val:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::SpanGuard::enter(
                $name,
                vec![$((stringify!($key), $crate::FieldValue::from($val))),*],
            )
        } else {
            $crate::SpanGuard::disabled()
        }
    };
}
