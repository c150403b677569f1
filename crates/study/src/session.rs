//! The `Study` session: plan, evaluate, memoize, observe.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mpvar_core::experiments::ExperimentContext;
use mpvar_core::CoreError;
use mpvar_trace::{names, FieldValue, SpanGuard, SpanRecord};

use crate::cache::{context_fingerprint, node_key, CacheKey};
use crate::graph::{plan, ArtifactId};
use crate::store::{ArtifactStore, MemoryStore, StoreStats};
use crate::value::{produce, Artifact, ArtifactData, ArtifactValue, TypedArtifact};

/// Per-node evaluation counters, surfaced by [`Study::timings`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Times the producer actually ran.
    pub computed: usize,
    /// Times the value was served from the cache (direct requests and
    /// dependency fetches alike).
    pub cache_hits: usize,
    /// Total producer wall-clock across runs.
    pub wall: Duration,
}

/// How a node's value was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeOutcome {
    /// The producer ran; the wall-clock time it took.
    Computed(Duration),
    /// The value came from the content-keyed cache.
    CacheHit,
}

/// Encodes one evaluation event as a synthetic `study_node` span: an
/// `artifact` field naming the node, an `outcome` field of `"computed"`
/// or `"cache_hit"`, and the producer wall-clock as the duration.
fn encode_event(id: ArtifactId, outcome: NodeOutcome) -> SpanRecord {
    let (label, wall) = match outcome {
        NodeOutcome::Computed(wall) => ("computed", wall),
        NodeOutcome::CacheHit => ("cache_hit", Duration::ZERO),
    };
    SpanRecord::completed(
        names::SPAN_STUDY_NODE,
        vec![("artifact", id.name().into()), ("outcome", label.into())],
        wall,
    )
}

/// A memoized, instrumented evaluation session over the artifact graph.
///
/// A `Study` owns one [`ExperimentContext`] and resolves any requested
/// artifact set into a topologically-ordered plan, evaluating
/// independent nodes in parallel on `mpvar-exec` and memoizing every
/// result in a content-keyed cache. Shared prework is therefore
/// computed exactly once per session: Table III's corner search is
/// Fig. 4's corner search is Table I.
///
/// # Example
///
/// ```no_run
/// use mpvar_study::{ArtifactId, Study};
/// use mpvar_core::experiments::{ExperimentContext, Table1, Table3};
///
/// let study = Study::new(ExperimentContext::quick()?);
/// let t3 = study.get::<Table3>()?;          // runs table1 → fig4 → table3
/// let t1 = study.get::<Table1>()?;          // cache hit, no recompute
/// println!("{}", t1.report().render());
/// # Ok::<(), mpvar_core::CoreError>(())
/// ```
///
/// Every evaluation is observable through `mpvar-trace`: with a
/// collector installed, each `materialize` call opens a
/// `study_materialize` span, each node evaluation a `study_node` span
/// (cache hits appear as zero-duration spans), and the session bumps
/// `study.cache_hits` / `study.cache_misses` / `study.memo_bytes`
/// metrics.
pub struct Study {
    ctx: ExperimentContext,
    fingerprint: u64,
    store: Arc<dyn ArtifactStore>,
    span_label: Option<String>,
    stats: Mutex<BTreeMap<ArtifactId, NodeStats>>,
}

impl std::fmt::Debug for Study {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Study")
            .field("fingerprint", &self.fingerprint)
            .field("cached_artifacts", &self.store.len())
            .finish_non_exhaustive()
    }
}

impl Study {
    /// A session over `ctx` with a fresh private in-memory store.
    pub fn new(ctx: ExperimentContext) -> Self {
        Self::with_store(ctx, Arc::new(MemoryStore::new()))
    }

    /// A session over `ctx` backed by an explicit [`ArtifactStore`] —
    /// an in-process [`MemoryStore`], a persistent
    /// [`DiskStore`](crate::DiskStore), or any custom implementation.
    ///
    /// Because keys are content-derived, sharing a store across
    /// sessions (and, for a disk store, across processes) is always
    /// sound: a session only sees entries whose context fingerprint
    /// (and dependency closure) matches its own.
    pub fn with_store(ctx: ExperimentContext, store: Arc<dyn ArtifactStore>) -> Self {
        let fingerprint = context_fingerprint(&ctx);
        Self {
            ctx,
            fingerprint,
            store,
            span_label: None,
            stats: Mutex::new(BTreeMap::new()),
        }
    }

    /// Tags every `study_materialize` / `study_node` span this session
    /// emits with a `session = <label>` field (chainable).
    ///
    /// Trace consumers that multiplex several concurrent sessions onto
    /// one collector — e.g. the `mpvar-serve` job server routing
    /// progress events to the requests that caused them — key on this
    /// field, since spans are only delivered on completion and
    /// parent-chain resolution across sessions is not possible live.
    #[must_use]
    pub fn with_span_label(mut self, label: impl Into<String>) -> Self {
        self.span_label = Some(label.into());
        self
    }

    /// The session's experiment context.
    pub fn context(&self) -> &ExperimentContext {
        &self.ctx
    }

    /// The session's artifact store (shareable).
    pub fn store(&self) -> &Arc<dyn ArtifactStore> {
        &self.store
    }

    /// Population and traffic counters of the session's store.
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The stable fingerprint of this session's context knobs.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The content key of one node under this session's context.
    pub fn key_of(&self, id: ArtifactId) -> CacheKey {
        let dep_keys: Vec<CacheKey> = id.dependencies().iter().map(|&d| self.key_of(d)).collect();
        node_key(self.fingerprint, id, &dep_keys)
    }

    /// Evaluates `requested` (plus its dependency closure) and returns
    /// the requested values, in request order.
    ///
    /// Nodes already memoized are served from the cache; the rest are
    /// planned into dependency waves and each wave's producers run in
    /// parallel, splitting the context's thread budget so nested
    /// parallelism never oversubscribes.
    ///
    /// # Errors
    ///
    /// The lowest-indexed producer failure of the first failing wave.
    pub fn materialize(
        &self,
        requested: &[ArtifactId],
    ) -> Result<Vec<Arc<ArtifactValue>>, CoreError> {
        let traced = mpvar_trace::enabled();
        let mat_span = if traced {
            let mut fields: Vec<(&'static str, FieldValue)> =
                vec![("requested", requested.len().into())];
            if let Some(label) = &self.span_label {
                fields.push(("session", label.clone().into()));
            }
            SpanGuard::enter(names::SPAN_STUDY_MATERIALIZE, fields)
        } else {
            SpanGuard::disabled()
        };
        let parent = mat_span.id();
        for wave in plan(requested) {
            // Serve memoized nodes, keep the rest for the parallel pass.
            let missing: Vec<ArtifactId> = wave
                .into_iter()
                .filter(|&id| match self.store.get(self.key_of(id)) {
                    Some(_) => {
                        self.record(id, NodeOutcome::CacheHit);
                        false
                    }
                    None => true,
                })
                .collect();
            if missing.is_empty() {
                continue;
            }
            // Hand each producer an equal share of the thread budget;
            // results are bit-identical for any split (mpvar-exec
            // contract), so this only avoids oversubscription.
            let (outer, inner) = self.ctx.exec.split(missing.len());
            let mut inner_ctx = self.ctx.clone();
            inner_ctx.exec = inner;
            inner_ctx.mc.exec = inner;
            let values = mpvar_exec::try_par_map_indexed(&missing, outer, |_, &id| {
                // Workers start with an empty span stack; parent their
                // node spans to this materialize() call explicitly.
                let _node_span = if traced {
                    let mut fields: Vec<(&'static str, FieldValue)> = vec![
                        ("artifact", id.name().into()),
                        ("outcome", "computed".into()),
                    ];
                    if let Some(label) = &self.span_label {
                        fields.push(("session", label.clone().into()));
                    }
                    SpanGuard::enter_with_parent(parent, names::SPAN_STUDY_NODE, fields)
                } else {
                    SpanGuard::disabled()
                };
                let deps: Vec<Arc<ArtifactValue>> = id
                    .dependencies()
                    .iter()
                    .map(|&d| {
                        let v = self
                            .store
                            .get(self.key_of(d))
                            .expect("dependency evaluated in an earlier wave");
                        self.record(d, NodeOutcome::CacheHit);
                        v
                    })
                    .collect();
                let t0 = Instant::now();
                let value = produce(id, &inner_ctx, &deps)?;
                self.record(id, NodeOutcome::Computed(t0.elapsed()));
                Ok::<_, CoreError>(Arc::new(value))
            })?;
            for (id, value) in missing.iter().zip(values) {
                if traced {
                    let rendered = value.render();
                    mpvar_trace::counter_add(
                        names::MEMO_BYTES,
                        (rendered.text.len() + rendered.csv.len()) as u64,
                    );
                }
                self.store.put(self.key_of(*id), value);
            }
        }
        Ok(requested
            .iter()
            .map(|&id| {
                self.store
                    .get(self.key_of(id))
                    .expect("requested artifact evaluated")
            })
            .collect())
    }

    /// Evaluates (or fetches) one artifact.
    ///
    /// # Errors
    ///
    /// Propagates producer failures.
    pub fn artifact(&self, id: ArtifactId) -> Result<Arc<ArtifactValue>, CoreError> {
        Ok(self.materialize(&[id])?.pop().expect("one value requested"))
    }

    /// Evaluates (or fetches) one artifact as its concrete result type.
    ///
    /// ```no_run
    /// # use mpvar_study::Study;
    /// # use mpvar_core::experiments::{ExperimentContext, Table1};
    /// # let study = Study::new(ExperimentContext::quick()?);
    /// let t1 = study.get::<Table1>()?;
    /// assert_eq!(t1.worst_cases.len(), 3);
    /// # Ok::<(), mpvar_core::CoreError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates producer failures.
    pub fn get<T: ArtifactData>(&self) -> Result<TypedArtifact<T>, CoreError> {
        let value = self.artifact(T::ID)?;
        Ok(TypedArtifact::new(value).expect("artifact variant matches its id"))
    }

    /// Evaluates `requested` and renders each artifact (text + CSV), in
    /// request order.
    ///
    /// # Errors
    ///
    /// Propagates producer failures.
    pub fn run(&self, requested: &[ArtifactId]) -> Result<Vec<Artifact>, CoreError> {
        Ok(self
            .materialize(requested)?
            .iter()
            .map(|v| v.render())
            .collect())
    }

    /// Renders every artifact in canonical report order.
    ///
    /// # Errors
    ///
    /// Propagates producer failures.
    pub fn run_all(&self) -> Result<Vec<Artifact>, CoreError> {
        self.run(&ArtifactId::ALL)
    }

    /// CLI entry point: `target` is an artifact name or `all`.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an unknown target;
    /// propagated producer failures otherwise.
    pub fn run_named(&self, target: &str) -> Result<Vec<Artifact>, CoreError> {
        if target == "all" {
            self.run_all()
        } else {
            self.run(&[ArtifactId::try_parse(target)?])
        }
    }

    /// Per-node evaluation counters accumulated by this session.
    pub fn timings(&self) -> BTreeMap<ArtifactId, NodeStats> {
        self.stats
            .lock()
            .expect("study stats lock poisoned")
            .clone()
    }

    /// The session's evaluation counters summed across nodes — the
    /// one-glance answer to "did this session compute anything, or was
    /// it served entirely from cache?". `mpvar-serve` uses it to
    /// classify a finished wave as a warm hit (`computed == 0`) or a
    /// cold materialization for its latency telemetry.
    pub fn session_stats(&self) -> NodeStats {
        let stats = self.stats.lock().expect("study stats lock poisoned");
        let mut total = NodeStats::default();
        for s in stats.values() {
            total.computed += s.computed;
            total.cache_hits += s.cache_hits;
            total.wall += s.wall;
        }
        total
    }

    fn record(&self, id: ArtifactId, outcome: NodeOutcome) {
        {
            let mut stats = self.stats.lock().expect("study stats lock poisoned");
            let entry = stats.entry(id).or_default();
            match outcome {
                NodeOutcome::Computed(wall) => {
                    entry.computed += 1;
                    entry.wall += wall;
                }
                NodeOutcome::CacheHit => entry.cache_hits += 1,
            }
        }
        match outcome {
            NodeOutcome::Computed(_) => mpvar_trace::counter_add(names::CACHE_MISSES, 1),
            NodeOutcome::CacheHit => {
                mpvar_trace::counter_add(names::CACHE_HITS, 1);
                // Producer runs get a guard span in materialize(); cache
                // hits are instantaneous, so emit a zero-duration
                // synthetic span to keep every node visible in a trace.
                if mpvar_trace::enabled() {
                    let mut record = encode_event(id, outcome);
                    if let Some(label) = &self.span_label {
                        record.fields.push(("session", label.clone().into()));
                    }
                    record.emit();
                }
            }
        }
    }
}
