//! The job dispatcher: one shared [`ArtifactStore`], request dedupe,
//! and wave batching.
//!
//! Requests are grouped by **context fingerprint** (a hash of every
//! result-affecting knob, so "compatible" here means *provably
//! result-identical*). The fingerprint is not the store's identity:
//! each artifact's key covers only the knobs its producer reads, so
//! waves on different fingerprints still share the entries of
//! artifacts that read none of the knobs they differ in. Per
//! fingerprint the dispatcher keeps at most one **running wave** — a
//! single `Study::materialize` call on a worker thread — plus a
//! **pending wave** accumulating the requests that arrived too late to
//! join it:
//!
//! * A request whose artifact set is a subset of the running wave's
//!   joins it as an extra waiter (**dedupe** — no second
//!   materialization, `serve.deduped`).
//! * Any other compatible request lands in the pending wave, merging
//!   its artifact set with whatever else is waiting (**batching** —
//!   `serve.batched` counts the requests that shared a wave with an
//!   earlier one).
//! * When the running wave finishes it answers every waiter (each gets
//!   exactly the artifacts it asked for, in its own request order),
//!   then promotes the pending wave, if any, on the same thread.
//!
//! Because every wave runs against the shared store, even requests
//! that miss the dedupe window are answered from cache at
//! near-zero cost — dedupe and batching save redundant *in-flight*
//! work; the store saves redundant *repeated* work.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use mpvar_core::experiments::ExperimentContext;
use mpvar_study::{context_fingerprint, ArtifactId, ArtifactStore, Study};
use mpvar_trace::names;

use crate::progress::{JobEvent, ProgressRouter};
use crate::protocol::{AnalysisRequest, RenderedArtifact};
use crate::telemetry::{RequestOutcome, ServeStats, ServeTelemetry};

/// A submitted job: its cache identity and its event stream (zero or
/// more [`JobEvent::Progress`], then one [`JobEvent::Done`]).
#[derive(Debug)]
pub(crate) struct JobHandle {
    /// Context fingerprint the job was grouped under.
    pub fingerprint: u64,
    /// Event stream for this job.
    pub events: Receiver<JobEvent>,
}

struct Waiter {
    artifacts: Vec<ArtifactId>,
    tx: Sender<JobEvent>,
    submitted: Instant,
    deduped: bool,
}

struct PendingJob {
    ctx: ExperimentContext,
    progress: bool,
    waiter: Waiter,
}

struct RunningWave {
    label: String,
    artifacts: BTreeSet<ArtifactId>,
    waiters: Vec<Waiter>,
}

#[derive(Default)]
struct WaveState {
    running: Option<RunningWave>,
    pending: Vec<PendingJob>,
    pending_artifacts: BTreeSet<ArtifactId>,
}

#[derive(Default)]
struct DispatchCounters {
    requests: AtomicU64,
    deduped: AtomicU64,
    batched: AtomicU64,
    materializations: AtomicU64,
}

/// The serve-side scheduler. Cheap to share (`Arc`); every method
/// takes `&self`.
pub struct Dispatcher {
    store: Arc<dyn ArtifactStore>,
    router: Arc<ProgressRouter>,
    waves: Mutex<HashMap<u64, WaveState>>,
    counters: DispatchCounters,
    telemetry: ServeTelemetry,
    wave_seq: AtomicU64,
    active: Mutex<usize>,
    idle: Condvar,
}

impl Dispatcher {
    /// A dispatcher materializing into `store` and streaming progress
    /// through `router`.
    pub fn new(store: Arc<dyn ArtifactStore>, router: Arc<ProgressRouter>) -> Self {
        Self {
            store,
            router,
            waves: Mutex::new(HashMap::new()),
            counters: DispatchCounters::default(),
            telemetry: ServeTelemetry::new(),
            wave_seq: AtomicU64::new(0),
            active: Mutex::new(0),
            idle: Condvar::new(),
        }
    }

    /// The shared artifact store waves materialize into.
    pub fn store(&self) -> &Arc<dyn ArtifactStore> {
        &self.store
    }

    /// The progress router waves are labelled for.
    pub fn router(&self) -> &Arc<ProgressRouter> {
        &self.router
    }

    /// Accepts a request: joins a running wave, joins the pending
    /// wave, or starts a new one.
    ///
    /// # Errors
    ///
    /// A description when the request's context cannot be built.
    pub(crate) fn submit(self: &Arc<Self>, request: &AnalysisRequest) -> Result<JobHandle, String> {
        let ctx = request.context.build().map_err(|e| {
            self.telemetry.record_error();
            format!("invalid context: {e}")
        })?;
        let fingerprint = context_fingerprint(&ctx);
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        mpvar_trace::counter_add(names::SERVE_REQUESTS, 1);

        let (tx, rx) = channel();
        let mut waiter = Waiter {
            artifacts: request.artifacts.clone(),
            tx: tx.clone(),
            submitted: Instant::now(),
            deduped: false,
        };

        let mut waves = self.waves.lock().expect("dispatcher waves lock poisoned");
        let state = waves.entry(fingerprint).or_default();

        if let Some(running) = &mut state.running {
            let covered = request
                .artifacts
                .iter()
                .all(|a| running.artifacts.contains(a));
            if covered {
                // Dedupe: ride the in-flight materialization.
                if request.progress {
                    self.router.attach(&running.label, tx);
                }
                waiter.deduped = true;
                running.waiters.push(waiter);
                self.counters.deduped.fetch_add(1, Ordering::Relaxed);
                mpvar_trace::counter_add(names::SERVE_DEDUPED, 1);
            } else {
                // Batch: merge into the pending wave behind it.
                if !state.pending.is_empty() {
                    self.counters.batched.fetch_add(1, Ordering::Relaxed);
                    mpvar_trace::counter_add(names::SERVE_BATCHED, 1);
                }
                state.pending_artifacts.extend(request.artifacts.iter());
                state.pending.push(PendingJob {
                    ctx,
                    progress: request.progress,
                    waiter,
                });
            }
            return Ok(JobHandle {
                fingerprint,
                events: rx,
            });
        }

        // Cold: start a wave for this request alone.
        let label = self.next_label();
        if request.progress {
            self.router.attach(&label, tx);
        }
        state.running = Some(RunningWave {
            label: label.clone(),
            artifacts: request.artifacts.iter().copied().collect(),
            waiters: vec![waiter],
        });
        drop(waves);

        {
            let mut active = self.active.lock().expect("dispatcher active lock poisoned");
            *active += 1;
        }
        let dispatcher = Arc::clone(self);
        std::thread::Builder::new()
            .name(label.clone())
            .spawn(move || {
                let _guard = WaveThreadGuard {
                    dispatcher: &dispatcher,
                    fingerprint,
                };
                dispatcher.run_waves(fingerprint, ctx, label);
            })
            .expect("spawn wave thread");

        Ok(JobHandle {
            fingerprint,
            events: rx,
        })
    }

    /// Live counters under their canonical `serve.*` names.
    pub(crate) fn stats_snapshot(&self) -> BTreeMap<String, u64> {
        BTreeMap::from([
            (
                names::SERVE_REQUESTS.to_string(),
                self.counters.requests.load(Ordering::Relaxed),
            ),
            (
                names::SERVE_DEDUPED.to_string(),
                self.counters.deduped.load(Ordering::Relaxed),
            ),
            (
                names::SERVE_BATCHED.to_string(),
                self.counters.batched.load(Ordering::Relaxed),
            ),
            (
                names::SERVE_MATERIALIZATIONS.to_string(),
                self.counters.materializations.load(Ordering::Relaxed),
            ),
        ])
    }

    /// The full enriched stats payload: the counters of
    /// [`Dispatcher::stats_snapshot`] plus the telemetry's gauges,
    /// per-outcome latency quantiles, and snapshot-window ring.
    pub(crate) fn full_stats(&self) -> ServeStats {
        self.telemetry.snapshot(self.stats_snapshot())
    }

    /// Blocks until no wave is running (or the timeout passes);
    /// returns whether the dispatcher went idle.
    pub(crate) fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut active = self.active.lock().expect("dispatcher active lock poisoned");
        while *active > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .idle
                .wait_timeout(active, deadline - now)
                .expect("dispatcher active lock poisoned");
            active = guard;
        }
        true
    }

    fn next_label(&self) -> String {
        format!("wave-{}", self.wave_seq.fetch_add(1, Ordering::Relaxed))
    }

    /// Materializes and renders one wave's artifacts, classifying the
    /// wave for telemetry: a wave that computed nothing was answered
    /// entirely by the store (warm), anything else is cold. Dedupe
    /// joiners are tagged on their waiter instead.
    fn materialize(
        &self,
        ctx: &ExperimentContext,
        label: &str,
        artifacts: &[ArtifactId],
    ) -> (
        Result<BTreeMap<ArtifactId, RenderedArtifact>, String>,
        RequestOutcome,
    ) {
        let study = Study::with_store(ctx.clone(), Arc::clone(&self.store)).with_span_label(label);
        let rendered = study
            .materialize(artifacts)
            .map(|values| {
                artifacts
                    .iter()
                    .zip(values)
                    .map(|(id, value)| {
                        let art = value.render();
                        (
                            *id,
                            RenderedArtifact {
                                id: art.id,
                                text: art.text,
                                csv: art.csv,
                            },
                        )
                    })
                    .collect()
            })
            .map_err(|e| e.to_string());
        let outcome = if study.session_stats().computed == 0 {
            RequestOutcome::WarmHit
        } else {
            RequestOutcome::Cold
        };
        (rendered, outcome)
    }

    /// Drops `fingerprint`'s wave state and answers every waiter, running
    /// or pending, with an error: the wave thread serving them is gone.
    /// Runs inside a `Drop` during unwinding, so it must not panic: it
    /// leaves the dead wave's progress route in place rather than take
    /// the router's lock, whose poisoning would abort the process.
    fn abandon(&self, fingerprint: u64) {
        let state = self
            .waves
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&fingerprint);
        let Some(state) = state else { return };
        let running = state.running.into_iter().flat_map(|r| r.waiters);
        for waiter in running.chain(state.pending.into_iter().map(|job| job.waiter)) {
            self.telemetry.record_error();
            let _ = waiter
                .tx
                .send(JobEvent::Done(Err("wave thread panicked".to_string())));
        }
    }

    /// Runs the claimed wave, then keeps promoting the pending wave of
    /// the same fingerprint until none is left.
    fn run_waves(&self, fingerprint: u64, mut ctx: ExperimentContext, mut label: String) {
        loop {
            self.counters
                .materializations
                .fetch_add(1, Ordering::Relaxed);
            mpvar_trace::counter_add(names::SERVE_MATERIALIZATIONS, 1);

            let artifacts: Vec<ArtifactId> = {
                let waves = self.waves.lock().expect("dispatcher waves lock poisoned");
                let running = waves
                    .get(&fingerprint)
                    .and_then(|s| s.running.as_ref())
                    .expect("running wave state");
                running.artifacts.iter().copied().collect()
            };

            // A panicking materialization answers this wave's waiters
            // with an error instead of taking the wave thread down.
            let (rendered, wave_outcome) = match catch_unwind(AssertUnwindSafe(|| {
                self.materialize(&ctx, &label, &artifacts)
            })) {
                Ok(done) => done,
                Err(payload) => (
                    Err(format!(
                        "wave panicked: {}",
                        panic_message(payload.as_ref())
                    )),
                    RequestOutcome::Cold,
                ),
            };

            // Drain this wave's waiters and promote the pending wave
            // under one lock, so a dedupe join can never slip between
            // "wave done" and "waiters answered".
            let (waiters, next) = {
                let mut waves = self.waves.lock().expect("dispatcher waves lock poisoned");
                let state = waves.get_mut(&fingerprint).expect("wave state");
                let finished = state.running.take().expect("running wave state");
                let next = if state.pending.is_empty() {
                    waves.remove(&fingerprint);
                    None
                } else {
                    let jobs = std::mem::take(&mut state.pending);
                    let artifacts = std::mem::take(&mut state.pending_artifacts);
                    let next_label = self.next_label();
                    let next_ctx = jobs[0].ctx.clone();
                    let mut waiters = Vec::with_capacity(jobs.len());
                    for job in jobs {
                        if job.progress {
                            self.router.attach(&next_label, job.waiter.tx.clone());
                        }
                        waiters.push(job.waiter);
                    }
                    state.running = Some(RunningWave {
                        label: next_label.clone(),
                        artifacts,
                        waiters,
                    });
                    Some((next_ctx, next_label))
                };
                (finished.waiters, next)
            };
            self.router.clear(&label);

            for waiter in waiters {
                let answer = match &rendered {
                    Ok(map) => Ok(waiter
                        .artifacts
                        .iter()
                        .map(|id| map[id].clone())
                        .collect::<Vec<_>>()),
                    Err(message) => Err(message.clone()),
                };
                // Latency is submit → answer, queueing included: it is
                // the latency the *client* experienced.
                match &answer {
                    Ok(_) => self.telemetry.record(
                        if waiter.deduped {
                            RequestOutcome::Deduped
                        } else {
                            wave_outcome
                        },
                        waiter.submitted.elapsed(),
                    ),
                    Err(_) => self.telemetry.record_error(),
                }
                // A waiter that hung up just misses its answer.
                let _ = waiter.tx.send(JobEvent::Done(answer));
            }

            match next {
                Some((next_ctx, next_label)) => {
                    ctx = next_ctx;
                    label = next_label;
                }
                None => return,
            }
        }
    }
}

/// Held by a wave thread for its whole life: on the way out, however
/// the thread ends, it decrements the active-wave count. A thread that
/// is unwinding also abandons its fingerprint's wave state, so no
/// waiter, later request or [`Dispatcher::wait_idle`] waits on a wave
/// that will never finish.
struct WaveThreadGuard<'a> {
    dispatcher: &'a Dispatcher,
    fingerprint: u64,
}

impl Drop for WaveThreadGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.dispatcher.abandon(self.fingerprint);
        }
        let mut active = self
            .dispatcher
            .active
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *active -= 1;
        self.dispatcher.idle.notify_all();
    }
}

/// The message of a caught panic payload.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ContextSpec, Preset};
    use mpvar_study::{ArtifactValue, CacheKey, MemoryStore, StoreStats};
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc::RecvTimeoutError;
    use std::sync::Barrier;

    /// A memory store whose first `put` panics, standing in for any
    /// panic inside a wave's materialization. That `put` first meets the
    /// test at `release`, so the test can queue waiters behind the wave.
    #[derive(Debug)]
    struct PanicOnFirstPut {
        inner: MemoryStore,
        tripped: AtomicBool,
        release: Barrier,
    }

    impl ArtifactStore for PanicOnFirstPut {
        fn get(&self, key: CacheKey) -> Option<Arc<ArtifactValue>> {
            self.inner.get(key)
        }

        fn put(&self, key: CacheKey, value: Arc<ArtifactValue>) -> Arc<ArtifactValue> {
            if !self.tripped.swap(true, Ordering::SeqCst) {
                self.release.wait();
                panic!("store put failed");
            }
            self.inner.put(key, value)
        }

        fn contains(&self, key: CacheKey) -> bool {
            self.inner.contains(key)
        }

        fn evict(&self, key: CacheKey) -> bool {
            self.inner.evict(key)
        }

        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
    }

    fn quick_request(id: &str, artifacts: Vec<ArtifactId>) -> AnalysisRequest {
        AnalysisRequest {
            id: id.to_string(),
            artifacts,
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

    fn dispatcher() -> Arc<Dispatcher> {
        Arc::new(Dispatcher::new(
            Arc::new(MemoryStore::new()),
            Arc::new(ProgressRouter::new()),
        ))
    }

    fn done_of(handle: &JobHandle) -> Result<Vec<RenderedArtifact>, String> {
        loop {
            match handle.events.recv_timeout(Duration::from_secs(120)) {
                Ok(JobEvent::Done(answer)) => return answer,
                Ok(JobEvent::Progress(_)) => continue,
                Err(RecvTimeoutError::Timeout) => panic!("job timed out"),
                Err(RecvTimeoutError::Disconnected) => panic!("job channel closed without Done"),
            }
        }
    }

    #[test]
    fn answers_each_waiter_with_its_own_artifacts_in_request_order() {
        let dispatcher = dispatcher();
        let a = dispatcher
            .submit(&quick_request(
                "a",
                vec![ArtifactId::Table3, ArtifactId::Table1],
            ))
            .expect("submit a");
        let b = dispatcher
            .submit(&quick_request("b", vec![ArtifactId::Table1]))
            .expect("submit b");
        let got_a = done_of(&a).expect("a succeeds");
        let got_b = done_of(&b).expect("b succeeds");
        assert_eq!(
            got_a.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            ["table3", "table1"]
        );
        assert_eq!(
            got_b.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            ["table1"]
        );
        // Same artifact answered to both waves must render identically
        // (second wave is a pure cache replay of the shared store).
        let a_table1 = got_a.iter().find(|r| r.id == "table1").expect("table1");
        assert_eq!(a_table1, &got_b[0]);
        assert!(dispatcher.wait_idle(Duration::from_secs(60)));
        let stats = dispatcher.stats_snapshot();
        assert_eq!(stats[names::SERVE_REQUESTS], 2);
    }

    #[test]
    fn a_panicking_wave_answers_with_an_error_and_frees_its_fingerprint() {
        let store = Arc::new(PanicOnFirstPut {
            inner: MemoryStore::new(),
            tripped: AtomicBool::new(false),
            release: Barrier::new(2),
        });
        let dispatcher = Arc::new(Dispatcher::new(
            Arc::clone(&store) as Arc<dyn ArtifactStore>,
            Arc::new(ProgressRouter::new()),
        ));
        let first = dispatcher
            .submit(&quick_request("first", vec![ArtifactId::Table1]))
            .expect("submit first");
        let joiner = dispatcher
            .submit(&quick_request("joiner", vec![ArtifactId::Table1]))
            .expect("submit joiner");
        let pending = dispatcher
            .submit(&quick_request("pending", vec![ArtifactId::Table3]))
            .expect("submit pending");
        store.release.wait();

        let err = done_of(&first).expect_err("the panicking wave must answer with an error");
        assert!(err.contains("store put failed"), "{err}");
        assert!(
            done_of(&joiner).is_err(),
            "a deduped waiter shares the error"
        );
        // The pending wave behind it is promoted and runs normally.
        assert_eq!(done_of(&pending).expect("pending succeeds")[0].id, "table3");
        assert!(dispatcher.wait_idle(Duration::from_secs(60)));
        assert_eq!(dispatcher.stats_snapshot()[names::SERVE_DEDUPED], 1);

        // The fingerprint is free again: a retry runs a fresh wave.
        let retry = dispatcher
            .submit(&quick_request("retry", vec![ArtifactId::Table1]))
            .expect("submit retry");
        let got = done_of(&retry).expect("the retry succeeds");
        assert_eq!(got[0].id, "table1");
        assert!(dispatcher.wait_idle(Duration::from_secs(60)));
    }

    #[test]
    fn progress_flag_without_a_collector_still_delivers_done() {
        // Tracing is off (no collector installed in this test), so a
        // progress=true job must get zero progress events but still
        // its Done — progress is observational, never load-bearing.
        let dispatcher = dispatcher();
        let mut request = quick_request("p", vec![ArtifactId::Table1]);
        request.progress = true;
        let handle = dispatcher.submit(&request).expect("submit");
        match handle.events.recv_timeout(Duration::from_secs(120)) {
            Ok(JobEvent::Done(answer)) => {
                let artifacts = answer.expect("job succeeds");
                assert_eq!(artifacts.len(), 1);
                assert_eq!(artifacts[0].id, "table1");
            }
            other => panic!("expected Done first, got {other:?}"),
        }
        assert!(dispatcher.wait_idle(Duration::from_secs(60)));
        assert_eq!(
            dispatcher.stats_snapshot()[names::SERVE_MATERIALIZATIONS],
            1
        );
    }
}
