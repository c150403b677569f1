//! Deterministic parallel execution for `mpvar`.
//!
//! Every hot path in the workspace — Monte-Carlo trial farming, the
//! ±3σ corner search, and the experiment matrix — is embarrassingly
//! parallel, but the reproduction contract demands *bit-identical
//! results for a given seed regardless of thread count or scheduling*.
//! This crate provides the small set of primitives that make both true
//! at once:
//!
//! * [`ExecConfig`] — the single thread-count knob, threaded through
//!   `McConfig` and `ExperimentContext` in `mpvar-core`;
//! * [`par_map_indexed`] / [`try_par_map_indexed`] — map a function
//!   over an indexed domain, with results placed by index so the
//!   output never depends on scheduling;
//! * [`try_par_map_range`] — the same over an index range, used to
//!   farm RNG-substream indices in chunks;
//! * [`try_par_chunk_map`] — the one fork-join under all of them: the
//!   caller and its helper threads claim whole chunks of the domain;
//! * [`dispatch_rounds`] — the round-based dispatch engine shared by
//!   the Monte-Carlo farm and the adaptive yield controller: the
//!   caller sizes each round from folded state, the driver farms it
//!   out and folds outcomes back in global index order;
//! * [`chunk_ranges`] — the fixed partition every map claims from.
//!
//! # Determinism contract
//!
//! All primitives guarantee: for a pure `f`, the returned vector equals
//! the sequential `(0..n).map(f).collect()`. A parallel map cuts `0..n`
//! into [`chunk_ranges`]`(n)`, a partition that depends on `n` alone,
//! and places each chunk's results by chunk index: neither the thread
//! count nor which thread claimed which chunk can move a result or
//! change the ranges `f` sees. For fallible maps the *lowest-index*
//! error is returned, matching what a sequential loop would have hit
//! first. `threads == 1` runs `f(0..n)` inline on the calling thread
//! with zero overhead.
//!
//! # The thread budget
//!
//! A top-level map (one called outside any chunk) owns a budget of
//! `threads` slots, each the right to run chunk code; the calling
//! thread holds one. The map starts up to `threads - 1` helper
//! threads that wait for a free slot and then claim chunks from an
//! atomic counter alongside the caller until none are left. A map
//! called from inside a chunk borrows the enclosing budget rather
//! than making its own (its own `threads` only picks the inline path
//! when it is 1), so at no instant do more than `threads` threads run
//! chunk code, however deep the maps nest. A thread waiting for its
//! helpers lends its slot out and waits for a free one before it goes
//! on, so a map that starts after a sibling chunk has finished gets
//! the idle core. Slots are given back by drop guards, so a panicking
//! chunk cannot shrink the budget; the panic reaches the caller once
//! every claimed chunk has finished.
//!
//! The same ownership discipline extends to solver state: the compiled
//! SPICE kernel's per-netlist workspaces (symbolic LU analysis, CSR
//! values, stamp programs) are created *inside* each trial's closure,
//! so every worker owns its workspaces outright — nothing numeric is
//! shared or aliased across threads, which is why the kernel's
//! preallocated buffers never need locks and thread count cannot
//! perturb results.
//!
//! # Observability
//!
//! When an `mpvar-trace` collector is installed, every map emits an
//! `exec_par_map` span whose `workers` field is the number of threads
//! it could use (`min(budget, chunks)`, 1 inline), with one
//! `exec_chunk` child per chunk (explicitly parented, since helpers
//! start with an empty span stack), plus an `exec.chunks` counter.
//! Instrumentation only observes — chunk boundaries and result
//! placement are unchanged, so traced runs stay bit-identical to
//! untraced ones.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::any::Any;
use std::cell::RefCell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use mpvar_trace::{names, SpanGuard, SpanId};

/// Thread-count configuration for the parallel execution layer.
///
/// `None` (the default) uses every core the OS reports;
/// `Some(1)` recovers the exact sequential code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecConfig {
    /// Worker-thread count; `None` means [`available_parallelism`].
    pub threads: Option<usize>,
}

impl Default for ExecConfig {
    /// Use all available cores.
    fn default() -> Self {
        Self { threads: None }
    }
}

impl ExecConfig {
    /// The strictly sequential configuration (`threads = Some(1)`).
    pub const SERIAL: Self = Self { threads: Some(1) };

    /// A configuration pinned to `threads` workers (0 is clamped to 1).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: Some(threads.max(1)),
        }
    }

    /// The number of workers this configuration resolves to.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(available_parallelism).max(1)
    }
}

/// The OS-reported core count (1 when unavailable).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// The number of chunks a parallel map is cut into, whatever its
/// thread count: enough for claiming to even out unequal chunk costs.
const CHUNKS: usize = 16;

/// Chunk lengths are multiples of this wherever `n` allows: the formula
/// route prints eight draws per pass and a chunk's shorter tail one
/// draw at a time.
const LANES: usize = 8;

/// The fixed partition of `0..n` that every parallel map claims from:
/// at most 16 contiguous, non-empty ranges of near-equal length, in
/// order.
///
/// It depends on `n` alone. Below 128 indices every chunk is one
/// index or a near-equal share; from 128 on, every chunk but the last
/// is a whole number of eight-index lanes and the last also takes the
/// `n % 8` tail.
pub fn chunk_ranges(n: usize) -> Vec<Range<usize>> {
    let unit = if n >= CHUNKS * LANES { LANES } else { 1 };
    let units = n / unit;
    let chunks = CHUNKS.min(units);
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = if c + 1 == chunks {
            n - start
        } else {
            (units / chunks + usize::from(c < units % chunks)) * unit
        };
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Maps `f` over `items` on `threads` workers; results are in item
/// order, exactly as the sequential map would produce them.
pub fn par_map_indexed<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(usize, &T) -> U + Sync,
{
    try_par_map_indexed(items, threads, |i, item| {
        Ok::<U, std::convert::Infallible>(f(i, item))
    })
    .unwrap_or_else(|e| match e {})
}

/// Maps a fallible `f` over `items` on `threads` workers.
///
/// On success results are in item order. On failure the error with the
/// *lowest item index* is returned — the same error a sequential loop
/// would have surfaced first — regardless of which worker finished
/// first. Chunks claimed before the failure still run their items; `f`
/// must therefore be side-effect free (it is in every mpvar hot path).
///
/// # Errors
///
/// The lowest-index error produced by `f`.
pub fn try_par_map_indexed<T, U, F, E>(items: &[T], threads: usize, f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(usize, &T) -> Result<U, E> + Sync,
{
    try_par_map_range(items.len(), threads, |i| f(i, &items[i]))
}

/// Maps a fallible `f` over the index range `0..n` on `threads`
/// workers, with the same ordering and error guarantees as
/// [`try_par_map_indexed`].
///
/// This is the substream-farming primitive: Monte-Carlo trial `k` maps
/// to RNG substream `k`, so handing `f` raw indices keeps the sample
/// vector bit-identical to the sequential run for any thread count.
///
/// # Errors
///
/// The lowest-index error produced by `f`.
pub fn try_par_map_range<U, F, E>(n: usize, threads: usize, f: F) -> Result<Vec<U>, E>
where
    U: Send,
    E: Send,
    F: Fn(usize) -> Result<U, E> + Sync,
{
    try_par_chunk_map(n, threads, |range| range.map(&f).collect())
}

/// Maps a fallible *chunk* function over the index range `0..n` on
/// `threads` workers: `f` receives whole chunks of the [`chunk_ranges`]
/// partition (or all of `0..n` when `threads == 1`) and returns one
/// result per index.
///
/// This is the batched-solver dispatch primitive: handing a worker a
/// whole chunk at once lets it run the indices through shared
/// per-chunk state (a reusable solver workspace, sub-batched SIMD
/// lanes) instead of paying per-index setup. The calling thread and
/// its helpers claim chunks in index order from one counter, and
/// results are placed by chunk index, so output placement never
/// depends on scheduling — what `f` computes per index is the caller's
/// determinism obligation. A map called from inside a chunk shares the
/// enclosing map's thread budget (see the crate docs).
/// [`try_par_map_range`] is this map with a per-index `f`.
///
/// # Panics
///
/// Panics if a chunk's returned vector does not have exactly one
/// element per index of its range, and re-raises the first panic of
/// any chunk once every claimed chunk has finished.
///
/// # Errors
///
/// The error of the earliest (lowest-range) failed chunk. Chunks not
/// yet claimed when a chunk fails are skipped: they all lie after it.
pub fn try_par_chunk_map<U, F, E>(n: usize, threads: usize, f: F) -> Result<Vec<U>, E>
where
    U: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<Vec<U>, E> + Sync,
{
    let threads = threads.max(1);
    let inherited = if threads > 1 {
        BUDGET.with(|b| b.borrow().clone())
    } else {
        None
    };
    let ranges = if threads > 1 {
        chunk_ranges(n)
    } else {
        Vec::new()
    };
    let workers = if ranges.len() > 1 {
        inherited
            .as_ref()
            .map_or(threads, |b| b.size)
            .min(ranges.len())
    } else {
        1
    };
    let traced = mpvar_trace::enabled();
    let map_span = mpvar_trace::span!(
        names::SPAN_EXEC_PAR_MAP,
        n = n,
        threads = threads,
        workers = workers
    );
    if n == 0 {
        return Ok(Vec::new());
    }
    if workers == 1 {
        let out = f(0..n)?;
        assert_eq!(out.len(), n, "chunk map must return one result per index");
        return Ok(out);
    }

    let (budget, _top_level) = match inherited {
        Some(budget) => (budget, None),
        None => (Budget::install(threads), Some(TopLevel)),
    };
    if traced {
        mpvar_trace::counter_add(names::EXEC_CHUNKS, ranges.len() as u64);
    }
    let work = Work {
        results: ranges.iter().map(|_| Mutex::new(None)).collect(),
        ranges,
        next: AtomicUsize::new(0),
        helping: AtomicUsize::new(0),
        panic: Mutex::new(None),
        f: &f,
        parent: map_span.id(),
        traced,
    };
    let lent = std::thread::scope(|scope| {
        for _ in 1..workers {
            let (budget, work) = (&budget, &work);
            scope.spawn(move || {
                if let Some(_slot) = budget.helper_slot(|| work.exhausted()) {
                    BUDGET.with(|b| *b.borrow_mut() = Some(Arc::clone(budget)));
                    work.helping.fetch_add(1, Ordering::SeqCst);
                    work.claim_all(Some(budget));
                    work.helping.fetch_sub(1, Ordering::SeqCst);
                }
            });
        }
        work.claim_all(None);
        // Every chunk is claimed. While a helper still runs one, lend
        // the slot out and take one back before going on; either way
        // wake the helpers still waiting for a slot to let them exit.
        if work.helping.load(Ordering::SeqCst) > 0 {
            Some(Lent::new(&budget))
        } else {
            budget.wake();
            None
        }
    });
    drop(lent);

    if let Some(payload) = work
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
    {
        resume_unwind(payload);
    }
    // Chunks are in index order, so the first failed chunk is the
    // earliest failure, and every chunk before it has run.
    let mut out = Vec::with_capacity(n);
    for result in work.results {
        let result = result.into_inner().unwrap_or_else(PoisonError::into_inner);
        out.extend(result.expect("chunks are skipped only after an earlier chunk failed")?);
    }
    Ok(out)
}

thread_local! {
    /// The budget of the map whose chunks this thread runs, if any.
    static BUDGET: RefCell<Option<Arc<Budget>>> = const { RefCell::new(None) };
}

/// Locks `mutex`; no code panics while holding one of this crate's
/// locks, so a poisoned lock still holds consistent data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One top-level map's thread budget: `size` slots, each the right to
/// run chunk code.
struct Budget {
    size: usize,
    slots: Mutex<Slots>,
    changed: Condvar,
}

/// The mutable half of a [`Budget`].
struct Slots {
    /// Slots no thread holds.
    free: usize,
    /// Threads back from a join and waiting for a slot; they go before
    /// helpers that have not started.
    resuming: usize,
}

impl Budget {
    /// A budget of `size` slots, one held by the calling thread, which
    /// inherits it for the rest of its map ([`TopLevel`] removes it).
    fn install(size: usize) -> Arc<Self> {
        let budget = Arc::new(Self {
            size,
            slots: Mutex::new(Slots {
                free: size - 1,
                resuming: 0,
            }),
            changed: Condvar::new(),
        });
        BUDGET.with(|b| *b.borrow_mut() = Some(Arc::clone(&budget)));
        budget
    }

    /// Waits for a slot for a helper; `None` once `exhausted` says its
    /// map has no chunk left to claim.
    fn helper_slot(self: &Arc<Self>, exhausted: impl Fn() -> bool) -> Option<Slot> {
        let mut slots = lock(&self.slots);
        loop {
            if exhausted() {
                return None;
            }
            if slots.free > slots.resuming {
                slots.free -= 1;
                return Some(Slot(Arc::clone(self)));
            }
            slots = self
                .changed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Takes a slot for a thread going on after a join.
    fn resume(&self) {
        let mut slots = lock(&self.slots);
        slots.resuming += 1;
        while slots.free == 0 {
            slots = self
                .changed
                .wait(slots)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slots.resuming -= 1;
        slots.free -= 1;
    }

    /// Whether a thread back from a join waits for a slot.
    fn resumer_waiting(&self) -> bool {
        lock(&self.slots).resuming > 0
    }

    /// Returns a slot and wakes every waiter.
    fn give(&self) {
        lock(&self.slots).free += 1;
        self.changed.notify_all();
    }

    /// Wakes every waiter: helpers also wait to see whether their map
    /// has run out of chunks, which is not a change of `slots`.
    fn wake(&self) {
        drop(lock(&self.slots));
        self.changed.notify_all();
    }
}

/// A helper's slot, given back when dropped.
struct Slot(Arc<Budget>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.give();
    }
}

/// A calling thread's slot, lent out while it waits for its helpers
/// and taken back when dropped.
struct Lent<'a>(&'a Budget);

impl<'a> Lent<'a> {
    fn new(budget: &'a Budget) -> Self {
        budget.give();
        Self(budget)
    }
}

impl Drop for Lent<'_> {
    fn drop(&mut self) {
        self.0.resume();
    }
}

/// Removes a top-level map's budget from the calling thread when the
/// map returns or unwinds.
struct TopLevel;

impl Drop for TopLevel {
    fn drop(&mut self) {
        BUDGET.with(|b| b.borrow_mut().take());
    }
}

/// One chunk's result, once a thread has run it.
type ChunkSlot<U, E> = Mutex<Option<Result<Vec<U>, E>>>;

/// One parallel map's shared state.
struct Work<'f, U, E, F> {
    ranges: Vec<Range<usize>>,
    /// The next chunk to claim.
    next: AtomicUsize,
    /// Helpers holding a slot for this map.
    helping: AtomicUsize,
    /// Each chunk's result, by chunk index.
    results: Vec<ChunkSlot<U, E>>,
    /// The first panic of any chunk, re-raised by the caller.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    f: &'f F,
    parent: Option<SpanId>,
    traced: bool,
}

impl<U, E, F> Work<'_, U, E, F>
where
    F: Fn(Range<usize>) -> Result<Vec<U>, E>,
{
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::SeqCst) >= self.ranges.len()
    }

    /// Stops all further claims.
    fn stop(&self) {
        self.next.fetch_max(self.ranges.len(), Ordering::SeqCst);
    }

    /// Claims and runs chunks until none are left, keeping a panic for
    /// the caller. A helper (`borrowed` is its budget) also stops once
    /// a thread back from a join waits for a slot: the map's caller
    /// still claims the rest.
    fn claim_all(&self, borrowed: Option<&Budget>) {
        let claim = || self.claim_loop(borrowed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(claim)) {
            self.stop();
            lock(&self.panic).get_or_insert(payload);
        }
    }

    fn claim_loop(&self, borrowed: Option<&Budget>) {
        loop {
            if borrowed.is_some_and(Budget::resumer_waiting) {
                return;
            }
            let c = self.next.fetch_add(1, Ordering::SeqCst);
            let Some(range) = self.ranges.get(c).cloned() else {
                return;
            };
            let result = self.run(c, range);
            if result.is_err() {
                // Every chunk not yet claimed lies after this one, so
                // its result could only be discarded.
                self.stop();
            }
            *lock(&self.results[c]) = Some(result);
        }
    }

    fn run(&self, c: usize, range: Range<usize>) -> Result<Vec<U>, E> {
        let _chunk_span = if self.traced {
            SpanGuard::enter_with_parent(
                self.parent,
                names::SPAN_EXEC_CHUNK,
                vec![
                    ("chunk", c.into()),
                    ("start", range.start.into()),
                    ("len", range.len().into()),
                ],
            )
        } else {
            SpanGuard::disabled()
        };
        let len = range.len();
        let result = (self.f)(range);
        if let Ok(buf) = &result {
            assert_eq!(buf.len(), len, "chunk map must return one result per index");
        }
        result
    }
}

/// How a [`dispatch_rounds`] loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundsOutcome {
    /// The caller stopped the loop (size callback returned 0, or the
    /// consumer broke) — convergence, or enough accepted samples.
    Converged,
    /// `limit` indices were consumed before the caller stopped.
    Exhausted,
}

/// Drives a *round-based* parallel loop over a global index domain:
/// repeatedly asks the caller how many more indices to run, dispatches
/// that round through [`try_par_chunk_map`], and feeds the outcomes back
/// to the caller **in global index order**.
///
/// This is the shared dispatch engine for the Monte-Carlo farm and the
/// adaptive importance-sampling yield controller. Each iteration:
///
/// 1. `round_size(state, round, consumed)` decides the next round's
///    size from accumulated state (a fixed-deficit wave, a geometric
///    convergence schedule, …). Returning 0 ends the loop as
///    [`RoundsOutcome::Converged`]. The driver clamps the size to the
///    remaining budget; once `limit` indices have been consumed the
///    loop ends as [`RoundsOutcome::Exhausted`].
/// 2. The round `[consumed, consumed + size)` runs on `threads` workers;
///    `eval_chunk` receives contiguous sub-ranges in **global** index
///    coordinates (so index `k` can key RNG substream `k`).
/// 3. `consume(state, outcome)` folds each outcome sequentially in
///    index order; breaking ends the loop as `Converged`.
///
/// Because round boundaries depend only on what `round_size` computes
/// from the folded state — never on scheduling — and outcomes are folded
/// in index order, a pure `eval_chunk` makes the final state
/// bit-identical for any thread count.
///
/// A `span_name` span wraps each round with `round`/`start`/`len`
/// fields (e.g. `mc_wave`, `yield_round`).
///
/// # Errors
///
/// The error of the earliest failed chunk of the failing round.
pub fn dispatch_rounds<St, U, E, S, F, C>(
    state: &mut St,
    span_name: &'static str,
    limit: usize,
    threads: usize,
    mut round_size: S,
    eval_chunk: F,
    mut consume: C,
) -> Result<RoundsOutcome, E>
where
    U: Send,
    E: Send,
    S: FnMut(&mut St, usize, usize) -> usize,
    F: Fn(Range<usize>) -> Result<Vec<U>, E> + Sync,
    C: FnMut(&mut St, U) -> std::ops::ControlFlow<()>,
{
    let mut consumed = 0usize;
    let mut round = 0usize;
    loop {
        let want = round_size(state, round, consumed);
        if want == 0 {
            return Ok(RoundsOutcome::Converged);
        }
        if consumed >= limit {
            return Ok(RoundsOutcome::Exhausted);
        }
        let size = want.min(limit - consumed);
        let _round_span =
            mpvar_trace::span!(span_name, round = round, start = consumed, len = size);
        let base = consumed;
        let outcomes =
            try_par_chunk_map(size, threads, |r| eval_chunk(base + r.start..base + r.end))?;
        consumed += size;
        round += 1;
        for outcome in outcomes {
            if consume(state, outcome).is_break() {
                return Ok(RoundsOutcome::Converged);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for n in [0usize, 1, 7, 16, 17, 64, 127, 128, 1000, 1003] {
            let ranges = chunk_ranges(n);
            let mut next = 0;
            for r in &ranges {
                assert_eq!(r.start, next, "contiguous");
                assert!(!r.is_empty(), "no empty chunks");
                next = r.end;
            }
            assert_eq!(next, n, "covers 0..{n}");
            assert!(ranges.len() <= CHUNKS);
        }
    }

    #[test]
    fn chunk_ranges_shapes() {
        let lens = |n| chunk_ranges(n).iter().map(|r| r.len()).collect::<Vec<_>>();
        assert_eq!(lens(3), vec![1, 1, 1]);
        assert_eq!(lens(18), [vec![2, 2], vec![1; 14]].concat());
        // From 128 on, whole lanes; the last chunk takes the tail.
        assert_eq!(lens(128), vec![8; 16]);
        assert_eq!(lens(1003), [vec![64; 13], vec![56, 56, 59]].concat());
    }

    #[test]
    fn par_map_matches_sequential_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for threads in [1, 2, 3, 8, 17] {
            let got = par_map_indexed(&items, threads, |_, &x| x * x + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_range_passes_indices() {
        let got = try_par_map_range(100, 4, |i| Ok::<usize, ()>(i * 2)).unwrap();
        assert_eq!(got, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn lowest_index_error_wins() {
        // Items 13 and every index 6 mod 7 after it fail; 13 is slow,
        // so later chunks fail first. Index 13 must be reported on
        // every thread count, with single-index and lane chunks.
        for threads in [1, 2, 3, 4, 8] {
            for n in [40usize, 300] {
                let err = try_par_map_range(n, threads, |i| {
                    if i == 13 {
                        for _ in 0..1000 {
                            std::thread::yield_now();
                        }
                        Err(i)
                    } else if i > 13 && i % 7 == 6 {
                        Err(i)
                    } else {
                        Ok(i)
                    }
                })
                .unwrap_err();
                assert_eq!(err, 13, "n = {n}, threads = {threads}");
            }
        }
    }

    #[test]
    fn chunk_map_matches_per_index_map_any_thread_count() {
        let expect: Vec<usize> = (0..103).map(|i| i * 3 + 1).collect();
        for threads in [1, 2, 4, 7] {
            let got = try_par_chunk_map(103, threads, |r| {
                Ok::<_, ()>(r.map(|i| i * 3 + 1).collect())
            })
            .unwrap();
            assert_eq!(got, expect, "threads = {threads}");
        }
        assert_eq!(
            try_par_chunk_map::<u8, _, ()>(0, 4, |_| unreachable!()).unwrap(),
            Vec::<u8>::new()
        );
    }

    #[test]
    fn chunk_map_earliest_chunk_error_wins() {
        for threads in [1, 2, 4] {
            let err = try_par_chunk_map::<usize, _, usize>(100, threads, |r| {
                if r.contains(&10) {
                    Err(10)
                } else if r.contains(&90) {
                    Err(90)
                } else {
                    Ok(r.collect())
                }
            })
            .unwrap_err();
            assert_eq!(err, 10, "threads = {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "one result per index")]
    fn chunk_map_rejects_short_chunks() {
        let _ = try_par_chunk_map::<usize, _, ()>(10, 1, |_| Ok(vec![1]));
    }

    #[test]
    fn dispatch_rounds_state_identical_across_thread_counts() {
        // Accumulate squares until the sum crosses a threshold; the
        // folded state and outcome must not depend on the thread count.
        let run = |threads: usize| {
            let mut sums: Vec<u64> = Vec::new();
            let outcome = dispatch_rounds(
                &mut sums,
                "test_round",
                10_000,
                threads,
                |sums, _round, _consumed| if sums.len() >= 500 { 0 } else { 64 },
                |r| Ok::<_, ()>(r.map(|i| (i * i) as u64).collect()),
                |sums, v| {
                    sums.push(v);
                    std::ops::ControlFlow::Continue(())
                },
            )
            .unwrap();
            (outcome, sums)
        };
        let (outcome1, state1) = run(1);
        assert_eq!(outcome1, RoundsOutcome::Converged);
        assert_eq!(state1.len(), 512); // 8 rounds of 64
        assert_eq!(state1[5], 25);
        for threads in [2, 4, 8] {
            assert_eq!(
                run(threads),
                (outcome1, state1.clone()),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn dispatch_rounds_consumer_break_and_exhaustion() {
        // Break mid-round at exactly 10 accepted outcomes.
        let mut seen = 0usize;
        let outcome = dispatch_rounds(
            &mut seen,
            "test_round",
            1_000,
            2,
            |_, _, _| 32,
            |r| Ok::<_, ()>(r.collect()),
            |seen, _| {
                *seen += 1;
                if *seen == 10 {
                    std::ops::ControlFlow::Break(())
                } else {
                    std::ops::ControlFlow::Continue(())
                }
            },
        )
        .unwrap();
        assert_eq!(outcome, RoundsOutcome::Converged);
        assert_eq!(seen, 10);

        // Never-converging size callback exhausts the limit exactly.
        let mut total = 0usize;
        let outcome = dispatch_rounds(
            &mut total,
            "test_round",
            100,
            3,
            |_, _, _| 64,
            |r| Ok::<_, ()>(r.collect()),
            |total, _| {
                *total += 1;
                std::ops::ControlFlow::Continue(())
            },
        )
        .unwrap();
        assert_eq!(outcome, RoundsOutcome::Exhausted);
        assert_eq!(total, 100, "rounds clamp to the remaining budget");
    }

    #[test]
    fn dispatch_rounds_propagates_chunk_errors() {
        let mut state = ();
        let err = dispatch_rounds(
            &mut state,
            "test_round",
            100,
            2,
            |_, _, _| 50,
            |r| {
                if r.contains(&60) {
                    Err("round 2 failed")
                } else {
                    Ok(r.collect::<Vec<_>>())
                }
            },
            |_, _: usize| std::ops::ControlFlow::Continue(()),
        )
        .unwrap_err();
        assert_eq!(err, "round 2 failed");
    }

    #[test]
    fn exec_config_knobs() {
        assert_eq!(ExecConfig::SERIAL.effective_threads(), 1);
        assert_eq!(ExecConfig::with_threads(0).effective_threads(), 1);
        assert_eq!(ExecConfig::with_threads(6).effective_threads(), 6);
        assert!(ExecConfig::default().effective_threads() >= 1);
    }

    #[test]
    fn empty_domain() {
        let got: Vec<u32> = par_map_indexed::<u32, u32, _>(&[], 4, |_, &x| x);
        assert!(got.is_empty());
        assert_eq!(
            try_par_map_range::<u32, _, ()>(0, 8, |_| unreachable!()).unwrap(),
            Vec::<u32>::new()
        );
    }
}
