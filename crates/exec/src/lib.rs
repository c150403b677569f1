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
//!   over an indexed domain on a scoped worker pool, with results
//!   placed by index so the output never depends on scheduling;
//! * [`try_par_map_range`] — the same over an index range, used to
//!   farm RNG-substream indices in chunks;
//! * [`try_par_chunk_map`] — the one fork-join under all of them: each
//!   worker maps its whole contiguous chunk at once;
//! * [`dispatch_rounds`] — the round-based dispatch engine shared by
//!   the Monte-Carlo farm and the adaptive yield controller: the
//!   caller sizes each round from folded state, the driver farms it
//!   out and folds outcomes back in global index order;
//! * [`chunk_ranges`] — the contiguous-chunk partition shared by every
//!   primitive (and mirrored by `mpvar-stats`' substream chunking).
//!
//! # Determinism contract
//!
//! All primitives guarantee: for a pure `f`, the returned vector equals
//! the sequential `(0..n).map(f).collect()` — workers own disjoint
//! contiguous output slices, so no result ever moves between indices.
//! For fallible maps the *lowest-index* error is returned, matching
//! what a sequential loop would have hit first. `threads == 1` runs
//! inline on the calling thread with zero overhead.
//!
//! The pool is a scoped `std::thread` fork-join (no work stealing):
//! chunk boundaries depend only on `(n, threads)`, never on timing.
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
//! `exec_par_map` span with one `exec_chunk` child per worker chunk
//! (explicitly parented, since workers start with an empty span
//! stack), plus an `exec.chunks` counter and an `exec.imbalance` gauge
//! (slowest-chunk wall over mean-chunk wall). Instrumentation only
//! observes — chunk boundaries and result placement are unchanged, so
//! traced runs stay bit-identical to untraced ones.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::num::NonZeroUsize;
use std::ops::Range;

use mpvar_trace::{names, SpanGuard};

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

    /// Splits the budget between an outer loop of `cells` independent
    /// cells and the parallel work inside each cell.
    ///
    /// Returns `(outer_threads, inner_config)` such that
    /// `outer * inner <= effective_threads()` (both at least 1). Cell
    /// results must still be placed by index; because the inner
    /// primitives are bit-identical for *any* thread count, the split
    /// never changes results — it only avoids oversubscription.
    pub fn split(&self, cells: usize) -> (usize, ExecConfig) {
        let total = self.effective_threads();
        let outer = total.min(cells.max(1));
        let inner = (total / outer).max(1);
        (outer, ExecConfig::with_threads(inner))
    }
}

/// The OS-reported core count (1 when unavailable).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Partitions `0..n` into at most `chunks` contiguous ranges of
/// near-equal size (the first `n % chunks` ranges are one longer).
///
/// The partition depends only on `(n, chunks)`, never on timing — it is
/// the unit of work distribution for every primitive in this crate and
/// for RNG-substream farming in `mpvar-stats`.
pub fn chunk_ranges(n: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1).min(n.max(1));
    let base = n / chunks;
    let extra = n % chunks;
    let mut out = Vec::with_capacity(chunks);
    let mut start = 0;
    for c in 0..chunks {
        let len = base + usize::from(c < extra);
        if len == 0 {
            break;
        }
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
/// first. Workers in later chunks may still run their items; `f` must
/// therefore be side-effect free (it is in every mpvar hot path).
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
/// `threads` workers: `f` receives each worker's whole contiguous range
/// (the [`chunk_ranges`] partition) and returns one result per index.
///
/// This is the batched-solver dispatch primitive: handing a worker its
/// entire chunk at once lets it run the indices through shared
/// per-chunk state (a reusable solver workspace, sub-batched SIMD
/// lanes) instead of paying per-index setup. The partition depends
/// only on `(n, threads)` and results are concatenated in chunk order,
/// so output placement never depends on scheduling — what `f` computes
/// per index is the caller's determinism obligation. [`try_par_map_range`]
/// is this map with a per-index `f`.
///
/// # Panics
///
/// Panics if a chunk's returned vector does not have exactly one
/// element per index of its range.
///
/// # Errors
///
/// The error of the earliest (lowest-range) failed chunk.
pub fn try_par_chunk_map<U, F, E>(n: usize, threads: usize, f: F) -> Result<Vec<U>, E>
where
    U: Send,
    E: Send,
    F: Fn(Range<usize>) -> Result<Vec<U>, E> + Sync,
{
    let threads = threads.max(1).min(n.max(1));
    let traced = mpvar_trace::enabled();
    let map_span = mpvar_trace::span!(names::SPAN_EXEC_PAR_MAP, n = n, threads = threads);
    if n == 0 {
        return Ok(Vec::new());
    }
    if threads <= 1 {
        let out = f(0..n)?;
        assert_eq!(out.len(), n, "chunk map must return one result per index");
        return Ok(out);
    }

    type ChunkOutcome<U, E> = (Result<Vec<U>, E>, u64);

    let ranges = chunk_ranges(n, threads);
    let parent = map_span.id();
    let results: Vec<ChunkOutcome<U, E>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .iter()
            .enumerate()
            .map(|(c, range)| {
                let range = range.clone();
                let f = &f;
                scope.spawn(move || {
                    let _chunk_span = if traced {
                        SpanGuard::enter_with_parent(
                            parent,
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
                    let started = traced.then(std::time::Instant::now);
                    let len = range.len();
                    let result = f(range);
                    if let Ok(buf) = &result {
                        assert_eq!(buf.len(), len, "chunk map must return one result per index");
                    }
                    let dur_ns = started.map_or(0, |t| t.elapsed().as_nanos() as u64);
                    (result, dur_ns)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("mpvar-exec worker panicked"))
            .collect()
    });

    if traced {
        mpvar_trace::counter_add(names::EXEC_CHUNKS, results.len() as u64);
        let slowest = results.iter().map(|(_, d)| *d).max().unwrap_or(0) as f64;
        let mean =
            results.iter().map(|(_, d)| *d).sum::<u64>() as f64 / results.len().max(1) as f64;
        if mean > 0.0 {
            mpvar_trace::gauge_set(names::EXEC_IMBALANCE, slowest / mean);
        }
    }

    // Chunks are in index order, so the first failed chunk is the
    // earliest failure.
    let mut out = Vec::with_capacity(n);
    for (result, _) in results {
        out.extend(result?);
    }
    Ok(out)
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
        for n in [0usize, 1, 7, 64, 1000] {
            for chunks in [1usize, 2, 3, 8, 64] {
                let ranges = chunk_ranges(n, chunks);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next, "contiguous");
                    assert!(!r.is_empty(), "no empty chunks");
                    next = r.end;
                }
                assert_eq!(next, n, "covers 0..{n} with {chunks} chunks");
                assert!(ranges.len() <= chunks.max(1));
            }
        }
    }

    #[test]
    fn chunk_ranges_balanced() {
        let ranges = chunk_ranges(10, 4);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        assert_eq!(lens, vec![3, 3, 2, 2]);
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
        // Items 13 and 77 fail; index 13 must be reported on every
        // thread count.
        for threads in [1, 2, 4, 8] {
            let err = try_par_map_range(100, threads, |i| {
                if i == 13 || i == 77 {
                    Err(i)
                } else {
                    Ok(i)
                }
            })
            .unwrap_err();
            assert_eq!(err, 13, "threads = {threads}");
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
    fn split_never_oversubscribes() {
        for total in [1usize, 2, 4, 8, 16] {
            let cfg = ExecConfig::with_threads(total);
            for cells in [1usize, 2, 3, 5, 100] {
                let (outer, inner) = cfg.split(cells);
                assert!(outer >= 1 && inner.effective_threads() >= 1);
                assert!(outer * inner.effective_threads() <= total);
                assert!(outer <= cells.max(1));
            }
        }
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
