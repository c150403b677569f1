//! The executor's scheduling contract: the chunks `f` sees depend on
//! `n` alone, nested maps share one budget of `threads` slots, a map
//! started after a sibling chunk finished borrows the idle core, and a
//! panicking chunk never shrinks the budget. The lowest-index error
//! rule is a unit test in `src/lib.rs`.
//!
//! Tests that need several threads inside chunk code at once wait for
//! them with a spin that fails after [`DEADLINE`] instead of hanging.

use std::collections::HashSet;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

use proptest::prelude::*;

use mpvar_exec::{chunk_ranges, par_map_indexed, try_par_chunk_map};

/// How long a test waits for threads the budget should provide.
const DEADLINE: Duration = Duration::from_secs(30);

/// Spins until `done` holds; panics with `what` after [`DEADLINE`].
fn spin_until(what: &str, done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(start.elapsed() < DEADLINE, "timed out waiting for {what}");
        thread::yield_now();
    }
}

/// The ranges a chunk map hands `f` at `threads`, sorted by start.
fn ranges_seen(n: usize, threads: usize) -> Vec<Range<usize>> {
    let seen = Mutex::new(Vec::new());
    try_par_chunk_map(n, threads, |r| {
        seen.lock().unwrap().push(r.clone());
        Ok::<_, ()>(r.collect::<Vec<_>>())
    })
    .unwrap();
    let mut seen = seen.into_inner().unwrap();
    seen.sort_by_key(|r| r.start);
    seen
}

#[test]
fn ranges_are_identical_at_every_thread_count() {
    for n in [1usize, 2, 5, 16, 17, 100, 127, 128, 129, 1000, 4099] {
        for threads in [1, 2, 3, 4, 8] {
            assert_eq!(
                ranges_seen(n, threads),
                chunk_ranges(n),
                "n = {n}, threads = {threads}"
            );
        }
    }
}

/// Counts threads inside a work section and keeps the high-water mark.
#[derive(Default)]
struct HighWater {
    now: AtomicUsize,
    max: AtomicUsize,
}

impl HighWater {
    fn work(&self) {
        let now = self.now.fetch_add(1, Ordering::SeqCst) + 1;
        self.max.fetch_max(now, Ordering::SeqCst);
        for _ in 0..20 {
            thread::yield_now();
        }
        self.now.fetch_sub(1, Ordering::SeqCst);
    }
}

#[test]
fn maps_nested_three_deep_never_exceed_the_budget() {
    for threads in [2usize, 3, 4, 8] {
        let water = HighWater::default();
        let sums = par_map_indexed(&[0u64; 5], threads, |i, _| {
            water.work();
            let inner = par_map_indexed(&[0u64; 6], threads, |j, _| {
                water.work();
                let leaves = par_map_indexed(&[0u64; 7], threads, |k, _| {
                    water.work();
                    k as u64
                });
                water.work();
                j as u64 + leaves.iter().sum::<u64>()
            });
            i as u64 + inner.iter().sum::<u64>()
        });
        assert_eq!(sums.iter().sum::<u64>(), 10 + 5 * (15 + 6 * 21));
        let max = water.max.load(Ordering::SeqCst);
        assert!(
            max <= threads,
            "{max} threads ran chunk code on a budget of {threads}"
        );
    }
}

#[test]
fn a_one_thread_map_starts_no_helper_at_any_depth() {
    // The nested maps ask for 8 threads; they borrow the one-slot
    // budget instead, so every chunk runs on the calling thread.
    let caller = thread::current().id();
    let on_caller = || assert_eq!(thread::current().id(), caller, "a helper ran a chunk");
    par_map_indexed(&[0u8; 5], 1, |_, _| {
        on_caller();
        par_map_indexed(&[0u8; 40], 8, |_, _| {
            on_caller();
            par_map_indexed(&[0u8; 7], 8, |_, _| on_caller());
        });
    });
}

#[test]
fn nested_map_started_after_its_sibling_finished_gets_the_idle_core() {
    let sibling_done = AtomicBool::new(false);
    let nested_threads = Mutex::new(HashSet::<ThreadId>::new());
    par_map_indexed(&[0u8, 1], 2, |i, _| {
        if i == 1 {
            sibling_done.store(true, Ordering::SeqCst);
            return;
        }
        // Chunk 0 cannot finish before chunk 1 starts, so the two run
        // on different threads; the sibling's thread then has nothing
        // left to claim and gives its slot back.
        spin_until("the sibling chunk", || sibling_done.load(Ordering::SeqCst));
        par_map_indexed(&[0u8; 16], 2, |j, _| {
            nested_threads
                .lock()
                .unwrap()
                .insert(thread::current().id());
            if j == 0 {
                // Only the freed slot can bring a second thread in.
                spin_until("a second thread in the nested map", || {
                    nested_threads.lock().unwrap().len() == 2
                });
            }
        });
    });
    assert_eq!(nested_threads.into_inner().unwrap().len(), 2);
}

/// Fails unless `threads` threads are inside chunk code at once.
fn rendezvous(threads: usize) {
    let arrived = AtomicUsize::new(0);
    par_map_indexed(&vec![0u8; threads], threads, |_, _| {
        arrived.fetch_add(1, Ordering::SeqCst);
        spin_until("the full budget", || {
            arrived.load(Ordering::SeqCst) == threads
        });
    });
}

#[test]
fn a_panicking_chunk_never_shrinks_the_budget() {
    let threads = 3;
    let boom = || {
        par_map_indexed(&[0u8; 9], threads, |i, _| {
            assert!(i != 4, "chunk 4 fails");
        })
    };
    // The panic reaches the top-level caller, whose next map still
    // gets every slot.
    assert!(catch_unwind(AssertUnwindSafe(boom)).is_err());
    rendezvous(threads);

    // A nested map's panic, caught inside its enclosing chunk, leaves
    // the enclosing budget whole too.
    par_map_indexed(&[0u8, 1], threads, |i, _| {
        if i == 0 {
            assert!(catch_unwind(AssertUnwindSafe(boom)).is_err());
            rendezvous(threads);
        }
    });
}

proptest! {
    /// `chunk_ranges` partitions `0..n` exactly into at most 16
    /// contiguous non-empty chunks; from 128 on, every chunk but the
    /// last is whole lanes of 8.
    #[test]
    fn chunk_ranges_partition_exactly(n in 0usize..5000) {
        let ranges = chunk_ranges(n);
        prop_assert!(ranges.len() <= 16);
        let mut cursor = 0usize;
        for r in &ranges {
            prop_assert_eq!(r.start, cursor, "ranges not contiguous");
            prop_assert!(r.end > r.start, "empty range handed out");
            cursor = r.end;
        }
        prop_assert_eq!(cursor, n);
        let lens: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        if let (Some(min), Some(max)) = (lens.iter().min(), lens.iter().max()) {
            if n >= 128 {
                let (body, last) = lens.split_at(lens.len() - 1);
                prop_assert!(body.iter().all(|len| len % 8 == 0), "{lens:?}");
                prop_assert!(last[0] < max + 8, "{lens:?}");
            } else {
                prop_assert!(max - min <= 1, "{lens:?}");
            }
        }
    }
}
