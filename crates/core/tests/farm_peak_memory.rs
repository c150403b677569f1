//! A one-thread Monte-Carlo farm holds no more memory than a
//! two-thread one: every map runs the same chunks at every thread
//! count, so no chunk's staging is sized for the whole trial range.
//! A counting global allocator tracks the high-water mark of live
//! bytes on every thread during a 20,000-trial LE3 distribution.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mpvar_core::montecarlo::{tdp_distribution_with, McConfig};
use mpvar_core::nominal::NominalWindow;
use mpvar_sram::BitcellGeometry;
use mpvar_tech::preset::n10;
use mpvar_tech::{PatterningOption, VariationBudget};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping only touches atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The most bytes live at once while `f` runs, above those live when
/// it started.
fn peak_bytes_in(f: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    f();
    PEAK.load(Ordering::SeqCst) - base
}

#[test]
fn one_thread_farm_peaks_no_higher_than_two() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    let option = PatterningOption::Le3;
    let window = NominalWindow::build(&tech, &cell, option).unwrap();
    let budget = VariationBudget::paper_default(option, 8.0).unwrap();
    let peak_at = |threads: usize| {
        let mc = McConfig::builder()
            .trials(20_000)
            .seed(2015)
            .threads(threads)
            .build();
        let mut samples = 0;
        let peak = peak_bytes_in(|| {
            samples = tdp_distribution_with(&window, &budget, 64, &mc)
                .unwrap()
                .samples_percent()
                .len();
        });
        assert!(samples > 0, "the farm kept no sample at {threads} threads");
        peak
    };
    let (one, two) = (peak_at(1), peak_at(2));
    assert!(
        one * 4 <= two * 5,
        "one thread peaked at {one} B, more than 1.25x the {two} B of two threads"
    );
}
