//! The formula-route trial kernel allocates nothing: 10k non-shorted
//! `NominalWindow::variation` calls run under a counting global
//! allocator and must record zero allocations on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpvar_core::nominal::NominalWindow;
use mpvar_litho::sample_draw;
use mpvar_sram::BitcellGeometry;
use mpvar_stats::RngStream;
use mpvar_tech::preset::n10;
use mpvar_tech::{PatterningOption, VariationBudget};

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping only touches const-initialized thread-locals, which
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn variation_allocates_nothing_on_clean_prints() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    for option in PatterningOption::ALL {
        let window = NominalWindow::build(&tech, &cell, option).unwrap();
        let budget = VariationBudget::paper_default(option, 8.0).unwrap();
        let mut rng = RngStream::from_seed(7);
        let mut draws = Vec::with_capacity(10_000);
        while draws.len() < 10_000 {
            let d = sample_draw(option, &budget, &mut rng).unwrap();
            if window.variation(&d).unwrap().is_some() {
                draws.push(d);
            }
        }
        let mut evaluated = 0usize;
        let allocations = allocations_in(|| {
            for d in &draws {
                if let Ok(Some(var)) = window.variation(d) {
                    evaluated += 1;
                    std::hint::black_box(var);
                }
            }
        });
        assert_eq!(evaluated, 10_000, "{option}");
        assert_eq!(allocations, 0, "{option}: {allocations} allocations");
    }
}

#[test]
fn the_counter_sees_allocations() {
    let allocations = allocations_in(|| {
        std::hint::black_box(vec![1u8; 16]);
    });
    assert_eq!(allocations, 1);
}
