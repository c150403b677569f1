//! The batched formula-route kernel against its one-draw reference:
//! `NominalWindow::variation_batch` must give, for every draw, exactly
//! what `NominalWindow::variation` gives (bits of `R_var`/`C_var`, or
//! the error text), and `PrintPlan::print_batch` what `print_track`
//! gives — over all four options, the SADP periodic image, every batch
//! length from empty to two chunks and one, and draws that short,
//! collapse or carry NaN, ±∞ or 1e300. A counting allocator shows the
//! batch allocates nothing into a pre-reserved output.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpvar_core::nominal::NominalWindow;
use mpvar_core::CoreError;
use mpvar_extract::RelativeVariation;
use mpvar_geometry::TrackStack;
use mpvar_litho::{print_track, sample_draw, Draw, LithoError, PrintPlan, TrackEdges};
use mpvar_sram::BitcellGeometry;
use mpvar_stats::RngStream;
use mpvar_tech::preset::n10;
use mpvar_tech::{PatterningOption, VariationBudget};

/// Draws the lane walk prints per pass.
const LANES: usize = 8;

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

/// A result compared by bits, errors by their text.
fn variation_key(
    r: &Result<Option<RelativeVariation>, CoreError>,
) -> Result<Option<[u64; 2]>, String> {
    match r {
        Ok(Some(v)) => Ok(Some([v.r_var.to_bits(), v.c_var.to_bits()])),
        Ok(None) => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

fn edges_key(
    r: &Result<Option<TrackEdges>, LithoError>,
) -> Result<Option<[Option<u64>; 5]>, String> {
    match r {
        Ok(Some(e)) => Ok(Some([
            Some(e.bottom_nm.to_bits()),
            Some(e.top_nm.to_bits()),
            Some(e.length_nm.to_bits()),
            e.gap_below_nm.map(f64::to_bits),
            e.gap_above_nm.map(f64::to_bits),
        ])),
        Ok(None) => Ok(None),
        Err(e) => Err(e.to_string()),
    }
}

/// `option`'s draw with every parameter set to `v`.
fn uniform(option: PatterningOption, v: f64) -> Draw {
    let mut d = Draw::nominal(option);
    for (name, _) in Draw::nominal(option).parameters() {
        assert!(d.set_parameter(name, v));
    }
    d
}

/// Sampled draws of `option` at 4x and 12x its paper budget (clean
/// prints, shorts and collapses), with extreme draws spliced in: one
/// parameter NaN, ±∞ or 1e300, every parameter ±30 nm.
fn pool(option: PatterningOption) -> Vec<Draw> {
    let mut rng = RngStream::from_seed(24);
    let mut out = Vec::new();
    for sigma in [4.0, 12.0] {
        let budget = VariationBudget::paper_default(option, sigma).unwrap();
        out.extend((0..40).map(|_| sample_draw(option, &budget, &mut rng).unwrap()));
    }
    let names: Vec<&str> = Draw::nominal(option)
        .parameters()
        .iter()
        .map(|&(n, _)| n)
        .collect();
    let mut extremes = vec![uniform(option, 30.0), uniform(option, -30.0)];
    for (k, bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300, -1e300]
        .into_iter()
        .enumerate()
    {
        let mut d = out[k];
        assert!(d.set_parameter(names[k % names.len()], bad));
        extremes.push(d);
    }
    for (k, d) in extremes.into_iter().enumerate() {
        out.insert(5 * k + 3, d);
    }
    out
}

fn assert_batch_matches(w: &NominalWindow<'_>, draws: &[Draw]) {
    let mut got = Vec::new();
    w.variation_batch(draws, &mut got);
    assert_eq!(got.len(), draws.len());
    for (d, g) in draws.iter().zip(&got) {
        assert_eq!(variation_key(g), variation_key(&w.variation(d)), "{d:?}");
    }
}

#[test]
fn variation_batch_matches_variation_draw_by_draw() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    let mut outcomes = [0usize; 3];
    for option in PatterningOption::ALL_WITH_EXTENSIONS {
        let w = NominalWindow::build(&tech, &cell, option).unwrap();
        let draws = pool(option);
        for d in &draws {
            outcomes[match w.variation(d) {
                Ok(Some(_)) => 0,
                Ok(None) => 1,
                Err(_) => 2,
            }] += 1;
        }
        for len in 0..=2 * LANES + 1 {
            for start in (0..draws.len() - len).step_by(3) {
                assert_batch_matches(&w, &draws[start..start + len]);
            }
        }
        // Chunks mixing variants: every option's pool interleaved.
        let mixed: Vec<Draw> = PatterningOption::ALL_WITH_EXTENSIONS
            .iter()
            .flat_map(|&o| pool(o).into_iter().take(11))
            .collect();
        assert_batch_matches(&w, &mixed);
        let reversed: Vec<Draw> = mixed.iter().rev().copied().collect();
        assert_batch_matches(&w, &reversed);
    }
    assert!(
        outcomes.iter().all(|&n| n > 0),
        "clean/lost/error outcomes {outcomes:?}"
    );
}

/// The window's top track is a mandrel; dropping it leaves a
/// spacer-defined top track, which SADP prints against the periodic
/// image of the mandrel below.
#[test]
fn print_batch_matches_print_track_on_the_sadp_periodic_image() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    let w = NominalWindow::build(&tech, &cell, PatterningOption::Sadp).unwrap();
    let tracks = w.stack().tracks();
    let stack = TrackStack::new(tracks[..tracks.len() - 1].to_vec()).unwrap();
    assert_eq!(stack.len() % 2, 0, "top track is spacer-defined");
    let draws = pool(PatterningOption::Sadp);
    for index in [w.bl_index(), stack.len() - 2, stack.len() - 1] {
        let plan = PrintPlan::new(&stack, index);
        for len in [0, 1, LANES - 1, LANES, 2 * LANES + 1, draws.len()] {
            let mut got = Vec::new();
            plan.print_batch(&draws[..len], |p| got.push(edges_key(&p)));
            for (d, g) in draws.iter().zip(got) {
                let want = match print_track(&stack, d, index) {
                    Ok(edges) => Ok(Some(edges)),
                    Err(LithoError::ShortedLines { .. } | LithoError::CollapsedLine { .. }) => {
                        Ok(None)
                    }
                    Err(e) => Err(e),
                };
                assert_eq!(g, edges_key(&want), "{d:?} @ {index}");
            }
        }
    }
}

#[test]
fn variation_batch_allocates_nothing_into_a_reserved_output() {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).unwrap();
    for option in PatterningOption::ALL {
        let window = NominalWindow::build(&tech, &cell, option).unwrap();
        let budget = VariationBudget::paper_default(option, 8.0).unwrap();
        let mut rng = RngStream::from_seed(7);
        // Shorted prints included: they allocate nothing either.
        let draws: Vec<Draw> = (0..10_000)
            .map(|_| sample_draw(option, &budget, &mut rng).unwrap())
            .collect();
        let mut out = Vec::with_capacity(draws.len());
        let allocations = allocations_in(|| {
            for chunk in draws.chunks(1000 + 3) {
                window.variation_batch(chunk, &mut out);
                std::hint::black_box(&out);
            }
        });
        assert_eq!(allocations, 0, "{option}: {allocations} allocations");
        assert!(out.iter().all(Result::is_ok), "{option}");
    }
}
