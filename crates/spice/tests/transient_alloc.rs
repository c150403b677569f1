//! The transient step loop allocates nothing per step: under a counting
//! global allocator, a run of `4N` steps may make fewer than `N / 8`
//! more allocations than a run of `N` steps. The only growth allowed is
//! the result record's amortized doubling (a few reallocations per
//! waveform), on the linear fast path and on the Newton path alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mpvar_spice::{Method, MosfetModel, Netlist, Transient, Waveform};
use mpvar_tech::preset::n10;

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

/// A four-segment RC ladder driven by a pulse: the linear fast path.
fn rc_ladder() -> Netlist {
    let mut net = Netlist::new();
    let src = net.node("src");
    net.add_vsource(
        "VIN",
        src,
        Netlist::GROUND,
        Waveform::pulse(0.0, 1.0, 1e-11, 1e-11, 1e-11, 1e-9, 2e-9).unwrap(),
    )
    .unwrap();
    let mut prev = src;
    for k in 0..4 {
        let node = net.node(&format!("n{k}"));
        net.add_resistor(&format!("R{k}"), prev, node, 1e3).unwrap();
        net.add_capacitor(&format!("C{k}"), node, Netlist::GROUND, 1e-14)
            .unwrap();
        prev = node;
    }
    net
}

/// A precharged bit line discharging through a pass gate and pull-down:
/// every step Newton-iterates.
fn bitline_discharge() -> Netlist {
    let tech = n10();
    let nmos = || MosfetModel::new(*tech.nmos());
    let mut net = Netlist::new();
    let vdd = net.node("vdd");
    let wl = net.node("wl");
    let bl = net.node("bl");
    let q = net.node("q");
    net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(0.7))
        .unwrap();
    net.add_vsource("VWL", wl, Netlist::GROUND, Waveform::dc(0.7))
        .unwrap();
    net.add_resistor("RPRE", vdd, bl, 50e3).unwrap();
    net.add_capacitor("CBL", bl, Netlist::GROUND, 5e-15)
        .unwrap();
    net.add_mosfet("MPG", bl, wl, q, nmos()).unwrap();
    net.add_mosfet("MPD", q, vdd, Netlist::GROUND, nmos())
        .unwrap();
    net.add_capacitor("CQ", q, Netlist::GROUND, 1e-16).unwrap();
    net
}

#[test]
fn transient_steps_allocate_nothing() {
    const N: u64 = 1000;
    let t_stop = 2e-9;
    for (what, net) in [
        ("rc ladder", rc_ladder()),
        ("bit line", bitline_discharge()),
    ] {
        for method in [Method::Trapezoidal, Method::BackwardEuler] {
            let mut tran = Transient::new(&net).unwrap();
            tran.set_method(method);
            let run = |steps: u64| {
                allocations_in(|| {
                    let r = tran.run(t_stop / steps as f64, t_stop).unwrap();
                    assert_eq!(r.times().len() as u64, steps + 1);
                })
            };
            let (short, long) = (run(N), run(4 * N));
            assert!(
                long.saturating_sub(short) < N / 8,
                "{what}, {method:?}: {short} allocations for {N} steps, {long} for {}",
                4 * N
            );
        }
    }
}

#[test]
fn the_counter_sees_allocations() {
    let allocations = allocations_in(|| {
        std::hint::black_box(vec![1u8; 16]);
    });
    assert_eq!(allocations, 1);
}
