//! Substrate micro-benchmarks: the building blocks every experiment
//! leans on (sparse solves, transient steps, device evaluation, litho +
//! extraction per Monte-Carlo trial).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use mpvar_extract::{extract_track, RelativeVariation};
use mpvar_litho::{apply_draw, sample_draw, Draw};
use mpvar_spice::{CsrMatrix, MosfetModel, Netlist, SymbolicLu, Transient};
use mpvar_sram::{simulate_read, BitcellGeometry, ReadConfig};
use mpvar_stats::RngStream;
use mpvar_tech::{preset::n10, PatterningOption, VariationBudget};

fn sparse_ladder_solve(c: &mut Criterion) {
    let mut group = c.benchmark_group("sparse_ladder_solve");
    for n in [256usize, 1024, 4096] {
        let mut entries = Vec::new();
        for i in 0..n {
            entries.push((i, i, 2.5));
            if i > 0 {
                entries.push((i, i - 1, -1.0));
                entries.push((i - 1, i, -1.0));
            }
        }
        let coords: Vec<(usize, usize)> = entries.iter().map(|&(r, c, _)| (r, c)).collect();
        let (mut m, slots) = CsrMatrix::from_coords(n, &coords);
        for (&slot, &(_, _, v)) in slots.iter().zip(&entries) {
            m.values_mut()[slot as usize] += v;
        }
        let sym = SymbolicLu::analyze(&m).expect("nonsingular");
        let mut ws = sym.workspace();
        let b = vec![1.0; n];
        group.bench_with_input(BenchmarkId::new("refactor_solve", n), &n, |bench, _| {
            bench.iter(|| {
                sym.refactor(black_box(&m), &mut ws).expect("nonsingular");
                sym.solve(&ws, black_box(&b))
            })
        });
        sym.refactor(&m, &mut ws).expect("nonsingular");
        group.bench_with_input(BenchmarkId::new("solve_only", n), &n, |bench, _| {
            bench.iter(|| sym.solve(&ws, black_box(&b)))
        });
    }
    group.finish();
}

fn mosfet_eval(c: &mut Criterion) {
    let tech = n10();
    let m = MosfetModel::new(*tech.nmos());
    c.bench_function("mosfet_eval", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for k in 0..100 {
                let vgs = 0.2 + (k as f64) * 0.005;
                acc += m.evaluate(black_box(vgs), black_box(0.35)).id;
            }
            acc
        })
    });
}

fn rc_transient(c: &mut Criterion) {
    // 64-segment linear RC line, 1000 fixed steps: the linear fast path.
    let mut net = Netlist::new();
    let mut prev = net.node("n0");
    for k in 1..=64 {
        let node = net.node(&format!("n{k}"));
        net.add_resistor(&format!("R{k}"), prev, node, 50.0)
            .expect("valid R");
        net.add_capacitor(&format!("C{k}"), node, Netlist::GROUND, 1e-16)
            .expect("valid C");
        prev = node;
    }
    let first = net.find_node("n0").expect("node exists");
    c.bench_function("rc_transient_64seg_1000steps", |b| {
        b.iter(|| {
            let mut tran = Transient::new(black_box(&net)).expect("valid netlist");
            tran.set_initial_voltage(first, 0.7);
            tran.run(1e-12, 1e-9).expect("converges")
        })
    });
}

fn litho_extract_trial(c: &mut Criterion) {
    // One full Monte-Carlo trial body: sample, print, extract, ratio.
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    let m1 = tech.metal(1).expect("metal1");
    let stack = cell.column_stack(10, 5, 1).expect("stack builds");
    let nominal_printed =
        apply_draw(&stack, &Draw::nominal(PatterningOption::Le3)).expect("prints");
    let bl = nominal_printed.index_of_net("BL").expect("bl present");
    let nominal = extract_track(&nominal_printed, bl, m1).expect("extracts");
    let budget = VariationBudget::paper_default(PatterningOption::Le3, 8.0).expect("budget");
    c.bench_function("litho_extract_mc_trial", |b| {
        let mut rng = RngStream::from_seed(1);
        b.iter(|| {
            let draw = sample_draw(PatterningOption::Le3, &budget, &mut rng).expect("samples");
            let printed = match apply_draw(&stack, &draw) {
                Ok(p) => p,
                Err(_) => return 0.0,
            };
            let w = extract_track(&printed, bl, m1).expect("extracts");
            RelativeVariation::between(&nominal, &w).c_var
        })
    });
}

fn read_simulation(c: &mut Criterion) {
    let tech = n10();
    let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
    let cfg = ReadConfig::default();
    let mut group = c.benchmark_group("read_simulation");
    group.sample_size(10);
    for n in [16usize, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                simulate_read(
                    black_box(&tech),
                    black_box(&cell),
                    &cfg,
                    n,
                    &Draw::nominal(PatterningOption::Euv),
                )
                .expect("read simulates")
            })
        });
    }
    group.finish();
}

criterion_group!(
    micro,
    sparse_ladder_solve,
    mosfet_eval,
    rc_transient,
    litho_extract_trial,
    read_simulation
);
criterion_main!(micro);
