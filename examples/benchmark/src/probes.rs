//! Per-layer probes: each calls one layer's public entry point on fixed
//! inputs, single-threaded, and reports the median time per call (or
//! per trial) over five batches. Every call's result is dropped before
//! the next call, the way production loops use it; holding results
//! would measure the allocator's working set instead of the layer.

use std::collections::BTreeMap;
use std::error::Error;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use mpvar_core::experiments::ExperimentContext;
use mpvar_core::{
    tdp_distribution_with, AnalyticalModel, ExecConfig, FormulaYieldProblem, McConfig,
    NominalWindow, ZMap,
};
use mpvar_extract::extract_track;
use mpvar_litho::{apply_draw, sample_draw, Draw};
use mpvar_spice::SolverKernel;
use mpvar_sram::{
    simulate_read, simulate_read_batch_in, simulate_write, simulate_write_batch_in, FormulaParams,
    ReadBatchScratch, WriteBatchScratch, WriteConfig,
};
use mpvar_stats::{Proposal, RngStream};
use mpvar_study::{
    decode_value, encode_value, ArtifactId, ArtifactStore, ArtifactValue, CacheKey, DiskStore,
    Study,
};
use mpvar_tech::PatterningOption;
use mpvar_yield::{run_yield, FailureProblem, PlantedThreshold, YieldConfig, ZDomain};

use crate::stats::median;

const BATCHES: usize = 5;
const SEED: u64 = 2015;
/// Array height of the formula, Monte-Carlo and SPICE probes: the
/// paper's pinned height.
const N_CELLS: usize = 64;
/// Lanes of the batched SPICE probes.
const LANES: usize = 16;
/// Scaled-sigma proposal draws fed to the litho and formula probes.
const TRIALS: usize = 4096;
/// Monte-Carlo trials per `tdp_distribution_with` call.
const MC_TRIALS: usize = 20_000;
/// Timing margin (percent `tdp`) of the formula probe's failure test.
const MARGIN_PERCENT: f64 = 10.0;

/// Median over the batches of the time per call, in nanoseconds, of
/// `calls` calls of `f` (which gets the call index).
fn per_call_ns(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&per_call).expect("at least one batch")
}

/// Runs every probe; store probes write under `work_dir`.
///
/// # Errors
///
/// When an input cannot be built or a layer fails.
pub fn run(work_dir: &Path) -> Result<BTreeMap<&'static str, f64>, Box<dyn Error>> {
    let mut m = BTreeMap::new();
    let ctx = ExperimentContext::quick()?;
    let option = PatterningOption::Le3;
    let budget = ctx.budget(option)?;
    let window = NominalWindow::build(&ctx.tech, &ctx.cell, option)?;

    // Litho, extract and formula: the formula-route yield trial.
    let map = ZMap::build(option, &budget)?;
    let domain = map.domain()?;
    let proposal = Proposal::ScaledSigma {
        scale: ctx.yield_settings.sigma_scale,
    };
    let mut rng = RngStream::from_seed(SEED);
    let (mut z, mut zs) = (Vec::new(), Vec::new());
    while zs.len() < TRIALS * map.dims() {
        // Zero-weight draws lie outside the target; the controller
        // never evaluates them.
        if proposal.draw(&domain, &mut rng, &mut z)?.is_finite() {
            zs.extend_from_slice(&z);
        }
    }
    let draws: Vec<Draw> = zs
        .chunks_exact(map.dims())
        .map(|z| map.draw_from_z(z))
        .collect();
    m.insert(
        "litho.apply_draw_ns",
        per_call_ns(4 * TRIALS, |i| {
            black_box(apply_draw(window.stack(), &draws[i % TRIALS]).ok());
        }),
    );
    m.insert(
        "litho.sample_draw_ns",
        per_call_ns(8 * TRIALS, |_| {
            black_box(sample_draw(option, &budget, &mut rng).ok());
        }),
    );
    let printed = apply_draw(window.stack(), &Draw::nominal(option))?;
    m.insert(
        "extract.track_ns",
        per_call_ns(8 * TRIALS, |_| {
            black_box(extract_track(&printed, window.bl_index(), window.metal()).ok());
        }),
    );
    let params = FormulaParams::derive(&ctx.tech, &ctx.cell, ctx.read_config.vdd_v)?;
    let model = AnalyticalModel::new(params, ctx.read_config.sense_dv_v / ctx.read_config.vdd_v)?;
    let problem = FormulaYieldProblem::new(&window, &budget, model, N_CELLS, MARGIN_PERCENT)?;
    m.insert(
        "core.formula_trial_ns",
        per_call_ns(4, |_| {
            black_box(problem.evaluate_batch(&zs).ok());
        }) / TRIALS as f64,
    );

    // Monte-Carlo farm, serial.
    let mc = McConfig::builder()
        .trials(MC_TRIALS)
        .seed(SEED)
        .exec(ExecConfig::SERIAL)
        .build();
    m.insert(
        "core.mc_trial_ns",
        per_call_ns(1, |_| {
            black_box(tdp_distribution_with(&window, &budget, N_CELLS, &mc).ok());
        }) / MC_TRIALS as f64,
    );

    // Yield controller on a planted problem, so only its own work counts.
    let planted = PlantedThreshold::for_failure_probability(5, 1e-5)?;
    let cfg = YieldConfig::new(ZDomain::unbounded(5)?, Proposal::ScaledSigma { scale: 3.0 })
        .seed(SEED)
        .threads(1);
    let consumed = run_yield(&planted, &cfg)?.consumed();
    m.insert(
        "yield.controller_ns_per_trial",
        per_call_ns(1, |_| {
            black_box(run_yield(&planted, &cfg).ok());
        }) / consumed as f64,
    );

    // SPICE and the SRAM testbenches on it.
    m.insert(
        "spice.transient_ms",
        per_call_ns(8, |_| {
            black_box(mpvar_bench::solver_workload_once(SolverKernel::Compiled));
        }) / 1e6,
    );
    let mut target = RngStream::from_seed(SEED);
    let lanes: Vec<Draw> = (0..LANES)
        .map(|_| sample_draw(option, &budget, &mut target))
        .collect::<Result<_, _>>()?;
    let read = &ctx.read_config;
    m.insert(
        "sram.read_ms",
        per_call_ns(2, |i| {
            black_box(simulate_read(&ctx.tech, &ctx.cell, read, N_CELLS, &lanes[i]).ok());
        }) / 1e6,
    );
    let mut read_scratch = ReadBatchScratch::new();
    m.insert(
        "sram.read_batch_ms_per_lane",
        per_call_ns(1, |_| {
            black_box(
                simulate_read_batch_in(
                    &ctx.tech,
                    &ctx.cell,
                    read,
                    N_CELLS,
                    &lanes,
                    &mut read_scratch,
                )
                .ok(),
            );
        }) / 1e6
            / LANES as f64,
    );
    let write = WriteConfig::default();
    m.insert(
        "sram.write_ms",
        per_call_ns(2, |i| {
            black_box(simulate_write(&ctx.tech, &ctx.cell, &write, N_CELLS, &lanes[i]).ok());
        }) / 1e6,
    );
    let mut write_scratch = WriteBatchScratch::new();
    m.insert(
        "sram.write_batch_ms_per_lane",
        per_call_ns(1, |_| {
            black_box(
                simulate_write_batch_in(
                    &ctx.tech,
                    &ctx.cell,
                    &write,
                    N_CELLS,
                    &lanes,
                    &mut write_scratch,
                )
                .ok(),
            );
        }) / 1e6
            / LANES as f64,
    );

    // Codec and disk store on the quick Table IV value.
    let value = Study::new(ctx.clone()).artifact(ArtifactId::Table4)?;
    let bytes = encode_value(&value);
    m.insert(
        "study.encode_us",
        per_call_ns(256, |_| {
            black_box(encode_value(&value));
        }) / 1e3,
    );
    m.insert(
        "study.decode_us",
        per_call_ns(256, |_| {
            black_box(decode_value(&bytes).ok());
        }) / 1e3,
    );
    store_probes(
        &mut m,
        &work_dir.join(format!("probe-store-{}", std::process::id())),
        &value,
    )?;
    Ok(m)
}

/// `DiskStore::put` (envelope, fsync, rename) of fresh keys, then
/// `get` of each key once from a reopened store (read and decode).
fn store_probes(
    m: &mut BTreeMap<&'static str, f64>,
    root: &Path,
    value: &Arc<ArtifactValue>,
) -> Result<(), Box<dyn Error>> {
    const PUTS: u64 = 8;
    let _ = std::fs::remove_dir_all(root);
    let store = DiskStore::open(root)?;
    let mut batch = 0;
    m.insert(
        "store.disk_put_ms",
        per_call_ns(PUTS as usize, |i| {
            if i == 0 {
                batch += 1;
            }
            black_box(store.put(CacheKey(batch * PUTS + i as u64), Arc::clone(value)));
        }) / 1e6,
    );
    let mut gets = Vec::with_capacity(BATCHES);
    let mut found = 0;
    for batch in 1..=BATCHES as u64 {
        let store = DiskStore::open(root)?;
        let start = Instant::now();
        for i in 0..PUTS {
            found += usize::from(black_box(store.get(CacheKey(batch * PUTS + i))).is_some());
        }
        gets.push(start.elapsed().as_nanos() as f64 / PUTS as f64);
    }
    let _ = std::fs::remove_dir_all(root);
    if found != BATCHES * PUTS as usize {
        return Err(format!(
            "{found} of {} stored entries read back",
            BATCHES * PUTS as usize
        )
        .into());
    }
    m.insert(
        "store.disk_get_us",
        median(&gets).expect("batches ran") / 1e3,
    );
    Ok(())
}
