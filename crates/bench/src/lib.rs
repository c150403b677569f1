//! Reproduction harness for every table and figure of the paper.
//!
//! The artifact-graph engine in [`mpvar_study`] is the single entry
//! point for evaluating experiments: the `repro` binary, the `check`
//! verdict pass, and the serve dispatcher all drive a
//! [`Study`](mpvar_study::Study) session, which memoizes shared prework
//! (the Table I corner search, the Fig. 4 simulations) in a
//! content-keyed cache and reports per-node timings. This crate adds
//! the CLI around it and the workloads behind its two smoke floors
//! (`bench-batch-smoke`, `bench-yield-smoke`).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;

use mpvar_core::experiments::ExperimentContext;
use mpvar_core::CoreError;
use mpvar_litho::{sample_draw, Draw};
use mpvar_spice::{MosfetModel, Netlist, NodeId, SolverKernel, Transient, Waveform};
use mpvar_sram::{
    simulate_read, simulate_read_batch_in, ReadBatchScratch, ReadConfig, ReadOutcome, SramError,
};
use mpvar_stats::RngStream;
use mpvar_tech::PatterningOption;

pub use mpvar_study::Artifact;

/// Fixed trapezoidal step count of the solver-kernel workload: the
/// `h = 1024` fixed-step-equivalent transient.
pub const SOLVER_BENCH_STEPS: usize = 1024;

/// Simulated window of the solver-kernel workload, seconds.
pub const SOLVER_BENCH_WINDOW_S: f64 = 200e-12;

/// Builds the solver-kernel benchmark circuit: a 16-segment RC bit
/// line with the 6T read discharge path (pass-gate + pull-down NMOS)
/// at the far end. Returns the netlist, the UIC node/voltage pairs,
/// and the near-end probe node. The FETs make every timestep a Newton
/// iteration, so the workload exercises assembly + factorization —
/// exactly what the compiled kernel accelerates.
fn solver_bench_circuit() -> (Netlist, Vec<(NodeId, f64)>, NodeId) {
    let tech = mpvar_tech::preset::n10();
    let vdd_v = 0.7;
    let segments = 16usize;
    let mut net = Netlist::new();
    let mut uic = Vec::new();

    let near = net.node("bl0");
    uic.push((near, vdd_v));
    let mut prev = near;
    for k in 1..=segments {
        let node = net.node(&format!("bl{k}"));
        net.add_resistor(&format!("Rbl{k}"), prev, node, 150.0)
            .expect("valid R");
        net.add_capacitor(&format!("Cbl{k}"), node, Netlist::GROUND, 2e-15)
            .expect("valid C");
        uic.push((node, vdd_v));
        prev = node;
    }
    let far = prev;

    let wl = net.node("wl");
    let vdd = net.node("vdd");
    let q = net.node("q");
    net.add_vsource(
        "VWL",
        wl,
        Netlist::GROUND,
        Waveform::pulse(0.0, vdd_v, 20e-12, 10e-12, 10e-12, 1.0, 0.0).expect("pulse"),
    )
    .expect("V");
    net.add_vsource("VDD", vdd, Netlist::GROUND, Waveform::dc(vdd_v))
        .expect("V");
    net.add_mosfet("Mpass", far, wl, q, MosfetModel::new(*tech.nmos()))
        .expect("M");
    net.add_mosfet(
        "Mpd",
        q,
        vdd,
        Netlist::GROUND,
        MosfetModel::new(*tech.nmos()),
    )
    .expect("M");
    net.add_capacitor("Cq", q, Netlist::GROUND, 0.2e-15)
        .expect("C");
    uic.push((vdd, vdd_v));
    uic.push((q, 0.0));
    (net, uic, near)
}

/// Runs the `h = 1024` fixed-step solver workload once, returning the
/// final near-end bit-line voltage (consume it so the run cannot be
/// optimized away).
///
/// The compiled kernel is the only [`SolverKernel`], so `kernel` selects
/// nothing; the parameter stays because the `examples/benchmark` solver
/// probe calls `solver_workload_once(SolverKernel::Compiled)`.
pub fn solver_workload_once(kernel: SolverKernel) -> f64 {
    let SolverKernel::Compiled = kernel;
    let (net, uic, probe) = solver_bench_circuit();
    let mut tran = Transient::new(&net).expect("workload builds");
    for &(node, v) in &uic {
        tran.set_initial_voltage(node, v);
    }
    let dt = SOLVER_BENCH_WINDOW_S / SOLVER_BENCH_STEPS as f64;
    let result = tran.run(dt, SOLVER_BENCH_WINDOW_S).expect("workload runs");
    result
        .sample(probe, SOLVER_BENCH_WINDOW_S)
        .expect("in window")
}

/// One measured configuration of the batched SPICE read: per-draw
/// scalar [`simulate_read`] versus the batched SoA trial solver on the
/// same draws.
#[derive(Debug, Clone, Copy)]
pub struct SpiceBatchBench {
    /// Reads per measured run.
    pub trials: usize,
    /// Array height (cells on the bit line) of the read deck.
    pub n_cells: usize,
    /// Draws per batched solver call.
    pub lanes: usize,
    /// Best-of-three wall-clock of the scalar path, seconds.
    pub scalar_seconds: f64,
    /// Best-of-three wall-clock of the batched path, seconds.
    pub batched_seconds: f64,
}

impl SpiceBatchBench {
    /// Scalar-path throughput, trials per second.
    #[must_use]
    pub fn scalar_tps(&self) -> f64 {
        self.trials as f64 / self.scalar_seconds
    }

    /// Batched-path throughput, trials per second.
    #[must_use]
    pub fn batched_tps(&self) -> f64 {
        self.trials as f64 / self.batched_seconds
    }

    /// Batched-over-scalar speedup (wall-clock ratio).
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.scalar_seconds / self.batched_seconds
    }
}

/// Measures the batched SoA trial solver against the per-draw scalar
/// path on full 6T read transients: `trials` LE3 draws (draw `k` from
/// RNG substream `k` of the context seed) at the paper's 64-cell array
/// height regardless of profile, on the calling thread, so the number
/// isolates the batching win from scheduling and stays comparable
/// across quick/paper runs. The batched path runs 16-lane calls of
/// [`simulate_read_batch_in`] through one reused scratch.
///
/// Both paths read the same draws; their per-draw `td` bits (or error
/// text) are asserted identical before timing, so the speedup compares
/// genuinely equivalent work. Best of three repetitions per path.
///
/// # Errors
///
/// Propagates draw-sampling failures and structural read failures.
pub fn spice_batch_bench(
    ctx: &ExperimentContext,
    trials: usize,
) -> Result<SpiceBatchBench, CoreError> {
    use std::time::Instant;

    let option = PatterningOption::Le3;
    let budget = ctx.budget(option)?;
    // Pinned to the paper's Fig. 5 array height so the recorded metric
    // is the paper-faithful workload in every profile.
    let n_cells = 64;
    let lanes = 16;
    let read = ReadConfig::default();
    let base = RngStream::from_seed(ctx.mc.seed);
    let draws = (0..trials)
        .map(|k| sample_draw(option, &budget, &mut base.substream(k as u64)))
        .collect::<Result<Vec<Draw>, _>>()?;

    let scalar = || -> Vec<Result<ReadOutcome, SramError>> {
        draws
            .iter()
            .map(|d| simulate_read(&ctx.tech, &ctx.cell, &read, n_cells, d))
            .collect()
    };
    let mut scratch = ReadBatchScratch::new();
    let mut batched = || -> Result<Vec<Result<ReadOutcome, SramError>>, SramError> {
        let mut out = Vec::with_capacity(draws.len());
        for chunk in draws.chunks(lanes) {
            out.extend(simulate_read_batch_in(
                &ctx.tech,
                &ctx.cell,
                &read,
                n_cells,
                chunk,
                &mut scratch,
            )?);
        }
        Ok(out)
    };

    // Warm-up both paths and prove bit-identity before the clock runs.
    let key = |r: &Result<ReadOutcome, SramError>| match r {
        Ok(o) => Ok(o.td_s.to_bits()),
        Err(e) => Err(e.to_string()),
    };
    assert_eq!(
        scalar().iter().map(key).collect::<Vec<_>>(),
        batched()?.iter().map(key).collect::<Vec<_>>(),
        "batched SPICE read diverged from scalar"
    );

    let mut scalar_seconds = f64::INFINITY;
    let mut batched_seconds = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::hint::black_box(scalar());
        scalar_seconds = scalar_seconds.min(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        std::hint::black_box(batched()?);
        batched_seconds = batched_seconds.min(t0.elapsed().as_secs_f64());
    }
    Ok(SpiceBatchBench {
        trials,
        n_cells,
        lanes,
        scalar_seconds,
        batched_seconds,
    })
}

/// Deterministic metrics of the adaptive importance-sampling yield
/// engine on the analytic planted problem — the `bench-yield-smoke`
/// workload. No wall clock involved: trial counts and estimates are a
/// pure function of the seed, so the recorded speedup is exactly
/// reproducible.
#[derive(Debug, Clone, Copy)]
pub struct YieldBench {
    /// Planted true failure probability.
    pub p_true: f64,
    /// Trials the adaptive controller consumed to converge.
    pub trials: u64,
    /// The converged estimate.
    pub p_fail: f64,
    /// Relative CI half-width at stop.
    pub rel_half_width: f64,
    /// Whether the stopping rule (not the budget) ended the run.
    pub converged: bool,
    /// Whether the 95% CI covers the planted truth.
    pub ci_covers_truth: bool,
    /// Brute-force trials needed for the same CI half-width.
    pub brute_equivalent_trials: f64,
}

impl YieldBench {
    /// Brute-force-equivalent speedup (trial-count ratio). The
    /// acceptance floor at `p_true = 1e-6` is 50x.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.brute_equivalent_trials / self.trials as f64
    }
}

/// Runs the scaled-sigma controller on the planted `P_fail = 1e-6`
/// problem (the same configuration the `mpvar-yield` acceptance test
/// pins: one dimension, scale 3, seed 42, target relative half-width
/// 0.3) and derives its brute-force-equivalent speedup.
///
/// # Errors
///
/// Propagates yield-engine failures.
pub fn yield_bench() -> Result<YieldBench, CoreError> {
    use mpvar_yield::{
        brute_force_trials_for, run_yield, PlantedThreshold, Proposal, YieldConfig, ZDomain,
    };

    let p_true = 1e-6;
    let target_rel_half_width = 0.3;
    let problem = PlantedThreshold::for_failure_probability(1, p_true)
        .map_err(mpvar_yield::YieldError::from)?;
    let domain = ZDomain::unbounded(1).map_err(mpvar_yield::YieldError::from)?;
    let cfg = YieldConfig::new(domain, Proposal::ScaledSigma { scale: 3.0 })
        .seed(42)
        .target_rel_half_width(target_rel_half_width);
    let run = run_yield(&problem, &cfg)?;
    let est = run.estimate(0.95)?;
    // Denominator: brute trials for the *target* precision — the same
    // basis the engine's own acceptance test pins the 50x floor on.
    let brute = brute_force_trials_for(p_true, target_rel_half_width, 0.95)
        .map_err(mpvar_yield::YieldError::from)?;
    Ok(YieldBench {
        p_true,
        trials: run.consumed(),
        p_fail: est.p_fail,
        rel_half_width: est.rel_half_width(),
        converged: run.converged(),
        ci_covers_truth: est.contains(p_true),
        brute_equivalent_trials: brute,
    })
}

/// Bit-identity probe of the yield engine across worker counts: the
/// planted problem run at 1, 4, and 8 threads must produce identical
/// rounds and estimates. Returns `true` when every run agrees with the
/// single-threaded reference — the determinism half of the CI yield
/// smoke.
///
/// # Errors
///
/// Propagates yield-engine failures.
pub fn yield_threads_identical() -> Result<bool, CoreError> {
    use mpvar_yield::{run_yield, PlantedThreshold, Proposal, YieldConfig, ZDomain};

    let problem = PlantedThreshold::for_failure_probability(3, 1e-5)
        .map_err(mpvar_yield::YieldError::from)?;
    let domain = ZDomain::unbounded(3).map_err(mpvar_yield::YieldError::from)?;
    let cfg = YieldConfig::new(domain, Proposal::ScaledSigma { scale: 3.0 }).seed(42);
    let mut runs = Vec::new();
    for threads in [1usize, 4, 8] {
        runs.push(run_yield(&problem, &cfg.clone().threads(threads))?);
    }
    Ok(runs.windows(2).all(|w| w[0] == w[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_study::Study;

    #[test]
    fn yield_bench_meets_the_speedup_floor() {
        let yb = yield_bench().unwrap();
        assert!(yb.converged, "planted 1e-6 run must converge");
        assert!(yb.ci_covers_truth, "CI must cover the planted truth");
        assert!(
            yb.speedup() >= 50.0,
            "speedup {:.1} below 50x",
            yb.speedup()
        );
    }

    #[test]
    fn unknown_id_rejected() {
        let study = Study::new(ExperimentContext::quick().unwrap());
        assert!(study.run_named("tableX").is_err());
    }

    #[test]
    fn table1_artifact() {
        let study = Study::new(ExperimentContext::quick().unwrap());
        let arts = study.run_named("table1").unwrap();
        assert_eq!(arts.len(), 1);
        assert!(arts[0].text.contains("LELELE"));
        assert!(arts[0].csv.starts_with("option,"));
    }

    #[test]
    fn cheap_experiments_run_quick() {
        let mut ctx = ExperimentContext::quick().unwrap();
        ctx.mc.trials = 300;
        let study = Study::new(ctx);
        for id in ["table4", "ablation-bl-width", "ablation-sadp-vss"] {
            let arts = study.run_named(id).unwrap();
            assert_eq!(arts[0].id, id);
            assert!(!arts[0].text.is_empty());
        }
    }
}
