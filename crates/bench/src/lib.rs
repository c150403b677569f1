//! Reproduction harness for every table and figure of the paper.
//!
//! The artifact-graph engine in [`mpvar_study`] is the single entry
//! point for evaluating experiments: the `repro` binary, the `check`
//! verdict pass, and the Criterion benches all drive a
//! [`Study`](mpvar_study::Study) session, which memoizes shared prework
//! (the Table I corner search, the Fig. 4 simulations) in a
//! content-keyed cache and reports per-node timings. This crate adds
//! the CLI around it and the timing workloads behind the
//! `BENCH_parallel.json` snapshot.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;

use mpvar_core::experiments::ExperimentContext;
use mpvar_core::{
    tdp_distribution_spice, tdp_distribution_with, CoreError, ExecConfig, McConfig, NominalWindow,
    SpiceMcOptions,
};
use mpvar_spice::{MosfetModel, Netlist, NodeId, SolverKernel, Transient, Waveform};
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

/// One measured configuration of the SPICE-backed Monte-Carlo
/// workload: scalar (per-trial compiled kernel) versus the batched SoA
/// trial solver on the same seed.
#[derive(Debug, Clone, Copy)]
pub struct SpiceBatchBench {
    /// Monte-Carlo trials per measured run.
    pub trials: usize,
    /// Array height (cells on the bit line) of the read deck.
    pub n_cells: usize,
    /// Lanes per batch in the batched configuration.
    pub batch_width: usize,
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

/// Measures the batched SoA trial solver against the per-trial scalar
/// path on the SPICE-backed Fig. 5 Monte-Carlo workload (full 6T read
/// transients at the paper's 64-cell array height regardless of
/// profile, single thread so the number isolates the batching win
/// from scheduling and stays comparable across quick/paper runs).
///
/// Both paths run the same seed; the sample vectors are asserted
/// bit-identical before timing, so the speedup compares genuinely
/// equivalent work. Best of three repetitions per path.
///
/// # Errors
///
/// Propagates Monte-Carlo failures.
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
    let batch_width = SpiceMcOptions::default().batch_width;
    let mc = McConfig::builder()
        .trials(trials)
        .seed(ctx.mc.seed)
        .exec(ExecConfig::SERIAL)
        .build();
    let run = |width: usize| {
        tdp_distribution_spice(
            &ctx.tech,
            &ctx.cell,
            option,
            &budget,
            n_cells,
            &mc,
            &SpiceMcOptions {
                batch_width: width,
                ..SpiceMcOptions::default()
            },
        )
    };

    // Warm-up both paths and prove bit-identity before the clock runs.
    let scalar_samples = run(0)?;
    let batched_samples = run(batch_width)?;
    assert_eq!(
        scalar_samples
            .samples_percent()
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>(),
        batched_samples
            .samples_percent()
            .iter()
            .map(|s| s.to_bits())
            .collect::<Vec<_>>(),
        "batched SPICE MC diverged from scalar"
    );

    let mut scalar_seconds = f64::INFINITY;
    let mut batched_seconds = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let d = run(0)?;
        scalar_seconds = scalar_seconds.min(t0.elapsed().as_secs_f64());
        debug_assert_eq!(d.samples_percent().len(), trials);
        let t0 = Instant::now();
        let d = run(batch_width)?;
        batched_seconds = batched_seconds.min(t0.elapsed().as_secs_f64());
        debug_assert_eq!(d.samples_percent().len(), trials);
    }
    Ok(SpiceBatchBench {
        trials,
        n_cells,
        batch_width,
        scalar_seconds,
        batched_seconds,
    })
}

/// Deterministic metrics of the adaptive importance-sampling yield
/// engine on the analytic planted problem — the snapshot's `yield`
/// section. No wall clock involved: trial counts and estimates are a
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

/// Identifiers of every reproducible artefact, in canonical report
/// order (mirrors [`mpvar_study::ArtifactId::ALL`]).
pub const EXPERIMENT_IDS: [&str; 19] = [
    "table1",
    "fig4",
    "table2",
    "table3",
    "fig5",
    "table4",
    "ablation-delay",
    "ablation-bl-width",
    "ablation-sadp-vss",
    "extension-le2",
    "extension-ler",
    "extension-sensitivity",
    "extension-scaling",
    "yield_6sigma",
    "write_time",
    "write_margin",
    "sense_margin",
    "wl_delay",
    "write_yield",
];

/// Measures Monte-Carlo trial throughput at 1, 2, and all-cores worker
/// threads and renders the `BENCH_parallel.json` snapshot the `repro`
/// binary emits, so the perf trajectory is tracked across PRs.
///
/// Each thread count runs the same seed against one cached nominal
/// window; the best of three repetitions is reported (wall-clock
/// minimum is the standard noise-robust choice for throughput
/// tracking). Sample vectors are bit-identical across the sweep, so
/// the numbers measure scheduling only.
///
/// The snapshot also measures **instrumentation overhead**: the
/// all-cores configuration is repeated with an `mpvar-trace` collector
/// installed (a [`mpvar_trace::NullSink`], so only the span/metric
/// machinery itself is on the clock) and the traced-versus-untraced
/// delta is reported as `overhead_percent` — the number the `<2%`
/// hot-path budget is tracked against.
///
/// A `batch` section records the batched SoA trial solver's
/// speedup over the per-trial scalar path on the SPICE-backed Fig. 5
/// Monte-Carlo workload (see [`spice_batch_bench`]); its acceptance
/// floor is 3x, and CI smoke-tests a 2x floor on the reduced workload.
/// A `yield` section records the adaptive importance-sampling
/// controller's trials-to-converge on the planted `P_fail = 1e-6`
/// problem and its brute-force-equivalent speedup (floor 50x); unlike
/// the wall-clock sections it is exactly reproducible (see
/// [`yield_bench`]).
///
/// An `obs` section profiles one traced repetition of the same
/// Monte-Carlo workload through `mpvar-obs`: span/name counts, the
/// dominant span by self time and its share, and the fraction of the
/// wall clock the critical path explains — a standing smoke test that
/// the trace-analytics pipeline digests a real production trace.
///
/// # Errors
///
/// Propagates Monte-Carlo failures.
pub fn parallel_bench_snapshot(ctx: &ExperimentContext) -> Result<String, CoreError> {
    use std::fmt::Write as _;
    use std::sync::Arc;
    use std::time::Instant;

    let option = PatterningOption::Le3;
    let budget = ctx.budget(option)?;
    let window = NominalWindow::build(&ctx.tech, &ctx.cell, option)?;
    let trials = ctx.mc.trials.clamp(500, 4_000);

    // Only benchmark thread counts the host can actually run in
    // parallel: oversubscribing a small machine measures scheduler
    // thrash, not scaling, and has produced misleading sub-1.0
    // "speedups" in past snapshots.
    let max_threads = ExecConfig::default().effective_threads();
    let mut counts = vec![1usize, 2, max_threads];
    counts.sort_unstable();
    counts.dedup();
    counts.retain(|&t| t <= max_threads);

    // Warm-up so allocator/cache state doesn't bias the first entry.
    let warm = McConfig::builder()
        .trials(trials)
        .seed(ctx.mc.seed)
        .exec(ExecConfig::SERIAL)
        .build();
    let _ = tdp_distribution_with(&window, &budget, 64, &warm)?;

    let mut entries = Vec::with_capacity(counts.len());
    for &threads in &counts {
        let mc = McConfig::builder()
            .trials(trials)
            .seed(ctx.mc.seed)
            .threads(threads)
            .build();
        let mut best_s = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            let d = tdp_distribution_with(&window, &budget, 64, &mc)?;
            let dt = t0.elapsed().as_secs_f64();
            debug_assert_eq!(d.samples_percent().len(), trials);
            best_s = best_s.min(dt);
        }
        entries.push((threads, best_s, trials as f64 / best_s));
    }

    // Instrumentation overhead: same workload at all cores with a
    // collector installed (NullSink — only the trace machinery runs).
    let traced_threads = *counts.last().expect("at least one thread count");
    let untraced_s = entries
        .iter()
        .find(|&&(t, _, _)| t == traced_threads)
        .map(|&(_, s, _)| s)
        .unwrap_or(f64::NAN);
    let traced_s = {
        let collector = mpvar_trace::Collector::new(vec![Arc::new(mpvar_trace::NullSink)]);
        let _session = collector.install();
        let mc = McConfig::builder()
            .trials(trials)
            .seed(ctx.mc.seed)
            .threads(traced_threads)
            .build();
        let mut best_s = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            let d = tdp_distribution_with(&window, &budget, 64, &mc)?;
            let dt = t0.elapsed().as_secs_f64();
            debug_assert_eq!(d.samples_percent().len(), trials);
            best_s = best_s.min(dt);
        }
        best_s
    };
    let overhead_percent = (traced_s / untraced_s - 1.0) * 100.0;

    // Batched SoA trial solver: scalar vs batched SPICE-backed MC,
    // single thread, bit-identity asserted inside the bench. SPICE
    // trials are ~100x the cost of formula trials, so the count is
    // fixed at 64 — the same 64-cell, 64-trial deck the smoke target
    // and the docs quote, and a whole number of 16-lane batches so the
    // headline is not diluted by one ragged final batch.
    let batch = spice_batch_bench(ctx, 64)?;

    // Adaptive IS yield engine on the planted 1e-6 problem: trial
    // counts, not wall clock, so the section is exactly reproducible.
    let yb = yield_bench()?;

    // Observability smoke: one traced rep of the same MC workload,
    // captured as `mpvar-trace/v1` JSONL and profiled with mpvar-obs.
    // A trace this process just emitted always validates and always
    // forms a forest, so failures here are bugs, not inputs.
    let obs = {
        let sink = Arc::new(mpvar_trace::JsonlSink::new());
        let collector =
            mpvar_trace::Collector::new(vec![Arc::clone(&sink) as Arc<dyn mpvar_trace::TraceSink>]);
        let session = collector.install();
        let mc = McConfig::builder()
            .trials(trials)
            .seed(ctx.mc.seed)
            .threads(traced_threads)
            .build();
        let d = tdp_distribution_with(&window, &budget, 64, &mc)?;
        debug_assert_eq!(d.samples_percent().len(), trials);
        drop(session);
        let log = mpvar_trace::schema::validate_jsonl(&sink.contents())
            .expect("self-emitted trace validates");
        let profile = mpvar_obs::profile(&log).expect("self-emitted trace profiles");
        let dominant = profile
            .aggregates
            .first()
            .expect("traced run emits spans")
            .clone();
        let coverage_percent = if profile.wall_ns == 0 {
            0.0
        } else {
            profile.critical_path_ns() as f64 / profile.wall_ns as f64 * 100.0
        };
        (
            log.spans.len(),
            profile.aggregates.len(),
            dominant,
            profile.critical_path.len(),
            coverage_percent,
        )
    };

    let t1 = entries
        .iter()
        .find(|&&(t, _, _)| t == 1)
        .map(|&(_, s, _)| s)
        .unwrap_or(f64::NAN);
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"parallel_mc\",");
    let _ = writeln!(
        json,
        "  \"workload\": \"tdp_distribution LELELE 8nm OL, n = 64\","
    );
    let _ = writeln!(json, "  \"trials\": {trials},");
    let _ = writeln!(json, "  \"seed\": {},", ctx.mc.seed);
    let _ = writeln!(json, "  \"available_parallelism\": {max_threads},");
    let _ = writeln!(
        json,
        "  \"instrumentation\": {{ \"threads\": {traced_threads}, \
         \"untraced_seconds\": {untraced_s:.6}, \"traced_seconds\": {traced_s:.6}, \
         \"overhead_percent\": {overhead_percent:.2} }},"
    );
    let _ = writeln!(
        json,
        "  \"batch\": {{ \"workload\": \"SPICE-backed Fig. 5 MC read, n = {}\", \
         \"trials\": {}, \"batch_width\": {}, \"scalar_seconds\": {:.6}, \
         \"batched_seconds\": {:.6}, \"scalar_trials_per_sec\": {:.1}, \
         \"batched_trials_per_sec\": {:.1}, \"speedup\": {:.2} }},",
        batch.n_cells,
        batch.trials,
        batch.batch_width,
        batch.scalar_seconds,
        batch.batched_seconds,
        batch.scalar_tps(),
        batch.batched_tps(),
        batch.speedup()
    );
    let _ = writeln!(
        json,
        "  \"yield\": {{ \"workload\": \"planted P_fail = 1e-6, scaled-sigma IS, \
         target rel half-width 0.3\", \"trials_to_converge\": {}, \"p_fail\": {:.6e}, \
         \"rel_half_width\": {:.4}, \"converged\": {}, \"ci_covers_truth\": {}, \
         \"brute_equivalent_trials\": {:.0}, \"speedup\": {:.1} }},",
        yb.trials,
        yb.p_fail,
        yb.rel_half_width,
        yb.converged,
        yb.ci_covers_truth,
        yb.brute_equivalent_trials,
        yb.speedup()
    );
    {
        let (spans, names, dominant, path_len, coverage) = &obs;
        let mut dominant_name = String::new();
        mpvar_trace::json::push_json_str(&mut dominant_name, &dominant.name);
        let _ = writeln!(
            json,
            "  \"obs\": {{ \"workload\": \"traced tdp_distribution rep, {traced_threads} \
             threads\", \"spans\": {spans}, \"distinct_names\": {names}, \
             \"dominant_span\": {dominant_name}, \"dominant_share\": {:.4}, \
             \"critical_path_nodes\": {path_len}, \
             \"critical_path_coverage_percent\": {coverage:.1} }},",
            dominant.share
        );
    }
    let _ = writeln!(json, "  \"entries\": [");
    for (i, &(threads, seconds, tps)) in entries.iter().enumerate() {
        let comma = if i + 1 < entries.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"threads\": {threads}, \"seconds\": {seconds:.6}, \
             \"trials_per_sec\": {tps:.1}, \"speedup\": {:.3} }}{comma}",
            t1 / seconds
        );
    }
    let _ = writeln!(json, "  ]");
    json.push('}');
    json.push('\n');
    Ok(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_study::{ArtifactId, Study};

    #[test]
    fn experiment_ids_mirror_the_artifact_graph() {
        assert_eq!(EXPERIMENT_IDS.len(), ArtifactId::ALL.len());
        for (name, id) in EXPERIMENT_IDS.iter().zip(ArtifactId::ALL) {
            assert_eq!(*name, id.name());
        }
    }

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
