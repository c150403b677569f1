//! The catalogue of every metric the benchmark reports: its unit, which
//! direction is better, the workloads it exists on, and, for end-to-end
//! metrics, the share by which its median may worsen before `compare`
//! calls it a regression.
//!
//! `BENCHMARK.json` lists the metrics every workload has; a test keeps
//! it in step with this table.

use crate::workload::Workload::{self, CheckFast, PaperAll, QuickAll, QuickAllT1, ServeMix};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    #[cfg(test)]
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    /// Name, as printed and as keyed in `results.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// median may worsen.
    pub bound: f64,
    /// Whether `BENCHMARK.json` lists it; listed metrics exist on every
    /// workload.
    pub listed: bool,
    /// The workloads it exists on; empty for every workload.
    pub only: &'static [Workload],
}

impl Metric {
    /// Whether the metric exists on `workload`.
    pub fn applies_to(&self, workload: Workload) -> bool {
        self.only.is_empty() || self.only.contains(&workload)
    }
}

const PIPELINES: &[Workload] = &[QuickAll, QuickAllT1, PaperAll, CheckFast];
const PARALLEL: &[Workload] = &[QuickAll, PaperAll, CheckFast];
const SERVE: &[Workload] = &[ServeMix];

const fn listed(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        listed: true,
        only: &[],
    }
}

const fn on(
    only: &'static [Workload],
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        listed: false,
        only,
    }
}

/// A per-layer metric every workload reports.
const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    listed(name, unit, better, 0.0)
}

/// A per-layer count every workload reports; zero when the layer did
/// no such work.
const fn count(name: &'static str) -> Metric {
    layer(name, "count", Better::Lower)
}

use Better::{Higher, Lower};

/// End-to-end metrics, measured with tracing off.
///
/// `BENCHMARK.json` lists the metrics every workload has that hold a
/// bound from run to run on a shared 2-core machine, whose speed drifts
/// by 5–20% for minutes at a time. `cpu_s` varies by up to 18% between
/// `serve_mix` runs (its cold requests compute two at a time), and
/// `peak_rss_mb` of `paper_all` is bimodal (41 or 52 MB, by how
/// allocations land in the allocator's per-thread arenas).
/// `fail_ratio` and `output_mismatches` are zero on a correct run, so
/// `BENCHMARK.json` carries them as the `failed` and `correct` fields.
pub const END_TO_END: &[Metric] = &[
    listed("wall_s", "s", Lower, 0.25),
    listed("setup_s", "s", Lower, 0.25),
    on(&[], "cpu_s", "s", Lower, 0.10),
    on(&[], "peak_rss_mb", "MB", Lower, 0.10),
    on(&[], "fail_ratio", "ratio", Lower, 0.0),
    on(&[], "output_mismatches", "count", Lower, 0.0),
    on(SERVE, "warm_p50_ms", "ms", Lower, 0.10),
    on(SERVE, "warm_p98_ms", "ms", Lower, 0.10),
    on(SERVE, "cold_p50_ms", "ms", Lower, 0.10),
    on(SERVE, "cold_p90_ms", "ms", Lower, 0.10),
    on(SERVE, "disk_p50_ms", "ms", Lower, 0.10),
    on(SERVE, "disk_p90_ms", "ms", Lower, 0.10),
    on(SERVE, "req_per_s", "1/s", Higher, 0.10),
];

/// Per-layer metrics, from the probes and from one traced execution.
/// Layer names are crate names.
pub const PER_LAYER: &[Metric] = &[
    layer("litho.apply_draw_ns", "ns", Lower),
    layer("litho.sample_draw_ns", "ns", Lower),
    layer("extract.track_ns", "ns", Lower),
    layer("core.formula_trial_ns", "ns", Lower),
    layer("core.mc_trial_ns", "ns", Lower),
    layer("yield.controller_ns_per_trial", "ns", Lower),
    layer("spice.transient_ms", "ms", Lower),
    layer("sram.read_ms", "ms", Lower),
    layer("sram.read_batch_ms_per_lane", "ms", Lower),
    layer("sram.write_ms", "ms", Lower),
    layer("sram.write_batch_ms_per_lane", "ms", Lower),
    layer("study.encode_us", "us", Lower),
    layer("study.decode_us", "us", Lower),
    layer("store.disk_put_ms", "ms", Lower),
    layer("store.disk_get_us", "us", Lower),
    on(PIPELINES, "study.node_s.yield_6sigma", "s", Lower, 0.0),
    on(PIPELINES, "study.node_s.write_yield", "s", Lower, 0.0),
    layer("study.node_s.fig4", "s", Lower),
    layer("study.node_s.table4", "s", Lower),
    layer("study.node_s.write_time", "s", Lower),
    layer("study.node_s.fig5", "s", Lower),
    on(PIPELINES, "yield.run_s", "s", Lower, 0.0),
    count("yield.trials"),
    count("yield.zero_weight_trials"),
    count("yield.rounds"),
    count("mc.trials"),
    layer("spice.transient_self_s", "s", Lower),
    count("spice.transient_steps"),
    count("spice.nr_iterations"),
    count("spice.batch_lane_trials"),
    count("spice.batch_fallouts"),
    count("exec.chunks"),
    on(PARALLEL, "exec.imbalance", "ratio", Lower, 0.0),
    on(&[QuickAll], "exec.speedup", "ratio", Higher, 0.0),
    count("store.get_calls"),
    count("store.put_calls"),
    layer("store.get_busy_ms", "ms", Lower),
    layer("store.put_busy_ms", "ms", Lower),
    layer("store.disk_hits", "count", Higher),
    count("store.disk_writes"),
    count("serve.materializations"),
    layer("serve.deduped", "count", Higher),
    layer("serve.batched", "count", Higher),
    on(SERVE, "serve.server_warm_p50_ms", "ms", Lower, 0.0),
    on(SERVE, "serve.transport_ms", "ms", Lower, 0.0),
    layer("trace.overhead_pct", "%", Lower),
    layer("obs.unattributed_share", "ratio", Lower),
];

/// The catalogue entry named `name`.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpvar_trace::json::{parse_json, Json};

    fn entries<'a>(doc: &'a Json, key: &str) -> Vec<&'a mpvar_trace::json::Obj> {
        match doc.as_object().and_then(|o| o.get(key)) {
            Some(Json::Arr(items)) => items.iter().filter_map(Json::as_object).collect(),
            _ => panic!("BENCHMARK.json lacks `{key}`"),
        }
    }

    fn text(obj: &mpvar_trace::json::Obj, key: &str) -> String {
        mpvar_trace::json::get_str(obj, key)
            .expect("string field")
            .to_string()
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = parse_json(include_str!("../../../BENCHMARK.json")).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<&Metric> = table.iter().filter(|m| m.listed).collect();
            let declared = entries(&doc, key);
            assert_eq!(declared.len(), listed.len(), "{key}");
            for (entry, metric) in declared.iter().zip(listed) {
                assert_eq!(text(entry, "name"), metric.name);
                assert_eq!(text(entry, "unit"), metric.unit, "{}", metric.name);
                assert_eq!(
                    text(entry, "better"),
                    metric.better.as_str(),
                    "{}",
                    metric.name
                );
                if key == "end_to_end" {
                    let bound = mpvar_trace::json::get_f64(entry, "bound").expect("bound");
                    assert_eq!(bound, metric.bound, "{}", metric.name);
                }
            }
        }
        let workloads: Vec<String> = entries(&doc, "workloads")
            .iter()
            .map(|w| text(w, "name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
