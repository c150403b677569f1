//! Trace analytics: per-span-name aggregates, the critical path, and
//! folded-stack flamegraph export.
//!
//! All three run over one [`SpanForest`] rebuilt from a parsed
//! [`TraceLog`]:
//!
//! * **Aggregates** answer "which *kind* of work dominated": per span
//!   name, the count, total and self time (duration minus direct
//!   children, clamped), exact p50/p95/p99 over the name's durations,
//!   and the share of the whole run's self time.
//! * The **critical path** answers "which *chain* of spans bounded
//!   wall time": starting from the longest root, it descends into the
//!   child that finished last. Each node contributes its duration
//!   minus the chosen child's, so the contributions telescope to
//!   exactly the root's duration — the path provably accounts for the
//!   run it explains.
//! * The **idlest map** answers "which parallel map left cores idle":
//!   the `exec_par_map` with the most idle worker time,
//!   `workers × dur − Σ exec_chunk`, and the `study_node` it ran in.
//! * **Folded stacks** (`root;child;leaf self_ns`, one line per
//!   distinct stack) feed any standard flamegraph renderer
//!   (`flamegraph.pl`, inferno, speedscope).

use std::cmp::Reverse;
use std::collections::BTreeMap;

use mpvar_trace::names;
use mpvar_trace::schema::{FieldScalar, SpanEntry, TraceLog};
use mpvar_trace::sink::fmt_ns;

use crate::forest::SpanForest;
use crate::ObsError;

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanAggregate {
    /// Span name.
    pub name: String,
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of their durations, nanoseconds.
    pub total_ns: u64,
    /// Sum of their self times (duration minus direct children,
    /// clamped at zero), nanoseconds.
    pub self_ns: u64,
    /// This name's fraction of the whole trace's self time, `[0, 1]`.
    pub share: f64,
    /// Exact median of the per-span durations, nanoseconds.
    pub p50_ns: u64,
    /// Exact 95th percentile of the per-span durations, nanoseconds.
    pub p95_ns: u64,
    /// Exact 99th percentile of the per-span durations, nanoseconds.
    pub p99_ns: u64,
}

/// One node on the critical path, root first.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPathNode {
    /// Span name.
    pub name: String,
    /// Span id (for cross-referencing the raw trace).
    pub span_id: u64,
    /// The span's full duration, nanoseconds.
    pub dur_ns: u64,
    /// What this node alone adds to the path: its duration minus the
    /// chosen child's (the full duration at the leaf). Contributions
    /// telescope to the root's duration.
    pub contribution_ns: u64,
}

/// The parallel map that left the most worker time idle.
#[derive(Debug, Clone, PartialEq)]
pub struct IdlestMap {
    /// Span id of its `exec_par_map` span.
    pub span_id: u64,
    /// The size of its index domain (`n`).
    pub n: u64,
    /// The threads it could use (`workers`).
    pub workers: u64,
    /// Its duration, nanoseconds.
    pub dur_ns: u64,
    /// `workers × dur` minus its chunks' durations, nanoseconds.
    pub idle_ns: u64,
    /// The `artifact` of the `study_node` it ran in, if any.
    pub artifact: Option<String>,
}

/// The complete analytic view of one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceProfile {
    /// Per-name aggregates, descending by self time.
    pub aggregates: Vec<SpanAggregate>,
    /// The critical path through the longest root, root first.
    pub critical_path: Vec<CriticalPathNode>,
    /// The map with the most idle worker time, if any map could use
    /// more than one thread.
    pub idlest_map: Option<IdlestMap>,
    /// Total self time across every span, nanoseconds.
    pub total_self_ns: u64,
    /// Wall-clock extent of the trace (latest end minus earliest
    /// start), nanoseconds.
    pub wall_ns: u64,
}

impl TraceProfile {
    /// Sum of the critical path's contributions (telescopes to the
    /// dominant root's duration).
    pub fn critical_path_ns(&self) -> u64 {
        self.critical_path.iter().map(|n| n.contribution_ns).sum()
    }

    /// The aggregate for `name`, if any span carried it.
    pub fn aggregate(&self, name: &str) -> Option<&SpanAggregate> {
        self.aggregates.iter().find(|a| a.name == name)
    }
}

/// Exact nearest-rank percentile over an ascending-sorted slice.
fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Profiles a parsed trace document.
///
/// # Errors
///
/// [`ObsError::EmptyTrace`] when the document holds no spans;
/// [`ObsError::Forest`] when the spans cannot form a forest.
pub fn profile(log: &TraceLog) -> Result<TraceProfile, ObsError> {
    profile_spans(log.spans.clone())
}

/// Profiles a raw span list (any order).
///
/// # Errors
///
/// As [`profile`].
pub fn profile_spans(spans: Vec<SpanEntry>) -> Result<TraceProfile, ObsError> {
    if spans.is_empty() {
        return Err(ObsError::EmptyTrace);
    }
    let forest = SpanForest::build(spans)?;

    struct Acc {
        count: u64,
        total_ns: u64,
        self_ns: u64,
        durs: Vec<u64>,
    }
    let mut by_name: BTreeMap<&str, Acc> = BTreeMap::new();
    for i in 0..forest.spans().len() {
        let span = forest.span(i);
        let acc = by_name.entry(span.name.as_str()).or_insert(Acc {
            count: 0,
            total_ns: 0,
            self_ns: 0,
            durs: Vec::new(),
        });
        acc.count += 1;
        acc.total_ns += span.dur_ns;
        acc.self_ns += forest.self_time_ns(i);
        acc.durs.push(span.dur_ns);
    }
    let total_self_ns: u64 = by_name.values().map(|a| a.self_ns).sum();
    let mut aggregates: Vec<SpanAggregate> = by_name
        .into_iter()
        .map(|(name, mut acc)| {
            acc.durs.sort_unstable();
            SpanAggregate {
                name: name.to_string(),
                count: acc.count,
                total_ns: acc.total_ns,
                self_ns: acc.self_ns,
                share: if total_self_ns == 0 {
                    0.0
                } else {
                    acc.self_ns as f64 / total_self_ns as f64
                },
                p50_ns: percentile_sorted(&acc.durs, 0.50),
                p95_ns: percentile_sorted(&acc.durs, 0.95),
                p99_ns: percentile_sorted(&acc.durs, 0.99),
            }
        })
        .collect();
    aggregates.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));

    Ok(TraceProfile {
        critical_path: critical_path(&forest),
        idlest_map: idlest_map(&forest),
        total_self_ns,
        wall_ns: forest.extent_ns(),
        aggregates,
    })
}

/// The critical path through the forest's longest root: at every node,
/// descend into the child that **finished last** (that child bounded
/// when the parent could complete).
fn critical_path(forest: &SpanForest) -> Vec<CriticalPathNode> {
    let Some(&root) = forest
        .roots()
        .iter()
        .max_by_key(|&&i| (forest.span(i).dur_ns, std::cmp::Reverse(forest.span(i).id)))
    else {
        return Vec::new();
    };
    let mut path = Vec::new();
    let mut at = root;
    loop {
        let span = forest.span(at);
        let next = forest.children(at).iter().copied().max_by_key(|&c| {
            (
                forest.span(c).start_ns + forest.span(c).dur_ns,
                forest.span(c).id,
            )
        });
        let child_dur = next.map(|c| forest.span(c).dur_ns).unwrap_or(0);
        path.push(CriticalPathNode {
            name: span.name.clone(),
            span_id: span.id,
            dur_ns: span.dur_ns,
            contribution_ns: span.dur_ns.saturating_sub(child_dur),
        });
        match next {
            Some(c) => at = c,
            None => return path,
        }
    }
}

/// The `exec_par_map` with the most idle worker time (ties go to the
/// lower span id), found by walking every root down with the nearest
/// enclosing `study_node`'s artifact in hand. Maps with fewer than two
/// `workers` ran inline and are skipped.
fn idlest_map(forest: &SpanForest) -> Option<IdlestMap> {
    let num = |span: &SpanEntry, key: &str| match span.fields.get(key) {
        Some(FieldScalar::Num(v)) if *v >= 0.0 => Some(*v as u64),
        _ => None,
    };
    let mut maps = Vec::new();
    let mut stack: Vec<(usize, Option<&str>)> = forest.roots().iter().map(|&r| (r, None)).collect();
    while let Some((i, artifact)) = stack.pop() {
        let span = forest.span(i);
        let artifact = match span.fields.get("artifact") {
            Some(FieldScalar::Str(a)) if span.name == names::SPAN_STUDY_NODE => Some(a.as_str()),
            _ => artifact,
        };
        stack.extend(forest.children(i).iter().map(|&c| (c, artifact)));
        let workers = num(span, "workers").unwrap_or(0);
        if span.name != names::SPAN_EXEC_PAR_MAP || workers < 2 {
            continue;
        }
        let chunk_ns: u64 = forest
            .children(i)
            .iter()
            .map(|&c| forest.span(c))
            .filter(|c| c.name == names::SPAN_EXEC_CHUNK)
            .map(|c| c.dur_ns)
            .sum();
        maps.push(IdlestMap {
            span_id: span.id,
            n: num(span, "n").unwrap_or(0),
            workers,
            dur_ns: span.dur_ns,
            idle_ns: workers.saturating_mul(span.dur_ns).saturating_sub(chunk_ns),
            artifact: artifact.map(str::to_string),
        });
    }
    maps.into_iter()
        .max_by_key(|m| (m.idle_ns, Reverse(m.span_id)))
}

/// Folded-stack flamegraph export: one `a;b;c self_ns` line per
/// distinct root-to-span stack, self-time weighted, identical stacks
/// merged, lines sorted — the input format of `flamegraph.pl`,
/// inferno, and speedscope.
pub fn folded_stacks(forest: &SpanForest) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut stack: Vec<&str> = Vec::new();
    // Iterative DFS carrying an explicit pop marker so the name stack
    // mirrors the tree path.
    enum Step {
        Enter(usize),
        Leave,
    }
    let mut work: Vec<Step> = forest
        .roots()
        .iter()
        .rev()
        .map(|&r| Step::Enter(r))
        .collect();
    while let Some(step) = work.pop() {
        match step {
            Step::Leave => {
                stack.pop();
            }
            Step::Enter(i) => {
                stack.push(&forest.span(i).name);
                let self_ns = forest.self_time_ns(i);
                if self_ns > 0 {
                    *folded.entry(stack.join(";")).or_insert(0) += self_ns;
                }
                work.push(Step::Leave);
                for &c in forest.children(i).iter().rev() {
                    work.push(Step::Enter(c));
                }
            }
        }
    }
    let mut out = String::new();
    for (stack, ns) in folded {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// Renders a profile as the human report `repro profile` prints: the
/// aggregate table (descending self time), then the critical path with
/// its wall-time coverage.
pub fn render_profile(profile: &TraceProfile) -> String {
    let mut out = String::new();
    out.push_str("span aggregates (by self time):\n");
    out.push_str(&format!(
        "  {:<24} {:>7} {:>10} {:>10} {:>6} {:>10} {:>10} {:>10}\n",
        "name", "count", "total", "self", "share", "p50", "p95", "p99"
    ));
    for a in &profile.aggregates {
        out.push_str(&format!(
            "  {:<24} {:>7} {:>10} {:>10} {:>5.1}% {:>10} {:>10} {:>10}\n",
            a.name,
            a.count,
            fmt_ns(a.total_ns),
            fmt_ns(a.self_ns),
            a.share * 100.0,
            fmt_ns(a.p50_ns),
            fmt_ns(a.p95_ns),
            fmt_ns(a.p99_ns),
        ));
    }
    let path_ns = profile.critical_path_ns();
    let coverage = if profile.wall_ns == 0 {
        0.0
    } else {
        path_ns as f64 / profile.wall_ns as f64 * 100.0
    };
    out.push_str(&format!(
        "critical path ({} of {} wall, {coverage:.1}% coverage):\n",
        fmt_ns(path_ns),
        fmt_ns(profile.wall_ns),
    ));
    for node in &profile.critical_path {
        out.push_str(&format!(
            "  {:<24} span {:>6}  dur {:>10}  +{}\n",
            node.name,
            node.span_id,
            fmt_ns(node.dur_ns),
            fmt_ns(node.contribution_ns),
        ));
    }
    if let Some(map) = &profile.idlest_map {
        out.push_str(&format!(
            "idlest parallel map: span {} (n = {}) in {}: {} idle of {} workers x {}\n",
            map.span_id,
            map.n,
            map.artifact
                .as_deref()
                .map_or("no study node".to_string(), |a| format!("`{a}`")),
            fmt_ns(map.idle_ns),
            map.workers,
            fmt_ns(map.dur_ns),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap as Map;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, dur_ns: u64) -> SpanEntry {
        SpanEntry {
            id,
            parent,
            name: name.to_string(),
            thread: 0,
            start_ns,
            dur_ns,
            fields: Map::new(),
        }
    }

    /// root(0..100) -> a(0..40), b(45..95); b -> c(50..90).
    fn sample() -> Vec<SpanEntry> {
        vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 0, 40),
            span(3, Some(1), "b", 45, 50),
            span(4, Some(3), "c", 50, 40),
        ]
    }

    #[test]
    fn aggregates_share_and_percentiles() {
        let p = profile_spans(sample()).expect("profile");
        // Self times: root 100-90=10, a 40, b 50-40=10, c 40 → 100.
        assert_eq!(p.total_self_ns, 100);
        assert_eq!(p.aggregates[0].name, "a"); // ties broken by name
        let root = p.aggregate("root").expect("root aggregate");
        assert_eq!(root.count, 1);
        assert_eq!(root.total_ns, 100);
        assert_eq!(root.self_ns, 10);
        assert!((root.share - 0.10).abs() < 1e-12);
        assert_eq!(root.p50_ns, 100);
    }

    #[test]
    fn critical_path_telescopes_to_the_root_duration() {
        let p = profile_spans(sample()).expect("profile");
        let names: Vec<&str> = p.critical_path.iter().map(|n| n.name.as_str()).collect();
        // b ends at 95 > a's 40; c is b's only child.
        assert_eq!(names, ["root", "b", "c"]);
        assert_eq!(p.critical_path_ns(), 100);
        assert_eq!(p.wall_ns, 100);
        let contributions: Vec<u64> = p.critical_path.iter().map(|n| n.contribution_ns).collect();
        assert_eq!(contributions, [50, 10, 40]);
    }

    #[test]
    fn folded_stacks_merge_and_weight_by_self_time() {
        let forest = SpanForest::build(sample()).expect("forest");
        let folded = folded_stacks(&forest);
        let expect = "root 10\nroot;a 40\nroot;b 10\nroot;b;c 40\n";
        assert_eq!(folded, expect);
    }

    /// `span` with fields.
    fn with(mut span: SpanEntry, fields: &[(&str, FieldScalar)]) -> SpanEntry {
        for (k, v) in fields {
            span.fields.insert(k.to_string(), v.clone());
        }
        span
    }

    fn map(id: u64, parent: u64, start_ns: u64, dur_ns: u64, workers: f64) -> SpanEntry {
        with(
            span(id, Some(parent), names::SPAN_EXEC_PAR_MAP, start_ns, dur_ns),
            &[
                ("n", FieldScalar::Num(16.0)),
                ("workers", FieldScalar::Num(workers)),
            ],
        )
    }

    fn node(id: u64, start_ns: u64, dur_ns: u64, artifact: &str) -> SpanEntry {
        with(
            span(id, Some(1), names::SPAN_STUDY_NODE, start_ns, dur_ns),
            &[("artifact", FieldScalar::Str(artifact.to_string()))],
        )
    }

    fn chunk(id: u64, parent: u64, start_ns: u64, dur_ns: u64) -> SpanEntry {
        span(id, Some(parent), names::SPAN_EXEC_CHUNK, start_ns, dur_ns)
    }

    #[test]
    fn idlest_map_names_the_map_and_its_study_node() {
        let spans = vec![
            span(1, None, "study_materialize", 0, 1000),
            // fig5's map: 2 × 100 − (90 + 80) = 30 idle.
            node(2, 0, 100, "fig5"),
            map(3, 2, 0, 100, 2.0),
            chunk(4, 3, 0, 90),
            chunk(5, 3, 0, 80),
            // yield_6sigma's map: 2 × 200 − (200 + 50) = 150 idle; the
            // map nested in its first chunk is 2 × 40 − 80 = 0 idle.
            node(6, 100, 200, "yield_6sigma"),
            map(7, 6, 100, 200, 2.0),
            chunk(8, 7, 100, 200),
            chunk(9, 7, 100, 50),
            map(10, 8, 120, 40, 2.0),
            chunk(11, 10, 120, 40),
            chunk(12, 10, 120, 40),
            // An inline map (one worker, no chunks) is never idle.
            map(13, 1, 300, 700, 1.0),
        ];
        let p = profile_spans(spans).expect("profile");
        assert_eq!(
            p.idlest_map,
            Some(IdlestMap {
                span_id: 7,
                n: 16,
                workers: 2,
                dur_ns: 200,
                idle_ns: 150,
                artifact: Some("yield_6sigma".to_string()),
            })
        );
        let text = render_profile(&p);
        assert!(
            text.contains("idlest parallel map: span 7 (n = 16) in `yield_6sigma`"),
            "{text}"
        );
        // A trace with no parallel map names none.
        assert_eq!(profile_spans(sample()).expect("profile").idlest_map, None);
    }

    #[test]
    fn empty_trace_is_a_named_error() {
        assert_eq!(profile_spans(Vec::new()), Err(ObsError::EmptyTrace));
    }

    #[test]
    fn render_mentions_coverage() {
        let p = profile_spans(sample()).expect("profile");
        let text = render_profile(&p);
        assert!(text.contains("100.0% coverage"), "{text}");
        assert!(text.contains("critical path"), "{text}");
    }
}
