//! The artifact dependency graph: the artifact table, the typed node
//! identifiers it declares, and deterministic evaluation planning.
//!
//! The paper's deliverables form a small DAG — Fig. 4 simulates the
//! Table I worst corners, Tables II/III and ablation A1 re-use the
//! Fig. 4 delays, the write-time and word-line studies re-use the
//! Table I corners — and every other artefact is a root. [`plan`] turns
//! a requested artifact set into topologically-ordered *waves*: within
//! a wave every node's inputs are already available, so the whole wave
//! can be dispatched in parallel without changing any result.

use crate::error::unknown_artifact;
use mpvar_core::CoreError;

/// The artifact table: one row per graph node, in canonical report
/// order (the order of `repro all` and of the `results/` goldens).
///
/// ```text
/// Variant, codec tag, "string id", ResultType, producer(InputType, ...) [Knob, ...] text?;
/// ```
///
/// The variant names both the [`ArtifactId`] and the
/// [`ArtifactValue`](crate::ArtifactValue) variant. The codec tag is the
/// byte that leads the value's payload and is fixed forever once
/// assigned. The producer is an `mpvar-core` runner called as
/// `producer(ctx, &input, ...)`; each input is the result type of
/// another row, and the node's dependencies are those inputs' ids, in
/// the order listed. The bracketed list names the context knob groups
/// the producer and its helpers read (`cache::Knob`); the node's cache
/// key covers those groups, technology and cell, and its inputs' keys,
/// so listing a group a producer reads is mandatory and listing one it
/// does not read only costs a needless miss. A row marked `text`
/// renders its `report()` string and `to_csv()`; every other result
/// renders its `report()` table.
///
/// `artifact_table!(generator)` hands the rows to `generator`, so each
/// module derives its part from the one table: this module the ids,
/// `value` the values, inputs and producers, `codec` the tags, `cache`
/// the knob groups.
macro_rules! artifact_table {
    ($generator:ident) => {
        $generator! {
            /// Table I — worst-case variability corner per patterning option.
            Table1, 1, "table1", Table1, table1() [Overlay];
            /// Fig. 4 — worst-case wire-variability impact on `td`.
            Fig4, 2, "fig4", Fig4, fig4(Table1) [Read, Sizes];
            /// Table II — formula versus simulation, nominal `td`.
            Table2, 3, "table2", Table2, table2(Fig4) [Read];
            /// Table III — formula versus simulation, worst-case `tdp`.
            Table3, 4, "table3", Table3, table3(Table1, Fig4) [Read];
            /// Fig. 5 — Monte-Carlo `tdp` distributions.
            Fig5, 5, "fig5", Fig5, fig5() [Sizes, Overlay, Mc] text;
            /// Table IV — `tdp` sigma per option and overlay budget.
            Table4, 6, "table4", Table4, table4() [Sizes, Sweep, Overlay, Mc];
            /// Ablation A1 — lumped vs Elmore vs simulated delay.
            AblationDelay, 7, "ablation-delay", AblationDelayModels,
                ablation_delay_models(Fig4) [Read];
            /// Ablation A2 — bit-line drawn-width sensitivity.
            AblationBlWidth, 8, "ablation-bl-width", AblationBlWidth,
                ablation_bl_width() [Overlay];
            /// Ablation A3 — SADP R_bl / R_VSS anti-correlation.
            AblationSadpVss, 9, "ablation-sadp-vss", AblationSadpAnticorrelation,
                ablation_sadp_anticorrelation() [Overlay, Mc];
            /// Extension E1 — LELE versus the paper's options.
            ExtensionLe2, 10, "extension-le2", ExtensionLe2,
                extension_le2() [Sizes, Overlay, Mc];
            /// Extension E2 — line-edge roughness on top of MP.
            ExtensionLer, 11, "extension-ler", ExtensionLer,
                extension_ler() [Read, Sizes, Overlay, Mc];
            /// Extension — per-parameter tdp sensitivities.
            ExtensionSensitivity, 12, "extension-sensitivity", SensitivityMatrix,
                extension_sensitivity() [Sizes] text;
            /// Extension E3 — N10 versus N7 node scaling.
            ExtensionScaling, 13, "extension-scaling", ExtensionScaling,
                extension_scaling() [Sizes, Overlay, Mc];
            /// Extension — rare-event yield: importance-sampled P_fail to 6σ.
            Yield6Sigma, 14, "yield_6sigma", YieldTable,
                yield_6sigma() [Read, Sizes, Overlay, Yield];
            /// Write path — nominal and worst-corner flip time per height.
            WriteTime, 15, "write_time", WriteTime, write_time(Table1) [Write];
            /// Write path — Monte-Carlo write-time-penalty spread per option.
            WriteMargin, 16, "write_margin", WriteMargin, write_margin() [Write];
            /// Sense periphery — sense-amp offset against the MP-skewed RC.
            SenseMargin, 17, "sense_margin", SenseMargin, sense_margin() [Read, Write];
            /// Word line — near versus far column delay per option.
            WlDelay, 18, "wl_delay", WlDelay, wl_delay(Table1) [Read, Write];
            /// Write path — rare-event write-failure probability per option.
            WriteYield, 19, "write_yield", WriteYieldTable,
                write_yield() [Read, Write];
        }
    };
}

pub(crate) use artifact_table;

macro_rules! artifact_ids {
    ($(
        $(#[$doc:meta])* $variant:ident, $tag:literal, $name:literal, $ty:ident,
        $producer:ident($($input:ident),*) $reads:tt $($text:ident)?;
    )+) => {
        /// Identifier of one paper deliverable (table, figure, ablation,
        /// or extension) in the artifact graph.
        ///
        /// The variant order is the canonical report order used by
        /// `repro all` and the committed `results/` goldens.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[non_exhaustive]
        pub enum ArtifactId {
            $($(#[$doc])* $variant,)+
        }

        impl ArtifactId {
            /// Every artifact, in canonical report order.
            pub const ALL: [ArtifactId; [$($name),+].len()] = [$(ArtifactId::$variant),+];

            /// The stable string id (e.g. `table1`, `extension-le2`) used
            /// by the `repro` CLI and the `results/<id>.csv` goldens.
            pub fn name(self) -> &'static str {
                match self {
                    $(ArtifactId::$variant => $name,)+
                }
            }
        }
    };
}

artifact_table!(artifact_ids);

impl ArtifactId {
    /// Parses a CLI/golden string id (`yield` is accepted as an alias
    /// for `yield_6sigma`).
    pub fn parse(s: &str) -> Option<ArtifactId> {
        let s = if s == "yield" { "yield_6sigma" } else { s };
        ArtifactId::ALL.into_iter().find(|id| id.name() == s)
    }

    /// Like [`ArtifactId::parse`] but surfacing the engine's error.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidParameter`] for an unknown id.
    pub fn try_parse(s: &str) -> Result<ArtifactId, CoreError> {
        ArtifactId::parse(s).ok_or_else(unknown_artifact)
    }
}

impl std::fmt::Display for ArtifactId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Expands `requested` to its dependency closure and orders it into
/// topological waves.
///
/// Every node appears exactly once; a node's dependencies always sit in
/// an earlier wave. Wave membership and intra-wave order depend only on
/// the requested set (nodes are sorted canonically inside each wave),
/// so the plan — and therefore the evaluation — is deterministic.
pub fn plan(requested: &[ArtifactId]) -> Vec<Vec<ArtifactId>> {
    // Dependency closure.
    let mut needed: Vec<ArtifactId> = Vec::new();
    let mut stack: Vec<ArtifactId> = requested.to_vec();
    while let Some(id) = stack.pop() {
        if !needed.contains(&id) {
            needed.push(id);
            stack.extend_from_slice(id.dependencies());
        }
    }
    needed.sort_unstable();

    // Kahn levels: wave k holds nodes whose longest dependency chain
    // has length k.
    let mut waves: Vec<Vec<ArtifactId>> = Vec::new();
    let mut placed: Vec<ArtifactId> = Vec::new();
    while placed.len() < needed.len() {
        let wave: Vec<ArtifactId> = needed
            .iter()
            .copied()
            .filter(|id| {
                !placed.contains(id) && id.dependencies().iter().all(|d| placed.contains(d))
            })
            .collect();
        assert!(!wave.is_empty(), "artifact graph has a cycle");
        placed.extend_from_slice(&wave);
        waves.push(wave);
    }
    waves
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for id in ArtifactId::ALL {
            assert_eq!(ArtifactId::parse(id.name()), Some(id));
        }
        assert_eq!(ArtifactId::parse("yield"), Some(ArtifactId::Yield6Sigma));
        assert_eq!(ArtifactId::parse("tableX"), None);
        assert!(ArtifactId::try_parse("tableX").is_err());
    }

    #[test]
    fn dependencies_precede_dependents() {
        let waves = plan(&ArtifactId::ALL);
        let mut seen: Vec<ArtifactId> = Vec::new();
        for wave in &waves {
            for id in wave {
                for dep in id.dependencies() {
                    assert!(seen.contains(dep), "{id}: dep {dep} not in earlier wave");
                }
            }
            seen.extend_from_slice(wave);
        }
        assert_eq!(seen.len(), ArtifactId::ALL.len());
    }

    #[test]
    fn table3_plan_closure() {
        let waves = plan(&[ArtifactId::Table3]);
        assert_eq!(
            waves,
            vec![
                vec![ArtifactId::Table1],
                vec![ArtifactId::Fig4],
                vec![ArtifactId::Table3],
            ]
        );
    }

    #[test]
    fn duplicate_requests_collapse() {
        let waves = plan(&[ArtifactId::Table1, ArtifactId::Table1]);
        assert_eq!(waves, vec![vec![ArtifactId::Table1]]);
    }
}
