//! Typed artifact values, their producers, and the rendered form.
//!
//! [`ArtifactValue`] is the sum of every structured experiment result;
//! the crate-private `produce` maps an [`ArtifactId`] to its `mpvar-core` runner,
//! feeding it the already-evaluated graph inputs. [`ArtifactValue::render`]
//! turns any value into the text + CSV [`Artifact`] the `repro` binary
//! writes and the golden gate compares.

use std::fmt::Write as _;
use std::sync::Arc;

use mpvar_core::experiments::{
    ablation_bl_width, ablation_delay_models, ablation_sadp_anticorrelation, extension_le2,
    extension_ler, extension_scaling, fig4, fig5, table1, table2, table3, table4, AblationBlWidth,
    AblationDelayModels, AblationSadpAnticorrelation, ExperimentContext, ExtensionLe2,
    ExtensionLer, ExtensionScaling, Fig4, Fig5, Table1, Table2, Table3, Table4,
};
use mpvar_core::rareevent::{yield_6sigma, YieldTable};
use mpvar_core::sensitivity::{sensitivity_profile, SensitivityProfile};
use mpvar_core::writeexp::{
    sense_margin, wl_delay, write_margin, write_time, write_yield, SenseMargin, WlDelay,
    WriteMargin, WriteTime, WriteYieldTable,
};
use mpvar_core::CoreError;
use mpvar_tech::PatterningOption;

use crate::graph::ArtifactId;

/// One rendered artefact: the human-readable report plus the CSV the
/// golden gate compares (empty for figure-style artefacts with no
/// tabular form).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Artifact {
    /// Artifact id string (e.g. `table1`).
    pub id: String,
    /// Human-readable report text.
    pub text: String,
    /// CSV rendering where tabular.
    pub csv: String,
}

/// The per-parameter sensitivity profiles of every implemented
/// patterning option — the structured form of the
/// `extension-sensitivity` artefact (previously rendered ad hoc by the
/// harness, now a first-class graph node).
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityMatrix {
    /// Array size the profiles were evaluated at.
    pub n: usize,
    /// One profile per option, in [`PatterningOption::ALL_WITH_EXTENSIONS`] order.
    pub profiles: Vec<SensitivityProfile>,
}

impl SensitivityMatrix {
    /// Renders the concatenated per-option report tables.
    pub(crate) fn report_text(&self) -> String {
        let mut text = String::new();
        for profile in &self.profiles {
            text.push_str(&profile.report().render());
            text.push('\n');
        }
        text
    }

    /// Renders the combined CSV.
    pub fn to_csv(&self) -> String {
        let mut csv = String::from("option,parameter,slope_pp_per_nm,curvature_pp_per_nm2\n");
        for profile in &self.profiles {
            for p in &profile.parameters {
                let _ = writeln!(
                    csv,
                    "{},{},{},{}",
                    profile.option, p.name, p.slope_pp_per_nm, p.curvature_pp_per_nm2
                );
            }
        }
        csv
    }
}

/// A structured experiment result, tagged by its graph node.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArtifactValue {
    /// Table I result.
    Table1(Table1),
    /// Fig. 4 result.
    Fig4(Fig4),
    /// Table II result.
    Table2(Table2),
    /// Table III result.
    Table3(Table3),
    /// Fig. 5 result.
    Fig5(Fig5),
    /// Table IV result.
    Table4(Table4),
    /// Ablation A1 result.
    AblationDelay(AblationDelayModels),
    /// Ablation A2 result.
    AblationBlWidth(AblationBlWidth),
    /// Ablation A3 result.
    AblationSadpVss(AblationSadpAnticorrelation),
    /// Extension E1 result.
    ExtensionLe2(ExtensionLe2),
    /// Extension E2 result.
    ExtensionLer(ExtensionLer),
    /// Sensitivity-profile matrix.
    ExtensionSensitivity(SensitivityMatrix),
    /// Extension E3 result.
    ExtensionScaling(ExtensionScaling),
    /// Rare-event yield table (importance-sampled P_fail to 6σ).
    Yield6Sigma(YieldTable),
    /// Write-time ladder result.
    WriteTime(WriteTime),
    /// Write-margin Monte-Carlo result.
    WriteMargin(WriteMargin),
    /// Sense-margin result.
    SenseMargin(SenseMargin),
    /// Word-line delay result.
    WlDelay(WlDelay),
    /// Write-yield result.
    WriteYield(WriteYieldTable),
}

impl ArtifactValue {
    /// The graph node this value belongs to.
    pub fn id(&self) -> ArtifactId {
        match self {
            ArtifactValue::Table1(_) => ArtifactId::Table1,
            ArtifactValue::Fig4(_) => ArtifactId::Fig4,
            ArtifactValue::Table2(_) => ArtifactId::Table2,
            ArtifactValue::Table3(_) => ArtifactId::Table3,
            ArtifactValue::Fig5(_) => ArtifactId::Fig5,
            ArtifactValue::Table4(_) => ArtifactId::Table4,
            ArtifactValue::AblationDelay(_) => ArtifactId::AblationDelay,
            ArtifactValue::AblationBlWidth(_) => ArtifactId::AblationBlWidth,
            ArtifactValue::AblationSadpVss(_) => ArtifactId::AblationSadpVss,
            ArtifactValue::ExtensionLe2(_) => ArtifactId::ExtensionLe2,
            ArtifactValue::ExtensionLer(_) => ArtifactId::ExtensionLer,
            ArtifactValue::ExtensionSensitivity(_) => ArtifactId::ExtensionSensitivity,
            ArtifactValue::ExtensionScaling(_) => ArtifactId::ExtensionScaling,
            ArtifactValue::Yield6Sigma(_) => ArtifactId::Yield6Sigma,
            ArtifactValue::WriteTime(_) => ArtifactId::WriteTime,
            ArtifactValue::WriteMargin(_) => ArtifactId::WriteMargin,
            ArtifactValue::SenseMargin(_) => ArtifactId::SenseMargin,
            ArtifactValue::WlDelay(_) => ArtifactId::WlDelay,
            ArtifactValue::WriteYield(_) => ArtifactId::WriteYield,
        }
    }

    /// Renders the text + CSV artefact.
    pub fn render(&self) -> Artifact {
        let (text, csv) = match self {
            ArtifactValue::Table1(v) => table_pair(&v.report()),
            ArtifactValue::Fig4(v) => table_pair(&v.report()),
            ArtifactValue::Table2(v) => table_pair(&v.report()),
            ArtifactValue::Table3(v) => table_pair(&v.report()),
            ArtifactValue::Fig5(v) => {
                let mut csv = String::from("option,tdp_percent\n");
                for d in &v.distributions {
                    for &s in d.samples_percent() {
                        let _ = writeln!(csv, "{},{s}", d.option());
                    }
                }
                (v.report(), csv)
            }
            ArtifactValue::Table4(v) => table_pair(&v.report()),
            ArtifactValue::AblationDelay(v) => table_pair(&v.report()),
            ArtifactValue::AblationBlWidth(v) => table_pair(&v.report()),
            ArtifactValue::AblationSadpVss(v) => table_pair(&v.report()),
            ArtifactValue::ExtensionLe2(v) => table_pair(&v.report()),
            ArtifactValue::ExtensionLer(v) => table_pair(&v.report()),
            ArtifactValue::ExtensionSensitivity(v) => (v.report_text(), v.to_csv()),
            ArtifactValue::ExtensionScaling(v) => table_pair(&v.report()),
            ArtifactValue::Yield6Sigma(v) => table_pair(&v.report()),
            ArtifactValue::WriteTime(v) => table_pair(&v.report()),
            ArtifactValue::WriteMargin(v) => table_pair(&v.report()),
            ArtifactValue::SenseMargin(v) => table_pair(&v.report()),
            ArtifactValue::WlDelay(v) => table_pair(&v.report()),
            ArtifactValue::WriteYield(v) => table_pair(&v.report()),
        };
        Artifact {
            id: self.id().name().to_string(),
            text,
            csv,
        }
    }
}

fn table_pair(t: &mpvar_core::report::TextTable) -> (String, String) {
    (t.render(), t.to_csv())
}

/// Projection from the tagged sum back to a concrete result type.
///
/// Implemented by every structured experiment output, this is what lets
/// [`crate::Study::get`] hand back strongly-typed artifacts while the
/// cache stores one uniform value.
pub trait ArtifactData: Sized {
    /// The graph node producing this type.
    const ID: ArtifactId;

    /// Projects the tagged value; `None` when the variant mismatches.
    fn project(value: &ArtifactValue) -> Option<&Self>;
}

macro_rules! artifact_data {
    ($ty:ty, $variant:ident) => {
        impl ArtifactData for $ty {
            const ID: ArtifactId = ArtifactId::$variant;

            fn project(value: &ArtifactValue) -> Option<&Self> {
                match value {
                    ArtifactValue::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    };
}

artifact_data!(Table1, Table1);
artifact_data!(Fig4, Fig4);
artifact_data!(Table2, Table2);
artifact_data!(Table3, Table3);
artifact_data!(Fig5, Fig5);
artifact_data!(Table4, Table4);
artifact_data!(AblationDelayModels, AblationDelay);
artifact_data!(AblationBlWidth, AblationBlWidth);
artifact_data!(AblationSadpAnticorrelation, AblationSadpVss);
artifact_data!(ExtensionLe2, ExtensionLe2);
artifact_data!(ExtensionLer, ExtensionLer);
artifact_data!(SensitivityMatrix, ExtensionSensitivity);
artifact_data!(ExtensionScaling, ExtensionScaling);
artifact_data!(YieldTable, Yield6Sigma);
artifact_data!(WriteTime, WriteTime);
artifact_data!(WriteMargin, WriteMargin);
artifact_data!(SenseMargin, SenseMargin);
artifact_data!(WlDelay, WlDelay);
artifact_data!(WriteYieldTable, WriteYield);

/// A strongly-typed handle to a cached artifact value.
///
/// Cheap to clone (it shares the cache's `Arc`); derefs to the concrete
/// result type.
#[derive(Debug, Clone)]
pub struct TypedArtifact<T: ArtifactData> {
    value: Arc<ArtifactValue>,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: ArtifactData> TypedArtifact<T> {
    /// Wraps a tagged value; `None` when the variant mismatches `T`.
    pub fn new(value: Arc<ArtifactValue>) -> Option<Self> {
        T::project(&value)?;
        Some(Self {
            value,
            _marker: std::marker::PhantomData,
        })
    }

    /// The shared tagged value.
    pub fn value(&self) -> &Arc<ArtifactValue> {
        &self.value
    }
}

impl<T: ArtifactData> std::ops::Deref for TypedArtifact<T> {
    type Target = T;

    fn deref(&self) -> &T {
        T::project(&self.value).expect("TypedArtifact variant checked at construction")
    }
}

/// Runs the producer of `id`, reading graph inputs from `deps` (the
/// dependency values, in [`ArtifactId::dependencies`] order).
///
/// # Errors
///
/// Propagates the underlying experiment failure.
pub(crate) fn produce(
    id: ArtifactId,
    ctx: &ExperimentContext,
    deps: &[Arc<ArtifactValue>],
) -> Result<ArtifactValue, CoreError> {
    let dep = |k: usize| -> &ArtifactValue { &deps[k] };
    Ok(match id {
        ArtifactId::Table1 => ArtifactValue::Table1(table1(ctx)?),
        ArtifactId::Fig4 => {
            let t1 = Table1::project(dep(0)).expect("fig4 dep 0 is table1");
            ArtifactValue::Fig4(fig4(ctx, t1)?)
        }
        ArtifactId::Table2 => {
            let f4 = Fig4::project(dep(0)).expect("table2 dep 0 is fig4");
            ArtifactValue::Table2(table2(ctx, f4)?)
        }
        ArtifactId::Table3 => {
            let t1 = Table1::project(dep(0)).expect("table3 dep 0 is table1");
            let f4 = Fig4::project(dep(1)).expect("table3 dep 1 is fig4");
            ArtifactValue::Table3(table3(ctx, t1, f4)?)
        }
        ArtifactId::Fig5 => ArtifactValue::Fig5(fig5(ctx)?),
        ArtifactId::Table4 => ArtifactValue::Table4(table4(ctx)?),
        ArtifactId::AblationDelay => {
            let f4 = Fig4::project(dep(0)).expect("ablation-delay dep 0 is fig4");
            ArtifactValue::AblationDelay(ablation_delay_models(ctx, f4)?)
        }
        ArtifactId::AblationBlWidth => ArtifactValue::AblationBlWidth(ablation_bl_width(ctx)?),
        ArtifactId::AblationSadpVss => {
            ArtifactValue::AblationSadpVss(ablation_sadp_anticorrelation(ctx)?)
        }
        ArtifactId::ExtensionLe2 => ArtifactValue::ExtensionLe2(extension_le2(ctx)?),
        ArtifactId::ExtensionLer => ArtifactValue::ExtensionLer(extension_ler(ctx)?),
        ArtifactId::ExtensionSensitivity => {
            let n = ctx.pinned_height();
            let mut profiles = Vec::new();
            for option in PatterningOption::ALL_WITH_EXTENSIONS {
                profiles.push(sensitivity_profile(&ctx.tech, &ctx.cell, option, n, 0.25)?);
            }
            ArtifactValue::ExtensionSensitivity(SensitivityMatrix { n, profiles })
        }
        ArtifactId::ExtensionScaling => ArtifactValue::ExtensionScaling(extension_scaling(ctx)?),
        ArtifactId::Yield6Sigma => ArtifactValue::Yield6Sigma(yield_6sigma(ctx)?),
        ArtifactId::WriteTime => {
            let t1 = Table1::project(dep(0)).expect("write_time dep 0 is table1");
            ArtifactValue::WriteTime(write_time(ctx, t1)?)
        }
        ArtifactId::WriteMargin => ArtifactValue::WriteMargin(write_margin(ctx)?),
        ArtifactId::SenseMargin => ArtifactValue::SenseMargin(sense_margin(ctx)?),
        ArtifactId::WlDelay => {
            let t1 = Table1::project(dep(0)).expect("wl_delay dep 0 is table1");
            ArtifactValue::WlDelay(wl_delay(ctx, t1)?)
        }
        ArtifactId::WriteYield => ArtifactValue::WriteYield(write_yield(ctx)?),
    })
}
