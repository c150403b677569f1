//! Typed artifact values, their producers, and the rendered form.
//!
//! Everything here is generated from the artifact table
//! ([`artifact_table!`](crate::graph)): [`ArtifactValue`] is the sum of
//! every structured experiment result; the crate-private `produce` maps
//! an [`ArtifactId`] to its `mpvar-core` runner, feeding it the
//! already-evaluated graph inputs as the types its row declares.
//! [`ArtifactValue::render`] turns any value into the text + CSV
//! [`Artifact`] the `repro` binary writes and the golden gate compares.

use std::sync::Arc;

use mpvar_core::experiments::{
    ablation_bl_width, ablation_delay_models, ablation_sadp_anticorrelation, extension_le2,
    extension_ler, extension_scaling, fig4, fig5, table1, table2, table3, table4, AblationBlWidth,
    AblationDelayModels, AblationSadpAnticorrelation, ExperimentContext, ExtensionLe2,
    ExtensionLer, ExtensionScaling, Fig4, Fig5, Table1, Table2, Table3, Table4,
};
use mpvar_core::rareevent::{yield_6sigma, YieldTable};
use mpvar_core::sensitivity::{extension_sensitivity, SensitivityMatrix};
use mpvar_core::writeexp::{
    sense_margin, wl_delay, write_margin, write_time, write_yield, SenseMargin, WlDelay,
    WriteMargin, WriteTime, WriteYieldTable,
};
use mpvar_core::CoreError;

use crate::error::wrong_variant;
use crate::graph::{artifact_table, ArtifactId};

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
}

impl<T: ArtifactData> std::ops::Deref for TypedArtifact<T> {
    type Target = T;

    fn deref(&self) -> &T {
        T::project(&self.value).expect("TypedArtifact variant checked at construction")
    }
}

/// One producer input: the next dependency value, as the result type
/// its table row declares.
fn input<T: ArtifactData>(value: Option<&Arc<ArtifactValue>>) -> Result<&T, CoreError> {
    value
        .and_then(|value| T::project(value))
        .ok_or_else(wrong_variant)
}

/// A row's text and CSV: its report table, or with `text` its report
/// string and `to_csv()`.
macro_rules! render_pair {
    ($v:ident) => {{
        let table = $v.report();
        (table.render(), table.to_csv())
    }};
    ($v:ident text) => {
        ($v.report(), $v.to_csv())
    };
}

macro_rules! artifact_values {
    ($(
        $(#[$doc:meta])* $variant:ident, $tag:literal, $name:literal, $ty:ident,
        $producer:ident($($input:ident),*) $reads:tt $($text:ident)?;
    )+) => {
        /// A structured experiment result, tagged by its graph node.
        #[derive(Debug, Clone, PartialEq)]
        #[non_exhaustive]
        pub enum ArtifactValue {
            $($(#[$doc])* $variant($ty),)+
        }

        impl ArtifactValue {
            /// The graph node this value belongs to.
            pub fn id(&self) -> ArtifactId {
                match self {
                    $(ArtifactValue::$variant(_) => ArtifactId::$variant,)+
                }
            }

            /// Renders the text + CSV artefact.
            pub fn render(&self) -> Artifact {
                let (text, csv) = match self {
                    $(ArtifactValue::$variant(v) => render_pair!(v $($text)?),)+
                };
                Artifact {
                    id: self.id().name().to_string(),
                    text,
                    csv,
                }
            }
        }

        impl ArtifactId {
            /// The artifacts this node consumes (its graph inputs).
            ///
            /// Producers receive these, already evaluated, in exactly
            /// this order.
            pub fn dependencies(self) -> &'static [ArtifactId] {
                match self {
                    $(ArtifactId::$variant => &[$(<$input as ArtifactData>::ID),*],)+
                }
            }
        }

        $(
            impl ArtifactData for $ty {
                const ID: ArtifactId = ArtifactId::$variant;

                fn project(value: &ArtifactValue) -> Option<&Self> {
                    match value {
                        ArtifactValue::$variant(v) => Some(v),
                        _ => None,
                    }
                }
            }
        )+

        /// Runs the producer of `id`, reading graph inputs from `deps`
        /// (the dependency values, in [`ArtifactId::dependencies`]
        /// order).
        ///
        /// # Errors
        ///
        /// Propagates the underlying experiment failure;
        /// [`CoreError::InvalidParameter`] when a dependency value is
        /// not of its declared type.
        pub(crate) fn produce(
            id: ArtifactId,
            ctx: &ExperimentContext,
            deps: &[Arc<ArtifactValue>],
        ) -> Result<ArtifactValue, CoreError> {
            let mut inputs = deps.iter();
            Ok(match id {
                $(ArtifactId::$variant => {
                    ArtifactValue::$variant($producer(ctx, $(input::<$input>(inputs.next())?),*)?)
                })+
            })
        }
    };
}

artifact_table!(artifact_values);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Study;

    #[test]
    fn a_stored_value_of_the_wrong_variant_is_an_error() {
        let is_wrong_variant = |result: Result<(), CoreError>| {
            matches!(
                result,
                Err(CoreError::InvalidParameter {
                    name: "artifact value",
                    ..
                })
            )
        };
        let ctx = ExperimentContext::quick().expect("quick context");
        let table2 = Arc::new(ArtifactValue::Table2(Table2 { rows: Vec::new() }));
        for deps in [vec![table2.clone()], Vec::new()] {
            assert!(is_wrong_variant(
                produce(ArtifactId::Fig4, &ctx, &deps).map(drop)
            ));
        }
        let study = Study::new(ctx);
        study.store().put(study.key_of(ArtifactId::Table1), table2);
        assert!(is_wrong_variant(study.get::<Table1>().map(drop)));
    }
}
