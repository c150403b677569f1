//! Bit-exact binary serialization of [`ArtifactValue`]s.
//!
//! The on-disk store persists typed artifact values, not rendered
//! text: a disk-warm session must hand back the *same* structured
//! result a cold one computes, down to the last f64 bit, so dependent
//! producers (`fig4` consuming a persisted `table1`) and
//! `Study::get::<T>()` keep working across process restarts.
//!
//! The format is a deliberately boring length-prefixed little-endian
//! encoding: one variant tag byte, then the struct fields in the order
//! their `codec_struct!` entry lists them. That list is the layout, and
//! the only place it is written: one `Codec` impl both encodes and
//! decodes it, and the list may differ from the declaration order
//! (`ExtensionLe2` and `ExtensionScaling` declare `rows, n` but travel
//! as `n, rows`). Floats travel as raw IEEE-754 bits ([`f64::to_bits`]),
//! so round-trips are exact — including infinities (`rel_half_width`
//! of a zero-probability yield row) and negative zero. No field names,
//! no self-description: the payload is only meaningful under
//! `CODEC_VERSION`, which the disk envelope pins. Bumping the codec
//! (any layout change!) orphans old entries — they fail the envelope
//! check and are recomputed, never misread.
//!
//! Statically-interned strings (`ParameterSensitivity::name`,
//! `YieldRow::estimator`) are written as text and re-interned against
//! the known vocabulary on decode, so the decoded value is
//! indistinguishable from a freshly computed one.
//!
//! A payload that decodes must also render: a layout marked
//! `=> check` rejects the shapes the renderers index by but the layout
//! cannot express.

use std::fmt;

use mpvar_core::experiments::{
    AblationBlWidth, AblationDelayModels, AblationSadpAnticorrelation, ExtensionLe2, ExtensionLer,
    ExtensionScaling, Fig4, Fig5, Table1, Table2, Table3, Table4,
};
use mpvar_core::montecarlo::TdpDistribution;
use mpvar_core::rareevent::{YieldRow, YieldSettings, YieldTable};
use mpvar_core::sensitivity::{ParameterSensitivity, SensitivityMatrix, SensitivityProfile};
use mpvar_core::worst_case::WorstCase;
use mpvar_core::writeexp::{
    SenseMargin, WlDelay, WriteMargin, WriteTime, WriteYieldRow, WriteYieldTable,
};
use mpvar_extract::{RelativeVariation, WireParasitics};
use mpvar_litho::{Draw, EuvDraw, Le2Draw, Le3Draw, SadpDraw};
use mpvar_stats::Summary;
use mpvar_tech::PatterningOption;

use crate::graph::artifact_table;
use crate::value::{ArtifactData, ArtifactValue};

/// Version of the payload layout. Any change to the encoding — field
/// added, type widened, order shuffled — must bump this; the disk
/// envelope stores it and refuses to decode a mismatch.
pub(crate) const CODEC_VERSION: u32 = 4;

/// A decode failure: the payload is truncated, structurally invalid,
/// or from an incompatible producer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset the failure was detected at.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "artifact codec error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for CodecError {}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn err(&self, message: impl Into<String>) -> CodecError {
        CodecError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| self.err(format!("truncated payload: {n} bytes wanted")))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// A collection length, sanity-bounded so a corrupt length prefix
    /// fails cleanly instead of attempting a huge allocation.
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = usize::get(self)?;
        let remaining = self.buf.len() - self.pos;
        if n > remaining {
            return Err(self.err(format!(
                "length {n} exceeds the {remaining} bytes remaining"
            )));
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), CodecError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(self.err(format!(
                "{} trailing bytes after the value",
                self.buf.len() - self.pos
            )))
        }
    }
}

/// One layout, read and written by the same impl.
trait Codec: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

impl Codec for u64 {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut bytes = [0; 8];
        bytes.copy_from_slice(r.take(8)?);
        Ok(u64::from_le_bytes(bytes))
    }
}

/// Two's-complement bits as a `u64`.
impl Codec for i64 {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(u64::get(r)? as i64)
    }
}

impl Codec for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let v = u64::get(r)?;
        usize::try_from(v).map_err(|_| r.err(format!("length {v} exceeds usize")))
    }
}

impl Codec for f64 {
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(u64::get(r)?))
    }
}

impl Codec for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(r.err(format!("invalid bool byte {other}"))),
        }
    }
}

impl Codec for String {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len()?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| r.err("invalid utf-8 string"))
    }
}

/// Length-prefixed.
impl<T: Codec> Codec for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for v in self {
            v.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.len()?;
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(T::get(r)?);
        }
        Ok(values)
    }
}

/// Fixed width, so no length prefix.
impl<const N: usize> Codec for [f64; N] {
    fn put(&self, out: &mut Vec<u8>) {
        for v in self {
            v.put(out);
        }
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut values = [0.0; N];
        for v in &mut values {
            *v = f64::get(r)?;
        }
        Ok(values)
    }
}

/// Elements in order; a tuple expression evaluates left to right.
macro_rules! codec_tuple {
    ($($t:ident . $i:tt),+) => {
        impl<$($t: Codec),+> Codec for ($($t,)+) {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$i.put(out);)+
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(($($t::get(r)?,)+))
            }
        }
    };
}

codec_tuple!(A.0, B.1);
codec_tuple!(A.0, B.1, C.2);
codec_tuple!(A.0, B.1, C.2, D.3);
codec_tuple!(A.0, B.1, C.2, D.3, E.4);
codec_tuple!(A.0, B.1, C.2, D.3, E.4, F.5);

// ---------------------------------------------------------------------
// Layouts
// ---------------------------------------------------------------------

/// Structs as their fields in the listed order, which is the layout.
/// The decoder is a struct literal in the same order, and Rust
/// evaluates struct-literal fields as written, so the list need not
/// follow the declaration. `field in VOCAB` travels as text and is
/// re-interned against `VOCAB` on decode. `=> check` runs `check` on
/// the decoded artifact result and rejects it, prefixed with its
/// artifact id, when the renderer could not index it. The `default`
/// form fills a `#[non_exhaustive]` struct field by field from its
/// `Default`, so a field added later keeps its default under this
/// codec version.
macro_rules! codec_struct {
    (default $ty:ident { $($field:ident),+ $(,)? }) => {
        impl Codec for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let mut value = $ty::default();
                $(value.$field = Codec::get(r)?;)+
                Ok(value)
            }
        }
    };
    ($($ty:ident { $($field:ident $(in $vocab:ident)?),+ $(,)? } $(=> $check:ident)?)+) => {$(
        impl Codec for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(codec_struct!(@put self.$field, out $(, $vocab)?);)+
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let value = $ty {
                    $($field: codec_struct!(@get r, $field $(, $vocab)?),)+
                };
                $($check(&value).map_err(|message| {
                    r.err(format!("{}: {message}", <$ty as ArtifactData>::ID.name()))
                })?;)?
                Ok(value)
            }
        }
    )+};
    (@put $value:expr, $out:ident) => { $value.put($out) };
    (@put $value:expr, $out:ident, $vocab:ident) => { String::from($value).put($out) };
    (@get $r:ident, $field:ident) => { Codec::get($r)? };
    (@get $r:ident, $field:ident, $vocab:ident) => {{
        let text = String::get($r)?;
        $vocab.iter().find(|&&known| known == text).copied().ok_or_else(|| {
            $r.err(format!("unknown {} `{text}`", stringify!($field)))
        })?
    }};
}

/// An enum of one-field variants as a tag byte, then the variant's
/// field. Tags are fixed forever once assigned.
macro_rules! codec_tagged {
    ($what:literal $ty:ident { $($tag:literal => $variant:ident),+ $(,)? }) => {
        impl Codec for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant(v) => {
                        out.push($tag);
                        v.put(out);
                    })+
                }
            }

            fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(match r.take(1)?[0] {
                    $($tag => $ty::$variant(Codec::get(r)?),)+
                    other => return Err(r.err(format!("unknown {} tag {other}", $what))),
                })
            }
        }
    };
}

impl Codec for PatterningOption {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            PatterningOption::Le3 => 0,
            PatterningOption::Sadp => 1,
            PatterningOption::Euv => 2,
            PatterningOption::Le2 => 3,
        });
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(match r.take(1)?[0] {
            0 => PatterningOption::Le3,
            1 => PatterningOption::Sadp,
            2 => PatterningOption::Euv,
            3 => PatterningOption::Le2,
            other => return Err(r.err(format!("unknown patterning option tag {other}"))),
        })
    }
}

/// `net, length, R, C_ground, C_below, C_above` through the accessors.
impl Codec for WireParasitics {
    fn put(&self, out: &mut Vec<u8>) {
        String::from(self.net()).put(out);
        (
            self.length_nm(),
            self.resistance_ohm(),
            self.c_ground_f(),
            self.c_couple_below_f(),
            self.c_couple_above_f(),
        )
            .put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let net = String::get(r)?;
        let (length, resistance, c_ground, c_below, c_above) = Codec::get(r)?;
        Ok(WireParasitics::from_parts(
            net, length, resistance, c_ground, c_below, c_above,
        ))
    }
}

/// The raw-moments tuple `n, mean, m2, m3, min, max`.
impl Codec for Summary {
    fn put(&self, out: &mut Vec<u8>) {
        self.raw_moments().put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Summary::from_raw_moments(Codec::get(r)?))
    }
}

/// `option, n, samples, summary, shorted draws` through the accessors.
impl Codec for TdpDistribution {
    fn put(&self, out: &mut Vec<u8>) {
        self.option().put(out);
        self.n().put(out);
        self.samples_percent().to_vec().put(out);
        self.summary().put(out);
        self.shorted_draws().put(out);
    }

    fn get(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (option, n, samples, summary, shorted) = Codec::get(r)?;
        Ok(TdpDistribution::from_parts(
            option, n, samples, summary, shorted,
        ))
    }
}

/// The interned vocabulary of [`Draw::parameters`] names.
const PARAMETER_NAMES: [&str; 9] = [
    "cd_a", "cd_b", "cd_c", "ol_a", "ol_b", "ol_c", "cd_core", "spacer", "cd",
];

/// The interned vocabulary of [`YieldRow::estimator`] labels.
const ESTIMATORS: [&str; 2] = ["scaled-sigma", "brute-force"];

codec_tagged!("draw" Draw { 0 => Le3, 1 => Sadp, 2 => Euv, 3 => Le2 });

codec_struct!(default YieldSettings {
    sigma_margins, common_margins_percent, agreement_margin_percent, agreement_option,
    sigma_scale, seed, confidence, target_rel_half_width, min_failures, base_round,
    max_trials, brute_max_trials, fit_trials,
});

codec_struct! {
    Le3Draw { cd_nm, overlay_nm }
    SadpDraw { core_cd_nm, spacer_nm }
    EuvDraw { cd_nm }
    Le2Draw { cd_nm, overlay_nm }
    RelativeVariation { r_var, c_var }
    WorstCase { option, draw, nominal, worst, variation, infeasible_corners }
    ParameterSensitivity { name in PARAMETER_NAMES, slope_pp_per_nm, curvature_pp_per_nm2 }
    SensitivityProfile { option, n, step_nm, parameters }
    YieldRow {
        option, estimator in ESTIMATORS, margin_percent, p_fail, ci_lo, ci_hi, rel_half_width,
        trials, converged, mean_weight, gaussian_fit_p,
    }
    WriteYieldRow {
        option, margin_percent, write_p_fail, ci_lo, ci_hi, trials, converged, read_p_fail,
    }

    Table1 { worst_cases }
    Fig4 { sizes, td_nominal_s, td_worst_s } => fig4_shape
    Table2 { rows }
    Table3 { sizes, simulation, formula } => table3_shape
    Fig5 { n, distributions }
    Table4 { n, rows }
    AblationDelayModels { rows }
    AblationBlWidth { rows } => ablation_bl_width_shape
    AblationSadpAnticorrelation { pearson_r, worst_rbl_percent, worst_rvss_percent }
    ExtensionLe2 { n, rows }
    ExtensionLer { n, ler_sigma_nm, rows }
    SensitivityMatrix { n, profiles }
    ExtensionScaling { n, rows }
    YieldTable { n, settings, rows }
    WriteTime { sizes, t_write_sim_s, t_write_formula_s, penalty_percent } => write_time_shape
    WriteMargin { n, rows }
    SenseMargin { n, window_s, offset_sigma_v, rows }
    WlDelay { columns, near_nominal_s, far_nominal_s, rows }
    WriteYieldTable { n, rows }
}

// The artifact tags are the table's codec column. Tags 1–14 date from
// `CODEC_VERSION` 1; 15–19 joined with version 2, which also added a
// per-distribution failed-read count to the FIG5 layout; version 3
// dropped the unread fourth moment from every `Summary`, which is now
// `n, mean, m2, m3, min, max`; version 4 dropped that failed-read count
// again, which only the deleted SPICE Monte-Carlo route set.
macro_rules! artifact_tags {
    ($(
        $(#[$doc:meta])* $variant:ident, $tag:literal, $name:literal, $ty:ident,
        $producer:ident($($input:ident),*) $reads:tt $($text:ident)?;
    )+) => {
        codec_tagged!("artifact" ArtifactValue { $($tag => $variant),+ });
    };
}

artifact_table!(artifact_tags);

/// Encodes one artifact value into its `CODEC_VERSION` payload.
pub fn encode_value(value: &ArtifactValue) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    value.put(&mut out);
    out
}

/// Decodes a `CODEC_VERSION` payload back into the typed value.
///
/// # Errors
///
/// [`CodecError`] when the payload is truncated, has trailing bytes,
/// contains an unknown tag / interned string, or holds a shape its
/// renderer cannot index (see the `=> check` layouts).
pub fn decode_value(bytes: &[u8]) -> Result<ArtifactValue, CodecError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let value = ArtifactValue::get(&mut r)?;
    r.finish()?;
    Ok(value)
}

// ---------------------------------------------------------------------
// Shape checks (input validation, not layout)
// ---------------------------------------------------------------------
//
// The shapes the renderers index by: every per-option list holds
// LELELE, SADP and EUV, every per-option table has exactly those three
// rows or columns, and every series has one value per array size.

fn fig4_shape(v: &Fig4) -> Result<(), String> {
    per_size(v.sizes.len(), [&v.td_nominal_s])?;
    per_option(v.sizes.len(), &v.td_worst_s)
}

fn write_time_shape(v: &WriteTime) -> Result<(), String> {
    per_size(v.sizes.len(), [&v.t_write_sim_s, &v.t_write_formula_s])?;
    per_option(v.sizes.len(), &v.penalty_percent)
}

fn table3_shape(v: &Table3) -> Result<(), String> {
    let options = PatterningOption::ALL.len();
    for series in [&v.simulation, &v.formula] {
        if series.len() != options {
            return Err(format!("{} option rows, not {options}", series.len()));
        }
        per_size(v.sizes.len(), series)?;
    }
    Ok(())
}

fn ablation_bl_width_shape(v: &AblationBlWidth) -> Result<(), String> {
    let options = PatterningOption::ALL.len();
    match v.rows.iter().find(|(_, d)| d.len() != options) {
        Some((_, d)) => Err(format!("{} option columns, not {options}", d.len())),
        None => Ok(()),
    }
}

fn per_size<'a>(
    sizes: usize,
    series: impl IntoIterator<Item = &'a Vec<f64>>,
) -> Result<(), String> {
    match series.into_iter().find(|s| s.len() != sizes) {
        Some(s) => Err(format!("a series of {} values for {sizes} sizes", s.len())),
        None => Ok(()),
    }
}

fn per_option(sizes: usize, lists: &[(PatterningOption, Vec<f64>)]) -> Result<(), String> {
    if let Some(missing) = PatterningOption::ALL
        .iter()
        .find(|&&option| lists.iter().all(|(o, _)| *o != option))
    {
        return Err(format!("no {missing} series"));
    }
    per_size(sizes, lists.iter().map(|(_, s)| s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ArtifactId;

    fn parasitics(net: &str) -> WireParasitics {
        WireParasitics::from_parts(net.to_string(), 1024.0, 812.5, 1.5e-16, 2.5e-17, 3.5e-17)
    }

    fn sample_values() -> Vec<ArtifactValue> {
        let mut summary = Summary::new();
        for x in [1.0, 2.5, -0.75, 9.25] {
            summary.push(x);
        }
        let mut settings = YieldSettings::default();
        settings.seed = 123;
        vec![
            ArtifactValue::Table1(Table1 {
                worst_cases: vec![WorstCase {
                    option: PatterningOption::Sadp,
                    draw: Draw::Sadp(SadpDraw {
                        core_cd_nm: 1.5,
                        spacer_nm: -0.5,
                    }),
                    nominal: parasitics("bl"),
                    worst: parasitics("bl"),
                    variation: RelativeVariation {
                        r_var: 1.25,
                        c_var: 1.0625,
                    },
                    infeasible_corners: 3,
                }],
            }),
            ArtifactValue::Fig4(Fig4 {
                sizes: vec![16, 64],
                td_nominal_s: vec![1e-10, 4.5e-10],
                td_worst_s: vec![
                    (PatterningOption::Le3, vec![1.5e-10, 5e-10]),
                    (PatterningOption::Sadp, vec![1.3e-10, 4.8e-10]),
                    (PatterningOption::Euv, vec![1.1e-10, 4.6e-10]),
                ],
            }),
            ArtifactValue::Table2(Table2 {
                rows: vec![(16, 1.0, 1.125), (64, 2.0, 2.5)],
            }),
            ArtifactValue::Table3(Table3 {
                sizes: vec![16, 64],
                simulation: vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
                formula: vec![vec![1.5, 2.5], vec![3.5, 4.5], vec![5.5, 6.5]],
            }),
            ArtifactValue::Fig5(Fig5 {
                n: 64,
                distributions: vec![TdpDistribution::from_parts(
                    PatterningOption::Le3,
                    64,
                    vec![1.0, 2.5, -0.75, 9.25],
                    summary,
                    7,
                )],
            }),
            ArtifactValue::Table4(Table4 {
                n: 64,
                rows: vec![("LELELE (OL=8nm)".to_string(), 1.0, 2.0, 3.0)],
            }),
            ArtifactValue::AblationDelay(AblationDelayModels {
                rows: vec![(16, 1.0, 2.0, 3.0)],
            }),
            ArtifactValue::AblationBlWidth(AblationBlWidth {
                rows: vec![(-2, vec![0.5, 0.75, 0.25]), (2, vec![1.5, 1.75, 1.25])],
            }),
            ArtifactValue::AblationSadpVss(AblationSadpAnticorrelation {
                pearson_r: -0.99,
                worst_rbl_percent: 25.0,
                worst_rvss_percent: -20.0,
            }),
            ArtifactValue::ExtensionLe2(ExtensionLe2 {
                rows: vec![(PatterningOption::Le2, 1.0, 2.0, 3.0)],
                n: 64,
            }),
            ArtifactValue::ExtensionLer(ExtensionLer {
                n: 64,
                ler_sigma_nm: 1.3,
                rows: vec![(PatterningOption::Euv, 0.1, 0.2, 0.3)],
            }),
            ArtifactValue::ExtensionSensitivity(SensitivityMatrix {
                n: 64,
                profiles: vec![SensitivityProfile {
                    option: PatterningOption::Le3,
                    n: 64,
                    step_nm: 0.25,
                    parameters: vec![ParameterSensitivity {
                        name: "cd_a",
                        slope_pp_per_nm: 4.5,
                        curvature_pp_per_nm2: -0.125,
                    }],
                }],
            }),
            ArtifactValue::ExtensionScaling(ExtensionScaling {
                rows: vec![("N7".to_string(), PatterningOption::Sadp, 1.0, 2.0)],
                n: 64,
            }),
            ArtifactValue::Yield6Sigma(YieldTable {
                n: 64,
                settings,
                rows: vec![YieldRow {
                    option: PatterningOption::Sadp,
                    estimator: "brute-force",
                    margin_percent: 12.0,
                    p_fail: 0.0,
                    ci_lo: 0.0,
                    ci_hi: 1e-9,
                    rel_half_width: f64::INFINITY,
                    trials: 40_000,
                    converged: false,
                    mean_weight: 1.0,
                    gaussian_fit_p: 3.2e-7,
                }],
            }),
            ArtifactValue::WriteTime(WriteTime {
                sizes: vec![4, 8],
                t_write_sim_s: vec![1e-11, 1.5e-11],
                t_write_formula_s: vec![0.9e-11, 1.4e-11],
                penalty_percent: vec![
                    (PatterningOption::Le3, vec![4.5, 6.0]),
                    (PatterningOption::Sadp, vec![1.0, 1.5]),
                    (PatterningOption::Euv, vec![0.4, 0.6]),
                ],
            }),
            ArtifactValue::WriteMargin(WriteMargin {
                n: 64,
                rows: vec![(PatterningOption::Le3, 3.0, 0.5, -6.0, 12.0)],
            }),
            ArtifactValue::SenseMargin(SenseMargin {
                n: 64,
                window_s: 4.1e-11,
                offset_sigma_v: 0.008,
                rows: vec![(PatterningOption::Euv, 0.01, 0.013, 0.004)],
            }),
            ArtifactValue::WlDelay(WlDelay {
                columns: 64,
                near_nominal_s: 2e-12,
                far_nominal_s: 6e-12,
                rows: vec![(PatterningOption::Sadp, 2.1e-12, 6.2e-12, 3.3)],
            }),
            ArtifactValue::WriteYield(WriteYieldTable {
                n: 64,
                rows: vec![WriteYieldRow {
                    option: PatterningOption::Le3,
                    margin_percent: 8.0,
                    write_p_fail: 2.5e-4,
                    ci_lo: 1e-4,
                    ci_hi: 5e-4,
                    trials: 32_768,
                    converged: true,
                    read_p_fail: 1.25e-4,
                }],
            }),
        ]
    }

    #[test]
    fn every_variant_round_trips_bit_exactly() {
        for value in sample_values() {
            let bytes = encode_value(&value);
            let decoded = decode_value(&bytes).expect("payload decodes");
            assert_eq!(decoded, value, "{} round-trip", value.id());
            // Rendered forms (what the golden gate compares) agree too.
            assert_eq!(decoded.render(), value.render());
        }
    }

    /// `(id, payload length, FNV-1a of the payload)` of every
    /// `sample_values()` entry under `CODEC_VERSION` 4. Encode and
    /// decode can drift together without failing the round trip; this
    /// pins the bytes themselves, so any layout change fails here and
    /// must bump `CODEC_VERSION` along with these constants.
    const PINNED_LAYOUT: [(&str, usize, u64); 19] = [
        ("table1", 151, 0x1483_9113_3a39_5be5),
        ("fig4", 132, 0x231e_d2df_54ff_df66),
        ("table2", 57, 0xaf83_b378_64a7_e8ca),
        ("table3", 185, 0x2678_8970_a3da_2edb),
        ("fig5", 122, 0xc653_2753_084f_07e7),
        ("table4", 64, 0x902f_77d6_2787_67f7),
        ("ablation-delay", 41, 0xc5e5_df76_17f8_618e),
        ("ablation-bl-width", 89, 0xec1b_88c2_c235_412e),
        ("ablation-sadp-vss", 25, 0x8926_f4ef_b693_2c5d),
        ("extension-le2", 42, 0xd24f_6059_819a_1f78),
        ("extension-ler", 50, 0xea26_3af6_aca6_2c2f),
        ("extension-sensitivity", 70, 0x85fc_523f_5422_0b56),
        ("extension-scaling", 44, 0xf615_4af8_e173_c8f2),
        ("yield_6sigma", 231, 0xf5d8_acaa_9eb7_7458),
        ("write_time", 156, 0x1c82_0e8c_d869_5902),
        ("write_margin", 50, 0xf7d7_6ec9_d78f_9b1b),
        ("sense_margin", 58, 0x530b_8a33_3db1_3333),
        ("wl_delay", 58, 0x1b3f_6cf7_6a46_3b9e),
        ("write_yield", 67, 0x4bf4_bf5b_8979_0a0c),
    ];

    #[test]
    fn encoded_bytes_match_the_pinned_layout() {
        assert_eq!(CODEC_VERSION, 4, "a new version needs new pins");
        let values = sample_values();
        assert_eq!(values.len(), PINNED_LAYOUT.len());
        for (value, &(id, len, digest)) in values.iter().zip(&PINNED_LAYOUT) {
            let bytes = encode_value(value);
            assert_eq!(value.id().name(), id);
            assert_eq!(
                (bytes.len(), crate::cache::fnv1a(&bytes)),
                (len, digest),
                "{id} payload moved"
            );
        }
    }

    /// `(name, codec tag, dependencies)` of every artifact in
    /// `ArtifactId::ALL` order: the artifact table's columns, pinned so
    /// an edited row fails here by name.
    #[test]
    fn artifact_table_is_pinned() {
        use ArtifactId as A;
        let pinned: [(&str, u8, &[ArtifactId]); 19] = [
            ("table1", 1, &[]),
            ("fig4", 2, &[A::Table1]),
            ("table2", 3, &[A::Fig4]),
            ("table3", 4, &[A::Table1, A::Fig4]),
            ("fig5", 5, &[]),
            ("table4", 6, &[]),
            ("ablation-delay", 7, &[A::Fig4]),
            ("ablation-bl-width", 8, &[]),
            ("ablation-sadp-vss", 9, &[]),
            ("extension-le2", 10, &[]),
            ("extension-ler", 11, &[]),
            ("extension-sensitivity", 12, &[]),
            ("extension-scaling", 13, &[]),
            ("yield_6sigma", 14, &[]),
            ("write_time", 15, &[A::Table1]),
            ("write_margin", 16, &[]),
            ("sense_margin", 17, &[]),
            ("wl_delay", 18, &[A::Table1]),
            ("write_yield", 19, &[]),
        ];
        assert_eq!(ArtifactId::ALL.len(), pinned.len());
        let values = sample_values();
        for ((id, value), (name, tag, deps)) in ArtifactId::ALL.into_iter().zip(&values).zip(pinned)
        {
            assert_eq!(value.id(), id);
            assert_eq!(id.name(), name);
            assert_eq!(encode_value(value)[0], tag, "{name} tag");
            assert_eq!(id.dependencies(), deps, "{name} dependencies");
        }
    }

    #[test]
    fn infinity_and_interned_strings_survive() {
        let values = sample_values();
        let yield_value = values
            .iter()
            .find(|v| matches!(v, ArtifactValue::Yield6Sigma(_)))
            .expect("yield sample");
        let decoded = decode_value(&encode_value(yield_value)).expect("decodes");
        let ArtifactValue::Yield6Sigma(table) = &decoded else {
            panic!("variant preserved");
        };
        assert!(table.rows[0].rel_half_width.is_infinite());
        // The estimator must be re-interned to the canonical static,
        // not just an equal string.
        assert_eq!(table.rows[0].estimator, "brute-force");
    }

    #[test]
    fn truncated_and_trailing_payloads_are_rejected() {
        let bytes = encode_value(&sample_values()[0]);
        assert!(decode_value(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(decode_value(&extended).is_err());
        assert!(decode_value(&[99]).is_err(), "unknown tag rejected");
    }

    /// Every strict prefix of a payload is rejected, and every
    /// single-byte flip either is rejected or decodes to a value that
    /// renders: a store entry written by anyone must never panic the
    /// reader or the renderer behind it.
    #[test]
    fn truncated_or_flipped_payloads_never_panic() {
        let mut panics = Vec::new();
        for value in sample_values() {
            let id = value.id().name();
            let bytes = encode_value(&value);
            for end in 0..bytes.len() {
                assert!(decode_value(&bytes[..end]).is_err(), "{id} prefix {end}");
            }
            for i in 0..bytes.len() {
                for mask in [0x01u8, 0x80, 0xff] {
                    let mut mutant = bytes.clone();
                    mutant[i] ^= mask;
                    if let Ok(decoded) = decode_value(&mutant) {
                        if std::panic::catch_unwind(move || decoded.render()).is_err() {
                            panics.push(format!("{id} byte {i} ^ {mask:#04x}"));
                        }
                    }
                }
            }
        }
        assert!(panics.is_empty(), "decoded but render panicked: {panics:?}");
    }

    /// Values that encode fine but that a renderer would index out of
    /// range or look up a missing option in: decode names them.
    #[test]
    fn shapes_the_renderers_index_by_are_rejected() {
        let values = sample_values();
        let edited = |index: usize, edit: fn(&mut ArtifactValue)| {
            let mut value = values[index].clone();
            edit(&mut value);
            value
        };
        let bad = [
            edited(1, |v| {
                if let ArtifactValue::Fig4(f) = v {
                    f.td_nominal_s.pop();
                }
            }),
            edited(1, |v| {
                if let ArtifactValue::Fig4(f) = v {
                    f.td_worst_s[0].0 = PatterningOption::Sadp;
                }
            }),
            edited(1, |v| {
                if let ArtifactValue::Fig4(f) = v {
                    f.td_worst_s[2].1.pop();
                }
            }),
            edited(3, |v| {
                if let ArtifactValue::Table3(t) = v {
                    t.simulation.pop();
                }
            }),
            edited(3, |v| {
                if let ArtifactValue::Table3(t) = v {
                    t.formula[1].pop();
                }
            }),
            edited(7, |v| {
                if let ArtifactValue::AblationBlWidth(a) = v {
                    a.rows[1].1.pop();
                }
            }),
            edited(14, |v| {
                if let ArtifactValue::WriteTime(w) = v {
                    w.penalty_percent.truncate(2);
                }
            }),
            edited(14, |v| {
                if let ArtifactValue::WriteTime(w) = v {
                    w.t_write_formula_s.pop();
                }
            }),
        ];
        for value in bad {
            let id = value.id().name();
            assert!(std::panic::catch_unwind(|| value.render()).is_err(), "{id}");
            let err = decode_value(&encode_value(&value)).expect_err(id);
            assert!(err.message.starts_with(id), "{err}");
        }
    }

    #[test]
    fn corrupt_length_prefix_fails_cleanly() {
        let mut bytes = encode_value(&sample_values()[1]);
        // The first 8 bytes after the tag are the `sizes` length; blow
        // it up and the reader must error instead of allocating.
        bytes[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_value(&bytes).is_err());
    }
}
