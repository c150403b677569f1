//! Bit-exact binary serialization of [`ArtifactValue`]s.
//!
//! The on-disk store persists typed artifact values, not rendered
//! text: a disk-warm session must hand back the *same* structured
//! result a cold one computes, down to the last f64 bit, so dependent
//! producers (`fig4` consuming a persisted `table1`) and
//! `Study::get::<T>()` keep working across process restarts.
//!
//! The format is a deliberately boring length-prefixed little-endian
//! encoding: one variant tag byte, then the struct fields in
//! declaration order. Floats travel as raw IEEE-754 bits
//! ([`f64::to_bits`]), so round-trips are exact — including infinities
//! (`rel_half_width` of a zero-probability yield row) and negative
//! zero. No field names, no self-description: the payload is only
//! meaningful under `CODEC_VERSION`, which the disk envelope pins.
//! Bumping the codec (any layout change!) orphans old entries — they
//! fail the envelope check and are recomputed, never misread.
//!
//! Statically-interned strings (`ParameterSensitivity::name`,
//! `YieldRow::estimator`) are written as text and re-interned against
//! the known vocabulary on decode, so the decoded value is
//! indistinguishable from a freshly computed one.

use std::fmt;

use mpvar_core::experiments::{
    AblationBlWidth, AblationDelayModels, AblationSadpAnticorrelation, ExtensionLe2, ExtensionLer,
    ExtensionScaling, Fig4, Fig5, Table1, Table2, Table3, Table4,
};
use mpvar_core::montecarlo::TdpDistribution;
use mpvar_core::rareevent::{YieldRow, YieldSettings, YieldTable};
use mpvar_core::sensitivity::{ParameterSensitivity, SensitivityProfile};
use mpvar_core::worst_case::WorstCase;
use mpvar_core::writeexp::{
    SenseMargin, WlDelay, WriteMargin, WriteTime, WriteYieldRow, WriteYieldTable,
};
use mpvar_extract::{RelativeVariation, WireParasitics};
use mpvar_litho::{Draw, EuvDraw, Le2Draw, Le3Draw, SadpDraw};
use mpvar_stats::Summary;
use mpvar_tech::PatterningOption;

use crate::value::{ArtifactValue, SensitivityMatrix};

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

// ---------------------------------------------------------------------
// Primitive writer / reader
// ---------------------------------------------------------------------

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_bool(out: &mut Vec<u8>, v: bool) {
    put_u8(out, u8::from(v));
}

fn put_str(out: &mut Vec<u8>, v: &str) {
    put_usize(out, v.len());
    out.extend_from_slice(v.as_bytes());
}

fn put_f64s(out: &mut Vec<u8>, vs: &[f64]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_f64(out, v);
    }
}

fn put_usizes(out: &mut Vec<u8>, vs: &[usize]) {
    put_usize(out, vs.len());
    for &v in vs {
        put_usize(out, v);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

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

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| self.err(format!("length {v} exceeds usize")))
    }

    /// A collection length, sanity-bounded so a corrupt length prefix
    /// fails cleanly instead of attempting a huge allocation.
    fn len(&mut self) -> Result<usize, CodecError> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if n > remaining {
            return Err(self.err(format!(
                "length {n} exceeds the {remaining} bytes remaining"
            )));
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(self.err(format!("invalid bool byte {other}"))),
        }
    }

    fn string(&mut self) -> Result<String, CodecError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.err("invalid utf-8 string"))
    }

    fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.len()?;
        (0..n).map(|_| self.f64()).collect()
    }

    fn usizes(&mut self) -> Result<Vec<usize>, CodecError> {
        let n = self.len()?;
        (0..n).map(|_| self.usize()).collect()
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

// ---------------------------------------------------------------------
// Domain pieces
// ---------------------------------------------------------------------

fn put_option(out: &mut Vec<u8>, option: PatterningOption) {
    put_u8(
        out,
        match option {
            PatterningOption::Le3 => 0,
            PatterningOption::Sadp => 1,
            PatterningOption::Euv => 2,
            PatterningOption::Le2 => 3,
        },
    );
}

fn read_option(r: &mut Reader<'_>) -> Result<PatterningOption, CodecError> {
    Ok(match r.u8()? {
        0 => PatterningOption::Le3,
        1 => PatterningOption::Sadp,
        2 => PatterningOption::Euv,
        3 => PatterningOption::Le2,
        other => return Err(r.err(format!("unknown patterning option tag {other}"))),
    })
}

fn put_draw(out: &mut Vec<u8>, draw: &Draw) {
    match draw {
        Draw::Le3(d) => {
            put_u8(out, 0);
            for v in d.cd_nm.iter().chain(&d.overlay_nm) {
                put_f64(out, *v);
            }
        }
        Draw::Sadp(d) => {
            put_u8(out, 1);
            put_f64(out, d.core_cd_nm);
            put_f64(out, d.spacer_nm);
        }
        Draw::Euv(d) => {
            put_u8(out, 2);
            put_f64(out, d.cd_nm);
        }
        Draw::Le2(d) => {
            put_u8(out, 3);
            put_f64(out, d.cd_nm[0]);
            put_f64(out, d.cd_nm[1]);
            put_f64(out, d.overlay_nm);
        }
    }
}

fn read_draw(r: &mut Reader<'_>) -> Result<Draw, CodecError> {
    Ok(match r.u8()? {
        0 => Draw::Le3(Le3Draw {
            cd_nm: [r.f64()?, r.f64()?, r.f64()?],
            overlay_nm: [r.f64()?, r.f64()?, r.f64()?],
        }),
        1 => Draw::Sadp(SadpDraw {
            core_cd_nm: r.f64()?,
            spacer_nm: r.f64()?,
        }),
        2 => Draw::Euv(EuvDraw { cd_nm: r.f64()? }),
        3 => Draw::Le2(Le2Draw {
            cd_nm: [r.f64()?, r.f64()?],
            overlay_nm: r.f64()?,
        }),
        other => return Err(r.err(format!("unknown draw tag {other}"))),
    })
}

fn put_parasitics(out: &mut Vec<u8>, w: &WireParasitics) {
    put_str(out, w.net());
    put_f64(out, w.length_nm());
    put_f64(out, w.resistance_ohm());
    put_f64(out, w.c_ground_f());
    put_f64(out, w.c_couple_below_f());
    put_f64(out, w.c_couple_above_f());
}

fn read_parasitics(r: &mut Reader<'_>) -> Result<WireParasitics, CodecError> {
    Ok(WireParasitics::from_parts(
        r.string()?,
        r.f64()?,
        r.f64()?,
        r.f64()?,
        r.f64()?,
        r.f64()?,
    ))
}

fn put_summary(out: &mut Vec<u8>, s: &Summary) {
    let (n, mean, m2, m3, min, max) = s.raw_moments();
    put_u64(out, n);
    for v in [mean, m2, m3, min, max] {
        put_f64(out, v);
    }
}

fn read_summary(r: &mut Reader<'_>) -> Result<Summary, CodecError> {
    Ok(Summary::from_raw_moments((
        r.u64()?,
        r.f64()?,
        r.f64()?,
        r.f64()?,
        r.f64()?,
        r.f64()?,
    )))
}

/// The interned vocabulary of [`Draw::parameters`] names.
const PARAMETER_NAMES: [&str; 9] = [
    "cd_a", "cd_b", "cd_c", "ol_a", "ol_b", "ol_c", "cd_core", "spacer", "cd",
];

fn intern_parameter(r: &Reader<'_>, name: &str) -> Result<&'static str, CodecError> {
    PARAMETER_NAMES
        .iter()
        .find(|&&known| known == name)
        .copied()
        .ok_or_else(|| r.err(format!("unknown sensitivity parameter `{name}`")))
}

/// The interned vocabulary of [`YieldRow::estimator`] labels.
const ESTIMATORS: [&str; 2] = ["scaled-sigma", "brute-force"];

fn intern_estimator(r: &Reader<'_>, name: &str) -> Result<&'static str, CodecError> {
    ESTIMATORS
        .iter()
        .find(|&&known| known == name)
        .copied()
        .ok_or_else(|| r.err(format!("unknown yield estimator `{name}`")))
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

/// Variant tags, fixed forever once assigned (tags 1–14 date from
/// `CODEC_VERSION` 1; 15–19 joined with version 2, which also added
/// a per-distribution failed-read count to the FIG5 layout; version 3
/// dropped the unread fourth moment from every `Summary`, which is now
/// `n, mean, m2, m3, min, max`; version 4 dropped that failed-read
/// count again, which only the deleted SPICE Monte-Carlo route set).
mod tag {
    pub(crate) const TABLE1: u8 = 1;
    pub(crate) const FIG4: u8 = 2;
    pub(crate) const TABLE2: u8 = 3;
    pub(crate) const TABLE3: u8 = 4;
    pub(crate) const FIG5: u8 = 5;
    pub(crate) const TABLE4: u8 = 6;
    pub(crate) const ABLATION_DELAY: u8 = 7;
    pub(crate) const ABLATION_BL_WIDTH: u8 = 8;
    pub(crate) const ABLATION_SADP_VSS: u8 = 9;
    pub(crate) const EXTENSION_LE2: u8 = 10;
    pub(crate) const EXTENSION_LER: u8 = 11;
    pub(crate) const EXTENSION_SENSITIVITY: u8 = 12;
    pub(crate) const EXTENSION_SCALING: u8 = 13;
    pub(crate) const YIELD_6SIGMA: u8 = 14;
    pub(crate) const WRITE_TIME: u8 = 15;
    pub(crate) const WRITE_MARGIN: u8 = 16;
    pub(crate) const SENSE_MARGIN: u8 = 17;
    pub(crate) const WL_DELAY: u8 = 18;
    pub(crate) const WRITE_YIELD: u8 = 19;
}

/// Encodes one artifact value into its `CODEC_VERSION` payload.
pub fn encode_value(value: &ArtifactValue) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    match value {
        ArtifactValue::Table1(v) => {
            put_u8(&mut out, tag::TABLE1);
            put_usize(&mut out, v.worst_cases.len());
            for w in &v.worst_cases {
                put_option(&mut out, w.option);
                put_draw(&mut out, &w.draw);
                put_parasitics(&mut out, &w.nominal);
                put_parasitics(&mut out, &w.worst);
                put_f64(&mut out, w.variation.r_var);
                put_f64(&mut out, w.variation.c_var);
                put_usize(&mut out, w.infeasible_corners);
            }
        }
        ArtifactValue::Fig4(v) => {
            put_u8(&mut out, tag::FIG4);
            put_usizes(&mut out, &v.sizes);
            put_f64s(&mut out, &v.td_nominal_s);
            put_usize(&mut out, v.td_worst_s.len());
            for (option, tds) in &v.td_worst_s {
                put_option(&mut out, *option);
                put_f64s(&mut out, tds);
            }
        }
        ArtifactValue::Table2(v) => {
            put_u8(&mut out, tag::TABLE2);
            put_usize(&mut out, v.rows.len());
            for &(n, sim, formula) in &v.rows {
                put_usize(&mut out, n);
                put_f64(&mut out, sim);
                put_f64(&mut out, formula);
            }
        }
        ArtifactValue::Table3(v) => {
            put_u8(&mut out, tag::TABLE3);
            put_usizes(&mut out, &v.sizes);
            for series in [&v.simulation, &v.formula] {
                put_usize(&mut out, series.len());
                for row in series {
                    put_f64s(&mut out, row);
                }
            }
        }
        ArtifactValue::Fig5(v) => {
            put_u8(&mut out, tag::FIG5);
            put_usize(&mut out, v.n);
            put_usize(&mut out, v.distributions.len());
            for d in &v.distributions {
                put_option(&mut out, d.option());
                put_usize(&mut out, d.n());
                put_f64s(&mut out, d.samples_percent());
                put_summary(&mut out, d.summary());
                put_usize(&mut out, d.shorted_draws());
            }
        }
        ArtifactValue::Table4(v) => {
            put_u8(&mut out, tag::TABLE4);
            put_usize(&mut out, v.n);
            put_usize(&mut out, v.rows.len());
            for (label, a, b, c) in &v.rows {
                put_str(&mut out, label);
                put_f64(&mut out, *a);
                put_f64(&mut out, *b);
                put_f64(&mut out, *c);
            }
        }
        ArtifactValue::AblationDelay(v) => {
            put_u8(&mut out, tag::ABLATION_DELAY);
            put_usize(&mut out, v.rows.len());
            for &(n, a, b, c) in &v.rows {
                put_usize(&mut out, n);
                put_f64(&mut out, a);
                put_f64(&mut out, b);
                put_f64(&mut out, c);
            }
        }
        ArtifactValue::AblationBlWidth(v) => {
            put_u8(&mut out, tag::ABLATION_BL_WIDTH);
            put_usize(&mut out, v.rows.len());
            for (delta, tdps) in &v.rows {
                put_i64(&mut out, *delta);
                put_f64s(&mut out, tdps);
            }
        }
        ArtifactValue::AblationSadpVss(v) => {
            put_u8(&mut out, tag::ABLATION_SADP_VSS);
            put_f64(&mut out, v.pearson_r);
            put_f64(&mut out, v.worst_rbl_percent);
            put_f64(&mut out, v.worst_rvss_percent);
        }
        ArtifactValue::ExtensionLe2(v) => {
            put_u8(&mut out, tag::EXTENSION_LE2);
            put_usize(&mut out, v.n);
            put_option_rows(&mut out, &v.rows);
        }
        ArtifactValue::ExtensionLer(v) => {
            put_u8(&mut out, tag::EXTENSION_LER);
            put_usize(&mut out, v.n);
            put_f64(&mut out, v.ler_sigma_nm);
            put_option_rows(&mut out, &v.rows);
        }
        ArtifactValue::ExtensionSensitivity(v) => {
            put_u8(&mut out, tag::EXTENSION_SENSITIVITY);
            put_usize(&mut out, v.n);
            put_usize(&mut out, v.profiles.len());
            for p in &v.profiles {
                put_option(&mut out, p.option);
                put_usize(&mut out, p.n);
                put_f64(&mut out, p.step_nm);
                put_usize(&mut out, p.parameters.len());
                for param in &p.parameters {
                    put_str(&mut out, param.name);
                    put_f64(&mut out, param.slope_pp_per_nm);
                    put_f64(&mut out, param.curvature_pp_per_nm2);
                }
            }
        }
        ArtifactValue::ExtensionScaling(v) => {
            put_u8(&mut out, tag::EXTENSION_SCALING);
            put_usize(&mut out, v.n);
            put_usize(&mut out, v.rows.len());
            for (node, option, a, b) in &v.rows {
                put_str(&mut out, node);
                put_option(&mut out, *option);
                put_f64(&mut out, *a);
                put_f64(&mut out, *b);
            }
        }
        ArtifactValue::Yield6Sigma(v) => {
            put_u8(&mut out, tag::YIELD_6SIGMA);
            put_usize(&mut out, v.n);
            let s = &v.settings;
            put_f64s(&mut out, &s.sigma_margins);
            put_f64s(&mut out, &s.common_margins_percent);
            put_f64(&mut out, s.agreement_margin_percent);
            put_option(&mut out, s.agreement_option);
            put_f64(&mut out, s.sigma_scale);
            put_u64(&mut out, s.seed);
            put_f64(&mut out, s.confidence);
            put_f64(&mut out, s.target_rel_half_width);
            put_u64(&mut out, s.min_failures);
            put_usize(&mut out, s.base_round);
            put_usize(&mut out, s.max_trials);
            put_usize(&mut out, s.brute_max_trials);
            put_usize(&mut out, s.fit_trials);
            put_usize(&mut out, v.rows.len());
            for row in &v.rows {
                put_option(&mut out, row.option);
                put_str(&mut out, row.estimator);
                put_f64(&mut out, row.margin_percent);
                put_f64(&mut out, row.p_fail);
                put_f64(&mut out, row.ci_lo);
                put_f64(&mut out, row.ci_hi);
                put_f64(&mut out, row.rel_half_width);
                put_u64(&mut out, row.trials);
                put_bool(&mut out, row.converged);
                put_f64(&mut out, row.mean_weight);
                put_f64(&mut out, row.gaussian_fit_p);
            }
        }
        ArtifactValue::WriteTime(v) => {
            put_u8(&mut out, tag::WRITE_TIME);
            put_usizes(&mut out, &v.sizes);
            put_f64s(&mut out, &v.t_write_sim_s);
            put_f64s(&mut out, &v.t_write_formula_s);
            put_usize(&mut out, v.penalty_percent.len());
            for (option, penalties) in &v.penalty_percent {
                put_option(&mut out, *option);
                put_f64s(&mut out, penalties);
            }
        }
        ArtifactValue::WriteMargin(v) => {
            put_u8(&mut out, tag::WRITE_MARGIN);
            put_usize(&mut out, v.n);
            put_usize(&mut out, v.rows.len());
            for &(option, a, b, c, d) in &v.rows {
                put_option(&mut out, option);
                put_f64(&mut out, a);
                put_f64(&mut out, b);
                put_f64(&mut out, c);
                put_f64(&mut out, d);
            }
        }
        ArtifactValue::SenseMargin(v) => {
            put_u8(&mut out, tag::SENSE_MARGIN);
            put_usize(&mut out, v.n);
            put_f64(&mut out, v.window_s);
            put_f64(&mut out, v.offset_sigma_v);
            put_option_rows(&mut out, &v.rows);
        }
        ArtifactValue::WlDelay(v) => {
            put_u8(&mut out, tag::WL_DELAY);
            put_usize(&mut out, v.columns);
            put_f64(&mut out, v.near_nominal_s);
            put_f64(&mut out, v.far_nominal_s);
            put_option_rows(&mut out, &v.rows);
        }
        ArtifactValue::WriteYield(v) => {
            put_u8(&mut out, tag::WRITE_YIELD);
            put_usize(&mut out, v.n);
            put_usize(&mut out, v.rows.len());
            for row in &v.rows {
                put_option(&mut out, row.option);
                put_f64(&mut out, row.margin_percent);
                put_f64(&mut out, row.write_p_fail);
                put_f64(&mut out, row.ci_lo);
                put_f64(&mut out, row.ci_hi);
                put_u64(&mut out, row.trials);
                put_bool(&mut out, row.converged);
                put_f64(&mut out, row.read_p_fail);
            }
        }
    }
    out
}

fn put_option_rows(out: &mut Vec<u8>, rows: &[(PatterningOption, f64, f64, f64)]) {
    put_usize(out, rows.len());
    for &(option, a, b, c) in rows {
        put_option(out, option);
        put_f64(out, a);
        put_f64(out, b);
        put_f64(out, c);
    }
}

// ---------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------

/// Decodes a `CODEC_VERSION` payload back into the typed value.
///
/// # Errors
///
/// [`CodecError`] when the payload is truncated, has trailing bytes,
/// or contains an unknown tag / interned string.
pub fn decode_value(bytes: &[u8]) -> Result<ArtifactValue, CodecError> {
    let mut r = Reader::new(bytes);
    let value = decode_inner(&mut r)?;
    r.finish()?;
    Ok(value)
}

fn decode_inner(r: &mut Reader<'_>) -> Result<ArtifactValue, CodecError> {
    Ok(match r.u8()? {
        tag::TABLE1 => {
            let n = r.len()?;
            let mut worst_cases = Vec::with_capacity(n);
            for _ in 0..n {
                worst_cases.push(WorstCase {
                    option: read_option(r)?,
                    draw: read_draw(r)?,
                    nominal: read_parasitics(r)?,
                    worst: read_parasitics(r)?,
                    variation: RelativeVariation {
                        r_var: r.f64()?,
                        c_var: r.f64()?,
                    },
                    infeasible_corners: r.usize()?,
                });
            }
            ArtifactValue::Table1(Table1 { worst_cases })
        }
        tag::FIG4 => {
            let sizes = r.usizes()?;
            let td_nominal_s = r.f64s()?;
            let n = r.len()?;
            let mut td_worst_s = Vec::with_capacity(n);
            for _ in 0..n {
                td_worst_s.push((read_option(r)?, r.f64s()?));
            }
            ArtifactValue::Fig4(Fig4 {
                sizes,
                td_nominal_s,
                td_worst_s,
            })
        }
        tag::TABLE2 => {
            let n = r.len()?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push((r.usize()?, r.f64()?, r.f64()?));
            }
            ArtifactValue::Table2(Table2 { rows })
        }
        tag::TABLE3 => {
            let sizes = r.usizes()?;
            let mut series = [Vec::new(), Vec::new()];
            for s in &mut series {
                let n = r.len()?;
                for _ in 0..n {
                    s.push(r.f64s()?);
                }
            }
            let [simulation, formula] = series;
            ArtifactValue::Table3(Table3 {
                sizes,
                simulation,
                formula,
            })
        }
        tag::FIG5 => {
            let n = r.usize()?;
            let count = r.len()?;
            let mut distributions = Vec::with_capacity(count);
            for _ in 0..count {
                distributions.push(TdpDistribution::from_parts(
                    read_option(r)?,
                    r.usize()?,
                    r.f64s()?,
                    read_summary(r)?,
                    r.usize()?,
                ));
            }
            ArtifactValue::Fig5(Fig5 { n, distributions })
        }
        tag::TABLE4 => {
            let n = r.usize()?;
            let count = r.len()?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push((r.string()?, r.f64()?, r.f64()?, r.f64()?));
            }
            ArtifactValue::Table4(Table4 { n, rows })
        }
        tag::ABLATION_DELAY => {
            let count = r.len()?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push((r.usize()?, r.f64()?, r.f64()?, r.f64()?));
            }
            ArtifactValue::AblationDelay(AblationDelayModels { rows })
        }
        tag::ABLATION_BL_WIDTH => {
            let count = r.len()?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push((r.i64()?, r.f64s()?));
            }
            ArtifactValue::AblationBlWidth(AblationBlWidth { rows })
        }
        tag::ABLATION_SADP_VSS => ArtifactValue::AblationSadpVss(AblationSadpAnticorrelation {
            pearson_r: r.f64()?,
            worst_rbl_percent: r.f64()?,
            worst_rvss_percent: r.f64()?,
        }),
        tag::EXTENSION_LE2 => {
            let n = r.usize()?;
            let rows = read_option_rows(r)?;
            ArtifactValue::ExtensionLe2(ExtensionLe2 { rows, n })
        }
        tag::EXTENSION_LER => {
            let n = r.usize()?;
            let ler_sigma_nm = r.f64()?;
            let rows = read_option_rows(r)?;
            ArtifactValue::ExtensionLer(ExtensionLer {
                n,
                ler_sigma_nm,
                rows,
            })
        }
        tag::EXTENSION_SENSITIVITY => {
            let n = r.usize()?;
            let count = r.len()?;
            let mut profiles = Vec::with_capacity(count);
            for _ in 0..count {
                let option = read_option(r)?;
                let profile_n = r.usize()?;
                let step_nm = r.f64()?;
                let param_count = r.len()?;
                let mut parameters = Vec::with_capacity(param_count);
                for _ in 0..param_count {
                    let name = r.string()?;
                    parameters.push(ParameterSensitivity {
                        name: intern_parameter(r, &name)?,
                        slope_pp_per_nm: r.f64()?,
                        curvature_pp_per_nm2: r.f64()?,
                    });
                }
                profiles.push(SensitivityProfile {
                    option,
                    n: profile_n,
                    step_nm,
                    parameters,
                });
            }
            ArtifactValue::ExtensionSensitivity(SensitivityMatrix { n, profiles })
        }
        tag::EXTENSION_SCALING => {
            let n = r.usize()?;
            let count = r.len()?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push((r.string()?, read_option(r)?, r.f64()?, r.f64()?));
            }
            ArtifactValue::ExtensionScaling(ExtensionScaling { rows, n })
        }
        tag::YIELD_6SIGMA => {
            let n = r.usize()?;
            // `YieldSettings` is #[non_exhaustive]; populate a default
            // field-by-field so a future knob gets its default value
            // under this codec version.
            let mut settings = YieldSettings::default();
            settings.sigma_margins = r.f64s()?;
            settings.common_margins_percent = r.f64s()?;
            settings.agreement_margin_percent = r.f64()?;
            settings.agreement_option = read_option(r)?;
            settings.sigma_scale = r.f64()?;
            settings.seed = r.u64()?;
            settings.confidence = r.f64()?;
            settings.target_rel_half_width = r.f64()?;
            settings.min_failures = r.u64()?;
            settings.base_round = r.usize()?;
            settings.max_trials = r.usize()?;
            settings.brute_max_trials = r.usize()?;
            settings.fit_trials = r.usize()?;
            let count = r.len()?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                let option = read_option(r)?;
                let estimator_name = r.string()?;
                rows.push(YieldRow {
                    option,
                    estimator: intern_estimator(r, &estimator_name)?,
                    margin_percent: r.f64()?,
                    p_fail: r.f64()?,
                    ci_lo: r.f64()?,
                    ci_hi: r.f64()?,
                    rel_half_width: r.f64()?,
                    trials: r.u64()?,
                    converged: r.bool()?,
                    mean_weight: r.f64()?,
                    gaussian_fit_p: r.f64()?,
                });
            }
            ArtifactValue::Yield6Sigma(YieldTable { n, settings, rows })
        }
        tag::WRITE_TIME => {
            let sizes = r.usizes()?;
            let t_write_sim_s = r.f64s()?;
            let t_write_formula_s = r.f64s()?;
            let count = r.len()?;
            let mut penalty_percent = Vec::with_capacity(count);
            for _ in 0..count {
                penalty_percent.push((read_option(r)?, r.f64s()?));
            }
            ArtifactValue::WriteTime(WriteTime {
                sizes,
                t_write_sim_s,
                t_write_formula_s,
                penalty_percent,
            })
        }
        tag::WRITE_MARGIN => {
            let n = r.usize()?;
            let count = r.len()?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push((read_option(r)?, r.f64()?, r.f64()?, r.f64()?, r.f64()?));
            }
            ArtifactValue::WriteMargin(WriteMargin { n, rows })
        }
        tag::SENSE_MARGIN => {
            let n = r.usize()?;
            let window_s = r.f64()?;
            let offset_sigma_v = r.f64()?;
            let rows = read_option_rows(r)?;
            ArtifactValue::SenseMargin(SenseMargin {
                n,
                window_s,
                offset_sigma_v,
                rows,
            })
        }
        tag::WL_DELAY => {
            let columns = r.usize()?;
            let near_nominal_s = r.f64()?;
            let far_nominal_s = r.f64()?;
            let rows = read_option_rows(r)?;
            ArtifactValue::WlDelay(WlDelay {
                columns,
                near_nominal_s,
                far_nominal_s,
                rows,
            })
        }
        tag::WRITE_YIELD => {
            let n = r.usize()?;
            let count = r.len()?;
            let mut rows = Vec::with_capacity(count);
            for _ in 0..count {
                rows.push(WriteYieldRow {
                    option: read_option(r)?,
                    margin_percent: r.f64()?,
                    write_p_fail: r.f64()?,
                    ci_lo: r.f64()?,
                    ci_hi: r.f64()?,
                    trials: r.u64()?,
                    converged: r.bool()?,
                    read_p_fail: r.f64()?,
                });
            }
            ArtifactValue::WriteYield(WriteYieldTable { n, rows })
        }
        other => return Err(r.err(format!("unknown artifact tag {other}"))),
    })
}

fn read_option_rows(
    r: &mut Reader<'_>,
) -> Result<Vec<(PatterningOption, f64, f64, f64)>, CodecError> {
    let count = r.len()?;
    let mut rows = Vec::with_capacity(count);
    for _ in 0..count {
        rows.push((read_option(r)?, r.f64()?, r.f64()?, r.f64()?));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn corrupt_length_prefix_fails_cleanly() {
        let mut bytes = encode_value(&sample_values()[1]);
        // The first 8 bytes after the tag are the `sizes` length; blow
        // it up and the reader must error instead of allocating.
        bytes[1..9].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_value(&bytes).is_err());
    }
}
