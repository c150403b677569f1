//! The batched print of one track: a stack's drawn geometry converted
//! to `f64` once, and a walk that prints [`LANES`] draws per pass.
//!
//! The formula route prints the same bit line of the same drawn window
//! for every trial. [`PrintPlan`] does the per-track `Nm` → `f64` work
//! once per window; [`PrintPlan::print_batch`] then runs the shared
//! `edges_of` over rows of `[f64; LANES]`, one lane per draw, and checks
//! every lane the way [`print_track`] checks its one draw.

use std::ops::{Add, Div, Sub};

use mpvar_geometry::TrackStack;

use crate::apply::{edges_of, print_track, Drawn, Knobs, Lane};
use crate::draw::Draw;
use crate::error::LithoError;
use crate::perturbed::TrackEdges;

/// Draws printed per pass of the lane walk.
pub(crate) const LANES: usize = 8;

/// One `f64` per lane; every operator is the `f64` operator lane by
/// lane.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lanes([f64; LANES]);

macro_rules! lane_op {
    ($trait:ident, $method:ident) => {
        impl $trait for Lanes {
            type Output = Lanes;

            #[inline(always)]
            fn $method(self, rhs: Lanes) -> Lanes {
                let mut out = self.0;
                for (o, r) in out.iter_mut().zip(rhs.0) {
                    *o = $trait::$method(*o, r);
                }
                Lanes(out)
            }
        }
    };
}

lane_op!(Add, add);
lane_op!(Sub, sub);
lane_op!(Div, div);

impl Lane for Lanes {
    #[inline(always)]
    fn splat(v: f64) -> Lanes {
        Lanes([v; LANES])
    }
}

impl Knobs<Lanes> {
    /// Gathers a chunk of draws into lanes of the variant of the first,
    /// flagging the lanes the walk cannot print: draws of another
    /// variant and draws with a non-finite parameter. A flagged lane
    /// keeps whatever it was filled with; its result is never read.
    fn gather(chunk: &[Draw; LANES]) -> (Self, [bool; LANES]) {
        let zero = Lanes::splat(0.0);
        let mut knobs = match chunk[0] {
            Draw::Le3(_) => Knobs::Le3 {
                cd: [zero; 3],
                overlay: [zero; 3],
            },
            Draw::Sadp(_) => Knobs::Sadp {
                core_cd: zero,
                spacer: zero,
            },
            Draw::Euv(_) => Knobs::Euv { cd: zero },
            Draw::Le2(_) => Knobs::Le2 {
                cd: [zero; 2],
                overlay: zero,
            },
        };
        let mut scalar = [false; LANES];
        for (l, draw) in chunk.iter().enumerate() {
            scalar[l] = draw.validate().is_err();
            match (&mut knobs, draw) {
                (Knobs::Le3 { cd, overlay }, Draw::Le3(d)) => {
                    for m in 0..3 {
                        cd[m].0[l] = d.cd_nm[m];
                        overlay[m].0[l] = d.overlay_nm[m];
                    }
                }
                (Knobs::Sadp { core_cd, spacer }, Draw::Sadp(d)) => {
                    core_cd.0[l] = d.core_cd_nm;
                    spacer.0[l] = d.spacer_nm;
                }
                (Knobs::Euv { cd }, Draw::Euv(d)) => cd.0[l] = d.cd_nm,
                (Knobs::Le2 { cd, overlay }, Draw::Le2(d)) => {
                    cd[0].0[l] = d.cd_nm[0];
                    cd[1].0[l] = d.cd_nm[1];
                    overlay.0[l] = d.overlay_nm;
                }
                _ => scalar[l] = true,
            }
        }
        (knobs, scalar)
    }
}

/// The drawn `f64` geometry of one track.
#[derive(Debug, Clone, Copy)]
struct Row {
    width: f64,
    center: f64,
    length: f64,
    /// Spacing to the track below (0 for the bottom track, never read).
    spacing_below: f64,
    /// Spacing to the track above (0 for the top track, never read).
    spacing_above: f64,
}

/// What one pass of the walk printed, per lane: the printed track, its
/// neighbours' near edges, and which lanes left the clean path.
struct Walk {
    bottom: Lanes,
    top: Lanes,
    below_top: Lanes,
    above_bottom: Lanes,
    /// A non-finite edge somewhere: [`print_track`] decides the error.
    non_finite: [bool; LANES],
    /// Finite, but a line collapsed or two lines shorted.
    lost: [bool; LANES],
}

/// Track `index` of a drawn stack, ready to print under many draws.
///
/// Holds, per track, the drawn width, center, length and spacings to
/// both neighbours as `f64`, and the SADP periodic image above the top
/// track: the values [`print_track`] derives from the drawn tracks on
/// every call, by the same expressions. Build one per stack and reuse
/// it for every draw.
///
/// # Example
///
/// ```
/// use mpvar_geometry::{Nm, Track, TrackStack};
/// use mpvar_litho::{print_track, Draw, EuvDraw, PrintPlan};
///
/// let drawn = TrackStack::new(vec![
///     Track::new("VSS", Nm(0),  Nm(24), Nm(0), Nm(1000))?,
///     Track::new("BL",  Nm(48), Nm(26), Nm(0), Nm(1000))?,
///     Track::new("VDD", Nm(96), Nm(24), Nm(0), Nm(1000))?,
/// ])?;
/// let plan = PrintPlan::new(&drawn, 1);
/// let draws = [Draw::Euv(EuvDraw { cd_nm: 3.0 }), Draw::Euv(EuvDraw { cd_nm: -30.0 })];
/// let mut printed = Vec::new();
/// plan.print_batch(&draws, |p| printed.push(p));
/// assert_eq!(printed[0].as_ref().ok(), Some(&Some(print_track(&drawn, &draws[0], 1)?)));
/// assert!(matches!(printed[1], Ok(None))); // every line collapsed
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct PrintPlan {
    /// The drawn stack, for the draws the walk leaves to
    /// [`print_track`].
    stack: TrackStack,
    index: usize,
    rows: Vec<Row>,
    /// `(center, spacing)` of the SADP periodic image above the top
    /// track (zeros for a stack of fewer than two tracks).
    image: (f64, f64),
    /// Whether the walk may run at all: `index` is a track and every
    /// length passes `print_track`'s check, so a lane's outcome depends
    /// on its draw alone.
    walkable: bool,
}

impl PrintPlan {
    /// Converts `stack`'s drawn geometry to `f64` once, for printing
    /// track `index`.
    pub fn new(stack: &TrackStack, index: usize) -> Self {
        let tracks = stack.tracks();
        let n = tracks.len();
        let rows: Vec<Row> = (0..n)
            .map(|i| Row {
                width: tracks.width(i),
                center: tracks.center(i),
                length: tracks[i].length().to_f64(),
                spacing_below: if i > 0 { tracks.spacing_below(i) } else { 0.0 },
                spacing_above: if i + 1 < n {
                    tracks.spacing_above(i)
                } else {
                    0.0
                },
            })
            .collect();
        let image = if n >= 2 {
            tracks.image(n - 1)
        } else {
            (0.0, 0.0)
        };
        let walkable = index < n && rows.iter().all(|r| r.length.is_finite() && r.length > 0.0);
        Self {
            stack: stack.clone(),
            index,
            rows,
            image,
            walkable,
        }
    }

    /// Prints track `index` under every draw, calling `emit` once per
    /// draw in order with what [`print_track`] gives for it:
    ///
    /// * `Ok(Some(edges))` — the same edges, length and gaps, bit for
    ///   bit;
    /// * `Ok(None)` — where `print_track` reports
    ///   [`LithoError::ShortedLines`] or [`LithoError::CollapsedLine`];
    /// * `Err(e)` — `print_track`'s every other error, unchanged.
    ///
    /// Full chunks of draws go through the lane walk; a lane whose draw
    /// is of another variant than its chunk's first, has a non-finite
    /// parameter or prints a non-finite edge, and the remainder shorter
    /// than a chunk, go through `print_track` itself. Nothing is
    /// allocated unless `print_track` builds an error.
    ///
    /// Returns the number of draws the walk printed; the rest went
    /// through `print_track`.
    pub fn print_batch(
        &self,
        draws: &[Draw],
        mut emit: impl FnMut(Result<Option<TrackEdges>, LithoError>),
    ) -> usize {
        let scalar = |draw: &Draw| match print_track(&self.stack, draw, self.index) {
            Ok(edges) => Ok(Some(edges)),
            Err(LithoError::ShortedLines { .. } | LithoError::CollapsedLine { .. }) => Ok(None),
            Err(e) => Err(e),
        };
        let walked = if self.walkable {
            draws.len() / LANES * LANES
        } else {
            0
        };
        let (chunks, rest) = draws.split_at(walked);
        let mut laned = 0;
        let (length_nm, n) = (
            self.rows.get(self.index).map_or(0.0, |r| r.length),
            self.rows.len(),
        );
        for chunk in chunks.chunks_exact(LANES) {
            let chunk: &[Draw; LANES] = chunk.try_into().expect("chunks_exact yields LANES draws");
            let (knobs, fallback) = Knobs::gather(chunk);
            let w = self.walk(&knobs);
            for l in 0..LANES {
                if fallback[l] || w.non_finite[l] {
                    emit(scalar(&chunk[l]));
                    continue;
                }
                laned += 1;
                if w.lost[l] {
                    emit(Ok(None));
                    continue;
                }
                let (bottom_nm, top_nm) = (w.bottom.0[l], w.top.0[l]);
                emit(Ok(Some(TrackEdges {
                    bottom_nm,
                    top_nm,
                    length_nm,
                    gap_below_nm: (self.index > 0).then(|| bottom_nm - w.below_top.0[l]),
                    gap_above_nm: (self.index + 1 < n).then(|| w.above_bottom.0[l] - top_nm),
                })));
            }
        }
        for draw in rest {
            emit(scalar(draw));
        }
        laned
    }

    /// One pass over every track for one chunk of draws: the checks of
    /// [`print_track`] per lane, keeping track `index` and its
    /// neighbours' near edges.
    #[inline(always)]
    fn walk(&self, knobs: &Knobs<Lanes>) -> Walk {
        let zero = Lanes::splat(0.0);
        let mut w = Walk {
            bottom: zero,
            top: zero,
            below_top: zero,
            above_bottom: zero,
            non_finite: [false; LANES],
            lost: [false; LANES],
        };
        let mut prev_top = Lanes::splat(f64::NEG_INFINITY);
        for i in 0..self.rows.len() {
            let (bottom, top) = edges_of(self, i, knobs);
            for l in 0..LANES {
                let (b, t) = (bottom.0[l], top.0[l]);
                w.non_finite[l] |= !(b.is_finite() & t.is_finite());
                // `lost` is read only for lanes whose edges are all
                // finite, where `t <= b` is `print_track`'s collapse.
                w.lost[l] |= (t <= b) | (b - prev_top.0[l] <= 0.0);
            }
            if i + 1 == self.index {
                w.below_top = top;
            } else if i == self.index {
                (w.bottom, w.top) = (bottom, top);
            } else if i == self.index + 1 {
                w.above_bottom = bottom;
            }
            prev_top = top;
        }
        w
    }
}

impl Drawn for PrintPlan {
    #[inline(always)]
    fn len(&self) -> usize {
        self.rows.len()
    }

    #[inline(always)]
    fn width(&self, i: usize) -> f64 {
        self.rows[i].width
    }

    #[inline(always)]
    fn center(&self, i: usize) -> f64 {
        self.rows[i].center
    }

    #[inline(always)]
    fn spacing_below(&self, i: usize) -> f64 {
        self.rows[i].spacing_below
    }

    #[inline(always)]
    fn spacing_above(&self, i: usize) -> f64 {
        self.rows[i].spacing_above
    }

    #[inline(always)]
    fn image(&self, _top: usize) -> (f64, f64) {
        self.image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::{EuvDraw, Le2Draw, Le3Draw, SadpDraw};
    use mpvar_geometry::{Nm, Track};
    use mpvar_tech::PatterningOption;

    /// `len` tracks at 48 nm pitch with alternating 24/26 nm widths.
    fn stack(len: usize) -> TrackStack {
        TrackStack::new(
            (0..len)
                .map(|i| {
                    let width = if i % 2 == 0 { 24 } else { 26 };
                    Track::new(
                        format!("T{i}"),
                        Nm(48 * i as i64),
                        Nm(width),
                        Nm(0),
                        Nm(1000),
                    )
                    .unwrap()
                })
                .collect(),
        )
        .unwrap()
    }

    /// `print_track`'s answer in `print_batch`'s form.
    fn reference(
        stack: &TrackStack,
        draw: &Draw,
        index: usize,
    ) -> Result<Option<TrackEdges>, LithoError> {
        match print_track(stack, draw, index) {
            Ok(edges) => Ok(Some(edges)),
            Err(LithoError::ShortedLines { .. } | LithoError::CollapsedLine { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn key(r: &Result<Option<TrackEdges>, LithoError>) -> Result<Option<[Option<u64>; 5]>, String> {
        match r {
            Ok(Some(e)) => Ok(Some([
                Some(e.bottom_nm.to_bits()),
                Some(e.top_nm.to_bits()),
                Some(e.length_nm.to_bits()),
                e.gap_below_nm.map(f64::to_bits),
                e.gap_above_nm.map(f64::to_bits),
            ])),
            Ok(None) => Ok(None),
            Err(e) => Err(e.to_string()),
        }
    }

    /// A mixed bag of draws: every variant, clean, shorting,
    /// collapsing and non-finite.
    fn draws() -> Vec<Draw> {
        let mut out = Vec::new();
        for k in 0..6 {
            let x = f64::from(k) - 2.5;
            out.push(Draw::Le3(Le3Draw {
                cd_nm: [x, -x, 0.5 * x],
                overlay_nm: [0.0, 2.0 * x, -1.5 * x],
            }));
            out.push(Draw::Sadp(SadpDraw {
                core_cd_nm: x,
                spacer_nm: -0.4 * x,
            }));
            out.push(Draw::Euv(EuvDraw { cd_nm: x }));
            out.push(Draw::Le2(Le2Draw {
                cd_nm: [x, 0.3 * x],
                overlay_nm: 2.0 * x,
            }));
        }
        out.push(Draw::Euv(EuvDraw { cd_nm: 30.0 })); // shorts
        out.push(Draw::Euv(EuvDraw { cd_nm: -30.0 })); // collapses
        out.push(Draw::Euv(EuvDraw { cd_nm: f64::NAN }));
        out.push(Draw::Euv(EuvDraw { cd_nm: 1e300 }));
        out.push(Draw::Le3(Le3Draw {
            cd_nm: [0.0; 3],
            overlay_nm: [0.0, f64::INFINITY, 0.0],
        }));
        out
    }

    fn assert_matches_print_track(stack: &TrackStack, index: usize, draws: &[Draw]) {
        let plan = PrintPlan::new(stack, index);
        let mut got = Vec::new();
        plan.print_batch(draws, |p| got.push(key(&p)));
        assert_eq!(got.len(), draws.len());
        for (d, g) in draws.iter().zip(got) {
            assert_eq!(g, key(&reference(stack, d, index)), "{d:?} @ {index}");
        }
    }

    #[test]
    fn single_variant_chunks_match_print_track_at_every_index() {
        let s = stack(9);
        for option in PatterningOption::ALL_WITH_EXTENSIONS {
            let same: Vec<Draw> = draws()
                .into_iter()
                .filter(|d| d.option() == option)
                .cycle()
                .take(3 * LANES + 3)
                .collect();
            for index in 0..s.len() {
                assert_matches_print_track(&s, index, &same);
            }
        }
    }

    #[test]
    fn mixed_chunks_and_odd_stacks_match_print_track() {
        let all = draws();
        for len in [1, 2, 5, 6] {
            let s = stack(len);
            for index in 0..=len {
                assert_matches_print_track(&s, index, &all);
            }
        }
        let empty = TrackStack::new(vec![]).unwrap();
        assert_matches_print_track(&empty, 0, &all);
    }

    #[test]
    fn walk_counts_only_lane_printed_draws() {
        let s = stack(9);
        let plan = PrintPlan::new(&s, 3);
        let clean = vec![Draw::nominal(PatterningOption::Le3); 2 * LANES + 3];
        assert_eq!(plan.print_batch(&clean, |_| {}), 2 * LANES);
        let mut mixed = clean.clone();
        mixed[1] = Draw::nominal(PatterningOption::Euv);
        mixed[LANES] = Draw::Le3(Le3Draw {
            cd_nm: [f64::NAN; 3],
            overlay_nm: [0.0; 3],
        });
        assert_eq!(plan.print_batch(&mixed, |_| {}), 2 * LANES - 2);
        assert_eq!(PrintPlan::new(&s, 9).print_batch(&clean, |_| {}), 0);
    }
}
