//! Applying a variation draw to drawn geometry: the patterning physics.
//!
//! `edges_of` is the one copy of the per-option patterning
//! arithmetic, generic over one `f64` or a row of lanes. [`apply_draw`]
//! collects its edges into a whole [`PerturbedStack`]; [`print_track`]
//! walks the same edges without allocating and keeps only one track and
//! its two gaps, which is all the analytical formula route reads per
//! trial; [`PrintPlan`](crate::PrintPlan) walks them for a batch of
//! draws at once.

use std::ops::{Add, Div, Sub};

use mpvar_geometry::{Track, TrackStack};

use crate::decompose::{le3_mask_of, sadp_role_of, SadpRole};
use crate::draw::Draw;
use crate::error::LithoError;
use crate::perturbed::{check_edges, check_gap, PerturbedStack, PerturbedTrack, TrackEdges};

/// Prints the drawn `stack` under variation `draw`, producing the
/// post-lithography geometry.
///
/// Per-option behaviour (paper §II, Fig. 2):
///
/// * **LE3** — track `i` belongs to mask `i mod 3`; its width grows by
///   that mask's CD error and its centerline shifts by the mask's
///   overlay error.
/// * **EUV** — every width grows by the single mask's CD error; centers
///   are unmoved.
/// * **SADP** — even-index tracks are mandrels: width grows by the core
///   CD error around a fixed center. Spacers of thickness `drawn gap +
///   spacer error` grow on every mandrel sidewall; odd-index tracks fill
///   the space left between spacers, so each of their gaps equals the
///   spacer thickness exactly and their width absorbs both errors with
///   opposite sign. A spacer-defined track at the top (or bottom) of the
///   stack uses a periodic-image mandrel — the mandrel below reflected
///   about the track center — matching an array that continues beyond
///   the analysed window.
///
/// # Errors
///
/// * [`LithoError::NonFiniteDraw`] for NaN/inf parameters;
/// * [`LithoError::CollapsedLine`] when variation drives a width to zero;
/// * [`LithoError::ShortedLines`] when adjacent printed lines touch;
/// * [`LithoError::UndecomposableStack`] for SADP on an empty stack.
pub fn apply_draw(stack: &TrackStack, draw: &Draw) -> Result<PerturbedStack, LithoError> {
    check_draw(stack, draw)?;
    let tracks = stack.tracks();
    let knobs = Knobs::of(draw);
    let printed = tracks
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let (bottom, top) = edges_of(tracks, i, &knobs);
            PerturbedTrack::new(t.net(), bottom, top, t.length().to_f64())
        })
        .collect::<Result<Vec<_>, _>>()?;
    PerturbedStack::new(printed)
}

/// Prints only track `index` of `stack` under `draw`: its edges, length
/// and the gaps to its printed neighbours, without allocating on the
/// `Ok` path.
///
/// Every track of the stack is still printed and checked exactly as
/// [`apply_draw`] checks it — finite edges, positive width and length,
/// no short anywhere in the stack — and the first error is the one
/// [`apply_draw`] would return, so `print_track(s, d, i)` is `Ok` iff
/// `apply_draw(s, d)` is, and its values equal the printed stack's bit
/// for bit.
///
/// # Errors
///
/// The errors of [`apply_draw`], then
/// [`LithoError::TrackOutOfRange`] when `index` is not a track of a
/// printable stack.
///
/// # Example
///
/// ```
/// use mpvar_geometry::{Nm, Track, TrackStack};
/// use mpvar_litho::{apply_draw, print_track, Draw, EuvDraw};
///
/// let drawn = TrackStack::new(vec![
///     Track::new("VSS", Nm(0),  Nm(24), Nm(0), Nm(1000))?,
///     Track::new("BL",  Nm(48), Nm(26), Nm(0), Nm(1000))?,
///     Track::new("VDD", Nm(96), Nm(24), Nm(0), Nm(1000))?,
/// ])?;
/// let draw = Draw::Euv(EuvDraw { cd_nm: 3.0 });
/// let bl = print_track(&drawn, &draw, 1)?;
/// let stack = apply_draw(&drawn, &draw)?;
/// assert_eq!(bl.width_nm(), stack.track(1).width_nm());
/// assert_eq!(bl.gap_below_nm, stack.gap_below_nm(1));
/// assert_eq!(bl.gap_above_nm, stack.gap_above_nm(1));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn print_track(
    stack: &TrackStack,
    draw: &Draw,
    index: usize,
) -> Result<TrackEdges, LithoError> {
    check_draw(stack, draw)?;
    let tracks = stack.tracks();
    let knobs = Knobs::of(draw);
    // `apply_draw` rejects a bad track before any short, so a short is
    // only reported once every track has printed cleanly.
    let mut first_short: Option<usize> = None;
    let mut prev_top = f64::NEG_INFINITY;
    for (i, t) in tracks.iter().enumerate() {
        let (bottom, top) = edges_of(tracks, i, &knobs);
        check_edges(t.net(), bottom, top, t.length().to_f64())?;
        if bottom - prev_top <= 0.0 && first_short.is_none() {
            first_short = Some(i);
        }
        prev_top = top;
    }
    if let Some(upper) = first_short {
        let gap = edges_of(tracks, upper, &knobs).0 - edges_of(tracks, upper - 1, &knobs).1;
        check_gap(tracks[upper - 1].net(), tracks[upper].net(), gap)?;
    }
    let Some(t) = tracks.get(index) else {
        return Err(LithoError::TrackOutOfRange {
            index,
            len: tracks.len(),
        });
    };
    // The walk checked every track; re-deriving the three the caller
    // needs is the same arithmetic, so the same bits.
    let (bottom_nm, top_nm) = edges_of(tracks, index, &knobs);
    Ok(TrackEdges {
        bottom_nm,
        top_nm,
        length_nm: t.length().to_f64(),
        gap_below_nm: index
            .checked_sub(1)
            .map(|below| bottom_nm - edges_of(tracks, below, &knobs).1),
        gap_above_nm: (index + 1 < tracks.len())
            .then(|| edges_of(tracks, index + 1, &knobs).0 - top_nm),
    })
}

/// The checks on the draw itself that precede printing any track.
fn check_draw(stack: &TrackStack, draw: &Draw) -> Result<(), LithoError> {
    draw.validate()?;
    if matches!(draw, Draw::Sadp(_)) && stack.is_empty() {
        return Err(LithoError::UndecomposableStack {
            reason: "empty stack".into(),
        });
    }
    Ok(())
}

/// The drawn geometry [`edges_of`] reads, as `f64` nm: straight from
/// the tracks, or precomputed once by a [`PrintPlan`](crate::PrintPlan)
/// with the very same expressions, so both read the same bits.
pub(crate) trait Drawn {
    /// Number of tracks.
    fn len(&self) -> usize;
    /// Drawn width of track `i`.
    fn width(&self, i: usize) -> f64;
    /// Drawn centerline of track `i`.
    fn center(&self, i: usize) -> f64;
    /// Drawn spacing between track `i` and the track below it.
    fn spacing_below(&self, i: usize) -> f64;
    /// Drawn spacing between track `i` and the track above it.
    fn spacing_above(&self, i: usize) -> f64;
    /// SADP periodic image above the top track `i`: the center of the
    /// mandrel below reflected about track `i`'s center, and the
    /// drawn spacing from track `i` to that mandrel.
    fn image(&self, i: usize) -> (f64, f64);
}

impl Drawn for [Track] {
    #[inline(always)]
    fn len(&self) -> usize {
        <[Track]>::len(self)
    }

    #[inline(always)]
    fn width(&self, i: usize) -> f64 {
        self[i].width().to_f64()
    }

    #[inline(always)]
    fn center(&self, i: usize) -> f64 {
        self[i].y_center().to_f64()
    }

    #[inline(always)]
    fn spacing_below(&self, i: usize) -> f64 {
        self[i - 1].spacing_to(&self[i]).to_f64()
    }

    #[inline(always)]
    fn spacing_above(&self, i: usize) -> f64 {
        self[i].spacing_to(&self[i + 1]).to_f64()
    }

    #[inline(always)]
    fn image(&self, i: usize) -> (f64, f64) {
        let (t, below) = (&self[i], &self[i - 1]);
        let center = 2.0 * t.y_center().to_f64() - below.y_center().to_f64();
        (center, t.spacing_to(below).to_f64())
    }
}

/// The values [`edges_of`] computes with: one `f64`, or one `f64` per
/// lane of the batched walk. Every operation is the `f64` operation
/// (lane by lane), so a lane's result has the bits of the scalar one.
pub(crate) trait Lane:
    Copy + Add<Output = Self> + Sub<Output = Self> + Div<Output = Self>
{
    /// The same value in every lane.
    fn splat(v: f64) -> Self;
}

impl Lane for f64 {
    #[inline(always)]
    fn splat(v: f64) -> f64 {
        v
    }
}

/// A draw's variation parameters in the form [`edges_of`] reads them,
/// generic over the lane type: `Knobs<f64>` is one [`Draw`], and the
/// lane walk gathers a chunk of draws into one `Knobs` of lanes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Knobs<T> {
    /// LE3: CD and overlay per mask (A, B, C).
    Le3 { cd: [T; 3], overlay: [T; 3] },
    /// SADP: core CD and spacer thickness errors.
    Sadp { core_cd: T, spacer: T },
    /// EUV: the single mask's CD error.
    Euv { cd: T },
    /// LE2: CD per mask (A, B) and mask B's overlay.
    Le2 { cd: [T; 2], overlay: T },
}

impl Knobs<f64> {
    /// The parameters of one draw.
    #[inline(always)]
    pub(crate) fn of(draw: &Draw) -> Self {
        match *draw {
            Draw::Le3(d) => Knobs::Le3 {
                cd: d.cd_nm,
                overlay: d.overlay_nm,
            },
            Draw::Sadp(d) => Knobs::Sadp {
                core_cd: d.core_cd_nm,
                spacer: d.spacer_nm,
            },
            Draw::Euv(d) => Knobs::Euv { cd: d.cd_nm },
            Draw::Le2(d) => Knobs::Le2 {
                cd: d.cd_nm,
                overlay: d.overlay_nm,
            },
        }
    }
}

/// Printed edges `(bottom, top)` of track `i` of `g` under `knobs`:
/// the one copy of the per-option patterning arithmetic, shared by
/// [`apply_draw`], [`print_track`] (`T = f64`) and the lane walk of
/// [`PrintPlan::print_batch`](crate::PrintPlan::print_batch). It and
/// its SADP helpers are forced inline into the per-track loops, which
/// measured 15–25% faster per `print_track` call than leaving the
/// choice to the compiler.
#[inline(always)]
pub(crate) fn edges_of<G: Drawn + ?Sized, T: Lane>(g: &G, i: usize, knobs: &Knobs<T>) -> (T, T) {
    let (width, center) = match knobs {
        Knobs::Le3 { cd, overlay } => {
            let mask = le3_mask_of(i);
            (
                T::splat(g.width(i)) + cd[mask.index()],
                T::splat(g.center(i)) + overlay[mask.index()],
            )
        }
        Knobs::Euv { cd } => (T::splat(g.width(i)) + *cd, T::splat(g.center(i))),
        Knobs::Le2 { cd, overlay } => {
            // Two-mask coloring: track i is on mask i mod 2; only mask B
            // carries an overlay error (A is the reference).
            let mask = i % 2;
            let shift = if mask == 1 { *overlay } else { T::splat(0.0) };
            (
                T::splat(g.width(i)) + cd[mask],
                T::splat(g.center(i)) + shift,
            )
        }
        Knobs::Sadp { core_cd, spacer } => return sadp_edges_of(g, i, *core_cd, *spacer),
    };
    centered(width, center)
}

/// Edges `(center - width/2, center + width/2)`.
#[inline(always)]
fn centered<T: Lane>(width: T, center: T) -> (T, T) {
    let half = width / T::splat(2.0);
    (center - half, center + half)
}

/// Printed edges `(bottom, top)` of the mandrel at index `i` (center
/// fixed, width grown by the core CD error).
#[inline(always)]
fn mandrel_edges<G: Drawn + ?Sized, T: Lane>(g: &G, i: usize, core_cd: T) -> (T, T) {
    centered(T::splat(g.width(i)) + core_cd, T::splat(g.center(i)))
}

/// SADP edges of track `i`: a mandrel prints around its own center; a
/// spacer-defined track fills the space between the spacers of the
/// mandrels on either side.
#[inline(always)]
fn sadp_edges_of<G: Drawn + ?Sized, T: Lane>(g: &G, i: usize, core_cd: T, spacer: T) -> (T, T) {
    match sadp_role_of(i) {
        SadpRole::MandrelDefined => mandrel_edges(g, i, core_cd),
        SadpRole::SpacerDefined => {
            // Edge from the mandrel below (always exists: index 0 is a
            // mandrel).
            let spacer_below = T::splat(g.spacing_below(i)) + spacer;
            let (_, below_top) = mandrel_edges(g, i - 1, core_cd);
            let bottom = below_top + spacer_below;

            // Edge from the mandrel above, real or periodic image.
            let top = if i + 1 < g.len() {
                let spacer_above = T::splat(g.spacing_above(i)) + spacer;
                let (above_bottom, _) = mandrel_edges(g, i + 1, core_cd);
                above_bottom - spacer_above
            } else {
                // Periodic image: reflect the mandrel below about this
                // track's drawn center.
                let (image_center, image_spacing) = g.image(i);
                let image_width = T::splat(g.width(i - 1)) + core_cd;
                let image_bottom = T::splat(image_center) - image_width / T::splat(2.0);
                let spacer_above = T::splat(image_spacing) + spacer;
                image_bottom - spacer_above
            };
            (bottom, top)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::draw::{EuvDraw, Le3Draw, SadpDraw};
    use mpvar_geometry::Nm;

    /// The paper's SRAM metal1 stack for one cell plus the next cell's
    /// first rail: VSS(24) BL(26) VDD(24) BLB(26) VSS(24) at 48nm pitch.
    fn sram_stack() -> TrackStack {
        TrackStack::new(vec![
            Track::new("VSS", Nm(0), Nm(24), Nm(0), Nm(1000)).unwrap(),
            Track::new("BL", Nm(48), Nm(26), Nm(0), Nm(1000)).unwrap(),
            Track::new("VDD", Nm(96), Nm(24), Nm(0), Nm(1000)).unwrap(),
            Track::new("BLB", Nm(144), Nm(26), Nm(0), Nm(1000)).unwrap(),
            Track::new("VSS2", Nm(192), Nm(24), Nm(0), Nm(1000)).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn nominal_draw_reproduces_drawn_geometry() {
        let stack = sram_stack();
        for option in mpvar_tech::PatterningOption::ALL {
            let printed = apply_draw(&stack, &Draw::nominal(option)).unwrap();
            for (drawn, p) in stack.iter().zip(printed.iter()) {
                assert!(
                    (p.width_nm() - drawn.width().to_f64()).abs() < 1e-9,
                    "{option}: width of {}",
                    drawn.net()
                );
                assert!(
                    (p.center_nm() - drawn.y_center().to_f64()).abs() < 1e-9,
                    "{option}: center of {}",
                    drawn.net()
                );
            }
        }
    }

    #[test]
    fn euv_cd_widens_all_lines_and_shrinks_gaps() {
        let stack = sram_stack();
        let printed = apply_draw(&stack, &Draw::Euv(EuvDraw { cd_nm: 3.0 })).unwrap();
        for (i, t) in stack.iter().enumerate() {
            assert!((printed.track(i).width_nm() - t.width().to_f64() - 3.0).abs() < 1e-9);
        }
        // Nominal BL gaps are 23nm; CD +3 shrinks each by 3 (1.5 per edge).
        let bl = printed.index_of_net("BL").unwrap();
        assert!((printed.gap_below_nm(bl).unwrap() - 20.0).abs() < 1e-9);
        assert!((printed.gap_above_nm(bl).unwrap() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn le3_worst_case_squeezes_bitline() {
        // BL is at index 1 (mask B). The paper's worst case shifts its
        // neighbours toward it with OL and widens everything with CD.
        // Neighbours of BL: VSS (A, below), VDD (C, above). Shift B? BL
        // itself is on B. Worst for BL's gaps: move BL up toward VDD
        // (ol_b +) while VDD moves down (ol_c -)... Here we directly
        // check geometry arithmetic, not the corner search.
        let stack = sram_stack();
        let d = Le3Draw {
            cd_nm: [3.0, 3.0, 3.0],
            overlay_nm: [0.0, 4.0, -4.0],
        };
        let printed = apply_draw(&stack, &Draw::Le3(d)).unwrap();
        let bl = printed.index_of_net("BL").unwrap();
        // Gap below: drawn 23, minus CD (1.5+1.5), plus BL's own +4
        // upward shift away from VSS.
        assert!((printed.gap_below_nm(bl).unwrap() - (23.0 - 3.0 + 4.0)).abs() < 1e-9);
        // Gap above: drawn 23, minus CD 3, minus the 8nm relative
        // approach (BL up 4, VDD down 4).
        assert!((printed.gap_above_nm(bl).unwrap() - (23.0 - 3.0 - 8.0)).abs() < 1e-9);
    }

    #[test]
    fn le3_same_mask_tracks_move_together() {
        let stack = sram_stack();
        let d = Le3Draw {
            cd_nm: [0.0; 3],
            overlay_nm: [2.0, 0.0, 0.0],
        };
        let printed = apply_draw(&stack, &Draw::Le3(d)).unwrap();
        // Tracks 0 and 3 are both mask A: both shift by +2.
        assert!((printed.track(0).center_nm() - 2.0).abs() < 1e-9);
        assert!((printed.track(3).center_nm() - 146.0).abs() < 1e-9);
        // Track 1 (mask B) unmoved.
        assert!((printed.track(1).center_nm() - 48.0).abs() < 1e-9);
    }

    #[test]
    fn sadp_gaps_equal_spacer_thickness() {
        let stack = sram_stack();
        let d = SadpDraw {
            core_cd_nm: -3.0,
            spacer_nm: -0.5,
        };
        let printed = apply_draw(&stack, &Draw::Sadp(d)).unwrap();
        let bl = printed.index_of_net("BL").unwrap();
        // Every gap adjacent to a spacer-defined line is exactly
        // drawn_gap + spacer error = 23 - 0.5 = 22.5: self-alignment.
        assert!((printed.gap_below_nm(bl).unwrap() - 22.5).abs() < 1e-9);
        assert!((printed.gap_above_nm(bl).unwrap() - 22.5).abs() < 1e-9);
    }

    #[test]
    fn sadp_spacer_defined_width_anticorrelates() {
        let stack = sram_stack();
        // Core shrink and spacer shrink both WIDEN the spacer-defined BL:
        // width = 2*pitch - mandrel - 2*spacer.
        let d = SadpDraw {
            core_cd_nm: -3.0,
            spacer_nm: -0.5,
        };
        let printed = apply_draw(&stack, &Draw::Sadp(d)).unwrap();
        let bl = printed.index_of_net("BL").unwrap();
        // Mandrel widths 24-3=21 (±1.5 per edge); spacers 22.5.
        // BL spans from VSS top + 22.5 to VDD bottom - 22.5:
        // VSS top = 12 - 1.5 = 10.5; VDD bottom = 84 + 1.5 = 85.5.
        // Width = (85.5 - 22.5) - (10.5 + 22.5) = 63 - 33 = 30.
        assert!(
            (printed.track(bl).width_nm() - 30.0).abs() < 1e-9,
            "width {}",
            printed.track(bl).width_nm()
        );
        // Rails got narrower while BL got wider: anti-correlation.
        let vss = printed.index_of_net("VSS").unwrap();
        assert!(printed.track(vss).width_nm() < 24.0);
        assert!(printed.track(bl).width_nm() > 26.0);
    }

    #[test]
    fn sadp_periodic_image_matches_interior() {
        // In a long tiled stack, the last BLB (no mandrel above) must get
        // the same width as an interior BLB under the same draw.
        let base = sram_stack();
        let d = Draw::Sadp(SadpDraw {
            core_cd_nm: 2.0,
            spacer_nm: 0.8,
        });
        let printed = apply_draw(&base, &d).unwrap();
        // Stack without the trailing VSS2: BLB becomes the boundary track.
        let truncated = TrackStack::new(base.tracks()[..4].to_vec()).unwrap();
        let printed_trunc = apply_draw(&truncated, &d).unwrap();
        let interior = printed.index_of_net("BLB").unwrap();
        let boundary = printed_trunc.index_of_net("BLB").unwrap();
        assert!(
            (printed.track(interior).width_nm() - printed_trunc.track(boundary).width_nm()).abs()
                < 1e-9
        );
    }

    #[test]
    fn le2_overlay_moves_gaps_antisymmetrically() {
        // With two masks, BOTH neighbours of a mask-B line are mask A:
        // shifting B closes one gap exactly as much as it opens the
        // other — the defining LELE behaviour.
        use crate::draw::Le2Draw;
        let stack = sram_stack();
        let printed = apply_draw(
            &stack,
            &Draw::Le2(Le2Draw {
                cd_nm: [0.0, 0.0],
                overlay_nm: 5.0,
            }),
        )
        .unwrap();
        let bl = printed.index_of_net("BL").unwrap(); // index 1: mask B
        assert!((printed.gap_below_nm(bl).unwrap() - 28.0).abs() < 1e-9);
        assert!((printed.gap_above_nm(bl).unwrap() - 18.0).abs() < 1e-9);
        // Widths untouched by pure overlay.
        for (drawn, p) in stack.iter().zip(printed.iter()) {
            assert!((p.width_nm() - drawn.width().to_f64()).abs() < 1e-9);
        }
    }

    #[test]
    fn le2_per_mask_cd() {
        use crate::draw::Le2Draw;
        let stack = sram_stack();
        let printed = apply_draw(
            &stack,
            &Draw::Le2(Le2Draw {
                cd_nm: [2.0, -1.0],
                overlay_nm: 0.0,
            }),
        )
        .unwrap();
        // Even indices (VSS, VDD, VSS2) on mask A (+2), odd (BL, BLB) on
        // mask B (-1).
        assert!((printed.track(0).width_nm() - 26.0).abs() < 1e-9);
        assert!((printed.track(1).width_nm() - 25.0).abs() < 1e-9);
        assert!((printed.track(2).width_nm() - 26.0).abs() < 1e-9);
    }

    #[test]
    fn collapsing_draw_is_an_error() {
        let stack = sram_stack();
        let r = apply_draw(&stack, &Draw::Euv(EuvDraw { cd_nm: -26.0 }));
        assert!(matches!(r, Err(LithoError::CollapsedLine { .. })));
    }

    #[test]
    fn shorting_draw_is_an_error() {
        let stack = sram_stack();
        let d = Le3Draw {
            cd_nm: [0.0; 3],
            overlay_nm: [0.0, 24.0, 0.0], // BL slams into VDD
        };
        assert!(matches!(
            apply_draw(&stack, &Draw::Le3(d)),
            Err(LithoError::ShortedLines { .. })
        ));
    }

    #[test]
    fn non_finite_draw_rejected() {
        let stack = sram_stack();
        let d = Draw::Euv(EuvDraw { cd_nm: f64::NAN });
        assert!(matches!(
            apply_draw(&stack, &d),
            Err(LithoError::NonFiniteDraw { .. })
        ));
    }

    #[test]
    fn sadp_empty_stack_rejected() {
        let empty = TrackStack::new(vec![]).unwrap();
        assert!(matches!(
            apply_draw(&empty, &Draw::Sadp(SadpDraw::default())),
            Err(LithoError::UndecomposableStack { .. })
        ));
        // LE3/EUV on empty stacks are fine (empty result).
        assert!(apply_draw(&empty, &Draw::nominal(mpvar_tech::PatterningOption::Euv)).is_ok());
    }
}
