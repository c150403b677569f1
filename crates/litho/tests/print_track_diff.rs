//! Differential tests of the single-track kernel: `print_track` must
//! agree with `apply_draw` bit for bit — the same `Ok`/`Err`, the same
//! error, and the same edges, length and gaps — for every option, every
//! index (both stack ends included), and draws that short, collapse or
//! carry non-finite parameters.

use proptest::prelude::*;

use mpvar_geometry::{Nm, Track, TrackStack};
use mpvar_litho::{apply_draw, print_track, Draw, LithoError};
use mpvar_tech::PatterningOption;

/// `len` tracks at 48 nm pitch, alternating 24/26 nm drawn widths (the
/// paper's rail/bit-line metal1 pattern) over 1300 nm of length.
fn stack(len: usize) -> TrackStack {
    let tracks = (0..len)
        .map(|i| {
            let width = if i % 2 == 0 { 24 } else { 26 };
            Track::new(
                format!("T{i}"),
                Nm(48 * i as i64),
                Nm(width),
                Nm(0),
                Nm(1300),
            )
            .expect("valid drawn track")
        })
        .collect();
    TrackStack::new(tracks).expect("valid drawn stack")
}

/// A draw of `option` with parameters taken from `values` in
/// `Draw::parameters` order, and parameter `nan_slot` (when it exists)
/// replaced by NaN.
fn draw(option: PatterningOption, values: [f64; 6], nan_slot: usize) -> Draw {
    let mut d = Draw::nominal(option);
    let names: Vec<&str> = d.parameters().iter().map(|&(n, _)| n).collect();
    for (k, name) in names.into_iter().enumerate() {
        let v = if k == nan_slot { f64::NAN } else { values[k] };
        assert!(d.set_parameter(name, v));
    }
    d
}

fn same_error(a: &LithoError, b: &LithoError) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b) && a.to_string() == b.to_string()
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// Checks one (stack, draw) pair at every index.
fn check_all_indices(stack: &TrackStack, d: &Draw) {
    let full = apply_draw(stack, d);
    for index in 0..stack.len() {
        match (&full, print_track(stack, d, index)) {
            (Ok(printed), Ok(edges)) => {
                let t = printed.track(index);
                assert_eq!(
                    edges.bottom_nm.to_bits(),
                    t.bottom_nm().to_bits(),
                    "{d:?} @ {index}"
                );
                assert_eq!(
                    edges.top_nm.to_bits(),
                    t.top_nm().to_bits(),
                    "{d:?} @ {index}"
                );
                assert_eq!(edges.length_nm.to_bits(), t.length_nm().to_bits());
                assert_eq!(edges.width_nm().to_bits(), t.width_nm().to_bits());
                assert_eq!(bits(edges.gap_below_nm), bits(printed.gap_below_nm(index)));
                assert_eq!(bits(edges.gap_above_nm), bits(printed.gap_above_nm(index)));
            }
            (Err(want), Err(got)) => {
                assert!(same_error(want, &got), "{d:?} @ {index}: {want} vs {got}");
            }
            (want, got) => panic!("{d:?} @ {index}: apply_draw {want:?} vs print_track {got:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random draws wide enough to short and collapse lines, with a NaN
    /// parameter one time in four, on stacks of 1 to 12 tracks. Even
    /// lengths end SADP stacks on a spacer-defined track, which prints
    /// against the periodic-image mandrel.
    #[test]
    fn print_track_matches_apply_draw(
        option_ix in 0usize..4,
        len in 1usize..13,
        a in -30.0..30.0,
        b in -30.0..30.0,
        c in -30.0..30.0,
        e in -30.0..30.0,
        f in -30.0..30.0,
        g in -30.0..30.0,
        nan_pick in 0usize..24,
    ) {
        let option = PatterningOption::ALL_WITH_EXTENSIONS[option_ix];
        let d = draw(option, [a, b, c, e, f, g], nan_pick);
        check_all_indices(&stack(len), &d);
    }

    /// Small draws: the common case of a clean print.
    #[test]
    fn print_track_matches_apply_draw_on_clean_prints(
        option_ix in 0usize..4,
        len in 1usize..13,
        a in -4.0..4.0,
        b in -4.0..4.0,
        c in -4.0..4.0,
        e in -4.0..4.0,
        f in -4.0..4.0,
        g in -4.0..4.0,
    ) {
        let option = PatterningOption::ALL_WITH_EXTENSIONS[option_ix];
        let d = draw(option, [a, b, c, e, f, g], usize::MAX);
        check_all_indices(&stack(len), &d);
    }
}

#[test]
fn sadp_last_track_uses_the_periodic_image() {
    // Four tracks: index 3 is spacer-defined with no mandrel above.
    let s = stack(4);
    let d = draw(
        PatterningOption::Sadp,
        [2.0, 0.8, 0.0, 0.0, 0.0, 0.0],
        usize::MAX,
    );
    let last = print_track(&s, &d, 3).unwrap();
    assert_eq!(last.gap_above_nm, None);
    // The periodic image mirrors the interior: the last track prints
    // as wide as the interior spacer-defined track.
    let interior = print_track(&s, &d, 1).unwrap();
    assert!((last.width_nm() - interior.width_nm()).abs() < 1e-9);
    check_all_indices(&s, &d);
}

#[test]
fn errors_match_and_out_of_range_is_named() {
    let s = stack(5);
    // Collapse (every line shrinks by more than its width).
    let collapse = draw(PatterningOption::Euv, [-30.0; 6], usize::MAX);
    assert!(matches!(
        print_track(&s, &collapse, 2),
        Err(LithoError::CollapsedLine { .. })
    ));
    // Short (every line grows past the 22-24 nm gaps).
    let short = draw(PatterningOption::Euv, [30.0; 6], usize::MAX);
    assert!(matches!(
        print_track(&s, &short, 0),
        Err(LithoError::ShortedLines { .. })
    ));
    // Non-finite parameter, named.
    let nan = draw(PatterningOption::Le3, [0.0; 6], 4);
    assert!(matches!(
        print_track(&s, &nan, 1),
        Err(LithoError::NonFiniteDraw { name: "ol_b", .. })
    ));
    // An index past the end of a printable stack.
    assert_eq!(
        print_track(&s, &Draw::nominal(PatterningOption::Euv), 5),
        Err(LithoError::TrackOutOfRange { index: 5, len: 5 })
    );
    // SADP on an empty stack fails exactly as apply_draw does.
    let empty = TrackStack::new(vec![]).unwrap();
    let sadp = Draw::nominal(PatterningOption::Sadp);
    assert_eq!(
        print_track(&empty, &sadp, 0).unwrap_err(),
        apply_draw(&empty, &sadp).unwrap_err()
    );
}
