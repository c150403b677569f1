//! Property-based tests over the core invariants, spanning crates.

use proptest::prelude::*;

use mpvar::extract::{coupling_cap_f_per_m, extract_track, wire_resistance_ohm};
use mpvar::geometry::{Nm, Track, TrackStack};
use mpvar::litho::{apply_draw, Draw, EuvDraw, Le3Draw, SadpDraw};
use mpvar::spice::{CsrMatrix, DenseMatrix, SymbolicLu};
use mpvar::sram::{BitcellGeometry, FormulaParams};
use mpvar::stats::{Histogram, Summary};
use mpvar::tech::preset::n10;

fn sram_stack() -> TrackStack {
    TrackStack::new(vec![
        Track::new("VSS", Nm(0), Nm(24), Nm(0), Nm(1300)).expect("track"),
        Track::new("BL", Nm(48), Nm(26), Nm(0), Nm(1300)).expect("track"),
        Track::new("VDD", Nm(96), Nm(24), Nm(0), Nm(1300)).expect("track"),
        Track::new("BLB", Nm(144), Nm(26), Nm(0), Nm(1300)).expect("track"),
        Track::new("VSS2", Nm(192), Nm(24), Nm(0), Nm(1300)).expect("track"),
    ])
    .expect("stack")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Coupling capacitance is strictly decreasing in the gap.
    #[test]
    fn coupling_monotone_in_gap(s1 in 3.0f64..60.0, ds in 0.5f64..20.0) {
        let tech = n10();
        let m1 = tech.metal(1).expect("metal1");
        let tight = coupling_cap_f_per_m(m1, s1).expect("valid gap");
        let loose = coupling_cap_f_per_m(m1, s1 + ds).expect("valid gap");
        prop_assert!(tight > loose);
    }

    /// Resistance falls with width and rises with length, always positive.
    #[test]
    fn resistance_monotonicity(w in 10.0f64..60.0, dw in 0.5f64..10.0, l in 50.0f64..5000.0) {
        let tech = n10();
        let m1 = tech.metal(1).expect("metal1");
        let r = wire_resistance_ohm(m1, w, l).expect("valid");
        let r_wide = wire_resistance_ohm(m1, w + dw, l).expect("valid");
        let r_long = wire_resistance_ohm(m1, w, l * 2.0).expect("valid");
        prop_assert!(r > 0.0);
        prop_assert!(r_wide < r);
        prop_assert!((r_long / r - 2.0).abs() < 1e-9);
    }

    /// SADP self-alignment: for ANY draw within the physical range, the
    /// gaps flanking a spacer-defined bit line equal drawn_gap + spacer
    /// error exactly, independent of the core CD error.
    #[test]
    fn sadp_self_alignment(core in -4.0f64..4.0, spacer in -2.0f64..2.0) {
        let stack = sram_stack();
        let draw = Draw::Sadp(SadpDraw { core_cd_nm: core, spacer_nm: spacer });
        let printed = apply_draw(&stack, &draw).expect("feasible draw range");
        let bl = printed.index_of_net("BL").expect("bl exists");
        let expected_gap = 23.0 + spacer;
        prop_assert!((printed.gap_below_nm(bl).expect("gap") - expected_gap).abs() < 1e-9);
        prop_assert!((printed.gap_above_nm(bl).expect("gap") - expected_gap).abs() < 1e-9);
    }

    /// SADP width conservation: mandrel + spacer-defined widths plus the
    /// four spacers tile exactly two track pitches.
    #[test]
    fn sadp_pitch_conservation(core in -4.0f64..4.0, spacer in -2.0f64..2.0) {
        let stack = sram_stack();
        let draw = Draw::Sadp(SadpDraw { core_cd_nm: core, spacer_nm: spacer });
        let printed = apply_draw(&stack, &draw).expect("feasible draw range");
        // VSS center to VDD center spans 2 pitches = 96nm; it must equal
        // half VSS + gap + BL + gap + half VDD.
        let vss = printed.index_of_net("VSS").expect("vss");
        let bl = printed.index_of_net("BL").expect("bl");
        let vdd = printed.index_of_net("VDD").expect("vdd");
        let span = printed.track(vdd).center_nm() - printed.track(vss).center_nm();
        let tiled = printed.track(vss).width_nm() / 2.0
            + printed.gap_below_nm(bl).expect("gap")
            + printed.track(bl).width_nm()
            + printed.gap_above_nm(bl).expect("gap")
            + printed.track(vdd).width_nm() / 2.0;
        prop_assert!((span - tiled).abs() < 1e-9, "span {span} vs tiled {tiled}");
    }

    /// EUV CD error: every printed width moves by exactly the draw; the
    /// pitch (center positions) never moves.
    #[test]
    fn euv_width_exactness(cd in -5.0f64..5.0) {
        let stack = sram_stack();
        let printed = apply_draw(&stack, &Draw::Euv(EuvDraw { cd_nm: cd })).expect("feasible");
        for (drawn, p) in stack.iter().zip(printed.iter()) {
            prop_assert!((p.width_nm() - drawn.width().to_f64() - cd).abs() < 1e-9);
            prop_assert!((p.center_nm() - drawn.y_center().to_f64()).abs() < 1e-12);
        }
    }

    /// LE3 with pure overlay preserves every linewidth (overlay moves
    /// lines, CD changes widths — never mixed up).
    #[test]
    fn le3_overlay_preserves_widths(ob in -8.0f64..8.0, oc in -8.0f64..8.0) {
        let stack = sram_stack();
        let draw = Draw::Le3(Le3Draw { cd_nm: [0.0; 3], overlay_nm: [0.0, ob, oc] });
        if let Ok(printed) = apply_draw(&stack, &draw) {
            for (drawn, p) in stack.iter().zip(printed.iter()) {
                prop_assert!((p.width_nm() - drawn.width().to_f64()).abs() < 1e-9);
            }
        }
    }

    /// Extraction: a uniformly squeezed bit line always has more C and
    /// less R than nominal.
    #[test]
    fn squeeze_direction(cd in 0.5f64..4.0) {
        let tech = n10();
        let m1 = tech.metal(1).expect("metal1");
        let stack = sram_stack();
        let nom = apply_draw(&stack, &Draw::nominal(mpvar::tech::PatterningOption::Euv))
            .expect("nominal prints");
        let sq = apply_draw(&stack, &Draw::Euv(EuvDraw { cd_nm: cd })).expect("feasible");
        let bl = nom.index_of_net("BL").expect("bl");
        let n = extract_track(&nom, bl, m1).expect("extracts");
        let s = extract_track(&sq, bl, m1).expect("extracts");
        prop_assert!(s.c_total_f() > n.c_total_f());
        prop_assert!(s.resistance_ohm() < n.resistance_ohm());
    }

    /// The compiled sparse LU agrees with the dense reference on random
    /// diagonally-dominant systems, including asymmetric patterns.
    #[test]
    fn sparse_matches_dense(seed in 0u64..5000, n in 2usize..25) {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut entries = Vec::new();
        let mut d = DenseMatrix::new(n);
        for r in 0..n {
            for c in 0..n {
                // ~40% fill, strong diagonal.
                let v = next();
                let v = if r == c { 5.0 + v } else { v };
                if r == c || v > 0.1 {
                    entries.push((r, c));
                    d.add(r, c, v);
                }
            }
        }
        let (mut s, slots) = CsrMatrix::from_coords(n, &entries);
        for (&slot, &(r, c)) in slots.iter().zip(&entries) {
            s.values_mut()[slot as usize] = d.get(r, c);
        }
        let b: Vec<f64> = (0..n).map(|_| next() * 4.0).collect();
        let sym = SymbolicLu::analyze(&s).expect("diagonally dominant");
        let mut ws = sym.workspace();
        sym.refactor(&s, &mut ws).expect("diagonally dominant");
        let xs = sym.solve(&ws, &b);
        let xd = d.solve(&b).expect("diagonally dominant");
        for (a, bb) in xs.iter().zip(&xd) {
            prop_assert!((a - bb).abs() < 1e-8, "{a} vs {bb}");
        }
        // Residual check against the original matrix.
        let ax = s.multiply(&xs);
        for (axi, bi) in ax.iter().zip(&b) {
            prop_assert!((axi - bi).abs() < 1e-8);
        }
    }

    /// The analytical formula is monotone in n, C_var, and R_var.
    #[test]
    fn formula_monotonicity(
        n in 1usize..2000,
        rv in 0.5f64..1.5,
        cv in 0.5f64..1.5,
    ) {
        let tech = n10();
        let cell = BitcellGeometry::n10_hd(&tech).expect("cell builds");
        let params = FormulaParams::derive(&tech, &cell, 0.7).expect("derives");
        let model = mpvar::core::AnalyticalModel::new(params, 0.10).expect("model builds");
        let td = model.td_s(n, rv, cv);
        prop_assert!(td > 0.0);
        prop_assert!(model.td_s(n + 1, rv, cv) > td);
        prop_assert!(model.td_s(n, rv + 0.01, cv) > td);
        prop_assert!(model.td_s(n, rv, cv + 0.01) > td);
    }

    /// Histogram mass conservation for arbitrary data.
    #[test]
    fn histogram_mass(data in prop::collection::vec(-1e3f64..1e3, 1..200), bins in 1usize..64) {
        let mut h = Histogram::new(-100.0, 100.0, bins).expect("valid binning");
        for &x in &data {
            h.record(x);
        }
        prop_assert_eq!(h.total(), data.len() as u64);
        prop_assert_eq!(h.in_range() + h.underflow() + h.overflow(), h.total());
    }

    /// Welford summary matches naive two-pass results on arbitrary data.
    #[test]
    fn summary_matches_naive(data in prop::collection::vec(-1e6f64..1e6, 2..300)) {
        let s: Summary = data.iter().copied().collect();
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() <= 1e-9 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() <= 1e-6 * var.abs().max(1.0));
    }
}
