//! Mask decomposition: assigning drawn tracks to patterning steps.

use std::fmt;

/// One of the three LE3 exposure masks.
///
/// The paper (Fig. 2) colors the parallel metal1 tracks across three
/// litho-etch steps; for a regular unidirectional stack the canonical
/// assignment cycles A, B, C bottom-to-top ([`le3_mask_of`]). Masks B and
/// C are aligned to A, so their overlay errors are independent and A's
/// overlay is the reference (zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum Le3Mask {
    /// Reference mask (zero overlay by definition).
    A,
    /// Second mask, aligned to A.
    B,
    /// Third mask, aligned to A.
    C,
}

impl Le3Mask {
    /// All masks in exposure order.
    pub const ALL: [Le3Mask; 3] = [Le3Mask::A, Le3Mask::B, Le3Mask::C];

    /// Index 0/1/2 for parameter arrays.
    pub fn index(self) -> usize {
        match self {
            Le3Mask::A => 0,
            Le3Mask::B => 1,
            Le3Mask::C => 2,
        }
    }
}

impl fmt::Display for Le3Mask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Le3Mask::A => write!(f, "A"),
            Le3Mask::B => write!(f, "B"),
            Le3Mask::C => write!(f, "C"),
        }
    }
}

/// The LE3 mask of the track at stack index `i` (round-robin coloring).
pub(crate) fn le3_mask_of(i: usize) -> Le3Mask {
    Le3Mask::ALL[i % 3]
}

/// A track's role in the SADP flow.
///
/// With a mandrel pitch of twice the track pitch, alternate tracks are
/// printed by the core (mandrel) mask and the remaining tracks are
/// defined by the space left between spacers grown on adjacent mandrels.
/// The paper's design puts the **bit lines on spacer-defined tracks**
/// ("spacer-defined bit lines for SADP", §II.A), which
/// [`sadp_role_of`] reproduces for the `[VSS, BL, VDD, BLB]` stack:
/// even indices are mandrels (rails), odd indices are spacer-defined
/// (bit lines).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SadpRole {
    /// Printed directly by the core mask; carries the core CD error.
    MandrelDefined,
    /// Defined by the gap between spacers; width anti-correlates with
    /// core CD and spacer thickness.
    SpacerDefined,
}

impl fmt::Display for SadpRole {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SadpRole::MandrelDefined => write!(f, "mandrel"),
            SadpRole::SpacerDefined => write!(f, "spacer"),
        }
    }
}

/// The SADP role of the track at stack index `i` (even = mandrel).
pub(crate) fn sadp_role_of(i: usize) -> SadpRole {
    if i.is_multiple_of(2) {
        SadpRole::MandrelDefined
    } else {
        SadpRole::SpacerDefined
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le3_coloring_cycles() {
        let colors: Vec<Le3Mask> = (0..9).map(le3_mask_of).collect();
        assert_eq!(colors[0], Le3Mask::A);
        assert_eq!(colors[4], Le3Mask::B);
        assert_eq!(colors[8], Le3Mask::C);
        // No two adjacent tracks share a mask.
        for w in colors.windows(2) {
            assert_ne!(w[0], w[1]);
        }
    }

    #[test]
    fn le3_mask_indices() {
        for (i, m) in Le3Mask::ALL.iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    fn sadp_alternation() {
        for i in 0..8 {
            let role = sadp_role_of(i);
            if i % 2 == 0 {
                assert_eq!(role, SadpRole::MandrelDefined);
            } else {
                assert_eq!(role, SadpRole::SpacerDefined);
            }
        }
    }

    #[test]
    fn bitlines_are_spacer_defined_in_sram_stack() {
        // Stack order VSS, BL, VDD, BLB repeating: BL at 1, BLB at 3.
        assert_eq!(sadp_role_of(1), SadpRole::SpacerDefined);
        assert_eq!(sadp_role_of(3), SadpRole::SpacerDefined);
        assert_eq!(sadp_role_of(0), SadpRole::MandrelDefined);
        assert_eq!(sadp_role_of(2), SadpRole::MandrelDefined);
    }

    #[test]
    fn display_labels() {
        assert_eq!(Le3Mask::B.to_string(), "B");
        assert_eq!(SadpRole::SpacerDefined.to_string(), "spacer");
    }
}
