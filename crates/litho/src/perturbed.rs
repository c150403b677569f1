//! Printed (post-variation) track geometry in `f64` nanometres.

use crate::error::LithoError;

/// A printed horizontal wire: edges and span after process variation.
///
/// Unlike the drawn [`Track`](mpvar_geometry::Track), printed geometry is
/// real-valued: CD errors and overlay shifts are generally fractions of a
/// nanometre per sigma.
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbedTrack {
    net: String,
    bottom_nm: f64,
    top_nm: f64,
    length_nm: f64,
}

impl PerturbedTrack {
    /// Creates a printed track from its edges.
    ///
    /// # Errors
    ///
    /// [`LithoError::CollapsedLine`] when `top <= bottom`;
    /// [`LithoError::NonFiniteDraw`] for non-finite inputs.
    pub fn new(
        net: impl Into<String>,
        bottom_nm: f64,
        top_nm: f64,
        length_nm: f64,
    ) -> Result<Self, LithoError> {
        let net = net.into();
        check_edges(&net, bottom_nm, top_nm, length_nm)?;
        Ok(Self {
            net,
            bottom_nm,
            top_nm,
            length_nm,
        })
    }

    /// Net label.
    pub fn net(&self) -> &str {
        &self.net
    }

    /// Bottom edge, nm.
    pub fn bottom_nm(&self) -> f64 {
        self.bottom_nm
    }

    /// Top edge, nm.
    pub fn top_nm(&self) -> f64 {
        self.top_nm
    }

    /// Printed linewidth, nm.
    pub fn width_nm(&self) -> f64 {
        self.top_nm - self.bottom_nm
    }

    /// Centerline, nm.
    pub fn center_nm(&self) -> f64 {
        0.5 * (self.top_nm + self.bottom_nm)
    }

    /// Wire length along the track, nm.
    pub fn length_nm(&self) -> f64 {
        self.length_nm
    }
}

/// The validity checks of one printed track: finite edges and length,
/// positive width and length. Allocates only to build the error.
pub(crate) fn check_edges(
    net: &str,
    bottom_nm: f64,
    top_nm: f64,
    length_nm: f64,
) -> Result<(), LithoError> {
    let finite = bottom_nm.is_finite() && top_nm.is_finite() && length_nm.is_finite();
    if finite && top_nm > bottom_nm && length_nm > 0.0 {
        Ok(())
    } else {
        Err(edges_error(net, bottom_nm, top_nm, length_nm))
    }
}

/// The error of a track that failed [`check_edges`], naming the first
/// failed check.
#[cold]
fn edges_error(net: &str, bottom_nm: f64, top_nm: f64, length_nm: f64) -> LithoError {
    for (name, v) in [
        ("bottom_nm", bottom_nm),
        ("top_nm", top_nm),
        ("length_nm", length_nm),
    ] {
        if !v.is_finite() {
            return LithoError::NonFiniteDraw { name, value: v };
        }
    }
    let width_nm = if top_nm <= bottom_nm {
        top_nm - bottom_nm
    } else {
        length_nm
    };
    LithoError::CollapsedLine {
        net: net.to_string(),
        width_nm,
    }
}

/// The short check between adjacent printed tracks: a non-positive gap
/// is a short. Allocates only to build the error.
pub(crate) fn check_gap(lower: &str, upper: &str, gap_nm: f64) -> Result<(), LithoError> {
    if gap_nm <= 0.0 {
        return Err(LithoError::ShortedLines {
            lower: lower.to_string(),
            upper: upper.to_string(),
            gap_nm,
        });
    }
    Ok(())
}

/// One printed track and the gaps to its printed neighbours — what
/// [`print_track`](crate::print_track) keeps of a printed stack. Each
/// value equals the matching [`PerturbedStack`] query bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackEdges {
    /// Bottom edge, nm.
    pub bottom_nm: f64,
    /// Top edge, nm.
    pub top_nm: f64,
    /// Wire length along the track, nm.
    pub length_nm: f64,
    /// Gap to the lower neighbour, nm; `None` for the bottom track.
    pub gap_below_nm: Option<f64>,
    /// Gap to the upper neighbour, nm; `None` for the top track.
    pub gap_above_nm: Option<f64>,
}

impl TrackEdges {
    /// Printed linewidth, nm.
    pub fn width_nm(&self) -> f64 {
        self.top_nm - self.bottom_nm
    }
}

/// An ordered stack of printed tracks (bottom to top).
///
/// # Example
///
/// ```
/// use mpvar_litho::PerturbedTrack;
/// use mpvar_litho::PerturbedStack;
///
/// let stack = PerturbedStack::new(vec![
///     PerturbedTrack::new("VSS", -12.0, 12.0, 1000.0)?,
///     PerturbedTrack::new("BL", 35.0, 61.0, 1000.0)?,
/// ])?;
/// assert!((stack.gap_below_nm(1).unwrap() - 23.0).abs() < 1e-12);
/// assert!(stack.gap_below_nm(0).is_none()); // bottom track has no lower neighbour
/// # Ok::<(), mpvar_litho::LithoError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PerturbedStack {
    tracks: Vec<PerturbedTrack>,
}

impl PerturbedStack {
    /// Creates a stack, validating bottom-to-top ordering and positive
    /// gaps (a non-positive gap is a printed short).
    ///
    /// # Errors
    ///
    /// [`LithoError::ShortedLines`] when adjacent printed tracks touch or
    /// overlap.
    pub fn new(tracks: Vec<PerturbedTrack>) -> Result<Self, LithoError> {
        for w in tracks.windows(2) {
            check_gap(w[0].net(), w[1].net(), w[1].bottom_nm() - w[0].top_nm())?;
        }
        Ok(Self { tracks })
    }

    /// The printed tracks, bottom to top.
    pub fn tracks(&self) -> &[PerturbedTrack] {
        &self.tracks
    }

    /// Number of tracks.
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// The track at index `i`.
    ///
    /// # Panics
    ///
    /// Panics when out of range.
    pub fn track(&self, i: usize) -> &PerturbedTrack {
        &self.tracks[i]
    }

    /// Index of the first track labelled `net`.
    pub fn index_of_net(&self, net: &str) -> Option<usize> {
        self.tracks.iter().position(|t| t.net() == net)
    }

    /// Gap between track `i` and its lower neighbour, nm.
    pub fn gap_below_nm(&self, i: usize) -> Option<f64> {
        if i == 0 || i >= self.tracks.len() {
            return None;
        }
        Some(self.tracks[i].bottom_nm() - self.tracks[i - 1].top_nm())
    }

    /// Gap between track `i` and its upper neighbour, nm.
    pub fn gap_above_nm(&self, i: usize) -> Option<f64> {
        if i + 1 >= self.tracks.len() {
            return None;
        }
        Some(self.tracks[i + 1].bottom_nm() - self.tracks[i].top_nm())
    }

    /// Iterator over tracks.
    pub fn iter(&self) -> std::slice::Iter<'_, PerturbedTrack> {
        self.tracks.iter()
    }
}

impl<'a> IntoIterator for &'a PerturbedStack {
    type Item = &'a PerturbedTrack;
    type IntoIter = std::slice::Iter<'a, PerturbedTrack>;

    fn into_iter(self) -> Self::IntoIter {
        self.tracks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(net: &str, bottom: f64, top: f64) -> PerturbedTrack {
        PerturbedTrack::new(net, bottom, top, 1000.0).unwrap()
    }

    #[test]
    fn track_validation() {
        assert!(PerturbedTrack::new("x", 0.0, 0.0, 10.0).is_err());
        assert!(PerturbedTrack::new("x", 5.0, 1.0, 10.0).is_err());
        assert!(PerturbedTrack::new("x", 0.0, 5.0, 0.0).is_err());
        assert!(PerturbedTrack::new("x", f64::NAN, 5.0, 10.0).is_err());
        assert!(PerturbedTrack::new("x", 0.0, 5.0, 10.0).is_ok());
    }

    #[test]
    fn track_accessors() {
        let tr = t("BL", 35.0, 61.0);
        assert_eq!(tr.width_nm(), 26.0);
        assert_eq!(tr.center_nm(), 48.0);
        assert_eq!(tr.net(), "BL");
        assert_eq!(tr.length_nm(), 1000.0);
    }

    #[test]
    fn stack_rejects_shorts() {
        let r = PerturbedStack::new(vec![t("a", 0.0, 24.0), t("b", 23.0, 47.0)]);
        assert!(matches!(r, Err(LithoError::ShortedLines { .. })));
        // Exactly touching is also a short.
        let r = PerturbedStack::new(vec![t("a", 0.0, 24.0), t("b", 24.0, 48.0)]);
        assert!(r.is_err());
    }

    #[test]
    fn gap_queries() {
        let s = PerturbedStack::new(vec![
            t("a", 0.0, 24.0),
            t("b", 47.0, 73.0),
            t("c", 96.0, 120.0),
        ])
        .unwrap();
        assert_eq!(s.gap_below_nm(1), Some(23.0));
        assert_eq!(s.gap_above_nm(1), Some(23.0));
        assert_eq!(s.gap_below_nm(0), None);
        assert_eq!(s.gap_above_nm(2), None);
        assert_eq!(s.gap_below_nm(99), None);
        assert_eq!(s.index_of_net("b"), Some(1));
        assert_eq!(s.index_of_net("zz"), None);
        assert_eq!(s.iter().count(), 3);
        assert_eq!((&s).into_iter().count(), 3);
    }
}
