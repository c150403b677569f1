//! Unidirectional-wire (track) abstraction.
//!
//! The SRAM layout studied in the paper uses *unidirectional* horizontal
//! metal1: every wire is a horizontal track with a centerline, a width and
//! a span. The litho crate perturbs tracks (CD changes width, overlay
//! shifts centerlines, SADP redefines both); the extraction crate turns
//! perturbed tracks into R/C. This module holds the unperturbed, drawn
//! representation in exact integer nanometres.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::GeometryError;
use crate::units::Nm;

/// A horizontal wire: net label, centerline `y`, width, and x-span.
///
/// # Example
///
/// ```
/// use mpvar_geometry::{Nm, Track};
///
/// let bl = Track::new("BL", Nm(24), Nm(26), Nm(0), Nm(1280))?;
/// assert_eq!(bl.width(), Nm(26));
/// assert_eq!(bl.length(), Nm(1280));
/// assert_eq!(bl.bottom(), Nm(11)); // 24 - 26/2
/// # Ok::<(), mpvar_geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Track {
    net: String,
    y_center: Nm,
    width: Nm,
    x0: Nm,
    x1: Nm,
}

impl Track {
    /// Creates a track.
    ///
    /// # Errors
    ///
    /// * [`GeometryError::NonPositiveWidth`] when `width <= 0`;
    /// * [`GeometryError::EmptySpan`] when `x0 >= x1`.
    pub fn new(
        net: impl Into<String>,
        y_center: Nm,
        width: Nm,
        x0: Nm,
        x1: Nm,
    ) -> Result<Self, GeometryError> {
        if width <= Nm(0) {
            return Err(GeometryError::NonPositiveWidth { width });
        }
        if x0 >= x1 {
            return Err(GeometryError::EmptySpan { x0, x1 });
        }
        Ok(Self {
            net: net.into(),
            y_center,
            width,
            x0,
            x1,
        })
    }

    /// Net label.
    pub fn net(&self) -> &str {
        &self.net
    }

    /// Centerline y-coordinate.
    pub fn y_center(&self) -> Nm {
        self.y_center
    }

    /// Drawn width.
    pub fn width(&self) -> Nm {
        self.width
    }

    /// Span start.
    pub fn x0(&self) -> Nm {
        self.x0
    }

    /// Span end.
    pub fn x1(&self) -> Nm {
        self.x1
    }

    /// Wire length along the track.
    pub fn length(&self) -> Nm {
        self.x1 - self.x0
    }

    /// Bottom edge `y_center - width/2`.
    pub fn bottom(&self) -> Nm {
        self.y_center - self.width / 2
    }

    /// Top edge (bottom + width, exact even for odd widths).
    pub fn top(&self) -> Nm {
        self.bottom() + self.width
    }

    /// Edge-to-edge vertical spacing to a higher track (`other` above
    /// `self`); negative when they overlap.
    pub fn spacing_to(&self, other: &Track) -> Nm {
        if other.y_center >= self.y_center {
            other.bottom() - self.top()
        } else {
            self.bottom() - other.top()
        }
    }
}

impl fmt::Display for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @y={} w={} [{}..{}]",
            self.net, self.y_center, self.width, self.x0, self.x1
        )
    }
}

/// An ordered stack of parallel horizontal tracks.
///
/// Construction validates that tracks are sorted bottom-to-top by
/// centerline and do not overlap, which the patterning and extraction
/// models rely on.
///
/// # Example
///
/// ```
/// use mpvar_geometry::{Nm, Track, TrackStack};
///
/// let stack = TrackStack::new(vec![
///     Track::new("VSS", Nm(0),  Nm(24), Nm(0), Nm(100))?,
///     Track::new("BL",  Nm(48), Nm(26), Nm(0), Nm(100))?,
///     Track::new("VDD", Nm(96), Nm(24), Nm(0), Nm(100))?,
/// ])?;
/// assert_eq!(stack.len(), 3);
/// assert_eq!(stack.index_of_net("BL"), Some(1));
/// # Ok::<(), mpvar_geometry::GeometryError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackStack {
    tracks: Vec<Track>,
}

impl TrackStack {
    /// Creates a validated stack.
    ///
    /// # Errors
    ///
    /// [`GeometryError::TrackOrdering`] when tracks are unsorted by
    /// centerline or physically overlap.
    pub fn new(tracks: Vec<Track>) -> Result<Self, GeometryError> {
        for w in tracks.windows(2) {
            if w[1].y_center() < w[0].y_center() {
                return Err(GeometryError::TrackOrdering {
                    message: format!(
                        "track `{}` (y={}) is below preceding `{}` (y={})",
                        w[1].net(),
                        w[1].y_center(),
                        w[0].net(),
                        w[0].y_center()
                    ),
                });
            }
            if w[0].spacing_to(&w[1]) < Nm(0) {
                return Err(GeometryError::TrackOrdering {
                    message: format!(
                        "tracks `{}` and `{}` overlap (spacing {})",
                        w[0].net(),
                        w[1].net(),
                        w[0].spacing_to(&w[1])
                    ),
                });
            }
        }
        Ok(Self { tracks })
    }

    /// The tracks, bottom to top.
    pub fn tracks(&self) -> &[Track] {
        &self.tracks
    }

    /// Number of tracks.
    pub fn len(&self) -> usize {
        self.tracks.len()
    }

    /// `true` when the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.tracks.is_empty()
    }

    /// The track at `i`.
    pub fn get(&self, i: usize) -> Option<&Track> {
        self.tracks.get(i)
    }

    /// Index of the first track labelled `net`.
    pub fn index_of_net(&self, net: &str) -> Option<usize> {
        self.tracks.iter().position(|t| t.net() == net)
    }

    /// Indices of every track labelled `net`.
    pub fn indices_of_net(&self, net: &str) -> Vec<usize> {
        self.tracks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.net() == net)
            .map(|(i, _)| i)
            .collect()
    }

    /// The neighbours of track `i`: `(below, above)`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn neighbors(&self, i: usize) -> (Option<&Track>, Option<&Track>) {
        assert!(i < self.tracks.len(), "track index out of range");
        let below = if i > 0 { self.tracks.get(i - 1) } else { None };
        (below, self.tracks.get(i + 1))
    }

    /// Center-to-center pitch between consecutive tracks `i` and `i+1`.
    ///
    /// # Panics
    ///
    /// Panics if `i + 1` is out of range.
    pub fn pitch(&self, i: usize) -> Nm {
        self.tracks[i + 1].y_center() - self.tracks[i].y_center()
    }

    /// Iterator over tracks.
    pub fn iter(&self) -> std::slice::Iter<'_, Track> {
        self.tracks.iter()
    }
}

impl<'a> IntoIterator for &'a TrackStack {
    type Item = &'a Track;
    type IntoIter = std::slice::Iter<'a, Track>;

    fn into_iter(self) -> Self::IntoIter {
        self.tracks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(net: &str, y: i64, w: i64) -> Track {
        Track::new(net, Nm(y), Nm(w), Nm(0), Nm(1000)).unwrap()
    }

    #[test]
    fn track_validation() {
        assert!(Track::new("x", Nm(0), Nm(0), Nm(0), Nm(10)).is_err());
        assert!(Track::new("x", Nm(0), Nm(-2), Nm(0), Nm(10)).is_err());
        assert!(Track::new("x", Nm(0), Nm(4), Nm(10), Nm(10)).is_err());
        assert!(Track::new("x", Nm(0), Nm(4), Nm(10), Nm(5)).is_err());
    }

    #[test]
    fn track_edges() {
        let tr = t("BL", 48, 26);
        assert_eq!(tr.bottom(), Nm(35));
        assert_eq!(tr.top(), Nm(61));
        assert_eq!(tr.length(), Nm(1000));
    }

    #[test]
    fn odd_width_track_preserves_width() {
        let tr = t("BL", 48, 25);
        assert_eq!(tr.top() - tr.bottom(), Nm(25));
    }

    #[test]
    fn spacing_symmetric() {
        let a = t("VSS", 0, 24);
        let b = t("BL", 48, 24);
        assert_eq!(a.spacing_to(&b), Nm(24));
        assert_eq!(b.spacing_to(&a), Nm(24));
    }

    #[test]
    fn stack_validation() {
        // Unsorted.
        assert!(TrackStack::new(vec![t("a", 48, 24), t("b", 0, 24)]).is_err());
        // Overlapping.
        assert!(TrackStack::new(vec![t("a", 0, 24), t("b", 20, 24)]).is_err());
        // Abutting is allowed (spacing 0).
        assert!(TrackStack::new(vec![t("a", 0, 24), t("b", 24, 24)]).is_ok());
    }

    #[test]
    fn net_queries() {
        let s = TrackStack::new(vec![t("VSS", 0, 24), t("BL", 48, 26), t("VSS", 96, 24)]).unwrap();
        assert_eq!(s.index_of_net("BL"), Some(1));
        assert_eq!(s.index_of_net("nope"), None);
        assert_eq!(s.indices_of_net("VSS"), vec![0, 2]);
    }

    #[test]
    fn neighbor_queries() {
        let s = TrackStack::new(vec![t("a", 0, 24), t("b", 48, 24), t("c", 96, 24)]).unwrap();
        let (below, above) = s.neighbors(1);
        assert_eq!(below.unwrap().net(), "a");
        assert_eq!(above.unwrap().net(), "c");
        let (below, above) = s.neighbors(0);
        assert!(below.is_none());
        assert_eq!(above.unwrap().net(), "b");
        let (_, above) = s.neighbors(2);
        assert!(above.is_none());
    }

    #[test]
    fn pitch_between_tracks() {
        let s = TrackStack::new(vec![t("a", 0, 24), t("b", 48, 24)]).unwrap();
        assert_eq!(s.pitch(0), Nm(48));
    }

    #[test]
    fn iteration() {
        let s = TrackStack::new(vec![t("a", 0, 24), t("b", 48, 24)]).unwrap();
        assert_eq!(s.iter().count(), 2);
        assert_eq!((&s).into_iter().count(), 2);
    }
}
