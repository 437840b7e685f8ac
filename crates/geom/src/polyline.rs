//! Polylines — trace centerlines.

use crate::eps::{approx_zero, EPS};
use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;
use crate::vector::Vector;
use std::fmt;

/// An open polyline: the centerline of a PCB trace.
///
/// The length-matching problem (paper Sec. II) extends a trace's polyline
/// until its [`Polyline::length`] reaches the matching group's `l_target`,
/// splicing rectangular detour patterns into segments while preserving the
/// original routing.
///
/// ```
/// use meander_geom::{Point, Polyline};
/// let mut pl = Polyline::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(5.0, 0.0),
///     Point::new(5.0, 5.0),
/// ]);
/// assert_eq!(pl.length(), 10.0);
/// assert_eq!(pl.segment_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polyline {
    points: Vec<Point>,
}

impl Polyline {
    /// Creates a polyline from its vertex list.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 2 points are supplied.
    pub fn new(points: Vec<Point>) -> Self {
        assert!(points.len() >= 2, "polyline needs at least 2 points");
        Polyline { points }
    }

    /// The vertex list.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// First vertex.
    #[inline]
    pub fn start(&self) -> Point {
        self.points[0]
    }

    /// Last vertex.
    #[inline]
    pub fn end(&self) -> Point {
        *self.points.last().expect("polyline non-empty")
    }

    /// Number of vertices.
    #[inline]
    pub fn point_count(&self) -> usize {
        self.points.len()
    }

    /// Number of segments (`point_count() - 1`).
    #[inline]
    pub fn segment_count(&self) -> usize {
        self.points.len() - 1
    }

    /// The `i`-th segment.
    ///
    /// # Panics
    ///
    /// Panics if `i >= segment_count()`.
    pub fn segment(&self, i: usize) -> Segment {
        Segment::new(self.points[i], self.points[i + 1])
    }

    /// Iterator over all segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.points.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Total arc length — the `l_trace` of the paper.
    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Point at arc-length `s` from the start (clamped to the ends).
    pub fn point_at_length(&self, s: f64) -> Point {
        if s <= 0.0 {
            return self.start();
        }
        let mut remaining = s;
        for seg in self.segments() {
            let l = seg.length();
            if remaining <= l {
                return seg.point_at_length(remaining);
            }
            remaining -= l;
        }
        self.end()
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        Rect::from_points(self.points.iter().copied()).expect("polyline non-empty")
    }

    /// Returns the polyline translated by `v`.
    pub fn translated(&self, v: Vector) -> Polyline {
        Polyline {
            points: self.points.iter().map(|&p| p + v).collect(),
        }
    }

    /// Removes zero-length segments and merges collinear runs, in place.
    ///
    /// Meander insertion can create vertices in the middle of straight runs;
    /// final outputs are simplified so the DRC `dprotect` check sees true
    /// segment lengths.
    pub fn simplify(&mut self) {
        let mut out = Vec::with_capacity(self.points.len());
        simplify_into(&self.points, &mut out);
        self.points = out;
    }

    /// Replaces the section between vertex indices `i..=j` (inclusive) with
    /// `replacement` (whose first/last points must coincide with the current
    /// vertices `i` and `j`).
    ///
    /// This is the splice primitive used when restoring DP patterns into a
    /// trace: the flat sub-run is swapped for the meandered run.
    ///
    /// # Panics
    ///
    /// Panics if `i >= j`, indices are out of range, or the replacement ends
    /// do not match the current vertices within tolerance.
    pub fn splice(&mut self, i: usize, j: usize, replacement: &[Point]) {
        assert!(i < j, "splice range must be non-empty");
        assert!(j < self.points.len(), "splice end out of range");
        assert!(
            replacement.len() >= 2,
            "replacement needs at least 2 points"
        );
        assert!(
            replacement[0].approx_eq(self.points[i]),
            "replacement must start at vertex {i}"
        );
        assert!(
            replacement[replacement.len() - 1].approx_eq(self.points[j]),
            "replacement must end at vertex {j}"
        );
        self.points.splice(i..=j, replacement.iter().copied());
    }

    /// `true` when any two non-adjacent segments intersect.
    ///
    /// Meander outputs must stay self-intersection-free; integration tests
    /// check this invariant on every routed result.
    pub fn is_self_intersecting(&self) -> bool {
        let segs: Vec<Segment> = self.segments().collect();
        for i in 0..segs.len() {
            for j in (i + 2)..segs.len() {
                // Skip the wrap-adjacency that does not exist for open
                // polylines; only consecutive segments share a point.
                if crate::intersect::segments_intersect(&segs[i], &segs[j]) {
                    return true;
                }
            }
        }
        false
    }

    /// Minimum distance from this polyline to a point.
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.segments()
            .map(|s| s.distance_to_point(p))
            .fold(f64::INFINITY, f64::min)
    }

    /// Minimum distance between two polylines (0 when they touch).
    pub fn distance_to_polyline(&self, other: &Polyline) -> f64 {
        let mut d = f64::INFINITY;
        for s in self.segments() {
            for t in other.segments() {
                d = d.min(s.distance_to_segment(&t));
                if approx_zero(d) {
                    return 0.0;
                }
            }
        }
        d
    }
}

impl FromIterator<Point> for Polyline {
    fn from_iter<T: IntoIterator<Item = Point>>(iter: T) -> Self {
        Polyline::new(iter.into_iter().collect())
    }
}

impl fmt::Display for Polyline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Polyline[{} pts, len {:.4}]",
            self.points.len(),
            self.length()
        )
    }
}

/// [`Polyline::simplify`] of `points` into a caller-owned buffer (cleared
/// first), so a caller that only reads the result can reuse one buffer
/// across polylines.
///
/// One pass: a point approximately equal to the last kept one is dropped
/// (zero-length segments), and a kept point first pops the last kept one
/// while they continue the same straight run in the same direction (a
/// 180° reversal is a genuine geometric feature and is kept). Inputs of at
/// most two points are copied unchanged, and an input that collapses to
/// one point keeps its two endpoints.
pub fn simplify_into(points: &[Point], out: &mut Vec<Point>) {
    out.clear();
    if points.len() <= 2 {
        out.extend_from_slice(points);
        return;
    }
    for &p in points {
        if out.last().is_some_and(|&last| p.approx_eq(last)) {
            continue;
        }
        while let [.., a, b] = out[..] {
            let ab = b - a;
            let bp = p - b;
            if ab.cross(bp).abs() <= EPS * ab.norm().max(1.0) * bp.norm().max(1.0)
                && ab.dot(bp) >= 0.0
            {
                out.pop();
            } else {
                break;
            }
        }
        out.push(p);
    }
    if out.len() < 2 {
        out.clear();
        out.push(points[0]);
        out.push(points[points.len() - 1]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l_shape() -> Polyline {
        Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(5.0, 5.0),
        ])
    }

    #[test]
    fn length_and_counts() {
        let pl = l_shape();
        assert_eq!(pl.length(), 10.0);
        assert_eq!(pl.point_count(), 3);
        assert_eq!(pl.segment_count(), 2);
        assert_eq!(pl.segment(1).a, Point::new(5.0, 0.0));
    }

    #[test]
    fn point_at_length_walks_corners() {
        let pl = l_shape();
        assert_eq!(pl.point_at_length(0.0), Point::new(0.0, 0.0));
        assert_eq!(pl.point_at_length(5.0), Point::new(5.0, 0.0));
        assert_eq!(pl.point_at_length(7.5), Point::new(5.0, 2.5));
        assert_eq!(pl.point_at_length(99.0), Point::new(5.0, 5.0));
        assert_eq!(pl.point_at_length(-1.0), Point::new(0.0, 0.0));
    }

    #[test]
    fn simplify_merges_collinear_and_dedups() {
        let mut pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0), // duplicate
            Point::new(2.0, 0.0), // collinear
            Point::new(2.0, 3.0),
        ]);
        pl.simplify();
        assert_eq!(
            pl.points(),
            &[
                Point::new(0.0, 0.0),
                Point::new(2.0, 0.0),
                Point::new(2.0, 3.0)
            ]
        );
        assert_eq!(pl.length(), 5.0);
    }

    #[test]
    fn simplify_keeps_reversals() {
        // A degenerate "needle" retrace is geometry, not noise.
        let mut pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(2.0, 0.0),
        ]);
        pl.simplify();
        assert_eq!(pl.point_count(), 3);
    }

    #[test]
    fn splice_replaces_run() {
        let mut pl = l_shape();
        // Replace the first segment with a detour of height 2.
        pl.splice(
            0,
            1,
            &[
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(1.0, 2.0),
                Point::new(3.0, 2.0),
                Point::new(3.0, 0.0),
                Point::new(5.0, 0.0),
            ],
        );
        assert_eq!(pl.point_count(), 7);
        assert_eq!(pl.length(), 10.0 + 4.0);
        assert_eq!(pl.end(), Point::new(5.0, 5.0));
    }

    #[test]
    #[should_panic(expected = "must start at vertex")]
    fn splice_mismatched_ends_panics() {
        let mut pl = l_shape();
        pl.splice(0, 1, &[Point::new(9.0, 9.0), Point::new(5.0, 0.0)]);
    }

    #[test]
    fn self_intersection_detection() {
        let straight = l_shape();
        assert!(!straight.is_self_intersecting());
        let crossing = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, -2.0),
        ]);
        assert!(crossing.is_self_intersecting());
    }

    #[test]
    fn distances() {
        let pl = l_shape();
        assert_eq!(pl.distance_to_point(Point::new(2.0, 3.0)), 3.0);
        let other = Polyline::new(vec![Point::new(0.0, 2.0), Point::new(3.0, 2.0)]);
        assert_eq!(pl.distance_to_polyline(&other), 2.0);
        let touching = Polyline::new(vec![Point::new(5.0, 2.0), Point::new(9.0, 2.0)]);
        assert_eq!(pl.distance_to_polyline(&touching), 0.0);
    }

    #[test]
    fn reverse_and_translate() {
        let pl: Polyline = l_shape().points().iter().rev().copied().collect();
        assert_eq!(pl.start(), Point::new(5.0, 5.0));
        let t = pl.translated(Vector::new(1.0, 1.0));
        assert_eq!(t.start(), Point::new(6.0, 6.0));
    }

    #[test]
    fn from_iterator() {
        let pl: Polyline = [Point::new(0.0, 0.0), Point::new(1.0, 1.0)]
            .into_iter()
            .collect();
        assert_eq!(pl.point_count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn single_point_panics() {
        let _ = Polyline::new(vec![Point::new(0.0, 0.0)]);
    }
}
