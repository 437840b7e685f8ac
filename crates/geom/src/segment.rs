//! Line segments — the atoms traces are made of.

use crate::eps::{approx_zero, clamp, EPS};
use crate::point::Point;
use crate::rect::Rect;
use crate::vector::Vector;
use std::fmt;

/// A directed line segment from `a` to `b`.
///
/// Trace centerlines are polylines of segments; the DP extension (paper
/// Sec. IV) pops one `Segment` at a time off the work queue, meanders it in a
/// local frame, and replaces it with the meandered pieces.
///
/// ```
/// use meander_geom::{Point, Segment};
/// let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
/// assert_eq!(s.length(), 10.0);
/// assert_eq!(s.distance_to_point(Point::new(5.0, 3.0)), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment between two points.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Segment length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(self.b)
    }

    /// `true` when the segment is degenerate (endpoints coincide within
    /// tolerance).
    #[inline]
    pub fn is_degenerate(&self) -> bool {
        approx_zero(self.length())
    }

    /// Displacement from `a` to `b`.
    #[inline]
    pub(crate) fn delta(&self) -> Vector {
        self.b - self.a
    }

    /// Unit direction from `a` to `b`, or `None` when degenerate.
    #[inline]
    pub fn direction(&self) -> Option<Vector> {
        self.delta().normalized()
    }

    /// Midpoint of the segment.
    #[inline]
    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// Point at parameter `t ∈ [0, 1]` along the segment.
    #[inline]
    pub fn point_at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Point at arc-length `s` from `a` (clamped to the segment).
    pub(crate) fn point_at_length(&self, s: f64) -> Point {
        let len = self.length();
        if len <= EPS {
            return self.a;
        }
        self.point_at(clamp(s / len, 0.0, 1.0))
    }

    /// Parameter of the orthogonal projection of `p` onto the *line* through
    /// the segment (unclamped; 0 at `a`, 1 at `b`).
    pub(crate) fn project(&self, p: Point) -> f64 {
        let d = self.delta();
        let len_sq = d.norm_sq();
        if len_sq <= EPS * EPS {
            return 0.0;
        }
        (p - self.a).dot(d) / len_sq
    }

    /// Closest point on the segment to `p`.
    pub(crate) fn closest_point(&self, p: Point) -> Point {
        self.point_at(clamp(self.project(p), 0.0, 1.0))
    }

    /// Distance from the segment to a point.
    ///
    /// DRC clearance checks in this workspace are built from this predicate
    /// and [`Segment::distance_to_segment`] rather than from polygon
    /// offsetting (see DESIGN.md, "DRC as distance predicates").
    pub fn distance_to_point(&self, p: Point) -> f64 {
        self.closest_point(p).distance(p)
    }

    /// Minimum distance between two segments (0 when they intersect).
    pub fn distance_to_segment(&self, other: &Segment) -> f64 {
        if crate::intersect::segments_intersect(self, other) {
            return 0.0;
        }
        self.distance_to_point(other.a)
            .min(self.distance_to_point(other.b))
            .min(other.distance_to_point(self.a))
            .min(other.distance_to_point(self.b))
    }

    /// `true` when `p` lies on the segment within tolerance.
    pub(crate) fn contains_point(&self, p: Point) -> bool {
        self.distance_to_point(p) <= EPS
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        Rect::from_points([self.a, self.b]).expect("segment has two points")
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} → {}]", self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn length_direction_normal() {
        let s = seg(0.0, 0.0, 3.0, 4.0);
        assert_eq!(s.length(), 5.0);
        let d = s.direction().unwrap();
        assert!((d.norm() - 1.0).abs() < 1e-12);
        assert!(approx_zero(d.dot(d.perp())));
    }

    #[test]
    fn degenerate_segment() {
        let s = seg(1.0, 1.0, 1.0, 1.0);
        assert!(s.is_degenerate());
        assert!(s.direction().is_none());
        assert_eq!(s.point_at_length(5.0), Point::new(1.0, 1.0));
        assert_eq!(s.project(Point::new(9.0, 9.0)), 0.0);
    }

    #[test]
    fn projection_and_closest_point() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.project(Point::new(5.0, 7.0)), 0.5);
        assert_eq!(s.project(Point::new(-5.0, 0.0)), -0.5);
        assert_eq!(s.closest_point(Point::new(-5.0, 3.0)), Point::new(0.0, 0.0));
        assert_eq!(
            s.closest_point(Point::new(15.0, 3.0)),
            Point::new(10.0, 0.0)
        );
        assert_eq!(s.closest_point(Point::new(4.0, 3.0)), Point::new(4.0, 0.0));
    }

    #[test]
    fn point_distance_interior_and_endpoints() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.distance_to_point(Point::new(5.0, 2.0)), 2.0);
        assert_eq!(s.distance_to_point(Point::new(13.0, 4.0)), 5.0);
    }

    #[test]
    fn segment_to_segment_distance() {
        let s1 = seg(0.0, 0.0, 10.0, 0.0);
        let s2 = seg(0.0, 3.0, 10.0, 3.0);
        assert_eq!(s1.distance_to_segment(&s2), 3.0);
        // Crossing segments → 0.
        let s3 = seg(5.0, -1.0, 5.0, 1.0);
        assert_eq!(s1.distance_to_segment(&s3), 0.0);
        // Skew non-crossing: closest at endpoints.
        let s4 = seg(12.0, 1.0, 20.0, 5.0);
        assert!(
            (s1.distance_to_segment(&s4) - Point::new(10.0, 0.0).distance(Point::new(12.0, 1.0)))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn contains_point_tolerance() {
        let s = seg(0.0, 0.0, 10.0, 10.0);
        assert!(s.contains_point(Point::new(5.0, 5.0)));
        assert!(!s.contains_point(Point::new(5.0, 5.1)));
    }

    #[test]
    fn bbox_and_translate() {
        let s = seg(1.0, 5.0, 3.0, -2.0);
        let r = s.bbox();
        assert_eq!(r.min, Point::new(1.0, -2.0));
        assert_eq!(r.max, Point::new(3.0, 5.0));
    }

    #[test]
    fn point_at_length_clamps() {
        let s = seg(0.0, 0.0, 10.0, 0.0);
        assert_eq!(s.point_at_length(-5.0), Point::new(0.0, 0.0));
        assert_eq!(s.point_at_length(25.0), Point::new(10.0, 0.0));
        assert_eq!(s.point_at_length(4.0), Point::new(4.0, 0.0));
    }
}
