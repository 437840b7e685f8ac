//! Segment intersection predicates and constructions.
//!
//! The URA shrinking procedure (paper Sec. IV-B) reduces DRC to
//! "intersection checking between the polygons that stand for URAs or the
//! routable area"; these are the primitives it is built on.

use crate::eps::{approx_zero, EPS};
use crate::point::Point;
use crate::segment::Segment;

/// Result of intersecting two segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegmentIntersection {
    /// The segments do not meet.
    None,
    /// The segments meet in a single point.
    Point(Point),
    /// The segments are collinear and share a sub-segment of positive
    /// length.
    Overlap(Segment),
}

/// Computes the intersection of two segments, treating touching endpoints as
/// intersections.
///
/// ```
/// use meander_geom::{Point, Segment, segment_intersection, SegmentIntersection};
/// let a = Segment::new(Point::new(0.0, 0.0), Point::new(4.0, 4.0));
/// let b = Segment::new(Point::new(0.0, 4.0), Point::new(4.0, 0.0));
/// match segment_intersection(&a, &b) {
///     SegmentIntersection::Point(p) => assert!(p.approx_eq(Point::new(2.0, 2.0))),
///     _ => panic!("expected point intersection"),
/// }
/// ```
pub fn segment_intersection(s1: &Segment, s2: &Segment) -> SegmentIntersection {
    let d1 = s1.delta();
    let d2 = s2.delta();
    let denom = d1.cross(d2);
    let start_diff = s2.a - s1.a;

    if approx_zero(denom) {
        // Parallel. Collinear iff start offset is also parallel to d1.
        if !approx_zero(d1.cross(start_diff)) && !d1.is_zero() {
            return SegmentIntersection::None;
        }
        // Degenerate cases: one or both segments are points.
        if d1.is_zero() && d2.is_zero() {
            return if s1.a.approx_eq(s2.a) {
                SegmentIntersection::Point(s1.a)
            } else {
                SegmentIntersection::None
            };
        }
        if d1.is_zero() {
            return if s2.contains_point(s1.a) {
                SegmentIntersection::Point(s1.a)
            } else {
                SegmentIntersection::None
            };
        }
        if d2.is_zero() {
            return if s1.contains_point(s2.a) {
                SegmentIntersection::Point(s2.a)
            } else {
                SegmentIntersection::None
            };
        }
        // Both have extent and are collinear: project onto d1.
        let len_sq = d1.norm_sq();
        let t0 = (s2.a - s1.a).dot(d1) / len_sq;
        let t1 = (s2.b - s1.a).dot(d1) / len_sq;
        let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
        let lo = lo.max(0.0);
        let hi = hi.min(1.0);
        let tol = EPS / len_sq.sqrt();
        if hi < lo - tol {
            return SegmentIntersection::None;
        }
        if (hi - lo).abs() <= tol {
            return SegmentIntersection::Point(s1.point_at(lo.clamp(0.0, 1.0)));
        }
        return SegmentIntersection::Overlap(Segment::new(s1.point_at(lo), s1.point_at(hi)));
    }

    let t = start_diff.cross(d2) / denom;
    let u = start_diff.cross(d1) / denom;
    // Tolerances scaled into parameter space so that endpoint touches within
    // EPS board units count.
    let t_tol = EPS / d1.norm().max(EPS);
    let u_tol = EPS / d2.norm().max(EPS);
    if t >= -t_tol && t <= 1.0 + t_tol && u >= -u_tol && u <= 1.0 + u_tol {
        SegmentIntersection::Point(s1.point_at(t.clamp(0.0, 1.0)))
    } else {
        SegmentIntersection::None
    }
}

/// `true` when the two segments intersect or touch.
pub fn segments_intersect(s1: &Segment, s2: &Segment) -> bool {
    !matches!(segment_intersection(s1, s2), SegmentIntersection::None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn proper_crossing() {
        let r = segment_intersection(&seg(0.0, 0.0, 2.0, 2.0), &seg(0.0, 2.0, 2.0, 0.0));
        assert_eq!(r, SegmentIntersection::Point(Point::new(1.0, 1.0)));
    }

    #[test]
    fn miss_is_none() {
        let r = segment_intersection(&seg(0.0, 0.0, 1.0, 0.0), &seg(0.0, 1.0, 1.0, 1.0));
        assert_eq!(r, SegmentIntersection::None);
        let r = segment_intersection(&seg(0.0, 0.0, 1.0, 1.0), &seg(2.0, 0.0, 3.0, -5.0));
        assert_eq!(r, SegmentIntersection::None);
    }

    #[test]
    fn endpoint_touch_counts() {
        let r = segment_intersection(&seg(0.0, 0.0, 2.0, 0.0), &seg(2.0, 0.0, 2.0, 5.0));
        match r {
            SegmentIntersection::Point(p) => assert!(p.approx_eq(Point::new(2.0, 0.0))),
            other => panic!("expected point, got {other:?}"),
        }
        // T-junction in segment interior.
        let r = segment_intersection(&seg(0.0, 0.0, 4.0, 0.0), &seg(2.0, 0.0, 2.0, 3.0));
        match r {
            SegmentIntersection::Point(p) => assert!(p.approx_eq(Point::new(2.0, 0.0))),
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn collinear_overlap() {
        let r = segment_intersection(&seg(0.0, 0.0, 4.0, 0.0), &seg(2.0, 0.0, 6.0, 0.0));
        match r {
            SegmentIntersection::Overlap(o) => {
                assert!(o.a.approx_eq(Point::new(2.0, 0.0)));
                assert!(o.b.approx_eq(Point::new(4.0, 0.0)));
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn collinear_touching_endpoints_is_point() {
        let r = segment_intersection(&seg(0.0, 0.0, 2.0, 0.0), &seg(2.0, 0.0, 4.0, 0.0));
        match r {
            SegmentIntersection::Point(p) => assert!(p.approx_eq(Point::new(2.0, 0.0))),
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn collinear_disjoint_is_none() {
        let r = segment_intersection(&seg(0.0, 0.0, 1.0, 0.0), &seg(2.0, 0.0, 3.0, 0.0));
        assert_eq!(r, SegmentIntersection::None);
    }

    #[test]
    fn parallel_non_collinear_is_none() {
        let r = segment_intersection(&seg(0.0, 0.0, 4.0, 0.0), &seg(0.0, 1.0, 4.0, 1.0));
        assert_eq!(r, SegmentIntersection::None);
    }

    #[test]
    fn degenerate_segments() {
        // Point on segment.
        let r = segment_intersection(&seg(1.0, 0.0, 1.0, 0.0), &seg(0.0, 0.0, 2.0, 0.0));
        assert_eq!(r, SegmentIntersection::Point(Point::new(1.0, 0.0)));
        // Point off segment.
        let r = segment_intersection(&seg(1.0, 1.0, 1.0, 1.0), &seg(0.0, 0.0, 2.0, 0.0));
        assert_eq!(r, SegmentIntersection::None);
        // Two coincident points.
        let r = segment_intersection(&seg(1.0, 1.0, 1.0, 1.0), &seg(1.0, 1.0, 1.0, 1.0));
        assert_eq!(r, SegmentIntersection::Point(Point::new(1.0, 1.0)));
        // Two distinct points.
        let r = segment_intersection(&seg(1.0, 1.0, 1.0, 1.0), &seg(2.0, 2.0, 2.0, 2.0));
        assert_eq!(r, SegmentIntersection::None);
    }

    #[test]
    fn any_angle_crossing() {
        // Crossing at an arbitrary (non-45°) angle — the any-direction case.
        let s1 = seg(0.0, 0.0, 10.0, 3.0);
        let s2 = seg(3.0, 5.0, 6.0, -4.0);
        match segment_intersection(&s1, &s2) {
            SegmentIntersection::Point(p) => {
                assert!(s1.distance_to_point(p) < 1e-9);
                assert!(s2.distance_to_point(p) < 1e-9);
            }
            other => panic!("expected point, got {other:?}"),
        }
    }
}
