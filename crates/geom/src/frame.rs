//! Local coordinate frames — the mechanism behind any-direction routing.

use crate::point::Point;
use crate::polygon::Polygon;
use crate::segment::Segment;
use crate::vector::Vector;

/// A rigid local coordinate frame (origin + orthonormal basis).
///
/// The paper's extension "is held by computational geometry so that it fits
/// any-direction routing" (Sec. IV): instead of assuming horizontal/45°
/// tracks, every segment is mapped into a frame where it runs along +x from
/// the origin. Pattern construction, URA building, and shrinking all happen
/// in that frame; results are mapped back with [`Frame::to_world`].
///
/// ```
/// use meander_geom::{Frame, Point, Segment};
/// let seg = Segment::new(Point::new(1.0, 1.0), Point::new(4.0, 5.0));
/// let f = Frame::from_segment(&seg).unwrap();
/// let local_b = f.to_local(seg.b);
/// assert!((local_b.y).abs() < 1e-12);        // b lies on the local x axis
/// assert!((local_b.x - 5.0).abs() < 1e-12);  // at distance |ab|
/// assert!(f.to_world(local_b).approx_eq(seg.b));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    origin: Point,
    ux: Vector,
    uy: Vector,
}

impl Frame {
    /// Frame whose +x axis runs along `seg` starting at `seg.a`; `None` for
    /// a degenerate segment.
    pub fn from_segment(seg: &Segment) -> Option<Self> {
        let ux = seg.direction()?;
        Some(Frame {
            origin: seg.a,
            ux,
            uy: ux.perp(),
        })
    }

    /// World point → local coordinates.
    pub fn to_local(&self, p: Point) -> Point {
        let d = p - self.origin;
        Point::new(d.dot(self.ux), d.dot(self.uy))
    }

    /// Local coordinates → world point.
    pub fn to_world(&self, p: Point) -> Point {
        self.origin + self.ux * p.x + self.uy * p.y
    }

    /// Maps a local-space polygon back to world coordinates.
    pub fn polygon_to_world(&self, poly: &Polygon) -> Polygon {
        Polygon::new(poly.vertices().iter().map(|&p| self.to_world(p)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::angle::Angle;

    /// Frame at `origin` whose +x axis points along `dir`.
    fn frame(origin: Point, dir: Vector) -> Frame {
        Frame::from_segment(&Segment::new(origin, origin + dir)).unwrap()
    }

    #[test]
    fn identity_is_noop() {
        let f = frame(Point::ORIGIN, Vector::new(1.0, 0.0));
        let p = Point::new(3.0, -2.0);
        assert!(f.to_local(p).approx_eq(p));
        assert!(f.to_world(p).approx_eq(p));
    }

    #[test]
    fn segment_frame_puts_segment_on_x_axis() {
        for deg in [0.0, 17.0, 45.0, 90.0, 133.7, 180.0, 251.0] {
            let dir = Vector::from_angle(Angle::from_degrees(deg));
            let seg = Segment::new(Point::new(2.0, 3.0), Point::new(2.0, 3.0) + dir * 7.0);
            let f = Frame::from_segment(&seg).unwrap();
            let a = f.to_local(seg.a);
            let b = f.to_local(seg.b);
            assert!(a.approx_eq(Point::ORIGIN), "deg={deg}");
            assert!((b.y).abs() < 1e-9 && (b.x - 7.0).abs() < 1e-9, "deg={deg}");
        }
    }

    #[test]
    fn round_trip_points_and_vectors() {
        let f = frame(Point::new(5.0, -1.0), Vector::new(1.0, 2.0));
        for p in [
            Point::new(0.0, 0.0),
            Point::new(-3.5, 8.25),
            Point::new(100.0, 0.125),
        ] {
            assert!(f.to_world(f.to_local(p)).approx_eq(p));
            assert!(f.to_local(f.to_world(p)).approx_eq(p));
        }
    }

    #[test]
    fn frames_preserve_distance() {
        let f = frame(Point::new(1.0, 1.0), Vector::new(3.0, 4.0));
        let p = Point::new(2.0, 9.0);
        let q = Point::new(-4.0, 0.5);
        let d_world = p.distance(q);
        let d_local = f.to_local(p).distance(f.to_local(q));
        assert!((d_world - d_local).abs() < 1e-9);
    }

    #[test]
    fn degenerate_direction_rejected() {
        let seg = Segment::new(Point::new(1.0, 1.0), Point::new(1.0, 1.0));
        assert!(Frame::from_segment(&seg).is_none());
    }

    #[test]
    fn shape_round_trips() {
        let f = frame(Point::new(2.0, 2.0), Vector::new(-1.0, 1.0));
        let poly = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(2.0, 1.0));
        let world = f.polygon_to_world(&poly);
        for (a, b) in world.vertices().iter().zip(poly.vertices()) {
            assert!(f.to_local(*a).approx_eq(*b));
        }
        assert!((world.area() - poly.area()).abs() < 1e-9);
    }

    #[test]
    fn basis_is_orthonormal() {
        let f = frame(Point::ORIGIN, Vector::new(0.3, 0.4));
        let x_axis = f.to_world(Point::new(1.0, 0.0)) - Point::ORIGIN;
        let y_axis = f.to_world(Point::new(0.0, 1.0)) - Point::ORIGIN;
        assert!((x_axis.norm() - 1.0).abs() < 1e-12);
        assert!((y_axis.norm() - 1.0).abs() < 1e-12);
        assert!(x_axis.dot(y_axis).abs() < 1e-12);
        // Right-handed: y is ccw of x.
        assert!(x_axis.cross(y_axis) > 0.0);
    }
}
