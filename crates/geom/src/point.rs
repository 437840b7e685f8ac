//! Planar points.

use crate::eps::approx_eq;
use crate::vector::Vector;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in the board plane, in board units.
///
/// ```
/// use meander_geom::{Point, Vector};
/// let p = Point::new(1.0, 2.0) + Vector::new(3.0, -2.0);
/// assert_eq!(p, Point::new(4.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    /// Abscissa.
    pub x: f64,
    /// Ordinate.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    ///
    /// This is the `d(a, b)` of the paper's problem formulation (Sec. IV-A).
    #[inline]
    pub fn distance(&self, other: Point) -> f64 {
        (*self - other).norm()
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    #[inline]
    pub(crate) fn lerp(&self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// Midpoint between `self` and `other`.
    #[inline]
    pub fn midpoint(&self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }

    /// Component-wise approximate equality within [`crate::EPS`].
    #[inline]
    pub fn approx_eq(&self, other: Point) -> bool {
        approx_eq(self.x, other.x) && approx_eq(self.y, other.y)
    }

    /// Centroid of a non-empty point collection.
    ///
    /// Used by MSDTW's median-point generation (paper Eq. 18), where the mean
    /// of each connected component's nodes forms the merged trace.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty.
    pub fn centroid(points: &[Point]) -> Point {
        assert!(!points.is_empty(), "centroid of empty point set");
        let n = points.len() as f64;
        let (sx, sy) = points
            .iter()
            .fold((0.0, 0.0), |(sx, sy), p| (sx + p.x, sy + p.y));
        Point::new(sx / n, sy / n)
    }
}

impl Add<Vector> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vector) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign<Vector> for Point {
    #[inline]
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub<Vector> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vector) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign<Vector> for Point {
    #[inline]
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Sub for Point {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Point) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl From<(f64, f64)> for Point {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.4}, {:.4})", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(a.distance(b), 5.0);
    }

    #[test]
    fn lerp_endpoints_and_middle() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 4.0);
        assert!(a.lerp(b, 0.0).approx_eq(a));
        assert!(a.lerp(b, 1.0).approx_eq(b));
        assert!(a.lerp(b, 0.5).approx_eq(Point::new(1.0, 2.0)));
        assert!(a.midpoint(b).approx_eq(Point::new(1.0, 2.0)));
    }

    #[test]
    fn point_vector_arithmetic() {
        let p = Point::new(1.0, 1.0);
        let v = Vector::new(2.0, 3.0);
        assert_eq!(p + v, Point::new(3.0, 4.0));
        assert_eq!((p + v) - v, p);
        assert_eq!(Point::new(3.0, 4.0) - p, v);
        let mut q = p;
        q += v;
        q -= v;
        assert!(q.approx_eq(p));
    }

    #[test]
    fn centroid_of_square_is_center() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 2.0),
            Point::new(0.0, 2.0),
        ];
        assert!(Point::centroid(&pts).approx_eq(Point::new(1.0, 1.0)));
    }

    #[test]
    #[should_panic(expected = "centroid of empty")]
    fn centroid_empty_panics() {
        let _ = Point::centroid(&[]);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Point::new(1.0, 2.0)).is_empty());
    }

    #[test]
    fn from_tuple() {
        let p: Point = (1.5, -2.5).into();
        assert_eq!(p, Point::new(1.5, -2.5));
    }
}
