//! Axis-aligned rectangles.

use crate::eps::EPS;
use crate::point::Point;
use std::fmt;

/// An axis-aligned rectangle, stored as min/max corners.
///
/// URA outer borders are rectangles *in the local frame of the extended
/// segment*; the node strip of `meander-index` answers the
/// `[x_A, x_C] × [y_D, y_B]` range queries of paper Alg. 2 against these.
///
/// ```
/// use meander_geom::{Point, Rect};
/// let r = Rect::new(Point::new(0.0, 0.0), Point::new(4.0, 2.0));
/// assert!(r.contains(Point::new(1.0, 1.0)));
/// assert_eq!(r.area(), 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Rect {
    /// Creates a rectangle from two corners (any order).
    pub fn new(a: Point, b: Point) -> Self {
        Rect {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// Smallest rectangle containing every point, or `None` for an empty
    /// iterator.
    pub fn from_points<I: IntoIterator<Item = Point>>(points: I) -> Option<Self> {
        let mut it = points.into_iter();
        let first = it.next()?;
        let mut r = Rect {
            min: first,
            max: first,
        };
        for p in it {
            r.min.x = r.min.x.min(p.x);
            r.min.y = r.min.y.min(p.y);
            r.max.x = r.max.x.max(p.x);
            r.max.y = r.max.y.max(p.y);
        }
        Some(r)
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(self.max)
    }

    /// `true` when `p` lies inside or on the border (within tolerance).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x - EPS
            && p.x <= self.max.x + EPS
            && p.y >= self.min.y - EPS
            && p.y <= self.max.y + EPS
    }

    /// `true` when `p` lies strictly inside (border excluded, with
    /// tolerance).
    pub fn contains_strict(&self, p: Point) -> bool {
        p.x > self.min.x + EPS
            && p.x < self.max.x - EPS
            && p.y > self.min.y + EPS
            && p.y < self.max.y - EPS
    }

    /// `true` when the rectangles overlap (touching counts, within
    /// tolerance).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.min.x <= other.max.x + EPS
            && other.min.x <= self.max.x + EPS
            && self.min.y <= other.max.y + EPS
            && other.min.y <= self.max.y + EPS
    }

    /// Rectangle grown by `margin` on all four sides (negative shrinks).
    pub fn expanded(&self, margin: f64) -> Rect {
        Rect {
            min: Point::new(self.min.x - margin, self.min.y - margin),
            max: Point::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// Union of two rectangles (smallest rectangle containing both).
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    /// The four corners, counter-clockwise from `min`.
    pub(crate) fn corners(&self) -> [Point; 4] {
        [
            self.min,
            Point::new(self.max.x, self.min.y),
            self.max,
            Point::new(self.min.x, self.max.y),
        ]
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} ⇗ {}]", self.min, self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_normalizes_corners() {
        let r = Rect::new(Point::new(4.0, 1.0), Point::new(0.0, 3.0));
        assert_eq!(r.min, Point::new(0.0, 1.0));
        assert_eq!(r.max, Point::new(4.0, 3.0));
        assert_eq!(r.width(), 4.0);
        assert_eq!(r.height(), 2.0);
    }

    #[test]
    fn from_points_bbox() {
        let r = Rect::from_points([
            Point::new(1.0, 1.0),
            Point::new(-2.0, 5.0),
            Point::new(3.0, 0.0),
        ])
        .unwrap();
        assert_eq!(r.min, Point::new(-2.0, 0.0));
        assert_eq!(r.max, Point::new(3.0, 5.0));
        assert!(Rect::from_points([]).is_none());
    }

    #[test]
    fn containment_with_tolerance() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        assert!(r.contains(Point::new(0.0, 0.0)));
        assert!(r.contains(Point::new(2.0, 2.0)));
        assert!(!r.contains(Point::new(2.1, 1.0)));
        assert!(r.contains_strict(Point::new(1.0, 1.0)));
        assert!(!r.contains_strict(Point::new(0.0, 1.0)));
    }

    #[test]
    fn intersection_and_union() {
        let a = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0));
        let b = Rect::new(Point::new(1.0, 1.0), Point::new(3.0, 3.0));
        let c = Rect::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        // Touching edges intersect.
        let d = Rect::new(Point::new(2.0, 0.0), Point::new(4.0, 2.0));
        assert!(a.intersects(&d));
        let u = a.union(&c);
        assert_eq!(u.min, Point::new(0.0, 0.0));
        assert_eq!(u.max, Point::new(6.0, 6.0));
    }

    #[test]
    fn expansion_and_corners() {
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(2.0, 2.0)).expanded(1.0);
        assert_eq!(r.min, Point::new(-1.0, -1.0));
        assert_eq!(r.max, Point::new(3.0, 3.0));
        let cs = r.corners();
        assert_eq!(cs[0], r.min);
        assert_eq!(cs[2], r.max);
    }
}
