//! Planar vectors (displacements and directions).

use crate::angle::Angle;
use crate::eps::{approx_zero, EPS};
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub, SubAssign};

/// A displacement in the board plane.
///
/// Distinct from [`crate::Point`] per the newtype guidance: a position and a
/// displacement must never be confused in clearance arithmetic.
///
/// ```
/// use meander_geom::Vector;
/// let v = Vector::new(3.0, 4.0);
/// assert_eq!(v.norm(), 5.0);
/// assert_eq!(v.perp(), Vector::new(-4.0, 3.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vector {
    /// x component.
    pub x: f64,
    /// y component.
    pub y: f64,
}

impl Vector {
    /// Creates a vector from its components.
    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Vector { x, y }
    }

    /// Unit vector at `angle` from the +x axis.
    #[inline]
    pub fn from_angle(angle: Angle) -> Self {
        Vector::new(angle.radians().cos(), angle.radians().sin())
    }

    /// Euclidean norm.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Squared norm.
    #[inline]
    pub(crate) fn norm_sq(&self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Dot product.
    #[inline]
    pub fn dot(&self, other: Vector) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2D cross product (z component of the 3D cross, a.k.a. perp-dot).
    ///
    /// Positive when `other` lies counter-clockwise of `self`. This is the
    /// orientation predicate the whole crate is built on.
    #[inline]
    pub fn cross(&self, other: Vector) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Counter-clockwise perpendicular (rotate by +90°).
    #[inline]
    pub fn perp(&self) -> Vector {
        Vector::new(-self.y, self.x)
    }

    /// Returns the unit vector with the same direction, or `None` for a
    /// (near-)zero vector.
    pub(crate) fn normalized(&self) -> Option<Vector> {
        let n = self.norm();
        if n <= EPS {
            None
        } else {
            Some(Vector::new(self.x / n, self.y / n))
        }
    }

    /// Angle from the +x axis, in `(-π, π]`.
    pub fn angle(&self) -> Angle {
        Angle::from_radians(self.y.atan2(self.x))
    }

    /// `true` when this vector is (near-)zero.
    #[inline]
    pub(crate) fn is_zero(&self) -> bool {
        approx_zero(self.x) && approx_zero(self.y)
    }

    /// `true` when `self` and `other` are parallel (possibly anti-parallel)
    /// within tolerance, scaled by the vector magnitudes.
    pub fn is_parallel(&self, other: Vector) -> bool {
        let scale = (self.norm() * other.norm()).max(1.0);
        self.cross(other).abs() <= EPS * scale
    }
}

impl Add for Vector {
    type Output = Vector;
    #[inline]
    fn add(self, rhs: Vector) -> Vector {
        Vector::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl AddAssign for Vector {
    #[inline]
    fn add_assign(&mut self, rhs: Vector) {
        self.x += rhs.x;
        self.y += rhs.y;
    }
}

impl Sub for Vector {
    type Output = Vector;
    #[inline]
    fn sub(self, rhs: Vector) -> Vector {
        Vector::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl SubAssign for Vector {
    #[inline]
    fn sub_assign(&mut self, rhs: Vector) {
        self.x -= rhs.x;
        self.y -= rhs.y;
    }
}

impl Mul<f64> for Vector {
    type Output = Vector;
    #[inline]
    fn mul(self, rhs: f64) -> Vector {
        Vector::new(self.x * rhs, self.y * rhs)
    }
}

impl Neg for Vector {
    type Output = Vector;
    #[inline]
    fn neg(self) -> Vector {
        Vector::new(-self.x, -self.y)
    }
}

impl fmt::Display for Vector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{:.4}, {:.4}>", self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_and_dot() {
        let v = Vector::new(3.0, 4.0);
        assert_eq!(v.norm(), 5.0);
        assert_eq!(v.norm_sq(), 25.0);
        assert_eq!(v.dot(Vector::new(1.0, 0.0)), 3.0);
    }

    #[test]
    fn cross_sign_encodes_orientation() {
        let x = Vector::new(1.0, 0.0);
        let y = Vector::new(0.0, 1.0);
        assert!(x.cross(y) > 0.0);
        assert!(y.cross(x) < 0.0);
        assert_eq!(x.cross(x), 0.0);
    }

    #[test]
    fn perp_is_ccw_quarter_turn() {
        assert_eq!(Vector::new(1.0, 0.0).perp(), Vector::new(0.0, 1.0));
        assert_eq!(Vector::new(0.0, 1.0).perp(), Vector::new(-1.0, 0.0));
    }

    #[test]
    fn normalized_unit_or_none() {
        assert!(Vector::new(0.0, 0.0).normalized().is_none());
        let u = Vector::new(0.0, 2.5).normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
        assert!(u.is_parallel(Vector::new(0.0, 1.0)));
    }

    #[test]
    fn angle_round_trip() {
        for deg in [-170.0, -90.0, -45.0, 0.0, 30.0, 90.0, 135.0, 179.0] {
            let a = Angle::from_degrees(deg);
            let v = Vector::from_angle(a);
            assert!(
                (v.angle().radians() - a.radians()).abs() < 1e-9,
                "deg={deg}"
            );
        }
    }

    #[test]
    fn parallel_detection() {
        assert!(Vector::new(1.0, 2.0).is_parallel(Vector::new(-2.0, -4.0)));
        assert!(!Vector::new(1.0, 2.0).is_parallel(Vector::new(2.0, 1.0)));
    }

    #[test]
    fn arithmetic_ops() {
        let a = Vector::new(1.0, 2.0);
        let b = Vector::new(3.0, -1.0);
        assert_eq!(a + b, Vector::new(4.0, 1.0));
        assert_eq!(a - b, Vector::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Vector::new(2.0, 4.0));
        assert_eq!(-a, Vector::new(-1.0, -2.0));
        let mut c = a;
        c += b;
        c -= b;
        assert_eq!(c, a);
    }
}
