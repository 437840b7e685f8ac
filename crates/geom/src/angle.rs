//! Angles with explicit unit handling.

use std::fmt;
use std::ops::{Add, Neg, Sub};

/// An angle, stored in radians.
///
/// The paper's headline feature is *any-direction* routing: traces are not
/// restricted to 90°/135° directions, so angles appear throughout the router
/// (segment directions, frame rotations, corner classification for mitering).
///
/// ```
/// use meander_geom::Angle;
/// let a = Angle::from_degrees(135.0);
/// assert!((a.degrees() - 135.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Angle(f64);

impl Angle {
    /// Zero angle.
    pub const ZERO: Angle = Angle(0.0);

    /// Creates an angle from radians.
    #[inline]
    pub(crate) fn from_radians(r: f64) -> Self {
        Angle(r)
    }

    /// Creates an angle from degrees.
    #[inline]
    pub fn from_degrees(d: f64) -> Self {
        Angle(d.to_radians())
    }

    /// Value in radians.
    #[inline]
    pub(crate) fn radians(&self) -> f64 {
        self.0
    }

    /// Value in degrees.
    #[inline]
    pub fn degrees(&self) -> f64 {
        self.0.to_degrees()
    }
}

impl Add for Angle {
    type Output = Angle;
    #[inline]
    fn add(self, rhs: Angle) -> Angle {
        Angle(self.0 + rhs.0)
    }
}

impl Sub for Angle {
    type Output = Angle;
    #[inline]
    fn sub(self, rhs: Angle) -> Angle {
        Angle(self.0 - rhs.0)
    }
}

impl Neg for Angle {
    type Output = Angle;
    #[inline]
    fn neg(self) -> Angle {
        Angle(-self.0)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}°", self.degrees())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn conversions_round_trip() {
        let a = Angle::from_degrees(45.0);
        assert!((a.radians() - PI / 4.0).abs() < 1e-12);
        assert!((Angle::from_radians(PI).degrees() - 180.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let a = Angle::from_degrees(30.0) + Angle::from_degrees(60.0);
        assert!((a.degrees() - 90.0).abs() < 1e-9);
        let b = Angle::from_degrees(30.0) - Angle::from_degrees(30.0);
        assert!(b.radians().abs() < 1e-12);
        assert!((-Angle::from_degrees(30.0)).degrees() + 30.0 < 1e-12);
    }

    #[test]
    fn display_shows_degrees() {
        assert!(format!("{}", Angle::from_degrees(90.0)).contains("90"));
    }
}
