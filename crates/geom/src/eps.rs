//! Floating-point tolerance contract used by every predicate in this crate.
//!
//! PCB coordinates are expressed in board units (mils in the bundled
//! generators) and live comfortably inside `f64`'s exact range, but chained
//! constructions (frame transforms, intersections) accumulate rounding error.
//! All geometric comparisons therefore go through these helpers with a single
//! absolute tolerance [`EPS`].

/// Absolute tolerance for coordinate comparisons, in board units.
///
/// One nanometre when board units are millimetres; far below any design rule.
pub const EPS: f64 = 1e-9;

/// Returns `true` when `a` and `b` differ by at most [`EPS`].
///
/// ```
/// assert!(meander_geom::approx_eq(1.0, 1.0 + 1e-12));
/// assert!(!meander_geom::approx_eq(1.0, 1.0 + 1e-6));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS
}

/// Returns `true` when `a` is within [`EPS`] of zero.
#[inline]
pub fn approx_zero(a: f64) -> bool {
    a.abs() <= EPS
}

/// Clamps a value into `[lo, hi]`.
#[inline]
pub(crate) fn clamp(v: f64, lo: f64, hi: f64) -> f64 {
    v.max(lo).min(hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_within_tolerance() {
        assert!(approx_eq(0.0, 0.0));
        assert!(approx_eq(1.0, 1.0 + EPS * 0.5));
        assert!(!approx_eq(1.0, 1.0 + EPS * 10.0));
    }

    #[test]
    fn zero_within_tolerance() {
        assert!(approx_zero(EPS * 0.9));
        assert!(!approx_zero(EPS * 1.1));
    }

    #[test]
    fn clamp_bounds() {
        assert_eq!(clamp(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
    }
}
