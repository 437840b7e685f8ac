//! Differential-pair restoration after length matching.
//!
//! "the median trace after length matching can be simply restored to the
//! differential pair" (paper Sec. I-C): offset the meandered median by
//! `± sep/2`. Because the median obeyed the virtual DRC
//! ([`meander_drc::virtualize_rules`]) during meandering, the restored pair
//! cannot violate the original rules.

use meander_geom::offset::offset_polyline;
use meander_geom::Polyline;

/// Restores the two sub-traces from a meandered median trace.
///
/// Returns `(p, n)` where `p` is offset `+sep/2` (left of travel) and `n`
/// is offset `−sep/2`. Returns `None` when the median is degenerate
/// (no non-zero-length segments).
///
/// The inner sub-trace of each meander is shorter than the outer one by
/// `2·sep` per pattern side-pair; real tools re-insert tiny patterns to
/// re-balance. The residual is `p.length() − n.length()`, left for callers
/// to decide on (the paper: "we restore the differential pairs and
/// compensate tiny patterns to sub-traces if needed").
pub fn restore_pair(median: &Polyline, sep: f64) -> Option<(Polyline, Polyline)> {
    let p = offset_polyline(median, sep / 2.0)?;
    let n = offset_polyline(median, -sep / 2.0)?;
    Some((p, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_geom::Point;

    fn pl(coords: &[(f64, f64)]) -> Polyline {
        Polyline::new(coords.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn straight_median_restores_parallel_pair() {
        let m = pl(&[(0.0, 0.0), (100.0, 0.0)]);
        let (p, n) = restore_pair(&m, 6.0).unwrap();
        assert!(p.points()[0].approx_eq(Point::new(0.0, 3.0)));
        assert!(n.points()[0].approx_eq(Point::new(0.0, -3.0)));
        assert!((p.distance_to_polyline(&n) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn meandered_median_restores_without_crossing() {
        // Median with one trombone pattern.
        let m = pl(&[
            (0.0, 0.0),
            (20.0, 0.0),
            (20.0, 15.0),
            (32.0, 15.0),
            (32.0, 0.0),
            (60.0, 0.0),
        ]);
        let (p, n) = restore_pair(&m, 6.0).unwrap();
        assert!(!p.is_self_intersecting());
        assert!(!n.is_self_intersecting());
        // A symmetric trombone has two left and two right turns, so the
        // per-corner gains/losses cancel: no net skew.
        let skew = p.length() - n.length();
        assert!(
            skew.abs() < 1e-9,
            "symmetric meander skew must cancel, got {skew}"
        );
        // Minimum pair separation stays the pitch on straight runs.
        assert!(p.distance_to_polyline(&n) > 5.0);
    }

    #[test]
    fn single_corner_creates_skew() {
        // One 90° miter corner: the inner side loses sep/2 per leg and the
        // outer gains sep/2 per leg, so the pair skew is 2·sep.
        let m = pl(&[(0.0, 0.0), (40.0, 0.0), (40.0, 40.0)]);
        let (p, n) = restore_pair(&m, 6.0).unwrap();
        let skew = p.length() - n.length();
        assert!(
            (skew.abs() - 12.0).abs() < 1e-9,
            "expected |skew| = 2·sep, got {skew}"
        );
        // Turning left (+y): P (left offset) is the inner, shorter side.
        assert!(skew < 0.0);
    }

    #[test]
    fn any_angle_median_restores() {
        let m = pl(&[(0.0, 0.0), (30.0, 18.0), (70.0, 42.0)]);
        let (p, n) = restore_pair(&m, 4.0).unwrap();
        let mid_p = p.point_at_length(p.length() / 2.0);
        let mid_n = n.point_at_length(n.length() / 2.0);
        assert!((m.distance_to_point(mid_p) - 2.0).abs() < 1e-6);
        assert!((m.distance_to_point(mid_n) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_median_rejected() {
        let m = pl(&[(5.0, 5.0), (5.0, 5.0)]);
        assert!(restore_pair(&m, 6.0).is_none());
    }

    #[test]
    fn compensation_zero_for_straight() {
        let m = pl(&[(0.0, 0.0), (50.0, 0.0)]);
        let (p, n) = restore_pair(&m, 6.0).unwrap();
        assert!((p.length() - n.length()).abs() < 1e-9);
    }
}
