//! Corner mitering per the `dmiter` design rule.
//!
//! The paper's DRC glossary (Sec. II, Fig. 1) defines `dmiter` as the corner
//! chamfer applied to convex patterns: "any rotation of a right angle or an
//! acute angle will be mitered by obtuse angles". Meander patterns are
//! constructed with right-angle corners for simplicity and chamfered here as
//! a post-pass, turning each 90° (or sharper) corner into two obtuse corners.

use crate::eps::EPS;
use crate::point::Point;
use crate::polyline::Polyline;

/// Chamfers every corner of `pl` whose direction change is a right angle or
/// sharper, cutting `dmiter` along both incident segments.
///
/// Corners gentler than 90° (e.g. 135° corners of 45°-routing) are left
/// untouched. When an incident segment is too short to give up `dmiter` on
/// each side, the cut is scaled down to what the segment can afford (half
/// its length per end) instead of being skipped, so short jogs still lose
/// their sharp corners.
///
/// Mitering *shortens* a trace slightly (each chamfer replaces `2·dmiter` of
/// path with `√2·dmiter` at right angles); callers that miter after length
/// matching should either account for that loss, `(2 − √2)·dmiter` per
/// right-angle corner, in the target or miter before the final fine-tuning
/// iteration.
///
/// ```
/// use meander_geom::{miter::miter_polyline, Point, Polyline};
/// let pl = Polyline::new(vec![
///     Point::new(0.0, 0.0),
///     Point::new(10.0, 0.0),
///     Point::new(10.0, 10.0),
/// ]);
/// let m = miter_polyline(&pl, 2.0);
/// assert_eq!(m.point_count(), 4); // corner replaced by a chamfer pair
/// assert!(m.length() < pl.length());
/// ```
pub fn miter_polyline(pl: &Polyline, dmiter: f64) -> Polyline {
    miter_polyline_with_min(pl, dmiter, 0.0)
}

/// [`miter_polyline`] that additionally guarantees every *remainder* piece
/// (the part of a segment left between cuts) stays at least `min_len`
/// long, skipping or shrinking cuts that would fall below it.
///
/// Drivers pass `min_len = dprotect` so mitered outputs cannot introduce
/// short-segment DRC violations: a corner whose incident segments cannot
/// spare the length simply keeps its right angle.
pub fn miter_polyline_with_min(pl: &Polyline, dmiter: f64, min_len: f64) -> Polyline {
    if dmiter <= EPS || pl.point_count() < 3 {
        return pl.clone();
    }
    let pts = pl.points();
    let mut out: Vec<Point> = Vec::with_capacity(pts.len() * 2);
    out.push(pts[0]);

    for i in 1..pts.len() - 1 {
        let prev = *out.last().expect("non-empty");
        let cur = pts[i];
        let next = pts[i + 1];
        let din = (cur - prev).normalized();
        let dout = (next - cur).normalized();
        let (din, dout) = match (din, dout) {
            (Some(a), Some(b)) => (a, b),
            _ => {
                out.push(cur);
                continue;
            }
        };
        // Direction-change magnitude; ≥ 90° − tol means right-angle or
        // sharper corner.
        let turn = din.cross(dout).atan2(din.dot(dout)).abs();
        if turn < std::f64::consts::FRAC_PI_2 - 1e-9 {
            out.push(cur);
            continue;
        }
        // Budget per side: half the incident segment (its other half may
        // belong to the neighbouring corner), reduced so that a remainder
        // of at least `min_len` survives when both ends are cut.
        let budget = |len: f64| ((len - min_len) / 2.0).min(len / 2.0).min(dmiter);
        let cut = budget((cur - prev).norm()).min(budget((next - cur).norm()));
        if cut <= EPS {
            out.push(cur);
            continue;
        }
        out.push(cur - din * cut);
        out.push(cur + dout * cut);
    }

    out.push(pts[pts.len() - 1]);
    let mut res = Polyline::new(out);
    res.simplify();
    res
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Length removed by chamfering one right-angle corner with cut
    /// `dmiter`: `2·dmiter − √2·dmiter`.
    fn miter_length_loss(dmiter: f64) -> f64 {
        (2.0 - std::f64::consts::SQRT_2) * dmiter
    }

    #[test]
    fn right_angle_corner_is_chamfered() {
        let pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ]);
        let m = miter_polyline(&pl, 2.0);
        assert_eq!(m.point_count(), 4);
        assert!(m.points()[1].approx_eq(Point::new(8.0, 0.0)));
        assert!(m.points()[2].approx_eq(Point::new(10.0, 2.0)));
        let expected = pl.length() - miter_length_loss(2.0);
        assert!((m.length() - expected).abs() < 1e-9);
    }

    #[test]
    fn oblique_corner_untouched() {
        // 45° direction change — already obtuse corner, no miter.
        let pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(20.0, 10.0),
        ]);
        let m = miter_polyline(&pl, 2.0);
        assert_eq!(m.point_count(), 3);
        assert!((m.length() - pl.length()).abs() < 1e-12);
    }

    #[test]
    fn acute_corner_is_chamfered() {
        // 135° direction change (sharper than right angle).
        let pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(0.0, 10.0),
        ]);
        let m = miter_polyline(&pl, 1.0);
        assert_eq!(m.point_count(), 4);
        assert!(m.length() < pl.length());
    }

    #[test]
    fn short_segments_scale_the_cut() {
        // Middle segment of length 2 between two right angles: each corner
        // can use at most 1.0 of it.
        let pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 2.0),
            Point::new(20.0, 2.0),
        ]);
        let m = miter_polyline(&pl, 5.0);
        // Both corners chamfered with reduced cut, no vertex collisions.
        assert!(m.point_count() >= 5);
        assert!(!m.is_self_intersecting());
        assert!(m.segments().all(|s| s.length() > 0.0));
    }

    #[test]
    fn zero_miter_is_identity() {
        let pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(5.0, 5.0),
        ]);
        assert_eq!(miter_polyline(&pl, 0.0), pl);
    }

    #[test]
    fn meander_pattern_gets_all_corners_cut() {
        // One trombone pattern: 4 right angles.
        let pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 6.0),
            Point::new(8.0, 6.0),
            Point::new(8.0, 0.0),
            Point::new(12.0, 0.0),
        ]);
        let m = miter_polyline(&pl, 1.0);
        assert_eq!(m.point_count(), 10);
        let expected = pl.length() - 4.0 * miter_length_loss(1.0);
        assert!((m.length() - expected).abs() < 1e-9);
        assert!(!m.is_self_intersecting());
    }

    #[test]
    fn any_angle_pattern_mitering() {
        // Same trombone rotated by 30°: mitering must be frame-independent.
        let rot = |p: Point| {
            let (s, c) = (30.0_f64.to_radians()).sin_cos();
            Point::new(p.x * c - p.y * s, p.x * s + p.y * c)
        };
        let base = [
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 6.0),
            Point::new(8.0, 6.0),
            Point::new(8.0, 0.0),
            Point::new(12.0, 0.0),
        ];
        let pl = Polyline::new(base.iter().map(|&p| rot(p)).collect());
        let m = miter_polyline(&pl, 1.0);
        assert_eq!(m.point_count(), 10);
        let expected = pl.length() - 4.0 * miter_length_loss(1.0);
        assert!((m.length() - expected).abs() < 1e-9);
    }
}
