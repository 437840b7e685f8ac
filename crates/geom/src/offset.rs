//! Polyline offsetting with miter joins.
//!
//! MSDTW (paper Sec. V) merges a differential pair into a single median
//! trace; after length matching, the pair is *restored* by offsetting the
//! meandered median trace by ± half the pair pitch. This module implements
//! that offset: each segment is displaced along its left normal, and
//! consecutive displaced segments are joined by intersecting their carrier
//! lines (miter join), falling back to a bevel when the turn is too sharp
//! for a bounded miter.

use crate::eps::{approx_zero, EPS};
use crate::point::Point;
use crate::polyline::Polyline;
use crate::vector::Vector;

/// Maximum ratio of miter length to offset distance before falling back to a
/// bevel join (mirrors the common CAD default).
pub(crate) const MITER_LIMIT: f64 = 4.0;

/// Offsets `pl` by signed distance `d` (positive = to the left of travel
/// direction).
///
/// Returns `None` if the polyline has no non-degenerate segments.
///
/// The construction keeps one output vertex per input vertex when miters are
/// used, so node correspondence is preserved — exactly what differential-pair
/// restoration needs (each median node maps back to a P-node and an N-node).
///
/// ```
/// use meander_geom::{offset::offset_polyline, Point, Polyline};
/// let pl = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
/// let up = offset_polyline(&pl, 2.0).unwrap();
/// assert!(up.points()[0].approx_eq(Point::new(0.0, 2.0)));
/// assert!(up.points()[1].approx_eq(Point::new(10.0, 2.0)));
/// ```
pub fn offset_polyline(pl: &Polyline, d: f64) -> Option<Polyline> {
    // Collect non-degenerate segment directions.
    let pts = pl.points();
    let mut dirs: Vec<Option<Vector>> = Vec::with_capacity(pts.len() - 1);
    for w in pts.windows(2) {
        dirs.push((w[1] - w[0]).normalized());
    }
    if dirs.iter().all(|d| d.is_none()) {
        return None;
    }

    if approx_zero(d) {
        return Some(pl.clone());
    }

    let mut out: Vec<Point> = Vec::with_capacity(pts.len() + 4);

    // Start point: offset along the first valid segment's normal.
    let first_dir = dirs
        .iter()
        .flatten()
        .next()
        .copied()
        .expect("checked above");
    out.push(pts[0] + first_dir.perp() * d);

    for i in 1..pts.len() - 1 {
        let din = dirs[i - 1].or_else(|| prev_valid(&dirs, i - 1));
        let dout = dirs[i].or_else(|| next_valid(&dirs, i));
        match (din, dout) {
            (Some(a), Some(b)) => {
                join_at_vertex(&mut out, pts[i], a, b, d);
            }
            (Some(a), None) | (None, Some(a)) => {
                out.push(pts[i] + a.perp() * d);
            }
            (None, None) => {}
        }
    }

    let last_dir = dirs
        .iter()
        .rev()
        .flatten()
        .next()
        .copied()
        .expect("checked above");
    out.push(pts[pts.len() - 1] + last_dir.perp() * d);

    // Drop consecutive duplicates introduced by collinear joins.
    out.dedup_by(|a, b| a.approx_eq(*b));
    if out.len() < 2 {
        return None;
    }
    Some(Polyline::new(out))
}

fn prev_valid(dirs: &[Option<Vector>], from: usize) -> Option<Vector> {
    dirs[..=from].iter().rev().flatten().next().copied()
}

fn next_valid(dirs: &[Option<Vector>], from: usize) -> Option<Vector> {
    dirs[from..].iter().flatten().next().copied()
}

/// Emits join vertices at `corner` between incoming direction `a` and
/// outgoing direction `b`, both unit, offset distance `d`.
fn join_at_vertex(out: &mut Vec<Point>, corner: Point, a: Vector, b: Vector, d: f64) {
    let na = a.perp() * d;
    let nb = b.perp() * d;
    let cross = a.cross(b);

    if cross.abs() <= EPS {
        if a.dot(b) > 0.0 {
            // Straight-through: single offset vertex.
            out.push(corner + na);
        } else {
            // 180° reversal: square cap (offset out along both normals and
            // the shared tangent).
            out.push(corner + na);
            out.push(corner + na + a * d.abs());
            out.push(corner + nb + a * d.abs());
            out.push(corner + nb);
        }
        return;
    }

    // Miter point: intersection of the two offset carrier lines.
    // Solve corner + na + t*a == corner + nb + s*b  ⇒  t = (nb - na) × b / (a × b)
    let t = (nb - na).cross(b) / cross;
    let miter = corner + na + a * t;
    let miter_len = (miter - corner).norm();
    if miter_len <= MITER_LIMIT * d.abs() {
        out.push(miter);
    } else {
        // Bevel: keep both offset endpoints.
        out.push(corner + na);
        out.push(corner + nb);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_offsets_parallel() {
        let pl = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0)]);
        let up = offset_polyline(&pl, 3.0).unwrap();
        assert!(up.points()[0].approx_eq(Point::new(0.0, 3.0)));
        assert!(up.points()[1].approx_eq(Point::new(10.0, 3.0)));
        let down = offset_polyline(&pl, -3.0).unwrap();
        assert!(down.points()[0].approx_eq(Point::new(0.0, -3.0)));
    }

    #[test]
    fn right_angle_miter_join() {
        let pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ]);
        // Left offset of an up-turning corner: the miter lands inside.
        let left = offset_polyline(&pl, 1.0).unwrap();
        assert_eq!(left.point_count(), 3);
        assert!(left.points()[1].approx_eq(Point::new(9.0, 1.0)));
        // Right offset: outside corner, miter extends the corner.
        let right = offset_polyline(&pl, -1.0).unwrap();
        assert_eq!(right.point_count(), 3);
        assert!(right.points()[1].approx_eq(Point::new(11.0, -1.0)));
    }

    #[test]
    fn offset_preserves_node_count_on_gentle_path() {
        // 135° corners: miter join, one vertex per input vertex.
        let pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(17.0, 7.0),
            Point::new(30.0, 7.0),
        ]);
        let off = offset_polyline(&pl, 0.5).unwrap();
        assert_eq!(off.point_count(), pl.point_count());
        // Every offset vertex sits ~0.5 away from the original polyline.
        for &p in off.points() {
            let dmin = pl.distance_to_point(p);
            assert!((dmin - 0.5).abs() < 0.21, "vertex {p} at distance {dmin}");
        }
    }

    #[test]
    fn offsets_left_and_right_bracket_centerline() {
        let pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(8.0, 0.0),
            Point::new(8.0, 6.0),
        ]);
        let l = offset_polyline(&pl, 1.0).unwrap();
        let r = offset_polyline(&pl, -1.0).unwrap();
        // The two offsets never touch and stay ~2 apart near straight runs.
        assert!(l.distance_to_polyline(&r) > 1.9);
    }

    #[test]
    fn reversal_gets_square_cap() {
        let pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(2.0, 0.0),
        ]);
        let off = offset_polyline(&pl, 1.0).unwrap();
        // Cap adds vertices beyond the 3 inputs.
        assert!(off.point_count() > 3);
        assert!(!off.points().iter().any(|p| p.x.is_nan() || p.y.is_nan()));
    }

    #[test]
    fn zero_offset_is_identity() {
        let pl = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)]);
        let off = offset_polyline(&pl, 0.0).unwrap();
        assert_eq!(off, pl);
    }

    #[test]
    fn degenerate_polyline_rejected() {
        let pl = Polyline::new(vec![Point::new(1.0, 1.0), Point::new(1.0, 1.0)]);
        assert!(offset_polyline(&pl, 1.0).is_none());
    }

    #[test]
    fn any_angle_offset_distance_correct() {
        // A 30°-ish slanted run: offset distance must hold at mid-segment.
        let pl = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(10.0, 6.0)]);
        let off = offset_polyline(&pl, 2.0).unwrap();
        let mid = off.point_at_length(off.length() / 2.0);
        assert!((pl.distance_to_point(mid) - 2.0).abs() < 1e-9);
    }
}
