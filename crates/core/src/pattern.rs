//! Pattern geometry: placements → meandered polyline (paper Alg. 1
//! lines 17–18).

use crate::dp::Placement;
use meander_geom::{Frame, Point, Polyline};

/// Builds the meandered replacement for a segment of length `len` in its
/// local frame: walks `x = 0 → len` splicing a rectangular detour for every
/// placement (`x_lo → up h → across → down → x_hi`).
///
/// Placements must be sorted by `lo` and non-overlapping (feet may touch —
/// connected patterns share a foot). Returns the local polyline including
/// both segment endpoints.
pub(crate) fn build_local_meander(len: f64, ldisc: f64, placements: &[Placement]) -> Polyline {
    let feet: Vec<(f64, f64, i8, f64)> = placements
        .iter()
        .map(|p| (p.lo as f64 * ldisc, p.hi as f64 * ldisc, p.dir, p.height))
        .collect();
    build_local_meander_f64(len, &feet)
}

/// [`build_local_meander`] with exact (un-discretized) feet coordinates:
/// `(x0, x1, dir, height)` tuples, sorted by `x0`.
pub(crate) fn build_local_meander_f64(len: f64, placements: &[(f64, f64, i8, f64)]) -> Polyline {
    let mut pts: Vec<Point> = Vec::with_capacity(2 + placements.len() * 4);
    pts.push(Point::new(0.0, 0.0));
    for &(x0, x1, dir, height) in placements {
        let y = height * f64::from(dir);
        if !pts
            .last()
            .expect("non-empty")
            .approx_eq(Point::new(x0, 0.0))
        {
            pts.push(Point::new(x0, 0.0));
        }
        pts.push(Point::new(x0, y));
        pts.push(Point::new(x1, y));
        pts.push(Point::new(x1, 0.0));
    }
    let end = Point::new(len, 0.0);
    if !pts.last().expect("non-empty").approx_eq(end) {
        pts.push(end);
    }
    let mut pl = Polyline::new(pts);
    pl.simplify();
    pl
}

/// Splices a meandered local polyline back into `trace`, replacing the
/// segment `seg_index` (whose geometry must still match `frame`).
///
/// Returns the indices (into the updated trace) of the first and last
/// vertex of the spliced run.
pub(crate) fn splice_meander(
    trace: &mut Polyline,
    seg_index: usize,
    frame: &Frame,
    local: &Polyline,
) -> (usize, usize) {
    let world: Vec<Point> = local.points().iter().map(|&p| frame.to_world(p)).collect();
    trace.splice(seg_index, seg_index + 1, &world);
    (seg_index, seg_index + world.len() - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_placements_is_straight() {
        let pl = build_local_meander(10.0, 1.0, &[]);
        assert_eq!(pl.point_count(), 2);
        assert_eq!(pl.length(), 10.0);
    }

    #[test]
    fn single_pattern_adds_twice_height() {
        let pl = build_local_meander(
            10.0,
            1.0,
            &[Placement {
                lo: 3,
                hi: 6,
                dir: 1,
                height: 4.0,
            }],
        );
        assert_eq!(pl.length(), 10.0 + 8.0);
        assert_eq!(pl.point_count(), 6);
        // Detour goes up (+y).
        assert!(pl.points().iter().any(|p| p.y > 3.9));
    }

    #[test]
    fn down_pattern_goes_negative() {
        let pl = build_local_meander(
            10.0,
            1.0,
            &[Placement {
                lo: 2,
                hi: 5,
                dir: -1,
                height: 3.0,
            }],
        );
        assert!(pl.points().iter().any(|p| p.y < -2.9));
        assert_eq!(pl.length(), 16.0);
    }

    #[test]
    fn connected_patterns_merge_legs() {
        // Two opposite patterns sharing a foot at x = 5: the shared foot
        // leg becomes one straight vertical segment after simplify.
        let pl = build_local_meander(
            10.0,
            1.0,
            &[
                Placement {
                    lo: 2,
                    hi: 5,
                    dir: 1,
                    height: 4.0,
                },
                Placement {
                    lo: 5,
                    hi: 8,
                    dir: -1,
                    height: 3.0,
                },
            ],
        );
        // Gain = 2·4 + 2·3 = 14.
        assert_eq!(pl.length(), 24.0);
        // The shared leg runs from +4 to −3 through (5, 0) with no
        // intermediate vertex (simplify merged the collinear legs).
        let xs5: Vec<_> = pl
            .points()
            .iter()
            .filter(|p| (p.x - 5.0).abs() < 1e-9)
            .collect();
        assert_eq!(xs5.len(), 2, "{:?}", pl.points());
        assert!(!pl.is_self_intersecting());
    }

    #[test]
    fn pattern_at_segment_ends() {
        // Feet exactly at both segment nodes.
        let pl = build_local_meander(
            8.0,
            1.0,
            &[Placement {
                lo: 0,
                hi: 8,
                dir: 1,
                height: 5.0,
            }],
        );
        assert_eq!(pl.length(), 18.0);
        assert_eq!(pl.start(), Point::new(0.0, 0.0));
        assert_eq!(pl.end(), Point::new(8.0, 0.0));
    }

    #[test]
    fn splice_into_any_angle_trace() {
        // 45° segment: meander in local frame, splice to world.
        let mut trace = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(20.0, 10.0),
        ]);
        let seg = trace.segment(0);
        let frame = Frame::from_segment(&seg).unwrap();
        let local = build_local_meander(
            seg.length(),
            seg.length() / 10.0,
            &[Placement {
                lo: 4,
                hi: 6,
                dir: 1,
                height: 2.0,
            }],
        );
        let before = trace.length();
        let (lo, hi) = splice_meander(&mut trace, 0, &frame, &local);
        assert_eq!(lo, 0);
        assert!((trace.length() - (before + 4.0)).abs() < 1e-9);
        // End point unchanged.
        assert!(trace.end().approx_eq(Point::new(20.0, 10.0)));
        assert!(hi > lo);
        assert!(!trace.is_self_intersecting());
    }
}
