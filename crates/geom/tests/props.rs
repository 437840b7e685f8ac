//! Property-based tests for the geometry substrate.
//!
//! These pin down the invariants the router relies on: frame transforms are
//! isometries, intersection predicates are symmetric and agree with distance
//! predicates, offsetting maintains its distance contract, and mitering never
//! lengthens a trace.

use meander_geom::batch::{
    accum_seg_to_points_dsq, distance_sq_to_segment_batch, intersect_x_range_batch,
    vertical_side_min_cap, SegBatch,
};
use meander_geom::offset::offset_polyline;
use meander_geom::{
    segment_intersection, Frame, Point, Polygon, Polyline, Rect, Segment, SegmentIntersection,
    Vector,
};
use proptest::prelude::*;

fn pt_strategy() -> impl Strategy<Value = Point> {
    (-100.0..100.0f64, -100.0..100.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn seg_strategy() -> impl Strategy<Value = Segment> {
    (pt_strategy(), pt_strategy())
        .prop_filter("non-degenerate", |(a, b)| a.distance(*b) > 1e-3)
        .prop_map(|(a, b)| Segment::new(a, b))
}

fn polyline_strategy() -> impl Strategy<Value = Polyline> {
    proptest::collection::vec(pt_strategy(), 2..10)
        .prop_filter("consecutive points distinct", |pts| {
            pts.windows(2).all(|w| w[0].distance(w[1]) > 1e-2)
        })
        .prop_map(Polyline::new)
}

/// Candidate sets for the batch kernels: a mix of generic segments,
/// degenerate zero-length segments, axis-aligned runs that bait collinear
/// overlaps against axis-aligned probes, and near-vertical edges that force
/// the side kernels' parallel fallback.
fn mixed_seg_vec() -> impl Strategy<Value = Vec<Segment>> {
    proptest::collection::vec(
        (0usize..5, pt_strategy(), pt_strategy(), 0.1..30.0f64),
        1..32,
    )
    .prop_map(|items| {
        items
            .into_iter()
            .map(|(tag, a, b, len)| match tag {
                0 => Segment::new(a, a),
                1 => Segment::new(Point::new(a.x, 0.0), Point::new(a.x + len, 0.0)),
                2 => Segment::new(Point::new(a.x, a.y), Point::new(a.x, a.y + len)),
                _ => Segment::new(a, b),
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn batched_segment_distances_bit_identical(
        segs in mixed_seg_vec(),
        probe_tag in 0usize..3,
        pa in pt_strategy(),
        pb in pt_strategy(),
    ) {
        // Axis-aligned probes collide with the collinear bait; the third
        // variant exercises arbitrary angles.
        let probe = match probe_tag {
            0 => Segment::new(Point::new(pa.x, 0.0), Point::new(pb.x, 0.0)),
            1 => Segment::new(pa, pa),
            _ => Segment::new(pa, pb),
        };
        let mut batch = SegBatch::new();
        for s in &segs {
            batch.push(s);
        }
        let mut dsq = Vec::new();
        distance_sq_to_segment_batch(&probe, &batch, &mut dsq);
        for (i, s) in segs.iter().enumerate() {
            let scalar = probe.distance_to_segment(s);
            prop_assert_eq!(
                dsq[i].sqrt().to_bits(),
                scalar.to_bits(),
                "lane {}: batched {} vs scalar {}",
                i,
                dsq[i].sqrt(),
                scalar
            );
        }
        // A first-occurrence strict-min reduction in the squared domain
        // picks the scalar scan's winner.
        let (mut win, mut best) = (0, f64::INFINITY);
        let (mut sw, mut sb) = (0, f64::INFINITY);
        for (i, s) in segs.iter().enumerate() {
            if dsq[i] < best {
                (win, best) = (i, dsq[i]);
            }
            let d = probe.distance_to_segment(s);
            if d < sb {
                (sw, sb) = (i, d);
            }
        }
        prop_assert_eq!(win, sw);
        prop_assert_eq!(best.sqrt().to_bits(), sb.to_bits());
    }

    #[test]
    fn batched_point_distances_bit_identical(
        seg in seg_strategy(),
        pts in proptest::collection::vec(pt_strategy(), 1..40),
        degenerate in 0usize..2,
    ) {
        let probe = if degenerate == 1 {
            Segment::new(seg.a, seg.a)
        } else {
            seg
        };
        // From `INFINITY`, one min-accumulation leaves each lane's d².
        let px: Vec<f64> = pts.iter().map(|p| p.x).collect();
        let py: Vec<f64> = pts.iter().map(|p| p.y).collect();
        let mut dsq = vec![f64::INFINITY; pts.len()];
        accum_seg_to_points_dsq(&probe, &px, &py, &mut dsq);
        for (i, &p) in pts.iter().enumerate() {
            prop_assert_eq!(
                dsq[i].sqrt().to_bits(),
                probe.distance_to_point(p).to_bits(),
                "lane {}", i
            );
        }
    }

    #[test]
    fn batched_side_caps_bit_identical(
        segs in mixed_seg_vec(),
        x0 in -40.0..40.0f64,
        step in 0.5..4.0f64,
        yhi in 5.0..60.0f64,
        seg_len in 10.0..200.0f64,
    ) {
        // Reference: the scalar stage-1 contribution of a vertical side.
        let ylo = 1e-7;
        let cap_of = |x: f64, e: &Segment| -> f64 {
            let side = Segment::new(Point::new(x, ylo), Point::new(x, yhi));
            let baseline = Segment::new(Point::ORIGIN, Point::new(seg_len, 0.0));
            match segment_intersection(&side, e) {
                SegmentIntersection::None => f64::INFINITY,
                SegmentIntersection::Point(p) => baseline.distance_to_point(p),
                SegmentIntersection::Overlap(o) => baseline
                    .distance_to_point(o.a)
                    .min(baseline.distance_to_point(o.b)),
            }
        };
        // Lane-parallel over positions, one edge at a time.
        let xs: Vec<f64> = (0..24).map(|p| x0 + p as f64 * step).collect();
        for e in &segs {
            let mut caps = vec![f64::INFINITY; xs.len()];
            intersect_x_range_batch(&xs, ylo, yhi, e, seg_len, &mut caps);
            for (i, &x) in xs.iter().enumerate() {
                prop_assert_eq!(
                    caps[i].to_bits(),
                    cap_of(x, e).to_bits(),
                    "edge at lane {}", i
                );
            }
        }
        // Lane-parallel over edges, one position at a time.
        let mut batch = SegBatch::new();
        for s in &segs {
            batch.push(s);
        }
        for &x in xs.iter().step_by(5) {
            let got = vertical_side_min_cap(x, ylo, yhi, &batch, seg_len);
            let expect = segs
                .iter()
                .map(|e| cap_of(x, e))
                .fold(f64::INFINITY, f64::min);
            prop_assert_eq!(got.to_bits(), expect.to_bits());
        }
    }
}

proptest! {
    #[test]
    fn frame_round_trip_is_identity(seg in seg_strategy(), p in pt_strategy()) {
        let f = Frame::from_segment(&seg).unwrap();
        let rt = f.to_world(f.to_local(p));
        prop_assert!(rt.distance(p) < 1e-7);
    }

    #[test]
    fn frame_is_isometry(seg in seg_strategy(), p in pt_strategy(), q in pt_strategy()) {
        let f = Frame::from_segment(&seg).unwrap();
        let d_world = p.distance(q);
        let d_local = f.to_local(p).distance(f.to_local(q));
        prop_assert!((d_world - d_local).abs() < 1e-7);
    }

    #[test]
    fn segment_maps_onto_local_x_axis(seg in seg_strategy()) {
        let f = Frame::from_segment(&seg).unwrap();
        let b = f.to_local(seg.b);
        prop_assert!(b.y.abs() < 1e-7);
        prop_assert!((b.x - seg.length()).abs() < 1e-7);
    }

    #[test]
    fn intersection_is_symmetric(s1 in seg_strategy(), s2 in seg_strategy()) {
        let a = segment_intersection(&s1, &s2);
        let b = segment_intersection(&s2, &s1);
        // The *kind* of result must agree both ways.
        prop_assert_eq!(
            std::mem::discriminant(&a),
            std::mem::discriminant(&b)
        );
        // And a point intersection must lie on both segments.
        if let SegmentIntersection::Point(p) = a {
            prop_assert!(s1.distance_to_point(p) < 1e-6);
            prop_assert!(s2.distance_to_point(p) < 1e-6);
        }
    }

    #[test]
    fn distance_zero_iff_intersecting(s1 in seg_strategy(), s2 in seg_strategy()) {
        let d = s1.distance_to_segment(&s2);
        let hit = !matches!(segment_intersection(&s1, &s2), SegmentIntersection::None);
        if hit {
            prop_assert!(d < 1e-9);
        } else {
            prop_assert!(d > 0.0);
        }
    }

    #[test]
    fn closest_point_minimizes(seg in seg_strategy(), p in pt_strategy(), t in 0.0..1.0f64) {
        let d_closest = seg.distance_to_point(p);
        let d_other = seg.point_at(t).distance(p);
        prop_assert!(d_closest <= d_other + 1e-9);
    }

    #[test]
    fn rect_from_points_contains_all(pts in proptest::collection::vec(pt_strategy(), 1..20)) {
        let r = Rect::from_points(pts.iter().copied()).unwrap();
        for p in &pts {
            prop_assert!(r.contains(*p));
        }
    }

    #[test]
    fn polygon_bbox_contains_polygon_samples(c in pt_strategy(), r in 0.5..20.0f64, n in 3usize..10) {
        let poly = Polygon::regular(c, r, n, 0.3);
        let bbox = poly.bbox();
        for v in poly.vertices() {
            prop_assert!(bbox.contains(*v));
        }
        // Centroid of a regular polygon is inside both.
        prop_assert!(poly.contains(c));
        prop_assert!(bbox.contains(c));
    }

    #[test]
    fn regular_polygon_containment_matches_radius(
        c in pt_strategy(), r in 1.0..20.0f64, n in 8usize..24, probe_angle in 0.0..(2.0 * std::f64::consts::PI)
    ) {
        let poly = Polygon::regular(c, r, n, 0.0);
        // Inradius = r·cos(π/n); points clearly inside the inradius are
        // contained, points clearly outside the circumradius are not.
        let inr = r * (std::f64::consts::PI / n as f64).cos();
        let dir = Vector::new(probe_angle.cos(), probe_angle.sin());
        let inside = c + dir * (inr * 0.9);
        let outside = c + dir * (r * 1.1);
        prop_assert!(poly.contains(inside));
        prop_assert!(!poly.contains(outside));
    }

    #[test]
    fn polyline_simplify_preserves_length_and_ends(pl in polyline_strategy()) {
        let mut s = pl.clone();
        s.simplify();
        prop_assert!((s.length() - pl.length()).abs() < 1e-6);
        prop_assert!(s.start().approx_eq(pl.start()));
        prop_assert!(s.end().approx_eq(pl.end()));
        prop_assert!(s.point_count() <= pl.point_count());
    }

    #[test]
    fn point_at_length_is_on_polyline(pl in polyline_strategy(), t in 0.0..1.0f64) {
        let p = pl.point_at_length(pl.length() * t);
        prop_assert!(pl.distance_to_point(p) < 1e-6);
    }

    #[test]
    fn offset_keeps_distance_on_straight_runs(
        a in pt_strategy(), dir_deg in 0.0..360.0f64, len in 5.0..50.0f64, d in 0.2..3.0f64
    ) {
        let dir = Vector::new(dir_deg.to_radians().cos(), dir_deg.to_radians().sin());
        let pl = Polyline::new(vec![a, a + dir * len]);
        let off = offset_polyline(&pl, d).unwrap();
        // Sample the offset mid-point: must be exactly d away.
        let mid = off.point_at_length(off.length() / 2.0);
        prop_assert!((pl.distance_to_point(mid) - d).abs() < 1e-6);
        // And on the left side.
        prop_assert!(pl.segment(0).signed_line_distance(mid) > 0.0);
    }

    #[test]
    fn miter_never_lengthens(pl in polyline_strategy(), dm in 0.01..2.0f64) {
        let m = meander_geom::miter::miter_polyline(&pl, dm);
        prop_assert!(m.length() <= pl.length() + 1e-9);
        prop_assert!(m.start().approx_eq(pl.start()));
        prop_assert!(m.end().approx_eq(pl.end()));
    }

    #[test]
    fn signed_area_negates_on_reversal(c in pt_strategy(), r in 0.5..10.0f64, n in 3usize..12) {
        let poly = Polygon::regular(c, r, n, 0.1);
        let mut rev: Vec<Point> = poly.vertices().to_vec();
        rev.reverse();
        let rpoly = Polygon::new(rev);
        prop_assert!((poly.signed_area() + rpoly.signed_area()).abs() < 1e-9);
    }

    #[test]
    fn polygon_edges_close_the_ring(c in pt_strategy(), r in 0.5..10.0f64, n in 3usize..12) {
        let poly = Polygon::regular(c, r, n, 0.0);
        let edges: Vec<Segment> = poly.edges().collect();
        prop_assert_eq!(edges.len(), n);
        for w in edges.windows(2) {
            prop_assert!(w[0].b.approx_eq(w[1].a));
        }
        prop_assert!(edges.last().unwrap().b.approx_eq(edges[0].a));
    }
}
