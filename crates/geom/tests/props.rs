//! Property-based tests for the geometry substrate.
//!
//! These pin down the invariants the router relies on: frame transforms are
//! isometries, intersection predicates are symmetric and agree with distance
//! predicates, offsetting maintains its distance contract, and mitering never
//! lengthens a trace.

use meander_geom::batch::{
    accum_seg_to_points_dsq, distance_sq_to_segment_batch, intersect_x_range_batch, SegBatch,
};
use meander_geom::offset::offset_polyline;
use meander_geom::polyline::simplify_into;
use meander_geom::{
    segment_intersection, Frame, Point, Polygon, Polyline, Rect, Segment, SegmentIntersection,
    Vector, EPS,
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
        prop_assert!(dir.cross(mid - a) > 0.0);
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

/// Convex hull of `pts` (Andrew's monotone chain), counter-clockwise and
/// without collinear vertices.
fn convex_hull(mut pts: Vec<Point>) -> Vec<Point> {
    pts.sort_by(|a, b| a.x.total_cmp(&b.x).then(a.y.total_cmp(&b.y)));
    pts.dedup();
    let turn = |o: Point, a: Point, b: Point| (a - o).cross(b - o);
    let mut hull: Vec<Point> = Vec::new();
    for pass in [pts.clone(), pts.into_iter().rev().collect()] {
        let base = hull.len();
        for p in pass {
            while hull.len() >= base + 2
                && turn(hull[hull.len() - 2], hull[hull.len() - 1], p) <= 0.0
            {
                hull.pop();
            }
            hull.push(p);
        }
        hull.pop();
    }
    hull
}

fn hull_strategy() -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(pt_strategy(), 3..24)
        .prop_map(convex_hull)
        .prop_filter("a proper polygon", |h| {
            h.len() >= 3 && Polygon::new(h.clone()).area() > 1.0
        })
}

/// The star polygon `{n/k}`: `n` points on a circle, each joined to the
/// `k`-th next. Its turns all have one sign, but it winds `k` times.
fn star(c: Point, r: f64, phase: f64, n: usize, k: usize) -> Polygon {
    Polygon::new(
        (0..n)
            .map(|i| {
                let t = phase + (i * k % n) as f64 * std::f64::consts::TAU / n as f64;
                Point::new(c.x + r * t.cos(), c.y + r * t.sin())
            })
            .collect(),
    )
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn convex_hulls_are_convex_in_both_orientations_from_every_start(hull in hull_strategy()) {
        let n = hull.len();
        for start in 0..n {
            let mut ring = hull.clone();
            ring.rotate_left(start);
            prop_assert!(Polygon::new(ring.clone()).is_convex(), "ccw from {}", start);
            ring.reverse();
            prop_assert!(Polygon::new(ring).is_convex(), "cw from {}", start);
        }
    }

    #[test]
    fn star_polygons_are_not_convex(
        c in pt_strategy(),
        r in 0.5..50.0f64,
        phase in 0.0..std::f64::consts::TAU,
        n in 5usize..16,
        k in 2usize..8,
    ) {
        if 2 * k < n && gcd(n, k) == 1 {
            let s = star(c, r, phase, n, k);
            prop_assert!(!s.is_convex(), "{{{}/{}}} accepted", n, k);
            let mut rev = s.vertices().to_vec();
            rev.reverse();
            prop_assert!(!Polygon::new(rev).is_convex(), "reversed {{{}/{}}} accepted", n, k);
        }
    }
}

#[test]
fn bowties_and_concave_arrows_are_not_convex() {
    let p = |x, y| Point::new(x, y);
    let bowtie = Polygon::new(vec![p(0.0, 0.0), p(4.0, 4.0), p(4.0, 0.0), p(0.0, 4.0)]);
    assert!(!bowtie.is_convex());
    let arrow = Polygon::new(vec![
        p(0.0, 0.0),
        p(10.0, 0.0),
        p(10.0, 10.0),
        p(5.0, 5.0),
        p(0.0, 10.0),
    ]);
    assert!(!arrow.is_convex());
    // A convex ring with a collinear midpoint still passes.
    let square = Polygon::new(vec![
        p(0.0, 0.0),
        p(2.0, 0.0),
        p(4.0, 0.0),
        p(4.0, 4.0),
        p(0.0, 4.0),
    ]);
    assert!(square.is_convex());
}

/// Random walks that bait every `simplify` rule: exact and near-exact
/// duplicate points, collinear continuations, 180° reversals, and turns
/// on a 45° compass (axis-aligned runs make exactly collinear triples).
fn walk_strategy() -> impl Strategy<Value = Vec<Point>> {
    (
        pt_strategy(),
        proptest::collection::vec((0usize..6, 0usize..8, 0.5..20.0f64), 1..24),
    )
        .prop_map(|(start, steps)| {
            let mut pts = vec![start];
            let mut dir = Vector::new(1.0, 0.0);
            for (kind, heading, len) in steps {
                let last = *pts.last().expect("non-empty");
                let next = match kind {
                    0 => last,
                    1 => Point::new(last.x + 1e-11, last.y - 1e-11),
                    2 => last + dir * len,
                    3 => {
                        dir = -dir;
                        last + dir * len
                    }
                    _ => {
                        let a = heading as f64 * std::f64::consts::FRAC_PI_4;
                        dir = Vector::new(a.cos(), a.sin());
                        last + dir * len
                    }
                };
                pts.push(next);
            }
            pts
        })
}

/// The two-pass form `Polyline::simplify` had before the one-pass buffer
/// form: dedup into one vector, then merge collinear runs into another.
fn simplify_two_pass(points: &[Point]) -> Vec<Point> {
    if points.len() <= 2 {
        return points.to_vec();
    }
    let mut out: Vec<Point> = Vec::with_capacity(points.len());
    out.push(points[0]);
    for &p in &points[1..] {
        if p.approx_eq(*out.last().expect("non-empty")) {
            continue;
        }
        out.push(p);
    }
    if out.len() < 2 {
        out = vec![points[0], *points.last().expect("non-empty")];
    }
    let mut merged: Vec<Point> = Vec::with_capacity(out.len());
    for p in out {
        while merged.len() >= 2 {
            let a = merged[merged.len() - 2];
            let b = merged[merged.len() - 1];
            let ab = b - a;
            let bp = p - b;
            if ab.cross(bp).abs() <= EPS * ab.norm().max(1.0) * bp.norm().max(1.0)
                && ab.dot(bp) >= 0.0
            {
                merged.pop();
            } else {
                break;
            }
        }
        merged.push(p);
    }
    merged
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // The one-pass buffer form equals the two-pass reference point for
    // point, into a buffer still holding an earlier walk's result, and
    // `Polyline::simplify` agrees.
    #[test]
    fn simplify_into_equals_two_pass_simplify(walk in walk_strategy(), earlier in walk_strategy()) {
        let reference = simplify_two_pass(&walk);
        let mut buf = Vec::new();
        simplify_into(&earlier, &mut buf);
        simplify_into(&walk, &mut buf);
        prop_assert_eq!(&buf, &reference);
        let mut pl = Polyline::new(walk.clone());
        pl.simplify();
        prop_assert_eq!(pl.points(), &reference[..]);
    }
}

/// The body `Polygon::contains` had before it tested parity first: the
/// boundary pass, then the even-odd ray cast with the half-open edge rule.
fn contains_boundary_first(poly: &Polygon, p: Point) -> bool {
    if poly.on_boundary(p) {
        return true;
    }
    let v = poly.vertices();
    let mut inside = false;
    let mut j = v.len() - 1;
    for i in 0..v.len() {
        let (pi, pj) = (v[i], v[j]);
        if (pi.y > p.y) != (pj.y > p.y) {
            let x_cross = pj.x + (p.y - pj.y) / (pi.y - pj.y) * (pi.x - pj.x);
            if p.x < x_cross {
                inside = !inside;
            }
        }
        j = i;
    }
    inside
}

/// Rings for the containment property, either winding: convex regular
/// n-gons, concave stars (alternating radii), and axis-aligned rectangles
/// and U shapes on integer coordinates, whose horizontal edges lie on
/// the ray cast's own lines.
fn ring_strategy() -> impl Strategy<Value = Polygon> {
    (
        (0usize..4, 0usize..2),
        pt_strategy(),
        (1.0..30.0f64, 0.2..0.9f64),
        3usize..12,
        0.0..std::f64::consts::TAU,
    )
        .prop_map(|((kind, flip), c, (r, k), n, phase)| {
            let p = |x: f64, y: f64| Point::new(c.x.round() + x, c.y.round() + y);
            let (w, h) = (r.round() + 1.0, (r * k).round() + 1.0);
            let mut verts = match kind {
                0 => Polygon::regular(c, r, n, phase).vertices().to_vec(),
                1 => (0..2 * n)
                    .map(|i| {
                        let a = phase + i as f64 * std::f64::consts::PI / n as f64;
                        let ri = if i % 2 == 0 { r } else { r * k };
                        Point::new(c.x + ri * a.cos(), c.y + ri * a.sin())
                    })
                    .collect(),
                2 => vec![p(0.0, 0.0), p(w, 0.0), p(w, h), p(0.0, h)],
                _ => vec![
                    p(0.0, 0.0),
                    p(3.0 * w, 0.0),
                    p(3.0 * w, 2.0 * h),
                    p(2.0 * w, 2.0 * h),
                    p(2.0 * w, h),
                    p(w, h),
                    p(w, 2.0 * h),
                    p(0.0, 2.0 * h),
                ],
            };
            if flip == 1 {
                verts.reverse();
            }
            Polygon::new(verts)
        })
}

/// A probe point near ring `poly`: a vertex, a point on an edge, one
/// within 2·EPS of an edge or a vertex, one 1e-6 to either side of an
/// edge, one on a vertex's horizontal (the ray passes through the
/// vertex), or a free point in the padded bbox.
fn probe(poly: &Polygon, (kind, e, t, s): (usize, usize, f64, f64)) -> Point {
    let v = poly.vertices();
    let (a, b) = (v[e % v.len()], v[(e + 1) % v.len()]);
    let on_edge = a + (b - a) * t;
    let normal = Vector::new(a.y - b.y, b.x - a.x) * (1.0 / a.distance(b));
    let bb = poly.bbox();
    match kind {
        0 => a,
        1 => on_edge,
        2 => on_edge + normal * (2.0 * EPS * s),
        3 => on_edge + normal * (1e-6 * s.signum()),
        4 => Point::new(a.x + 2.0 * EPS * s, a.y + 2.0 * EPS * (2.0 * t - 1.0)),
        5 => Point::new(bb.min.x - 1.0 + t * (bb.width() + 2.0), a.y),
        _ => Point::new(
            bb.min.x - 1.0 + t * (bb.width() + 2.0),
            bb.min.y - 1.0 + (s + 1.0) / 2.0 * (bb.height() + 2.0),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    // Parity-first containment answers exactly what the boundary-first
    // body answered, on convex and concave rings, at vertices, on edges,
    // within EPS of either, and just inside and outside.
    #[test]
    fn contains_equals_boundary_first_oracle(
        poly in ring_strategy(),
        probes in proptest::collection::vec((0usize..7, 0usize..64, 0.0..1.0f64, -1.0..1.0f64), 1..40),
    ) {
        for &pr in &probes {
            let p = probe(&poly, pr);
            prop_assert_eq!(poly.contains(p), contains_boundary_first(&poly, p), "probe {:?} at {:?}", pr, p);
        }
    }
}
