//! Simple polygons — obstacles, routable-area borders, URA outlines.

use crate::eps::EPS;
use crate::intersect::segments_intersect;
use crate::point::Point;
use crate::rect::Rect;
use crate::segment::Segment;
use std::fmt;

/// A simple polygon given by its vertex ring (implicitly closed; the last
/// vertex connects back to the first).
///
/// In this workspace polygons model obstacles, routable-area borders (with
/// obstacles folded in as part of the border, per the paper's "Obstacle:
/// a polygon that the trace cannot pass, converted into a part of the
/// routable area"), and the rectangular URA outlines used during shrinking.
///
/// Vertices may wind either way; predicates are winding-agnostic except for
/// [`Polygon::signed_area`].
///
/// ```
/// use meander_geom::{Point, Polygon};
/// let square = Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0));
/// assert!(square.contains(Point::new(2.0, 2.0)));
/// assert!(!square.contains(Point::new(5.0, 2.0)));
/// assert_eq!(square.area(), 16.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from a vertex ring.
    ///
    /// # Panics
    ///
    /// Panics if fewer than 3 vertices are supplied.
    pub fn new(vertices: Vec<Point>) -> Self {
        assert!(vertices.len() >= 3, "polygon needs at least 3 vertices");
        Polygon { vertices }
    }

    /// Axis-aligned rectangle polygon between two corners.
    pub fn rectangle(a: Point, b: Point) -> Self {
        let r = Rect::new(a, b);
        Polygon::new(r.corners().to_vec())
    }

    /// Regular `n`-gon centered at `c` with circumradius `r`, first vertex at
    /// angle `phase` (radians). Handy for synthesizing vias/pads.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn regular(c: Point, r: f64, n: usize, phase: f64) -> Self {
        assert!(n >= 3, "regular polygon needs n >= 3");
        let verts = (0..n)
            .map(|i| {
                let ang = phase + i as f64 * std::f64::consts::TAU / n as f64;
                Point::new(c.x + r * ang.cos(), c.y + r * ang.sin())
            })
            .collect();
        Polygon::new(verts)
    }

    /// The vertex ring.
    #[inline]
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Number of vertices (== number of edges).
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Always `false`: constructors enforce ≥ 3 vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterator over the edges, each as a [`Segment`] from vertex `i` to
    /// vertex `i+1` (wrapping).
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.vertices.len();
        (0..n).map(move |i| Segment::new(self.vertices[i], self.vertices[(i + 1) % n]))
    }

    /// Signed area: positive for counter-clockwise winding.
    pub fn signed_area(&self) -> f64 {
        let mut s = 0.0;
        let n = self.vertices.len();
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            s += p.x * q.y - q.x * p.y;
        }
        s / 2.0
    }

    /// Absolute area.
    #[inline]
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// `true` when wound counter-clockwise.
    #[inline]
    pub(crate) fn is_ccw(&self) -> bool {
        self.signed_area() > 0.0
    }

    /// Returns a copy wound counter-clockwise.
    pub(crate) fn ccw(&self) -> Polygon {
        if self.is_ccw() {
            self.clone()
        } else {
            let mut v = self.vertices.clone();
            v.reverse();
            Polygon { vertices: v }
        }
    }

    /// Axis-aligned bounding box.
    pub fn bbox(&self) -> Rect {
        Rect::from_points(self.vertices.iter().copied()).expect("polygon has vertices")
    }

    /// Point-in-polygon by ray casting, boundary-inclusive.
    ///
    /// The paper adopts exactly this test for the inner-border check of
    /// Alg. 2 ("We adopt the ray casting algorithm for this work"). Parity
    /// runs first: both predicates are pure, so the answer is the same
    /// either way, but a point the ray cast finds inside skips the per-edge
    /// distance pass of [`Polygon::on_boundary`].
    pub fn contains(&self, p: Point) -> bool {
        self.contains_by_parity(p) || self.on_boundary(p)
    }

    /// `true` when `p` lies on the polygon border within tolerance.
    pub fn on_boundary(&self, p: Point) -> bool {
        self.edges().any(|e| e.distance_to_point(p) <= EPS)
    }

    fn contains_by_parity(&self, p: Point) -> bool {
        // Standard even-odd ray cast toward +x with the half-open edge rule,
        // which is robust against the ray passing through vertices.
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let pi = self.vertices[i];
            let pj = self.vertices[j];
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

    /// `true` when `seg` intersects or touches the polygon border.
    pub fn intersects_segment(&self, seg: &Segment) -> bool {
        self.edges().any(|e| segments_intersect(&e, seg))
    }

    /// Minimum distance from the polygon (as a filled region) to a segment:
    /// 0 when the segment touches or enters the polygon.
    pub fn distance_to_segment(&self, seg: &Segment) -> f64 {
        if self.intersects_segment(seg) {
            return 0.0;
        }
        if self.contains(seg.a) {
            // Fully inside (no border crossing + one endpoint inside).
            return 0.0;
        }
        let mut d = f64::INFINITY;
        for e in self.edges() {
            d = d.min(e.distance_to_segment(seg));
        }
        d
    }

    /// `true` when the polygon is convex (allowing collinear runs): every
    /// turn has one sign *and* the boundary turns exactly once round.
    ///
    /// One turn sign alone admits self-crossing stars (a pentagram turns
    /// the same way at every vertex but winds twice). A boundary that turns
    /// once round changes the sign of its edges' x and y components at most
    /// twice each; a star `{n/k}` changes each `2k` times.
    pub fn is_convex(&self) -> bool {
        let n = self.vertices.len();
        let mut sign = 0.0_f64;
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let c = self.vertices[(i + 2) % n];
            let cr = (b - a).cross(c - b);
            if cr.abs() <= EPS {
                continue;
            }
            if sign == 0.0 {
                sign = cr.signum();
            } else if cr.signum() != sign {
                return false;
            }
        }
        let edges = || self.edges().map(|e| e.b - e.a);
        sign_changes(edges().map(|d| d.x)) <= 2 && sign_changes(edges().map(|d| d.y)) <= 2
    }

    /// Translates every vertex by `v`.
    pub fn translated(&self, v: crate::vector::Vector) -> Polygon {
        Polygon {
            vertices: self.vertices.iter().map(|&p| p + v).collect(),
        }
    }

    /// Outward offset of a *convex* polygon by `d` (miter joins).
    ///
    /// Each edge line is pushed `d` along its outward normal and
    /// consecutive lines re-intersected. Used to inflate obstacles by the
    /// difference between the obstacle clearance rule and the trace-gap
    /// clearance the URA construction already provides.
    ///
    /// For non-convex input the result may self-intersect; callers must
    /// ensure convexity (vias and keep-outs in this workspace are convex).
    ///
    /// # Panics
    ///
    /// Panics if `d` is negative.
    pub fn offset_convex(&self, d: f64) -> Polygon {
        assert!(d >= 0.0, "offset distance must be non-negative");
        if d == 0.0 {
            return self.clone();
        }
        let ring = self.ccw();
        let verts = ring.vertices();
        let n = verts.len();
        // Shifted edge lines as (point, direction).
        let mut lines: Vec<(Point, crate::vector::Vector)> = Vec::with_capacity(n);
        for i in 0..n {
            let a = verts[i];
            let b = verts[(i + 1) % n];
            if let Some(dir) = (b - a).normalized() {
                // CCW ring: interior on the left ⇒ outward = right = −perp.
                let out = -dir.perp();
                lines.push((a + out * d, dir));
            }
        }
        let m = lines.len();
        let mut out_pts = Vec::with_capacity(m);
        for i in 0..m {
            let (p1, d1) = lines[(i + m - 1) % m];
            let (p2, d2) = lines[i];
            let denom = d1.cross(d2);
            if denom.abs() <= EPS {
                // Collinear edges: the shifted lines coincide; keep the
                // shared point.
                out_pts.push(p2);
            } else {
                let t = (p2 - p1).cross(d2) / denom;
                out_pts.push(p1 + d1 * t);
            }
        }
        out_pts.dedup_by(|a, b| a.approx_eq(*b));
        if out_pts.len() < 3 {
            return ring;
        }
        Polygon::new(out_pts)
    }

    /// Clips the polygon to the half-plane `y ≥ ymin`
    /// (Sutherland–Hodgman against one horizontal line).
    ///
    /// Returns `None` when the polygon lies entirely below the line or the
    /// clipped remainder is degenerate. The URA shrinking context uses this
    /// to discard the half of the world behind the extended segment, which
    /// the paper exempts from checking ("The area below line AD need not be
    /// checked").
    pub fn clipped_above(&self, ymin: f64) -> Option<Polygon> {
        let mut out: Vec<Point> = Vec::with_capacity(self.vertices.len() + 4);
        let n = self.vertices.len();
        for i in 0..n {
            let cur = self.vertices[i];
            let next = self.vertices[(i + 1) % n];
            let cur_in = cur.y >= ymin;
            let next_in = next.y >= ymin;
            if cur_in {
                out.push(cur);
            }
            if cur_in != next_in {
                let t = (ymin - cur.y) / (next.y - cur.y);
                out.push(Point::new(cur.x + (next.x - cur.x) * t, ymin));
            }
        }
        out.dedup_by(|a, b| a.approx_eq(*b));
        if out.len() >= 2 && out[0].approx_eq(*out.last().expect("non-empty")) {
            out.pop();
        }
        if out.len() < 3 {
            return None;
        }
        let poly = Polygon::new(out);
        if poly.area() <= EPS {
            None
        } else {
            Some(poly)
        }
    }
}

impl fmt::Display for Polygon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Polygon[{} vertices]", self.vertices.len())
    }
}

/// Sign changes round the cyclic sequence `values`, skipping values within
/// [`EPS`] of zero.
fn sign_changes(values: impl Iterator<Item = f64>) -> usize {
    let (mut first, mut last) = (None, None);
    let mut changes = 0;
    for positive in values.filter(|v| v.abs() > EPS).map(|v| v > 0.0) {
        if last.is_some_and(|l| l != positive) {
            changes += 1;
        }
        first.get_or_insert(positive);
        last = Some(positive);
    }
    if first.is_some() && first != last {
        changes += 1;
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::Vector;

    fn square() -> Polygon {
        Polygon::rectangle(Point::new(0.0, 0.0), Point::new(4.0, 4.0))
    }

    #[test]
    fn area_and_winding() {
        let sq = square();
        assert_eq!(sq.area(), 16.0);
        assert!(sq.is_ccw());
        let cw = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 4.0),
            Point::new(4.0, 4.0),
            Point::new(4.0, 0.0),
        ]);
        assert!(!cw.is_ccw());
        assert!(cw.ccw().is_ccw());
        assert_eq!(cw.area(), 16.0);
    }

    #[test]
    fn containment_interior_boundary_exterior() {
        let sq = square();
        assert!(sq.contains(Point::new(2.0, 2.0)));
        assert!(sq.contains(Point::new(0.0, 2.0))); // on edge
        assert!(sq.contains(Point::new(4.0, 4.0))); // on vertex
        assert!(!sq.contains(Point::new(4.1, 2.0)));
    }

    #[test]
    fn ray_cast_through_vertex_is_robust() {
        // A diamond whose vertices are axis-aligned with the query point.
        let d = Polygon::new(vec![
            Point::new(0.0, 2.0),
            Point::new(2.0, 0.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 4.0),
        ]);
        assert!(d.contains(Point::new(2.0, 2.0)));
        assert!(!d.contains(Point::new(-1.0, 2.0)));
        assert!(!d.contains(Point::new(5.0, 2.0)));
    }

    #[test]
    fn concave_polygon_containment() {
        // A "C" shape.
        let c = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(4.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 3.0),
            Point::new(4.0, 3.0),
            Point::new(4.0, 4.0),
            Point::new(0.0, 4.0),
        ]);
        assert!(c.contains(Point::new(0.5, 2.0)));
        assert!(!c.contains(Point::new(2.5, 2.0))); // inside the notch
        assert!(!c.is_convex());
    }

    #[test]
    fn segment_intersection_with_border() {
        let sq = square();
        let crossing = Segment::new(Point::new(-1.0, 2.0), Point::new(5.0, 2.0));
        assert!(sq.intersects_segment(&crossing));
        let outside = Segment::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        assert!(!sq.intersects_segment(&outside));
        // Fully interior segment does not cross the border...
        let interior = Segment::new(Point::new(1.0, 1.0), Point::new(3.0, 3.0));
        assert!(!sq.intersects_segment(&interior));
        // ...but region distance sees it as inside.
        assert_eq!(sq.distance_to_segment(&interior), 0.0);
    }

    #[test]
    fn distance_to_segment_outside() {
        let sq = square();
        let s = Segment::new(Point::new(6.0, 0.0), Point::new(6.0, 4.0));
        assert_eq!(sq.distance_to_segment(&s), 2.0);
    }

    #[test]
    fn convexity() {
        assert!(square().is_convex());
        assert!(Polygon::regular(Point::ORIGIN, 2.0, 8, 0.0).is_convex());
        // A pentagram turns the same way at every vertex but winds twice.
        let star = Polygon::new(
            (0..5)
                .map(|i| {
                    let t = (i * 2) as f64 * std::f64::consts::TAU / 5.0;
                    Point::new(t.cos(), t.sin())
                })
                .collect(),
        );
        assert!(!star.is_convex());
    }

    #[test]
    fn regular_polygon_geometry() {
        let hex = Polygon::regular(Point::new(1.0, 1.0), 2.0, 6, 0.0);
        assert_eq!(hex.len(), 6);
        for v in hex.vertices() {
            assert!((v.distance(Point::new(1.0, 1.0)) - 2.0).abs() < 1e-12);
        }
        assert!(hex.contains(Point::new(1.0, 1.0)));
    }

    #[test]
    fn translate_moves_bbox() {
        let sq = square().translated(Vector::new(10.0, 0.0));
        assert_eq!(sq.bbox().min, Point::new(10.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn too_few_vertices_panics() {
        let _ = Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
    }

    #[test]
    fn clip_above_keeps_upper_part() {
        let sq = square(); // [0,4]²
        let clipped = sq.clipped_above(2.0).unwrap();
        assert!((clipped.area() - 8.0).abs() < 1e-9);
        assert!(clipped.vertices().iter().all(|p| p.y >= 2.0 - 1e-9));
        // Fully above: unchanged area.
        let same = sq.clipped_above(-1.0).unwrap();
        assert!((same.area() - 16.0).abs() < 1e-9);
        // Fully below: gone.
        assert!(sq.clipped_above(5.0).is_none());
        // Degenerate sliver: gone.
        assert!(sq.clipped_above(4.0 - 1e-12).is_none());
    }

    #[test]
    fn clip_above_concave() {
        // A "U" straddling the line: clipping yields the two prongs joined
        // along the line (single ring in Sutherland–Hodgman output).
        let u = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(6.0, 4.0),
            Point::new(4.0, 4.0),
            Point::new(4.0, 1.0),
            Point::new(2.0, 1.0),
            Point::new(2.0, 4.0),
            Point::new(0.0, 4.0),
        ]);
        let clipped = u.clipped_above(2.0).unwrap();
        // Upper area: two 2×2 prongs = 8.
        assert!((clipped.area() - 8.0).abs() < 1e-9);
        assert!(clipped.vertices().iter().all(|p| p.y >= 2.0 - 1e-9));
    }

    #[test]
    fn offset_convex_square() {
        let sq = square(); // [0,4]²
        let grown = sq.offset_convex(1.0);
        assert!((grown.area() - 36.0).abs() < 1e-9);
        let bb = grown.bbox();
        assert!(bb.min.approx_eq(Point::new(-1.0, -1.0)));
        assert!(bb.max.approx_eq(Point::new(5.0, 5.0)));
        // Zero offset is identity.
        assert_eq!(sq.offset_convex(0.0), sq);
    }

    #[test]
    fn offset_convex_octagon_keeps_distance() {
        let oct = Polygon::regular(Point::new(2.0, 3.0), 2.0, 8, 0.1);
        let grown = oct.offset_convex(0.5);
        // Every original edge is 0.5 inside the grown polygon border.
        for e in oct.edges() {
            let mid = e.midpoint();
            let border = grown
                .edges()
                .map(|g| g.distance_to_point(mid))
                .fold(f64::INFINITY, f64::min);
            assert!((border - 0.5).abs() < 1e-9);
        }
        assert!(grown.is_convex());
    }

    #[test]
    fn offset_convex_cw_input_normalized() {
        let cw = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(0.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 0.0),
        ]);
        let grown = cw.offset_convex(1.0);
        assert!((grown.area() - 16.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn offset_negative_panics() {
        let _ = square().offset_convex(-1.0);
    }

    #[test]
    fn clip_above_triangle_tip() {
        let tri = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(2.0, 4.0),
        ]);
        let tip = tri.clipped_above(2.0).unwrap();
        assert!((tip.area() - 2.0).abs() < 1e-9);
    }
}
