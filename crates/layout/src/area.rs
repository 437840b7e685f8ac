//! Routable areas.

use meander_geom::{Point, Polygon, Segment};

/// The space assigned to one trace for meandering.
///
/// "Routable area: the union of non-overlapping routing regions assigned to
/// a trace, represented as some irregular polygons" (paper Sec. II). The
/// union is kept as a *list* of polygons — a pattern must fit inside one of
/// them (multiple DRAs "will be separated into independent rouTable areas
/// and handled independently", Sec. IV-B).
#[derive(Debug, Clone, Default)]
pub struct RoutableArea {
    polygons: Vec<Polygon>,
}

impl RoutableArea {
    /// Area consisting of a single polygon.
    pub fn from_polygon(p: Polygon) -> Self {
        RoutableArea { polygons: vec![p] }
    }

    /// Area from several polygons.
    pub(crate) fn from_polygons(polygons: Vec<Polygon>) -> Self {
        RoutableArea { polygons }
    }

    /// Corridor area: a rectangle of `half_width` on each side of an
    /// axis-aligned bounding box around `spine`, the common shape handed to
    /// bus traces.
    pub(crate) fn corridor(spine: &Segment, half_width: f64) -> Self {
        // Build in the spine's local frame so any-direction corridors work.
        let frame = meander_geom::Frame::from_segment(spine)
            .expect("corridor spine must be non-degenerate");
        let len = spine.length();
        let local = Polygon::rectangle(Point::new(0.0, -half_width), Point::new(len, half_width));
        RoutableArea {
            polygons: vec![frame.polygon_to_world(&local)],
        }
    }

    /// The polygons forming the area.
    #[inline]
    pub fn polygons(&self) -> &[Polygon] {
        &self.polygons
    }

    /// Adds a polygon to the union.
    pub fn push(&mut self, p: Polygon) {
        self.polygons.push(p);
    }

    /// `true` when `p` lies inside some polygon of the area.
    pub fn contains(&self, p: Point) -> bool {
        self.polygons.iter().any(|poly| poly.contains(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_area() {
        let a = RoutableArea::default();
        assert!(a.polygons().is_empty());
        assert!(!a.contains(Point::ORIGIN));
    }

    #[test]
    fn union_membership() {
        let mut a = RoutableArea::from_polygon(Polygon::rectangle(
            Point::new(0.0, 0.0),
            Point::new(10.0, 10.0),
        ));
        a.push(Polygon::rectangle(
            Point::new(20.0, 0.0),
            Point::new(30.0, 10.0),
        ));
        assert!(a.contains(Point::new(5.0, 5.0)));
        assert!(a.contains(Point::new(25.0, 5.0)));
        assert!(!a.contains(Point::new(15.0, 5.0)));
        assert_eq!(a.polygons().len(), 2);
    }

    #[test]
    fn corridor_any_direction() {
        // A 45° corridor must contain points beside the spine.
        let spine = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let a = RoutableArea::corridor(&spine, 2.0);
        assert!(a.contains(Point::new(5.0, 5.0)));
        // 1.0 perpendicular off the spine: inside (|offset| < 2).
        assert!(a.contains(Point::new(4.0, 6.0)));
        // 3·√2/... clearly beyond the half width: outside.
        assert!(!a.contains(Point::new(2.0, 8.0)));
        assert!((a.polygons()[0].area() - spine.length() * 4.0).abs() < 1e-9);
    }
}
