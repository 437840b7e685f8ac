//! Design Rule Areas.

use crate::rules::DesignRules;
use meander_geom::{Point, Polygon, Segment};

/// A region of the board with its own design-rule values.
///
/// "A trace usually passes different Design Rule Areas (DRA), demanding the
/// length matching approaches to consider multiple Design Rules Checking"
/// (paper Sec. I-B). The meandering engine handles each DRA independently
/// ("Multiple DRAs will be separated into independent rouTable areas and
/// handled independently", Sec. IV-B), and MSDTW's multi-scale pass exists
/// to cope with pair-distance rules that differ per DRA.
///
/// ```
/// use meander_drc::{DesignRuleArea, DesignRules};
/// use meander_geom::{Point, Polygon};
///
/// let dra = DesignRuleArea::new(
///     1,
///     Polygon::rectangle(Point::new(0.0, 0.0), Point::new(100.0, 50.0)),
///     DesignRules::default(),
/// );
/// assert!(dra.contains(Point::new(10.0, 10.0)));
/// ```
#[derive(Debug, Clone)]
pub struct DesignRuleArea {
    id: u32,
    region: Polygon,
    rules: DesignRules,
}

impl DesignRuleArea {
    /// Creates a rule area over `region`.
    pub fn new(id: u32, region: Polygon, rules: DesignRules) -> Self {
        DesignRuleArea { id, region, rules }
    }

    /// The area id.
    #[inline]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The covered region.
    #[inline]
    pub fn region(&self) -> &Polygon {
        &self.region
    }

    /// The rules in force inside the region.
    #[inline]
    pub fn rules(&self) -> &DesignRules {
        &self.rules
    }

    /// `true` when `p` lies in the area (border inclusive).
    pub fn contains(&self, p: Point) -> bool {
        self.region.contains(p)
    }

    /// `true` when the whole segment lies in the area (both endpoints inside
    /// and no border crossing).
    pub fn contains_segment(&self, seg: &Segment) -> bool {
        self.contains(seg.a)
            && self.contains(seg.b)
            && {
                // A chord of a concave region can exit and re-enter; a midpoint
                // sample plus border-crossing check covers router needs.
                !self.region.intersects_segment(seg)
                    || self.region.on_boundary(seg.a)
                    || self.region.on_boundary(seg.b)
            }
            && self.contains(seg.midpoint())
    }

    /// Area in board units².
    pub(crate) fn area(&self) -> f64 {
        self.region.area()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dra() -> DesignRuleArea {
        DesignRuleArea::new(
            3,
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            DesignRules::default(),
        )
    }

    #[test]
    fn accessors() {
        let d = dra();
        assert_eq!(d.id(), 3);
        assert_eq!(d.area(), 100.0);
        assert_eq!(d.rules().gap, DesignRules::default().gap);
    }

    #[test]
    fn point_containment() {
        let d = dra();
        assert!(d.contains(Point::new(5.0, 5.0)));
        assert!(d.contains(Point::new(0.0, 0.0)));
        assert!(!d.contains(Point::new(-1.0, 5.0)));
    }

    #[test]
    fn segment_containment() {
        let d = dra();
        assert!(d.contains_segment(&Segment::new(Point::new(1.0, 1.0), Point::new(9.0, 9.0))));
        assert!(!d.contains_segment(&Segment::new(Point::new(5.0, 5.0), Point::new(15.0, 5.0))));
    }
}
