//! Obstacles: polygons traces cannot pass.

use meander_geom::{Point, Polygon};
use std::fmt;

/// What an obstacle models (affects rendering only; clearance rules treat
/// all kinds alike).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObstacleKind {
    /// A via barrel/pad.
    Via,
    /// A component body or pad field.
    Component,
    /// An explicit keep-out region.
    Keepout,
}

impl fmt::Display for ObstacleKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ObstacleKind::Via => "via",
            ObstacleKind::Component => "component",
            ObstacleKind::Keepout => "keepout",
        };
        f.write_str(s)
    }
}

/// "Obstacle: a polygon that the trace cannot pass, converted into a part of
/// the routable area in this paper" (Sec. II). The router folds obstacle
/// borders into the polygon set the URA shrinking checks against.
#[derive(Debug, Clone)]
pub struct Obstacle {
    polygon: Polygon,
    kind: ObstacleKind,
}

impl Obstacle {
    /// Creates an obstacle from a polygon.
    pub fn new(polygon: Polygon, kind: ObstacleKind) -> Self {
        Obstacle { polygon, kind }
    }

    /// Octagonal via obstacle centered at `c` with circumradius `r` — the
    /// shape the Table II "dummy design with narrow space between dense
    /// vias" is built from.
    pub fn via(c: Point, r: f64) -> Self {
        Obstacle {
            polygon: Polygon::regular(c, r, 8, std::f64::consts::FRAC_PI_8),
            kind: ObstacleKind::Via,
        }
    }

    /// Rectangular keep-out.
    pub(crate) fn keepout(a: Point, b: Point) -> Self {
        Obstacle {
            polygon: Polygon::rectangle(a, b),
            kind: ObstacleKind::Keepout,
        }
    }

    /// The obstacle outline.
    #[inline]
    pub fn polygon(&self) -> &Polygon {
        &self.polygon
    }

    /// The obstacle translated by `v` (kind preserved) — the geometry of a
    /// "move" edit.
    pub fn translated(&self, v: meander_geom::Vector) -> Obstacle {
        Obstacle {
            polygon: self.polygon.translated(v),
            kind: self.kind,
        }
    }

    /// The obstacle kind.
    #[inline]
    pub(crate) fn kind(&self) -> ObstacleKind {
        self.kind
    }
}

impl fmt::Display for Obstacle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} vertices)", self.kind, self.polygon.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn via_is_octagon() {
        let v = Obstacle::via(Point::new(5.0, 5.0), 2.0);
        assert_eq!(v.polygon().len(), 8);
        assert_eq!(v.kind(), ObstacleKind::Via);
        assert!(v.polygon().contains(Point::new(5.0, 5.0)));
    }

    #[test]
    fn keepout_is_rectangle() {
        let k = Obstacle::keepout(Point::new(0.0, 0.0), Point::new(4.0, 2.0));
        assert_eq!(k.polygon().len(), 4);
        assert_eq!(k.kind(), ObstacleKind::Keepout);
        assert_eq!(k.polygon().area(), 8.0);
    }

    #[test]
    fn display_mentions_kind() {
        let v = Obstacle::via(Point::ORIGIN, 1.0);
        assert!(format!("{v}").contains("via"));
    }
}
