//! Typed input validation: reject malformed boards *before* they reach the
//! router.
//!
//! The routing engine trusts its inputs — a NaN coordinate poisons every
//! distance comparison it touches, an empty matching group panics target
//! resolution, a degenerate obstacle polygon breaks the shrink sweep's
//! edge math. In a serving system those inputs arrive from the outside
//! world, so the contract is: **bad boards are rejected, never routed.**
//! [`validate_board`] / [`validate_library`] walk every entity and return a
//! structured [`ValidationError`] carrying the offending entity's
//! provenance ([`Entity`]) instead of a panic deep inside a kernel.
//!
//! The fleet engine (`crates/fleet`) runs this pass up front and maps a
//! failure to `BoardOutcome::Rejected`, leaving the board untouched; the
//! text loader ([`crate::io::load_board`]) runs it after parsing so a file
//! that *parses* but encodes garbage geometry still comes back as a typed
//! error. Validation never mutates and accepts every board the generators
//! in [`crate::gen`] produce (property-tested in the fleet chaos suite).

use crate::board::Board;
use crate::group::TargetLength;
use crate::library::{LibraryBoard, ObstacleLibrary};
use meander_drc::{DesignRules, RulesError};
use meander_geom::{Point, Polygon, Rect};
use std::collections::HashMap;
use std::fmt;

/// Which entity of a board (or library) a [`ValidationError`] points at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entity {
    /// The board outline rectangle.
    Outline,
    /// Trace by id.
    Trace(u32),
    /// Board-local obstacle by index in declaration order.
    Obstacle(usize),
    /// Shared-library obstacle by index in library order.
    LibraryObstacle(usize),
    /// Routable-area polygon `polygon` of trace `trace`.
    Area {
        /// Owning trace id.
        trace: u32,
        /// Polygon index within the area.
        polygon: usize,
    },
}

impl fmt::Display for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Entity::Outline => write!(f, "outline"),
            Entity::Trace(id) => write!(f, "trace {id}"),
            Entity::Obstacle(i) => write!(f, "obstacle {i}"),
            Entity::LibraryObstacle(i) => write!(f, "library obstacle {i}"),
            Entity::Area { trace, polygon } => {
                write!(f, "area polygon {polygon} of trace {trace}")
            }
        }
    }
}

/// A board (or library) failed validation. Every variant carries enough
/// provenance to point the submitter at the offending entity.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A coordinate is NaN or infinite.
    NonFiniteCoordinate {
        /// The entity holding the coordinate.
        entity: Entity,
        /// Point/vertex index within the entity.
        index: usize,
        /// The offending point.
        point: Point,
    },
    /// The outline rectangle has `min > max` on an axis (constructed
    /// directly rather than through the normalizing [`meander_geom::Rect::new`]).
    InvertedOutline {
        /// Stored min corner.
        min: Point,
        /// Stored max corner.
        max: Point,
    },
    /// A polygon has (numerically) zero area — all vertices collinear or
    /// coincident — and cannot act as an obstacle or routable region.
    DegeneratePolygon {
        /// The entity holding the polygon.
        entity: Entity,
        /// Vertex count of the degenerate polygon.
        vertices: usize,
    },
    /// A trace centerline has zero total length.
    ZeroLengthTrace {
        /// Trace id.
        trace: u32,
    },
    /// A trace's design rules are rejected by [`DesignRules::new`]
    /// (non-finite or negative distances, non-positive width).
    BadRules {
        /// Trace id.
        trace: u32,
        /// The underlying rules error.
        error: RulesError,
    },
    /// A matching group has no members (target resolution is undefined).
    EmptyGroup {
        /// Group name.
        group: String,
    },
    /// A matching group references a trace id the board does not hold.
    UnknownGroupMember {
        /// Group name.
        group: String,
        /// The dangling member id.
        member: u32,
    },
    /// A group's explicit target length is non-finite or non-positive.
    BadTarget {
        /// Group name.
        group: String,
        /// The offending target value.
        value: f64,
    },
    /// A group's tolerance is non-finite or negative.
    BadTolerance {
        /// Group name.
        group: String,
        /// The offending tolerance.
        value: f64,
    },
    /// A differential pair references a trace id the board does not hold.
    UnknownPairTrace {
        /// Pair name.
        pair: String,
        /// The dangling trace id.
        member: u32,
    },
    /// A differential pair couples a trace with itself.
    SelfCoupledPair {
        /// Pair name.
        pair: String,
    },
    /// A differential pair's separation is non-finite or non-positive.
    BadSeparation {
        /// Pair name.
        pair: String,
        /// The offending separation.
        value: f64,
    },
    /// A trace belongs to more than one matching group. Groups route from
    /// snapshots of their members, so the later group's write-back would
    /// silently overwrite the earlier group's match.
    OverlappingGroups {
        /// The shared trace id.
        trace: u32,
        /// The first group (declaration order) holding it.
        first: String,
        /// The later group that holds it too.
        second: String,
    },
    /// A trace, obstacle, or routable-area vertex lies outside the board
    /// outline grown by a rules-derived margin: the widest
    /// `gap + obstacle + width` band of any trace's rules.
    /// Index structures size their lattices by the geometry's extent, so
    /// one far-flung vertex would otherwise make them allocate without
    /// bound — an abort, not a recoverable panic.
    OutsideOutline {
        /// The entity holding the vertex.
        entity: Entity,
        /// Point/vertex index within the entity.
        index: usize,
        /// The offending point.
        point: Point,
    },
    /// A fault-injection trip (fleet `fault` feature): the board was
    /// artificially rejected by a seeded
    /// `FaultPlan` to exercise the rejection path end to end.
    Injected {
        /// Why the trip fired.
        reason: String,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::NonFiniteCoordinate {
                entity,
                index,
                point,
            } => write!(
                f,
                "{entity}: point {index} has non-finite coordinate ({}, {})",
                point.x, point.y
            ),
            ValidationError::InvertedOutline { min, max } => write!(
                f,
                "outline inverted: min ({}, {}) exceeds max ({}, {})",
                min.x, min.y, max.x, max.y
            ),
            ValidationError::DegeneratePolygon { entity, vertices } => {
                write!(
                    f,
                    "{entity}: degenerate polygon ({vertices} vertices, zero area)"
                )
            }
            ValidationError::ZeroLengthTrace { trace } => {
                write!(f, "trace {trace}: centerline has zero length")
            }
            ValidationError::BadRules { trace, error } => {
                write!(f, "trace {trace}: {error}")
            }
            ValidationError::EmptyGroup { group } => {
                write!(f, "group `{group}` has no members")
            }
            ValidationError::UnknownGroupMember { group, member } => {
                write!(f, "group `{group}` references unknown trace {member}")
            }
            ValidationError::BadTarget { group, value } => {
                write!(
                    f,
                    "group `{group}`: target {value} must be finite and positive"
                )
            }
            ValidationError::BadTolerance { group, value } => {
                write!(
                    f,
                    "group `{group}`: tolerance {value} must be finite and non-negative"
                )
            }
            ValidationError::UnknownPairTrace { pair, member } => {
                write!(f, "pair `{pair}` references unknown trace {member}")
            }
            ValidationError::SelfCoupledPair { pair } => {
                write!(f, "pair `{pair}` couples a trace with itself")
            }
            ValidationError::BadSeparation { pair, value } => {
                write!(
                    f,
                    "pair `{pair}`: separation {value} must be finite and positive"
                )
            }
            ValidationError::OverlappingGroups {
                trace,
                first,
                second,
            } => write!(
                f,
                "trace {trace} belongs to both group `{first}` and group `{second}`"
            ),
            ValidationError::OutsideOutline {
                entity,
                index,
                point,
            } => write!(
                f,
                "{entity}: point {index} ({}, {}) lies outside the board outline",
                point.x, point.y
            ),
            ValidationError::Injected { reason } => write!(f, "injected fault: {reason}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Area below which a polygon counts as degenerate (collinear/coincident
/// vertices). Deliberately tiny: real obstacles are orders of magnitude
/// larger, and shoelace round-off on legitimate polygons stays far above
/// this.
const MIN_POLYGON_AREA: f64 = 1e-12;

fn check_points(entity: Entity, points: &[Point]) -> Result<(), ValidationError> {
    for (index, p) in points.iter().enumerate() {
        if !p.x.is_finite() || !p.y.is_finite() {
            return Err(ValidationError::NonFiniteCoordinate {
                entity,
                index,
                point: *p,
            });
        }
    }
    Ok(())
}

fn check_polygon(entity: Entity, polygon: &Polygon) -> Result<(), ValidationError> {
    check_points(entity, polygon.vertices())?;
    if polygon.area() < MIN_POLYGON_AREA {
        return Err(ValidationError::DegeneratePolygon {
            entity,
            vertices: polygon.len(),
        });
    }
    Ok(())
}

/// How far outside the outline board geometry may reach: the widest
/// clearance band any trace's rules demand (`gap + obstacle + width`), so
/// an obstacle or area edge that hugs the outline within one band still
/// passes. Only meaningful once every trace's rules have been checked.
fn outline_margin(board: &Board) -> f64 {
    board
        .traces()
        .map(|(_, t)| {
            let r = t.rules();
            r.gap + r.obstacle + r.width
        })
        .fold(0.0, f64::max)
}

/// Rejects the first of `points` outside `bounds`.
fn check_inside(entity: Entity, points: &[Point], bounds: &Rect) -> Result<(), ValidationError> {
    match points.iter().position(|&p| !bounds.contains(p)) {
        Some(index) => Err(ValidationError::OutsideOutline {
            entity,
            index,
            point: points[index],
        }),
        None => Ok(()),
    }
}

fn check_rules(trace: u32, rules: &DesignRules) -> Result<(), ValidationError> {
    DesignRules::new(
        rules.gap,
        rules.obstacle,
        rules.protect,
        rules.miter,
        rules.width,
    )
    .map(|_| ())
    .map_err(|error| ValidationError::BadRules { trace, error })
}

/// Validates every entity of `board`, returning the first error in a
/// deterministic walk order (outline, traces, obstacles, areas, outline
/// containment, groups, pairs). Every trace may belong to at most one
/// group — the invariant the fleet's bit-identity to sequential routing
/// rests on. When the board has an outline, every trace, obstacle, and
/// routable-area vertex must lie inside it, grown by the widest
/// `gap + obstacle + width` band of any trace's rules.
///
/// # Errors
///
/// Returns the first [`ValidationError`] encountered; `Ok(())` means the
/// board is safe to hand to the router.
pub fn validate_board(board: &Board) -> Result<(), ValidationError> {
    if let Some(o) = board.outline() {
        check_points(Entity::Outline, &[o.min, o.max])?;
        if o.min.x > o.max.x || o.min.y > o.max.y {
            return Err(ValidationError::InvertedOutline {
                min: o.min,
                max: o.max,
            });
        }
    }
    for (id, trace) in board.traces() {
        check_points(Entity::Trace(id.0), trace.centerline().points())?;
        if trace.length() <= 0.0 {
            return Err(ValidationError::ZeroLengthTrace { trace: id.0 });
        }
        check_rules(id.0, trace.rules())?;
    }
    for (i, o) in board.obstacles().iter().enumerate() {
        check_polygon(Entity::Obstacle(i), o.polygon())?;
    }
    for (id, _) in board.traces() {
        if let Some(area) = board.area(id) {
            for (pi, poly) in area.polygons().iter().enumerate() {
                check_polygon(
                    Entity::Area {
                        trace: id.0,
                        polygon: pi,
                    },
                    poly,
                )?;
            }
        }
    }
    if let Some(o) = board.outline() {
        let bounds = o.expanded(outline_margin(board));
        for (id, trace) in board.traces() {
            check_inside(Entity::Trace(id.0), trace.centerline().points(), &bounds)?;
        }
        for (i, o) in board.obstacles().iter().enumerate() {
            check_inside(Entity::Obstacle(i), o.polygon().vertices(), &bounds)?;
        }
        for (id, _) in board.traces() {
            let Some(area) = board.area(id) else {
                continue;
            };
            for (pi, poly) in area.polygons().iter().enumerate() {
                let entity = Entity::Area {
                    trace: id.0,
                    polygon: pi,
                };
                check_inside(entity, poly.vertices(), &bounds)?;
            }
        }
    }
    for g in board.groups() {
        if g.members().is_empty() {
            return Err(ValidationError::EmptyGroup {
                group: g.name().to_string(),
            });
        }
        for &m in g.members() {
            if board.trace(m).is_none() {
                return Err(ValidationError::UnknownGroupMember {
                    group: g.name().to_string(),
                    member: m.0,
                });
            }
        }
        if let TargetLength::Explicit(t) = g.target() {
            if !t.is_finite() || t <= 0.0 {
                return Err(ValidationError::BadTarget {
                    group: g.name().to_string(),
                    value: t,
                });
            }
        }
        if !g.tolerance().is_finite() || g.tolerance() < 0.0 {
            return Err(ValidationError::BadTolerance {
                group: g.name().to_string(),
                value: g.tolerance(),
            });
        }
    }
    // Trace id → index of the first group holding it.
    let mut owner: HashMap<u32, usize> = HashMap::new();
    for (gi, g) in board.groups().iter().enumerate() {
        for &m in g.members() {
            let first = *owner.entry(m.0).or_insert(gi);
            if first != gi {
                return Err(ValidationError::OverlappingGroups {
                    trace: m.0,
                    first: board.groups()[first].name().to_string(),
                    second: g.name().to_string(),
                });
            }
        }
    }
    for p in board.pairs() {
        for id in [p.p(), p.n()] {
            if board.trace(id).is_none() {
                return Err(ValidationError::UnknownPairTrace {
                    pair: p.name().to_string(),
                    member: id.0,
                });
            }
        }
        if p.p() == p.n() {
            return Err(ValidationError::SelfCoupledPair {
                pair: p.name().to_string(),
            });
        }
        if !p.sep().is_finite() || p.sep() <= 0.0 {
            return Err(ValidationError::BadSeparation {
                pair: p.name().to_string(),
                value: p.sep(),
            });
        }
    }
    Ok(())
}

/// Validates a shared obstacle library: every polygon must have finite
/// vertices and positive area.
///
/// # Errors
///
/// Returns the first [`ValidationError`], with
/// [`Entity::LibraryObstacle`] provenance.
pub fn validate_library(library: &ObstacleLibrary) -> Result<(), ValidationError> {
    for (i, o) in library.obstacles().iter().enumerate() {
        check_polygon(Entity::LibraryObstacle(i), o.polygon())?;
    }
    Ok(())
}

/// Validates a library-referencing board: the library first, then the
/// board-local part.
///
/// # Errors
///
/// Returns the first [`ValidationError`] from either half.
pub fn validate_library_board(board: &LibraryBoard) -> Result<(), ValidationError> {
    validate_library(board.library())?;
    validate_board(board.board())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::MatchGroup;
    use crate::obstacle::Obstacle;
    use crate::trace::{Trace, TraceId};
    use crate::DiffPair;
    use meander_geom::Polyline;

    fn clean_board() -> Board {
        let mut b = Board::new(Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 50.0)));
        let id = b.add_trace(Trace::new(
            "T",
            Polyline::new(vec![Point::new(0.0, 25.0), Point::new(100.0, 25.0)]),
            4.0,
        ));
        b.add_obstacle(Obstacle::keepout(
            Point::new(40.0, 40.0),
            Point::new(50.0, 45.0),
        ));
        b.add_group(MatchGroup::with_target("g", vec![id], 150.0));
        b
    }

    #[test]
    fn clean_board_passes() {
        assert_eq!(validate_board(&clean_board()), Ok(()));
    }

    #[test]
    fn generated_cases_pass() {
        for case_no in 1..=5 {
            let case = crate::gen::table1_case(case_no);
            assert_eq!(validate_board(&case.board), Ok(()), "table1 case {case_no}");
        }
        let fleet = crate::gen::fleet_boards_small(4, 3, 7);
        for (b, lb) in fleet.boards.iter().enumerate() {
            assert_eq!(validate_library_board(lb), Ok(()), "fleet board {b}");
        }
    }

    #[test]
    fn nan_coordinate_rejected_with_provenance() {
        let mut b = clean_board();
        b.trace_mut(TraceId(0))
            .unwrap()
            .set_centerline(Polyline::new(vec![
                Point::new(0.0, 25.0),
                Point::new(f64::NAN, 25.0),
            ]));
        match validate_board(&b) {
            Err(ValidationError::NonFiniteCoordinate { entity, index, .. }) => {
                assert_eq!(entity, Entity::Trace(0));
                assert_eq!(index, 1);
            }
            other => panic!("expected NonFiniteCoordinate, got {other:?}"),
        }
    }

    #[test]
    fn inverted_outline_rejected() {
        let mut r = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        r.max.x = -5.0; // bypass the normalizing constructor
        let b = Board::new(r);
        assert!(matches!(
            validate_board(&b),
            Err(ValidationError::InvertedOutline { .. })
        ));
    }

    #[test]
    fn degenerate_polygon_rejected() {
        let mut b = clean_board();
        b.add_obstacle(Obstacle::new(
            Polygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(1.0, 1.0),
                Point::new(2.0, 2.0),
            ]),
            crate::obstacle::ObstacleKind::Keepout,
        ));
        match validate_board(&b) {
            Err(ValidationError::DegeneratePolygon { entity, vertices }) => {
                assert_eq!(entity, Entity::Obstacle(1));
                assert_eq!(vertices, 3);
            }
            other => panic!("expected DegeneratePolygon, got {other:?}"),
        }
    }

    #[test]
    fn geometry_outside_outline_rejected() {
        // Within the rules-derived margin passes; beyond it is rejected
        // with the vertex's provenance.
        let margin = outline_margin(&clean_board());
        assert!(margin > 0.0);
        let mut b = clean_board();
        b.add_obstacle(Obstacle::keepout(
            Point::new(100.0, 50.0),
            Point::new(100.0 + margin * 0.5, 50.0 + margin * 0.5),
        ));
        assert_eq!(validate_board(&b), Ok(()));
        let mut b = clean_board();
        b.add_obstacle(Obstacle::keepout(
            Point::new(100.0, 10.0),
            Point::new(100.0 + margin * 2.0, 20.0),
        ));
        match validate_board(&b) {
            Err(ValidationError::OutsideOutline { entity, point, .. }) => {
                assert_eq!(entity, Entity::Obstacle(1));
                assert!(point.x > 100.0 + margin);
            }
            other => panic!("expected OutsideOutline, got {other:?}"),
        }
        let mut b = clean_board();
        b.trace_mut(TraceId(0))
            .unwrap()
            .set_centerline(Polyline::new(vec![
                Point::new(0.0, 25.0),
                Point::new(1e8, 25.0),
            ]));
        assert!(matches!(
            validate_board(&b),
            Err(ValidationError::OutsideOutline {
                entity: Entity::Trace(0),
                index: 1,
                ..
            })
        ));
    }

    #[test]
    fn empty_and_dangling_groups_rejected() {
        let mut b = clean_board();
        b.add_group(MatchGroup::new("empty", vec![]));
        assert!(matches!(
            validate_board(&b),
            Err(ValidationError::EmptyGroup { .. })
        ));
        let mut b = clean_board();
        b.add_group(MatchGroup::new("dangling", vec![TraceId(99)]));
        assert!(matches!(
            validate_board(&b),
            Err(ValidationError::UnknownGroupMember { member: 99, .. })
        ));
        let mut b = clean_board();
        b.add_group(MatchGroup::with_target("again", vec![TraceId(0)], 150.0));
        assert!(matches!(
            validate_board(&b),
            Err(ValidationError::OverlappingGroups { trace: 0, .. })
        ));
    }

    #[test]
    fn bad_rules_and_targets_rejected() {
        let mut b = clean_board();
        let bad = meander_drc::DesignRules {
            gap: f64::NAN,
            ..*b.trace(TraceId(0)).unwrap().rules()
        };
        b.trace_mut(TraceId(0)).unwrap().set_rules(bad);
        assert!(matches!(
            validate_board(&b),
            Err(ValidationError::BadRules { trace: 0, .. })
        ));
        let mut b = clean_board();
        b.add_group(MatchGroup::with_target("neg", vec![TraceId(0)], -3.0));
        assert!(matches!(
            validate_board(&b),
            Err(ValidationError::BadTarget { .. })
        ));
    }

    #[test]
    fn pair_checks() {
        // Self-coupling and non-positive separation are unrepresentable
        // through `DiffPair::new` (constructor asserts), so the reachable
        // pair failure is a dangling trace reference.
        let mut b = clean_board();
        b.add_pair(DiffPair::new("P", TraceId(0), TraceId(44), 6.0));
        assert!(matches!(
            validate_board(&b),
            Err(ValidationError::UnknownPairTrace { member: 44, .. })
        ));
    }

    #[test]
    fn library_provenance() {
        let lib = ObstacleLibrary::new(vec![
            Obstacle::via(Point::new(5.0, 5.0), 1.0),
            Obstacle::new(
                Polygon::new(vec![
                    Point::new(0.0, 0.0),
                    Point::new(f64::INFINITY, 0.0),
                    Point::new(1.0, 1.0),
                ]),
                crate::obstacle::ObstacleKind::Via,
            ),
        ]);
        match validate_library(&lib) {
            Err(ValidationError::NonFiniteCoordinate { entity, .. }) => {
                assert_eq!(entity, Entity::LibraryObstacle(1));
            }
            other => panic!("expected NonFiniteCoordinate, got {other:?}"),
        }
    }

    #[test]
    fn errors_display() {
        let e = ValidationError::UnknownGroupMember {
            group: "g".into(),
            member: 7,
        };
        assert!(format!("{e}").contains("unknown trace 7"));
        let e = ValidationError::DegeneratePolygon {
            entity: Entity::Area {
                trace: 2,
                polygon: 1,
            },
            vertices: 4,
        };
        assert!(format!("{e}").contains("area polygon 1 of trace 2"));
        let e = ValidationError::OverlappingGroups {
            trace: 0,
            first: "g".into(),
            second: "again".into(),
        };
        assert_eq!(
            e.to_string(),
            "trace 0 belongs to both group `g` and group `again`"
        );
    }
}
