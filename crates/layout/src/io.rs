//! Plain-text board persistence.
//!
//! A deliberately simple line-oriented format (one entity per line,
//! whitespace-separated) so boards can be saved, diffed, and reloaded
//! without pulling a serialization dependency into the workspace:
//!
//! ```text
//! board   <minx> <miny> <maxx> <maxy>
//! trace   <name> <gap> <obs> <protect> <miter> <width> <n> <x1> <y1> …
//! obstacle <via|component|keepout> <n> <x1> <y1> …
//! area    <trace-index> <n> <x1> <y1> …
//! group   <name> <explicit-target|auto> <tolerance> <k> <id1> … <idk>
//! pair    <name> <sep> <breakout> <pid> <nid>
//! ```
//!
//! Names must not contain whitespace (enforced on save).

use crate::board::Board;
use crate::diffpair::DiffPair;
use crate::group::{MatchGroup, TargetLength};
use crate::obstacle::{Obstacle, ObstacleKind};
use crate::trace::{Trace, TraceId};
use crate::validate::{validate_board, ValidationError};
use meander_drc::DesignRules;
use meander_geom::{Point, Polygon, Polyline, Rect};
use std::fmt::Write as _;

/// Hard cap on entity counts (points, vertices, members) declared by a
/// single record. The format stores counts inline, so a hostile line like
/// `trace T … 99999999999 …` would otherwise drive a huge preallocation
/// before the truncated point list is even noticed.
const MAX_COUNT: usize = 1 << 20;

/// Error loading or saving a board.
#[derive(Debug, Clone, PartialEq)]
pub enum IoError {
    /// A line could not be parsed; carries line number (1-based) and reason.
    Parse(usize, String),
    /// A name contained whitespace on save.
    InvalidName(String),
    /// The file parsed, but the assembled board failed
    /// [`validate_board`] — e.g. a NaN coordinate
    /// or a group referencing a trace the file never declared.
    Invalid(ValidationError),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Parse(line, why) => write!(f, "line {line}: {why}"),
            IoError::InvalidName(n) => write!(f, "name `{n}` contains whitespace"),
            IoError::Invalid(e) => write!(f, "invalid board: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Serializes a board to the text format.
///
/// # Errors
///
/// Returns [`IoError::InvalidName`] when a trace/group/pair name contains
/// whitespace.
pub fn save_board(board: &Board) -> Result<String, IoError> {
    let mut s = String::new();
    if let Some(o) = board.outline() {
        let _ = writeln!(s, "board {} {} {} {}", o.min.x, o.min.y, o.max.x, o.max.y);
    }
    for (_, t) in board.traces() {
        check_name(t.name())?;
        let r = t.rules();
        let _ = write!(
            s,
            "trace {} {} {} {} {} {} {}",
            t.name(),
            r.gap,
            r.obstacle,
            r.protect,
            r.miter,
            r.width,
            t.centerline().point_count()
        );
        for p in t.centerline().points() {
            let _ = write!(s, " {} {}", p.x, p.y);
        }
        s.push('\n');
    }
    for o in board.obstacles() {
        let kind = match o.kind() {
            ObstacleKind::Via => "via",
            ObstacleKind::Component => "component",
            ObstacleKind::Keepout => "keepout",
        };
        let _ = write!(s, "obstacle {kind} {}", o.polygon().len());
        for p in o.polygon().vertices() {
            let _ = write!(s, " {} {}", p.x, p.y);
        }
        s.push('\n');
    }
    for (id, _) in board.traces() {
        if let Some(area) = board.area(id) {
            for poly in area.polygons() {
                let _ = write!(s, "area {} {}", id.0, poly.len());
                for p in poly.vertices() {
                    let _ = write!(s, " {} {}", p.x, p.y);
                }
                s.push('\n');
            }
        }
    }
    for g in board.groups() {
        check_name(g.name())?;
        let target = match g.target() {
            TargetLength::Explicit(t) => t.to_string(),
            TargetLength::LongestMember => "auto".to_string(),
        };
        let _ = write!(
            s,
            "group {} {} {} {}",
            g.name(),
            target,
            g.tolerance(),
            g.members().len()
        );
        for m in g.members() {
            let _ = write!(s, " {}", m.0);
        }
        s.push('\n');
    }
    for p in board.pairs() {
        check_name(p.name())?;
        let _ = writeln!(
            s,
            "pair {} {} {} {} {}",
            p.name(),
            p.sep(),
            p.breakout_nodes(),
            p.p().0,
            p.n().0
        );
    }
    Ok(s)
}

fn check_name(n: &str) -> Result<(), IoError> {
    if n.chars().any(char::is_whitespace) {
        Err(IoError::InvalidName(n.to_string()))
    } else {
        Ok(())
    }
}

/// Parses a board from the text format.
///
/// Untrusted input is the norm here, so the loader is strict twice over:
/// every record is parsed with typed errors (counts are integers with a
/// `MAX_COUNT` cap, never trusted for preallocation), and the assembled
/// board must pass [`validate_board`] before it is
/// returned — a file that parses but encodes NaN geometry or dangling
/// group members is rejected with [`IoError::Invalid`], not routed.
///
/// # Errors
///
/// Returns [`IoError::Parse`] with the offending line number on malformed
/// input, or [`IoError::Invalid`] when the parsed board fails validation.
pub fn load_board(text: &str) -> Result<Board, IoError> {
    let mut board = Board::default();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let Some(kind) = tok.next() else {
            continue; // unreachable for non-empty trimmed lines; never panic on ingest
        };
        let next_f64 = |tok: &mut std::str::SplitWhitespace<'_>, what: &str| {
            tok.next()
                .ok_or_else(|| IoError::Parse(lineno, format!("missing {what}")))?
                .parse::<f64>()
                .map_err(|_| IoError::Parse(lineno, format!("bad {what}")))
        };
        let next_count = |tok: &mut std::str::SplitWhitespace<'_>, what: &str| {
            let n = tok
                .next()
                .ok_or_else(|| IoError::Parse(lineno, format!("missing {what}")))?
                .parse::<usize>()
                .map_err(|_| IoError::Parse(lineno, format!("bad {what}")))?;
            if n > MAX_COUNT {
                return Err(IoError::Parse(
                    lineno,
                    format!("{what} {n} exceeds limit {MAX_COUNT}"),
                ));
            }
            Ok(n)
        };
        let next_id = |tok: &mut std::str::SplitWhitespace<'_>, what: &str| {
            tok.next()
                .ok_or_else(|| IoError::Parse(lineno, format!("missing {what}")))?
                .parse::<u32>()
                .map_err(|_| IoError::Parse(lineno, format!("bad {what}")))
        };
        match kind {
            "board" => {
                let x0 = next_f64(&mut tok, "minx")?;
                let y0 = next_f64(&mut tok, "miny")?;
                let x1 = next_f64(&mut tok, "maxx")?;
                let y1 = next_f64(&mut tok, "maxy")?;
                board = Board::new(Rect::new(Point::new(x0, y0), Point::new(x1, y1)))
                    .merge_entities(board);
            }
            "trace" => {
                let name = tok
                    .next()
                    .ok_or_else(|| IoError::Parse(lineno, "missing name".into()))?
                    .to_string();
                let gap = next_f64(&mut tok, "gap")?;
                let obstacle = next_f64(&mut tok, "obstacle")?;
                let protect = next_f64(&mut tok, "protect")?;
                let miter = next_f64(&mut tok, "miter")?;
                let width = next_f64(&mut tok, "width")?;
                let n = next_count(&mut tok, "point count")?;
                let mut pts = Vec::with_capacity(n);
                for _ in 0..n {
                    let x = next_f64(&mut tok, "x")?;
                    let y = next_f64(&mut tok, "y")?;
                    pts.push(Point::new(x, y));
                }
                if pts.len() < 2 {
                    return Err(IoError::Parse(lineno, "trace needs ≥ 2 points".into()));
                }
                let rules = DesignRules {
                    gap,
                    obstacle,
                    protect,
                    miter,
                    width,
                };
                board.add_trace(Trace::with_rules(name, Polyline::new(pts), rules));
            }
            "obstacle" => {
                let okind = match tok.next() {
                    Some("via") => ObstacleKind::Via,
                    Some("component") => ObstacleKind::Component,
                    Some("keepout") => ObstacleKind::Keepout,
                    other => {
                        return Err(IoError::Parse(
                            lineno,
                            format!("bad obstacle kind {other:?}"),
                        ))
                    }
                };
                let n = next_count(&mut tok, "vertex count")?;
                let mut pts = Vec::with_capacity(n);
                for _ in 0..n {
                    let x = next_f64(&mut tok, "x")?;
                    let y = next_f64(&mut tok, "y")?;
                    pts.push(Point::new(x, y));
                }
                if pts.len() < 3 {
                    return Err(IoError::Parse(lineno, "polygon needs ≥ 3 vertices".into()));
                }
                board.add_obstacle(Obstacle::new(Polygon::new(pts), okind));
            }
            "area" => {
                let id = next_id(&mut tok, "trace index")?;
                let n = next_count(&mut tok, "vertex count")?;
                let mut pts = Vec::with_capacity(n);
                for _ in 0..n {
                    let x = next_f64(&mut tok, "x")?;
                    let y = next_f64(&mut tok, "y")?;
                    pts.push(Point::new(x, y));
                }
                if pts.len() < 3 {
                    return Err(IoError::Parse(lineno, "polygon needs ≥ 3 vertices".into()));
                }
                let tid = TraceId(id);
                let mut area = board.area(tid).cloned().unwrap_or_default();
                area.push(Polygon::new(pts));
                board.set_area(tid, area);
            }
            "group" => {
                let name = tok
                    .next()
                    .ok_or_else(|| IoError::Parse(lineno, "missing name".into()))?
                    .to_string();
                let target_tok = tok
                    .next()
                    .ok_or_else(|| IoError::Parse(lineno, "missing target".into()))?;
                let tol = next_f64(&mut tok, "tolerance")?;
                let k = next_count(&mut tok, "member count")?;
                let mut members = Vec::with_capacity(k);
                for _ in 0..k {
                    members.push(TraceId(next_id(&mut tok, "member id")?));
                }
                let mut g = if target_tok == "auto" {
                    MatchGroup::new(name, members)
                } else {
                    let t = target_tok
                        .parse::<f64>()
                        .map_err(|_| IoError::Parse(lineno, "bad target".into()))?;
                    MatchGroup::with_target(name, members, t)
                };
                g.set_tolerance(tol);
                board.add_group(g);
            }
            "pair" => {
                let name = tok
                    .next()
                    .ok_or_else(|| IoError::Parse(lineno, "missing name".into()))?
                    .to_string();
                let sep = next_f64(&mut tok, "sep")?;
                let breakout = next_count(&mut tok, "breakout")?;
                let pid = TraceId(next_id(&mut tok, "p id")?);
                let nid = TraceId(next_id(&mut tok, "n id")?);
                let mut pair = DiffPair::new(name, pid, nid, sep);
                pair.set_breakout_nodes(breakout);
                board.add_pair(pair);
            }
            other => {
                return Err(IoError::Parse(lineno, format!("unknown record `{other}`")));
            }
        }
    }
    validate_board(&board).map_err(IoError::Invalid)?;
    Ok(board)
}

impl Board {
    /// Moves all entities of `other` into `self` (used when a `board` record
    /// appears mid-file). Ids are preserved because entity order is kept.
    fn merge_entities(mut self, other: Board) -> Board {
        for (_, t) in other.traces() {
            self.add_trace(t.clone());
        }
        for o in other.obstacles() {
            self.add_obstacle(o.clone());
        }
        for g in other.groups() {
            self.add_group(g.clone());
        }
        for p in other.pairs() {
            self.add_pair(p.clone());
        }
        self
    }
}

/// Saves to, and loads from, a routable-area-less quick format in tests.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{decoupled_pair, table1_case};

    #[test]
    fn round_trip_table1_case() {
        let case = table1_case(1);
        let text = save_board(&case.board).unwrap();
        let loaded = load_board(&text).unwrap();
        assert_eq!(loaded.trace_count(), case.board.trace_count());
        assert_eq!(loaded.obstacles().len(), case.board.obstacles().len());
        assert_eq!(loaded.groups().len(), 1);
        for ((_, a), (_, b)) in loaded.traces().zip(case.board.traces()) {
            assert_eq!(a.name(), b.name());
            assert!((a.length() - b.length()).abs() < 1e-9);
            assert_eq!(a.rules(), b.rules());
        }
        // Areas survive.
        for (id, _) in case.board.traces() {
            assert_eq!(
                loaded.area(id).map(|a| a.polygons().len()),
                case.board.area(id).map(|a| a.polygons().len())
            );
        }
    }

    #[test]
    fn round_trip_pairs() {
        let case = decoupled_pair(false);
        let text = save_board(&case.board).unwrap();
        let loaded = load_board(&text).unwrap();
        assert_eq!(loaded.pairs().len(), 1);
        let p = &loaded.pairs()[0];
        assert_eq!(p.sep(), case.board.pairs()[0].sep());
        assert_eq!(p.p(), case.board.pairs()[0].p());
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            load_board("frobnicate 1 2 3"),
            Err(IoError::Parse(1, _))
        ));
        assert!(matches!(
            load_board("trace A 8 8 8 2 4 2 0 0"),
            Err(IoError::Parse(1, _)) // truncated point list
        ));
        assert!(matches!(
            load_board("obstacle via 2 0 0 1 1"),
            Err(IoError::Parse(1, _)) // degenerate polygon
        ));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let b = load_board("# a comment\n\n").unwrap();
        assert_eq!(b.trace_count(), 0);
    }

    #[test]
    fn whitespace_name_rejected_on_save() {
        let mut b = Board::default();
        b.add_trace(Trace::new(
            "bad name",
            Polyline::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]),
            1.0,
        ));
        assert!(matches!(save_board(&b), Err(IoError::InvalidName(_))));
    }

    #[test]
    fn error_display() {
        let e = IoError::Parse(3, "bad x".into());
        assert!(format!("{e}").contains("line 3"));
    }

    #[test]
    fn hostile_counts_rejected_before_allocation() {
        // A count beyond MAX_COUNT must fail fast with a Parse error.
        assert!(matches!(
            load_board("trace A 8 8 8 2 4 99999999999 0 0"),
            Err(IoError::Parse(1, _))
        ));
        // Fractional and negative counts are no longer silently truncated.
        assert!(matches!(
            load_board("obstacle via 3.5 0 0 1 1 2 2"),
            Err(IoError::Parse(1, _))
        ));
        assert!(matches!(
            load_board("group g auto 0.001 -1"),
            Err(IoError::Parse(1, _))
        ));
    }

    #[test]
    fn parsed_but_invalid_board_rejected() {
        // NaN coordinate parses as f64 but fails validation.
        let text = "trace A 8 8 8 2 4 2 0 0 NaN 1\ngroup g auto 0.001 1 0\n";
        match load_board(text) {
            Err(IoError::Invalid(crate::validate::ValidationError::NonFiniteCoordinate {
                ..
            })) => {}
            other => panic!("expected Invalid(NonFiniteCoordinate), got {other:?}"),
        }
        // Group referencing a trace the file never declared.
        let text = "trace A 8 8 8 2 4 2 0 0 50 0\ngroup g auto 0.001 1 7\n";
        assert!(matches!(
            load_board(text),
            Err(IoError::Invalid(
                crate::validate::ValidationError::UnknownGroupMember { member: 7, .. }
            ))
        ));
    }

    #[test]
    fn far_vertex_outside_outline_rejected() {
        // One via vertex pushed to x ≈ 1e8: it parses and is finite, but
        // indexing it would size a lattice from here to the board and
        // abort on allocation. Validation must refuse the board instead.
        let text = save_board(&table1_case(1).board).unwrap();
        let mut moved = false;
        let lines: Vec<String> = text
            .lines()
            .map(|line| {
                let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
                if !moved && line.starts_with("obstacle via") {
                    let x: f64 = tokens[3].parse().unwrap();
                    tokens[3] = format!("{}", x * 1e6);
                    moved = true;
                }
                tokens.join(" ")
            })
            .collect();
        assert!(moved, "table1:1 has a via obstacle");
        match load_board(&lines.join("\n")) {
            Err(IoError::Invalid(crate::validate::ValidationError::OutsideOutline {
                entity,
                index,
                point,
            })) => {
                assert_eq!(entity, crate::validate::Entity::Obstacle(0));
                assert_eq!(index, 0);
                assert!(point.x > 1e7, "{point:?}");
            }
            other => panic!("expected Invalid(OutsideOutline), got {other:?}"),
        }
    }
}
