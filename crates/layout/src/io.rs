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
//! - **Numbers** are written as the shortest decimal that reads back to the
//!   same `f64` bits, in `Display` form: no exponent, `56` for 56.0, `-0`
//!   for −0.0, `NaN` and `inf` as std writes them. So `save_board` output
//!   is byte-identical to formatting every field with `{}`, and reading it
//!   back with `str::parse` restores every coordinate exactly.
//! - **Whitespace** is whatever `char::is_whitespace` accepts: space, `\t`,
//!   `\n`, `\x0B`, `\x0C`, `\r`, and the Unicode spaces (U+0085, U+00A0,
//!   U+3000, …). Lines end at `\n`, so `\r\n` files load too. A line whose
//!   first token starts with `#` is a comment; tokens after a record's last
//!   field are ignored.
//! - **Records may come in any order**, `board` included: a `board` line
//!   sets the outline and keeps everything read before it. Ids are
//!   positional — the k-th `trace` record is trace k.
//! - **Names** are non-empty and contain no whitespace (enforced on save).

mod num;
mod scan;

use crate::board::Board;
use crate::diffpair::DiffPair;
use crate::group::{MatchGroup, TargetLength};
use crate::obstacle::{Obstacle, ObstacleKind};
use crate::trace::{Trace, TraceId};
use crate::validate::{validate_board, ValidationError};
use meander_drc::DesignRules;
use meander_geom::{Point, Polygon, Polyline, Rect};
use scan::Scanner;
use std::str::FromStr;

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
    /// A name was empty or contained whitespace on save.
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
            IoError::InvalidName(n) if n.is_empty() => write!(f, "empty name"),
            IoError::InvalidName(n) => write!(f, "name `{n}` contains whitespace"),
            IoError::Invalid(e) => write!(f, "invalid board: {e}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Board text under construction: one record per line, fields separated
/// by single spaces.
struct Text(Vec<u8>);

impl Text {
    fn record(&mut self, kind: &str) -> &mut Self {
        self.0.extend_from_slice(kind.as_bytes());
        self
    }

    fn word(&mut self, w: &str) -> &mut Self {
        self.0.push(b' ');
        self.0.extend_from_slice(w.as_bytes());
        self
    }

    fn num(&mut self, v: f64) -> &mut Self {
        self.0.push(b' ');
        num::push_f64(&mut self.0, v);
        self
    }

    fn int(&mut self, v: u64) -> &mut Self {
        self.0.push(b' ');
        num::push_u64(&mut self.0, v);
        self
    }

    /// `<n> <x1> <y1> … <xn> <yn>`, then the end of the record.
    fn points(&mut self, pts: &[Point]) {
        self.int(pts.len() as u64);
        for p in pts {
            self.num(p.x).num(p.y);
        }
        self.end();
    }

    fn end(&mut self) {
        self.0.push(b'\n');
    }
}

/// Serializes a board to the text format.
///
/// # Errors
///
/// Returns [`IoError::InvalidName`] when a trace/group/pair name is empty
/// or contains whitespace.
pub fn save_board(board: &Board) -> Result<String, IoError> {
    // About 20 bytes per coordinate (17 digits, sign, point, separator)
    // and 64 per record header: one allocation for generated boards.
    let areas = board.traces().filter_map(|(id, _)| board.area(id));
    let points = board
        .traces()
        .map(|(_, t)| t.centerline().point_count())
        .chain(board.obstacles().iter().map(|o| o.polygon().len()))
        .chain(areas.flat_map(|a| a.polygons().iter().map(Polygon::len)))
        .sum::<usize>();
    let records = board.trace_count() + board.obstacles().len() + board.groups().len();
    let mut s = Text(Vec::with_capacity(40 * points + 64 * records + 64));
    if let Some(o) = board.outline() {
        s.record("board")
            .num(o.min.x)
            .num(o.min.y)
            .num(o.max.x)
            .num(o.max.y)
            .end();
    }
    for (_, t) in board.traces() {
        check_name(t.name())?;
        let r = t.rules();
        s.record("trace")
            .word(t.name())
            .num(r.gap)
            .num(r.obstacle)
            .num(r.protect)
            .num(r.miter)
            .num(r.width)
            .points(t.centerline().points());
    }
    for o in board.obstacles() {
        let kind = match o.kind() {
            ObstacleKind::Via => "via",
            ObstacleKind::Component => "component",
            ObstacleKind::Keepout => "keepout",
        };
        s.record("obstacle")
            .word(kind)
            .points(o.polygon().vertices());
    }
    for (id, _) in board.traces() {
        for poly in board.area(id).map_or(&[][..], |a| a.polygons()) {
            s.record("area").int(id.0.into()).points(poly.vertices());
        }
    }
    for g in board.groups() {
        check_name(g.name())?;
        s.record("group").word(g.name());
        match g.target() {
            TargetLength::Explicit(t) => s.num(t),
            TargetLength::LongestMember => s.word("auto"),
        };
        s.num(g.tolerance()).int(g.members().len() as u64);
        for m in g.members() {
            s.int(m.0.into());
        }
        s.end();
    }
    for p in board.pairs() {
        check_name(p.name())?;
        s.record("pair")
            .word(p.name())
            .num(p.sep())
            .int(p.breakout_nodes() as u64)
            .int(p.p().0.into())
            .int(p.n().0.into())
            .end();
    }
    // Callers keep saved texts around; hand back no spare capacity.
    s.0.shrink_to_fit();
    // Every byte came from an ASCII literal, a digit table or a `&str`.
    Ok(String::from_utf8(s.0).expect("board text is UTF-8"))
}

/// A name must survive the whitespace split on load as exactly one token.
fn check_name(n: &str) -> Result<(), IoError> {
    if n.is_empty() || n.chars().any(char::is_whitespace) {
        Err(IoError::InvalidName(n.to_string()))
    } else {
        Ok(())
    }
}

/// The fields of one record: tokens off the scanner, with the record's
/// line number on every error.
struct Fields<'s, 'a> {
    scan: &'s mut Scanner<'a>,
    line: usize,
}

impl<'a> Fields<'_, 'a> {
    fn err(&self, why: impl Into<String>) -> IoError {
        IoError::Parse(self.line, why.into())
    }

    fn next(&mut self, what: &str) -> Result<&'a str, IoError> {
        self.scan
            .token()
            .ok_or_else(|| self.err(format!("missing {what}")))
    }

    fn parse<T: FromStr>(&mut self, what: &str) -> Result<T, IoError> {
        self.next(what)?
            .parse()
            .map_err(|_| self.err(format!("bad {what}")))
    }

    fn count(&mut self, what: &str) -> Result<usize, IoError> {
        let n: usize = self.parse(what)?;
        if n > MAX_COUNT {
            return Err(self.err(format!("{what} {n} exceeds limit {MAX_COUNT}")));
        }
        Ok(n)
    }

    /// `<n> <x1> <y1> …`, with `n` read as `count_what`.
    fn points(&mut self, count_what: &str) -> Result<Vec<Point>, IoError> {
        let n = self.count(count_what)?;
        let mut pts = Vec::with_capacity(n);
        for _ in 0..n {
            pts.push(Point::new(self.parse("x")?, self.parse("y")?));
        }
        Ok(pts)
    }

    /// `<n> <x1> <y1> …` of a polygon.
    fn polygon(&mut self) -> Result<Polygon, IoError> {
        let pts = self.points("vertex count")?;
        if pts.len() < 3 {
            return Err(self.err("polygon needs ≥ 3 vertices"));
        }
        Ok(Polygon::new(pts))
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
    let mut scan = Scanner::new(text);
    while let Some(line) = scan.next_line() {
        let Some(kind) = scan.token() else {
            continue;
        };
        if kind.starts_with('#') {
            continue;
        }
        let mut f = Fields {
            scan: &mut scan,
            line,
        };
        match kind {
            "board" => {
                let min = Point::new(f.parse("minx")?, f.parse("miny")?);
                let max = Point::new(f.parse("maxx")?, f.parse("maxy")?);
                board.set_outline(Rect::new(min, max));
            }
            "trace" => {
                let name = f.next("name")?.to_string();
                let rules = DesignRules {
                    gap: f.parse("gap")?,
                    obstacle: f.parse("obstacle")?,
                    protect: f.parse("protect")?,
                    miter: f.parse("miter")?,
                    width: f.parse("width")?,
                };
                let pts = f.points("point count")?;
                if pts.len() < 2 {
                    return Err(f.err("trace needs ≥ 2 points"));
                }
                board.add_trace(Trace::with_rules(name, Polyline::new(pts), rules));
            }
            "obstacle" => {
                let kind = match f.scan.token() {
                    Some("via") => ObstacleKind::Via,
                    Some("component") => ObstacleKind::Component,
                    Some("keepout") => ObstacleKind::Keepout,
                    other => return Err(f.err(format!("bad obstacle kind {other:?}"))),
                };
                board.add_obstacle(Obstacle::new(f.polygon()?, kind));
            }
            "area" => {
                let id = TraceId(f.parse("trace index")?);
                board.push_area_polygon(id, f.polygon()?);
            }
            "group" => {
                let name = f.next("name")?.to_string();
                let target = f.next("target")?;
                let tol = f.parse("tolerance")?;
                let k = f.count("member count")?;
                let mut members = Vec::with_capacity(k);
                for _ in 0..k {
                    members.push(TraceId(f.parse("member id")?));
                }
                let mut g = if target == "auto" {
                    MatchGroup::new(name, members)
                } else {
                    let t = target.parse().map_err(|_| f.err("bad target"))?;
                    MatchGroup::with_target(name, members, t)
                };
                g.set_tolerance(tol);
                board.add_group(g);
            }
            "pair" => {
                let name = f.next("name")?.to_string();
                let sep = f.parse("sep")?;
                let breakout = f.count("breakout")?;
                let p = TraceId(f.parse("p id")?);
                let n = TraceId(f.parse("n id")?);
                let mut pair = DiffPair::new(name, p, n, sep);
                pair.set_breakout_nodes(breakout);
                board.add_pair(pair);
            }
            other => return Err(f.err(format!("unknown record `{other}`"))),
        }
    }
    validate_board(&board).map_err(IoError::Invalid)?;
    Ok(board)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{
        any_angle_bus, decoupled_pair, dup_fleet_boards_small, fleet_boards_small, stress_board,
        stress_mixed_board, table1_case, table2_case, FleetCase,
    };
    use crate::hash::hash_board_local;
    use meander_geom::Angle;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::fmt::Write as _;

    /// The serializer before the byte writers: every field through `{}`.
    /// `save_board` must match it byte for byte.
    fn save_board_fmt(board: &Board) -> Result<String, IoError> {
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

    /// A fleet's boards plus its library, saved the way a fleet is handed
    /// over as text: the library as a board of obstacles only.
    fn fleet_parts(case: &FleetCase) -> Vec<Board> {
        let mut lib = Board::default();
        for o in case.library.obstacles() {
            lib.add_obstacle(o.clone());
        }
        let mut parts = vec![lib];
        parts.extend(case.boards.iter().map(|lb| lb.board().clone()));
        parts
    }

    /// Every generator the workspace ships, by name.
    fn generator_boards() -> Vec<(String, Board)> {
        let mut boards = Vec::new();
        for c in 1..=5 {
            boards.push((format!("table1:{c}"), table1_case(c).board));
        }
        for c in 1..=6 {
            boards.push((format!("table2:{c}"), table2_case(c).board));
        }
        for deg in [0.0, 17.0, 30.0, 45.0, 63.4, 90.0, 137.5, -20.0] {
            let b = any_angle_bus(4, Angle::from_degrees(deg));
            boards.push((format!("anyangle:{deg}"), b));
        }
        boards.push(("diffpair".into(), decoupled_pair(false).board));
        boards.push(("diffpair:multi-dra".into(), decoupled_pair(true).board));
        for seed in [1, 2] {
            boards.push((format!("stress:{seed}"), stress_board(3, 6, 12, seed).board));
            let b = stress_mixed_board(3, 6, 12, seed).board;
            boards.push((format!("stress-mixed:{seed}"), b));
        }
        let fleets = [
            ("fleet", fleet_boards_small(6, 3, 4)),
            ("dup-fleet", dup_fleet_boards_small(8, 0.7, 41)),
        ];
        for (name, case) in &fleets {
            for (i, b) in fleet_parts(case).into_iter().enumerate() {
                boards.push((format!("{name}:{i}"), b));
            }
        }
        boards
    }

    #[test]
    fn generator_text_is_a_fixpoint_and_matches_the_fmt_oracle() {
        for (name, board) in generator_boards() {
            let text = save_board(&board).unwrap();
            assert_eq!(text, save_board_fmt(&board).unwrap(), "{name}");
            let loaded = load_board(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(save_board(&loaded).unwrap(), text, "{name}");
            // The text has no record for design-rule areas, so the one
            // generator board that has one hashes differently once
            // reloaded.
            if name == "diffpair:multi-dra" {
                assert!(!board.rule_areas().is_empty() && loaded.rule_areas().is_empty());
            } else {
                assert_eq!(
                    hash_board_local(&loaded),
                    hash_board_local(&board),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn board_record_after_areas_keeps_them() {
        let case = table1_case(1);
        let text = save_board(&case.board).unwrap();
        let (first, rest) = text.split_once('\n').unwrap();
        assert!(first.starts_with("board "));
        let moved = format!("{rest}{first}\n");
        let loaded = load_board(&moved).unwrap();
        assert_eq!(
            (0..loaded.trace_count() as u32)
                .filter(|&i| loaded.area(TraceId(i)).is_some())
                .count(),
            8
        );
        assert_eq!(save_board(&loaded).unwrap(), text);
        assert_eq!(hash_board_local(&loaded), hash_board_local(&case.board));
    }

    #[test]
    fn empty_names_rejected_on_save() {
        let line = || Polyline::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
        let named = |trace: &str, group: &str, pair: &str| {
            let mut b = Board::default();
            let p = b.add_trace(Trace::new(trace, line(), 4.0));
            let n = b.add_trace(Trace::new("N", line(), 4.0));
            b.add_group(MatchGroup::new(group, vec![p, n]));
            b.add_pair(DiffPair::new(pair, p, n, 6.0));
            b
        };
        assert!(save_board(&named("P", "g", "pr")).is_ok());
        for b in [
            named("", "g", "pr"),
            named("P", "", "pr"),
            named("P", "g", ""),
        ] {
            assert_eq!(save_board(&b), Err(IoError::InvalidName(String::new())));
        }
        assert_eq!(
            IoError::InvalidName(String::new()).to_string(),
            "empty name"
        );
    }

    #[test]
    fn any_whitespace_and_comments_load_the_same_board() {
        let text = save_board(&table1_case(2).board).unwrap();
        const SPACES: [&str; 8] = [
            " ", "\t", "  ", "\u{b}", "\u{c}", "\u{85}", "\u{a0}", "\u{3000}",
        ];
        const BREAKS: [&str; 4] = ["\n", "\r\n", "\n# a comment\n", "\n \t\n"];
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let mut mixed = String::from("#header\r\n");
            for line in text.lines() {
                mixed.push_str(SPACES[rng.gen_range(0..SPACES.len())]);
                for (i, tok) in line.split(' ').enumerate() {
                    if i > 0 {
                        mixed.push_str(SPACES[rng.gen_range(0..SPACES.len())]);
                    }
                    mixed.push_str(tok);
                }
                mixed.push_str(BREAKS[rng.gen_range(0..BREAKS.len())]);
            }
            let loaded = load_board(&mixed).unwrap();
            assert_eq!(save_board(&loaded).unwrap(), text);
            // A bad record keeps its line number, counted as `lines` does.
            let bad = format!("{mixed}obstacle via 3 0 0 1 1 x 2\n");
            let want = mixed.lines().count() + 1;
            assert_eq!(
                load_board(&bad).unwrap_err(),
                IoError::Parse(want, "bad x".into())
            );
        }
    }

    #[test]
    fn parse_errors_keep_their_variant_and_message() {
        for (text, line, why) in [
            ("board 0 0 1", 1, "missing maxy"),
            ("\n\nboard 0 0 1 y", 3, "bad maxy"),
            ("trace", 1, "missing name"),
            ("trace A 8 8 8 2 4 1 0 0", 1, "trace needs ≥ 2 points"),
            ("obstacle", 1, "bad obstacle kind None"),
            ("obstacle hole 3", 1, "bad obstacle kind Some(\"hole\")"),
            ("area 0 2 0 0 1 1", 1, "polygon needs ≥ 3 vertices"),
            ("area -1 3", 1, "bad trace index"),
            ("group g", 1, "missing target"),
            ("group g 1x 0.1 0", 1, "bad target"),
            ("group g auto 0.1 1 z", 1, "bad member id"),
            ("pair p 6 2 0", 1, "missing n id"),
            ("# c\nvia", 2, "unknown record `via`"),
        ] {
            assert_eq!(
                load_board(text).unwrap_err(),
                IoError::Parse(line, why.into()),
                "{text:?}"
            );
        }
        let huge = format!("obstacle via {}", MAX_COUNT + 1);
        let why = format!("vertex count {} exceeds limit {MAX_COUNT}", MAX_COUNT + 1);
        assert_eq!(load_board(&huge).unwrap_err(), IoError::Parse(1, why));
    }

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
