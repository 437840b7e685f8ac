//! Canonical content hashing: stable 64-bit digests of layout entities,
//! plus a Merkle root over an obstacle library.
//!
//! These digests key the fleet's content-addressed result cache
//! (`meander_fleet::cache`): two boards with equal digests are — by
//! construction of the serialization below — *identical inputs to the
//! router*, so a deterministic engine must route them identically, bit
//! for bit. That implication is the cache's entire correctness argument,
//! which makes the serialization contract here load-bearing:
//!
//! ## Serialization contract
//!
//! Every entity is folded word-by-word into a splitmix64 chain
//! ([`ContentHasher`]), with a domain tag up front and a length prefix
//! before every variable-length sequence (so `[[a], [b]]` and `[[a, b]]`
//! cannot collide structurally). Floats contribute their IEEE-754 bit
//! patterns — the same bits the router computes with — never a rounded or
//! formatted form.
//!
//! What is hashed is exactly the router's input surface:
//!
//! * **Order-sensitive where order is semantic.** Trace ids are insertion
//!   indices ([`crate::Board::add_trace`]), so trace order *is* identity:
//!   reordering traces renumbers every group member and changes the hash.
//!   Obstacle, group, pair, and rule-area declaration order likewise
//!   (obstacle position is the polygon id routed traces saw it under).
//! * **Order-insensitive where order is incidental.** Per-trace routable
//!   areas live in a `HashMap`; they are folded in ascending [`TraceId`]
//!   order, so map iteration order can never leak into the digest.
//! * **Names are excluded.** Trace, group, and pair names are labels for
//!   humans and reports; no router decision reads them. Excluding them is
//!   what lets generated near-duplicate boards (named per board index)
//!   share cache entries. Property-tested in this module and in
//!   `meander-fleet/tests/cache.rs`.
//!
//! ## Library root
//!
//! [`library_root`] digests a [`crate::ObstacleLibrary`] as the root of a
//! Merkle tree over its per-obstacle digests, in library order. The root
//! is the library's cache-key component, kept apart from
//! [`hash_board_local`] so a library edit moves one key component instead
//! of every board's digest. An edit needs no other bookkeeping: entries
//! keyed under the old root simply stop being looked up
//! (`meander_fleet::cache` module docs).

use crate::area::RoutableArea;
use crate::board::Board;
use crate::group::{MatchGroup, TargetLength};
use crate::library::ObstacleLibrary;
use crate::obstacle::{Obstacle, ObstacleKind};
use crate::trace::{Trace, TraceId};
use meander_drc::{DesignRuleArea, DesignRules};
use meander_geom::{Polygon, Polyline, Rect};

/// splitmix64 finalizer: the bijective mixer every digest chains through.
#[inline]
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// Domain tags: distinct entity kinds start from distinct chain states, so
// a polygon can never collide with a polyline of the same coordinates.
const TAG_POLYGON: u64 = 0x706f_6c79_676f_6e00; // "polygon"
const TAG_POLYLINE: u64 = 0x706f_6c79_6c69_6e65; // "polyline"
const TAG_RULES: u64 = 0x7275_6c65_7300_0000; // "rules"
const TAG_OBSTACLE: u64 = 0x6f62_7374_6163_6c65; // "obstacle"
const TAG_TRACE: u64 = 0x7472_6163_6500_0000; // "trace"
const TAG_GROUP: u64 = 0x6772_6f75_7000_0000; // "group"
const TAG_BOARD: u64 = 0x626f_6172_6400_0000; // "board"
const TAG_NODE: u64 = 0x6d65_726b_6c65_0000; // "merkle" (interior node)
const TAG_EMPTY: u64 = 0x656d_7074_7900_0000; // "empty" (zero-leaf tree)

/// Word-at-a-time splitmix64 fold. Not a cryptographic hash — a stable,
/// documented digest for content addressing within one trusted process.
#[derive(Debug, Clone)]
pub struct ContentHasher {
    state: u64,
}

impl ContentHasher {
    /// Starts a chain in the `tag` domain.
    #[inline]
    pub fn new(tag: u64) -> Self {
        ContentHasher { state: mix64(tag) }
    }

    /// Folds one word.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.state = mix64(self.state ^ v);
        self
    }

    /// Folds a float's IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a sequence length (the structural prefix before elements).
    #[inline]
    pub fn len(&mut self, n: usize) -> &mut Self {
        self.u64(n as u64)
    }

    /// The digest.
    #[inline]
    pub fn finish(&self) -> u64 {
        // One extra mix so a chain's last written word is also diffused.
        mix64(self.state)
    }
}

#[inline]
fn fold_points(h: &mut ContentHasher, pts: &[meander_geom::Point]) {
    h.len(pts.len());
    for p in pts {
        h.f64(p.x).f64(p.y);
    }
}

/// Digest of a polygon: vertex list in declaration order.
pub(crate) fn hash_polygon(p: &Polygon) -> u64 {
    let mut h = ContentHasher::new(TAG_POLYGON);
    fold_points(&mut h, p.vertices());
    h.finish()
}

/// Digest of a polyline: point list in order.
pub(crate) fn hash_polyline(p: &Polyline) -> u64 {
    let mut h = ContentHasher::new(TAG_POLYLINE);
    fold_points(&mut h, p.points());
    h.finish()
}

/// Digest of a rule set: the five floats, fixed order.
pub fn hash_rules(r: &DesignRules) -> u64 {
    let mut h = ContentHasher::new(TAG_RULES);
    h.f64(r.gap)
        .f64(r.obstacle)
        .f64(r.protect)
        .f64(r.miter)
        .f64(r.width);
    h.finish()
}

/// Digest of an obstacle: kind discriminant + polygon.
pub(crate) fn hash_obstacle(o: &Obstacle) -> u64 {
    let kind = match o.kind() {
        ObstacleKind::Via => 1u64,
        ObstacleKind::Component => 2,
        ObstacleKind::Keepout => 3,
    };
    let mut h = ContentHasher::new(TAG_OBSTACLE);
    h.u64(kind).u64(hash_polygon(o.polygon()));
    h.finish()
}

/// Digest of a trace's routing-relevant content: centerline, width,
/// rules. The name is deliberately excluded (module docs).
pub(crate) fn hash_trace(t: &Trace) -> u64 {
    let mut h = ContentHasher::new(TAG_TRACE);
    h.u64(hash_polyline(t.centerline()))
        .f64(t.width())
        .u64(hash_rules(t.rules()));
    h.finish()
}

/// Digest of a matching group: members (in declaration order — member
/// order is the unit planning order), target policy, tolerance. The name
/// is deliberately excluded (module docs).
pub fn hash_group(g: &MatchGroup) -> u64 {
    let mut h = ContentHasher::new(TAG_GROUP);
    h.len(g.members().len());
    for m in g.members() {
        h.u64(u64::from(m.0));
    }
    match g.target() {
        TargetLength::LongestMember => {
            h.u64(1);
        }
        TargetLength::Explicit(t) => {
            h.u64(2).f64(t);
        }
    }
    h.f64(g.tolerance());
    h.finish()
}

fn fold_area(h: &mut ContentHasher, area: &RoutableArea) {
    h.len(area.polygons().len());
    for p in area.polygons() {
        h.u64(hash_polygon(p));
    }
}

fn fold_rule_area(h: &mut ContentHasher, a: &DesignRuleArea) {
    h.u64(u64::from(a.id()))
        .u64(hash_polygon(a.region()))
        .u64(hash_rules(a.rules()));
}

fn fold_outline(h: &mut ContentHasher, outline: Option<Rect>) {
    match outline {
        None => {
            h.u64(0);
        }
        Some(r) => {
            h.u64(1).f64(r.min.x).f64(r.min.y).f64(r.max.x).f64(r.max.y);
        }
    }
}

/// Digest of a board's **local** routing-relevant content: outline,
/// traces (in id order — ids are insertion indices, so equal digests
/// imply an identical id space), local obstacles, groups, pairs, and
/// rule areas in declaration order, and per-trace routable areas in
/// ascending [`TraceId`] order (map iteration order never leaks in).
///
/// A referenced obstacle library is *not* folded in — the library is
/// digested separately ([`library_root`]) so a library edit moves one key
/// component instead of rewriting every board's digest.
pub fn hash_board_local(b: &Board) -> u64 {
    let mut h = ContentHasher::new(TAG_BOARD);
    fold_outline(&mut h, b.outline());
    h.len(b.trace_count());
    for (_, t) in b.traces() {
        h.u64(hash_trace(t));
    }
    h.len(b.obstacles().len());
    for o in b.obstacles() {
        h.u64(hash_obstacle(o));
    }
    h.len(b.groups().len());
    for g in b.groups() {
        h.u64(hash_group(g));
    }
    h.len(b.pairs().len());
    for p in b.pairs() {
        h.u64(u64::from(p.p().0))
            .u64(u64::from(p.n().0))
            .f64(p.sep())
            .u64(p.breakout_nodes() as u64);
    }
    h.len(b.rule_areas().len());
    for a in b.rule_areas() {
        fold_rule_area(&mut h, a);
    }
    // Areas: keyed by TraceId in a HashMap — fold in ascending id order,
    // with a presence flag per trace id, so insertion order is invisible.
    let with_area = (0..b.trace_count() as u32)
        .filter(|&i| b.area(TraceId(i)).is_some())
        .count();
    h.len(with_area);
    for i in 0..b.trace_count() as u32 {
        if let Some(area) = b.area(TraceId(i)) {
            h.u64(u64::from(i));
            fold_area(&mut h, area);
        }
    }
    h.finish()
}

fn hash_node(left: u64, right: u64) -> u64 {
    let mut h = ContentHasher::new(TAG_NODE);
    h.u64(left).u64(right);
    h.finish()
}

/// The root of a binary Merkle tree over `u64` leaf digests, built bottom
/// up. Interior nodes are `mix(TAG_NODE, left, right)`; an odd node at any
/// level is paired with itself (the ministark padding shape). The root
/// commits the whole leaf list, order included; a zero-leaf tree has a
/// fixed empty-domain root, so "no library" still has a stable key
/// component.
fn merkle_root(mut level: Vec<u64>) -> u64 {
    if level.is_empty() {
        return mix64(TAG_EMPTY);
    }
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| hash_node(pair[0], *pair.last().expect("non-empty chunk")))
            .collect();
    }
    level[0]
}

/// The Merkle root of `library`: one leaf per obstacle digest, in library
/// order.
pub fn library_root(library: &ObstacleLibrary) -> u64 {
    merkle_root(library.obstacles().iter().map(hash_obstacle).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::fleet_boards_small;
    use crate::Trace;
    use meander_geom::{Point, Polyline, Vector};

    fn small_board() -> Board {
        fleet_boards_small(2, 7, 11).boards[1].board().clone()
    }

    #[test]
    fn digests_are_deterministic() {
        let b = small_board();
        assert_eq!(hash_board_local(&b), hash_board_local(&b.clone()));
        let lib = fleet_boards_small(2, 7, 11).library;
        assert_eq!(library_root(&lib), library_root(&lib));
        assert_eq!(
            library_root(&ObstacleLibrary::default()),
            mix64(TAG_EMPTY),
            "an empty library has a stable root"
        );
    }

    /// Names are labels, not router inputs: renaming must not move the
    /// digest (this is what lets per-board-named duplicates share keys).
    #[test]
    fn names_are_excluded() {
        let b = small_board();
        let mut renamed = b.clone();
        let id = renamed.traces().next().map(|(id, _)| id).unwrap();
        let t = renamed.trace(id).unwrap();
        let clone = Trace::with_rules("renamed", t.centerline().clone(), *t.rules());
        *renamed.trace_mut(id).unwrap() = clone;
        assert_eq!(hash_board_local(&b), hash_board_local(&renamed));
    }

    /// Trace order is semantic (ids are insertion indices): swapping two
    /// traces must move the digest even though the trace *set* is equal.
    #[test]
    fn trace_order_is_semantic() {
        let mut a = Board::new(meander_geom::Rect::new(
            Point::new(0.0, 0.0),
            Point::new(100.0, 100.0),
        ));
        let t1 = Trace::new(
            "x",
            Polyline::new(vec![Point::new(0.0, 10.0), Point::new(90.0, 10.0)]),
            2.0,
        );
        let t2 = Trace::new(
            "y",
            Polyline::new(vec![Point::new(0.0, 40.0), Point::new(90.0, 40.0)]),
            2.0,
        );
        let mut b = a.clone();
        a.add_trace(t1.clone());
        a.add_trace(t2.clone());
        b.add_trace(t2);
        b.add_trace(t1);
        assert_ne!(hash_board_local(&a), hash_board_local(&b));
    }

    /// Geometry and rules changes move the digest.
    #[test]
    fn content_changes_move_the_digest() {
        let b = small_board();
        let h0 = hash_board_local(&b);
        // Obstacle nudge.
        if !b.obstacles().is_empty() {
            let mut edited = b.clone();
            let moved = edited.obstacles()[0].translated(Vector::new(0.25, 0.0));
            edited.replace_obstacle(0, moved);
            assert_ne!(h0, hash_board_local(&edited));
        }
        // Rules tweak.
        let mut edited = b.clone();
        let id = edited.traces().next().map(|(id, _)| id).unwrap();
        let mut rules = *edited.trace(id).unwrap().rules();
        rules.gap += 0.5;
        edited.trace_mut(id).unwrap().set_rules(rules);
        assert_ne!(h0, hash_board_local(&edited));
    }
}
