//! Delta-debugging repro minimization for quarantined boards.
//!
//! A board that panics on its first attempt and on its retry is a
//! *poison board*: the single most valuable artifact it can leave behind
//! is the **smallest** board that still crashes, because a 3-entity repro
//! gets read and fixed while a 300-entity one gets filed and forgotten.
//!
//! `minimize` is a classic ddmin-style reducer specialized to
//! [`LibraryBoard`]s. It walks the board's entity classes — library
//! obstacles, board-local obstacles, differential pairs, matching groups,
//! traces — and for each tries dropping contiguous chunks, halving the
//! chunk size bisection-style, keeping any candidate for which the
//! caller's failing closure still fails. The closure decides what
//! "fails" means (the resilience layer re-routes the candidate through
//! the engine, whose per-job `catch_unwind` converts a panic into
//! [`crate::BoardOutcome::Failed`]); the reducer only supplies candidate
//! boards and takes whatever verdicts come back, so it works unchanged
//! for real router panics and injected chaos faults alike.
//!
//! Dropping a trace renumbers everything downstream of it, so candidates
//! are **rebuilt, not mutated**: traces re-add in kept order (fresh
//! [`TraceId`]s), group members remap through the kept set (groups left
//! empty are dropped — a candidate must stay *valid*, or the probe would
//! report a rejection instead of reproducing the crash), pairs survive
//! only if both ends do, and per-trace routable areas follow their
//! traces. The reduced board is serialized via [`meander_layout::io`]
//! (`save_board` of its materialized twin) so a bug report carries a
//! loadable text artifact, not a debug dump.
//!
//! Everything here is deterministic: candidate order is a pure function
//! of the board's entity counts, so the same poison board minimizes to
//! the same repro on every run, worker count, and sharing mode.

use meander_layout::io::save_board;
use meander_layout::{
    Board, DiffPair, LibraryBoard, MatchGroup, ObstacleLibrary, TargetLength, TraceId,
};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// The smallest still-failing board `minimize` found, with its audit
/// trail.
#[derive(Debug, Clone)]
pub struct MinimizedRepro {
    /// The reduced board (still fails the caller's closure).
    pub board: LibraryBoard,
    /// Entity count of the original board (traces + obstacles, library
    /// and local, + groups + pairs).
    pub original_entities: usize,
    /// Entity count of the reduced board.
    pub entities: usize,
    /// Failing-closure invocations spent.
    pub probes: usize,
    /// The reduced board's materialized twin in the `layout::io` text
    /// format (`None` only if serialization failed, e.g. a whitespace
    /// name).
    pub text: Option<String>,
}

/// Total entity count of a board: library obstacles + local obstacles +
/// traces + groups + pairs. The quantity minimization shrinks.
pub(crate) fn entity_count(lb: &LibraryBoard) -> usize {
    lb.library().len()
        + lb.board().obstacles().len()
        + lb.board().trace_count()
        + lb.board().groups().len()
        + lb.board().pairs().len()
}

/// One droppable entity class of a [`LibraryBoard`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    LibraryObstacle,
    LocalObstacle,
    Pair,
    Group,
    Trace,
}

/// All classes, in the order passes run: cheap bulk (obstacles) first,
/// structure (pairs/groups/traces) last — big boards shed their obstacle
/// fields before any id remapping happens.
const CLASSES: [Class; 5] = [
    Class::LibraryObstacle,
    Class::LocalObstacle,
    Class::Pair,
    Class::Group,
    Class::Trace,
];

fn class_len(lb: &LibraryBoard, class: Class) -> usize {
    match class {
        Class::LibraryObstacle => lb.library().len(),
        Class::LocalObstacle => lb.board().obstacles().len(),
        Class::Pair => lb.board().pairs().len(),
        Class::Group => lb.board().groups().len(),
        Class::Trace => lb.board().trace_count(),
    }
}

/// Shrinks `board` to a minimal still-failing repro: `still_fails` must
/// return `true` for the original (callers should verify before paying
/// for minimization) and is re-invoked on every candidate; the reduction
/// keeps exactly the candidates that still fail. Spends at most
/// `max_probes` closure invocations, so a pathological predicate can't
/// turn triage into a bisection marathon — the result is then simply the
/// smallest repro found so far.
pub(crate) fn minimize<F>(
    board: &LibraryBoard,
    mut still_fails: F,
    max_probes: usize,
) -> MinimizedRepro
where
    F: FnMut(&LibraryBoard) -> bool,
{
    let original_entities = entity_count(board);
    let mut current = board.clone();
    let mut probes = 0usize;
    // Passes over all classes until a full pass removes nothing (a local
    // fixed point): dropping traces can orphan a group, which only a
    // later group pass can then remove.
    loop {
        let before = entity_count(&current);
        for class in CLASSES {
            current = shrink_class(current, class, &mut still_fails, &mut probes, max_probes);
        }
        if entity_count(&current) == before || probes >= max_probes {
            break;
        }
    }
    MinimizedRepro {
        original_entities,
        entities: entity_count(&current),
        probes,
        text: save_board(&current.to_board()).ok(),
        board: current,
    }
}

/// ddmin over one entity class: try dropping contiguous chunks, halving
/// the chunk on a fruitless sweep, restarting the sweep on success.
fn shrink_class<F>(
    mut cur: LibraryBoard,
    class: Class,
    still_fails: &mut F,
    probes: &mut usize,
    max_probes: usize,
) -> LibraryBoard
where
    F: FnMut(&LibraryBoard) -> bool,
{
    let n = class_len(&cur, class);
    if n == 0 {
        return cur;
    }
    let mut chunk = n.div_ceil(2);
    'sweep: while chunk >= 1 {
        let n = class_len(&cur, class);
        let mut start = 0;
        while start < n {
            if *probes >= max_probes {
                return cur;
            }
            let end = (start + chunk).min(n);
            let candidate = drop_range(&cur, class, start..end);
            *probes += 1;
            if still_fails(&candidate) {
                cur = candidate;
                // Same chunk size, fresh sweep over the smaller board.
                continue 'sweep;
            }
            start = end;
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    cur
}

/// `lb` with `class` items in `drop` removed, rebuilt consistently (see
/// module docs for the remapping rules).
fn drop_range(lb: &LibraryBoard, class: Class, drop: Range<usize>) -> LibraryBoard {
    let keep = |c: Class, i: usize| c != class || !drop.contains(&i);
    rebuild(lb, &keep)
}

/// Rebuilds a [`LibraryBoard`] keeping exactly the entities `keep`
/// approves, remapping trace ids and pruning references that dangle.
fn rebuild(lb: &LibraryBoard, keep: &dyn Fn(Class, usize) -> bool) -> LibraryBoard {
    let library = ObstacleLibrary::new(
        lb.library()
            .obstacles()
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(Class::LibraryObstacle, *i))
            .map(|(_, o)| o.clone())
            .collect(),
    );
    let src = lb.board();
    let mut board = match src.outline() {
        Some(o) => Board::new(o),
        None => Board::default(),
    };
    // Traces re-add in kept order; ids are assigned fresh, so record the
    // old→new mapping for groups, pairs, and areas.
    let mut remap: BTreeMap<u32, TraceId> = BTreeMap::new();
    for (pos, (id, t)) in src.traces().enumerate() {
        if keep(Class::Trace, pos) {
            let nid = board.add_trace(t.clone());
            remap.insert(id.0, nid);
        }
    }
    for (pos, o) in src.obstacles().iter().enumerate() {
        if keep(Class::LocalObstacle, pos) {
            board.add_obstacle(o.clone());
        }
    }
    for (id, _) in src.traces() {
        if let (Some(&nid), Some(area)) = (remap.get(&id.0), src.area(id)) {
            board.set_area(nid, area.clone());
        }
    }
    for a in src.rule_areas() {
        board.add_rule_area(a.clone());
    }
    for (pos, g) in src.groups().iter().enumerate() {
        if !keep(Class::Group, pos) {
            continue;
        }
        let members: Vec<TraceId> = g
            .members()
            .iter()
            .filter_map(|m| remap.get(&m.0).copied())
            .collect();
        if members.is_empty() {
            // An empty group would fail validation — the candidate must
            // stay routable input, or probes measure the wrong failure.
            continue;
        }
        let mut ng = match g.target() {
            TargetLength::Explicit(t) => MatchGroup::with_target(g.name(), members, t),
            TargetLength::LongestMember => MatchGroup::new(g.name(), members),
        };
        ng.set_tolerance(g.tolerance());
        board.add_group(ng);
    }
    for (pos, p) in src.pairs().iter().enumerate() {
        if !keep(Class::Pair, pos) {
            continue;
        }
        if let (Some(&np), Some(&nn)) = (remap.get(&p.p().0), remap.get(&p.n().0)) {
            let mut npair = DiffPair::new(p.name(), np, nn, p.sep());
            npair.set_breakout_nodes(p.breakout_nodes());
            board.add_pair(npair);
        }
    }
    LibraryBoard::new(Arc::new(library), board)
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_layout::gen::fleet_boards_small;
    use meander_layout::io::load_board;
    use meander_layout::validate_board;

    fn sample_board() -> LibraryBoard {
        fleet_boards_small(1, 5, 9).boards.remove(0)
    }

    #[test]
    fn entity_count_covers_all_classes() {
        let lb = sample_board();
        let n = entity_count(&lb);
        assert_eq!(
            n,
            lb.library().len()
                + lb.board().obstacles().len()
                + lb.board().trace_count()
                + lb.board().groups().len()
                + lb.board().pairs().len()
        );
        assert!(n > 4, "generator board should be non-trivial: {n}");
    }

    /// Predicate "has at least one trace in a group" minimizes to exactly
    /// one trace and one group, everything else dropped — the degenerate
    /// fault every injected-panic quarantine reduces to.
    #[test]
    fn minimizes_to_one_routable_unit() {
        let lb = sample_board();
        let fails = |cand: &LibraryBoard| {
            cand.board()
                .groups()
                .iter()
                .any(|g| !g.members().is_empty())
        };
        let min = minimize(&lb, fails, 10_000);
        assert!(fails(&min.board), "result must still fail");
        assert_eq!(min.board.library().len(), 0);
        assert_eq!(min.board.board().obstacles().len(), 0);
        assert_eq!(min.board.board().groups().len(), 1);
        assert_eq!(min.board.board().trace_count(), 1);
        assert_eq!(min.entities, 2);
        assert!(min.probes > 0 && min.original_entities > min.entities);
        // The reduced board is valid and its serialized twin round-trips.
        validate_board(min.board.board()).expect("reduced board stays valid");
        let text = min.text.as_deref().expect("serializes");
        let loaded = load_board(text).expect("round-trips");
        assert_eq!(loaded.trace_count(), 1);
    }

    /// The reducer never drops entities the predicate pins: requiring a
    /// specific trace's name keeps that trace (and a group containing
    /// it, if the predicate demands routability).
    #[test]
    fn pinned_entities_survive() {
        let lb = sample_board();
        let pinned = lb
            .board()
            .traces()
            .nth(1)
            .map(|(_, t)| t.name().to_string())
            .expect("board has 2+ traces");
        let fails = |cand: &LibraryBoard| {
            cand.board()
                .traces()
                .any(|(_, t)| t.name() == pinned.as_str())
        };
        let min = minimize(&lb, fails, 10_000);
        assert_eq!(min.board.board().trace_count(), 1);
        let kept = min
            .board
            .board()
            .traces()
            .next()
            .map(|(_, t)| t.name().to_string());
        assert_eq!(kept.as_deref(), Some(pinned.as_str()));
    }

    /// The probe budget is a hard cap: with 0 probes the original comes
    /// back untouched.
    #[test]
    fn probe_budget_caps_work() {
        let lb = sample_board();
        let min = minimize(&lb, |_| true, 0);
        assert_eq!(min.probes, 0);
        assert_eq!(min.entities, min.original_entities);
        // A tiny budget makes *some* progress but respects the cap.
        let min = minimize(&lb, |_| true, 7);
        assert!(min.probes <= 7);
        assert!(min.entities <= min.original_entities);
    }

    /// Rebuild keeps group/pair references consistent after trace drops:
    /// a never-failing predicate means every candidate is rejected, so
    /// the reducer must still terminate with the original board.
    #[test]
    fn unreproducible_failure_returns_original() {
        let lb = sample_board();
        let min = minimize(&lb, |_| false, 10_000);
        assert_eq!(min.entities, min.original_entities);
        assert_eq!(min.board.board().trace_count(), lb.board().trace_count());
    }
}
