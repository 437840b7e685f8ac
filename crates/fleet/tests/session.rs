//! Equality property suite for the serving loop: after every prefix of a
//! random edit stream, [`FleetSession::reroute_dirty`] must be
//! **bit-identical** to from-scratch [`route_fleet`] of the edited fleet —
//! across worker counts 1–4 and both library-sharing modes (the 4 × 2 × 8
//! matrix below exercises 64 randomized prefixes). This is the soundness
//! argument of the `fleet::session` module docs made executable: a unit
//! is skipped when no damage rect reaches one of its recorded windows
//! (`meander_index::reaches`, the engine's own candidacy test), and if
//! skipping a unit could ever change a bit, some prefix here would catch
//! the divergence in the routed floats or geometry.
//!
//! Precision is pinned too: a library move that lands inside a window's
//! lattice cell but beyond the candidacy slack skips every unit, one
//! within the slack dirties its unit (both states bit-identical to
//! from-scratch), and a fixed sequence of generated library moves dirties
//! a pinned number of units.

mod common;

use meander_core::ExtendConfig;
use meander_fleet::{
    route_fleet, BoardSet, Edit, EditScope, FleetConfig, FleetReport, FleetSession,
};
use meander_geom::Vector;
use meander_layout::gen::{edit_stream, fleet_boards_small, nth_edit};

fn serial_extend() -> ExtendConfig {
    ExtendConfig {
        parallel: false,
        ..Default::default()
    }
}

fn config(workers: usize, share: bool) -> FleetConfig {
    FleetConfig {
        extend: serial_extend(),
        workers: Some(workers),
        share_library: share,
        ..Default::default()
    }
}

/// The session's served state and report must equal a from-scratch route
/// of its pristine (edited) fleet, bit for bit.
fn assert_bit_identical(session: &FleetSession, cfg: &FleetConfig, ctx: &str) {
    let got = session.report();
    let mut reference = BoardSet::new(session.pristine_boards());
    let want = route_fleet(&mut reference, cfg);
    assert_eq!(want.outcomes, got.outcomes, "{ctx}: outcomes");
    assert_eq!(want.reports.len(), got.reports.len(), "{ctx}");
    for (b, (w, g)) in want.reports.iter().zip(&got.reports).enumerate() {
        assert_eq!(w.len(), g.len(), "{ctx}: board {b} group count");
        for (x, y) in w.iter().zip(g) {
            assert_eq!(x.target.to_bits(), y.target.to_bits(), "{ctx}: board {b}");
            assert_eq!(x.traces.len(), y.traces.len(), "{ctx}: board {b}");
            for (a, c) in x.traces.iter().zip(&y.traces) {
                assert_eq!(a.id, c.id, "{ctx}: board {b}");
                assert_eq!(a.patterns, c.patterns, "{ctx}: board {b} trace {:?}", a.id);
                assert_eq!(
                    a.achieved.to_bits(),
                    c.achieved.to_bits(),
                    "{ctx}: board {b} trace {:?}",
                    a.id
                );
                assert_eq!(a.initial.to_bits(), c.initial.to_bits(), "{ctx}: board {b}");
                assert_eq!(a.via_msdtw, c.via_msdtw, "{ctx}: board {b}");
            }
        }
    }
    // Geometry: every trace of every board, exact centerlines.
    for (b, ref_board) in reference.boards().iter().enumerate() {
        for (id, t) in ref_board.board().traces() {
            let routed = session.boards().boards()[b]
                .board()
                .trace(id)
                .expect("same trace set");
            assert_eq!(
                t.centerline(),
                routed.centerline(),
                "{ctx}: board {b} trace {id:?} geometry"
            );
        }
    }
}

/// The 64-prefix matrix: workers 1–4 × share on/off × 8 edit-stream
/// prefixes, every prefix checked bit-identical to from-scratch, then one
/// re-route over two accumulated edits per config.
#[test]
fn reroute_dirty_matches_from_scratch_across_configs() {
    let mut prefixes = 0usize;
    for workers in 1..=4usize {
        for share in [true, false] {
            let cfg = config(workers, share);
            let seed = 100 + 10 * workers as u64 + u64::from(share);
            let case = fleet_boards_small(3, 7, 11 + seed);
            let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
            assert!(session.report().all_routed(), "initial route");
            for (k, edit) in edit_stream(&case, seed, 8).into_iter().enumerate() {
                let ctx = format!("workers={workers} share={share} prefix={k} edit={edit}");
                let _ = session.apply_edit(edit);
                let report = session.reroute_dirty(&cfg);
                assert_eq!(
                    report.stats.units_dirty + report.stats.units_skipped,
                    report.stats.units,
                    "{ctx}: damage counters partition the units"
                );
                assert!(!session.pending(), "{ctx}: re-route consumes all damage");
                assert_bit_identical(&session, &cfg, &ctx);
                prefixes += 1;
            }
            // One re-route over two accumulated edits.
            for edit in edit_stream(&case, seed + 1, 2) {
                let _ = session.apply_edit(edit);
            }
            assert!(session.reroute_dirty(&cfg).all_routed());
            assert_bit_identical(
                &session,
                &cfg,
                &format!("workers={workers} share={share} batched"),
            );
        }
    }
    assert!(prefixes >= 64, "the matrix must cover at least 64 prefixes");
}

/// A re-route with no damage runs zero units and changes nothing.
#[test]
fn zero_damage_reroute_skips_everything() {
    let cfg = config(2, true);
    let case = fleet_boards_small(3, 7, 11);
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    let before: Vec<_> = session
        .boards()
        .boards()
        .iter()
        .map(|lb| lb.board().clone())
        .collect();
    assert!(!session.pending());
    let report = session.reroute_dirty(&cfg);
    assert!(report.all_routed());
    assert_eq!(report.stats.units_dirty, 0);
    assert_eq!(report.stats.units_skipped, report.stats.units);
    assert_eq!(report.stats.units_run, 0);
    assert_eq!(report.stats.cells_dirty, 0);
    assert_eq!(report.stats.boards_replanned, 0);
    for (b, old) in before.iter().enumerate() {
        for (id, t) in old.traces() {
            let now = session.boards().boards()[b].board().trace(id).unwrap();
            assert_eq!(t.centerline(), now.centerline());
        }
    }
}

/// Damage scoped to one board can only dirty that board's units.
#[test]
fn board_local_edit_stays_board_local() {
    let cfg = config(2, true);
    let case = fleet_boards_small(3, 7, 11);
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    let per_board_units = session.report().stats.units / 3;
    let damage = session.apply_edit(Edit::MoveObstacle {
        scope: EditScope::Board(1),
        index: 3,
        by: Vector::new(2.0, 1.0),
    });
    assert_eq!(damage.boards_affected, 1);
    assert!(!damage.structural);
    assert!(session.pending());
    let report = session.reroute_dirty(&cfg);
    assert!(
        report.stats.units_dirty <= per_board_units,
        "dirty units {} exceed board 1's unit count {per_board_units}",
        report.stats.units_dirty
    );
    assert!(report.stats.cells_dirty > 0);
    assert_bit_identical(&session, &cfg, "board-local move");
}

/// A library edit damages every referencing board; the result still
/// matches from-scratch.
#[test]
fn library_edit_spans_the_fleet() {
    let cfg = config(3, true);
    let case = fleet_boards_small(3, 7, 11);
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    let damage = session.apply_edit(Edit::MoveObstacle {
        scope: EditScope::Library(0),
        index: 5,
        by: Vector::new(-3.0, 2.0),
    });
    assert_eq!(
        damage.boards_affected, 3,
        "one shared library, three boards"
    );
    let _ = session.reroute_dirty(&cfg);
    assert_bit_identical(&session, &cfg, "library move");
}

/// `SetRules` is structural: exactly the edited board replans and
/// re-routes; everything else is skipped — and the rebuilt board is
/// bit-identical to a from-scratch route under the new rules.
#[test]
fn set_rules_reroutes_exactly_that_board() {
    let cfg = config(2, true);
    let case = fleet_boards_small(3, 7, 11);
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    let total = session.report().stats.units;
    let board_units = total / 3;
    let mut rules = *case.boards[0].board().traces().next().unwrap().1.rules();
    rules.gap += 1.0;
    let damage = session.apply_edit(Edit::SetRules { board: 2, rules });
    assert!(damage.structural);
    assert_eq!(damage.boards_affected, 1);
    let report = session.reroute_dirty(&cfg);
    assert_eq!(
        report.stats.units_dirty, board_units,
        "only board 2 re-runs"
    );
    assert_eq!(report.stats.units_skipped, total - board_units);
    assert_eq!(
        report.stats.boards_replanned, 1,
        "a structural edit to one board replans exactly that board"
    );
    assert_bit_identical(&session, &cfg, "set-rules");
}

/// With the rebuild engine (`incremental: false`) units record `mark_all`,
/// so any real damage re-routes everything — conservative, still correct.
#[test]
fn rebuild_engine_falls_back_to_reroute_all() {
    let mut cfg = config(2, true);
    cfg.extend.incremental = false;
    let case = fleet_boards_small(2, 7, 11);
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    let total = session.report().stats.units;
    // Library-scope damage covers every board; with `mark_all` touches no
    // unit can prove itself clean against it.
    let _ = session.apply_edit(Edit::MoveObstacle {
        scope: EditScope::Library(0),
        index: 0,
        by: Vector::new(1.0, 1.0),
    });
    let report = session.reroute_dirty(&cfg);
    assert_eq!(
        report.stats.units_dirty, total,
        "mark_all re-routes everything"
    );
    assert_bit_identical(&session, &cfg, "rebuild engine");
}

/// Removing from an empty obstacle list is a no-op costing only the
/// damage-report bookkeeping.
#[test]
fn no_op_edits_cost_nothing() {
    let cfg = config(1, true);
    let mut case = fleet_boards_small(2, 7, 11);
    // Strip board 0's local obstacles so the remove has nothing to hit.
    while !case.boards[0].board().obstacles().is_empty() {
        case.boards[0].board_mut().remove_obstacle(0);
    }
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    let damage = session.apply_edit(Edit::RemoveObstacle {
        scope: EditScope::Board(0),
        index: 9,
    });
    assert_eq!(damage.boards_affected, 0);
    assert_eq!(damage.cells_dirty, 0);
    assert!(!session.pending());
    let report = session.reroute_dirty(&cfg);
    assert_eq!(report.stats.units_dirty, 0);
    assert_bit_identical(&session, &cfg, "no-op remove");
}

/// The damage counters surface in the one-line summary.
#[test]
fn summary_reports_skip_rate() {
    let cfg = config(2, true);
    let case = fleet_boards_small(2, 7, 11);
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    let _ = session.apply_edit(Edit::MoveObstacle {
        scope: EditScope::Board(0),
        index: 0,
        by: Vector::new(1.0, 0.5),
    });
    let report = session.reroute_dirty(&cfg);
    let line = report.summary();
    assert!(line.contains("dirty="), "{line}");
    assert!(line.contains("skipped="), "{line}");
    assert!(line.contains("skip_rate="), "{line}");
    assert!(line.contains("cells_dirty="), "{line}");
}

/// Moves library obstacle `index` of slot 0 by `by` and re-routes.
fn move_library_obstacle(
    session: &mut FleetSession,
    cfg: &FleetConfig,
    index: usize,
    by: Vector,
) -> FleetReport {
    let damage = session.apply_edit(Edit::MoveObstacle {
        scope: EditScope::Library(0),
        index,
        by,
    });
    assert!(damage.cells_dirty > 0, "the damage covers lattice cells");
    let report = session.reroute_dirty(cfg);
    assert!(report.all_routed());
    report
}

/// A library move that lands inside a touched lattice cell but farther
/// than the slack from every recorded window re-routes nothing; moving
/// the same obstacle to within the slack of a window re-routes its unit.
/// Both end states equal a from-scratch route.
#[test]
fn near_miss_library_move_skips_and_slack_hit_dirties() {
    let cfg = config(2, true);
    let case = fleet_boards_small(3, 7, 11);
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    let near = common::near_miss(
        &case.boards,
        &common::recorded_windows(&case.boards, &cfg.extend),
    );
    let report = move_library_obstacle(&mut session, &cfg, near.index, near.miss);
    assert_eq!(report.stats.units_dirty, 0, "a near miss dirties no unit");
    assert_eq!(report.stats.units_skipped, report.stats.units);
    assert_bit_identical(&session, &cfg, "near miss");
    let report = move_library_obstacle(&mut session, &cfg, near.index, near.hit - near.miss);
    assert!(
        report.stats.units_dirty > 0,
        "damage within the slack of a window dirties its unit"
    );
    assert_bit_identical(&session, &cfg, "slack hit");
}

/// Library moves dirty exactly the units whose windows their damage
/// reaches: the per-move `units_dirty` of six generated library moves
/// (applied in turn, each re-routed) is pinned, so a fallback to coarser
/// (cell-level) damage fails here.
#[test]
fn library_moves_dirty_a_pinned_number_of_units() {
    let cfg = config(2, true);
    let case = fleet_boards_small(8, 7, 11);
    let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &cfg);
    let moves: Vec<Edit> = (0..)
        .map(|k| nth_edit(&case, 42, k))
        .filter(|e| {
            matches!(
                e,
                Edit::MoveObstacle {
                    scope: EditScope::Library(_),
                    ..
                }
            )
        })
        .take(6)
        .collect();
    let mut dirty = Vec::new();
    for edit in moves {
        let _ = session.apply_edit(edit);
        dirty.push(session.reroute_dirty(&cfg).stats.units_dirty);
    }
    // Cell-level damage (any shared 48-unit lattice cell) dirtied
    // [5, 12, 13, 8, 16, 8] of these 21 units, 62 in total.
    assert_eq!(dirty, [0, 5, 8, 8, 7, 8], "36 units in total");
    assert_bit_identical(&session, &cfg, "library moves");
}
