//! `session-edit`: one designer serving a `FleetSession` over
//! `fleet_boards(200)`, trying `nth_edit` edits one at a time and undoing
//! each before the next. One op is one edit or undo: `apply_edit` →
//! `reroute_dirty` → DRC and `save_board` of every board the edit affects.
//! The designer waits for each reply before the next edit (a closed loop
//! with one client).

use crate::fleet::{record_fleet_stats, record_reports, FleetText, InputClean, LIBRARY_SEED};
use crate::run::{fingerprint, set_up, timed, Args, Record, Round, Verdict, WORKERS};
use crate::trace::{Tracer, OP};
use meander_fleet::{route_fleet, BoardSet, FleetConfig, FleetReport, FleetSession, Scheduler};
use meander_layout::gen::{fleet_boards, nth_edit, FleetCase};
use meander_layout::io::save_board;
use meander_layout::{Edit, EditScope, Obstacle};
use std::collections::VecDeque;
use std::sync::Arc;

/// Edit kinds, as the designer's mix schedules them.
#[derive(Clone, Copy)]
enum Kind {
    BoardMove,
    LibraryMove,
    Add,
    Remove,
    Rules,
    Replace,
}

impl Kind {
    fn of(edit: &Edit) -> Kind {
        match edit {
            Edit::MoveObstacle {
                scope: EditScope::Library(_),
                ..
            } => Kind::LibraryMove,
            Edit::MoveObstacle { .. } => Kind::BoardMove,
            Edit::AddObstacle { .. } => Kind::Add,
            Edit::RemoveObstacle { .. } => Kind::Remove,
            Edit::SetRules { .. } => Kind::Rules,
            Edit::ReplaceBoard { .. } => Kind::Replace,
        }
    }
}

/// The designer's edit mix, one round's 20 edits: the stream's own shares
/// (8 board moves, 2 library moves, 3 adds, 2 removes, 2 rule edits, 3
/// board swaps), held exactly so that a run's share of heavy library edits
/// does not swing with the seed.
#[rustfmt::skip]
const MIX: [Kind; 20] = {
    use Kind::*;
    [
        BoardMove, Add, Replace, BoardMove, Remove, Rules, BoardMove, LibraryMove, Add, BoardMove,
        Replace, BoardMove, Remove, BoardMove, Rules, Add, BoardMove, LibraryMove, Replace, BoardMove,
    ]
};

/// The edit stream's seed, fixed like the library's: `--seed` draws the
/// boards. A library move's cost depends on which obstacle moves and how
/// far (10–250 ms on a 2-CPU host), so redrawing the moves per seed would
/// swing a run's edit latencies by a quarter.
const EDIT_SEED: u64 = 42;

/// The obstacles `scope` names in the case as generated.
fn obstacles(case: &FleetCase, scope: EditScope) -> &[Obstacle] {
    match scope {
        EditScope::Library(_) => case.library.obstacles(),
        EditScope::Board(b) => case.boards[b % case.boards.len()].board().obstacles(),
    }
}

/// The edit stream (`nth_edit`), dealt out in `MIX` order. A removal is
/// retargeted at the last obstacle of its list, so that its undo (an
/// append) restores the list exactly; removals from empty lists are
/// skipped.
#[derive(Default)]
struct Schedule {
    drawn: usize,
    queued: [VecDeque<Edit>; 6],
}

impl Schedule {
    /// The next unused edit of the stream whose kind is `want`.
    fn next(&mut self, case: &FleetCase, want: Kind) -> Edit {
        loop {
            if let Some(e) = self.queued[want as usize].pop_front() {
                return e;
            }
            let e = match nth_edit(case, EDIT_SEED, self.drawn) {
                Edit::RemoveObstacle { scope, .. } => match obstacles(case, scope).len() {
                    0 => None,
                    len => Some(Edit::RemoveObstacle {
                        scope,
                        index: len - 1,
                    }),
                },
                e => Some(e),
            };
            self.drawn += 1;
            if let Some(e) = e {
                self.queued[Kind::of(&e) as usize].push_back(e);
            }
        }
    }
}

/// The edit that takes the fleet back to the case as generated after
/// `edit`, made from that state (a move's undo, up to rounding).
fn undo(case: &FleetCase, edit: &Edit) -> Edit {
    let original = |b: usize| case.boards[b % case.boards.len()].board();
    match edit {
        Edit::MoveObstacle { scope, index, by } => Edit::MoveObstacle {
            scope: *scope,
            index: *index,
            by: -*by,
        },
        Edit::AddObstacle { scope, .. } => Edit::RemoveObstacle {
            scope: *scope,
            index: obstacles(case, *scope).len(),
        },
        Edit::RemoveObstacle { scope, index } => Edit::AddObstacle {
            scope: *scope,
            obstacle: obstacles(case, *scope)[*index].clone(),
        },
        Edit::SetRules { board, .. } => Edit::SetRules {
            board: *board,
            rules: *original(*board)
                .traces()
                .next()
                .expect("fleet boards have traces")
                .1
                .rules(),
        },
        Edit::ReplaceBoard { board, .. } => Edit::ReplaceBoard {
            board: *board,
            replacement: Box::new(original(*board).clone()),
        },
    }
}

/// The boards whose routed text and DRC verdict an edit can change: the
/// edited board, or every board on the edited (single, shared) library.
fn affected(edit: &Edit, n: usize) -> Vec<usize> {
    match edit {
        Edit::MoveObstacle { scope, .. }
        | Edit::AddObstacle { scope, .. }
        | Edit::RemoveObstacle { scope, .. } => match scope {
            EditScope::Board(b) => vec![b % n],
            EditScope::Library(_) => (0..n).collect(),
        },
        Edit::SetRules { board, .. } | Edit::ReplaceBoard { board, .. } => vec![board % n],
    }
}

fn fingerprints(report: &FleetReport, set: &BoardSet) -> Vec<u64> {
    set.boards()
        .iter()
        .enumerate()
        .map(|(b, lb)| {
            fingerprint(
                report.outcomes[b].is_routed(),
                &report.reports[b],
                lb.board(),
            )
        })
        .collect()
}

pub fn run(args: &Args) -> (Record, Tracer) {
    let n = if args.tiny { 6 } else { 200 };
    let mut rec = Record::default();
    // Set-up ends with the fleet routed once, ready to serve edits.
    let (case, config, mut session) = set_up(&mut rec, || {
        let case = fleet_boards(n, LIBRARY_SEED, args.seed);
        let boards = FleetText::new(&case).load();
        let config = FleetConfig {
            workers: Some(WORKERS),
            share_library: true,
            sched: Some(Arc::new(Scheduler::new(WORKERS))),
            ..FleetConfig::default()
        };
        let session = FleetSession::new(BoardSet::new(boards), &config);
        (case, config, session)
    });
    let initial = session.report();
    assert!(initial.all_routed(), "the generated fleet routes");
    for (b, reports) in initial.reports.iter().enumerate() {
        rec.errors(b, reports);
    }
    rec.board_lat = vec![Vec::new(); n];

    let mut tracer = Tracer::new("session-edit", args.trace);
    let mut schedule = Schedule::default();
    let mut edit_op = |edit: Edit, t: &mut Tracer, rec: &mut Record| -> (f64, usize) {
        let boards = affected(&edit, n);
        t.open(OP);
        let (out, wall) = timed(|| {
            let _ = t.span("fleet.session.apply_edit", 1, || session.apply_edit(edit));
            let (report, reroute_s) = t.span("fleet.session.reroute", 1, || {
                timed(|| session.reroute_dirty(&config))
            });
            let routed = session.boards().boards();
            let violations: Vec<usize> = t.span("drc.check", boards.len(), || {
                boards
                    .iter()
                    .map(|&b| routed[b].to_board().check().len())
                    .collect()
            });
            let saved: Vec<String> = t.span("layout.io.save", boards.len(), || {
                boards
                    .iter()
                    .map(|&b| save_board(routed[b].board()).expect("names unchanged by routing"))
                    .collect()
            });
            (report, reroute_s, violations, saved)
        });
        t.close(1);
        let (report, reroute_s, violations, saved) = out;

        let s = &report.stats;
        t.count(
            "layout.io.save_bytes",
            saved.iter().map(String::len).sum::<usize>() as f64,
        );
        t.count("drc.violations", violations.iter().sum::<usize>() as f64);
        t.count("fleet.session.units_dirty", s.units_dirty as f64);
        t.count("fleet.session.units_skipped", s.units_skipped as f64);
        t.count("fleet.session.cells_dirty", s.cells_dirty as f64);
        t.count("fleet.session.boards_replanned", s.boards_replanned as f64);
        record_fleet_stats(t, s, reroute_s);
        record_reports(t, boards.iter().flat_map(|&b| &report.reports[b]));
        rec.op(t, wall, boards.iter().copied());

        // An edit fails when an affected board is not routed, or ends
        // DRC-dirty although the edited input is clean.
        let wrong = boards.iter().any(|&b| !report.outcomes[b].is_routed());
        let mut clean = InputClean::new(n);
        let mut pristine = None;
        let dirty = boards.iter().zip(&violations).any(|(&b, &v)| {
            v > 0
                && clean.get(b, || {
                    pristine.get_or_insert_with(|| session.pristine_boards())[b].to_board()
                })
        });
        rec.verdicts.push(Verdict { wrong, dirty });
        (wall, boards.len())
    };
    // A round is one pass through the mix, each edit followed by its undo,
    // so every edit starts from the case as generated and the rounds draw
    // alike however many of them a run makes.
    let mut round = |t: &mut Tracer, rec: &mut Record| -> Round {
        let mut round = Round::default();
        for &kind in &MIX {
            let edit = schedule.next(&case, kind);
            let undo = undo(&case, &edit);
            for op in [edit, undo] {
                let (wall, boards) = edit_op(op, t, rec);
                round.add(wall, boards);
            }
        }
        round
    };
    // One untimed warm-up round, checked like the rest.
    round(&mut tracer, &mut rec);
    rec.forget_timings();
    rec.rounds = args.drive(&mut tracer, |_, t| round(t, &mut rec));

    // The served state must equal a from-scratch route of the edited fleet.
    let mut scratch = BoardSet::new(session.pristine_boards());
    let want = route_fleet(&mut scratch, &config);
    let served = fingerprints(&session.report(), session.boards());
    rec.verdicts.push(Verdict {
        wrong: served != fingerprints(&want, &scratch),
        dirty: false,
    });
    (rec, tracer)
}
