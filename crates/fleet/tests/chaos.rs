//! Chaos properties (feature `fault`): the fleet's failure domains hold
//! under deterministic fault injection.
//!
//! The contract under test, from the engine's module docs: one bad board
//! costs exactly one board. Concretely, for ANY seeded [`FaultPlan`],
//! worker count, and sharing mode:
//!
//! * every unaffected board routes **bit-identically** to its sequential
//!   per-board reference;
//! * every affected board keeps its input geometry untouched and reports
//!   a typed [`BoardOutcome`] saying why;
//! * the outcome vector itself is identical across worker counts (faults
//!   key on input order, not execution order);
//! * the process survives — a panicking job never takes down the pool.
//!
//! Run with `cargo test -p meander-fleet --features fault`.
#![cfg(feature = "fault")]

use meander_core::{match_all_groups, plan_board_units, ExtendConfig};
use meander_fleet::{
    route_fleet, BoardOutcome, BoardSet, CancelToken, FaultPlan, FleetConfig, JobError,
};
use meander_geom::{Point, Polygon, Polyline};
use meander_layout::gen::fleet_boards_small;
use meander_layout::{
    Board, LibraryBoard, MatchGroup, Obstacle, ObstacleKind, TraceId, ValidationError,
};
use std::sync::Once;
use std::time::{Duration, Instant};

/// Silences the default panic hook for *injected* panics only, so chaos
/// runs don't spray backtraces over the test output. Real panics (test
/// assertions included) still print through the previous hook.
fn quiet_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected fault") {
                prev(info);
            }
        }));
    });
}

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

/// Routes `lb`'s materialized twin sequentially and returns the board —
/// the bit-identity reference for one fleet board.
fn sequential_twin(lb: &LibraryBoard) -> Board {
    let mut board = lb.to_board();
    let _ = match_all_groups(&mut board, &serial_extend());
    board
}

/// Asserts `got`'s local geometry equals `want`'s, vertex for vertex, by
/// float *bits* — the actual contract, and the only comparison that holds
/// for deliberately NaN-poisoned boards (`NaN != NaN` under `==`).
fn assert_geometry(label: &str, want: &Board, got: &Board) {
    for (id, t) in want.traces() {
        let g = got.trace(id).expect("trace");
        let wp = t.centerline().points();
        let gp = g.centerline().points();
        assert_eq!(wp.len(), gp.len(), "{label}: trace {id:?} vertex count");
        for (i, (a, b)) in wp.iter().zip(gp).enumerate() {
            assert_eq!(
                (a.x.to_bits(), a.y.to_bits()),
                (b.x.to_bits(), b.y.to_bits()),
                "{label}: trace {id:?} vertex {i}: {a:?} vs {b:?}"
            );
        }
    }
}

/// The global input-order index of `board`'s first unit, plus its unit
/// count — how a [`FaultPlan`] targets one board's units.
fn unit_span(boards: &[LibraryBoard], board: usize) -> (u64, u64) {
    let units_of = |lb: &LibraryBoard| -> u64 {
        plan_board_units(lb.board())
            .iter()
            .map(|(_, units)| units.len() as u64)
            .sum()
    };
    let base: u64 = boards[..board].iter().map(&units_of).sum();
    (base, units_of(&boards[board]))
}

/// The acceptance scenario: one board panics mid-route, one board is
/// malformed, and the fleet still returns a typed outcome for every
/// board with the healthy ones routed bit-identically.
#[test]
fn panicking_and_malformed_boards_fail_alone() {
    quiet_injected_panics();
    let fleet = fleet_boards_small(4, 21, 42);
    let mut boards = fleet.boards.clone();
    // Malform board 2: NaN coordinate on its first trace.
    {
        let board = boards[2].board_mut();
        let id = board.traces().next().map(|(id, _)| id).expect("trace");
        let trace = board.trace_mut(id).expect("trace");
        let mut pts = trace.centerline().points().to_vec();
        pts[0] = Point::new(f64::NAN, pts[0].y);
        trace.set_centerline(Polyline::new(pts));
    }
    let input_snapshot: Vec<Board> = boards.iter().map(|lb| lb.board().clone()).collect();
    // Panic at the first unit of board 1 (input-order index: board 2 is
    // rejected before planning, but board 1 precedes it, so its span is
    // unaffected).
    let (base, len) = unit_span(&boards, 1);
    assert!(len > 0, "board 1 must have routable units");
    let plan = FaultPlan::new().panic_at_unit(base);

    for workers in 1..=4 {
        let mut set = BoardSet::new(boards.clone());
        let report = route_fleet(
            &mut set,
            &FleetConfig {
                fault: plan.clone(),
                ..config(workers, true)
            },
        );
        // Process alive, one outcome per board.
        assert_eq!(report.outcomes.len(), 4, "workers={workers}");
        match &report.outcomes[1] {
            BoardOutcome::Failed(JobError::Panicked {
                group,
                unit,
                message,
            }) => {
                assert_eq!(*group, 0, "first group panicked");
                // The diagnostics pin the crash to the unit that was running.
                assert_eq!(*unit, Some(0), "workers={workers}");
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("workers={workers}: board 1 should fail, got {other:?}"),
        }
        assert!(matches!(
            report.outcomes[2],
            BoardOutcome::Rejected(ValidationError::NonFiniteCoordinate { .. })
        ));
        assert!(report.outcomes[0].is_routed(), "workers={workers}");
        assert!(report.outcomes[3].is_routed(), "workers={workers}");
        assert_eq!(report.stats.failed, 1);
        assert_eq!(report.stats.rejected, 1);
        assert_eq!(report.stats.routed, 2);
        assert_eq!(report.stats.scheduler.total_panics(), 1);

        // Healthy boards: bit-identical to their sequential twins.
        for b in [0usize, 3] {
            let want = sequential_twin(&fleet.boards[b]);
            assert_geometry(
                &format!("workers={workers} board {b}"),
                &want,
                set.boards()[b].board(),
            );
            assert!(!report.reports[b].is_empty());
        }
        // Affected boards: geometry exactly as submitted.
        for b in [1usize, 2] {
            assert_geometry(
                &format!("workers={workers} board {b} untouched"),
                &input_snapshot[b],
                set.boards()[b].board(),
            );
            assert!(report.reports[b].is_empty());
        }
    }
}

/// Seeded chaos sweep: random panic/delay/trip plans across worker
/// counts and sharing modes. Outcomes must be invariant across workers,
/// routed boards bit-identical to sequential, affected boards untouched.
#[test]
fn seeded_fault_plans_preserve_the_per_board_contract() {
    quiet_injected_panics();
    for seed in [1u64, 7, 1234, 0xC0FFEE] {
        let fleet = fleet_boards_small(5, seed.wrapping_mul(3) % 97 + 1, seed % 89 + 1);
        let input_snapshot: Vec<Board> = fleet.boards.iter().map(|lb| lb.board().clone()).collect();
        let twins: Vec<Board> = fleet.boards.iter().map(sequential_twin).collect();
        // Shape the plan on the clean run's dimensions.
        let (units, jobs) = {
            let mut probe = BoardSet::new(fleet.boards.clone());
            let stats = route_fleet(&mut probe, &config(1, true)).stats;
            (stats.units as u64, stats.jobs as u64)
        };
        let plan = FaultPlan::seeded(seed, units, jobs, fleet.boards.len());

        let mut reference_outcomes: Option<Vec<BoardOutcome>> = None;
        for share in [true, false] {
            for workers in 1..=4 {
                let label = format!("seed={seed} share={share} workers={workers}");
                let mut set = BoardSet::new(fleet.boards.clone());
                let report = route_fleet(
                    &mut set,
                    &FleetConfig {
                        fault: plan.clone(),
                        ..config(workers, share)
                    },
                );
                assert_eq!(report.outcomes.len(), 5, "{label}");
                // The outcome vector is a pure function of the plan —
                // identical for every scheduling.
                match &reference_outcomes {
                    None => reference_outcomes = Some(report.outcomes.clone()),
                    Some(want) => assert_eq!(want, &report.outcomes, "{label}"),
                }
                // Stats partition the fleet.
                let s = &report.stats;
                assert_eq!(
                    s.routed + s.rejected + s.failed + s.cancelled + s.deadline_exceeded,
                    5,
                    "{label}"
                );
                for (b, outcome) in report.outcomes.iter().enumerate() {
                    if outcome.is_routed() {
                        assert_geometry(&label, &twins[b], set.boards()[b].board());
                        assert!(!report.reports[b].is_empty(), "{label} board {b}");
                    } else {
                        assert_geometry(&label, &input_snapshot[b], set.boards()[b].board());
                        assert!(report.reports[b].is_empty(), "{label} board {b}");
                    }
                }
            }
        }
        let outcomes = reference_outcomes.expect("at least one run");
        // The seeded plan trips exactly one board's validation.
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| matches!(o, BoardOutcome::Rejected(ValidationError::Injected { .. })))
                .count(),
            1,
            "seed={seed}: {outcomes:?}"
        );
    }
}

/// Cancellation fired mid-run stops the fleet within one unit's work:
/// a scripted pop delay holds the first job open while the token fires,
/// and everything after the trip is cancelled, geometry untouched.
#[test]
fn mid_run_cancellation_stops_within_one_unit() {
    quiet_injected_panics();
    let fleet = fleet_boards_small(4, 31, 17);
    let input_snapshot: Vec<Board> = fleet.boards.iter().map(|lb| lb.board().clone()).collect();
    let token = CancelToken::new();
    let remote = token.clone();
    let plan = FaultPlan::new().delay_at_pop(0, Duration::from_millis(120));
    let firing = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        remote.cancel();
    });
    let t0 = Instant::now();
    let mut set = BoardSet::new(fleet.boards.clone());
    let report = route_fleet(
        &mut set,
        &FleetConfig {
            cancel: Some(token),
            fault: plan,
            ..config(1, true)
        },
    );
    let elapsed = t0.elapsed();
    firing.join().expect("cancel thread");
    // The token fired during job 0's scripted sleep; its first unit
    // boundary observes it, so no unit ever runs and every board is
    // cancelled with its geometry untouched.
    assert!(
        report
            .outcomes
            .iter()
            .all(|o| matches!(o, BoardOutcome::Cancelled)),
        "{:?}",
        report.outcomes
    );
    assert_eq!(report.stats.cancelled, 4);
    assert_eq!(report.stats.units_run, 0);
    for (b, snap) in input_snapshot.iter().enumerate() {
        assert_geometry(&format!("board {b}"), snap, set.boards()[b].board());
    }
    // Drained promptly: the delay plus scheduling slack, nowhere near a
    // full fleet route.
    assert!(elapsed < Duration::from_secs(5), "{elapsed:?}");
}

/// Validation rejects each malformed mutation with the right typed error
/// while the rest of the fleet routes bit-identically.
#[test]
fn malformed_mutations_are_rejected_with_provenance() {
    quiet_injected_panics();
    type Mutate = fn(&mut Board);
    type Expect = fn(&ValidationError) -> bool;
    let cases: Vec<(&str, Mutate, Expect)> = vec![
        (
            "nan-coordinate",
            |board| {
                let id = board.traces().next().map(|(id, _)| id).expect("trace");
                let trace = board.trace_mut(id).expect("trace");
                let mut pts = trace.centerline().points().to_vec();
                pts[0] = Point::new(f64::NAN, pts[0].y);
                trace.set_centerline(Polyline::new(pts));
            },
            |e| matches!(e, ValidationError::NonFiniteCoordinate { .. }),
        ),
        (
            "degenerate-obstacle",
            |board| {
                board.add_obstacle(Obstacle::new(
                    Polygon::new(vec![
                        Point::new(1.0, 1.0),
                        Point::new(2.0, 2.0),
                        Point::new(3.0, 3.0),
                    ]),
                    ObstacleKind::Keepout,
                ));
            },
            |e| matches!(e, ValidationError::DegeneratePolygon { .. }),
        ),
        (
            "empty-group",
            |board| board.add_group(MatchGroup::new("hollow", vec![])),
            |e| matches!(e, ValidationError::EmptyGroup { .. }),
        ),
        (
            "dangling-member",
            |board| board.add_group(MatchGroup::new("ghost", vec![TraceId(999)])),
            |e| matches!(e, ValidationError::UnknownGroupMember { member: 999, .. }),
        ),
        (
            "overlapping-groups",
            |board| {
                let shared = board.groups()[0].members()[..2].to_vec();
                board.add_group(MatchGroup::new("overlap", shared));
            },
            |e| matches!(e, ValidationError::OverlappingGroups { .. }),
        ),
        (
            "nan-gap-rule",
            |board| {
                let id = board.traces().next().map(|(id, _)| id).expect("trace");
                let trace = board.trace_mut(id).expect("trace");
                let mut rules = *trace.rules();
                rules.gap = f64::NAN;
                trace.set_rules(rules);
            },
            |e| matches!(e, ValidationError::BadRules { .. }),
        ),
        (
            "far-vertex",
            |board| {
                let id = board.traces().next().map(|(id, _)| id).expect("trace");
                let trace = board.trace_mut(id).expect("trace");
                let mut pts = trace.centerline().points().to_vec();
                let last = pts.len() - 1;
                pts[last] = Point::new(pts[last].x + 1e8, pts[last].y);
                trace.set_centerline(Polyline::new(pts));
            },
            |e| matches!(e, ValidationError::OutsideOutline { .. }),
        ),
    ];

    for (name, mutate, expect) in cases {
        let fleet = fleet_boards_small(3, 11, 23);
        let twins: Vec<Board> = fleet.boards.iter().map(sequential_twin).collect();
        let mut boards = fleet.boards.clone();
        mutate(boards[1].board_mut());
        let poisoned = boards[1].board().clone();
        let mut set = BoardSet::new(boards);
        let report = route_fleet(&mut set, &config(2, true));
        match &report.outcomes[1] {
            BoardOutcome::Rejected(err) => assert!(expect(err), "{name}: {err}"),
            other => panic!("{name}: expected rejection, got {other:?}"),
        }
        assert_eq!(report.stats.rejected, 1, "{name}");
        assert_eq!(report.stats.routed, 2, "{name}");
        assert_geometry(
            &format!("{name} untouched"),
            &poisoned,
            set.boards()[1].board(),
        );
        for b in [0usize, 2] {
            assert_geometry(
                &format!("{name} board {b}"),
                &twins[b],
                set.boards()[b].board(),
            );
        }
    }
}

/// Per-board busy budgets expire slow boards without touching fast ones.
/// With a 1 ns budget and one worker (deterministic serial order), the
/// first unit of each board runs — the budget is polled *before* each
/// unit, and nothing is charged yet — and every later unit of that board
/// halts. So boards with one unit still route; boards with more exceed
/// their deadline, geometry untouched.
#[test]
fn board_budget_expires_at_unit_boundaries() {
    quiet_injected_panics();
    let fleet = fleet_boards_small(3, 5, 9);
    let input_snapshot: Vec<Board> = fleet.boards.iter().map(|lb| lb.board().clone()).collect();
    let spans: Vec<u64> = (0..3).map(|b| unit_span(&fleet.boards, b).1).collect();
    assert!(
        spans.iter().any(|&len| len >= 2),
        "need at least one multi-unit board: {spans:?}"
    );
    let mut set = BoardSet::new(fleet.boards.clone());
    let report = route_fleet(
        &mut set,
        &FleetConfig {
            board_budget: Some(Duration::from_nanos(1)),
            ..config(1, true)
        },
    );
    for (b, &len) in spans.iter().enumerate() {
        if len >= 2 {
            assert!(
                matches!(report.outcomes[b], BoardOutcome::DeadlineExceeded),
                "board {b} ({len} units): {:?}",
                report.outcomes[b]
            );
            assert_geometry(
                &format!("board {b} untouched"),
                &input_snapshot[b],
                set.boards()[b].board(),
            );
        } else {
            assert!(report.outcomes[b].is_routed(), "board {b}");
        }
    }
    // An unbudgeted run of the same fleet routes everything.
    let mut set = BoardSet::new(fleet.boards);
    let report = route_fleet(&mut set, &config(1, true));
    assert!(report.all_routed(), "{:?}", report.outcomes);
}
