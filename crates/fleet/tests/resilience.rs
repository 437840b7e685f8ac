//! Resilience properties (feature `fault`): the recovery layer's outcome
//! vector — including which boards the retry recovered and which were
//! shed — is a pure function of the input and the fault plan.
//!
//! The contract under test, from `resilience`'s module docs:
//!
//! * transient faults (panic on attempt 0 only) are recovered by the
//!   one same-knob retry as [`BoardOutcome::Degraded`], with geometry
//!   bit-identical to the sequential reference;
//! * the fleet-wide retry token bucket sheds starved retries as
//!   [`ShedReason::RetryTokens`], deterministically in input order;
//! * boards that panic on both attempts are quarantined with a
//!   delta-debugged minimal repro that still crashes the probe;
//! * all of it is invariant across worker counts 1–4 and both sharing
//!   modes, and the process always survives.
//!
//! Run with `cargo test -p meander-fleet --features fault`.
#![cfg(feature = "fault")]

use meander_core::{match_all_groups, plan_board_units, ExtendConfig};
use meander_fleet::{
    route_fleet, route_fleet_resilient, BoardOutcome, BoardSet, FaultPlan, FleetConfig, JobError,
    RetryPolicy, ShedReason,
};
use meander_layout::gen::fleet_boards_small;
use meander_layout::io::load_board;
use meander_layout::{Board, LibraryBoard};
use std::sync::Once;
use std::time::Duration;

/// Silences the default panic hook for *injected* panics only (same
/// helper as the chaos suite).
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

/// Routes `lb`'s materialized twin sequentially — the bit-identity
/// reference for one fleet board.
fn sequential_twin(lb: &LibraryBoard) -> Board {
    let mut board = lb.to_board();
    let _ = match_all_groups(&mut board, &serial_extend());
    board
}

/// Bit-exact geometry comparison (see the chaos suite for why `to_bits`).
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
                "{label}: trace {id:?} vertex {i}"
            );
        }
    }
}

/// Global input-order index of `board`'s first unit, plus its unit count.
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

/// Library obstacles + local obstacles + traces + groups + pairs: the
/// quantity repro minimization shrinks.
fn entity_count(lb: &LibraryBoard) -> usize {
    lb.library().len()
        + lb.board().obstacles().len()
        + lb.board().trace_count()
        + lb.board().groups().len()
        + lb.board().pairs().len()
}

/// The acceptance scenario: a fleet where 25% of the boards (2 of 8) hit
/// a transient first-attempt panic recovers every board — the faulted
/// ones as `Degraded` after two attempts — with identical
/// outcome vectors for every worker count and sharing mode, recovered
/// geometry bit-identical to sequential, and zero process deaths.
#[test]
fn transient_panics_recover_on_the_retry_rung() {
    quiet_injected_panics();
    let fleet = fleet_boards_small(8, 13, 29);
    let twins: Vec<Board> = fleet.boards.iter().map(sequential_twin).collect();
    let faulted = [0usize, 4];
    let jobs = {
        let mut probe = BoardSet::new(fleet.boards.clone());
        route_fleet(&mut probe, &config(1, true)).stats.jobs as u64
    };
    // Transient panic at each faulted board's first unit, attempt 0 only,
    // plus bounded seeded pop jitter on every job to widen race windows.
    let mut plan = FaultPlan::new().jittered_delays(77, jobs, Duration::from_micros(300));
    for &b in &faulted {
        plan = plan.panic_at_unit_on_attempt(unit_span(&fleet.boards, b).0, 0);
    }

    let mut reference: Option<Vec<BoardOutcome>> = None;
    for share in [true, false] {
        for workers in 1..=4 {
            let label = format!("share={share} workers={workers}");
            let mut set = BoardSet::new(fleet.boards.clone());
            let resilient = route_fleet_resilient(
                &mut set,
                &FleetConfig {
                    fault: plan.clone(),
                    ..config(workers, share)
                },
                &RetryPolicy::default(),
            );
            let report = &resilient.report;
            // Outcome vector invariant across schedulings.
            match &reference {
                None => reference = Some(report.outcomes.clone()),
                Some(want) => assert_eq!(want, &report.outcomes, "{label}"),
            }
            // Everything recovered: 6 routed + 2 degraded ≥ the 75%
            // healthy share, no board lost.
            assert_eq!(report.stats.routed, 6, "{label}");
            assert_eq!(report.stats.degraded, 2, "{label}");
            assert_eq!(report.stats.retries, 2, "{label}");
            assert_eq!(report.stats.shed + report.stats.failed, 0, "{label}");
            assert!(resilient.quarantine.is_empty(), "{label}");
            for (b, outcome) in report.outcomes.iter().enumerate() {
                if faulted.contains(&b) {
                    assert_eq!(*outcome, BoardOutcome::Degraded, "{label} board {b}");
                    // The journal tells the story: failed once, retried clean.
                    let j = &resilient.journals[b];
                    assert_eq!(j.attempts.len(), 2, "{label} board {b}");
                    assert!(
                        matches!(j.attempts[0].outcome, BoardOutcome::Failed(_)),
                        "{label} board {b}"
                    );
                    assert_eq!(j.attempts[1].attempt, 1);
                    assert!(j.attempts[1].outcome.is_routed());
                } else {
                    assert!(outcome.is_routed(), "{label} board {b}: {outcome:?}");
                    assert_eq!(resilient.journals[b].attempts.len(), 1);
                }
                // The retry keeps the knobs, so EVERY board —
                // including the recovered ones — is bit-identical to its
                // sequential twin.
                assert_geometry(
                    &format!("{label} board {b}"),
                    &twins[b],
                    set.boards()[b].board(),
                );
                assert!(!report.reports[b].is_empty(), "{label} board {b}");
            }
        }
    }
}

/// Token-bucket exhaustion: with one retry token and two failing boards,
/// the first (input order) recovers and the second is shed as
/// `RetryTokens` — deterministically, with its failed attempt journaled.
#[test]
fn retry_token_exhaustion_sheds_in_input_order() {
    quiet_injected_panics();
    let fleet = fleet_boards_small(6, 3, 19);
    let faulted = [1usize, 4];
    let mut plan = FaultPlan::new();
    for &b in &faulted {
        plan = plan.panic_at_unit_on_attempt(unit_span(&fleet.boards, b).0, 0);
    }
    let policy = RetryPolicy {
        retry_tokens: 1,
        ..Default::default()
    };
    let mut reference: Option<Vec<BoardOutcome>> = None;
    for share in [true, false] {
        for workers in 1..=4 {
            let label = format!("share={share} workers={workers}");
            let mut set = BoardSet::new(fleet.boards.clone());
            let resilient = route_fleet_resilient(
                &mut set,
                &FleetConfig {
                    fault: plan.clone(),
                    ..config(workers, share)
                },
                &policy,
            );
            match &reference {
                None => reference = Some(resilient.report.outcomes.clone()),
                Some(want) => assert_eq!(want, &resilient.report.outcomes, "{label}"),
            }
            // Board 1 won the only token; board 4's retry was starved.
            assert_eq!(
                resilient.report.outcomes[1],
                BoardOutcome::Degraded,
                "{label}"
            );
            assert_eq!(resilient.journals[1].attempts.len(), 2, "{label}");
            assert!(
                matches!(
                    resilient.report.outcomes[4],
                    BoardOutcome::Shed(ShedReason::RetryTokens)
                ),
                "{label}: {:?}",
                resilient.report.outcomes[4]
            );
            assert_eq!(resilient.report.stats.retries, 1, "{label}");
            assert_eq!(resilient.report.stats.shed, 1, "{label}");
            assert_eq!(resilient.report.stats.degraded, 1, "{label}");
            // The shed board's journal keeps its real failure history.
            let j = &resilient.journals[4];
            assert_eq!(j.attempts.len(), 1, "{label}");
            assert!(matches!(j.attempts[0].outcome, BoardOutcome::Failed(_)));
            // Shed ≠ quarantined: the board never ran its retry.
            assert!(resilient.quarantine.is_empty(), "{label}");
        }
    }
}

/// A poison board — panicking on every unit, every attempt — fails its
/// retry too, lands in quarantine with its panic provenance, and the
/// minimizer hands back a still-crashing repro at ≤ 25% of the original
/// entity count that round-trips through `layout::io`.
#[test]
fn poison_board_is_quarantined_with_a_minimized_repro() {
    quiet_injected_panics();
    let fleet = fleet_boards_small(4, 9, 33);
    let twins: Vec<Board> = fleet.boards.iter().map(sequential_twin).collect();
    let poison = 2usize;
    let (base, len) = unit_span(&fleet.boards, poison);
    assert!(len > 0);
    let mut plan = FaultPlan::new();
    for u in base..base + len {
        plan = plan.panic_at_unit(u);
    }
    let policy = RetryPolicy::default();
    let mut set = BoardSet::new(fleet.boards.clone());
    let resilient = route_fleet_resilient(
        &mut set,
        &FleetConfig {
            fault: plan.clone(),
            ..config(3, true)
        },
        &policy,
    );

    // Healthy boards rode through untouched by the poison neighbour.
    for b in [0usize, 1, 3] {
        assert!(resilient.report.outcomes[b].is_routed(), "board {b}");
        assert_geometry(&format!("board {b}"), &twins[b], set.boards()[b].board());
    }
    assert!(
        matches!(
            &resilient.report.outcomes[poison],
            BoardOutcome::Failed(JobError::Panicked { message, .. })
                if message.contains("injected fault")
        ),
        "{:?}",
        resilient.report.outcomes[poison]
    );
    // Both attempts ran, and both failed.
    let attempts = &resilient.journals[poison].attempts;
    assert_eq!(attempts.len(), 2);
    assert!(attempts
        .iter()
        .all(|a| matches!(a.outcome, BoardOutcome::Failed(_))));
    assert_eq!(resilient.report.stats.retries, 1);

    // Quarantine: one entry, with a minimized repro.
    assert_eq!(resilient.quarantine.entries.len(), 1);
    let entry = &resilient.quarantine.entries[0];
    assert_eq!(entry.board, poison);
    assert_eq!(resilient.journals[entry.board].attempts.len(), 2);
    let repro = entry.repro.as_ref().expect("minimized repro");
    assert_eq!(repro.original_entities, entity_count(&fleet.boards[poison]));
    assert!(
        repro.entities * 4 <= repro.original_entities,
        "minimized to {} of {} entities",
        repro.entities,
        repro.original_entities
    );
    assert!(repro.probes > 0);

    // The minimized board still reproduces the panic under the stored
    // probe plan — rerun it as a one-board fleet.
    let mut probe = BoardSet::new(vec![repro.board.clone()]);
    let probe_report = route_fleet(
        &mut probe,
        &FleetConfig {
            fault: entry.probe_plan.clone(),
            ..config(1, true)
        },
    );
    assert!(
        matches!(probe_report.outcomes[0], BoardOutcome::Failed(_)),
        "{:?}",
        probe_report.outcomes[0]
    );

    // And the serialized repro is a loadable bug report.
    let text = repro.text.as_ref().expect("serialized repro");
    let reloaded = load_board(text).expect("repro text loads");
    assert_eq!(
        reloaded.traces().count(),
        repro.board.board().traces().count()
    );
}
