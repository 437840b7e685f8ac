//! Outcome-driven resilience over [`route_fleet`]: one retry, overload
//! shedding, and poison-board quarantine.
//!
//! PR 6 made failure *visible* — every board comes back with a
//! [`BoardOutcome`] — but the fleet still gave up on first failure. A
//! serving system must instead **recover**: retry what was transient,
//! shed what doesn't fit, and quarantine what keeps crashing.
//! [`route_fleet_resilient`] layers exactly that over the engine,
//! deterministically:
//!
//! * **Admission** ([`RetryPolicy::max_units`]) — before anything runs, boards
//!   are admitted first-fit in input order against a global in-flight
//!   unit budget; boards over budget come back
//!   [`BoardOutcome::Shed`]`(`[`ShedReason::Admission`]`)` — refused
//!   loudly, never dropped silently. Admission is decided from the plan
//!   alone, so the shed set is invariant across worker counts.
//! * **One retry** — a board whose first attempt failed (panic) or blew
//!   a deadline re-runs once, with the fleet's own knobs and budget. The
//!   engine is deterministic, so a retry recovers only transients
//!   (deadlines, injected faults); a deterministic failure is a bug to
//!   fix, not one to route around with another engine. A recovered board
//!   reports [`BoardOutcome::Degraded`]. First-attempt
//!   routed boards are never re-run, and a recovered board's geometry is
//!   bit-identical to sequential routing too.
//! * **Retry token bucket** ([`RetryPolicy::retry_tokens`]) — every
//!   re-run spends one fleet-wide token, so a fleet of poison boards can
//!   never multiply its own load unboundedly or starve fresh work; a
//!   board denied a token is shed as [`ShedReason::RetryTokens`] (its
//!   failed attempts stay in the journal).
//! * **Journal** ([`AttemptJournal`]) — every attempt of every board is
//!   recorded as (attempt, outcome, busy time), so triage never has to
//!   re-run the fleet to find out what was tried.
//! * **Quarantine** ([`Quarantine`]) — boards that panic on their first
//!   attempt and on the retry are reported with their final [`JobError`]
//!   and a delta-debugged minimal repro (`crate::repro::minimize`, at
//!   most `MAX_MINIMIZE_PROBES` probes) that still crashes the probe —
//!   serialized via `layout::io` for a bug report.
//!
//! ## Determinism
//!
//! Every decision above is a pure function of input order and per-run
//! outcomes: admission is first-fit over the input sequence, retries are
//! scheduled in board order, tokens are spent in that same order, and
//! the engine itself is deterministic per attempt. Under the `fault`
//! harness, injected faults key on input-order indices and retries re-run
//! with plans `FaultPlan::rebased` onto the board's own span — so the
//! full outcome vector (including which boards recovered and which
//! shed) is invariant across worker counts 1–N and both sharing modes (property-tested in
//! `tests/resilience.rs`).
//!
//! ```
//! use meander_fleet::{route_fleet_resilient, BoardSet, FleetConfig, RetryPolicy};
//! use meander_layout::gen::fleet_boards_small;
//!
//! let mut set = BoardSet::new(fleet_boards_small(3, 7, 11).boards);
//! let resilient =
//!     route_fleet_resilient(&mut set, &FleetConfig::default(), &RetryPolicy::default());
//! // Healthy fleet: nothing retried, nothing shed, nothing quarantined.
//! assert!(resilient.report.all_routed());
//! assert_eq!(resilient.report.stats.retries, 0);
//! assert!(resilient.quarantine.entries.is_empty());
//! println!("{}", resilient.report.summary());
//! ```

use crate::engine::{route_fleet, BoardSet, FleetConfig, FleetReport};
#[cfg(feature = "fault")]
use crate::fault::FaultPlan;
use crate::outcome::{BoardOutcome, JobError, ShedReason};
use crate::repro::{minimize, MinimizedRepro};
use meander_core::{plan_board_units, GroupReport};
use meander_layout::{Board, LibraryBoard, ObstacleLibrary};
use std::sync::Arc;
use std::time::Duration;

/// A board's slice of the first run's input-order numbering:
/// `((unit_base, unit_len), (job_base, job_len))`, `None` for boards the
/// engine never numbered (not admitted, or rejected).
#[cfg(feature = "fault")]
type FaultSpan = Option<((u64, u64), (u64, u64))>;

/// The recovery policy: the two budgets that keep a fleet from
/// amplifying its own failures.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Global in-flight unit budget. Boards are admitted first-fit in
    /// input order while their planned units fit; the rest are
    /// [`BoardOutcome::Shed`]`(`[`ShedReason::Admission`]`)`. `None`
    /// admits everything.
    pub max_units: Option<usize>,
    /// Fleet-wide retry token bucket: every board re-run spends one
    /// token. An empty bucket sheds the would-be retry as
    /// [`ShedReason::RetryTokens`] — retries can never starve fresh
    /// boards of a later run's budget.
    pub retry_tokens: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_units: None,
            retry_tokens: 64,
        }
    }
}

/// Probe budget per quarantined board for repro minimization: at worst
/// this many single-board probe runs.
const MAX_MINIMIZE_PROBES: usize = 256;

/// One attempt of one board, as the journal records it.
#[derive(Debug, Clone)]
pub struct AttemptRecord {
    /// Attempt number (0 = the first run, 1 = the retry).
    pub attempt: u32,
    /// What the attempt itself returned (before any relabeling to
    /// [`BoardOutcome::Degraded`] / [`BoardOutcome::Shed`]).
    pub outcome: BoardOutcome,
    /// Busy time the attempt charged to this board.
    pub busy: Duration,
}

/// Every attempt run for one board, in order. Boards shed at admission
/// have an empty attempt list — they never ran.
#[derive(Debug, Clone)]
pub struct AttemptJournal {
    /// Board index (submission order).
    pub board: usize,
    /// The attempts, first run included.
    pub attempts: Vec<AttemptRecord>,
}

/// One poison board: it panicked on its first attempt and on the retry.
#[derive(Debug)]
pub struct QuarantineEntry {
    /// Board index (submission order).
    pub board: usize,
    /// The final attempt's panic provenance. Both attempts are in the
    /// board's [`AttemptJournal`].
    pub error: JobError,
    /// Minimal still-crashing repro (present when the failure reproduced
    /// under the single-board probe).
    pub repro: Option<MinimizedRepro>,
    /// The fault plan the quarantine probe ran with (this board's slice
    /// of the run's plan, rebased to a one-board fleet at attempt 0) —
    /// lets a test or a bug report re-fire the exact injected failure
    /// against the minimized board.
    #[cfg(feature = "fault")]
    pub probe_plan: FaultPlan,
}

/// The poison-board report of one resilient run.
#[derive(Debug, Default)]
pub struct Quarantine {
    /// One entry per board that failed both attempts.
    pub entries: Vec<QuarantineEntry>,
}

impl Quarantine {
    /// `true` when no board was quarantined.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A resilient run's full result: the merged fleet report (final
/// outcomes), the per-board attempt journals, and the quarantine.
#[must_use = "the resilient report carries final outcomes, journals, and quarantined poison boards"]
#[derive(Debug)]
pub struct ResilientReport {
    /// Final per-board outcomes/reports/stats. `reports[b]` holds group
    /// reports for [`BoardOutcome::Routed`] *and*
    /// [`BoardOutcome::Degraded`] boards (from the recovering attempt).
    /// `stats.units`/`stats.jobs` describe the admitted first-attempt
    /// plan; retry work accumulates into `units_run`, `route_wall`,
    /// `retries`, and `board_busy`.
    pub report: FleetReport,
    /// `journals[b]` records every attempt board `b` ran.
    pub journals: Vec<AttemptJournal>,
    /// Boards that panicked on both attempts, with minimized repros.
    pub quarantine: Quarantine,
}

/// `true` for outcomes the retry may re-run: panics and blown
/// deadlines/budgets. Rejections (input is wrong), cancellations (caller
/// intent), and shed boards (overload) are final.
fn retryable(o: &BoardOutcome) -> bool {
    matches!(o, BoardOutcome::Failed(_) | BoardOutcome::DeadlineExceeded)
}

/// An inert stand-in used to move boards out of a set without cloning.
fn placeholder() -> LibraryBoard {
    LibraryBoard::new(Arc::new(ObstacleLibrary::default()), Board::default())
}

/// Routes exactly the boards `idx` of `set` as one fleet run. Boards move
/// out and back (no clones); the report is indexed by position in `idx`.
fn route_subset(set: &mut BoardSet, idx: &[usize], config: &FleetConfig) -> FleetReport {
    let mut sub_boards = Vec::with_capacity(idx.len());
    for &b in idx {
        sub_boards.push(std::mem::replace(&mut set.boards_mut()[b], placeholder()));
    }
    let mut sub = BoardSet::new(sub_boards);
    let report = route_fleet(&mut sub, config);
    for (slot, &b) in idx.iter().enumerate() {
        set.boards_mut()[b] = std::mem::replace(&mut sub.boards_mut()[slot], placeholder());
    }
    report
}

/// `true` when routing `cand` alone under `config` fails with a panic —
/// the quarantine probe. The engine's per-job `catch_unwind` is the
/// "failing closure under catch_unwind": a crash becomes
/// [`BoardOutcome::Failed`] and the probe process survives.
fn probe_fails(config: &FleetConfig, cand: &LibraryBoard) -> bool {
    let mut s = BoardSet::new(vec![cand.clone()]);
    let r = route_fleet(&mut s, config);
    matches!(r.outcomes.first(), Some(BoardOutcome::Failed(_)))
}

/// Routes `set` under `config` with recovery: admission shedding, one
/// retry, retry tokens, journals, and quarantine with minimized repros.
/// See the [module docs](self) for the policy model and the determinism
/// argument.
///
/// First-attempt routed boards are bit-identical to sequential (they are
/// never re-run); [`BoardOutcome::Degraded`] boards hold the retry's
/// results (bit-identical too); everything else keeps its input geometry.
pub fn route_fleet_resilient(
    set: &mut BoardSet,
    config: &FleetConfig,
    policy: &RetryPolicy,
) -> ResilientReport {
    let n = set.len();

    // ---- Plan shapes: (units, jobs) per board, for admission and fault
    // rebasing. Same `plan_board_units` the engine runs, so the counts
    // agree with its input-order unit/job numbering.
    let shapes: Vec<(usize, usize)> = set
        .boards()
        .iter()
        .map(|lb| {
            let planned = plan_board_units(lb.board());
            (
                planned.iter().map(|(_, units)| units.len()).sum(),
                planned.len(),
            )
        })
        .collect();

    // ---- Admission: first-fit in input order under the unit budget. ----
    let mut admitted = vec![true; n];
    if let Some(budget) = policy.max_units {
        let mut in_flight = 0usize;
        for b in 0..n {
            if in_flight + shapes[b].0 <= budget {
                in_flight += shapes[b].0;
            } else {
                admitted[b] = false;
            }
        }
    }
    let admitted_idx: Vec<usize> = (0..n).filter(|&b| admitted[b]).collect();

    // ---- Attempt 0: one fleet run over the admitted boards. -------------
    let round0 = route_subset(set, &admitted_idx, config);

    let mut journals: Vec<AttemptJournal> = (0..n)
        .map(|board| AttemptJournal {
            board,
            attempts: Vec::new(),
        })
        .collect();
    let mut outcomes: Vec<BoardOutcome> = vec![BoardOutcome::Shed(ShedReason::Admission); n];
    let mut reports: Vec<Vec<GroupReport>> = vec![Vec::new(); n];
    let mut board_busy = vec![Duration::ZERO; n];
    let mut stats = round0.stats.clone();
    for ((slot, &b), report) in admitted_idx.iter().enumerate().zip(round0.reports) {
        outcomes[b] = round0.outcomes[slot].clone();
        reports[b] = report;
        board_busy[b] = round0.stats.board_busy[slot];
        journals[b].attempts.push(AttemptRecord {
            attempt: 0,
            outcome: outcomes[b].clone(),
            busy: board_busy[b],
        });
    }

    // ---- Fault rebasing spans: each admitted, non-rejected board's slice
    // of the first run's input-order unit/job numbering (rejected boards
    // plan nothing — mirror the engine exactly).
    #[cfg(feature = "fault")]
    let spans: Vec<FaultSpan> = {
        let mut unit_base = 0u64;
        let mut job_base = 0u64;
        let mut spans = vec![None; n];
        for &b in &admitted_idx {
            if matches!(outcomes[b], BoardOutcome::Rejected(_)) {
                continue;
            }
            let (units, jobs) = shapes[b];
            spans[b] = Some(((unit_base, units as u64), (job_base, jobs as u64)));
            unit_base += units as u64;
            job_base += jobs as u64;
        }
        spans
    };

    // ---- The retry: board order — token spend is a pure function of the
    // (deterministic) outcome sequence.
    let attempt = 1;
    let mut tokens = policy.retry_tokens;
    let mut retries = 0u64;
    let retry_now: Vec<usize> = (0..n).filter(|&b| retryable(&outcomes[b])).collect();
    for b in retry_now {
        if tokens == 0 {
            outcomes[b] = BoardOutcome::Shed(ShedReason::RetryTokens);
            continue;
        }
        tokens -= 1;
        retries += 1;
        #[cfg_attr(not(feature = "fault"), allow(unused_mut))]
        let mut sub_config = config.clone();
        #[cfg(feature = "fault")]
        {
            sub_config.fault = match spans[b] {
                Some((units, jobs)) => config.fault.rebased(units, jobs, attempt),
                None => FaultPlan {
                    attempt,
                    ..FaultPlan::default()
                },
            };
        }
        let attempt_report = route_subset(set, &[b], &sub_config);
        stats.route_wall += attempt_report.stats.route_wall;
        stats.units_run += attempt_report.stats.units_run;
        let busy = attempt_report
            .stats
            .board_busy
            .first()
            .copied()
            .unwrap_or_default();
        board_busy[b] += busy;
        let attempt_outcome = attempt_report
            .outcomes
            .into_iter()
            .next()
            .expect("single-board run returns one outcome");
        journals[b].attempts.push(AttemptRecord {
            attempt,
            outcome: attempt_outcome.clone(),
            busy,
        });
        if attempt_outcome.is_routed() {
            outcomes[b] = BoardOutcome::Degraded;
            reports[b] = attempt_report
                .reports
                .into_iter()
                .next()
                .expect("single-board run returns one report");
        } else {
            outcomes[b] = attempt_outcome;
        }
    }

    // ---- Quarantine: boards still panicking after the retry. ------------
    let mut quarantine = Quarantine::default();
    for (b, outcome) in outcomes.iter().enumerate() {
        let BoardOutcome::Failed(error) = outcome else {
            continue;
        };
        #[cfg(feature = "fault")]
        let probe_plan = match spans[b] {
            Some((units, jobs)) => config.fault.rebased(units, jobs, 0),
            None => FaultPlan::default(),
        };
        let mut probe_cfg = config.clone();
        probe_cfg.workers = Some(1);
        probe_cfg.deadline = None;
        probe_cfg.cancel = None;
        #[cfg(feature = "fault")]
        {
            probe_cfg.fault = probe_plan.clone();
        }
        let repro = if probe_fails(&probe_cfg, &set.boards()[b]) {
            Some(minimize(
                &set.boards()[b],
                |cand| probe_fails(&probe_cfg, cand),
                MAX_MINIMIZE_PROBES,
            ))
        } else {
            None
        };
        quarantine.entries.push(QuarantineEntry {
            board: b,
            error: error.clone(),
            repro,
            #[cfg(feature = "fault")]
            probe_plan,
        });
    }

    // ---- Final stats: recount from the merged outcome vector. -----------
    stats.tally(&outcomes);
    stats.retries = retries;
    stats.board_busy = board_busy;

    ResilientReport {
        report: FleetReport {
            reports,
            outcomes,
            stats,
        },
        journals,
        quarantine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_core::ExtendConfig;
    use meander_layout::gen::fleet_boards_small;

    fn serial_config(workers: usize) -> FleetConfig {
        FleetConfig {
            extend: ExtendConfig {
                parallel: false,
                ..Default::default()
            },
            workers: Some(workers),
            ..Default::default()
        }
    }

    #[test]
    fn healthy_fleet_needs_no_recovery() {
        let fleet = fleet_boards_small(4, 21, 42);
        let mut plain_set = BoardSet::new(fleet.boards.clone());
        let plain = route_fleet(&mut plain_set, &serial_config(2));
        let mut set = BoardSet::new(fleet.boards);
        let resilient = route_fleet_resilient(&mut set, &serial_config(2), &RetryPolicy::default());
        assert_eq!(resilient.report.outcomes, plain.outcomes);
        assert_eq!(resilient.report.stats.retries, 0);
        assert_eq!(resilient.report.stats.degraded, 0);
        assert_eq!(resilient.report.stats.shed, 0);
        assert!(resilient.quarantine.is_empty());
        // Journals: exactly one attempt per board.
        for j in &resilient.journals {
            assert_eq!(j.attempts.len(), 1);
            assert_eq!(j.attempts[0].attempt, 0);
            assert!(j.attempts[0].outcome.is_routed());
        }
        // Geometry identical to the plain fleet run.
        for (a, b) in plain_set.boards().iter().zip(set.boards()) {
            for ((_, ta), (_, tb)) in a.board().traces().zip(b.board().traces()) {
                assert_eq!(ta.centerline(), tb.centerline());
            }
        }
        let line = resilient.report.summary();
        assert!(
            line.contains("routed=4") && line.contains("shed=0"),
            "{line}"
        );
    }

    #[test]
    fn zero_unit_budget_sheds_every_board() {
        let fleet = fleet_boards_small(3, 7, 11);
        let before: Vec<usize> = fleet
            .boards
            .iter()
            .map(|lb| {
                lb.board()
                    .traces()
                    .map(|(_, t)| t.centerline().point_count())
                    .sum()
            })
            .collect();
        let mut set = BoardSet::new(fleet.boards);
        let policy = RetryPolicy {
            max_units: Some(0),
            ..Default::default()
        };
        let resilient = route_fleet_resilient(&mut set, &serial_config(2), &policy);
        assert!(resilient
            .report
            .outcomes
            .iter()
            .all(|o| matches!(o, BoardOutcome::Shed(ShedReason::Admission))));
        assert_eq!(resilient.report.stats.shed, 3);
        assert_eq!(resilient.report.stats.retries, 0);
        // Shed boards never ran: empty journals, untouched geometry.
        assert!(resilient.journals.iter().all(|j| j.attempts.is_empty()));
        for (lb, &points) in set.boards().iter().zip(&before) {
            let now: usize = lb
                .board()
                .traces()
                .map(|(_, t)| t.centerline().point_count())
                .sum();
            assert_eq!(now, points);
        }
    }

    #[test]
    fn admission_is_first_fit_in_input_order() {
        let fleet = fleet_boards_small(3, 7, 11);
        let units_of = |lb: &LibraryBoard| -> usize {
            plan_board_units(lb.board())
                .iter()
                .map(|(_, u)| u.len())
                .sum()
        };
        let budget = units_of(&fleet.boards[0]);
        assert!(budget > 0);
        let mut set = BoardSet::new(fleet.boards);
        let policy = RetryPolicy {
            max_units: Some(budget),
            ..Default::default()
        };
        let resilient = route_fleet_resilient(&mut set, &serial_config(2), &policy);
        assert!(resilient.report.outcomes[0].is_routed());
        assert!(matches!(
            resilient.report.outcomes[1],
            BoardOutcome::Shed(ShedReason::Admission)
        ));
        assert!(matches!(
            resilient.report.outcomes[2],
            BoardOutcome::Shed(ShedReason::Admission)
        ));
        assert_eq!(resilient.report.stats.routed, 1);
        assert_eq!(resilient.report.stats.shed, 2);
    }

    /// A board that blows its busy budget on both attempts ends
    /// `DeadlineExceeded` after one same-budget retry: two journaled
    /// attempts, one retry token, and no quarantine (that is for panics).
    #[test]
    fn blown_budget_ends_deadline_exceeded_after_one_retry() {
        let fleet = fleet_boards_small(4, 21, 42);
        let n = fleet.boards.len();
        // The budget is polled before each unit and the first unit is
        // charged nothing yet, so only multi-unit boards can blow it.
        for lb in &fleet.boards {
            let units: usize = plan_board_units(lb.board())
                .iter()
                .map(|(_, u)| u.len())
                .sum();
            assert!(units >= 2, "every board needs two units");
        }
        let mut set = BoardSet::new(fleet.boards);
        let config = FleetConfig {
            board_budget: Some(Duration::from_nanos(1)),
            ..serial_config(1)
        };
        // Exactly one token per board: a second retry of any board would
        // starve a later one into `Shed`.
        let policy = RetryPolicy {
            retry_tokens: n as u64,
            ..Default::default()
        };
        let resilient = route_fleet_resilient(&mut set, &config, &policy);
        for (b, outcome) in resilient.report.outcomes.iter().enumerate() {
            assert_eq!(*outcome, BoardOutcome::DeadlineExceeded, "board {b}");
            let attempts = &resilient.journals[b].attempts;
            assert_eq!(attempts.len(), 2, "board {b}");
            assert!(attempts
                .iter()
                .all(|a| a.outcome == BoardOutcome::DeadlineExceeded));
        }
        assert_eq!(resilient.report.stats.retries, n as u64);
        assert_eq!(resilient.report.stats.shed, 0);
        assert!(resilient.quarantine.is_empty());
    }
}
