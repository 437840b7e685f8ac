//! # meander-fleet
//!
//! Multi-board batch routing: the serving regime where many boards —
//! sharing one immutable obstacle library — are length-matched as a single
//! workload.
//!
//! The single-board flow ([`meander_core::match_all_groups`]) rebuilds the
//! world's spatial index per trace and fans units out through one atomic
//! cursor. A fleet changes both economics:
//!
//! * **Shared obstacle libraries.** Boards reference an
//!   [`meander_layout::ObstacleLibrary`]; the engine inflates and
//!   edge-indexes it **once** ([`meander_core::WorldBase`]) and every
//!   trace of every board overlays only its per-trace remainder
//!   ([`meander_index::OverlayIndex`]) — the index construction the
//!   single-board flow repeats per trace is amortized across the fleet.
//! * **One pipeline, one pool.** Batch fleets ([`route_fleet`]), cache
//!   warm-up ([`warm_fleet_cache`]), and serving re-routes
//!   ([`FleetSession`]) share one plan → execute → resolve pipeline. Its
//!   per-unit work packets run on one worker pool, where the submitting
//!   thread runs its own packets and helper threads claim from typed
//!   priority buckets ([`sched::Scheduler`]: `Interactive` > `Batch` >
//!   `Speculative` with strict opening conditions).
//! * **Deterministic write-back.** Results land in input-order slots and
//!   write back in `(board, group, unit)` order, so fleet output is
//!   **bit-identical** to routing each board's materialized twin
//!   sequentially — any worker count, both sharing modes (property-tested
//!   in `tests/determinism.rs`).
//!
//! Serving many boards also changes the *failure* economics: one bad
//! board must cost one board, never the batch. The engine isolates four
//! failure domains (see [`engine`]'s module docs):
//!
//! * **Validation** — malformed boards are rejected up front with a typed
//!   [`meander_layout::ValidationError`] ([`BoardOutcome::Rejected`]);
//! * **Panics** — each packet runs under `catch_unwind`; a crash becomes
//!   [`BoardOutcome::Failed`] and the pool survives;
//! * **Deadlines / cancellation** — a [`CancelToken`], a fleet deadline,
//!   and per-board budgets are polled at pop and unit boundaries;
//! * **Write-back** — atomic per board: fully [`BoardOutcome::Routed`]
//!   (bit-identical to sequential) or geometry untouched.
//!
//! On top of the engine sits a **recovery layer**
//! ([`route_fleet_resilient`]): a failed or deadline-exceeded board gets
//! one retry with the same knobs, overload is shed loudly under an
//! admission unit budget and a fleet-wide retry token bucket
//! ([`RetryPolicy`]), every attempt is journaled, and boards
//! that panic on both attempts are quarantined with a delta-debugged
//! minimal repro (`repro::minimize`).
//!
//! The `fault` cargo feature adds a deterministic chaos harness
//! (`FaultPlan`): seeded panic/delay/rejection
//! injection keyed on input-order indices — plus transient
//! (attempt-scoped) faults and bounded delay jitter for the resilience
//! suite — so the chaos suite can assert unaffected boards stay
//! bit-identical under every scheduling.
//!
//! ```
//! use meander_fleet::{route_fleet, BoardSet, FleetConfig};
//! use meander_layout::gen::fleet_boards_small;
//!
//! let fleet = fleet_boards_small(3, 7, 11);
//! let mut set = BoardSet::new(fleet.boards);
//! let report = route_fleet(&mut set, &FleetConfig::default());
//! assert_eq!(report.reports.len(), 3);
//! // Every group routed close to its target.
//! for board in &report.reports {
//!     for group in board {
//!         assert!(group.max_error() < 0.05, "err {}", group.max_error());
//!     }
//! }
//! ```

// Serving code must never panic on untrusted input: unwraps are linted
// against (tests keep their unwraps — a failing test panics by design).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod cache;
pub mod cancel;
pub mod edit;
pub mod engine;
#[cfg(feature = "fault")]
pub mod fault;
pub mod outcome;
mod pipeline;
pub mod repro;
pub mod resilience;
pub mod sched;
pub mod session;

pub use cache::{board_keys, ResultCache, DEFAULT_CACHE_BUDGET};
pub use cancel::CancelToken;
pub use engine::{route_fleet, warm_fleet_cache, BoardSet, FleetConfig, FleetReport, FleetStats};
#[cfg(feature = "fault")]
pub use fault::FaultPlan;
pub use meander_layout::{Edit, EditScope};
pub use outcome::{BoardOutcome, JobError, LatencyHistogram, ShedReason};
pub use resilience::{route_fleet_resilient, RetryPolicy};
pub use sched::{Scheduler, Tier};
pub use session::FleetSession;
