//! Deterministic fault injection for chaos testing (feature `fault`).
//!
//! A [`FaultPlan`] scripts failures into a fleet run at three seams:
//!
//! * **panic-at-unit** — the router panics just before running the unit
//!   with a given *global input-order* index (board 0's units first, in
//!   `(group, unit)` order, then board 1's, …). Keying on input order —
//!   not an execution-order counter — is what makes the injection
//!   deterministic: the same unit panics for every worker count, steal
//!   pattern, and sharing mode, so the chaos suite can assert the
//!   *unaffected* boards stay bit-identical to the sequential reference.
//! * **transient panic-at-unit** — like panic-at-unit, but scripted for
//!   one specific *attempt* number (usually 0, the first run). The
//!   resilience layer re-runs failed boards with a bumped
//!   [`FaultPlan::attempt`], so a transient fault fires once and the
//!   retry succeeds — the deterministic stand-in for flaky hardware,
//!   OOM-killed neighbours, and other heisenbugs.
//! * **delay-at-pop** — a job (global input-order job index) sleeps
//!   before doing any work, widening race windows for cancellation and
//!   deadline tests without touching the routed floats.
//!   [`FaultPlan::jittered_delays`] scripts a seeded, *bounded* delay for
//!   every job — still keyed on input order, so the jitter pattern is
//!   invariant across worker counts.
//! * **trip-validation** — a board index is reported as
//!   [`meander_layout::ValidationError::Injected`] even though its geometry is fine,
//!   exercising the rejection path on demand.
//!
//! Everything is compiled out unless the `fault` cargo feature is on;
//! production builds carry zero of this machinery.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// A scripted set of faults for one fleet run. Empty by default; builders
/// compose.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Global input-order unit indices that panic when reached.
    pub panic_units: BTreeSet<u64>,
    /// Global input-order unit indices that panic only when this run's
    /// [`FaultPlan::attempt`] equals the scripted attempt number.
    pub transient_units: BTreeMap<u64, u32>,
    /// Global input-order job indices that sleep before running.
    pub delay_jobs: BTreeMap<u64, Duration>,
    /// Board indices whose validation is forced to fail.
    pub trip_boards: BTreeSet<usize>,
    /// Which attempt this run represents (0 = first). `route_fleet` never
    /// changes it; the resilience layer's retries run rebased plans with
    /// the attempt bumped, so transient faults stop firing.
    pub attempt: u32,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Panic when the unit with global input-order index `unit` is about
    /// to run.
    pub fn panic_at_unit(mut self, unit: u64) -> Self {
        self.panic_units.insert(unit);
        self
    }

    /// Panic at unit `unit`, but only on attempt `attempt` (0 = the first
    /// run): the transient-fault primitive the retry recovers from.
    pub fn panic_at_unit_on_attempt(mut self, unit: u64, attempt: u32) -> Self {
        self.transient_units.insert(unit, attempt);
        self
    }

    /// `true` when this plan would panic unit `unit` on this run (a
    /// persistent fault, or a transient one scripted for
    /// [`FaultPlan::attempt`]).
    pub(crate) fn panics_unit(&self, unit: u64) -> bool {
        self.panic_units.contains(&unit)
            || self
                .transient_units
                .get(&unit)
                .is_some_and(|&a| a == self.attempt)
    }

    /// Sleep `delay` when the job with global input-order index `job` is
    /// popped, before it does any work.
    pub fn delay_at_pop(mut self, job: u64, delay: Duration) -> Self {
        self.delay_jobs.insert(job, delay);
        self
    }

    /// Scripts a seeded pseudo-random delay in `[0, bound]` for every job
    /// index in `0..jobs`. Keyed on input-order job indices like every
    /// other fault, so the jitter pattern — and therefore every outcome it
    /// can influence — is invariant across worker counts and sharing
    /// modes.
    pub fn jittered_delays(mut self, seed: u64, jobs: u64, bound: Duration) -> Self {
        let bound_us = bound.as_micros().min(u128::from(u64::MAX)) as u64;
        for j in 0..jobs {
            let d = if bound_us == 0 {
                0
            } else {
                splitmix64(seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % (bound_us + 1)
            };
            self.delay_jobs.insert(j, Duration::from_micros(d));
        }
        self
    }

    /// Rebases this plan onto a **single-board re-run**: the board whose
    /// first-run unit indices span `units = (base, len)` and job indices
    /// span `jobs = (base, len)` becomes board 0 of a one-board fleet, and
    /// the run's [`FaultPlan::attempt`] is set to `attempt`. Persistent
    /// and transient unit faults inside the span are shifted to the
    /// board-local index space; everything outside the span — and every
    /// validation trip (a tripped board is rejected, never retried) — is
    /// dropped. Pure index arithmetic over the same input-order keys, so
    /// retried runs stay deterministic.
    pub(crate) fn rebased(&self, units: (u64, u64), jobs: (u64, u64), attempt: u32) -> FaultPlan {
        let mut plan = FaultPlan {
            attempt,
            ..FaultPlan::default()
        };
        for &u in self
            .panic_units
            .range(units.0..units.0.saturating_add(units.1))
        {
            plan.panic_units.insert(u - units.0);
        }
        for (&u, &a) in self
            .transient_units
            .range(units.0..units.0.saturating_add(units.1))
        {
            plan.transient_units.insert(u - units.0, a);
        }
        for (&j, &d) in self.delay_jobs.range(jobs.0..jobs.0.saturating_add(jobs.1)) {
            plan.delay_jobs.insert(j - jobs.0, d);
        }
        plan
    }

    /// Force board `board`'s validation to fail with
    /// [`meander_layout::ValidationError::Injected`].
    pub(crate) fn trip_validation(mut self, board: usize) -> Self {
        self.trip_boards.insert(board);
        self
    }

    /// A reproducible pseudo-random plan: given the run's shape
    /// (`units`, `jobs`, `boards`) and a `seed`, scripts one panic, one
    /// pop delay, and one validation trip at seed-derived positions. Two
    /// runs with the same seed and shape inject the identical faults —
    /// the chaos property suite sweeps seeds instead of relying on
    /// ambient randomness.
    pub fn seeded(seed: u64, units: u64, jobs: u64, boards: usize) -> Self {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(state)
        };
        let mut plan = FaultPlan::new();
        if units > 0 {
            plan = plan.panic_at_unit(next() % units);
        }
        if jobs > 0 {
            plan = plan.delay_at_pop(next() % jobs, Duration::from_micros(next() % 500));
        }
        if boards > 0 {
            plan = plan.trip_validation((next() % boards as u64) as usize);
        }
        plan
    }
}

/// splitmix64 mix step: small, seedable, and dependency-free.
fn splitmix64(state: u64) -> u64 {
    let mut z = state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn injects_nothing(plan: &FaultPlan) -> bool {
        plan.panic_units.is_empty()
            && plan.transient_units.is_empty()
            && plan.delay_jobs.is_empty()
            && plan.trip_boards.is_empty()
    }

    #[test]
    fn builders_compose() {
        let plan = FaultPlan::new()
            .panic_at_unit(3)
            .panic_at_unit(9)
            .delay_at_pop(1, Duration::from_millis(5))
            .trip_validation(2);
        assert!(plan.panic_units.contains(&3));
        assert!(plan.panic_units.contains(&9));
        assert_eq!(plan.delay_jobs.get(&1), Some(&Duration::from_millis(5)));
        assert!(plan.trip_boards.contains(&2));
        assert!(!injects_nothing(&plan));
        assert!(injects_nothing(&FaultPlan::new()));
    }

    #[test]
    fn seeded_plans_are_reproducible_and_in_range() {
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed, 40, 12, 6);
            let b = FaultPlan::seeded(seed, 40, 12, 6);
            assert_eq!(a.panic_units, b.panic_units, "seed {seed}");
            assert_eq!(a.delay_jobs, b.delay_jobs, "seed {seed}");
            assert_eq!(a.trip_boards, b.trip_boards, "seed {seed}");
            assert!(a.panic_units.iter().all(|&u| u < 40));
            assert!(a.delay_jobs.keys().all(|&j| j < 12));
            assert!(a.trip_boards.iter().all(|&b| b < 6));
        }
        // Different seeds actually vary the plan.
        let plans: BTreeSet<u64> = (0..16)
            .map(|s| {
                *FaultPlan::seeded(s, 1000, 1, 1)
                    .panic_units
                    .iter()
                    .next()
                    .expect("one panic unit")
            })
            .collect();
        assert!(plans.len() > 4, "seeds should spread: {plans:?}");
    }

    #[test]
    fn seeded_handles_empty_shapes() {
        let plan = FaultPlan::seeded(7, 0, 0, 0);
        assert!(injects_nothing(&plan));
    }

    #[test]
    fn transient_faults_fire_only_on_their_attempt() {
        let plan = FaultPlan::new()
            .panic_at_unit(9)
            .panic_at_unit_on_attempt(4, 0);
        assert!(!injects_nothing(&plan));
        // Attempt 0 (the default): both fire.
        assert!(plan.panics_unit(4));
        assert!(plan.panics_unit(9));
        assert!(!plan.panics_unit(5));
        // Attempt 1: only the persistent fault fires.
        let retry = FaultPlan {
            attempt: 1,
            ..plan.clone()
        };
        assert!(!retry.panics_unit(4));
        assert!(retry.panics_unit(9));
    }

    #[test]
    fn jittered_delays_are_bounded_and_reproducible() {
        let bound = Duration::from_micros(200);
        let a = FaultPlan::new().jittered_delays(11, 16, bound);
        let b = FaultPlan::new().jittered_delays(11, 16, bound);
        assert_eq!(a.delay_jobs, b.delay_jobs);
        assert_eq!(a.delay_jobs.len(), 16);
        assert!(a.delay_jobs.values().all(|d| *d <= bound));
        // Different seeds vary the pattern; zero bound degenerates to zero.
        let c = FaultPlan::new().jittered_delays(12, 16, bound);
        assert_ne!(a.delay_jobs, c.delay_jobs);
        let z = FaultPlan::new().jittered_delays(11, 4, Duration::ZERO);
        assert!(z.delay_jobs.values().all(|d| *d == Duration::ZERO));
    }

    #[test]
    fn rebased_shifts_spans_and_drops_the_rest() {
        let plan = FaultPlan::new()
            .panic_at_unit(3)
            .panic_at_unit(10)
            .panic_at_unit_on_attempt(11, 0)
            .panic_at_unit_on_attempt(40, 0)
            .delay_at_pop(2, Duration::from_millis(1))
            .delay_at_pop(7, Duration::from_millis(2))
            .trip_validation(1);
        // Board spanning units [10, 15) and jobs [2, 4), retried as attempt 1.
        let sub = plan.rebased((10, 5), (2, 2), 1);
        assert_eq!(sub.attempt, 1);
        assert_eq!(sub.panic_units, BTreeSet::from([0]));
        assert_eq!(sub.transient_units, BTreeMap::from([(1, 0)]));
        assert_eq!(
            sub.delay_jobs,
            BTreeMap::from([(0, Duration::from_millis(1))])
        );
        // Trips never survive a rebase: rejected boards are not retried.
        assert!(sub.trip_boards.is_empty());
        // The transient fault was scripted for attempt 0 — on this
        // attempt-1 re-run it no longer fires, the persistent one does.
        assert!(sub.panics_unit(0));
        assert!(!sub.panics_unit(1));
    }
}
