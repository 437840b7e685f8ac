//! The batch engine: validate, flatten a [`BoardSet`] into per-unit work
//! packets, route them on the priority-bucketed scheduler under panic
//! isolation and deadlines, write back per board atomically.
//!
//! ## One pipeline
//!
//! [`route_fleet`], [`warm_fleet_cache`], and [`crate::FleetSession`] are
//! thin clients of the crate's one plan → execute → resolve pipeline
//! (`pipeline.rs`): a fleet is a fresh plan of every valid board at
//! [`Tier::Batch`], warm-up is the plan filtered to distinct missing
//! cache keys at [`Tier::Speculative`] with no write-back, and a session
//! feeds only its dirty units in at [`Tier::Interactive`].
//!
//! ## Packet model
//!
//! The unit of scheduling is one **matching unit** (a trace or a
//! differential pair) of one group of one board — fine enough that an
//! interactive re-route preempting a batch fleet waits out at most one
//! unit per worker, and fine enough that a single skewed board spreads
//! across the pool. Each packet snapshots its inputs (unit plan, shared
//! base, obstacle overlay, cache seam) and runs through the same
//! [`meander_core::run_unit`] the single-board driver uses; the
//! `(board, group)` **job** survives as write-back metadata (a group's
//! packets reassemble in unit order before [`meander_core::apply_outputs`]).
//!
//! ## Failure domains
//!
//! A fleet is a *serving* workload: one malformed or crashing board must
//! cost exactly one board. Four mechanisms enforce that, in request
//! order:
//!
//! 1. **Typed validation up front.** Every distinct library is validated
//!    once and every board once ([`meander_layout::validate_board`]);
//!    failures become [`BoardOutcome::Rejected`] with provenance, and the
//!    board is never planned — malformed input cannot reach the router.
//! 2. **Panic isolation.** Each packet runs under `catch_unwind`
//!    (`crate::sched::run_packets`); a panicking packet yields
//!    [`BoardOutcome::Failed`] for its board, the worker survives, and
//!    every other packet's result is untouched.
//! 3. **Deadlines and cancellation.** A shared [`CancelToken`], a fleet
//!    [`FleetConfig::deadline`], and a per-board busy
//!    [`FleetConfig::board_budget`] are polled at pop boundaries and
//!    between units; affected boards report [`BoardOutcome::Cancelled`] /
//!    [`BoardOutcome::DeadlineExceeded`].
//! 4. **Atomic per-board write-back.** A board is either fully
//!    [`BoardOutcome::Routed`] (all its jobs completed) or its geometry
//!    is exactly as submitted — never a half-routed hybrid.
//!
//! ## Library sharing
//!
//! Boards reference an immutable [`meander_layout::ObstacleLibrary`]. With
//! [`FleetConfig::share_library`] the engine builds one
//! [`meander_core::WorldBase`] per distinct library — the library's
//! polygons inflated and edge-indexed **once** — and every trace of every
//! board overlays its per-trace remainder on it, instead of re-indexing
//! the library's geometry per trace. With it off, each board materializes
//! `library ++ local` obstacles and routes exactly like a standalone board
//! (the baseline the bench compares against).
//!
//! ## Determinism
//!
//! Fleet output is **bit-identical** to routing each board's materialized
//! twin ([`meander_layout::LibraryBoard::to_board`]) through
//! [`meander_core::match_all_groups`] sequentially:
//!
//! * jobs snapshot their inputs up front and are pure functions of them
//!   (no job reads another's write-back — sound because a trace belongs
//!   to at most one group, which validation enforces:
//!   [`meander_layout::ValidationError::OverlappingGroups`]);
//! * the scheduler only moves *where* a job runs; results land in
//!   input-order slots and write back in `(board, group, unit)` order;
//! * the shared-library world answers every spatial query identically to
//!   the monolithic per-trace index (`meander_index::OverlayIndex`'s
//!   union-equals-monolithic contract), so the routed floats themselves
//!   are the same stream.
//!
//! The identity extends **per board under faults**: a panicking,
//! rejected, or halted board affects only itself, so every `Routed`
//! board's geometry still matches its sequential twin bit for bit
//! (property-tested in `tests/chaos.rs` under `--features fault`).
//! Injected faults key on *input-order* indices, never execution order,
//! so which unit fails is itself invariant across worker counts.
//!
//! Wall-clock fields ([`GroupReport::runtime`], [`FleetStats`] timings)
//! are measurements, not outputs — they are excluded from the identity.

use crate::cache::{CacheKey, CachedGroup, ResultCache};
use crate::cancel::CancelToken;
#[cfg(feature = "fault")]
use crate::fault::FaultPlan;
use crate::outcome::{BoardOutcome, LatencyHistogram};
use crate::pipeline::{
    execute, is_failed, library_slots, resolve, validate_fresh, write_group, BaseCache, Plan,
};
use crate::sched::{SchedCounters, Scheduler, Tier, WorkerCounters};
use meander_core::{ExtendConfig, GroupReport};
use meander_layout::hash::{hash_board_local, library_root};
use meander_layout::LibraryBoard;
#[cfg(feature = "fault")]
use meander_layout::ValidationError;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A fleet of boards, each referencing a shared obstacle library.
///
/// Boards may reference *different* libraries (the engine builds one
/// shared world per distinct library); the common case is one library
/// across the whole set.
#[derive(Debug, Clone, Default)]
pub struct BoardSet {
    boards: Vec<LibraryBoard>,
}

impl BoardSet {
    /// Wraps a fleet of library-referencing boards.
    pub fn new(boards: Vec<LibraryBoard>) -> Self {
        BoardSet { boards }
    }

    /// The boards.
    #[inline]
    pub fn boards(&self) -> &[LibraryBoard] {
        &self.boards
    }

    /// Mutable board access (the engine writes results back here).
    #[inline]
    pub(crate) fn boards_mut(&mut self) -> &mut [LibraryBoard] {
        &mut self.boards
    }

    /// Number of boards.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.boards.len()
    }
}

/// Tunables of a fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Per-unit engine configuration (iteration bound, ablation switches,
    /// engine shape). The fleet scheduler replaces the driver-level
    /// fan-out, so [`ExtendConfig::parallel`] has no effect here.
    pub extend: ExtendConfig,
    /// Worker count; `None` uses the host's available parallelism.
    pub workers: Option<usize>,
    /// Build each distinct obstacle library's world once and overlay it
    /// per trace (`true`, the point of the fleet), or materialize
    /// `library ++ local` per board and index per trace like standalone
    /// boards (`false` — the amortization-off baseline). Output is
    /// bit-identical either way.
    pub share_library: bool,
    /// Whole-fleet wall-clock budget, measured from [`route_fleet`]
    /// entry. Once exceeded, workers stop claiming jobs; boards that lost
    /// work report [`BoardOutcome::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Per-board *busy* budget: the sum of a board's unit runtimes. A
    /// board over budget stops at the next unit boundary and reports
    /// [`BoardOutcome::DeadlineExceeded`]; other boards are unaffected.
    pub board_budget: Option<Duration>,
    /// Cooperative cancellation. Fire the token (from any thread) and
    /// the fleet stops within one unit's work per worker; boards that
    /// lost work report [`BoardOutcome::Cancelled`].
    pub cancel: Option<CancelToken>,
    /// Content-addressed result cache ([`crate::cache`]). When set, every
    /// `(board, group)` job derives its [`CacheKey`] and consults the
    /// cache before routing: a hit writes the cached geometry and report
    /// floats back (bit-identical to re-routing, by determinism); a miss
    /// routes with touched-window recording and inserts. Panicked or halted
    /// jobs never insert. Share one cache across fleets and sessions via
    /// the `Arc`.
    pub cache: Option<Arc<ResultCache>>,
    /// Shared priority-bucketed scheduler ([`crate::sched`]). When set,
    /// the fleet's packets run on it at [`Tier::Batch`] and interleave
    /// with whatever other tiers are in flight — an attached serving
    /// session's interactive packets preempt at packet boundaries. Its
    /// worker count, which counts the calling thread, wins over
    /// [`FleetConfig::workers`]. When `None`, the run uses a private pool
    /// of [`FleetConfig::workers`] threads, the calling thread among them;
    /// output is bit-identical either way.
    pub sched: Option<Arc<Scheduler>>,
    /// Scripted faults for chaos testing (`fault` feature only —
    /// production builds don't carry the field).
    #[cfg(feature = "fault")]
    pub fault: FaultPlan,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            extend: ExtendConfig::default(),
            workers: None,
            share_library: true,
            deadline: None,
            board_budget: None,
            cancel: None,
            cache: None,
            sched: None,
            #[cfg(feature = "fault")]
            fault: FaultPlan::default(),
        }
    }
}

/// Scheduler, sharing, and failure observability for one fleet run.
#[derive(Debug, Clone, Default)]
pub struct FleetStats {
    /// Boards submitted.
    pub boards: usize,
    /// `(board, group)` jobs scheduled (rejected boards plan no jobs).
    pub jobs: usize,
    /// Matching units (traces / pairs) across all scheduled jobs.
    pub units: usize,
    /// Units that actually ran to completion (< `units` when jobs
    /// panicked, halted, or were never claimed).
    pub units_run: usize,
    /// Distinct obstacle libraries encountered.
    pub libraries: usize,
    /// Total polygons across those libraries.
    pub library_polygons: usize,
    /// Boards fully routed and written back.
    pub routed: usize,
    /// Boards rejected by validation.
    pub rejected: usize,
    /// Boards with at least one panicked job.
    pub failed: usize,
    /// Boards that lost work to the cancel token.
    pub cancelled: usize,
    /// Boards that lost work to the fleet deadline or their busy budget.
    pub deadline_exceeded: usize,
    /// Boards recovered by their retry ([`BoardOutcome::Degraded`]).
    /// Always zero for a bare [`route_fleet`]; the resilience layer fills
    /// it in.
    pub degraded: usize,
    /// Boards refused by overload control ([`BoardOutcome::Shed`]).
    /// Always zero for a bare [`route_fleet`].
    pub shed: usize,
    /// Retry runs performed beyond each board's first attempt. Always
    /// zero for a bare [`route_fleet`].
    pub retries: u64,
    /// Units whose touched windows the damage of the edits a
    /// serving re-route consumed reaches (plus units of structurally edited
    /// boards) — the units that actually re-ran. Always zero for a bare
    /// [`route_fleet`]; `FleetSession::reroute_dirty` fills it in.
    pub units_dirty: usize,
    /// Units proven untouched by the damage and skipped (retained outputs
    /// reused). Always zero for a bare [`route_fleet`].
    pub units_skipped: usize,
    /// Lattice cells covered by the consumed damage rects, summed over
    /// libraries, boards, and strata. A size stat: which units are dirty
    /// is decided on the unquantized rects
    /// ([`meander_index::reaches`]), not on cells. Always zero for a bare
    /// [`route_fleet`].
    pub cells_dirty: u64,
    /// Unit packets served from [`FleetConfig::cache`] this run. Zero
    /// when no cache is attached. Counters are observability, not
    /// outputs: which packet hits can vary with scheduling (a twin
    /// inserted earlier in the run), the routed bytes cannot.
    pub cache_hits: u64,
    /// Unit packets that consulted the cache and routed fresh (a group
    /// whose every unit routed fresh then inserts). Zero when no cache is
    /// attached.
    pub cache_misses: u64,
    /// Boards whose unit plan was rebuilt this serving cycle (structural
    /// edit or first route). Always zero for a bare [`route_fleet`];
    /// `FleetSession::reroute_dirty` fills it in — and scopes it to the
    /// structurally edited boards only.
    pub boards_replanned: usize,
    /// Busy time charged to each board (unit runtimes, indexed by
    /// submission order) — the per-board slice of the scheduler's busy
    /// total, and the quantity [`FleetConfig::board_budget`] meters.
    pub board_busy: Vec<Duration>,
    /// Time spent in the up-front validation scan.
    pub validation_wall: Duration,
    /// Time spent building the shared [`meander_core::WorldBase`]s (zero
    /// when `share_library` is off) — the cost that is paid once instead
    /// of per trace.
    pub base_build: Duration,
    /// Wall clock of the scheduled phase (planning + routing + write-back
    /// excluded: this is the pool's span).
    pub route_wall: Duration,
    /// Per-unit-packet wall-time histogram (packets that ran to
    /// completion, cached replays included; halted packets are not
    /// recorded).
    pub latency: LatencyHistogram,
    /// Thread-level counters of this run: the serving threads (helpers,
    /// then the calling thread), their executed/busy/panics, and skips.
    pub scheduler: WorkerCounters,
    /// Bucket counters over this run's window: per-bucket packets
    /// executed, steals, preemptions ([`crate::sched`]). With a private
    /// pool this is the run's exact accounting; on a shared
    /// [`FleetConfig::sched`] concurrent tiers' packets land in whichever
    /// run's window they completed. Steals (packets a helper ran) read
    /// zero when the calling thread serves the run alone.
    pub sched: SchedCounters,
}

impl FleetStats {
    /// Sets the per-outcome board counters (and `boards`) from the run's
    /// full outcome vector.
    pub(crate) fn tally(&mut self, outcomes: &[BoardOutcome]) {
        let count = |pred: fn(&BoardOutcome) -> bool| outcomes.iter().filter(|o| pred(o)).count();
        self.boards = outcomes.len();
        self.routed = count(BoardOutcome::is_routed);
        self.rejected = count(|o| matches!(o, BoardOutcome::Rejected(_)));
        self.failed = count(|o| matches!(o, BoardOutcome::Failed(_)));
        self.cancelled = count(|o| matches!(o, BoardOutcome::Cancelled));
        self.deadline_exceeded = count(|o| matches!(o, BoardOutcome::DeadlineExceeded));
        self.degraded = count(|o| matches!(o, BoardOutcome::Degraded { .. }));
        self.shed = count(|o| matches!(o, BoardOutcome::Shed(_)));
    }
}

/// One fleet run's results: per-board outcomes and group reports (board
/// order, group order — exactly what per-board
/// [`meander_core::match_all_groups`] returns for routed boards) plus the
/// run's stats.
#[must_use = "a fleet report carries every board's outcome — dropping it loses failures silently"]
#[derive(Debug)]
pub struct FleetReport {
    /// `reports[b]` are board `b`'s group reports; empty unless
    /// `outcomes[b]` is [`BoardOutcome::Routed`] (or
    /// [`BoardOutcome::Degraded`] under the resilience layer).
    pub reports: Vec<Vec<GroupReport>>,
    /// `outcomes[b]` says what happened to board `b`.
    pub outcomes: Vec<BoardOutcome>,
    /// Scheduler / sharing / failure observability.
    pub stats: FleetStats,
}

impl FleetReport {
    /// `true` when every board routed.
    pub fn all_routed(&self) -> bool {
        self.outcomes.iter().all(BoardOutcome::is_routed)
    }

    /// One-line run summary for log ingestion: every outcome counter, the
    /// unit completion ratio, and the latency tail, in a stable
    /// `key=value` format.
    pub fn summary(&self) -> String {
        let s = &self.stats;
        let considered = s.units_dirty + s.units_skipped;
        let skip_rate = if considered > 0 {
            100.0 * s.units_skipped as f64 / considered as f64
        } else {
            0.0
        };
        format!(
            "fleet boards={} routed={} degraded={} rejected={} failed={} \
             cancelled={} deadline={} shed={} retries={} units={}/{} \
             dirty={} skipped={} cells_dirty={} skip_rate={:.1}% \
             replanned={} wall={:.3?} p99={:.3?} \
             packets_interactive={} packets_batch={} packets_speculative={} \
             preemptions={} steals={}",
            s.boards,
            s.routed,
            s.degraded,
            s.rejected,
            s.failed,
            s.cancelled,
            s.deadline_exceeded,
            s.shed,
            s.retries,
            s.units_run,
            s.units,
            s.units_dirty,
            s.units_skipped,
            s.cells_dirty,
            skip_rate,
            s.boards_replanned,
            s.route_wall,
            s.latency.quantile_upper(0.99),
            s.sched.packets[Tier::Interactive.index()],
            s.sched.packets[Tier::Batch.index()],
            s.sched.packets[Tier::Speculative.index()],
            s.sched.preemptions,
            s.sched.steals,
        )
    }
}

/// Routes every group of every valid board of `set`, in place.
///
/// Every board comes back with a [`BoardOutcome`]; routed boards' results
/// (trace geometry, group reports) are bit-identical to routing each
/// board's materialized twin through `match_all_groups` sequentially, for
/// every worker count and both `share_library` states (see the
/// [module docs](self) for the argument; property-tested in
/// `tests/determinism.rs` and, under faults, `tests/chaos.rs`).
///
/// This is the pipeline's fresh plan of every valid board, executed at
/// [`Tier::Batch`] and written back in place.
pub fn route_fleet(set: &mut BoardSet, config: &FleetConfig) -> FleetReport {
    let started = Instant::now();
    let n = set.boards.len();
    let (libraries, lib_of) = library_slots(&set.boards);
    // Rejected boards are never planned, never donate rules to a shared
    // base, and keep their input geometry byte for byte.
    #[cfg_attr(not(feature = "fault"), allow(unused_mut))]
    let (mut rejected, validation_wall) = validate_fresh(&libraries, &lib_of, &set.boards);
    #[cfg(feature = "fault")]
    for &b in &config.fault.trip_boards {
        if b < n && rejected[b].is_none() {
            rejected[b] = Some(ValidationError::Injected {
                reason: format!("fault plan tripped validation of board {b}"),
            });
        }
    }
    // Content identities only when a cache is attached: one Merkle root
    // per distinct library, one local digest per valid board. Duplicate
    // boards' digests coincide, so their groups share cache entries.
    let roots: Vec<u64> = match config.cache {
        Some(_) => libraries.iter().map(|l| library_root(l)).collect(),
        None => Vec::new(),
    };
    let mut bases = BaseCache::default();
    let mut plan = Plan::new(config, started, &libraries, &mut bases, n);
    for (b, lb) in set.boards.iter().enumerate() {
        if rejected[b].is_none() {
            let ident =
                (config.cache.is_some()).then(|| (roots[lib_of[b]], hash_board_local(lb.board())));
            plan.board(b, lib_of[b], lb.board(), ident, |_, _| true);
        }
    }
    let run = execute(plan, Tier::Batch);
    let mut reports: Vec<Vec<GroupReport>> = vec![Vec::new(); n];
    let boards = &mut set.boards;
    let resolved = resolve(run, |gj, done| {
        let outputs = done.into_iter().map(|(_, out, _)| out).collect();
        let board = boards[gj.board].board_mut();
        reports[gj.board].push(write_group(board, gj.target, outputs));
    });
    let outcomes: Vec<BoardOutcome> = rejected
        .into_iter()
        .zip(resolved.lost)
        .map(|(rejected, lost)| match rejected {
            Some(err) => BoardOutcome::Rejected(err),
            None => lost.unwrap_or(BoardOutcome::Routed),
        })
        .collect();
    let mut stats = FleetStats {
        validation_wall,
        ..resolved.stats
    };
    stats.tally(&outcomes);
    FleetReport {
        reports,
        outcomes,
        stats,
    }
}

/// What a speculative warm-up pass did.
#[derive(Debug, Clone, Default)]
pub struct WarmupReport {
    /// Boards scanned (invalid ones are skipped, not warmed).
    pub boards: usize,
    /// Boards that failed validation and were skipped.
    pub invalid: usize,
    /// Groups planned across the valid boards (duplicates included).
    pub groups: usize,
    /// Distinct cache keys among them — the predicted-dup structure
    /// ([`meander_layout::hash`] digests): a dup-heavy fleet collapses to
    /// few distinct keys, and warming one representative serves them all.
    pub distinct: usize,
    /// Distinct keys that already had entries (nothing to do).
    pub already_cached: usize,
    /// Groups this pass routed and inserted.
    pub warmed: usize,
    /// Groups that lost at least one unit to a panic — never inserted,
    /// never poisoning the cache.
    pub failed: usize,
    /// Groups whose packets were skipped by cancellation or the deadline.
    pub skipped: usize,
    /// Wall clock of the pass.
    pub elapsed: Duration,
    /// Worker-level counters of the pass.
    pub scheduler: WorkerCounters,
    /// Bucket counters over the pass's window (its packets run at
    /// [`Tier::Speculative`]).
    pub sched: SchedCounters,
}

/// Pre-populates `cache` with the entries a fleet like `set` would need —
/// on the [`Tier::Speculative`] bucket, so a shared
/// [`FleetConfig::sched`] only spends cycles no interactive or batch
/// work wants.
///
/// The producer enumerates the fleet's **predicted-dup structure**: every
/// group's exact [`CacheKey`] (library Merkle root + board digest + group
/// digest — [`meander_layout::hash`]), deduplicated, minus keys already
/// cached. One representative group per distinct missing key routes with
/// touch recording and installs through `ResultCache::insert` — the
/// same exact keys and insert-if-absent path the engine uses, so
/// correctness is inherited: a warmed entry is bit-identical to what the
/// fleet would have routed and inserted itself. Boards are **not**
/// written back; the set is untouched.
///
/// A panicking packet (chaos-injected or real) resolves its group as
/// [`WarmupReport::failed`] — an incomplete group never fills its insert
/// accumulator, so a crash cannot poison the cache. Fault injection keys
/// on the warm-up's *own* input-order unit/group indices.
pub fn warm_fleet_cache(
    set: &BoardSet,
    config: &FleetConfig,
    cache: &Arc<ResultCache>,
) -> WarmupReport {
    let started = Instant::now();
    let (libraries, lib_of) = library_slots(&set.boards);
    let (invalid, _) = validate_fresh(&libraries, &lib_of, &set.boards);
    let roots: Vec<u64> = libraries.iter().map(|l| library_root(l)).collect();
    // The pass fills `cache`, whatever the config attaches.
    let config = FleetConfig {
        cache: Some(Arc::clone(cache)),
        ..config.clone()
    };
    let mut bases = BaseCache::default();
    let mut plan = Plan::new(&config, started, &libraries, &mut bases, set.len());
    let mut seen: HashSet<CacheKey> = HashSet::new();
    let (mut groups, mut already_cached, mut warmed_empty) = (0usize, 0usize, 0usize);
    for (b, lb) in set.boards.iter().enumerate() {
        if invalid[b].is_some() {
            continue;
        }
        let ident = (roots[lib_of[b]], hash_board_local(lb.board()));
        // One representative per distinct missing key; an empty group
        // needs no routing and inserts right here.
        plan.board(b, lib_of[b], lb.board(), Some(ident), |key, units| {
            groups += 1;
            let Some(key) = key else { return false };
            if !seen.insert(key) {
                return false;
            }
            if cache.contains(&key) {
                already_cached += 1;
                return false;
            }
            if units == 0 {
                warmed_empty += usize::from(cache.insert(key, CachedGroup::new(Vec::new())));
                return false;
            }
            true
        });
    }
    let resolved = resolve(execute(plan, Tier::Speculative), |_, _| {});
    let failed = resolved.groups.iter().filter(|g| is_failed(g)).count();
    let skipped = resolved.groups.iter().flatten().count() - failed;
    WarmupReport {
        boards: set.len(),
        invalid: invalid.iter().flatten().count(),
        groups,
        distinct: seen.len(),
        already_cached,
        warmed: warmed_empty + resolved.groups.len() - failed - skipped,
        failed,
        skipped,
        elapsed: started.elapsed(),
        scheduler: resolved.stats.scheduler,
        sched: resolved.stats.sched,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_core::match_all_groups;
    use meander_geom::Point;
    use meander_layout::gen::fleet_boards_small;
    use meander_layout::ValidationError;

    fn serial_extend() -> ExtendConfig {
        ExtendConfig {
            parallel: false,
            ..Default::default()
        }
    }

    /// Fleet results must match per-board sequential `match_all_groups`
    /// exactly — geometry bits included — in both sharing modes.
    #[test]
    fn fleet_matches_sequential_bitwise() {
        for share in [true, false] {
            let fleet = fleet_boards_small(5, 21, 42);
            let mut set = BoardSet::new(fleet.boards.clone());
            let report = route_fleet(
                &mut set,
                &FleetConfig {
                    extend: serial_extend(),
                    workers: Some(3),
                    share_library: share,
                    ..Default::default()
                },
            );
            assert_eq!(report.stats.boards, 5);
            assert!(report.all_routed(), "{:?}", report.outcomes);
            assert_eq!(report.stats.routed, 5);
            assert_eq!(report.stats.units_run, report.stats.units);
            assert_eq!(report.stats.latency.count as usize, report.stats.units_run);
            assert_eq!(
                report.stats.scheduler.total_executed() as usize,
                report.stats.units
            );
            assert_eq!(
                report.stats.sched.packets[Tier::Batch.index()] as usize,
                report.stats.units
            );
            assert_eq!(report.stats.sched.packets[Tier::Interactive.index()], 0);

            for (b, lb) in fleet.boards.iter().enumerate() {
                let mut reference = lb.to_board();
                let want = match_all_groups(&mut reference, &serial_extend());
                let got = &report.reports[b];
                assert_eq!(want.len(), got.len(), "share={share} board {b}");
                for (w, g) in want.iter().zip(got.iter()) {
                    assert_eq!(w.target.to_bits(), g.target.to_bits());
                    assert_eq!(w.traces.len(), g.traces.len());
                    for (x, y) in w.traces.iter().zip(&g.traces) {
                        assert_eq!(x.id, y.id);
                        assert_eq!(x.patterns, y.patterns);
                        assert_eq!(x.achieved.to_bits(), y.achieved.to_bits());
                        assert_eq!(x.initial.to_bits(), y.initial.to_bits());
                        assert_eq!(x.via_msdtw, y.via_msdtw);
                    }
                }
                // Geometry: the fleet board's local part must now hold the
                // exact routed centerlines of the reference.
                for (id, t) in reference.traces() {
                    let routed = set.boards()[b].board().trace(id).unwrap();
                    assert_eq!(
                        t.centerline(),
                        routed.centerline(),
                        "share={share} board {b} trace {id:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn shared_mode_builds_one_base() {
        let fleet = fleet_boards_small(4, 9, 13);
        let mut set = BoardSet::new(fleet.boards);
        let report = route_fleet(&mut set, &FleetConfig::default());
        assert_eq!(report.stats.libraries, 1);
        assert!(report.stats.library_polygons > 0);
        assert!(report.stats.base_build > Duration::ZERO);
        assert!(report.stats.validation_wall > Duration::ZERO);
        assert_eq!(report.reports.len(), 4);
        // Unshared mode reports the library but builds no base.
        let fleet = fleet_boards_small(4, 9, 13);
        let mut set = BoardSet::new(fleet.boards);
        let report = route_fleet(
            &mut set,
            &FleetConfig {
                share_library: false,
                ..Default::default()
            },
        );
        assert_eq!(report.stats.libraries, 1);
        assert_eq!(report.stats.base_build, Duration::ZERO);
    }

    #[test]
    fn empty_fleet() {
        let mut set = BoardSet::new(vec![]);
        let report = route_fleet(&mut set, &FleetConfig::default());
        assert_eq!(report.stats.boards, 0);
        assert_eq!(report.stats.jobs, 0);
        assert!(report.reports.is_empty());
        assert!(report.outcomes.is_empty());
    }

    /// A malformed board is rejected with provenance; its neighbours
    /// route bit-identically to a fleet that never contained it.
    #[test]
    fn invalid_board_is_rejected_not_routed() {
        let fleet = fleet_boards_small(3, 21, 42);
        let mut boards = fleet.boards.clone();
        // Poison board 1: NaN coordinate on its first trace.
        {
            let board = boards[1].board_mut();
            let id = board.traces().next().map(|(id, _)| id).unwrap();
            let trace = board.trace_mut(id).unwrap();
            let mut pts = trace.centerline().points().to_vec();
            pts[0] = Point::new(f64::NAN, pts[0].y);
            trace.set_centerline(meander_geom::Polyline::new(pts));
        }
        let poisoned_snapshot = boards[1].board().clone();
        let mut set = BoardSet::new(boards);
        let report = route_fleet(
            &mut set,
            &FleetConfig {
                extend: serial_extend(),
                workers: Some(2),
                ..Default::default()
            },
        );
        assert!(matches!(
            report.outcomes[1],
            BoardOutcome::Rejected(ValidationError::NonFiniteCoordinate { .. })
        ));
        assert!(report.outcomes[0].is_routed());
        assert!(report.outcomes[2].is_routed());
        assert_eq!(report.stats.rejected, 1);
        assert_eq!(report.stats.routed, 2);
        assert!(report.reports[1].is_empty());
        // The rejected board's geometry is untouched.
        for (id, t) in poisoned_snapshot.traces() {
            let now = set.boards()[1].board().trace(id).unwrap();
            assert_eq!(
                t.centerline().points().len(),
                now.centerline().points().len()
            );
        }
        // The healthy boards match their sequential references exactly.
        for b in [0usize, 2] {
            let mut reference = fleet.boards[b].to_board();
            let _ = match_all_groups(&mut reference, &serial_extend());
            for (id, t) in reference.traces() {
                assert_eq!(
                    t.centerline(),
                    set.boards()[b].board().trace(id).unwrap().centerline(),
                    "board {b} trace {id:?}"
                );
            }
        }
    }

    /// A trace in two groups breaks the snapshot-then-write-back argument
    /// (the later group's write-back would overwrite the earlier group's
    /// match), so such boards are rejected rather than silently routed
    /// differently from sequential `match_all_groups`.
    #[test]
    fn overlapping_groups_are_rejected() {
        let fleet = fleet_boards_small(4, 7, 11);
        let mut boards = fleet.boards.clone();
        for lb in &mut boards {
            let shared = lb.board().groups()[0].members()[..2].to_vec();
            lb.board_mut()
                .add_group(meander_layout::MatchGroup::new("overlap", shared));
        }
        let mut set = BoardSet::new(boards);
        let report = route_fleet(&mut set, &FleetConfig::default());
        for (b, o) in report.outcomes.iter().enumerate() {
            assert!(
                matches!(
                    o,
                    BoardOutcome::Rejected(ValidationError::OverlappingGroups { .. })
                ),
                "board {b}: {o:?}"
            );
            for (id, t) in fleet.boards[b].board().traces() {
                let now = set.boards()[b].board().trace(id).unwrap();
                assert_eq!(t.centerline(), now.centerline(), "board {b} untouched");
            }
        }
        assert_eq!(report.stats.rejected, 4);
        assert_eq!(report.stats.units, 0);
    }

    /// A pre-fired token cancels every board before any routing happens.
    #[test]
    fn pre_cancelled_fleet_routes_nothing() {
        let token = CancelToken::new();
        token.cancel();
        let fleet = fleet_boards_small(3, 7, 11);
        let mut set = BoardSet::new(fleet.boards);
        let report = route_fleet(
            &mut set,
            &FleetConfig {
                extend: serial_extend(),
                workers: Some(2),
                cancel: Some(token),
                ..Default::default()
            },
        );
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(o, BoardOutcome::Cancelled)));
        assert_eq!(report.stats.cancelled, 3);
        assert_eq!(report.stats.units_run, 0);
    }

    /// A zero deadline expires every board; a generous one routes all.
    #[test]
    fn deadlines_bound_the_run() {
        let fleet = fleet_boards_small(3, 7, 11);
        let mut set = BoardSet::new(fleet.boards.clone());
        let report = route_fleet(
            &mut set,
            &FleetConfig {
                extend: serial_extend(),
                workers: Some(2),
                deadline: Some(Duration::ZERO),
                ..Default::default()
            },
        );
        assert!(report
            .outcomes
            .iter()
            .all(|o| matches!(o, BoardOutcome::DeadlineExceeded)));
        assert_eq!(report.stats.deadline_exceeded, 3);

        let mut set = BoardSet::new(fleet.boards);
        let report = route_fleet(
            &mut set,
            &FleetConfig {
                extend: serial_extend(),
                workers: Some(2),
                deadline: Some(Duration::from_secs(600)),
                ..Default::default()
            },
        );
        assert!(report.all_routed(), "{:?}", report.outcomes);
    }
}
