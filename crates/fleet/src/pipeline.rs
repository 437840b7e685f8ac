//! The one fleet pipeline: **plan → execute → resolve**.
//!
//! Every fleet entry point is a thin client of these three steps:
//!
//! * [`crate::route_fleet`] plans every valid board and executes at
//!   [`Tier::Batch`];
//! * [`crate::warm_fleet_cache`] plans one representative group per
//!   distinct missing [`CacheKey`] and executes at [`Tier::Speculative`],
//!   with no write-back;
//! * [`crate::FleetSession`] keeps its damage classification, cached
//!   verdicts, and retained outputs, and feeds only its dirty units into a
//!   plan executed at [`Tier::Interactive`].
//!
//! A [`Plan`] turns validated boards into keyed unit packets. It selects
//! each unit's shared [`WorldBase`] from the per-`(library slot, rules
//! lattice)` [`BaseCache`], snapshots a board's obstacles once (on the
//! board's first packet), and derives group [`CacheKey`]s. [`execute`]
//! runs every packet through one body and is the only caller of
//! [`run_packets`]. [`resolve`] turns the packet statuses into per-group
//! and per-board losses, hands every group of a board that lost nothing
//! to the caller's write-back in `(board, group)` order — a board is
//! written whole or not at all — and builds the run's [`FleetStats`].

use crate::cache::{self, CacheKey, CachedGroup, CachedUnit, ResultCache};
use crate::cancel::CancelToken;
use crate::engine::{FleetConfig, FleetStats};
#[cfg(feature = "fault")]
use crate::fault::FaultPlan;
use crate::outcome::{BoardOutcome, JobError, LatencyHistogram};
use crate::sched::{run_packets, JobStatus, SchedCounters, Tier, WorkerCounters};
use meander_core::context::{obstacle_inflation, world_cell};
use meander_core::{
    apply_outputs, gather_obstacles, plan_board_units, run_unit, CellTouches, DesignRules,
    ExtendConfig, GroupReport, IndexKind, UnitInput, UnitOutput, WorldBase,
};
use meander_geom::Polygon;
use meander_layout::{
    validate_board, validate_library, Board, LibraryBoard, ObstacleLibrary, ValidationError,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Per-`(library slot, rules-derived lattice)` [`WorldBase`] cache.
///
/// Keyed on a library slot plus the bit patterns of the two floats
/// [`WorldBase::compatible`] checks — the lattice cell and obstacle
/// inflation derived from a rule set. Rule sets that derive the same
/// floats share one base; a rules edit lands on a new key and builds
/// (once) on demand. A fresh plan starts empty; the serving session keeps
/// one warm across re-routes.
#[derive(Default)]
pub(crate) struct BaseCache {
    entries: Vec<((usize, u64, u64), Arc<WorldBase>)>,
    build_time: Duration,
}

impl BaseCache {
    fn get_or_build(
        &mut self,
        slot: usize,
        rules: &DesignRules,
        library: &ObstacleLibrary,
        kind: IndexKind,
    ) -> Arc<WorldBase> {
        let key = (
            slot,
            world_cell(rules).to_bits(),
            obstacle_inflation(rules).to_bits(),
        );
        if let Some((_, b)) = self.entries.iter().find(|(k, _)| *k == key) {
            return Arc::clone(b);
        }
        let t0 = Instant::now();
        let base = Arc::new(WorldBase::build(&library.polygons(), rules, kind));
        self.build_time += t0.elapsed();
        self.entries.push((key, Arc::clone(&base)));
        base
    }

    /// Drops every entry of library `slot` — its polygon content changed.
    pub(crate) fn invalidate(&mut self, slot: usize) {
        self.entries.retain(|((s, _, _), _)| *s != slot);
    }
}

/// The distinct obstacle libraries of `boards` by `Arc` identity, in
/// first-reference order, plus each board's slot in that table.
pub(crate) fn library_slots(boards: &[LibraryBoard]) -> (Vec<Arc<ObstacleLibrary>>, Vec<usize>) {
    let mut libraries: Vec<Arc<ObstacleLibrary>> = Vec::new();
    let lib_of = boards
        .iter()
        .map(|lb| {
            libraries
                .iter()
                .position(|l| Arc::ptr_eq(l, lb.library()))
                .unwrap_or_else(|| {
                    libraries.push(Arc::clone(lb.library()));
                    libraries.len() - 1
                })
        })
        .collect();
    (libraries, lib_of)
}

/// Validation verdicts per library slot and per board; `None` marks a
/// stale scope. A fresh plan starts all-stale and scans each library and
/// board once; the serving session marks only edited scopes stale, so an
/// untouched fleet pays no rescan. Verdicts are deterministic in content,
/// so cached ones equal what a full rescan would recompute.
pub(crate) struct Verdicts {
    library: Vec<Option<Option<ValidationError>>>,
    board: Vec<Option<Option<ValidationError>>>,
}

impl Verdicts {
    /// Every scope stale.
    pub(crate) fn stale(libraries: usize, boards: usize) -> Verdicts {
        Verdicts {
            library: vec![None; libraries],
            board: vec![None; boards],
        }
    }

    pub(crate) fn invalidate_library(&mut self, slot: usize) {
        self.library[slot] = None;
    }

    pub(crate) fn invalidate_board(&mut self, b: usize) {
        self.board[b] = None;
    }

    /// Validates every stale scope; returns the time spent.
    pub(crate) fn refresh<'b>(
        &mut self,
        libraries: &[Arc<ObstacleLibrary>],
        board: impl Fn(usize) -> &'b Board,
    ) -> Duration {
        let t0 = Instant::now();
        for (v, lib) in self.library.iter_mut().zip(libraries) {
            v.get_or_insert_with(|| validate_library(lib).err());
        }
        for (b, v) in self.board.iter_mut().enumerate() {
            v.get_or_insert_with(|| validate_board(board(b)).err());
        }
        t0.elapsed()
    }

    /// Board `b`'s verdict under library `slot` (the library's error
    /// first, as the library is scanned first).
    pub(crate) fn get(&self, slot: usize, b: usize) -> Option<ValidationError> {
        let library = self.library[slot].as_ref().and_then(Clone::clone);
        library.or_else(|| self.board[b].as_ref().and_then(Clone::clone))
    }
}

/// A fresh plan's validation gate: every distinct library is scanned once
/// (boards sharing it inherit the verdict) and every board once. Returns
/// per-board verdicts and the scan's wall time.
pub(crate) fn validate_fresh(
    libraries: &[Arc<ObstacleLibrary>],
    lib_of: &[usize],
    boards: &[LibraryBoard],
) -> (Vec<Option<ValidationError>>, Duration) {
    let mut verdicts = Verdicts::stale(libraries.len(), boards.len());
    let wall = verdicts.refresh(libraries, |b| boards[b].board());
    let rejected = (0..boards.len())
        .map(|b| verdicts.get(lib_of[b], b))
        .collect();
    (rejected, wall)
}

/// Applies one group's unit outputs (unit order) to `board` and reports
/// the group — what per-board `match_all_groups` returns for it.
pub(crate) fn write_group(board: &mut Board, target: f64, outputs: Vec<UnitOutput>) -> GroupReport {
    let (traces, runtime) = apply_outputs(board, outputs);
    GroupReport {
        target,
        traces,
        runtime,
    }
}

/// One planned group: write-back metadata. Not scheduled itself — its
/// units are; its index in the plan doubles as the fault plan's job
/// index.
pub(crate) struct GroupJob {
    pub(crate) board: usize,
    /// Board-local group index.
    pub(crate) group: usize,
    pub(crate) target: f64,
    unit_count: usize,
    /// Content-addressed identity: when set, the group's packets consult
    /// the result cache before routing and insert the group once every
    /// unit routed fresh.
    key: Option<CacheKey>,
}

/// One scheduled packet: a single unit, snapshotted.
struct UnitJob {
    board: usize,
    /// Index into the plan's group list.
    gj: usize,
    /// Unit index within its group.
    unit: usize,
    input: UnitInput,
    /// Shared base selected by this unit's [`UnitInput::world_rules`]
    /// (`None` when sharing is off).
    base: Option<Arc<WorldBase>>,
    /// The obstacle polygons the unit sees: board-local only in shared
    /// mode, `library ++ local` when materialized.
    obstacles: Arc<Vec<Polygon>>,
    /// Input-order unit index within the plan (fault panic-at-unit keys on
    /// it, making injections invariant across scheduling).
    #[cfg_attr(not(feature = "fault"), allow(dead_code))]
    global_unit: u64,
}

/// Validated boards turned into keyed unit packets.
pub(crate) struct Plan<'a> {
    config: &'a FleetConfig,
    /// Deadline origin.
    started: Instant,
    libraries: &'a [Arc<ObstacleLibrary>],
    bases: &'a mut BaseCache,
    base_before: Duration,
    /// Per board, built on the board's first packet.
    obstacles: Vec<Option<Arc<Vec<Polygon>>>>,
    groups: Vec<GroupJob>,
    units: Vec<UnitJob>,
}

impl<'a> Plan<'a> {
    /// An empty plan over `boards` boards referencing `libraries` (by
    /// slot), taking shared bases from `bases`.
    pub(crate) fn new(
        config: &'a FleetConfig,
        started: Instant,
        libraries: &'a [Arc<ObstacleLibrary>],
        bases: &'a mut BaseCache,
        boards: usize,
    ) -> Plan<'a> {
        Plan {
            config,
            started,
            libraries,
            base_before: bases.build_time,
            bases,
            obstacles: vec![None; boards],
            groups: Vec::new(),
            units: Vec::new(),
        }
    }

    /// Opens group `group` of board `board`; the following
    /// [`Plan::unit`] calls add its packets in unit order.
    pub(crate) fn group(
        &mut self,
        board: usize,
        group: usize,
        target: f64,
        unit_count: usize,
        key: Option<CacheKey>,
    ) {
        self.groups.push(GroupJob {
            board,
            group,
            target,
            unit_count,
            key,
        });
    }

    /// Adds unit `unit` of the last opened group — whose board is
    /// `board`, referencing library `slot` — as one packet.
    pub(crate) fn unit(&mut self, slot: usize, board: &Board, unit: usize, input: UnitInput) {
        let gj = self.groups.len() - 1;
        let b = self.groups[gj].board;
        let library = &self.libraries[slot];
        let share = self.config.share_library;
        let obstacles = self.obstacles[b].get_or_insert_with(|| {
            Arc::new(if share {
                gather_obstacles(board)
            } else {
                let mut all = library.polygons();
                all.extend(gather_obstacles(board));
                all
            })
        });
        let obstacles = Arc::clone(obstacles);
        // Keyed on the rules the unit's world derives from, so a pair's
        // merged median (virtualized rules) finds a compatible base. Only
        // a degenerate pair's fallback sub-extensions materialize the
        // library inside the engine — bit-identical either way.
        let base = share.then(|| {
            let kind = self.config.extend.index;
            self.bases
                .get_or_build(slot, &input.world_rules(), library, kind)
        });
        self.units.push(UnitJob {
            board: b,
            gj,
            unit,
            input,
            base,
            obstacles,
            global_unit: self.units.len() as u64,
        });
    }

    /// Plans every group of `board` (board `b`, library `slot`) in group
    /// order. With `ident = Some((library_root, board_local_hash))` the
    /// groups are keyed; `admit` sees each group's key and unit count and
    /// drops the group by returning `false`.
    pub(crate) fn board(
        &mut self,
        b: usize,
        slot: usize,
        board: &Board,
        ident: Option<(u64, u64)>,
        mut admit: impl FnMut(Option<CacheKey>, usize) -> bool,
    ) {
        for (g, (target, units)) in plan_board_units(board).into_iter().enumerate() {
            let key =
                ident.map(|id| cache::key_for(id, board, g, target, &units, &self.config.extend));
            if !admit(key, units.len()) {
                continue;
            }
            self.group(b, g, target, units.len(), key);
            for (u, input) in units.into_iter().enumerate() {
                self.unit(slot, board, u, input);
            }
        }
    }
}

/// Shared run-control state polled at pop and unit boundaries.
struct RunControl {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    board_budget: Option<Duration>,
    /// Busy nanoseconds charged per board (indexed by submission order).
    board_spent: Vec<AtomicU64>,
}

impl RunControl {
    /// Cancel/deadline check — the pop-boundary predicate. A halt is
    /// [`BoardOutcome::Cancelled`] or [`BoardOutcome::DeadlineExceeded`].
    fn global_halt(&self) -> Option<BoardOutcome> {
        if self.cancel.as_ref().is_some_and(CancelToken::is_cancelled) {
            return Some(BoardOutcome::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(BoardOutcome::DeadlineExceeded);
        }
        None
    }

    /// Full check including the board's busy budget — the unit-boundary
    /// predicate.
    fn board_halt(&self, board: usize) -> Option<BoardOutcome> {
        let spent = Duration::from_nanos(self.board_spent[board].load(Ordering::Relaxed));
        self.global_halt().or_else(|| {
            (self.board_budget.is_some_and(|budget| spent >= budget))
                .then_some(BoardOutcome::DeadlineExceeded)
        })
    }
}

/// What one unit packet resolved to.
enum UnitRes {
    /// The unit's board halted (token, deadline, or busy budget) before
    /// this unit ran.
    Halted(BoardOutcome),
    /// The unit completed — routed fresh or replayed from the cache.
    /// `touches` holds its recorded cells when an interactive packet
    /// routed it (empty otherwise).
    Done {
        out: UnitOutput,
        touches: CellTouches,
        elapsed: Duration,
    },
}

/// Everything a unit packet needs beyond its own snapshot, shared across
/// the run (packets are `'static`, so this is `Arc`ed rather than
/// borrowed).
struct RunState {
    extend: ExtendConfig,
    tier: Tier,
    control: RunControl,
    cache: Option<Arc<ResultCache>>,
    groups: Vec<GroupJob>,
    /// Per group: fresh-routed unit results accumulating toward an
    /// in-run insert — when every slot fills (no unit was cached, halted,
    /// or panicked), the group inserts. Empty vecs for unkeyed groups.
    accum: Vec<Mutex<Vec<Option<CachedUnit>>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    #[cfg(feature = "fault")]
    fault: FaultPlan,
}

impl RunState {
    /// The one packet body: fault delay on the group's first unit, cache
    /// consult, unit-boundary halt, injected panic, route (recording
    /// touches when the group is keyed or the packet serves a session),
    /// in-run group insert, busy charge.
    fn run_unit(&self, job: &UnitJob) -> UnitRes {
        let t0 = Instant::now();
        #[cfg(feature = "fault")]
        if job.unit == 0 {
            if let Some(delay) = self.fault.delay_jobs.get(&(job.gj as u64)) {
                std::thread::sleep(*delay);
            }
        }
        let gjm = &self.groups[job.gj];
        // Cache consultation first: a hit replays the stored bytes —
        // exactly what routing would produce (determinism; module docs of
        // `crate::cache`).
        if let (Some(cache), Some(key)) = (self.cache.as_deref(), gjm.key.as_ref()) {
            if let Some(cached) = cache.lookup(key) {
                if let Some(u) = cached.units().get(job.unit) {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return UnitRes::Done {
                        out: u.to_output(),
                        touches: CellTouches::default(),
                        elapsed: t0.elapsed(),
                    };
                }
            }
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        }
        // Speculative packets have no board to halt or charge.
        let speculative = self.tier == Tier::Speculative;
        if !speculative {
            // Unit boundary: the finer-grained budget check. A fired
            // token or blown budget stops this board's remaining units;
            // other boards are unaffected.
            if let Some(h) = self.control.board_halt(job.board) {
                return UnitRes::Halted(h);
            }
        }
        #[cfg(feature = "fault")]
        if self.fault.panics_unit(job.global_unit) {
            panic!(
                "injected fault: panic at unit {} (board {}, group {}, attempt {})",
                job.global_unit, job.board, gjm.group, self.fault.attempt
            );
        }
        // Interactive packets serve a session, which retains every unit's
        // touches to test later damage against.
        let mut touches = CellTouches::default();
        let record = gjm.key.is_some() || self.tier == Tier::Interactive;
        let out = run_unit(
            &job.input,
            &job.obstacles,
            job.base.as_ref(),
            &self.extend,
            record.then_some(&mut touches),
        );
        // In-run group insert: only a group whose *every* unit routed
        // fresh inserts (a panicking or halted unit never fills its slot —
        // no poisoned entries, structurally; a mixed group's cached units
        // mean the entry already exists).
        if let (Some(cache), Some(key)) = (self.cache.as_deref(), gjm.key) {
            let full = {
                // Packet bodies run under catch_unwind, so a poisoned
                // accumulator can only mean a panic in this bookkeeping.
                let mut acc = self.accum[job.gj]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                acc[job.unit] = Some(CachedUnit::new(&out, std::mem::take(&mut touches)));
                if acc.iter().all(Option::is_some) {
                    Some(acc.iter_mut().flat_map(Option::take).collect::<Vec<_>>())
                } else {
                    None
                }
            };
            if let Some(units) = full {
                cache.insert(key, CachedGroup::new(units));
            }
        }
        if !speculative {
            let nanos = out.busy().as_nanos().min(u128::from(u64::MAX)) as u64;
            self.control.board_spent[job.board].fetch_add(nanos, Ordering::Relaxed);
        }
        UnitRes::Done {
            out,
            touches,
            elapsed: t0.elapsed(),
        }
    }
}

/// An executed plan, ready to [`resolve`].
pub(crate) struct Run {
    boards: usize,
    state: Arc<RunState>,
    units: Arc<Vec<UnitJob>>,
    statuses: Vec<JobStatus<UnitRes>>,
    /// The run-level stats `execute` measured.
    stats: FleetStats,
}

/// Runs `plan`'s packets at `tier` — on [`FleetConfig::sched`] when
/// attached, else a private pool of the config's workers — under its
/// cancel token, deadline, and per-board budget. Zero-unit keyed groups
/// consult (and fill) the cache on the calling thread; a plan with no
/// packets schedules nothing.
pub(crate) fn execute(plan: Plan<'_>, tier: Tier) -> Run {
    let config = plan.config;
    let (mut hits, mut misses) = (0u64, 0u64);
    if let Some(cache) = config.cache.as_deref() {
        for gj in plan.groups.iter().filter(|gj| gj.unit_count == 0) {
            let Some(key) = gj.key else { continue };
            if cache.lookup(&key).is_some() {
                hits += 1;
            } else {
                misses += 1;
                cache.insert(key, CachedGroup::new(Vec::new()));
            }
        }
    }
    let boards = plan.obstacles.len();
    let state = Arc::new(RunState {
        extend: config.extend.clone(),
        tier,
        control: RunControl {
            cancel: config.cancel.clone(),
            deadline: config.deadline.map(|d| plan.started + d),
            board_budget: config.board_budget,
            board_spent: (0..boards).map(|_| AtomicU64::new(0)).collect(),
        },
        cache: config.cache.clone(),
        accum: plan
            .groups
            .iter()
            .map(|gj| Mutex::new(vec![None; if gj.key.is_some() { gj.unit_count } else { 0 }]))
            .collect(),
        groups: plan.groups,
        cache_hits: AtomicU64::new(hits),
        cache_misses: AtomicU64::new(misses),
        #[cfg(feature = "fault")]
        fault: config.fault.clone(),
    });
    let units = Arc::new(plan.units);
    let workers = config
        .workers
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
        .max(1);
    let t0 = Instant::now();
    let (statuses, scheduler, sched) = if units.is_empty() {
        (
            Vec::new(),
            WorkerCounters::default(),
            SchedCounters::default(),
        )
    } else {
        let stop: Arc<dyn Fn() -> bool + Send + Sync> = {
            let s = Arc::clone(&state);
            Arc::new(move || s.control.global_halt().is_some())
        };
        let s = Arc::clone(&state);
        run_packets(
            config.sched.as_ref(),
            tier,
            workers,
            Arc::clone(&units),
            Some(stop),
            Arc::new(move |job: &UnitJob| s.run_unit(job)),
        )
    };
    let stats = FleetStats {
        libraries: plan.libraries.len(),
        library_polygons: plan.libraries.iter().map(|l| l.len()).sum(),
        base_build: plan.bases.build_time - plan.base_before,
        route_wall: t0.elapsed(),
        scheduler,
        sched,
        ..FleetStats::default()
    };
    Run {
        boards,
        state,
        units,
        statuses,
        stats,
    }
}

/// One completed packet: unit index within its group, output, touches.
pub(crate) type Done = (usize, UnitOutput, CellTouches);

/// A resolved run.
pub(crate) struct Resolved {
    /// Per board: why it lost work — its first panic in input order, else
    /// its first halt — or `None` when every packet of it completed.
    pub(crate) lost: Vec<Option<BoardOutcome>>,
    /// Per planned group, the same verdict at group scope.
    pub(crate) groups: Vec<Option<BoardOutcome>>,
    /// The run's stats; the per-outcome board counters are left for the
    /// caller's [`FleetStats::tally`] over its full outcome vector.
    pub(crate) stats: FleetStats,
}

/// Resolves an executed run: per-group and per-board losses, then
/// `write(group, completed packets in unit order)` for every group of
/// every board that lost nothing, in `(board, group)` order.
pub(crate) fn resolve(run: Run, mut write: impl FnMut(&GroupJob, Vec<Done>)) -> Resolved {
    let state = &run.state;
    // A skipped packet was never claimed: whether that's "cancelled" or
    // "deadline" is a property of the run, read off the token.
    let skipped = state
        .control
        .global_halt()
        .unwrap_or(BoardOutcome::DeadlineExceeded);
    let mut groups: Vec<Option<BoardOutcome>> = vec![None; state.groups.len()];
    let mut done: Vec<Vec<Done>> = state
        .groups
        .iter()
        .map(|gj| Vec::with_capacity(gj.unit_count))
        .collect();
    let mut units_run = 0usize;
    let mut latency = LatencyHistogram::default();
    for (job, status) in run.units.iter().zip(run.statuses) {
        let halt = match status {
            JobStatus::Done(UnitRes::Done {
                out,
                touches,
                elapsed,
            }) => {
                units_run += 1;
                latency.record(elapsed);
                done[job.gj].push((job.unit, out, touches));
                continue;
            }
            JobStatus::Done(UnitRes::Halted(h)) => h,
            JobStatus::Skipped => skipped.clone(),
            JobStatus::Panicked(p) => {
                // A panic outranks every halt; the first panic wins.
                if !is_failed(&groups[job.gj]) {
                    groups[job.gj] = Some(BoardOutcome::Failed(JobError::Panicked {
                        group: state.groups[job.gj].group,
                        unit: Some(job.unit as u64),
                        message: p.message(),
                    }));
                }
                continue;
            }
        };
        groups[job.gj].get_or_insert(halt);
    }
    let mut lost: Vec<Option<BoardOutcome>> = vec![None; run.boards];
    for (gj, g) in state.groups.iter().zip(&groups) {
        let Some(g) = g else { continue };
        let board = &mut lost[gj.board];
        if board.is_none() || (matches!(g, BoardOutcome::Failed(_)) && !is_failed(board)) {
            *board = Some(g.clone());
        }
    }
    // Atomic write-back: only boards that lost nothing.
    for (gj, outs) in state.groups.iter().zip(done) {
        if lost[gj.board].is_none() {
            write(gj, outs);
        }
    }
    let board_busy = state
        .control
        .board_spent
        .iter()
        .map(|a| Duration::from_nanos(a.load(Ordering::Relaxed)))
        .collect();
    let stats = FleetStats {
        jobs: state.groups.len(),
        units: run.units.len(),
        units_run,
        cache_hits: state.cache_hits.load(Ordering::Relaxed),
        cache_misses: state.cache_misses.load(Ordering::Relaxed),
        board_busy,
        latency,
        ..run.stats
    };
    Resolved {
        lost,
        groups,
        stats,
    }
}

pub(crate) fn is_failed(o: &Option<BoardOutcome>) -> bool {
    matches!(o, Some(BoardOutcome::Failed(_)))
}
