//! The serving loop: a long-lived [`FleetSession`] over a routed
//! [`BoardSet`] that re-routes only what an edit touched.
//!
//! ## Why incremental re-routing is sound
//!
//! The engine keeps an obstacle for a candidate query only when its
//! inflated bbox [`meander_index::reaches`] the query window (behind a
//! lattice-cell prefilter, which can only drop more). During routing
//! every unit records each candidate-query window it issued
//! ([`meander_index::CellTouches`], per `(cell, inflate)` stratum since
//! diff pairs route under virtualized rules). An edit's damage is the
//! bbox of the old *and* new inflated obstacle geometry — inflated with
//! the same `offset_convex` the index insertion uses, so each damage rect
//! is bit for bit the bbox the engine tests.
//!
//! A unit is dirty when `reaches` holds between one of its windows and a
//! damage rect — the engine's own test on the engine's own floats. If it
//! holds for none, then no candidate query the unit made would have
//! answered differently against the edited world: the edited obstacle
//! was a candidate of none of its windows, at its old position or its
//! new one. Obstacles influence the recordable
//! engine's output **only** through those candidate queries (a unit's
//! other inputs — its own traces, rules, target — are snapshotted per
//! unit), and the engine is deterministic, so replaying the unit would
//! reproduce its output bit for bit. The session therefore reuses the
//! retained output, and [`FleetSession::reroute_dirty`] is **bit-identical
//! to from-scratch routing** of the edited set — property-tested in
//! `tests/session.rs` across worker counts and both sharing modes.
//!
//! The router has one engine, and every obstacle reaches it through that
//! one query funnel, so every unit's windows are recorded. Structural edits ([`Edit::SetRules`],
//! [`Edit::ReplaceBoard`]) bypass damage accounting: the board replans and
//! re-routes wholesale. Validation verdicts are cached per library and
//! per board and recomputed only for edited scopes — identical verdicts
//! to the full pre-flight scan, without rescanning untouched boards.
//!
//! With a result cache attached ([`FleetConfig::cache`]), every dirty
//! unit is keyed from the current content exactly as
//! [`crate::route_fleet`] keys it, so the session's packets hit entries
//! that batch fleets and warm-up inserted, and each unit a re-route
//! routes fresh inserts its own entry — a partially dirty group's fresh
//! units included — for batch fleets to hit. A hit replays the unit's
//! output and its recorded windows alike.
//!
//! ## Lifecycle
//!
//! ```
//! use meander_fleet::{FleetConfig, FleetSession, BoardSet};
//! use meander_layout::gen::{fleet_boards_small, edit_stream};
//!
//! let case = fleet_boards_small(3, 7, 11);
//! let config = FleetConfig { workers: Some(2), ..Default::default() };
//! // Route the whole fleet once, recording query windows per unit.
//! let mut session = FleetSession::new(BoardSet::new(case.boards.clone()), &config);
//! assert!(session.report().all_routed());
//!
//! // Serve edits: damage is accumulated per edit, consumed per re-route.
//! for edit in edit_stream(&case, 42, 4) {
//!     let damage = session.apply_edit(edit);
//!     let _ = damage.boards_affected;
//! }
//! let report = session.reroute_dirty(&config);
//! assert!(report.all_routed());
//! // Only the damaged units re-ran; the rest kept their routed geometry.
//! assert_eq!(
//!     report.stats.units_dirty + report.stats.units_skipped,
//!     report.stats.units,
//! );
//! ```

use crate::cache;
use crate::edit::{add_damage, DamageReport};
use crate::engine::{BoardSet, FleetConfig, FleetReport, FleetStats};
#[cfg(feature = "fault")]
use crate::fault::FaultPlan;
use crate::outcome::BoardOutcome;
use crate::pipeline::{
    execute, library_slots, resolve, write_group, BaseCache, GroupJob, Plan, Verdicts,
};
use crate::sched::Tier;
use meander_core::{
    plan_board_units, CellTouches, DirtyCells, GroupReport, StratumKey, UnitInput, UnitOutput,
};
use meander_geom::Polygon;
use meander_layout::hash::{hash_board_local, library_root};
use meander_layout::{Board, Edit, EditScope, LibraryBoard, Obstacle, ObstacleLibrary};
use std::sync::Arc;
use std::time::Instant;

/// One matching group's retained routing state: the planned units, their
/// last outputs, and the windows their candidate queries touched.
#[derive(Debug, Clone, Default)]
struct GroupPlan {
    target: f64,
    units: Vec<UnitInput>,
    outputs: Vec<Option<UnitOutput>>,
    touches: Vec<CellTouches>,
}

/// A long-lived serving handle over a routed [`BoardSet`].
///
/// Holds the fleet twice: the **pristine** boards (as submitted, the
/// canonical state edits apply to) and the **routed** set (pristine plus
/// the last re-route's outputs). Between them sit the remembered sets:
/// per-unit touched windows, per-library and per-board damage rects, and
/// per-board structural flags. See the [module docs](self) for the
/// soundness argument.
pub struct FleetSession {
    /// Library table; `lib_of[b]` indexes into it. Slots are stable across
    /// edits (a content edit swaps the `Arc` inside its slot).
    libraries: Vec<Arc<ObstacleLibrary>>,
    lib_of: Vec<usize>,
    /// Canonical un-routed boards (local parts). Edits land here first.
    pristine: Vec<Board>,
    /// The served state: pristine + retained outputs, rebuilt per board
    /// on re-route, obstacle edits mirrored in place between re-routes.
    routed: BoardSet,
    plans: Vec<Vec<GroupPlan>>,
    /// Accumulated damage, consumed (and cleared) by `reroute_dirty`.
    lib_dirty: Vec<DirtyCells>,
    board_dirty: Vec<DirtyCells>,
    /// Boards that must replan and re-route wholesale (rules / board
    /// replacement edits, or a prior failure being retried).
    structural: Vec<bool>,
    /// Cached validation verdicts, recomputed only for edited scopes, so
    /// an untouched fleet pays no rescan.
    verdicts: Verdicts,
    /// Union of every retained unit's touched strata: the inflations
    /// damage must be computed under. Empty ⇒ damage degrades to
    /// `mark_all`.
    strata: Vec<StratumKey>,
    /// Per-`(library slot, rules lattice)` shared bases, kept warm across
    /// re-routes; dropped when a library's content changes.
    bases: BaseCache,
    /// Cached [`library_root`] per library slot and [`hash_board_local`]
    /// per board — the content identities cache keys derive from. Computed
    /// only by cached re-routes, and only for scopes an edit touched since
    /// (`lib_stale`, `hash_stale`): a single-board edit on a large fleet
    /// must not rehash the fleet. The flags survive uncached re-routes, so
    /// a later cached one never keys with an old digest.
    lib_root: Vec<u64>,
    lib_stale: Vec<bool>,
    local_hash: Vec<u64>,
    hash_stale: Vec<bool>,
    /// Last re-route's results, reused for skipped boards.
    cached_reports: Vec<Vec<GroupReport>>,
    outcomes: Vec<BoardOutcome>,
    last_stats: FleetStats,
}

impl FleetSession {
    /// Routes `set` from scratch (recording touched windows) and wraps it in
    /// a serving handle. The initial route's results are available via
    /// [`FleetSession::report`].
    pub fn new(set: BoardSet, config: &FleetConfig) -> FleetSession {
        let n = set.len();
        let (libraries, lib_of) = library_slots(set.boards());
        let pristine: Vec<Board> = set.boards().iter().map(|lb| lb.board().clone()).collect();
        let nl = libraries.len();
        let mut session = FleetSession {
            libraries,
            lib_of,
            pristine,
            routed: set,
            plans: vec![Vec::new(); n],
            lib_dirty: vec![DirtyCells::new(); nl],
            board_dirty: vec![DirtyCells::new(); n],
            structural: vec![true; n],
            verdicts: Verdicts::stale(nl, n),
            strata: Vec::new(),
            bases: BaseCache::default(),
            lib_root: vec![0; nl],
            lib_stale: vec![true; nl],
            local_hash: vec![0; n],
            hash_stale: vec![true; n],
            cached_reports: vec![Vec::new(); n],
            outcomes: vec![BoardOutcome::Routed; n],
            last_stats: FleetStats::default(),
        };
        // The initial route is "everything structural" through the same
        // path serving re-routes take — one code path, one semantics.
        let _ = session.reroute_inner(config);
        session
    }

    /// The served (routed) state.
    pub fn boards(&self) -> &BoardSet {
        &self.routed
    }

    /// The canonical pre-route state with every applied edit: what a
    /// from-scratch [`crate::route_fleet`] of "the fleet as edited" would
    /// take as input. The equality property in `tests/session.rs` routes
    /// exactly this.
    pub fn pristine_boards(&self) -> Vec<LibraryBoard> {
        self.pristine
            .iter()
            .zip(&self.lib_of)
            .map(|(b, &slot)| LibraryBoard::new(Arc::clone(&self.libraries[slot]), b.clone()))
            .collect()
    }

    /// `true` when damage or structural edits are waiting for a
    /// [`FleetSession::reroute_dirty`].
    pub fn pending(&self) -> bool {
        self.structural.iter().any(|&s| s)
            || self.lib_dirty.iter().any(|d| !d.is_empty())
            || self.board_dirty.iter().any(|d| !d.is_empty())
    }

    /// The last re-route's report (cloned from the retained state).
    pub fn report(&self) -> FleetReport {
        FleetReport {
            reports: self.cached_reports.clone(),
            outcomes: self.outcomes.clone(),
            stats: self.last_stats.clone(),
        }
    }

    /// Applies one edit to the pristine fleet and accumulates its damage
    /// into the dirty sets — O(strata) bitmap work, no routing. Indices
    /// are taken modulo the current collection length and removals from
    /// empty collections are no-ops (see [`meander_layout::edit`]), so any
    /// generated edit is applicable in any order.
    pub fn apply_edit(&mut self, edit: Edit) -> DamageReport {
        let n = self.pristine.len();
        if n == 0 {
            return DamageReport::default();
        }
        match edit {
            Edit::MoveObstacle { scope, index, by } => match scope {
                EditScope::Board(b) => {
                    let b = b % n;
                    let len = self.pristine[b].obstacles().len();
                    if len == 0 {
                        return DamageReport::default();
                    }
                    let idx = index % len;
                    let old = self.pristine[b].obstacles()[idx].clone();
                    let new = old.translated(by);
                    self.edit_board_obstacle(b, idx, Some(new.clone()));
                    self.board_damage(b, &[old.polygon(), new.polygon()], 1)
                }
                EditScope::Library(slot) => {
                    let slot = slot % self.libraries.len();
                    let len = self.libraries[slot].len();
                    if len == 0 {
                        return DamageReport::default();
                    }
                    let idx = index % len;
                    let mut obs = self.libraries[slot].obstacles().to_vec();
                    let old = obs[idx].clone();
                    let new = old.translated(by);
                    obs[idx] = new.clone();
                    self.replace_library(slot, obs);
                    self.library_damage(slot, &[old.polygon(), new.polygon()])
                }
            },
            Edit::AddObstacle { scope, obstacle } => match scope {
                EditScope::Board(b) => {
                    let b = b % n;
                    self.hash_stale[b] = true;
                    self.pristine[b].add_obstacle(obstacle.clone());
                    if !self.structural[b] {
                        self.routed.boards_mut()[b]
                            .board_mut()
                            .add_obstacle(obstacle.clone());
                    }
                    self.board_damage(b, &[obstacle.polygon()], 1)
                }
                EditScope::Library(slot) => {
                    let slot = slot % self.libraries.len();
                    let mut obs = self.libraries[slot].obstacles().to_vec();
                    obs.push(obstacle.clone());
                    self.replace_library(slot, obs);
                    self.library_damage(slot, &[obstacle.polygon()])
                }
            },
            Edit::RemoveObstacle { scope, index } => match scope {
                EditScope::Board(b) => {
                    let b = b % n;
                    let len = self.pristine[b].obstacles().len();
                    if len == 0 {
                        return DamageReport::default();
                    }
                    let idx = index % len;
                    let old = self
                        .edit_board_obstacle(b, idx, None)
                        .expect("index in range");
                    self.board_damage(b, &[old.polygon()], 1)
                }
                EditScope::Library(slot) => {
                    let slot = slot % self.libraries.len();
                    let len = self.libraries[slot].len();
                    if len == 0 {
                        return DamageReport::default();
                    }
                    let idx = index % len;
                    let mut obs = self.libraries[slot].obstacles().to_vec();
                    let old = obs.remove(idx);
                    self.replace_library(slot, obs);
                    self.library_damage(slot, &[old.polygon()])
                }
            },
            Edit::SetRules { board, rules } => {
                let b = board % n;
                let ids: Vec<_> = self.pristine[b].traces().map(|(id, _)| id).collect();
                for id in ids {
                    if let Some(t) = self.pristine[b].trace_mut(id) {
                        t.set_rules(rules);
                    }
                }
                self.mark_structural(b)
            }
            Edit::ReplaceBoard { board, replacement } => {
                let b = board % n;
                self.pristine[b] = *replacement;
                self.mark_structural(b)
            }
        }
    }

    /// Re-routes exactly the units whose touched windows the accumulated
    /// damage reaches ([`meander_index::reaches`]), plus structurally
    /// edited boards wholesale, reusing retained outputs for everything
    /// else. Consumes and clears the dirty sets. The resulting fleet
    /// state and report are bit-identical to a from-scratch
    /// [`crate::route_fleet`] of [`FleetSession::pristine_boards`] under
    /// the same config (wall-clock stats excluded, as ever).
    ///
    /// `config.deadline` / `config.board_budget` / `config.cancel` are not
    /// consulted here: a serving re-route is bounded by its damage, which
    /// the caller already metered through [`FleetSession::apply_edit`].
    pub fn reroute_dirty(&mut self, config: &FleetConfig) -> FleetReport {
        self.reroute_inner(config)
    }

    // ---- Edit plumbing. --------------------------------------------------

    /// Replaces (`Some`) or removes (`None`) obstacle `idx` of board `b`,
    /// mirrored into the routed twin while the twin's obstacle list is in
    /// sync (it is unless the board has a structural re-route pending —
    /// then the twin is rebuilt wholesale on the next re-route anyway).
    fn edit_board_obstacle(
        &mut self,
        b: usize,
        idx: usize,
        new: Option<Obstacle>,
    ) -> Option<Obstacle> {
        self.hash_stale[b] = true;
        let old = match &new {
            Some(o) => self.pristine[b].replace_obstacle(idx, o.clone()),
            None => self.pristine[b].remove_obstacle(idx),
        };
        if !self.structural[b] {
            let twin = self.routed.boards_mut()[b].board_mut();
            match new {
                Some(o) => drop(twin.replace_obstacle(idx, o)),
                None => drop(twin.remove_obstacle(idx)),
            }
        }
        old
    }

    /// Swaps library `slot`'s content: new `Arc`, rebind every referencing
    /// board's routed twin, invalidate the slot's shared bases, mark the
    /// slot's validation verdict and root stale.
    fn replace_library(&mut self, slot: usize, obstacles: Vec<Obstacle>) {
        let lib = Arc::new(ObstacleLibrary::new(obstacles));
        self.lib_stale[slot] = true;
        self.libraries[slot] = Arc::clone(&lib);
        for (b, &s) in self.lib_of.iter().enumerate() {
            if s == slot {
                self.routed.boards_mut()[b].set_library(Arc::clone(&lib));
            }
        }
        self.bases.invalidate(slot);
        self.verdicts.invalidate_library(slot);
    }

    fn board_damage(&mut self, b: usize, polys: &[&Polygon], affected: usize) -> DamageReport {
        self.verdicts.invalidate_board(b);
        let grew = add_damage(&mut self.board_dirty[b], &self.strata, polys);
        DamageReport {
            boards_affected: affected,
            cells_dirty: grew,
            structural: false,
        }
    }

    fn library_damage(&mut self, slot: usize, polys: &[&Polygon]) -> DamageReport {
        let grew = add_damage(&mut self.lib_dirty[slot], &self.strata, polys);
        DamageReport {
            boards_affected: self.lib_of.iter().filter(|&&s| s == slot).count(),
            cells_dirty: grew,
            structural: false,
        }
    }

    fn mark_structural(&mut self, b: usize) -> DamageReport {
        self.structural[b] = true;
        self.verdicts.invalidate_board(b);
        self.hash_stale[b] = true;
        DamageReport {
            boards_affected: 1,
            cells_dirty: 0,
            structural: true,
        }
    }

    // ---- The re-route. ---------------------------------------------------

    fn reroute_inner(&mut self, config: &FleetConfig) -> FleetReport {
        let started = Instant::now();
        let n = self.pristine.len();

        // Refresh validation verdicts for edited scopes only.
        let pristine = &self.pristine;
        let validation_wall = self.verdicts.refresh(&self.libraries, |b| &pristine[b]);

        // The damage this re-route consumes (stat, before clearing).
        let cells_dirty = self
            .lib_dirty
            .iter()
            .chain(self.board_dirty.iter())
            .fold(0u64, |acc, d| acc.saturating_add(d.cells()));

        // Content identities for cache keys: only a cached re-route needs
        // them, and only edited scopes are rehashed.
        if config.cache.is_some() {
            for (slot, lib) in self.libraries.iter().enumerate() {
                if std::mem::take(&mut self.lib_stale[slot]) {
                    self.lib_root[slot] = library_root(lib);
                }
            }
            for (b, board) in self.pristine.iter().enumerate() {
                if std::mem::take(&mut self.hash_stale[b]) {
                    self.local_hash[b] = hash_board_local(board);
                }
            }
        }

        // ---- Classify: rejected / full re-route / per-unit dirty test. --
        // Per group with dirty units: (board, group, its dirty units).
        let mut dirty: Vec<(usize, usize, Vec<usize>)> = Vec::new();
        // Boards that replanned this re-route: their routed twin must be
        // rebuilt even when no unit is dirty (a board with no units).
        let mut replanned: Vec<bool> = vec![false; n];
        for (b, replanned_b) in replanned.iter_mut().enumerate() {
            let slot = self.lib_of[b];
            if let Some(err) = self.verdicts.get(slot, b) {
                // Rejected: geometry reverts to pristine (exactly what the
                // batch engine leaves untouched), retained state dropped.
                // Empty plans mark the board for a full replan if a later
                // edit makes it valid again.
                if !matches!(self.outcomes[b], BoardOutcome::Rejected(_)) {
                    self.revert(b);
                }
                self.plans[b].clear();
                self.cached_reports[b].clear();
                self.outcomes[b] = BoardOutcome::Rejected(err);
                self.structural[b] = false;
                continue;
            }
            if self.structural[b] || self.plans[b].is_empty() {
                *replanned_b = true;
                self.plans[b] = plan_board_units(&self.pristine[b])
                    .into_iter()
                    .map(|(target, units)| GroupPlan {
                        target,
                        outputs: vec![None; units.len()],
                        touches: vec![CellTouches::new(); units.len()],
                        units,
                    })
                    .collect();
            }
            // A replanned board has no outputs yet, so all its units run.
            for (g, gp) in self.plans[b].iter().enumerate() {
                let units: Vec<usize> = (0..gp.units.len())
                    .filter(|&u| {
                        gp.outputs[u].is_none()
                            || gp.touches[u].intersects(&self.lib_dirty[slot])
                            || gp.touches[u].intersects(&self.board_dirty[b])
                    })
                    .collect();
                if !units.is_empty() {
                    dirty.push((b, g, units));
                }
            }
        }
        let units_total: usize = self
            .plans
            .iter()
            .flat_map(|groups| groups.iter().map(|gp| gp.units.len()))
            .sum();

        // ---- Route the dirty units as Interactive packets. ---------------
        // Highest bucket: on a shared scheduler a serving re-route's
        // packets preempt any in-flight batch fleet at packet boundaries.
        // The run carries no deadline, budget, token, or fault plan: a
        // serving re-route is bounded by its damage. Obstacles snapshot
        // from the *pristine* board, as the batch engine gathers from its
        // un-routed input, and units are keyed on it as batch keys them.
        let serving = FleetConfig {
            deadline: None,
            board_budget: None,
            cancel: None,
            #[cfg(feature = "fault")]
            fault: FaultPlan::default(),
            ..config.clone()
        };
        let mut plan = Plan::new(&serving, started, &self.libraries, &mut self.bases, n);
        for &(b, g, ref units) in &dirty {
            let (gp, board, slot) = (&self.plans[b][g], &self.pristine[b], self.lib_of[b]);
            let keys = config.cache.is_some().then(|| {
                let ident = (self.lib_root[slot], self.local_hash[b]);
                cache::unit_keys(ident, board, g, gp.target, &gp.units, &config.extend)
            });
            let group = GroupJob {
                board: b,
                group: g,
                target: gp.target,
            };
            for &u in units {
                let key = keys.as_ref().map(|k| k[u]);
                plan.unit(slot, board, group, u, gp.units[u].clone(), key);
            }
        }
        let plans = &mut self.plans;
        let mut resolved = resolve(execute(plan, Tier::Interactive), |gj, done| {
            let gp = &mut plans[gj.board][gj.group];
            for (u, out, touches) in done {
                gp.outputs[u] = Some(out);
                gp.touches[u] = touches;
            }
        });

        // ---- Per-board write-back (atomic: pristine + all outputs). ------
        let mut touched = replanned.clone();
        for &(b, _, _) in &dirty {
            touched[b] = true;
        }
        for (b, &touched_b) in touched.iter().enumerate() {
            if matches!(self.outcomes[b], BoardOutcome::Rejected(_)) && self.plans[b].is_empty() {
                continue;
            }
            if let Some(lost) = resolved.lost[b].take() {
                // Failure domain = one board: revert it to pristine, drop
                // retained state, retry wholesale on the next re-route.
                self.revert(b);
                self.plans[b].clear();
                self.cached_reports[b].clear();
                self.outcomes[b] = lost;
                self.structural[b] = true;
                continue;
            }
            if !touched_b {
                continue; // clean board: routed state and report retained
            }
            let mut board = self.pristine[b].clone();
            self.cached_reports[b] = self.plans[b]
                .iter()
                .map(|gp| {
                    let outputs = gp.outputs.iter().map(|o| {
                        o.clone()
                            .expect("every unit of a non-failed board has output")
                    });
                    write_group(&mut board, gp.target, outputs.collect())
                })
                .collect();
            self.routed.boards_mut()[b] =
                LibraryBoard::new(Arc::clone(&self.libraries[self.lib_of[b]]), board);
            self.outcomes[b] = BoardOutcome::Routed;
            self.structural[b] = false;
        }

        // ---- Refresh the stratum union; consume the damage. --------------
        self.strata.clear();
        for groups in &self.plans {
            for gp in groups {
                for t in &gp.touches {
                    for key in t.strata() {
                        if !self.strata.contains(&key) {
                            self.strata.push(key);
                        }
                    }
                }
            }
        }
        for d in &mut self.lib_dirty {
            d.clear();
        }
        for d in &mut self.board_dirty {
            d.clear();
        }

        // ---- Report. -----------------------------------------------------
        let dirty = resolved.stats.units;
        let mut stats = FleetStats {
            jobs: dirty,
            units: units_total,
            units_dirty: dirty,
            units_skipped: units_total.saturating_sub(dirty),
            cells_dirty,
            boards_replanned: replanned.iter().filter(|&&r| r).count(),
            validation_wall,
            ..resolved.stats
        };
        stats.tally(&self.outcomes);
        self.last_stats = stats;
        self.report()
    }

    /// Resets board `b`'s served state to its pristine input.
    fn revert(&mut self, b: usize) {
        self.routed.boards_mut()[b] = LibraryBoard::new(
            Arc::clone(&self.libraries[self.lib_of[b]]),
            self.pristine[b].clone(),
        );
    }
}
