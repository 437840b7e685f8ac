//! Group-level driver: length-match a whole matching group on a board,
//! routing differential pairs through MSDTW (paper Fig. 2's flow).
//!
//! Matching is organized in **units** — a single-ended trace or one
//! differential pair. Units never read each other's meandered geometry (each
//! trace extends inside its own routable area against the shared static
//! obstacles), so a unit is a pure function of its gathered inputs: one
//! [`run_unit`] call, optionally against a shared library world and
//! optionally recording the cells it reads. Both board-level drivers,
//! [`match_board_group`] and [`match_all_groups`], share one body: plan
//! the groups' units up front, inflate and index the board's obstacles
//! once per distinct rules lattice into a shared [`WorldBase`], run the
//! units against those bases (fanned out on worker threads with
//! [`ExtendConfig::parallel`], in order without), and write the results
//! back group by group in declaration order, so the output is identical
//! either way — and identical to running every unit over the board's
//! gathered obstacles with no base.

use crate::config::ExtendConfig;
use crate::context::WorldBase;
use crate::extend::{extend_trace_with, ExtendInput, ExtendOutcome};
use crate::par::par_map;
use meander_drc::virtualize_rules;
use meander_geom::{Polygon, Polyline};
use meander_index::CellTouches;
use meander_layout::{Board, MatchGroup, TraceId};
use meander_msdtw::{merge_pair, restore_pair, PairGeometry};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-trace (or per-sub-trace) result.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// The trace.
    pub id: TraceId,
    /// Length before matching.
    pub initial: f64,
    /// Length after matching.
    pub achieved: f64,
    /// Patterns inserted.
    pub patterns: usize,
    /// `true` when the trace was matched through a merged median trace.
    pub via_msdtw: bool,
}

/// Whole-group result with the paper's Eq. 19 metrics.
#[derive(Debug, Clone)]
pub struct GroupReport {
    /// Resolved target length.
    pub target: f64,
    /// Per-trace outcomes.
    pub traces: Vec<TraceReport>,
    /// Runtime of the matching: wall clock for [`match_board_group`], the
    /// summed busy time of the group's units for [`match_all_groups`]
    /// (wall time is shared across groups there). That sum leaves out
    /// obstacle inflation and indexing, which run once per board before
    /// the units.
    pub runtime: Duration,
}

impl GroupReport {
    /// `max_i (l_target − l_i)/l_target`.
    pub fn max_error(&self) -> f64 {
        self.traces
            .iter()
            .map(|t| (self.target - t.achieved) / self.target)
            .fold(0.0, f64::max)
    }

    /// `Σ_i (l_target − l_i)/(n·l_target)`.
    pub fn avg_error(&self) -> f64 {
        if self.traces.is_empty() {
            return 0.0;
        }
        self.traces
            .iter()
            .map(|t| (self.target - t.achieved) / self.target)
            .sum::<f64>()
            / self.traces.len() as f64
    }
}

/// One unit of matching work — a single-ended trace or one differential
/// pair — gathered from the board up front by `plan_units`. A unit is a
/// pure function of its snapshot: running it never reads the board, which
/// is what lets `crates/fleet` schedule units of *many* boards on one
/// worker pool and still write back deterministically.
#[derive(Debug, Clone)]
pub struct UnitInput {
    target: f64,
    kind: UnitKind,
}

impl UnitInput {
    /// The design rules the unit's traces carry (a pair's *raw* rules —
    /// the merged extension virtualizes them internally).
    #[inline]
    pub fn rules(&self) -> &meander_drc::DesignRules {
        match &self.kind {
            UnitKind::Single { rules, .. } | UnitKind::Pair { rules, .. } => rules,
        }
    }

    /// The rules the unit's world is derived under: a single trace's own
    /// rules, a pair's [`virtualize_rules`] (what its merged extension
    /// runs under). This is the key a shared [`WorldBase`] is selected by,
    /// in the one-board driver and in the fleet alike.
    pub fn world_rules(&self) -> meander_drc::DesignRules {
        match &self.kind {
            UnitKind::Single { rules, .. } => *rules,
            UnitKind::Pair { rules, sep, .. } => virtualize_rules(rules, *sep),
        }
    }
}

#[derive(Debug, Clone)]
enum UnitKind {
    Single {
        id: TraceId,
        trace: Polyline,
        rules: meander_drc::DesignRules,
        area: Vec<Polygon>,
    },
    Pair {
        p: TraceId,
        n: TraceId,
        p0: Polyline,
        n0: Polyline,
        sep: f64,
        scales: Vec<f64>,
        rules: meander_drc::DesignRules,
        area: Vec<Polygon>,
    },
}

/// A unit's computed result, to be applied to the board in order by
/// [`apply_outputs`]. `Clone` lets the serving loop retain outputs for
/// units it later skips.
#[derive(Debug, Clone)]
pub struct UnitOutput {
    /// Busy time spent computing this unit.
    busy: Duration,
    updates: Vec<(TraceId, Polyline)>,
    reports: Vec<TraceReport>,
}

impl UnitOutput {
    /// Busy time spent computing this unit.
    #[inline]
    pub fn busy(&self) -> Duration {
        self.busy
    }

    /// The routed geometry this unit will write back, in application
    /// order.
    #[inline]
    pub fn updates(&self) -> &[(TraceId, Polyline)] {
        &self.updates
    }

    /// The per-trace reports this unit contributes.
    #[inline]
    pub fn reports(&self) -> &[TraceReport] {
        &self.reports
    }

    /// Reassembles an output from retained parts. The fleet's result
    /// cache stores a hit's geometry and report floats verbatim and
    /// replays them through this; `busy` is a *measurement* (excluded
    /// from the bit-identity contract), so a cache hit reports
    /// [`Duration::ZERO`] — no routing work was done.
    pub fn from_parts(
        busy: Duration,
        updates: Vec<(TraceId, Polyline)>,
        reports: Vec<TraceReport>,
    ) -> UnitOutput {
        UnitOutput {
            busy,
            updates,
            reports,
        }
    }
}

/// Plans the units of `group` in member-declaration order.
///
/// Members that reference a trace absent from the board plan no unit
/// (they are skipped, not panicked on): dangling references are a
/// validation error — `meander_layout::validate_board` reports them with
/// provenance — and the planner must stay total even when a caller skips
/// that gate.
pub(crate) fn plan_units(board: &Board, group: &MatchGroup, target: f64) -> Vec<UnitInput> {
    let mut units = Vec::new();
    let mut done: HashSet<TraceId> = HashSet::new();
    for &id in group.members() {
        if done.contains(&id) {
            continue;
        }
        let pair = board.pair_of(id).cloned();
        match pair {
            Some(pair)
                if pair
                    .partner(id)
                    .is_some_and(|partner| group.members().contains(&partner))
                    && board.trace(pair.p()).is_some()
                    && board.trace(pair.n()).is_some() =>
            {
                let (p_id, n_id) = (pair.p(), pair.n());
                done.insert(p_id);
                done.insert(n_id);
                let p0 = board
                    .trace(p_id)
                    .expect("checked above")
                    .centerline()
                    .clone();
                let n0 = board
                    .trace(n_id)
                    .expect("checked above")
                    .centerline()
                    .clone();
                let rules = *board.trace(p_id).expect("checked above").rules();
                let area = board
                    .area(p_id)
                    .map(|a| a.polygons().to_vec())
                    .unwrap_or_default();
                // Distance-rule ladder: pair pitch plus any DRA gap values
                // (the multi-scale input of Alg. 3).
                let mut scales = vec![pair.sep()];
                for ra in board.rule_areas() {
                    scales.push(ra.rules().gap);
                }
                units.push(UnitInput {
                    target,
                    kind: UnitKind::Pair {
                        p: p_id,
                        n: n_id,
                        p0,
                        n0,
                        sep: pair.sep(),
                        scales,
                        rules,
                        area,
                    },
                });
            }
            _ => {
                done.insert(id);
                let Some(trace) = board.trace(id) else {
                    continue; // dangling member: validation's job to report
                };
                units.push(UnitInput {
                    target,
                    kind: UnitKind::Single {
                        id,
                        trace: trace.centerline().clone(),
                        rules: *trace.rules(),
                        area: board
                            .area(id)
                            .map(|a| a.polygons().to_vec())
                            .unwrap_or_default(),
                    },
                });
            }
        }
    }
    units
}

fn extend_pure(
    id: TraceId,
    trace: &Polyline,
    rules: &meander_drc::DesignRules,
    area: &[Polygon],
    obstacles: &[Polygon],
    target: f64,
    extend: &mut impl FnMut(&ExtendInput<'_>) -> ExtendOutcome,
) -> (TraceReport, ExtendOutcome) {
    let out = extend(&ExtendInput {
        trace,
        target,
        rules,
        area,
        obstacles,
    });
    (
        TraceReport {
            id,
            initial: trace.length(),
            achieved: out.achieved,
            patterns: out.patterns,
            via_msdtw: false,
        },
        out,
    )
}

/// Runs one unit against the board's obstacle set. Pure: no board access.
///
/// With a shared obstacle-library world `base` ([`WorldBase`]),
/// `obstacles` holds only the board-local polygons; output is
/// bit-identical to a run over `base.raw() ++ obstacles`. With `touches`,
/// the unit's candidate-query windows are recorded (a pair unit records its
/// merged extension and both fallback sub-extensions into the same set —
/// the virtualized rules land on their own stratum); output is unchanged.
/// See `extend_trace_with` for both.
pub fn run_unit(
    unit: &UnitInput,
    obstacles: &[Polygon],
    base: Option<&Arc<WorldBase>>,
    config: &ExtendConfig,
    mut touches: Option<&mut CellTouches>,
) -> UnitOutput {
    run_unit_with(unit, obstacles, |input| {
        extend_trace_with(input, config, base, touches.as_deref_mut())
    })
}

/// [`run_unit`] with the per-trace extension passed in: the seam through
/// which the equivalence tests run a unit on the engine's oracle.
pub(crate) fn run_unit_with(
    unit: &UnitInput,
    obstacles: &[Polygon],
    mut extend: impl FnMut(&ExtendInput<'_>) -> ExtendOutcome,
) -> UnitOutput {
    let start = Instant::now();
    let mut updates = Vec::new();
    let mut reports = Vec::new();
    match &unit.kind {
        UnitKind::Single {
            id,
            trace,
            rules,
            area,
        } => {
            let (report, out) =
                extend_pure(*id, trace, rules, area, obstacles, unit.target, &mut extend);
            updates.push((*id, out.trace));
            reports.push(report);
        }
        UnitKind::Pair {
            p,
            n,
            p0,
            n0,
            sep,
            scales,
            rules,
            area,
        } => {
            let geom = PairGeometry::with_scales(p0, n0, scales.clone());
            let mut merged_ok = false;
            if let Ok(merged) = merge_pair(&geom) {
                let vrules = virtualize_rules(rules, *sep);
                let out = extend(&ExtendInput {
                    trace: &merged.median,
                    target: unit.target,
                    rules: &vrules,
                    area,
                    obstacles,
                });
                if let Some((new_p, new_n)) = restore_pair(&out.trace, *sep) {
                    let (lp, ln) = (new_p.length(), new_n.length());
                    updates.push((*p, new_p));
                    updates.push((*n, new_n));
                    reports.push(TraceReport {
                        id: *p,
                        initial: p0.length(),
                        achieved: lp,
                        patterns: out.patterns,
                        via_msdtw: true,
                    });
                    reports.push(TraceReport {
                        id: *n,
                        initial: n0.length(),
                        achieved: ln,
                        patterns: out.patterns,
                        via_msdtw: true,
                    });
                    merged_ok = true;
                }
                // Restoration failed: fall through to independent extension.
            }
            if !merged_ok {
                // Degenerate pair: independent extension fallback.
                for (sub, trace) in [(*p, p0), (*n, n0)] {
                    let (report, out) =
                        extend_pure(sub, trace, rules, area, obstacles, unit.target, &mut extend);
                    updates.push((sub, out.trace));
                    reports.push(report);
                }
            }
        }
    }
    UnitOutput {
        busy: start.elapsed(),
        updates,
        reports,
    }
}

/// Applies unit outputs to the board in order, collecting reports and the
/// summed busy time. Callers must pass outputs in the order `plan_units`
/// planned them — that ordering is the whole determinism argument.
pub fn apply_outputs(board: &mut Board, outputs: Vec<UnitOutput>) -> (Vec<TraceReport>, Duration) {
    let mut reports = Vec::new();
    let mut busy = Duration::ZERO;
    for out in outputs {
        busy += out.busy;
        for (id, centerline) in out.updates {
            board
                .trace_mut(id)
                .expect("planned trace")
                .set_centerline(centerline);
        }
        reports.extend(out.reports);
    }
    (reports, busy)
}

/// The board's obstacle polygons in declaration order.
pub fn gather_obstacles(board: &Board) -> Vec<Polygon> {
    board
        .obstacles()
        .iter()
        .map(|o| o.polygon().clone())
        .collect()
}

/// Length-matches group `group_idx` of `board` in place.
///
/// Single-ended members go straight to [`crate::extend::extend_trace`].
/// Differential-pair
/// members are merged by MSDTW into a median trace, meandered under the
/// virtual DRC ([`meander_drc::virtualize_rules`]), and restored; if the
/// merge fails (degenerate pair) the sub-traces fall back to independent
/// extension.
///
/// With [`ExtendConfig::parallel`], the group's units run on worker
/// threads; the result is identical to the serial run. The report's
/// runtime is the wall-clock time of the whole call.
///
/// # Panics
///
/// Panics if `group_idx` is out of range.
pub fn match_board_group(
    board: &mut Board,
    group_idx: usize,
    config: &ExtendConfig,
) -> GroupReport {
    let start = Instant::now();
    let planned = vec![plan_group(board, group_idx)];
    let mut report = route_planned(board, planned, config)
        .pop()
        .expect("one report per planned group");
    report.runtime = start.elapsed();
    report
}

/// Length-matches every group of the board in declaration order, returning
/// one report per group. Each report's runtime is the summed busy time of
/// its group's units (wall time, and the board's one-off obstacle
/// indexing, are shared across groups).
///
/// Every group is planned up front from the board as given, then all
/// units run as one batch — fanned out on worker threads with
/// [`ExtendConfig::parallel`], so a board with many small groups
/// parallelizes as well as one big group — and the results are written
/// back group by group. That equals matching the groups one after another
/// with [`match_board_group`] because a trace belongs to at most one
/// group, so no group's plan reads another group's write-back. Boards that
/// share a trace between groups are rejected by
/// [`meander_layout::validate_board`] as
/// [`meander_layout::ValidationError::OverlappingGroups`]
/// ([`meander_layout::io::load_board`] and the fleet's `route_fleet` run
/// that check).
pub fn match_all_groups(board: &mut Board, config: &ExtendConfig) -> Vec<GroupReport> {
    let planned = plan_board_units(board);
    route_planned(board, planned, config)
}

/// Plans one group: its resolved target and its units.
fn plan_group(board: &Board, group_idx: usize) -> (f64, Vec<UnitInput>) {
    let group: MatchGroup = board.groups()[group_idx].clone();
    let lengths = board.group_lengths(&group);
    let target = group.resolve_target(&lengths);
    let units = plan_units(board, &group, target);
    (target, units)
}

/// Snapshots every group of `board` up front: one `(target, units)` entry
/// per group, in declaration order, planned against the board's *current*
/// trace geometry. This is [`match_all_groups`]' planning step, exposed so
/// `crates/fleet` can flatten many boards' groups into one job pool. Valid
/// under the model's invariant that a trace belongs to at most one group
/// (otherwise later groups would need earlier groups' write-backs in their
/// snapshots); [`meander_layout::validate_board`] enforces it, rejecting a
/// shared trace as [`meander_layout::ValidationError::OverlappingGroups`].
pub fn plan_board_units(board: &Board) -> Vec<(f64, Vec<UnitInput>)> {
    (0..board.groups().len())
        .map(|gi| plan_group(board, gi))
        .collect()
}

/// The one board-level body: runs every planned unit against the board's
/// obstacles, then applies the outputs group by group in plan order.
///
/// The board's obstacles are inflated and indexed once per distinct rules
/// lattice ([`UnitInput::world_rules`], matched by
/// [`WorldBase::compatible`]) before any unit runs, and every unit routes
/// against its shared [`WorldBase`] with no obstacles of its own. That
/// equals running each unit over the gathered obstacles, bit for bit
/// ([`run_unit`]'s base contract).
fn route_planned(
    board: &mut Board,
    planned: Vec<(f64, Vec<UnitInput>)>,
    config: &ExtendConfig,
) -> Vec<GroupReport> {
    let obstacles = gather_obstacles(board);
    let mut sizes = Vec::with_capacity(planned.len());
    let mut flat = Vec::new();
    for (target, mut units) in planned {
        sizes.push((target, units.len()));
        flat.append(&mut units);
    }
    let mut bases: Vec<Arc<WorldBase>> = Vec::new();
    let jobs: Vec<(&UnitInput, Arc<WorldBase>)> = flat
        .iter()
        .map(|u| {
            let rules = u.world_rules();
            let base = match bases.iter().find(|b| b.compatible(&rules)) {
                Some(b) => Arc::clone(b),
                None => {
                    let b = Arc::new(WorldBase::build(&obstacles, &rules, config.index));
                    bases.push(Arc::clone(&b));
                    b
                }
            };
            (u, base)
        })
        .collect();
    let run = |(u, base): &(&UnitInput, Arc<WorldBase>)| run_unit(u, &[], Some(base), config, None);
    let outputs = if config.parallel {
        par_map(&jobs, run)
    } else {
        jobs.iter().map(run).collect()
    };
    let mut outputs = outputs.into_iter();
    sizes
        .into_iter()
        .map(|(target, n_units)| {
            let (traces, runtime) = apply_outputs(board, outputs.by_ref().take(n_units).collect());
            GroupReport {
                target,
                traces,
                runtime,
            }
        })
        .collect()
}

/// Applies the `dmiter` corner rule to every trace of group `group_idx`
/// (paper Sec. II: "any rotation of a right angle or an acute angle will be
/// mitered by obtuse angles") and returns the per-trace length change.
///
/// Mitering shortens each chamfered corner by `(2 − √2)·dmiter`; callers
/// wanting exact lengths *after* mitering should re-run
/// [`match_board_group`] once more —
/// the driver converges because trimming only ever adds the small residual
/// back.
///
/// # Panics
///
/// Panics if `group_idx` is out of range.
pub fn miter_group(board: &mut Board, group_idx: usize) -> Vec<(TraceId, f64)> {
    let group: MatchGroup = board.groups()[group_idx].clone();
    let mut deltas = Vec::with_capacity(group.members().len());
    for &id in group.members() {
        let Some(trace) = board.trace(id) else {
            continue;
        };
        let dmiter = trace.rules().miter;
        let protect = trace.rules().protect;
        let before = trace.length();
        let mitered =
            meander_geom::miter::miter_polyline_with_min(trace.centerline(), dmiter, protect);
        let after = mitered.length();
        board
            .trace_mut(id)
            .expect("checked above")
            .set_centerline(mitered);
        deltas.push((id, after - before));
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_layout::gen::{any_angle_bus, decoupled_pair, table1_case};

    #[test]
    fn single_ended_group_matches_to_target() {
        let mut case = table1_case(1);
        let report = match_board_group(&mut case.board, 0, &ExtendConfig::default());
        assert!((report.target - case.ltarget).abs() < 1e-9);
        assert!(
            report.max_error() < 0.10,
            "max error {:.4} too high",
            report.max_error()
        );
        assert!(report.avg_error() < 0.05, "avg {:.4}", report.avg_error());
        // Board must stay DRC-clean.
        let violations = case.board.check();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn any_angle_group_matches() {
        let mut board = any_angle_bus(4, meander_geom::Angle::from_degrees(17.0));
        let report = match_board_group(&mut board, 0, &ExtendConfig::default());
        assert!(
            report.max_error() < 0.05,
            "max error {:.4}",
            report.max_error()
        );
        let violations = board.check();
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn differential_pair_group_uses_msdtw() {
        let case = decoupled_pair(false);
        let mut board = case.board;
        let report = match_board_group(&mut board, 0, &ExtendConfig::default());
        assert!(report.traces.iter().any(|t| t.via_msdtw));
        // Both sub-traces close to target.
        assert!(
            report.max_error() < 0.08,
            "max error {:.4}",
            report.max_error()
        );
        // Pair still coupled: sub-traces stay near pitch apart.
        let p = board.trace(case.p).unwrap().centerline().clone();
        let n = board.trace(case.n).unwrap().centerline().clone();
        let d = p.distance_to_polyline(&n);
        assert!(
            (d - case.sep0).abs() < case.sep0 * 0.6,
            "pair pitch broken: {d}"
        );
        assert!(!p.is_self_intersecting());
        assert!(!n.is_self_intersecting());
    }

    #[test]
    fn match_all_groups_covers_every_group() {
        // Two independent single-trace groups on one board.
        let fresh = || {
            let mut board = meander_layout::Board::new(meander_geom::Rect::new(
                meander_geom::Point::new(0.0, 0.0),
                meander_geom::Point::new(300.0, 200.0),
            ));
            let rules = meander_drc::DesignRules::default();
            let a = board.add_trace(meander_layout::Trace::with_rules(
                "A",
                meander_geom::Polyline::new(vec![
                    meander_geom::Point::new(0.0, 50.0),
                    meander_geom::Point::new(200.0, 50.0),
                ]),
                rules,
            ));
            let b = board.add_trace(meander_layout::Trace::with_rules(
                "B",
                meander_geom::Polyline::new(vec![
                    meander_geom::Point::new(0.0, 150.0),
                    meander_geom::Point::new(200.0, 150.0),
                ]),
                rules,
            ));
            board.set_area(
                a,
                meander_layout::RoutableArea::from_polygon(meander_geom::Polygon::rectangle(
                    meander_geom::Point::new(-10.0, 0.0),
                    meander_geom::Point::new(210.0, 100.0),
                )),
            );
            board.set_area(
                b,
                meander_layout::RoutableArea::from_polygon(meander_geom::Polygon::rectangle(
                    meander_geom::Point::new(-10.0, 100.0),
                    meander_geom::Point::new(210.0, 200.0),
                )),
            );
            board.add_group(meander_layout::MatchGroup::with_target(
                "ga",
                vec![a],
                260.0,
            ));
            board.add_group(meander_layout::MatchGroup::with_target(
                "gb",
                vec![b],
                240.0,
            ));
            board
        };
        let mut board = fresh();
        let reports = match_all_groups(&mut board, &ExtendConfig::default());
        assert_eq!(reports.len(), 2);
        assert!((reports[0].target - 260.0).abs() < 1e-9);
        assert!((reports[1].target - 240.0).abs() < 1e-9);
        for r in &reports {
            assert!(r.max_error() < 1e-2, "group err {:.4}", r.max_error());
        }
        assert!(board.check().is_empty());

        // Independent serial-write-back oracle: `match_board_group` group
        // by group in declaration order, bit-equal with `parallel` on and
        // off — on this board, a split-group fleet board, and a pair board.
        let fleet = meander_layout::gen::fleet_boards(8, 7, 11)
            .boards
            .iter()
            .map(|lb| lb.to_board())
            .find(|b| b.groups().len() > 1)
            .expect("a split-group fleet board");
        for parallel in [false, true] {
            let config = ExtendConfig {
                parallel,
                ..Default::default()
            };
            for original in [fresh(), fleet.clone(), decoupled_pair(false).board] {
                let mut all = original.clone();
                let mut one_by_one = original;
                let got = match_all_groups(&mut all, &config);
                let want: Vec<GroupReport> = (0..one_by_one.groups().len())
                    .map(|gi| match_board_group(&mut one_by_one, gi, &config))
                    .collect();
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.target.to_bits(), w.target.to_bits());
                    assert_eq!(g.traces.len(), w.traces.len());
                    for (a, b) in g.traces.iter().zip(&w.traces) {
                        assert_eq!(a.id, b.id, "parallel {parallel}");
                        assert_eq!(a.achieved.to_bits(), b.achieved.to_bits());
                        assert_eq!(a.patterns, b.patterns, "parallel {parallel}");
                    }
                }
                for (id, t) in all.traces() {
                    let other = one_by_one.trace(id).unwrap();
                    assert_eq!(t.centerline(), other.centerline(), "parallel {parallel}");
                }
            }
        }
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let serial_cfg = ExtendConfig {
            parallel: false,
            ..Default::default()
        };
        let parallel_cfg = ExtendConfig {
            parallel: true,
            ..Default::default()
        };
        for case_no in [1usize, 5] {
            let mut serial = table1_case(case_no);
            let mut parallel = table1_case(case_no);
            let rs = match_board_group(&mut serial.board, 0, &serial_cfg);
            let rp = match_board_group(&mut parallel.board, 0, &parallel_cfg);
            assert_eq!(rs.traces.len(), rp.traces.len());
            for (a, b) in rs.traces.iter().zip(&rp.traces) {
                assert_eq!(a.id, b.id, "case {case_no}: report order diverged");
                assert_eq!(a.patterns, b.patterns);
                assert!(
                    (a.achieved - b.achieved).abs() < 1e-12,
                    "case {case_no}: trace {:?} diverged",
                    a.id
                );
            }
            // Geometry identical too.
            for (id, t) in serial.board.traces() {
                let other = parallel.board.trace(id).unwrap();
                assert_eq!(t.centerline(), other.centerline(), "case {case_no}");
            }
        }
    }

    #[test]
    fn miter_pass_keeps_board_clean() {
        let mut case = table1_case(2);
        let report = match_board_group(&mut case.board, 0, &ExtendConfig::default());
        let deltas = miter_group(&mut case.board, 0);
        assert_eq!(deltas.len(), 8);
        // Mitering only ever shortens.
        for (id, d) in &deltas {
            assert!(*d <= 1e-9, "{id} grew by {d}");
        }
        // Chamfered output is still DRC-clean (chamfers exempt from
        // dprotect) and close to target.
        let violations = case.board.check();
        assert!(violations.is_empty(), "{violations:?}");
        let lengths = case.board.group_lengths(&case.board.groups()[0].clone());
        let max_err = meander_layout::MatchGroup::max_error(report.target, &lengths);
        assert!(max_err < 0.08, "post-miter max err {max_err:.4}");
        // Mitering strictly reduces the number of right-angle corners
        // (corners without protect-budget keep theirs).
        let sharp = |b: &meander_layout::Board| -> usize {
            b.traces()
                .map(|(_, t)| {
                    let pl = t.centerline();
                    (1..pl.segment_count())
                        .filter(|&i| {
                            let a = pl.segment(i - 1).direction().unwrap();
                            let c = pl.segment(i).direction().unwrap();
                            a.cross(c).atan2(a.dot(c)).abs() >= std::f64::consts::FRAC_PI_2 - 1e-6
                        })
                        .count()
                })
                .sum()
        };
        let mut unmitered = table1_case(2);
        let _ = match_board_group(&mut unmitered.board, 0, &ExtendConfig::default());
        assert!(
            sharp(&case.board) < sharp(&unmitered.board),
            "mitering removed no corners: {} vs {}",
            sharp(&case.board),
            sharp(&unmitered.board)
        );
    }

    /// Bit-compares `match_all_groups` against the unshared oracle: every
    /// planned unit run over the board's gathered obstacles with no base,
    /// applied in plan order.
    fn assert_matches_unshared_oracle(label: &str, original: &Board, config: &ExtendConfig) {
        let mut want_board = original.clone();
        let obstacles = gather_obstacles(&want_board);
        let want: Vec<GroupReport> = plan_board_units(&want_board)
            .into_iter()
            .map(|(target, units)| {
                let outputs = units
                    .iter()
                    .map(|u| run_unit(u, &obstacles, None, config, None))
                    .collect();
                let (traces, runtime) = apply_outputs(&mut want_board, outputs);
                GroupReport {
                    target,
                    traces,
                    runtime,
                }
            })
            .collect();
        let mut got_board = original.clone();
        let got = match_all_groups(&mut got_board, config);
        assert_eq!(got.len(), want.len(), "{label}: group count");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.target.to_bits(), w.target.to_bits(), "{label}: target");
            assert_eq!(g.traces.len(), w.traces.len(), "{label}: trace count");
            for (a, b) in g.traces.iter().zip(&w.traces) {
                assert_eq!(a.id, b.id, "{label}: report order");
                assert_eq!(a.initial.to_bits(), b.initial.to_bits(), "{label}");
                assert_eq!(a.achieved.to_bits(), b.achieved.to_bits(), "{label}");
                assert_eq!(a.patterns, b.patterns, "{label}: {:?}", a.id);
                assert_eq!(a.via_msdtw, b.via_msdtw, "{label}: {:?}", a.id);
            }
        }
        for (id, t) in want_board.traces() {
            let routed = got_board.trace(id).expect("routed trace");
            assert_eq!(t.centerline(), routed.centerline(), "{label}: {id:?}");
        }
    }

    #[test]
    fn shared_board_world_equals_unshared_oracle() {
        use meander_layout::gen::{stress_board, stress_mixed_board};

        // Two rule sets on one board: the odd corridors get a narrower gap,
        // which derives a different lattice, so the driver builds two
        // bases.
        let mut two_rules = stress_board(4, 4, 3, 5).board;
        let ids: Vec<TraceId> = two_rules.traces().map(|(id, _)| id).collect();
        let base_rules = *two_rules.trace(ids[0]).unwrap().rules();
        let narrow = meander_drc::DesignRules {
            gap: base_rules.gap * 0.75,
            ..base_rules
        };
        for &id in ids.iter().skip(1).step_by(2) {
            two_rules.trace_mut(id).unwrap().set_rules(narrow);
        }
        let probe = WorldBase::build(&[], &base_rules, meander_index::IndexKind::Grid);
        assert!(probe.compatible(&base_rules) && !probe.compatible(&narrow));

        let mut no_obstacles = stress_board(3, 3, 2, 9).board;
        while no_obstacles.remove_obstacle(0).is_some() {}
        assert!(no_obstacles.obstacles().is_empty());

        let boards = [
            ("stress", stress_board(4, 4, 3, 1).board),
            ("stress:mixed", stress_mixed_board(3, 4, 3, 2).board),
            ("table1:5", table1_case(5).board),
            ("decoupled_pair(true)", decoupled_pair(true).board),
            ("no obstacles", no_obstacles),
            ("two rule sets", two_rules),
        ];
        for (name, board) in &boards {
            for parallel in [false, true] {
                let config = ExtendConfig {
                    parallel,
                    ..Default::default()
                };
                assert_matches_unshared_oracle(
                    &format!("{name}, parallel {parallel}"),
                    board,
                    &config,
                );
            }
        }
    }

    #[test]
    fn runtime_is_recorded() {
        let mut case = table1_case(4);
        let report = match_board_group(&mut case.board, 0, &ExtendConfig::default());
        assert!(report.runtime.as_nanos() > 0);
        assert_eq!(report.traces.len(), 8);
    }
}
