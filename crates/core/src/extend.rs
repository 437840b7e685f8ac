//! Trace-level extension: the queue-driven Alg. 1.
//!
//! One public call per trace, `extend_trace_with` (or its two-argument
//! form [`extend_trace`]), dispatches on [`ExtendConfig::incremental`] to
//! one of two private engines implementing the same algorithm:
//!
//! * the incremental engine (default) builds the world geometry index
//!   **once per trace**, re-transforms only the polygons near each popped
//!   segment's candidate window, tracks segments by stable id, and maintains
//!   the trace length incrementally — the per-iteration cost is governed by
//!   local geometry, not by how much meander has accumulated. Each pop
//!   also computes the side contexts' stage-1 caps once per foot position
//!   (the stage-1 table): every height probe reads its two caps from it
//!   instead of scanning its columns, and, floored to heights, it bounds
//!   the probes so the segment DP executes only the ones whose result can
//!   still matter (the pruning is sound: placements are bit-identical to a
//!   DP under the uniform cap alone).
//! * the rebuild engine (`incremental: false`) re-clones and re-transforms
//!   the whole world on every queue pop (the original pipeline) and runs
//!   the DP with only the global `h_init` cap. It is kept as the reference
//!   implementation for equivalence tests and as the slow side of the
//!   `perf_regression` engine comparison.

use crate::config::{resolve_ldisc, ExtendConfig, MAX_WIDTH_STEPS, REQUEUE_MIN_PROTECT, TOLERANCE};
use crate::context::{ShrinkContext, WorldBase, WorldContext, WorldIndex};
use crate::dp::{extend_segment_dp, DpInput, HeightBounds, Placement};
use crate::pattern::{build_local_meander, splice_meander};
use crate::shrink::{
    build_stage1_table, build_stage1_table_batched, max_pattern_height, max_pattern_height_fed,
    ShrinkScratch,
};
use crate::tracebuf::TraceBuf;
use meander_drc::DesignRules;
use meander_geom::{Frame, Point, Polygon, Polyline, Rect};
use meander_index::{CellTouches, GridScratch};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::Arc;

/// Inputs for [`extend_trace`].
#[derive(Debug, Clone)]
pub struct ExtendInput<'a> {
    /// The trace to lengthen (original routing preserved).
    pub trace: &'a Polyline,
    /// Target length `l_target ≥ trace.length()`.
    pub target: f64,
    /// Rules in force (`gap`, `protect`, `width` drive the engine).
    pub rules: &'a DesignRules,
    /// Routable-area polygons (empty ⇒ unbounded).
    pub area: &'a [Polygon],
    /// Obstacle polygons.
    pub obstacles: &'a [Polygon],
}

/// Result of extending one trace.
#[derive(Debug, Clone)]
pub struct ExtendOutcome {
    /// The meandered trace.
    pub trace: Polyline,
    /// Final length.
    pub achieved: f64,
    /// Queue pops consumed.
    pub iterations: usize,
    /// Patterns inserted.
    pub patterns: usize,
}

/// Rule-derived constants both engines share.
struct EngineParams {
    tol: f64,
    h_min: f64,
    /// Effective centerline clearance (`d_gap` of the URA construction).
    g_eff: f64,
    /// Obstacle inflation distance (the touched-set stratum component).
    inflate: f64,
    /// Obstacles inflated to centerline terms.
    obstacles: Vec<Polygon>,
}

impl EngineParams {
    fn derive(input: &ExtendInput<'_>) -> Self {
        let rules = input.rules;
        let tol = (input.target * TOLERANCE).max(1e-9);
        let h_min = rules.protect.max(1e-9);
        // Effective centerline clearance and obstacle inflation, from the
        // same rule-derived formulas `WorldBase::build` uses — sharing the
        // functions is what keeps a prebuilt library base bit-compatible
        // with the per-trace derivation.
        let g_eff = crate::context::effective_gap(rules);
        let inflate = crate::context::obstacle_inflation(rules);
        let obstacles: Vec<Polygon> = input
            .obstacles
            .iter()
            .map(|p| p.offset_convex(inflate))
            .collect();
        EngineParams {
            tol,
            h_min,
            g_eff,
            inflate,
            obstacles,
        }
    }
}

/// One segment's discretization.
struct Disc {
    m: usize,
    ldisc: f64,
    gap_steps: usize,
    protect_steps: usize,
}

impl Disc {
    /// `None` when the segment is too short to host any pattern.
    fn of(len: f64, params: &EngineParams, rules: &DesignRules) -> Option<Self> {
        // Discretization: uniform step fitting the segment exactly.
        let ldisc_raw = resolve_ldisc(len, params.g_eff, rules.protect);
        let m = (len / ldisc_raw).floor().max(1.0) as usize;
        let ldisc = len / m as f64;
        let gap_steps = (params.g_eff / ldisc).ceil().max(1.0) as usize;
        let protect_steps = (rules.protect / ldisc).ceil().max(1.0) as usize;
        if m < gap_steps {
            return None;
        }
        Some(Disc {
            m,
            ldisc,
            gap_steps,
            protect_steps,
        })
    }
}

/// Runs the segment DP against prepared side contexts and returns the local
/// meander replacement, or `None` when nothing legal fits.
///
/// With `use_profile`, the pop's stage-1 table is built first
/// ([`build_stage1_table`]): every DP probe reads its two side caps from it
/// instead of scanning its columns, and the table floored to heights lets
/// the DP skip height queries whose capped value cannot matter — same
/// output, fewer and cheaper shrink-kernel runs. Without it (the rebuild
/// engine) every probe computes its own stage 1 under the uniform cap.
#[allow(clippy::too_many_arguments)]
fn plan_segment(
    len: f64,
    remaining: f64,
    disc: &Disc,
    params: &EngineParams,
    ctx_up: &ShrinkContext,
    ctx_dn: &ShrinkContext,
    config: &ExtendConfig,
    scratch: &mut ShrinkScratch,
    use_profile: bool,
) -> Option<(Polyline, usize)> {
    let h_init = remaining / 2.0;
    // `batch_kernels` swaps the scalar table sweep for the lane sweep —
    // bit-identical outputs (lane-exactness contract), so the DP sees the
    // same numbers either way.
    let table = use_profile.then(|| {
        let build = if config.batch_kernels {
            build_stage1_table_batched
        } else {
            build_stage1_table
        };
        build(
            ctx_up,
            ctx_dn,
            disc.m,
            disc.ldisc,
            params.g_eff,
            h_init,
            scratch,
        )
    });
    let profile = table.as_ref().map(|t| t.profile(params.h_min));
    let scratch_cell = RefCell::new(scratch);
    let height = |lo: usize, hi: usize, dir: i8| -> f64 {
        let ctx = if dir > 0 { ctx_up } else { ctx_dn };
        let (x0, x1) = (lo as f64 * disc.ldisc, hi as f64 * disc.ldisc);
        let scratch = &mut scratch_cell.borrow_mut();
        match &table {
            Some(t) => {
                let hob = t.hob(lo, hi, usize::from(dir > 0));
                max_pattern_height_fed(
                    ctx,
                    x0,
                    x1,
                    params.g_eff,
                    h_init,
                    params.h_min,
                    hob,
                    scratch,
                )
            }
            None => max_pattern_height(ctx, x0, x1, params.g_eff, h_init, params.h_min, scratch),
        }
        .height
    };

    let dp_input = DpInput {
        m: disc.m,
        ldisc: disc.ldisc,
        gap_steps: disc.gap_steps,
        protect_steps: disc.protect_steps,
        // Hat width ≥ d_gap: a pattern's own legs are `width` apart and
        // face each other, and same-side legs across opposite-side
        // transitions stay ≥ d_gap apart exactly when widths do
        // (Fig. 1 annotates d_gap between meander legs).
        min_width_steps: disc.gap_steps,
        max_width_steps: MAX_WIDTH_STEPS,
        height: &height,
        // No probe can exceed the shrink start height — and with the
        // profile, no probe can exceed its feet's stage-1 clearance caps.
        bounds: match &profile {
            Some(p) => HeightBounds::Profile(p),
            None => HeightBounds::Uniform(h_init),
        },
        config,
    };
    let outcome = extend_segment_dp(&dp_input);
    if outcome.placements.is_empty() {
        return None;
    }

    // Trim to never overshoot the target (Alg. 1's l_trace == l_target
    // termination needs the final pattern cut to measure).
    let kept = trim_placements(
        &outcome.placements,
        remaining,
        params.h_min,
        params.g_eff,
        disc.ldisc,
        ctx_up,
        ctx_dn,
        &mut scratch_cell.borrow_mut(),
    );
    if kept.is_empty() {
        return None;
    }
    let patterns = kept.len();
    Some((build_local_meander(len, disc.ldisc, &kept), patterns))
}

/// Extends `input.trace` toward `input.target` with the DP engine
/// (paper Alg. 1).
///
/// The trace's segments enter a FIFO queue; each pop runs the segment DP
/// with URA-shrunk heights, splices the optimal patterns, and re-queues the
/// freshly created segments (meander-on-meander). The final pattern is
/// *trimmed* — re-shrunk at exactly the height that lands the trace on the
/// target — so errors only remain when space runs out.
///
/// Same as `extend_trace_with` with no shared library world and no
/// touch recording.
pub fn extend_trace(input: &ExtendInput<'_>, config: &ExtendConfig) -> ExtendOutcome {
    extend_trace_with(input, config, None, None)
}

/// [`extend_trace`], optionally against a shared obstacle-library world
/// and optionally recording the candidate windows it queries. Dispatches on
/// [`ExtendConfig::incremental`].
///
/// With `base`, `input.obstacles` holds only the *board-local* obstacles;
/// the library's polygons (and their edge index) come pre-inflated from
/// `base`, built once per fleet by [`WorldBase::build`]. Output is
/// **bit-identical** to [`extend_trace`] over `base.raw() ++
/// input.obstacles`:
///
/// * when `base` is compatible with this trace's rules (same inflation,
///   same lattice — [`WorldBase::compatible`]), the incremental engine
///   overlays the per-trace index on the shared one, and the overlay's
///   union-equals-monolithic contract keeps every candidate set identical;
/// * otherwise (different rules, or the rebuild engine) the library is
///   materialized in front of the local obstacles and the ordinary path
///   runs — same output, no amortization.
///
/// With `touches`, every obstacle-candidate query records its window —
/// the remembered set the incremental serving loop (`meander-fleet`'s
/// `FleetSession`) tests edits against with the candidacy test itself,
/// [`meander_index::reaches`]. Recording observes the query windows,
/// never alters them, so output is unchanged. Windows are recorded
/// **unclamped** (the grid's occupied-bounds clamp is answer-preserving
/// but its bounds shift under edits) on the
/// `(world_cell, obstacle_inflation)` stratum of this trace's rules. The
/// rebuild engine's obstacle influence is not funneled through
/// [`WorldIndex::candidates`], so it is conservatively recorded as
/// [`CellTouches::mark_all`]: the unit re-routes on any edit.
pub(crate) fn extend_trace_with(
    input: &ExtendInput<'_>,
    config: &ExtendConfig,
    base: Option<&Arc<WorldBase>>,
    touches: Option<&mut CellTouches>,
) -> ExtendOutcome {
    match base {
        Some(b) if config.incremental && b.compatible(input.rules) => {
            extend_trace_incremental(input, config, Some(b), touches)
        }
        Some(b) => {
            // Deterministic fallback: the library becomes ordinary leading
            // obstacles (the order a materialized board lists them in).
            let mut obstacles: Vec<Polygon> = b.raw().to_vec();
            obstacles.extend(input.obstacles.iter().cloned());
            let input = ExtendInput {
                obstacles: &obstacles,
                ..*input
            };
            extend_trace_with(&input, config, None, touches)
        }
        None if config.incremental => extend_trace_incremental(input, config, None, touches),
        None => {
            if let Some(rec) = touches {
                rec.mark_all();
            }
            extend_trace_rebuild(input, config)
        }
    }
}

/// The incremental engine (see the module docs).
fn extend_trace_incremental(
    input: &ExtendInput<'_>,
    config: &ExtendConfig,
    base: Option<&Arc<WorldBase>>,
    mut touches: Option<&mut CellTouches>,
) -> ExtendOutcome {
    let rules = input.rules;
    let params = EngineParams::derive(input);
    let g2 = params.g_eff / 2.0;

    // Index the static world once per trace (cell size: a few clearance
    // units — URA windows are a handful of `d_gap` across late in a run);
    // with a shared base, only the area + board-local remainder is indexed
    // here and the library's index is reused.
    let world_cell = crate::context::world_cell(rules);
    let world = WorldIndex::build(
        input.area,
        &params.obstacles,
        world_cell,
        config.index,
        base.cloned(),
    );
    let mut trace = TraceBuf::from_polyline(input.trace, world_cell);

    let mut queue: VecDeque<u32> = (0..trace.segment_records() as u32).collect();
    let mut iterations = 0usize;
    let mut patterns = 0usize;

    // Reused query state.
    let mut static_scratch = GridScratch::new();
    let mut trace_scratch = GridScratch::new();
    let mut shrink_scratch = ShrinkScratch::new();
    let mut edge_buf: Vec<u32> = Vec::new();
    let mut static_ids: Vec<u32> = Vec::new();
    let mut near_raw: Vec<u32> = Vec::new();
    let mut near_ids: Vec<u32> = Vec::new();

    while trace.length() < input.target - params.tol
        && iterations < config.max_iterations
        && !queue.is_empty()
    {
        iterations += 1;
        let sid = queue.pop_front().expect("non-empty queue");
        let Some(seg) = trace.segment(sid) else {
            continue; // record died in a later splice
        };
        if seg.is_degenerate() {
            continue;
        }
        let Some(frame) = Frame::from_segment(&seg) else {
            continue;
        };
        let len = seg.length();
        let remaining = input.target - trace.length();
        if remaining < 2.0 * params.h_min {
            break; // no legal pattern can add this little
        }
        let Some(disc) = Disc::of(len, &params, rules) else {
            continue;
        };

        // Candidate window: everything a pattern on either side could touch
        // — feet plus `g_eff/2` laterally, the initial outer border height
        // vertically. Mapped to a world-space bbox for the index queries.
        let hob_init = remaining / 2.0 + g2;
        let window = local_window_to_world(&frame, -g2, len + g2, hob_init);

        if let Some(rec) = touches.as_deref_mut() {
            rec.record(world_cell, params.inflate, &window);
        }
        world.candidates(&window, &mut static_scratch, &mut edge_buf, &mut static_ids);
        // URA rectangles extend g_eff/2 from their segments.
        let ura_window = window.expanded(g2);
        trace.nearby_segments(
            &ura_window,
            sid,
            &mut trace_scratch,
            &mut near_raw,
            &mut near_ids,
        );
        let uras = uras_for(&trace, &near_ids, params.g_eff);

        let (ctx_up, ctx_dn) = ShrinkContext::build_sides(&world, &static_ids, &uras, &frame, len);

        let Some((local, kept)) = plan_segment(
            len,
            remaining,
            &disc,
            &params,
            &ctx_up,
            &ctx_dn,
            config,
            &mut shrink_scratch,
            true,
        ) else {
            continue;
        };
        patterns += kept;

        let world_pts: Vec<Point> = local.points().iter().map(|&p| frame.to_world(p)).collect();
        let new_ids = trace.splice(sid, &world_pts);

        if config.requeue {
            let min_len = REQUEUE_MIN_PROTECT * rules.protect;
            for &nid in &new_ids {
                let s = trace.segment(nid).expect("freshly spliced");
                if s.length() >= min_len {
                    queue.push_back(nid);
                }
            }
        }
    }

    let out = trace.to_polyline();
    ExtendOutcome {
        achieved: out.length(),
        trace: out,
        iterations,
        patterns,
    }
}

/// One pop's `ShrinkContext::build_sides` inputs, captured from world
/// geometry so the `context_build` micro-benchmark (`meander-bench`) can
/// time the per-pop context build alone.
pub struct SidesFixture {
    world: WorldIndex,
    static_ids: Vec<u32>,
    other_uras: Vec<Polygon>,
    frame: Frame,
    seg_len: f64,
}

impl SidesFixture {
    /// Indexes `area` and the inflated `obstacles` as the incremental
    /// engine does for a trace under `rules`, then selects what a pop of
    /// segment `seg` of `trace` with start height `h_init` sees: the static
    /// polygons of its candidate window and the URAs of the trace's other
    /// segments near it. `None` for a degenerate segment.
    pub fn new(
        trace: &Polyline,
        seg: usize,
        area: &[Polygon],
        obstacles: &[Polygon],
        rules: &DesignRules,
        h_init: f64,
    ) -> Option<Self> {
        let segment = trace.segment(seg);
        let frame = Frame::from_segment(&segment)?;
        let seg_len = segment.length();
        let g_eff = crate::context::effective_gap(rules);
        let g2 = g_eff / 2.0;
        let inflate = crate::context::obstacle_inflation(rules);
        let inflated: Vec<Polygon> = obstacles.iter().map(|p| p.offset_convex(inflate)).collect();
        let cell = crate::context::world_cell(rules);
        let world = WorldIndex::build(area, &inflated, cell, meander_index::IndexKind::Grid, None);
        let window = local_window_to_world(&frame, -g2, seg_len + g2, h_init + g2);
        let mut static_ids = Vec::new();
        world.candidates(
            &window,
            &mut GridScratch::new(),
            &mut Vec::new(),
            &mut static_ids,
        );
        let ura_window = window.expanded(g2);
        let other_uras = WorldContext::trace_uras(trace, seg, g_eff)
            .into_iter()
            .filter(|u| u.bbox().intersects(&ura_window))
            .collect();
        Some(SidesFixture {
            world,
            static_ids,
            other_uras,
            frame,
            seg_len,
        })
    }

    /// Builds both side contexts, as the pop would.
    pub fn build(&self) -> (ShrinkContext, ShrinkContext) {
        ShrinkContext::build_sides(
            &self.world,
            &self.static_ids,
            &self.other_uras,
            &self.frame,
            self.seg_len,
        )
    }
}

/// The world-space bbox of the local rectangle `x ∈ [x0, x1]`,
/// `y ∈ [−h, h]` (both pattern sides share one symmetric window).
fn local_window_to_world(frame: &Frame, x0: f64, x1: f64, h: f64) -> Rect {
    let corners = [
        frame.to_world(Point::new(x0, -h)),
        frame.to_world(Point::new(x1, -h)),
        frame.to_world(Point::new(x0, h)),
        frame.to_world(Point::new(x1, h)),
    ];
    Rect::from_points(corners).expect("four corners")
}

/// URA rectangles (world space) for the given live segment ids — the
/// incremental equivalent of [`WorldContext::trace_uras`], restricted to the
/// segments near the active window.
fn uras_for(trace: &TraceBuf, ids: &[u32], gap: f64) -> Vec<Polygon> {
    let mut out = Vec::with_capacity(ids.len());
    for &sid in ids {
        let Some(seg) = trace.segment(sid) else {
            continue;
        };
        if let Some(ura) = crate::context::segment_ura(&seg, gap) {
            out.push(ura);
        }
    }
    out
}

/// The naive rebuild-per-iteration engine (the "before" reference).
fn extend_trace_rebuild(input: &ExtendInput<'_>, config: &ExtendConfig) -> ExtendOutcome {
    let mut trace = input.trace.clone();
    let rules = input.rules;
    let params = EngineParams::derive(input);

    let mut queue: VecDeque<(Point, Point)> = trace.segments().map(|s| (s.a, s.b)).collect();
    let mut iterations = 0usize;
    let mut patterns = 0usize;
    let mut shrink_scratch = ShrinkScratch::new();

    while trace.length() < input.target - params.tol
        && iterations < config.max_iterations
        && !queue.is_empty()
    {
        iterations += 1;
        let (a, b) = queue.pop_front().expect("non-empty queue");
        let Some(seg_index) = locate_segment(&trace, a, b) else {
            continue; // segment was replaced by a later splice
        };
        let seg = trace.segment(seg_index);
        if seg.is_degenerate() {
            continue;
        }
        let Some(frame) = Frame::from_segment(&seg) else {
            continue;
        };
        let len = seg.length();
        let remaining = input.target - trace.length();
        if remaining < 2.0 * params.h_min {
            break; // no legal pattern can add this little
        }
        let Some(disc) = Disc::of(len, &params, rules) else {
            continue;
        };

        // Obstacle context for both sides, rebuilt from scratch.
        let world = WorldContext {
            area: input.area.to_vec(),
            obstacles: params.obstacles.clone(),
            other_uras: WorldContext::trace_uras(&trace, seg_index, params.g_eff),
        };
        let ctx_up = ShrinkContext::build(&world, &frame, len, 1);
        let ctx_dn = ShrinkContext::build(&world, &frame, len, -1);

        // The rebuild engine stays on the uniform cap: it is the reference
        // the equivalence suites hold the profile-pruned engine to.
        let Some((local, kept)) = plan_segment(
            len,
            remaining,
            &disc,
            &params,
            &ctx_up,
            &ctx_dn,
            config,
            &mut shrink_scratch,
            false,
        ) else {
            continue;
        };
        patterns += kept;

        let (lo, hi) = splice_meander(&mut trace, seg_index, &frame, &local);

        if config.requeue {
            let min_len = REQUEUE_MIN_PROTECT * rules.protect;
            for i in lo..hi {
                let s = trace.segment(i);
                if s.length() >= min_len {
                    queue.push_back((s.a, s.b));
                }
            }
        }
    }

    ExtendOutcome {
        achieved: trace.length(),
        trace,
        iterations,
        patterns,
    }
}

/// Finds the polyline segment with endpoints `a → b`, if it still exists.
fn locate_segment(trace: &Polyline, a: Point, b: Point) -> Option<usize> {
    let pts = trace.points();
    (0..pts.len() - 1).find(|&i| pts[i].approx_eq(a) && pts[i + 1].approx_eq(b))
}

/// Caps the cumulative gain of `placements` at `remaining`; the first
/// pattern that would overshoot is re-shrunk to the exact height needed
/// (re-validated — shrinking is not monotone) and later patterns dropped.
#[allow(clippy::too_many_arguments)]
fn trim_placements(
    placements: &[Placement],
    remaining: f64,
    h_min: f64,
    gap: f64,
    ldisc: f64,
    ctx_up: &ShrinkContext,
    ctx_dn: &ShrinkContext,
    scratch: &mut ShrinkScratch,
) -> Vec<Placement> {
    let mut kept = Vec::with_capacity(placements.len());
    let mut acc = 0.0;
    for p in placements {
        let full = 2.0 * p.height;
        if acc + full <= remaining + 1e-9 {
            kept.push(*p);
            acc += full;
            continue;
        }
        let desired = (remaining - acc) / 2.0;
        if desired >= h_min - 1e-9 {
            let ctx = if p.dir > 0 { ctx_up } else { ctx_dn };
            let r = max_pattern_height(
                ctx,
                p.lo as f64 * ldisc,
                p.hi as f64 * ldisc,
                gap,
                desired,
                h_min,
                scratch,
            );
            if r.height >= h_min - 1e-9 {
                kept.push(Placement {
                    height: r.height,
                    ..*p
                });
            }
        }
        break;
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules() -> DesignRules {
        DesignRules {
            gap: 8.0,
            obstacle: 8.0,
            protect: 4.0,
            miter: 2.0,
            width: 4.0,
        }
    }

    fn straight(len: f64) -> Polyline {
        Polyline::new(vec![Point::new(0.0, 0.0), Point::new(len, 0.0)])
    }

    fn roomy_area(len: f64) -> Vec<Polygon> {
        vec![Polygon::rectangle(
            Point::new(-20.0, -80.0),
            Point::new(len + 20.0, 80.0),
        )]
    }

    /// Both engines for every engine-level test.
    fn engines() -> [ExtendConfig; 2] {
        [
            ExtendConfig::default(),
            ExtendConfig {
                incremental: false,
                ..Default::default()
            },
        ]
    }

    #[test]
    fn hits_target_exactly_in_open_space() {
        let trace = straight(200.0);
        let area = roomy_area(200.0);
        let r = rules();
        for config in engines() {
            let out = extend_trace(
                &ExtendInput {
                    trace: &trace,
                    target: 260.0,
                    rules: &r,
                    area: &area,
                    obstacles: &[],
                },
                &config,
            );
            assert!(
                (out.achieved - 260.0).abs() <= 260.0 * 1e-3,
                "achieved {} ≠ 260 (incremental: {})",
                out.achieved,
                config.incremental
            );
            assert!(out.patterns >= 1);
            assert!(!out.trace.is_self_intersecting());
            // Endpoints preserved — the original routing contract.
            assert!(out.trace.start().approx_eq(trace.start()));
            assert!(out.trace.end().approx_eq(trace.end()));
        }
    }

    #[test]
    fn never_overshoots() {
        let trace = straight(100.0);
        let area = roomy_area(100.0);
        let r = rules();
        for config in engines() {
            for target in [110.0, 130.0, 170.0, 250.0] {
                let out = extend_trace(
                    &ExtendInput {
                        trace: &trace,
                        target,
                        rules: &r,
                        area: &area,
                        obstacles: &[],
                    },
                    &config,
                );
                assert!(
                    out.achieved <= target + 1e-6,
                    "target {target}: overshoot to {}",
                    out.achieved
                );
            }
        }
    }

    #[test]
    fn respects_obstacles() {
        let trace = straight(120.0);
        let area = roomy_area(120.0);
        let r = rules();
        // Obstacle band above the trace center.
        let obstacles = vec![Polygon::rectangle(
            Point::new(30.0, 15.0),
            Point::new(90.0, 25.0),
        )];
        for config in engines() {
            let out = extend_trace(
                &ExtendInput {
                    trace: &trace,
                    target: 220.0,
                    rules: &r,
                    area: &area,
                    obstacles: &obstacles,
                },
                &config,
            );
            // DRC-verified clean result.
            let violations = meander_drc::check_layout(&meander_drc::CheckInput {
                traces: vec![meander_drc::TraceGeometry {
                    id: 0,
                    centerline: &out.trace,
                    width: r.width,
                    rules: r,
                    area: &area,
                    coupled_with: vec![],
                }],
                obstacles: obstacles.iter().collect(),
            });
            assert!(violations.is_empty(), "{violations:?}");
            assert!(out.achieved > 120.0);
        }
    }

    #[test]
    fn corridor_limits_amplitude() {
        let trace = straight(150.0);
        // Narrow corridor: half-height 12 → pattern h ≤ 12 − gap/2 = 8.
        let area = vec![Polygon::rectangle(
            Point::new(-10.0, -12.0),
            Point::new(160.0, 12.0),
        )];
        let r = rules();
        for config in engines() {
            let out = extend_trace(
                &ExtendInput {
                    trace: &trace,
                    target: 600.0,
                    rules: &r,
                    area: &area,
                    obstacles: &[],
                },
                &config,
            );
            // Every vertex stays in the corridor; amplitude capped at
            // 12 − (gap + width)/2 = 6.
            for p in out.trace.points() {
                assert!(p.y.abs() <= 6.0 + 1e-9, "pattern too tall: {p}");
            }
            assert!(out.achieved < 590.0, "narrow corridor cannot reach 600");
            assert!(out.achieved > 230.0, "should still meander substantially");
        }
    }

    #[test]
    fn any_direction_trace_extends() {
        // 30° rotated trace with its rotated corridor.
        let dir = meander_geom::Vector::new(30f64.to_radians().cos(), 30f64.to_radians().sin());
        let a = Point::new(5.0, 5.0);
        let b = a + dir * 180.0;
        let trace = Polyline::new(vec![a, b]);
        let seg = meander_geom::Segment::new(a, b);
        let frame = Frame::from_segment(&seg).unwrap();
        let local_area = Polygon::rectangle(Point::new(-10.0, -40.0), Point::new(190.0, 40.0));
        let area = vec![frame.polygon_to_world(&local_area)];
        let r = rules();
        for config in engines() {
            let out = extend_trace(
                &ExtendInput {
                    trace: &trace,
                    target: 240.0,
                    rules: &r,
                    area: &area,
                    obstacles: &[],
                },
                &config,
            );
            assert!(
                (out.achieved - 240.0).abs() <= 240.0 * 1e-3,
                "achieved {}",
                out.achieved
            );
            assert!(!out.trace.is_self_intersecting());
            for &p in out.trace.points() {
                assert!(area[0].contains(p), "left rotated corridor: {p}");
            }
        }
    }

    #[test]
    fn multi_segment_trace_distributes_patterns() {
        let trace = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(100.0, 0.0),
            Point::new(100.0, 100.0),
        ]);
        let area = vec![Polygon::rectangle(
            Point::new(-30.0, -30.0),
            Point::new(130.0, 130.0),
        )];
        let r = rules();
        for config in engines() {
            let out = extend_trace(
                &ExtendInput {
                    trace: &trace,
                    target: 320.0,
                    rules: &r,
                    area: &area,
                    obstacles: &[],
                },
                &config,
            );
            assert!((out.achieved - 320.0).abs() <= 320.0 * 1e-3);
            assert!(!out.trace.is_self_intersecting());
        }
    }

    #[test]
    fn target_equal_length_is_noop() {
        let trace = straight(100.0);
        let area = roomy_area(100.0);
        let r = rules();
        for config in engines() {
            let out = extend_trace(
                &ExtendInput {
                    trace: &trace,
                    target: 100.0,
                    rules: &r,
                    area: &area,
                    obstacles: &[],
                },
                &config,
            );
            assert_eq!(out.trace, trace);
            assert_eq!(out.patterns, 0);
        }
    }

    #[test]
    fn requeue_enables_meander_on_meander() {
        let trace = straight(100.0);
        let area = roomy_area(100.0);
        let r = rules();
        let big_target = 500.0;
        let with = extend_trace(
            &ExtendInput {
                trace: &trace,
                target: big_target,
                rules: &r,
                area: &area,
                obstacles: &[],
            },
            &ExtendConfig::default(),
        );
        let without = extend_trace(
            &ExtendInput {
                trace: &trace,
                target: big_target,
                rules: &r,
                area: &area,
                obstacles: &[],
            },
            &ExtendConfig {
                requeue: false,
                ..Default::default()
            },
        );
        assert!(
            with.achieved >= without.achieved - 1e-9,
            "requeue must not hurt: {} vs {}",
            with.achieved,
            without.achieved
        );
    }

    #[test]
    fn index_kinds_bit_identical() {
        // Grid and R-tree world indexes return identical candidate sets,
        // so the whole engine output must match bit for bit — vertices
        // included — on boards with obstacles, corridors, and a
        // plane-sized slab.
        use meander_index::IndexKind;
        let r = rules();
        let trace = straight(200.0);
        let area = roomy_area(200.0);
        let obstacles = vec![
            Polygon::rectangle(Point::new(-10.0, 20.0), Point::new(210.0, 26.0)), // plane slab
            Polygon::regular(Point::new(60.0, -30.0), 6.0, 8, 0.1),
            Polygon::regular(Point::new(140.0, 14.0), 3.0, 6, 0.4),
        ];
        let input = ExtendInput {
            trace: &trace,
            target: 420.0,
            rules: &r,
            area: &area,
            obstacles: &obstacles,
        };
        let run = |index: IndexKind| {
            extend_trace_incremental(
                &input,
                &ExtendConfig {
                    index,
                    parallel: false,
                    ..Default::default()
                },
                None,
                None,
            )
        };
        let grid = run(IndexKind::Grid);
        assert!(grid.patterns >= 1);
        let rtree = run(IndexKind::RTree);
        assert_eq!(
            grid.achieved.to_bits(),
            rtree.achieved.to_bits(),
            "achieved diverged"
        );
        assert_eq!(grid.patterns, rtree.patterns);
        assert_eq!(grid.iterations, rtree.iterations);
        assert_eq!(grid.trace.points(), rtree.trace.points());
    }

    #[test]
    fn shared_base_bit_identical() {
        // Routing against a prebuilt library base must reproduce the
        // monolithic run bit for bit — library polygons listed before the
        // board-local ones, like a materialized fleet board.
        let r = rules();
        let trace = straight(200.0);
        let area = roomy_area(200.0);
        let library = vec![
            Polygon::rectangle(Point::new(-10.0, 20.0), Point::new(210.0, 26.0)),
            Polygon::regular(Point::new(60.0, -30.0), 6.0, 8, 0.1),
            Polygon::regular(Point::new(150.0, -24.0), 4.0, 8, 0.3),
        ];
        let local = vec![Polygon::regular(Point::new(110.0, 16.0), 3.0, 6, 0.4)];
        let mono: Vec<Polygon> = library.iter().chain(&local).cloned().collect();
        let config = ExtendConfig {
            parallel: false,
            ..Default::default()
        };
        let want = extend_trace(
            &ExtendInput {
                trace: &trace,
                target: 420.0,
                rules: &r,
                area: &area,
                obstacles: &mono,
            },
            &config,
        );
        assert!(want.patterns >= 1);
        for kind in [
            meander_index::IndexKind::Grid,
            meander_index::IndexKind::RTree,
        ] {
            let base = Arc::new(WorldBase::build(&library, &r, kind));
            assert!(base.compatible(&r));
            let got = extend_trace_with(
                &ExtendInput {
                    trace: &trace,
                    target: 420.0,
                    rules: &r,
                    area: &area,
                    obstacles: &local,
                },
                &ExtendConfig {
                    index: kind,
                    ..config.clone()
                },
                Some(&base),
                None,
            );
            assert_eq!(want.achieved.to_bits(), got.achieved.to_bits(), "{kind:?}");
            assert_eq!(want.patterns, got.patterns, "{kind:?}");
            assert_eq!(want.iterations, got.iterations, "{kind:?}");
            assert_eq!(want.trace.points(), got.trace.points(), "{kind:?}");
        }
    }

    #[test]
    fn incompatible_base_falls_back_identically() {
        // A base built for *different* rules (different inflation/lattice)
        // must not be overlaid — the fallback materializes the library and
        // still produces the exact monolithic result.
        let r = rules();
        let mut other = r;
        other.gap = 10.0; // different g_eff ⇒ different cell + inflation
        let trace = straight(160.0);
        let area = roomy_area(160.0);
        let library = vec![Polygon::regular(Point::new(80.0, 20.0), 5.0, 8, 0.0)];
        let local = vec![Polygon::regular(Point::new(40.0, -18.0), 3.0, 6, 0.2)];
        let base = Arc::new(WorldBase::build(
            &library,
            &other,
            meander_index::IndexKind::Grid,
        ));
        assert!(!base.compatible(&r));
        let mono: Vec<Polygon> = library.iter().chain(&local).cloned().collect();
        let config = ExtendConfig {
            parallel: false,
            ..Default::default()
        };
        let want = extend_trace(
            &ExtendInput {
                trace: &trace,
                target: 280.0,
                rules: &r,
                area: &area,
                obstacles: &mono,
            },
            &config,
        );
        let got = extend_trace_with(
            &ExtendInput {
                trace: &trace,
                target: 280.0,
                rules: &r,
                area: &area,
                obstacles: &local,
            },
            &config,
            Some(&base),
            None,
        );
        assert_eq!(want.achieved.to_bits(), got.achieved.to_bits());
        assert_eq!(want.trace.points(), got.trace.points());
    }

    #[test]
    fn engines_agree() {
        // The incremental engine must reproduce the rebuild engine's result
        // (same iterations/patterns; lengths equal up to float-summation
        // order) across shapes, obstacles, and corridors.
        let r = rules();
        let cases: Vec<(Polyline, Vec<Polygon>, Vec<Polygon>, f64)> = vec![
            (straight(200.0), roomy_area(200.0), vec![], 300.0),
            (
                straight(150.0),
                vec![Polygon::rectangle(
                    Point::new(-10.0, -12.0),
                    Point::new(160.0, 12.0),
                )],
                vec![],
                600.0,
            ),
            (
                straight(120.0),
                roomy_area(120.0),
                vec![
                    Polygon::rectangle(Point::new(30.0, 15.0), Point::new(90.0, 25.0)),
                    Polygon::regular(Point::new(60.0, -30.0), 6.0, 8, 0.1),
                ],
                260.0,
            ),
            (
                Polyline::new(vec![
                    Point::new(0.0, 0.0),
                    Point::new(100.0, 0.0),
                    Point::new(100.0, 100.0),
                    Point::new(180.0, 140.0),
                ]),
                vec![Polygon::rectangle(
                    Point::new(-40.0, -40.0),
                    Point::new(220.0, 180.0),
                )],
                vec![Polygon::regular(Point::new(60.0, 40.0), 8.0, 6, 0.0)],
                480.0,
            ),
        ];
        for (i, (trace, area, obstacles, target)) in cases.iter().enumerate() {
            let input = ExtendInput {
                trace,
                target: *target,
                rules: &r,
                area,
                obstacles,
            };
            let fast = extend_trace_incremental(&input, &ExtendConfig::default(), None, None);
            let slow = extend_trace_rebuild(&input, &ExtendConfig::default());
            assert_eq!(
                fast.patterns, slow.patterns,
                "case {i}: pattern counts diverged"
            );
            assert_eq!(
                fast.iterations, slow.iterations,
                "case {i}: iteration counts diverged"
            );
            assert!(
                (fast.achieved - slow.achieved).abs() < 1e-6,
                "case {i}: lengths diverged: {} vs {}",
                fast.achieved,
                slow.achieved
            );
            assert_eq!(
                fast.trace.point_count(),
                slow.trace.point_count(),
                "case {i}: vertex counts diverged"
            );
            for (a, b) in fast.trace.points().iter().zip(slow.trace.points()) {
                assert!(a.distance(*b) < 1e-6, "case {i}: geometry diverged");
            }
        }

        // Obstacle-dense boards: vias within a few `g_eff` of the trace
        // segments, where the exact candidacy test drops the most polygons
        // that share a lattice cell with a pop's window. Every unit of
        // every board runs both engines over the board's whole obstacle
        // set; the rebuild engine shrinks against all of it. A candidacy
        // window shrunk 3 units inward changes a unit on each board.
        let fleet = meander_layout::gen::fleet_boards_small(1, 7, 12);
        let boards = [
            meander_layout::gen::stress_board(3, 6, 24, 7).board,
            meander_layout::gen::table1_case(4).board,
        ]
        .into_iter()
        .chain(fleet.boards.iter().map(|lb| lb.to_board()));
        let rebuild = ExtendConfig {
            incremental: false,
            ..Default::default()
        };
        let mut units_seen = 0;
        for (bi, board) in boards.enumerate() {
            let obstacles = crate::driver::gather_obstacles(&board);
            for (_, units) in crate::driver::plan_board_units(&board) {
                for unit in &units {
                    units_seen += 1;
                    let run = |config: &ExtendConfig| {
                        crate::driver::run_unit(unit, &obstacles, None, config, None)
                    };
                    let (fast, slow) = (run(&ExtendConfig::default()), run(&rebuild));
                    for (f, s) in fast.reports().iter().zip(slow.reports()) {
                        assert_eq!(f.patterns, s.patterns, "board {bi} {:?}: patterns", f.id);
                        assert!(
                            (f.achieved - s.achieved).abs() < 1e-6,
                            "board {bi} {:?}: lengths diverged",
                            f.id
                        );
                    }
                    for ((id, f), (_, s)) in fast.updates().iter().zip(slow.updates()) {
                        assert_eq!(f.point_count(), s.point_count(), "board {bi} {id:?}");
                        for (a, b) in f.points().iter().zip(s.points()) {
                            assert!(a.distance(*b) < 1e-6, "board {bi} {id:?}: geometry");
                        }
                    }
                }
            }
        }
        assert!(units_seen >= 12, "the dense boards must contribute units");
    }
}
