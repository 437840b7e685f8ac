//! Full-layout violation scan.
//!
//! The router must never *introduce* violations: integration tests run this
//! checker on every meandered output and assert the violation set is empty
//! (or no worse than the input's, for imported layouts that already violate).

use crate::rules::DesignRules;
use crate::violation::Violation;
use meander_geom::batch::{
    accum_point_to_segs_dsq, accum_seg_to_points_dsq, distance_sq_to_segment_batch,
    mark_intersections, SegBatch, PREFILTER_SLACK,
};
use meander_geom::intersect::segments_intersect;
use meander_geom::polyline::simplify_into;
use meander_geom::{Point, Polygon, Polyline, Rect, Segment};
use meander_index::{GridScratch, IndexKind, SegIndex, SpatialIndex};

/// Geometry of one trace as the checker sees it, borrowed from its owner.
#[derive(Debug, Clone)]
pub struct TraceGeometry<'a> {
    /// Stable id used in violation reports.
    pub id: u32,
    /// Centerline.
    pub centerline: &'a Polyline,
    /// Trace width.
    pub width: f64,
    /// Rules in force for this trace.
    pub rules: DesignRules,
    /// Optional routable-area polygons this trace must stay inside
    /// (checked only when non-empty; a point must be inside *some* polygon).
    pub area: &'a [Polygon],
    /// Trace ids this trace is allowed to touch (e.g. its differential-pair
    /// partner); gap checks against them are skipped.
    pub coupled_with: Vec<u32>,
}

/// Checker input: traces plus obstacle polygons, all borrowed.
#[derive(Debug, Clone, Default)]
pub struct CheckInput<'a> {
    /// All traces to check.
    pub traces: Vec<TraceGeometry<'a>>,
    /// All obstacles.
    pub obstacles: Vec<&'a Polygon>,
}

/// Scans the input for design-rule violations.
///
/// Checks performed:
///
/// 1. **Trace–trace clearance** — min centerline distance between every
///    trace pair must be ≥ `gap + w₁/2 + w₂/2` (the stricter trace's gap).
/// 2. **Trace–obstacle clearance** — centerline-to-obstacle distance ≥
///    `dobs + w/2`.
/// 3. **`dprotect`** — every segment of a (simplified) centerline at least
///    `dprotect` long.
/// 4. **Self-intersection**.
/// 5. **Routable-area containment** — every vertex inside the union of the
///    trace's assigned polygons (when provided).
///
/// The scan is output-sensitive: it runs [`check_layout_with`] on the
/// uniform grid. It reports **exactly** the same violation list as
/// [`check_layout_brute`] — same order, same values, same witnesses; the
/// property suite asserts equality on randomized boards.
///
/// ```
/// use meander_drc::{check_layout, CheckInput, DesignRules, TraceGeometry};
/// use meander_geom::{Point, Polyline};
///
/// let centerline = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
/// let input = CheckInput {
///     traces: vec![TraceGeometry {
///         id: 0,
///         centerline: &centerline,
///         width: 4.0,
///         rules: DesignRules::default(),
///         area: &[],
///         coupled_with: vec![],
///     }],
///     obstacles: vec![],
/// };
/// assert!(check_layout(&input).is_empty());
/// ```
pub fn check_layout(input: &CheckInput) -> Vec<Violation> {
    check_layout_with(input, IndexKind::Grid)
}

/// The original all-pairs scan, kept as the reference implementation:
/// [`check_layout_with`] must report the exact same violation list, which
/// the property suite and the generator-wide pipeline test assert.
pub fn check_layout_brute(input: &CheckInput) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut simplified = Vec::new();

    for (i, t) in input.traces.iter().enumerate() {
        trace_checks(
            t,
            t.centerline.is_self_intersecting(),
            &mut simplified,
            &mut out,
        );

        // 2. Obstacles.
        for (oi, obs) in input.obstacles.iter().enumerate() {
            let required = t.rules.centerline_obstacle();
            let mut worst: Option<(f64, meander_geom::Point)> = None;
            for seg in t.centerline.segments() {
                let d = obs.distance_to_segment(&seg);
                if d < required - 1e-9 {
                    let witness = seg.midpoint();
                    if worst.is_none_or(|(w, _)| d < w) {
                        worst = Some((d, witness));
                    }
                }
            }
            if let Some((actual, near)) = worst {
                out.push(Violation::TraceObstacleClearance {
                    trace: t.id,
                    obstacle: oi as u32,
                    actual,
                    required,
                    near,
                });
            }
        }

        // 1. Trace-trace.
        for u in input.traces.iter().skip(i + 1) {
            if t.coupled_with.contains(&u.id) || u.coupled_with.contains(&t.id) {
                continue;
            }
            let gap = t.rules.gap.max(u.rules.gap);
            let required = gap + t.width / 2.0 + u.width / 2.0;
            let d = t.centerline.distance_to_polyline(u.centerline);
            if d < required - 1e-9 {
                // Witness: the closest sample point found by re-scanning.
                let near = closest_witness(t.centerline, u.centerline);
                out.push(Violation::TraceTraceClearance {
                    a: t.id,
                    b: u.id,
                    actual: d,
                    required,
                    near,
                });
            }
        }
    }

    out
}

/// The per-trace checks both scans share, in emission order: 3. dprotect,
/// 4. self-intersection (the verdict comes in), 5. containment.
///
/// `simplified` is a reused point buffer for the simplified centerline.
fn trace_checks(
    t: &TraceGeometry,
    self_intersects: bool,
    simplified: &mut Vec<Point>,
    out: &mut Vec<Violation>,
) {
    // dprotect on simplified centerline (mitering may deliberately split
    // segments; collinear runs are not real corners). Chamfer segments
    // produced by the `dmiter` rule are exempt: they are intentional corner
    // cuts, not the manufacturing stubs dprotect exists to prevent.
    simplify_into(t.centerline.points(), simplified);
    for (si, w) in simplified.windows(2).enumerate() {
        let len = Segment::new(w[0], w[1]).length();
        if len < t.rules.protect - 1e-9 && !is_chamfer(simplified, si) {
            out.push(Violation::ShortSegment {
                trace: t.id,
                segment: si,
                actual: len,
                required: t.rules.protect,
            });
        }
    }

    if self_intersects {
        out.push(Violation::SelfIntersection { trace: t.id });
    }

    if !t.area.is_empty() {
        for &p in t.centerline.points() {
            if !t.area.iter().any(|poly| poly.contains(p)) {
                out.push(Violation::OutsideRoutableArea {
                    trace: t.id,
                    near: p,
                });
                break;
            }
        }
    }
}

/// [`check_layout`] with the scan index structure selected by `kind`
/// (grid, STR R-tree, or `Auto`).
///
/// Replaces the brute-force `O(T²·S²)` trace–trace and `O(T·O·S)`
/// trace–obstacle scans with windowed candidate queries on one index:
///
/// * every segment is registered once in a world index keyed by a global
///   id that ascends in `(trace, segment)` order, so candidate iteration
///   visits pairs in the same order as the brute-force scan and
///   strict-minimum witness selection agrees bit-for-bit;
/// * an obstacle only tests segments whose bbox lies within the largest
///   clearance any trace demands of its own bbox;
/// * a trace segment only tests other-trace segments whose bbox lies
///   within the largest pair clearance of its own, and the closest-pair
///   search returns its witness directly instead of re-scanning;
/// * the same query hands each segment its later same-trace neighbours,
///   which is all the self-intersection test needs.
///
/// Candidates are materialized into a reused [`SegBatch`] straight from
/// the index slab and evaluated lane-parallel on the SoA kernels of
/// [`meander_geom::batch`], in the squared-distance domain with one `sqrt`
/// at each reduced winner (the lane-exactness contract). Both index
/// structures return identical candidate sets, so the violation list is
/// the same for every kind (property-tested); choose by the board's shape
/// (the R-tree wins when plane-sized obstacles meet dense traces).
///
/// ```
/// use meander_drc::{check_layout_with, CheckInput, DesignRules, TraceGeometry};
/// use meander_geom::{Point, Polygon, Polyline};
/// use meander_index::IndexKind;
///
/// let centerline = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
/// // A plane-sized obstacle too close to the trace: required clearance is
/// // 8 + 4/2 = 10 but the slab sits at distance 5.
/// let slab = Polygon::rectangle(Point::new(-50.0, 5.0), Point::new(150.0, 30.0));
/// let input = CheckInput {
///     traces: vec![TraceGeometry {
///         id: 0,
///         centerline: &centerline,
///         width: 4.0,
///         rules: DesignRules::default(),
///         area: &[],
///         coupled_with: vec![],
///     }],
///     obstacles: vec![&slab],
/// };
/// let grid = check_layout_with(&input, IndexKind::Grid);
/// let rtree = check_layout_with(&input, IndexKind::RTree);
/// assert_eq!(grid.len(), 1);
/// assert_eq!(grid, rtree); // identical list, witnesses included
/// ```
pub fn check_layout_with(input: &CheckInput, kind: IndexKind) -> Vec<Violation> {
    let idx = ScanIndex::build(input, kind);
    emit(input, gather(input, &idx))
}

/// Shared scan state: every trace's segments in one slab, the global
/// segment index over it (ids ascend in `(trace, segment)` order), and the
/// clearance windows.
struct ScanIndex {
    /// All segments; trace `i` owns `segs[offsets[i]..offsets[i + 1]]`.
    segs: Vec<Segment>,
    offsets: Vec<usize>,
    /// Owning trace of each segment.
    trace_of: Vec<u32>,
    /// Each trace's bbox.
    trace_boxes: Vec<Rect>,
    max_obs_required: f64,
    max_pair_required: f64,
    grid: SegIndex,
}

impl ScanIndex {
    fn build(input: &CheckInput, kind: IndexKind) -> Self {
        let traces = &input.traces;
        let total: usize = traces.iter().map(|t| t.centerline.segment_count()).sum();
        let mut segs = Vec::with_capacity(total);
        let mut trace_of = Vec::with_capacity(total);
        let mut offsets = Vec::with_capacity(traces.len() + 1);
        offsets.push(0);
        for (i, t) in traces.iter().enumerate() {
            segs.extend(t.centerline.segments());
            trace_of.resize(segs.len(), i as u32);
            offsets.push(segs.len());
        }
        let trace_boxes = traces
            .iter()
            .map(|t| Rect::from_points(t.centerline.points().iter().copied()))
            .collect::<Option<_>>()
            .expect("polylines have points");

        let max_obs_required = traces
            .iter()
            .map(|t| t.rules.centerline_obstacle())
            .fold(0.0f64, f64::max);
        let max_gap = traces.iter().map(|t| t.rules.gap).fold(0.0f64, f64::max);
        let max_width = traces.iter().map(|t| t.width).fold(0.0f64, f64::max);
        let max_pair_required = max_gap + max_width;
        let mean_seg_len = if segs.is_empty() {
            1.0
        } else {
            segs.iter().map(Segment::length).sum::<f64>() / segs.len() as f64
        };
        // A window is a small box grown by a clearance on every side, so a
        // cell as wide as two clearances keeps most windows within 2×2 or
        // 3×3 cells.
        let cell = mean_seg_len
            .max(2.0 * max_obs_required)
            .max(2.0 * max_pair_required)
            .max(1e-6);
        let grid = SegIndex::from_segments(kind, cell, &segs);
        ScanIndex {
            segs,
            offsets,
            trace_of,
            trace_boxes,
            max_obs_required,
            max_pair_required,
            grid,
        }
    }
}

/// Squared gap between two boxes: a lower bound on the squared distance
/// between any point of one and any point of the other.
fn gap_sq(a: &Rect, b: &Rect) -> f64 {
    let dx = (b.min.x - a.max.x).max(a.min.x - b.max.x).max(0.0);
    let dy = (b.min.y - a.max.y).max(a.min.y - b.max.y).max(0.0);
    dx * dx + dy * dy
}

/// What the windowed passes found: obstacle violations keyed `(trace,
/// obstacle)` and pair violations keyed `(i, j)`, both ascending, plus each
/// trace's self-intersection verdict.
struct Found {
    obstacles: Vec<((usize, usize), Violation)>,
    pairs: Vec<((usize, usize), Violation)>,
    self_hit: Vec<bool>,
}

/// The batched passes. Per probe window, one [`SegBatch`] holds every
/// candidate; distances reduce in the squared domain; witnesses come from
/// first-occurrence strict argmins, which is exactly the scalar `d < best`
/// update order. Equality with the per-candidate scalar loops of
/// [`check_layout_brute`] is bit-for-bit:
///
/// * a candidate group's minimum over violating candidates equals its
///   global minimum whenever any candidate violates (the threshold test
///   moves after the reduction, on the single `sqrt`-ed winner);
/// * pair updates prefilter in `d²` and confirm with the scalar strict `<`
///   on the `sqrt`-ed value, so a rounding tie that the brute-force scan
///   would ignore is ignored here too;
/// * polygon containment ("segment swallowed whole") only runs for
///   candidates whose start lies within the obstacle bbox inflated by
///   [`PREFILTER_SLACK`] — a superset of where it can hold.
///
/// ## The exact window cull
///
/// The index hands back every segment in the cells a window covers, most
/// of them outside the window itself. Before any lane is materialized,
/// candidates whose bbox lies farther than `R` from the probe's bbox are
/// dropped: `R = max_obs_required` around an obstacle, `R =
/// max_pair_required` around a trace segment. An obstacle farther than
/// `R` from every trace's bbox skips its query outright, since every
/// candidate would be dropped. The cull is exact. The gap between two
/// bboxes is a lower bound on the distance between anything inside them,
/// so a dropped candidate lies farther than `R` from the obstacle (or
/// probe segment). `R` is at least every trace's `required` (every pair's,
/// for the pair pass), and a violation needs `d < required − 1e-9`; the
/// `1e-9` slack dwarfs the rounding of board-sized coordinates. So a
/// dropped candidate can never be a violating winner: when its group's
/// true minimum violates, that minimum sits on a kept candidate with the
/// same first-occurrence argmin; when it does not, nothing is emitted on
/// either side.
///
/// ## Self-intersection
///
/// A pair query's window contains its probe segment's bbox, so it also
/// returns every same-trace segment that can touch the probe. Testing the
/// later ones (id `> probe + 1`, skipping the neighbour that shares a
/// vertex) with the probe as first argument is the pair order of
/// [`Polyline::is_self_intersecting`].
fn gather(input: &CheckInput, idx: &ScanIndex) -> Found {
    let traces = &input.traces;
    let mut scratch = GridScratch::new();
    let mut candidates: Vec<u32> = Vec::new();
    let mut batch = SegBatch::new();
    let mut dsq: Vec<f64> = Vec::new();
    let mut hit: Vec<bool> = Vec::new();
    let near_probe =
        |probe: &Rect, gid: u32, r_sq: f64| gap_sq(probe, &idx.segs[gid as usize].bbox()) <= r_sq;

    // --- Trace–obstacle pass. --------------------------------------------
    // d(obstacle, seg) decomposes into "obstacle edge ↔ seg endpoint" and
    // "obstacle vertex ↔ seg" partials plus the intersection/containment
    // zero cases; the partials run lane-parallel across the candidates.
    let mut obstacles = Vec::new();
    let r_sq = idx.max_obs_required * idx.max_obs_required;
    for (oi, obs) in input.obstacles.iter().enumerate() {
        let bbox = obs.bbox();
        if idx.trace_boxes.iter().all(|b| gap_sq(&bbox, b) > r_sq) {
            continue;
        }
        let window = bbox.expanded(idx.max_obs_required);
        idx.grid
            .query_scratch(&window, &mut scratch, &mut candidates);
        candidates.retain(|&gid| near_probe(&bbox, gid, r_sq));
        if candidates.is_empty() {
            continue;
        }
        idx.grid.fill_batch(&candidates, &mut batch);
        let n = candidates.len();
        dsq.clear();
        dsq.resize(n, f64::INFINITY);
        hit.clear();
        hit.resize(n, false);
        for e in obs.edges() {
            accum_seg_to_points_dsq(&e, batch.ax(), batch.ay(), &mut dsq);
            accum_seg_to_points_dsq(&e, batch.bx(), batch.by(), &mut dsq);
            mark_intersections(&e, &batch, &mut hit);
        }
        for &v in obs.vertices() {
            accum_point_to_segs_dsq(v, &batch, &mut dsq);
        }
        let near = bbox.expanded(PREFILTER_SLACK);
        for k in 0..n {
            if hit[k] || (near.contains(batch.get(k).a) && obs.contains(batch.get(k).a)) {
                dsq[k] = 0.0;
            }
        }
        // Candidates arrive in ascending gid order, so each trace's run is
        // contiguous: reduce per run with the scalar `d < best` update rule
        // (`d²` only prefilters, so `sqrt` runs on improvements alone and
        // rounding ties resolve exactly as the brute-force scan resolves
        // them), then test the per-trace threshold once on the winner.
        let mut k = 0;
        while k < n {
            let i = idx.trace_of[candidates[k] as usize] as usize;
            let start = k;
            while k < n && idx.trace_of[candidates[k] as usize] as usize == i {
                k += 1;
            }
            let (mut best_d, mut best_dsq, mut win) = (f64::INFINITY, f64::INFINITY, start);
            for (kk, &v) in dsq.iter().enumerate().take(k).skip(start) {
                if v < best_dsq {
                    let d = v.sqrt();
                    if d < best_d {
                        (best_d, best_dsq, win) = (d, v, kk);
                    }
                }
            }
            let required = traces[i].rules.centerline_obstacle();
            if best_d < required - 1e-9 {
                let violation = Violation::TraceObstacleClearance {
                    trace: traces[i].id,
                    obstacle: oi as u32,
                    actual: best_d,
                    required,
                    near: idx.segs[candidates[win] as usize].midpoint(),
                };
                obstacles.push(((i, oi), violation));
            }
        }
    }
    obstacles.sort_unstable_by_key(|h| h.0);

    // --- Trace–trace and self-intersection pass. --------------------------
    // One dense row per trace `i` holds its closest approach to every later
    // trace; `touched` lists the columns to emit and reset. `(d, d²)` ride
    // together so the prefilter never misses an update the brute-force
    // scan would make (sqrt is monotone) and never takes one it would skip
    // (the inner strict `<` re-checks on `d`).
    let unset = (f64::INFINITY, f64::INFINITY, Point::ORIGIN);
    let mut row = vec![unset; traces.len()];
    let mut touched: Vec<usize> = Vec::new();
    let mut self_hit = vec![false; traces.len()];
    let mut pairs = Vec::new();
    let mut eligible: Vec<u32> = Vec::new();
    let r_sq = idx.max_pair_required * idx.max_pair_required;
    for (i, t) in traces.iter().enumerate() {
        for gid in idx.offsets[i]..idx.offsets[i + 1] {
            let seg = &idx.segs[gid];
            let bbox = seg.bbox();
            let window = bbox.expanded(idx.max_pair_required);
            idx.grid
                .query_scratch(&window, &mut scratch, &mut candidates);
            // Ownership and window filters run before any lane is
            // materialized: the brute-force scan also skips `j <= i` /
            // coupled candidates before computing a distance.
            eligible.clear();
            for &c in &candidates {
                let j = idx.trace_of[c as usize] as usize;
                if j == i {
                    if !self_hit[i]
                        && c as usize > gid + 1
                        && segments_intersect(seg, &idx.segs[c as usize])
                    {
                        self_hit[i] = true;
                    }
                } else if j > i
                    && !t.coupled_with.contains(&traces[j].id)
                    && !traces[j].coupled_with.contains(&t.id)
                    && near_probe(&bbox, c, r_sq)
                {
                    eligible.push(c);
                }
            }
            if eligible.is_empty() {
                continue;
            }
            idx.grid.fill_batch(&eligible, &mut batch);
            distance_sq_to_segment_batch(seg, &batch, &mut dsq);
            for (k, &c) in eligible.iter().enumerate() {
                let j = idx.trace_of[c as usize] as usize;
                let e = &mut row[j];
                if dsq[k] < e.1 {
                    let d = dsq[k].sqrt();
                    if d < e.0 {
                        if e.0 == f64::INFINITY {
                            touched.push(j);
                        }
                        *e = (d, dsq[k], seg.midpoint());
                    }
                }
            }
        }
        touched.sort_unstable();
        for &j in &touched {
            let (raw, _, near) = std::mem::replace(&mut row[j], unset);
            let u = &traces[j];
            let required = t.rules.gap.max(u.rules.gap) + t.width / 2.0 + u.width / 2.0;
            if raw < required - 1e-9 {
                // `distance_to_polyline` snaps touching traces to exactly 0.
                let actual = if meander_geom::approx_zero(raw) {
                    0.0
                } else {
                    raw
                };
                let violation = Violation::TraceTraceClearance {
                    a: t.id,
                    b: u.id,
                    actual,
                    required,
                    near,
                };
                pairs.push(((i, j), violation));
            }
        }
        touched.clear();
    }
    Found {
        obstacles,
        pairs,
        self_hit,
    }
}

/// Emission, in the brute-force nesting order.
fn emit(input: &CheckInput, found: Found) -> Vec<Violation> {
    let mut obstacles = found.obstacles.into_iter().peekable();
    let mut pairs = found.pairs.into_iter().peekable();
    let mut out = Vec::new();
    let mut simplified = Vec::new();
    for (i, t) in input.traces.iter().enumerate() {
        trace_checks(t, found.self_hit[i], &mut simplified, &mut out);
        // 2. Obstacles, then 1. trace–trace.
        while let Some((_, v)) = obstacles.next_if(|h| h.0 .0 == i) {
            out.push(v);
        }
        while let Some((_, v)) = pairs.next_if(|h| h.0 .0 == i) {
            out.push(v);
        }
    }
    out
}

/// `true` when segment `si` of the polyline through `pts` is a miter
/// chamfer: both of its corners turn 30°–60° in the same rotational
/// direction (a 90° corner cut into two obtuse ones, paper Sec. II's
/// `dmiter`).
fn is_chamfer(pts: &[Point], si: usize) -> bool {
    if si == 0 || si + 2 >= pts.len() {
        return false;
    }
    let seg = |i: usize| Segment::new(pts[i], pts[i + 1]);
    let turn = |a: Segment, b: Segment| -> Option<f64> {
        let da = a.direction()?;
        let db = b.direction()?;
        Some(da.cross(db).atan2(da.dot(db)))
    };
    let (Some(t_in), Some(t_out)) = (turn(seg(si - 1), seg(si)), turn(seg(si), seg(si + 1))) else {
        return false;
    };
    let lo = 30f64.to_radians();
    let hi = 60f64.to_radians();
    t_in.signum() == t_out.signum()
        && t_in.abs() >= lo
        && t_in.abs() <= hi
        && t_out.abs() >= lo
        && t_out.abs() <= hi
}

fn closest_witness(a: &Polyline, b: &Polyline) -> meander_geom::Point {
    let mut best = (f64::INFINITY, a.start());
    for s in a.segments() {
        for t in b.segments() {
            let d = s.distance_to_segment(&t);
            if d < best.0 {
                best = (d, s.midpoint());
            }
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_geom::Point;

    fn line(pts: &[(f64, f64)]) -> Polyline {
        Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    fn trace(id: u32, centerline: &Polyline) -> TraceGeometry<'_> {
        TraceGeometry {
            id,
            centerline,
            width: 4.0,
            rules: DesignRules::default(),
            area: &[],
            coupled_with: vec![],
        }
    }

    #[test]
    fn clean_layout_passes() {
        let (a, b) = (
            line(&[(0.0, 0.0), (100.0, 0.0)]),
            line(&[(0.0, 50.0), (100.0, 50.0)]),
        );
        let obstacle = Polygon::rectangle(Point::new(40.0, 20.0), Point::new(60.0, 30.0));
        let input = CheckInput {
            traces: vec![trace(0, &a), trace(1, &b)],
            obstacles: vec![&obstacle],
        };
        assert!(check_layout(&input).is_empty());
    }

    #[test]
    fn detects_trace_trace_violation() {
        // Centerline distance 10 < required 8 + 2 + 2 = 12.
        let (a, b) = (
            line(&[(0.0, 0.0), (100.0, 0.0)]),
            line(&[(0.0, 10.0), (100.0, 10.0)]),
        );
        let input = CheckInput {
            traces: vec![trace(0, &a), trace(1, &b)],
            obstacles: vec![],
        };
        let v = check_layout(&input);
        assert_eq!(v.len(), 1);
        match &v[0] {
            Violation::TraceTraceClearance {
                actual, required, ..
            } => {
                assert!((actual - 10.0).abs() < 1e-9);
                assert!((required - 12.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn coupled_traces_skip_gap_check() {
        let (a, b) = (
            line(&[(0.0, 0.0), (100.0, 0.0)]),
            line(&[(0.0, 6.0), (100.0, 6.0)]),
        );
        let mut ta = trace(0, &a);
        ta.coupled_with = vec![1];
        let input = CheckInput {
            traces: vec![ta, trace(1, &b)],
            obstacles: vec![],
        };
        assert!(check_layout(&input).is_empty());
    }

    #[test]
    fn detects_obstacle_violation() {
        // Obstacle 5 from centerline < required 8 + 2 = 10.
        let a = line(&[(0.0, 0.0), (100.0, 0.0)]);
        let obstacle = Polygon::rectangle(Point::new(40.0, 5.0), Point::new(60.0, 15.0));
        let input = CheckInput {
            traces: vec![trace(0, &a)],
            obstacles: vec![&obstacle],
        };
        let v = check_layout(&input);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::TraceObstacleClearance { .. }));
    }

    #[test]
    fn detects_short_segment() {
        // The 2-unit jog is shorter than dprotect 8.
        let a = line(&[(0.0, 0.0), (100.0, 0.0), (100.0, 2.0), (200.0, 2.0)]);
        let input = CheckInput {
            traces: vec![trace(0, &a)],
            obstacles: vec![],
        };
        let v = check_layout(&input);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::ShortSegment { segment: 1, .. }));
    }

    #[test]
    fn chamfer_segments_exempt_from_protect() {
        // A mitered right-angle corner: the 45° chamfer bridge is shorter
        // than dprotect but intentional.
        let pl = meander_geom::miter::miter_polyline(
            &line(&[(0.0, 0.0), (50.0, 0.0), (50.0, 50.0)]),
            2.0, // chamfer length 2√2 ≈ 2.83 < dprotect 8
        );
        let input = CheckInput {
            traces: vec![trace(0, &pl)],
            obstacles: vec![],
        };
        assert!(check_layout(&input).is_empty());
    }

    #[test]
    fn genuine_stub_still_flagged() {
        // A short jog between two same-direction right angles is a real
        // dprotect stub, not a chamfer (turns have opposite signs).
        let a = line(&[(0.0, 0.0), (50.0, 0.0), (50.0, 2.0), (100.0, 2.0)]);
        let input = CheckInput {
            traces: vec![trace(0, &a)],
            obstacles: vec![],
        };
        let v = check_layout(&input);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::ShortSegment { .. }));
    }

    #[test]
    fn collinear_split_is_not_short() {
        // Two collinear 5-unit pieces form one 10-unit segment after
        // simplification — no dprotect violation.
        let a = line(&[(0.0, 0.0), (5.0, 0.0), (10.0, 0.0)]);
        let input = CheckInput {
            traces: vec![trace(0, &a)],
            obstacles: vec![],
        };
        assert!(check_layout(&input).is_empty());
    }

    #[test]
    fn detects_self_intersection() {
        let a = line(&[
            (0.0, 0.0),
            (100.0, 0.0),
            (100.0, 50.0),
            (50.0, 50.0),
            (50.0, -50.0),
        ]);
        let input = CheckInput {
            traces: vec![trace(0, &a)],
            obstacles: vec![],
        };
        let v = check_layout(&input);
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::SelfIntersection { .. })));
    }

    #[test]
    fn detects_area_escape() {
        let a = line(&[(0.0, 0.0), (100.0, 0.0)]);
        let area = [Polygon::rectangle(
            Point::new(-10.0, -10.0),
            Point::new(50.0, 10.0),
        )];
        let mut t = trace(0, &a);
        t.area = &area;
        let input = CheckInput {
            traces: vec![t],
            obstacles: vec![],
        };
        let v = check_layout(&input);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::OutsideRoutableArea { .. }));
    }

    #[test]
    fn edge_indexed_obstacle_pass_matches_dense() {
        // The many-edged oracle case: a plane polygon (24-gon, radius big
        // enough to smear across the whole board) over dozens of short
        // trace segments, plus a small 24-gon between two traces. The
        // batched gather must agree with the brute scan exactly, under
        // every index kind.
        let lines: Vec<Polyline> = (0..6)
            .map(|t| {
                let y = t as f64 * 30.0;
                (0..12)
                    .map(|i| Point::new(i as f64 * 10.0, y + if i % 2 == 0 { 0.0 } else { 3.0 }))
                    .collect()
            })
            .collect();
        let plane = Polygon::regular(Point::new(60.0, 80.0), 70.0, 24, 0.1);
        let via = Polygon::regular(Point::new(30.0, 10.0), 4.0, 24, 0.0);
        let input = CheckInput {
            traces: (0..6).map(|t| trace(t, &lines[t as usize])).collect(),
            obstacles: vec![&plane, &via],
        };
        let brute = check_layout_brute(&input);
        assert!(!brute.is_empty(), "the plane must clip several traces");
        for kind in [IndexKind::Grid, IndexKind::RTree, IndexKind::Auto] {
            assert_eq!(check_layout_with(&input, kind), brute, "{kind:?}");
        }
    }

    #[test]
    fn area_union_containment() {
        // Trace spans two polygons that together cover it.
        let a = line(&[(0.0, 0.0), (100.0, 0.0)]);
        let area = [
            Polygon::rectangle(Point::new(-10.0, -10.0), Point::new(50.0, 10.0)),
            Polygon::rectangle(Point::new(50.0, -10.0), Point::new(110.0, 10.0)),
        ];
        let mut t = trace(0, &a);
        t.area = &area;
        let input = CheckInput {
            traces: vec![t],
            obstacles: vec![],
        };
        assert!(check_layout(&input).is_empty());
    }
}
