//! Full-layout violation scan.
//!
//! The router must never *introduce* violations: integration tests run this
//! checker on every meandered output and assert the violation set is empty
//! (or no worse than the input's, for imported layouts that already violate).

use crate::rules::DesignRules;
use crate::violation::Violation;
use meander_geom::batch::{
    accum_point_to_segs_dsq, accum_seg_to_points_dsq, distance_sq_to_segment_batch,
    mark_intersections, pt_seg_dsq, SegBatch, PREFILTER_SLACK,
};
use meander_geom::intersect::segments_intersect;
use meander_geom::{Point, Polygon, Polyline, Segment};
use meander_index::{GridScratch, IndexKind, SegIndex, SegmentGrid, SpatialIndex};
use std::collections::HashMap;

/// Geometry of one trace as the checker sees it.
#[derive(Debug, Clone)]
pub struct TraceGeometry {
    /// Stable id used in violation reports.
    pub id: u32,
    /// Centerline.
    pub centerline: Polyline,
    /// Trace width.
    pub width: f64,
    /// Rules in force for this trace.
    pub rules: DesignRules,
    /// Optional routable-area polygons this trace must stay inside
    /// (checked only when non-empty; a point must be inside *some* polygon).
    pub area: Vec<Polygon>,
    /// Trace ids this trace is allowed to touch (e.g. its differential-pair
    /// partner); gap checks against them are skipped.
    pub coupled_with: Vec<u32>,
}

/// Checker input: traces plus obstacle polygons.
#[derive(Debug, Clone, Default)]
pub struct CheckInput {
    /// All traces to check.
    pub traces: Vec<TraceGeometry>,
    /// All obstacles.
    pub obstacles: Vec<Polygon>,
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
/// let input = CheckInput {
///     traces: vec![TraceGeometry {
///         id: 0,
///         centerline: Polyline::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]),
///         width: 4.0,
///         rules: DesignRules::default(),
///         area: vec![],
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
/// [`check_layout_with`] must report the exact same violation list (see
/// the property suite), and the perf baseline measures one against the
/// other.
pub fn check_layout_brute(input: &CheckInput) -> Vec<Violation> {
    let mut out = Vec::new();

    for (i, t) in input.traces.iter().enumerate() {
        // 3. dprotect on simplified centerline (mitering may deliberately
        // split segments; collinear runs are not real corners). Chamfer
        // segments produced by the `dmiter` rule are exempt: they are
        // intentional corner cuts, not the manufacturing stubs dprotect
        // exists to prevent.
        let mut simplified = t.centerline.clone();
        simplified.simplify();
        for (si, seg) in simplified.segments().enumerate() {
            let len = seg.length();
            if len < t.rules.protect - 1e-9 && !is_chamfer(&simplified, si) {
                out.push(Violation::ShortSegment {
                    trace: t.id,
                    segment: si,
                    actual: len,
                    required: t.rules.protect,
                });
            }
        }

        // 4. Self-intersection.
        if t.centerline.is_self_intersecting() {
            out.push(Violation::SelfIntersection { trace: t.id });
        }

        // 5. Containment.
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
            let d = t.centerline.distance_to_polyline(&u.centerline);
            if d < required - 1e-9 {
                // Witness: the closest sample point found by re-scanning.
                let near = closest_witness(&t.centerline, &u.centerline);
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

/// [`check_layout`] with the scan index structure selected by `kind`
/// (grid, STR R-tree, or `Auto`), also returning the batch-kernel work
/// counters (for the perf baseline's observability section).
///
/// Replaces the brute-force `O(T²·S²)` trace–trace and `O(T·O·S)`
/// trace–obstacle scans with windowed candidate queries:
///
/// * every segment is registered once in a world index keyed by a global
///   id that ascends in `(trace, segment)` order, so candidate iteration
///   visits pairs in the same order as the brute-force scan and
///   strict-minimum witness selection agrees bit-for-bit;
/// * an obstacle only tests segments inside its bbox inflated by the
///   largest clearance any trace demands;
/// * a trace segment only tests other-trace segments within the largest
///   pair clearance, and the closest-pair search returns its witness
///   directly instead of re-scanning;
/// * self-intersection uses a per-trace grid, which matters once meandered
///   traces carry hundreds of segments.
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
/// let input = CheckInput {
///     traces: vec![TraceGeometry {
///         id: 0,
///         centerline: Polyline::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]),
///         width: 4.0,
///         rules: DesignRules::default(),
///         area: vec![],
///         coupled_with: vec![],
///     }],
///     // A plane-sized obstacle too close to the trace: required
///     // clearance is 8 + 4/2 = 10 but the slab sits at distance 5.
///     obstacles: vec![Polygon::rectangle(Point::new(-50.0, 5.0), Point::new(150.0, 30.0))],
/// };
/// let grid = check_layout_with(&input, IndexKind::Grid);
/// let rtree = check_layout_with(&input, IndexKind::RTree);
/// assert_eq!(grid.len(), 1);
/// assert_eq!(grid, rtree); // identical list, witnesses included
/// ```
pub fn check_layout_with(input: &CheckInput, kind: IndexKind) -> Vec<Violation> {
    let idx = ScanIndex::build(input, kind);
    let (obs_worst, pair_best) = gather(input, &idx);
    emit(input, &idx, &obs_worst, &pair_best)
}

/// Shared scan state: per-trace segment lists, the global segment index
/// (ids ascend in `(trace, segment)` order), and the clearance windows.
struct ScanIndex {
    segs: Vec<Vec<Segment>>,
    offsets: Vec<usize>,
    trace_of: Vec<u32>,
    max_obs_required: f64,
    max_pair_required: f64,
    mean_seg_len: f64,
    grid: SegIndex,
    /// The caller's selection, passed through unresolved so `Auto` gets
    /// re-judged per population: the scan index resolves it on the trace
    /// segments, each per-obstacle edge index on that obstacle's edges.
    kind: IndexKind,
}

impl ScanIndex {
    fn build(input: &CheckInput, kind: IndexKind) -> Self {
        let traces = &input.traces;
        let segs: Vec<Vec<Segment>> = traces
            .iter()
            .map(|t| t.centerline.segments().collect())
            .collect();
        let total_segs: usize = segs.iter().map(Vec::len).sum();
        let offsets: Vec<usize> = segs
            .iter()
            .scan(0usize, |acc, s| {
                let o = *acc;
                *acc += s.len();
                Some(o)
            })
            .collect();
        let trace_of: Vec<u32> = segs
            .iter()
            .enumerate()
            .flat_map(|(i, s)| std::iter::repeat_n(i as u32, s.len()))
            .collect();

        let max_obs_required = traces
            .iter()
            .map(|t| t.rules.centerline_obstacle())
            .fold(0.0f64, f64::max);
        let max_gap = traces.iter().map(|t| t.rules.gap).fold(0.0f64, f64::max);
        let max_width = traces.iter().map(|t| t.width).fold(0.0f64, f64::max);
        let max_pair_required = max_gap + max_width;
        let mean_seg_len = if total_segs == 0 {
            1.0
        } else {
            segs.iter()
                .flat_map(|s| s.iter())
                .map(Segment::length)
                .sum::<f64>()
                / total_segs as f64
        };
        let cell = mean_seg_len
            .max(max_obs_required)
            .max(max_pair_required)
            .max(1e-6);

        let flat: Vec<Segment> = segs.iter().flatten().copied().collect();
        let grid = SegIndex::from_segments(kind, cell, &flat);
        ScanIndex {
            segs,
            offsets,
            trace_of,
            max_obs_required,
            max_pair_required,
            mean_seg_len,
            grid,
            kind,
        }
    }

    #[inline]
    fn seg_of(&self, gid: u32) -> (usize, &Segment) {
        let i = self.trace_of[gid as usize] as usize;
        (i, &self.segs[i][gid as usize - self.offsets[i]])
    }
}

/// Worst sub-threshold clearance per `(trace, obstacle)` and closest
/// approach per trace pair (`(d, d²)` ride together there, see [`gather`]),
/// each with its witness.
type ObsWorst = HashMap<(usize, usize), (f64, Point)>;
type PairBest = HashMap<(usize, usize), (f64, f64, Point)>;

/// Obstacles with at least this many edges *and* at least
/// [`EDGE_INDEX_MIN_CANDIDATES`] candidate segments in their window take
/// the edge-indexed accumulation path; below the thresholds the dense
/// edge-outer lane loops win (a rectangle's four edges are cheaper to
/// stream than to index).
const EDGE_INDEX_MIN_EDGES: usize = 8;
/// Candidate-count floor for the edge-indexed obstacle path.
const EDGE_INDEX_MIN_CANDIDATES: usize = 16;

/// The batched clearance passes. Per probe window, one [`SegBatch`] holds
/// every candidate; distances reduce in the squared domain; witnesses come
/// from first-occurrence strict argmins, which is exactly the scalar
/// `d < best` update order. Equality with the per-candidate scalar loops
/// of [`check_layout_brute`] is bit-for-bit:
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
/// ## The edge-indexed obstacle pass
///
/// The dense obstacle accumulation is edge-outer: every obstacle edge
/// streams partials across *every* candidate lane — `O(edges ×
/// candidates)` even though a candidate far from an edge contributes
/// nothing. For many-edged obstacles with big windows (plane polygons on
/// the `stress:mixed` regime) the pass flips candidate-outer: a
/// per-obstacle edge index (same [`IndexKind`] as the scan index) hands
/// each candidate only the edges within the clearance radius `R =
/// max_obs_required`, and the partials accumulate through the same
/// [`pt_seg_dsq`] float stream the lane kernels run.
///
/// Skipping far edges is exact, not approximate: every omitted partial is
/// `> R²` (an edge at distance `> R` from the candidate keeps all four of
/// its endpoint/vertex partials above `R`, and cannot intersect it), so
/// `dsq[k]` is computed exactly whenever its true value is `< R²` — and a
/// violation needs `d < required ≤ R`. Values at or above `R²` may be
/// inflated, but the per-trace winner is then `≥ required` on both paths
/// and nothing is emitted either way.
fn gather(input: &CheckInput, idx: &ScanIndex) -> (ObsWorst, PairBest) {
    let traces = &input.traces;
    let mut scratch = GridScratch::new();
    let mut candidates: Vec<u32> = Vec::new();
    let mut batch = SegBatch::new();
    let mut dsq: Vec<f64> = Vec::new();
    let mut hit: Vec<bool> = Vec::new();
    let mut edge_scratch = GridScratch::new();
    let mut near_edges: Vec<u32> = Vec::new();
    let mut edges: Vec<Segment> = Vec::new();

    // --- Trace–obstacle pass. --------------------------------------------
    // d(obstacle, seg) decomposes into "obstacle edge ↔ seg endpoint" and
    // "obstacle vertex ↔ seg" partials plus the intersection/containment
    // zero cases; the partials run lane-parallel across the candidates
    // (dense path) or candidate-outer over the nearby-edge subsets
    // (edge-indexed path — see above; both are exact).
    let mut obs_worst: ObsWorst = HashMap::new();
    for (oi, obs) in input.obstacles.iter().enumerate() {
        let window = obs.bbox().expanded(idx.max_obs_required);
        idx.grid
            .query_batch(&window, &mut scratch, &mut candidates, &mut batch);
        if candidates.is_empty() {
            continue;
        }
        let n = candidates.len();
        dsq.clear();
        dsq.resize(n, f64::INFINITY);
        hit.clear();
        hit.resize(n, false);
        edges.clear();
        edges.extend(obs.edges());
        if edges.len() >= EDGE_INDEX_MIN_EDGES && n >= EDGE_INDEX_MIN_CANDIDATES {
            let mean_edge = edges.iter().map(Segment::length).sum::<f64>() / edges.len() as f64;
            let cell = mean_edge.max(idx.max_obs_required).max(1e-6);
            let eidx = SegIndex::from_segments(idx.kind, cell, &edges);
            for k in 0..n {
                let (sax, say) = (batch.ax()[k], batch.ay()[k]);
                let (sbx, sby) = (batch.bx()[k], batch.by()[k]);
                let cand_window = batch.get(k).bbox().expanded(idx.max_obs_required);
                eidx.query_scratch(&cand_window, &mut edge_scratch, &mut near_edges);
                let mut acc = dsq[k];
                for &eid in &near_edges {
                    let e = &edges[eid as usize];
                    // Edge ↔ candidate-endpoint partials…
                    let d = pt_seg_dsq(sax, say, e.a.x, e.a.y, e.b.x, e.b.y);
                    if d < acc {
                        acc = d;
                    }
                    let d = pt_seg_dsq(sbx, sby, e.a.x, e.a.y, e.b.x, e.b.y);
                    if d < acc {
                        acc = d;
                    }
                    // …and vertex ↔ candidate partials (each polygon vertex
                    // is an endpoint of its two adjacent edges; the repeat
                    // accumulation is an idempotent `min` of equal bits).
                    let d = pt_seg_dsq(e.a.x, e.a.y, sax, say, sbx, sby);
                    if d < acc {
                        acc = d;
                    }
                    let d = pt_seg_dsq(e.b.x, e.b.y, sax, say, sbx, sby);
                    if d < acc {
                        acc = d;
                    }
                    if !hit[k] && segments_intersect(e, &batch.get(k)) {
                        hit[k] = true;
                    }
                }
                dsq[k] = acc;
            }
        } else {
            for e in &edges {
                accum_seg_to_points_dsq(e, batch.ax(), batch.ay(), &mut dsq);
                accum_seg_to_points_dsq(e, batch.bx(), batch.by(), &mut dsq);
                mark_intersections(e, &batch, &mut hit);
            }
            for &v in obs.vertices() {
                accum_point_to_segs_dsq(v, &batch, &mut dsq);
            }
        }
        let near = obs.bbox().expanded(PREFILTER_SLACK);
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
                let (_, seg) = idx.seg_of(candidates[win]);
                obs_worst.insert((i, oi), (best_d, seg.midpoint()));
            }
        }
    }

    // --- Trace–trace pass. ------------------------------------------------
    // `(d, d²)` ride together per pair so the prefilter never misses an
    // update the brute-force scan would make (sqrt is monotone) and never
    // takes one it would skip (the inner strict `<` re-checks on `d`).
    let mut pair_best: PairBest = HashMap::new();
    let mut eligible: Vec<u32> = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        for seg in &idx.segs[i] {
            let window = seg.bbox().expanded(idx.max_pair_required);
            idx.grid
                .query_scratch(&window, &mut scratch, &mut candidates);
            // Ownership filters run before any lane is materialized: the
            // brute-force scan also skips `j <= i` / coupled candidates
            // before computing a distance, and dropping them from the batch
            // only removes lanes whose results would be discarded.
            eligible.clear();
            eligible.extend(candidates.iter().copied().filter(|&gid| {
                let j = idx.trace_of[gid as usize] as usize;
                j > i && {
                    let u = &traces[j];
                    !t.coupled_with.contains(&u.id) && !u.coupled_with.contains(&t.id)
                }
            }));
            if eligible.is_empty() {
                continue;
            }
            idx.grid.fill_batch(&eligible, &mut batch);
            distance_sq_to_segment_batch(seg, &batch, &mut dsq);
            for (k, &gid) in eligible.iter().enumerate() {
                let j = idx.trace_of[gid as usize] as usize;
                let e = pair_best
                    .entry((i, j))
                    .or_insert((f64::INFINITY, f64::INFINITY, seg.a));
                if dsq[k] < e.1 {
                    let d = dsq[k].sqrt();
                    if d < e.0 {
                        *e = (d, dsq[k], seg.midpoint());
                    }
                }
            }
        }
    }
    (obs_worst, pair_best)
}

/// Emission, in the brute-force nesting order.
fn emit(
    input: &CheckInput,
    idx: &ScanIndex,
    obs_worst: &ObsWorst,
    pair_best: &PairBest,
) -> Vec<Violation> {
    let traces = &input.traces;
    let (segs, mean_seg_len) = (&idx.segs, idx.mean_seg_len);
    let mut out = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        // 3. dprotect on simplified centerline.
        let mut simplified = t.centerline.clone();
        simplified.simplify();
        for (si, seg) in simplified.segments().enumerate() {
            let len = seg.length();
            if len < t.rules.protect - 1e-9 && !is_chamfer(&simplified, si) {
                out.push(Violation::ShortSegment {
                    trace: t.id,
                    segment: si,
                    actual: len,
                    required: t.rules.protect,
                });
            }
        }

        // 4. Self-intersection (indexed; same predicate as
        //    `Polyline::is_self_intersecting`).
        if self_intersects_indexed(&segs[i], mean_seg_len.max(1e-6)) {
            out.push(Violation::SelfIntersection { trace: t.id });
        }

        // 5. Containment.
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

        // 2. Obstacles.
        for oi in 0..input.obstacles.len() {
            if let Some(&(actual, near)) = obs_worst.get(&(i, oi)) {
                out.push(Violation::TraceObstacleClearance {
                    trace: t.id,
                    obstacle: oi as u32,
                    actual,
                    required: t.rules.centerline_obstacle(),
                    near,
                });
            }
        }

        // 1. Trace–trace.
        for (j, u) in traces.iter().enumerate().skip(i + 1) {
            let Some(&(raw, _, near)) = pair_best.get(&(i, j)) else {
                continue;
            };
            let gap = t.rules.gap.max(u.rules.gap);
            let required = gap + t.width / 2.0 + u.width / 2.0;
            if raw < required - 1e-9 {
                // `distance_to_polyline` snaps touching traces to exactly 0.
                let actual = if meander_geom::approx_zero(raw) {
                    0.0
                } else {
                    raw
                };
                out.push(Violation::TraceTraceClearance {
                    a: t.id,
                    b: u.id,
                    actual,
                    required,
                    near,
                });
            }
        }
    }

    out
}

/// Grid-accelerated equivalent of [`Polyline::is_self_intersecting`]: any
/// two non-adjacent segments intersecting.
fn self_intersects_indexed(segs: &[Segment], cell: f64) -> bool {
    if segs.len() < 3 {
        return false;
    }
    let grid = SegmentGrid::from_segments(cell, segs);
    let mut scratch = GridScratch::new();
    let mut candidates: Vec<u32> = Vec::new();
    for (i, seg) in segs.iter().enumerate() {
        grid.query_scratch(&seg.bbox(), &mut scratch, &mut candidates);
        for &j in &candidates {
            if j as usize > i + 1
                && meander_geom::intersect::segments_intersect(seg, &segs[j as usize])
            {
                return true;
            }
        }
    }
    false
}

/// `true` when segment `si` of `pl` is a miter chamfer: both of its corners
/// turn 30°–60° in the same rotational direction (a 90° corner cut into two
/// obtuse ones, paper Sec. II's `dmiter`).
fn is_chamfer(pl: &Polyline, si: usize) -> bool {
    if si == 0 || si + 1 >= pl.segment_count() {
        return false;
    }
    let turn = |a: meander_geom::Segment, b: meander_geom::Segment| -> Option<f64> {
        let da = a.direction()?;
        let db = b.direction()?;
        Some(da.cross(db).atan2(da.dot(db)))
    };
    let (Some(t_in), Some(t_out)) = (
        turn(pl.segment(si - 1), pl.segment(si)),
        turn(pl.segment(si), pl.segment(si + 1)),
    ) else {
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

    fn trace(id: u32, pts: Vec<Point>) -> TraceGeometry {
        TraceGeometry {
            id,
            centerline: Polyline::new(pts),
            width: 4.0,
            rules: DesignRules::default(),
            area: vec![],
            coupled_with: vec![],
        }
    }

    #[test]
    fn clean_layout_passes() {
        let input = CheckInput {
            traces: vec![
                trace(0, vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]),
                trace(1, vec![Point::new(0.0, 50.0), Point::new(100.0, 50.0)]),
            ],
            obstacles: vec![Polygon::rectangle(
                Point::new(40.0, 20.0),
                Point::new(60.0, 30.0),
            )],
        };
        assert!(check_layout(&input).is_empty());
    }

    #[test]
    fn detects_trace_trace_violation() {
        // Centerline distance 10 < required 8 + 2 + 2 = 12.
        let input = CheckInput {
            traces: vec![
                trace(0, vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]),
                trace(1, vec![Point::new(0.0, 10.0), Point::new(100.0, 10.0)]),
            ],
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
        let mut a = trace(0, vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
        let b = trace(1, vec![Point::new(0.0, 6.0), Point::new(100.0, 6.0)]);
        a.coupled_with = vec![1];
        let input = CheckInput {
            traces: vec![a, b],
            obstacles: vec![],
        };
        assert!(check_layout(&input).is_empty());
    }

    #[test]
    fn detects_obstacle_violation() {
        // Obstacle 5 from centerline < required 8 + 2 = 10.
        let input = CheckInput {
            traces: vec![trace(0, vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)])],
            obstacles: vec![Polygon::rectangle(
                Point::new(40.0, 5.0),
                Point::new(60.0, 15.0),
            )],
        };
        let v = check_layout(&input);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], Violation::TraceObstacleClearance { .. }));
    }

    #[test]
    fn detects_short_segment() {
        let input = CheckInput {
            traces: vec![trace(
                0,
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(100.0, 0.0),
                    Point::new(100.0, 2.0), // 2 < dprotect 8
                    Point::new(200.0, 2.0),
                ],
            )],
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
            &Polyline::new(vec![
                Point::new(0.0, 0.0),
                Point::new(50.0, 0.0),
                Point::new(50.0, 50.0),
            ]),
            2.0, // chamfer length 2√2 ≈ 2.83 < dprotect 8
        );
        let input = CheckInput {
            traces: vec![TraceGeometry {
                id: 0,
                centerline: pl,
                width: 4.0,
                rules: DesignRules::default(),
                area: vec![],
                coupled_with: vec![],
            }],
            obstacles: vec![],
        };
        assert!(check_layout(&input).is_empty());
    }

    #[test]
    fn genuine_stub_still_flagged() {
        // A short jog between two same-direction right angles is a real
        // dprotect stub, not a chamfer (turns have opposite signs).
        let input = CheckInput {
            traces: vec![trace(
                0,
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(50.0, 0.0),
                    Point::new(50.0, 2.0),
                    Point::new(100.0, 2.0),
                ],
            )],
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
        let input = CheckInput {
            traces: vec![trace(
                0,
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(5.0, 0.0),
                    Point::new(10.0, 0.0),
                ],
            )],
            obstacles: vec![],
        };
        assert!(check_layout(&input).is_empty());
    }

    #[test]
    fn detects_self_intersection() {
        let input = CheckInput {
            traces: vec![trace(
                0,
                vec![
                    Point::new(0.0, 0.0),
                    Point::new(100.0, 0.0),
                    Point::new(100.0, 50.0),
                    Point::new(50.0, 50.0),
                    Point::new(50.0, -50.0),
                ],
            )],
            obstacles: vec![],
        };
        let v = check_layout(&input);
        assert!(v
            .iter()
            .any(|v| matches!(v, Violation::SelfIntersection { .. })));
    }

    #[test]
    fn detects_area_escape() {
        let mut t = trace(0, vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
        t.area = vec![Polygon::rectangle(
            Point::new(-10.0, -10.0),
            Point::new(50.0, 10.0),
        )];
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
        // A many-edged plane polygon (24-gon, radius big enough to smear
        // across the whole board) over dozens of short trace segments:
        // crosses both edge-index thresholds, so the batched gather takes
        // the candidate-outer path — and must agree with the brute scan
        // exactly, under every index kind.
        let mut traces = Vec::new();
        for t in 0..6u32 {
            let y = t as f64 * 30.0;
            let pts: Vec<Point> = (0..12)
                .map(|i| Point::new(i as f64 * 10.0, y + if i % 2 == 0 { 0.0 } else { 3.0 }))
                .collect();
            traces.push(trace(t, pts));
        }
        let input = CheckInput {
            traces,
            obstacles: vec![
                Polygon::regular(Point::new(60.0, 80.0), 70.0, 24, 0.1),
                Polygon::regular(Point::new(30.0, 10.0), 4.0, 24, 0.0),
            ],
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
        let mut t = trace(0, vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
        t.area = vec![
            Polygon::rectangle(Point::new(-10.0, -10.0), Point::new(50.0, 10.0)),
            Polygon::rectangle(Point::new(50.0, -10.0), Point::new(110.0, 10.0)),
        ];
        let input = CheckInput {
            traces: vec![t],
            obstacles: vec![],
        };
        assert!(check_layout(&input).is_empty());
    }
}
