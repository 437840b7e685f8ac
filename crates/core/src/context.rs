//! The polygon context a segment is extended against.

use meander_drc::DesignRules;
use meander_geom::{Frame, Point, Polygon, Polyline, Rect, Segment};
use meander_index::{GridScratch, IndexKind, MergeSortTree, OverlayIndex, SegIndex, SpatialIndex};
use std::sync::Arc;

/// Tiny lift above the segment line: geometry at `y ≤ Y_EPS` in pattern-side
/// coordinates belongs to "behind the segment" and is exempt from checking
/// (paper: "The area below line AD need not be checked"). Constraints *on*
/// the line (legs of existing patterns) are kept by clipping at exactly
/// this height, so their clipped bottom nodes still register.
pub const Y_EPS: f64 = 1e-7;

/// World-space inputs for building a [`ShrinkContext`].
#[derive(Debug, Clone, Default)]
pub struct WorldContext {
    /// Routable-area border polygons (patterns must stay inside one).
    pub area: Vec<Polygon>,
    /// Obstacle polygons.
    pub obstacles: Vec<Polygon>,
    /// URA rectangles of the trace's *other* segments (world space).
    pub other_uras: Vec<Polygon>,
}

impl WorldContext {
    /// Builds the URA rectangles for every segment of `trace` except the
    /// one with index `skip`, with lateral half-width `gap / 2`.
    pub(crate) fn trace_uras(trace: &Polyline, skip: usize, gap: f64) -> Vec<Polygon> {
        let mut out = Vec::with_capacity(trace.segment_count().saturating_sub(1));
        for (i, seg) in trace.segments().enumerate() {
            if i == skip {
                continue;
            }
            if let Some(ura) = segment_ura(&seg, gap) {
                out.push(ura);
            }
        }
        out
    }
}

/// The URA rectangle of one segment in world space: lateral half-width
/// `gap / 2` (paper Fig. 6), without longitudinal extension — the
/// along-trace spacing constraints are enforced by the DP transition rules
/// instead. `None` for degenerate segments. Both engines build their
/// other-segment constraints through this single definition.
pub(crate) fn segment_ura(seg: &Segment, gap: f64) -> Option<Polygon> {
    if seg.is_degenerate() {
        return None;
    }
    let frame = Frame::from_segment(seg).expect("non-degenerate");
    let local = Polygon::rectangle(
        Point::new(0.0, -gap / 2.0),
        Point::new(seg.length(), gap / 2.0),
    );
    Some(frame.polygon_to_world(&local))
}

/// Effective clearance between trace *centerlines* (`d_gap` of the URA
/// construction): edge gap plus one trace width (two half-widths).
#[inline]
pub(crate) fn effective_gap(rules: &DesignRules) -> f64 {
    rules.gap + rules.width
}

/// How far obstacles are inflated into centerline terms: they demand
/// `d_obs + w/2` from a centerline while the URA only guarantees
/// `g_eff/2`; the difference is made up by growing the polygon.
#[inline]
pub fn obstacle_inflation(rules: &DesignRules) -> f64 {
    (rules.obstacle + rules.width / 2.0 - effective_gap(rules) / 2.0).max(0.0)
}

/// Cell size of the per-trace world edge index: a few clearance units —
/// URA windows are a handful of `d_gap` across late in a run.
#[inline]
pub fn world_cell(rules: &DesignRules) -> f64 {
    (effective_gap(rules) * 4.0).max(1.0)
}

/// Prebuilt, shareable world geometry for an obstacle **library**: the
/// library's polygons inflated into centerline terms, with their edges
/// spatially indexed — built **once** per `(library, rules)` and reused by
/// every trace of every board of a fleet, and by every unit of one board
/// in the board-level driver (over the board's own obstacles), instead of
/// re-indexed inside each `WorldIndex::build`.
///
/// The inflation amount and the index lattice are functions of the design
/// rules ([`obstacle_inflation`], [`world_cell`]); a base only composes
/// with traces whose rules derive the *same* floats
/// (`WorldBase::compatible` — callers fall back to materializing the raw
/// polygons otherwise, trading the amortization for unchanged output). The
/// per-trace remainder (routable-area borders, board-local obstacles) goes
/// into an [`OverlayIndex`] layered over this base; by the overlay's
/// union-equals-monolithic contract the candidate sets — and therefore the
/// router's placements — are **bit-identical** to indexing everything per
/// trace.
#[derive(Debug)]
pub struct WorldBase {
    /// The library polygons as given (un-inflated) — the fallback
    /// materialization path for incompatible rules.
    raw: Vec<Polygon>,
    /// Library polygons inflated by [`obstacle_inflation`] — exactly what
    /// `EngineParams` would compute per trace.
    polys: Vec<Polygon>,
    /// Shared edge index over `polys` (edge `e` belongs to polygon
    /// `edge_owner[e]`).
    edge_index: Arc<SegIndex>,
    edge_owner: Vec<u32>,
    n_edges: u32,
    /// Lattice cell size the index was built on ([`world_cell`]).
    cell: f64,
    /// Inflation the polygons were grown by ([`obstacle_inflation`]).
    inflate: f64,
}

impl WorldBase {
    /// Inflates and indexes `library` for traces governed by `rules`, with
    /// the index structure selected by `kind` (`Auto` resolves on the
    /// library's edge extents; candidate sets are identical either way).
    pub fn build(library: &[Polygon], rules: &DesignRules, kind: IndexKind) -> Self {
        let inflate = obstacle_inflation(rules);
        let cell = world_cell(rules);
        let polys: Vec<Polygon> = library.iter().map(|p| p.offset_convex(inflate)).collect();
        let mut edges: Vec<Segment> = Vec::new();
        let mut edge_owner = Vec::new();
        for (k, poly) in polys.iter().enumerate() {
            for e in poly.edges() {
                edges.push(e);
                edge_owner.push(k as u32);
            }
        }
        WorldBase {
            raw: library.to_vec(),
            polys,
            edge_index: Arc::new(SegIndex::from_segments(kind, cell.max(1e-6), &edges)),
            edge_owner,
            n_edges: edges.len() as u32,
            cell,
            inflate,
        }
    }

    /// `true` when a trace under `rules` derives exactly the inflation and
    /// lattice this base was built with — the condition for the overlay
    /// path to be bit-identical to per-trace indexing. (The index *kind*
    /// is deliberately not compared: candidate sets are structure-
    /// independent.)
    pub(crate) fn compatible(&self, rules: &DesignRules) -> bool {
        obstacle_inflation(rules).to_bits() == self.inflate.to_bits()
            && world_cell(rules).to_bits() == self.cell.to_bits()
    }

    /// Number of library polygons.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.polys.len()
    }

    /// The un-inflated library polygons (fallback materialization).
    #[inline]
    pub(crate) fn raw(&self) -> &[Polygon] {
        &self.raw
    }
}

/// Immutable, per-trace spatial index over the *static* world geometry
/// (routable-area borders and inflated obstacles, in world coordinates).
///
/// The naive pipeline re-clones and re-transforms every polygon on every
/// queue pop; this index is built **once per trace** and each iteration asks
/// it only for the polygons that can reach the popped segment's candidate
/// window, so [`ShrinkContext`] construction becomes output-sensitive.
///
/// In the fleet regime the obstacle-library part of the world comes from
/// a prebuilt [`WorldBase`] passed to [`WorldIndex::build`]: only the
/// per-trace remainder is indexed here, as an [`OverlayIndex`] overlay.
/// Polygon ids then run: own area polygons, base (library) polygons, own
/// board-local obstacles — the same order a monolithic board with its
/// library obstacles listed first would produce, so candidate id lists are
/// identical across the two builds.
#[derive(Debug)]
pub(crate) struct WorldIndex {
    /// Shared library world, if this index was built over one.
    base: Option<Arc<WorldBase>>,
    /// Number of polygon ids occupied by the base (0 without one).
    n_base: usize,
    /// Own polygons: areas first, then non-library obstacles.
    polys: Vec<Polygon>,
    /// Number of leading area polygons.
    n_area: usize,
    /// Per-own-polygon bounding boxes (area containment tests).
    bboxes: Vec<Rect>,
    /// Edge index: base (library) edges under their shared index, own
    /// edges as the overlay (ids offset by the base's edge count).
    edge_index: OverlayIndex,
    /// Own edge id → owning *own* polygon index.
    edge_owner: Vec<u32>,
}

impl WorldIndex {
    /// Indexes `area` + `obstacles` (already inflated by the caller) on a
    /// lattice of cell size `cell`, with the edge index structure selected
    /// by `kind`. `Auto` resolves on the edge-extent distribution — plane
    /// polygons next to via fields pick the R-tree, paper-sized boards the
    /// grid ([`IndexKind::resolve`]). Query results are identical either
    /// way; only the cost model changes.
    ///
    /// With a shared `base`, only `area` and the board-local `obstacles`
    /// are indexed here; the library's inflated polygons and their edge
    /// index are reused from `base`, whose lattice `cell` must equal
    /// ([`WorldBase::compatible`]). Queries answer exactly like a
    /// monolithic build over `area + base + obstacles` (see
    /// [`OverlayIndex`]).
    pub(crate) fn build(
        area: &[Polygon],
        obstacles: &[Polygon],
        cell: f64,
        kind: IndexKind,
        base: Option<Arc<WorldBase>>,
    ) -> Self {
        debug_assert!(base
            .as_ref()
            .is_none_or(|b| b.cell.to_bits() == cell.to_bits()));
        let polys: Vec<Polygon> = area.iter().chain(obstacles.iter()).cloned().collect();
        let bboxes: Vec<Rect> = polys.iter().map(|p| p.bbox()).collect();
        let mut edges: Vec<Segment> = Vec::new();
        let mut edge_owner = Vec::new();
        for (k, poly) in polys.iter().enumerate() {
            for e in poly.edges() {
                edges.push(e);
                edge_owner.push(k as u32);
            }
        }
        let own = SegIndex::from_segments(kind, cell.max(1e-6), &edges);
        let (edge_index, n_base) = match &base {
            Some(b) => (
                OverlayIndex::over(Arc::clone(&b.edge_index), b.n_edges, own),
                b.len(),
            ),
            None => (OverlayIndex::solo(own), 0),
        };
        WorldIndex {
            base,
            n_base,
            polys,
            n_area: area.len(),
            bboxes,
            edge_index,
            edge_owner,
        }
    }

    /// The polygon with combined id `k` (own areas, then base polygons,
    /// then own obstacles).
    #[inline]
    pub(crate) fn poly(&self, k: u32) -> &Polygon {
        let k = k as usize;
        if k < self.n_area {
            &self.polys[k]
        } else if k < self.n_area + self.n_base {
            &self.base.as_ref().expect("base ids imply a base").polys[k - self.n_area]
        } else {
            &self.polys[k - self.n_base]
        }
    }

    /// `true` when polygon `k` is a routable-area border.
    #[inline]
    pub(crate) fn is_area(&self, k: u32) -> bool {
        (k as usize) < self.n_area
    }

    /// Ids of static polygons that can interact with `window`, ascending.
    ///
    /// Area polygons are matched by bounding box (containment matters even
    /// when their edges are far away); obstacles are matched through the
    /// edge grid (a polygon with a node or a crossing edge inside the
    /// window always has an edge whose bbox overlaps it). A conservative
    /// superset: the shrinking stages run their exact predicates on
    /// whatever is returned.
    pub(crate) fn candidates(
        &self,
        window: &Rect,
        scratch: &mut GridScratch,
        edge_buf: &mut Vec<u32>,
        out: &mut Vec<u32>,
    ) {
        out.clear();
        for k in 0..self.n_area {
            if self.bboxes[k].intersects(window) {
                out.push(k as u32);
            }
        }
        self.edge_index.query_scratch(window, scratch, edge_buf);
        let first_obstacle = out.len();
        let base_edges = self.edge_index.base_ids();
        for &e in edge_buf.iter() {
            if e < base_edges {
                // Library edge: owner sits in the base id band.
                let b = self.base.as_ref().expect("base ids imply a base");
                out.push(self.n_area as u32 + b.edge_owner[e as usize]);
            } else {
                let owner = self.edge_owner[(e - base_edges) as usize];
                if (owner as usize) >= self.n_area {
                    // Own obstacle: shift past the base id band.
                    out.push(owner + self.n_base as u32);
                }
            }
        }
        out[first_obstacle..].sort_unstable();
        out.dedup();
    }
}

/// The per-(segment, direction) obstacle context used by the URA shrinking.
///
/// All polygons are transformed into *pattern-side coordinates*: x along the
/// extended segment, +y toward the pattern side, clipped to `y ≥` `Y_EPS`.
/// A merge-sort tree over the clipped polygons' nodes answers Alg. 2's
/// `P_check` range queries. The "sides" intersections of Eq. 11 need only
/// the edges whose cells meet a thin column, and a context builds no index
/// for them: each edge keeps its bbox's cell span on a lattice of
/// `max(seg_len / 8, 1)`, and [`ShrinkContext::edge_candidates`] scans
/// those spans — exactly the candidate set a [`SpatialIndex`] on that
/// lattice would return, in the same ascending order.
///
/// A context is immutable once built, which is what makes the per-pop
/// stage-1 table ([`crate::shrink::build_stage1_table`]) exact: the table
/// snapshots the stage-1 side caps for every discretized foot position
/// against `edges`, and every later probe of the same context with the
/// same start height evaluates the same geometry — so a table-fed probe
/// sees the float a self-computed one would, for the context's whole
/// lifetime (one queue pop in the engine; a splice builds fresh contexts
/// for the segments it creates).
#[derive(Debug)]
pub struct ShrinkContext {
    /// Constraint polygons in pattern-side coordinates. Routable-area
    /// borders come first *unclipped* (their below-segment edges cannot
    /// reach the URA anyway, and clipping would fabricate a border edge on
    /// the segment line); obstacles and other-segment URAs follow, clipped
    /// to `y ≥` `Y_EPS` so anything standing on the segment registers
    /// bottom nodes the range query can see.
    pub polygons: Vec<Polygon>,
    /// `true` for routable-area border polygons (containers, not
    /// obstacles): they are never "enclosed" by a pattern.
    pub is_area: Vec<bool>,
    /// Number of leading area polygons in `polygons` (the final
    /// containment check reads them).
    n_area: usize,
    /// Node tree: point → polygon id.
    pub tree: MergeSortTree<u32>,
    /// Flattened polygon edges (candidate ids index into this).
    pub edges: Vec<Segment>,
    /// Cell span `[x0, x1, y0, y1]` of each edge's bbox on the lattice.
    spans: Vec<[i64; 4]>,
    /// Lattice cell size: `max(seg_len / 8, 1)`.
    cell: f64,
    /// Node count per polygon (for the `|Poly_k|` tests of Alg. 2).
    pub node_count: Vec<usize>,
    /// The extended segment in local coordinates (on the +x axis).
    pub local_segment: Segment,
}

impl ShrinkContext {
    /// Builds the context for one side of one segment.
    ///
    /// `frame` maps world → segment-local; `dir` (+1/−1) selects the
    /// pattern side (−1 mirrors y so the shrinking always works "upward").
    pub fn build(world: &WorldContext, frame: &Frame, seg_len: f64, dir: i8) -> Self {
        let flip = f64::from(dir);
        let to_side = |p: Point| {
            let l = frame.to_local(p);
            Point::new(l.x, l.y * flip)
        };

        let mut polygons: Vec<Polygon> = Vec::new();
        let mut is_area = Vec::new();
        for poly in &world.area {
            polygons.push(Polygon::new(
                poly.vertices().iter().map(|&p| to_side(p)).collect(),
            ));
            is_area.push(true);
        }
        for poly in world.obstacles.iter().chain(&world.other_uras) {
            let verts: Vec<Point> = poly.vertices().iter().map(|&p| to_side(p)).collect();
            if let Some(clipped) = Polygon::new(verts).clipped_above(Y_EPS) {
                polygons.push(clipped);
                is_area.push(false);
            }
        }

        Self::assemble(polygons, is_area, world.area.len(), seg_len)
    }

    /// Builds **both** side contexts from pre-filtered world geometry,
    /// transforming every vertex into the local frame exactly once.
    ///
    /// `world` + `static_ids` name the static polygons near the candidate
    /// window (see [`WorldIndex::candidates`], which lists areas first);
    /// `other_uras` are the URA rectangles of the trace's nearby other
    /// segments, already in world coordinates. Equivalent to two
    /// [`ShrinkContext::build`] calls over the same polygon set.
    pub(crate) fn build_sides(
        world: &WorldIndex,
        static_ids: &[u32],
        other_uras: &[Polygon],
        frame: &Frame,
        seg_len: f64,
    ) -> (ShrinkContext, ShrinkContext) {
        // One transform pass: local "up-side" coordinates; the down side
        // mirrors y afterwards.
        let mut local: Vec<(Vec<Point>, bool)> = Vec::with_capacity(static_ids.len());
        for &k in static_ids {
            let verts: Vec<Point> = world
                .poly(k)
                .vertices()
                .iter()
                .map(|&p| frame.to_local(p))
                .collect();
            local.push((verts, world.is_area(k)));
        }
        for ura in other_uras {
            let verts: Vec<Point> = ura.vertices().iter().map(|&p| frame.to_local(p)).collect();
            local.push((verts, false));
        }
        let n_area = local.iter().take_while(|(_, area)| *area).count();

        let build_one = |flip: f64| -> ShrinkContext {
            let mut polygons: Vec<Polygon> = Vec::new();
            let mut is_area = Vec::new();
            for (verts, area) in &local {
                let side: Vec<Point> = verts.iter().map(|&p| Point::new(p.x, p.y * flip)).collect();
                if *area {
                    polygons.push(Polygon::new(side));
                    is_area.push(true);
                } else if let Some(clipped) = Polygon::new(side).clipped_above(Y_EPS) {
                    polygons.push(clipped);
                    is_area.push(false);
                }
            }
            ShrinkContext::assemble(polygons, is_area, n_area, seg_len)
        };
        (build_one(1.0), build_one(-1.0))
    }

    /// Builds the query structures over side-local polygons.
    fn assemble(polygons: Vec<Polygon>, is_area: Vec<bool>, n_area: usize, seg_len: f64) -> Self {
        debug_assert!(is_area.iter().take(n_area).all(|&a| a));
        let cell = (seg_len / 8.0).max(1.0);
        let q = |v: f64| cell_coord(cell, v);
        let mut nodes = Vec::new();
        let mut edges = Vec::new();
        let mut spans = Vec::new();
        let mut node_count = Vec::new();
        for (k, poly) in polygons.iter().enumerate() {
            node_count.push(poly.len());
            for &v in poly.vertices() {
                nodes.push((v, k as u32));
            }
            for e in poly.edges() {
                let bb = e.bbox();
                spans.push([q(bb.min.x), q(bb.max.x), q(bb.min.y), q(bb.max.y)]);
                edges.push(e);
            }
        }
        let tree = MergeSortTree::build(nodes);

        ShrinkContext {
            polygons,
            is_area,
            n_area,
            tree,
            edges,
            spans,
            cell,
            node_count,
            local_segment: Segment::new(Point::ORIGIN, Point::new(seg_len, 0.0)),
        }
    }

    /// The edge lattice's cell size.
    #[inline]
    pub(crate) fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Ids of the edges whose cell span meets `r`'s, ascending, into `out`
    /// (cleared first).
    ///
    /// This is the [`SpatialIndex`] contract's cell-quantized candidacy
    /// evaluated directly: an index's occupied-bounds clamp can only drop
    /// cells no edge occupies, so a `SegmentGrid` or `RTree` over `edges`
    /// on this lattice returns exactly these ids, in this order.
    pub fn edge_candidates(&self, r: &Rect, out: &mut Vec<u32>) {
        let q = |v: f64| cell_coord(self.cell, v);
        let (qx0, qx1, qy0, qy1) = (q(r.min.x), q(r.max.x), q(r.min.y), q(r.max.y));
        out.clear();
        for (id, s) in self.spans.iter().enumerate() {
            if s[0] <= qx1 && s[1] >= qx0 && s[2] <= qy1 && s[3] >= qy0 {
                out.push(id as u32);
            }
        }
    }

    /// Cell span `[x0, x1, y0, y1]` of edge `id` on the lattice.
    #[inline]
    pub(crate) fn edge_span(&self, id: usize) -> &[i64; 4] {
        &self.spans[id]
    }

    /// `d(seg, p)` of the paper: distance from the extended segment to `p`
    /// in pattern-side coordinates.
    #[inline]
    pub(crate) fn dist_seg(&self, p: Point) -> f64 {
        self.local_segment.distance_to_point(p)
    }

    /// `true` when the axis-aligned pattern rectangle (feet `x0..x1`,
    /// height `h`) lies inside a single routable-area polygon.
    pub(crate) fn pattern_in_area(&self, x0: f64, x1: f64, h: f64) -> bool {
        let areas = &self.polygons[..self.n_area];
        if areas.is_empty() {
            return true;
        }
        let corners = [
            Point::new(x0, 0.0),
            Point::new(x1, 0.0),
            Point::new(x0, h),
            Point::new(x1, h),
            Point::new((x0 + x1) / 2.0, h),
        ];
        areas
            .iter()
            .any(|poly| corners.iter().all(|&c| poly.contains(c)))
    }
}

/// The lattice cell a coordinate falls into: `⌊v / cell⌋`, the
/// quantization `meander_index`'s structures use.
#[inline]
pub(crate) fn cell_coord(cell: f64, v: f64) -> i64 {
    (v / cell).floor() as i64
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_geom::Vector;

    fn frame_for(a: Point, b: Point) -> (Frame, f64) {
        let seg = Segment::new(a, b);
        (Frame::from_segment(&seg).unwrap(), seg.length())
    }

    #[test]
    fn polygons_behind_segment_are_dropped() {
        let (frame, len) = frame_for(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let world = WorldContext {
            area: vec![],
            obstacles: vec![
                Polygon::rectangle(Point::new(10.0, 5.0), Point::new(20.0, 15.0)), // above
                Polygon::rectangle(Point::new(10.0, -15.0), Point::new(20.0, -5.0)), // below
            ],
            other_uras: vec![],
        };
        let up = ShrinkContext::build(&world, &frame, len, 1);
        assert_eq!(up.polygons.len(), 1);
        let down = ShrinkContext::build(&world, &frame, len, -1);
        assert_eq!(down.polygons.len(), 1);
        // The down context sees the below-obstacle at positive y.
        assert!(down.polygons[0].bbox().min.y > 0.0);
    }

    #[test]
    fn straddling_obstacle_is_clipped_not_dropped() {
        let (frame, len) = frame_for(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let world = WorldContext {
            area: vec![],
            obstacles: vec![Polygon::rectangle(
                Point::new(40.0, -5.0),
                Point::new(50.0, 5.0),
            )],
            other_uras: vec![],
        };
        let up = ShrinkContext::build(&world, &frame, len, 1);
        assert_eq!(up.polygons.len(), 1);
        let bb = up.polygons[0].bbox();
        assert!(bb.min.y >= 0.0);
        assert!((bb.max.y - 5.0).abs() < 1e-9);
    }

    #[test]
    fn any_angle_frame_context() {
        // 30° segment: an obstacle left of the line appears at +y for
        // dir=+1.
        let dir = Vector::new(3.0_f64.sqrt() / 2.0, 0.5);
        let a = Point::new(10.0, 10.0);
        let b = a + dir * 100.0;
        let (frame, len) = frame_for(a, b);
        let mid = a + dir * 50.0;
        let left_off = dir.perp() * 8.0;
        let obs_center = mid + left_off;
        let world = WorldContext {
            area: vec![],
            obstacles: vec![Polygon::regular(obs_center, 2.0, 8, 0.0)],
            other_uras: vec![],
        };
        let up = ShrinkContext::build(&world, &frame, len, 1);
        assert_eq!(up.polygons.len(), 1);
        let c = up.polygons[0].bbox().center();
        assert!((c.y - 8.0).abs() < 1e-6, "expected y≈8, got {}", c.y);
        assert!((c.x - 50.0).abs() < 1e-6);
        // Same obstacle invisible from the other side.
        let down = ShrinkContext::build(&world, &frame, len, -1);
        assert!(down.polygons.is_empty());
    }

    #[test]
    fn trace_uras_skip_current_segment() {
        let trace = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(50.0, 50.0),
        ]);
        let uras = WorldContext::trace_uras(&trace, 0, 8.0);
        assert_eq!(uras.len(), 1);
        // The vertical segment's URA: x ∈ [46, 54].
        let bb = uras[0].bbox();
        assert!((bb.min.x - 46.0).abs() < 1e-9);
        assert!((bb.max.x - 54.0).abs() < 1e-9);
        assert!((bb.min.y - 0.0).abs() < 1e-9);
    }

    #[test]
    fn shared_base_candidates_equal_monolithic() {
        // The same world split as (area+local) over a library base must
        // return identical candidate id lists for every window.
        let area = vec![Polygon::rectangle(
            Point::new(-10.0, -10.0),
            Point::new(200.0, 100.0),
        )];
        let library: Vec<Polygon> = (0..10)
            .map(|i| Polygon::regular(Point::new(15.0 + i as f64 * 18.0, 30.0), 3.0, 8, 0.0))
            .collect();
        let local = vec![
            Polygon::regular(Point::new(50.0, 70.0), 4.0, 6, 0.3),
            Polygon::rectangle(Point::new(-5.0, 90.0), Point::new(195.0, 95.0)),
        ];
        // Rules with zero obstacle inflation (`obstacle = gap/2`), so the
        // base's polygons pass through unchanged and both indexes see the
        // same geometry — this test isolates the id/candidate mapping; the
        // inflation equivalence is covered at engine level.
        let rules = meander_drc::DesignRules {
            obstacle: 4.0,
            ..Default::default()
        };
        assert_eq!(obstacle_inflation(&rules), 0.0);
        let mono: Vec<Polygon> = library.iter().chain(&local).cloned().collect();
        let cell = world_cell(&rules);
        let monolithic = WorldIndex::build(&area, &mono, cell, IndexKind::Grid, None);
        let base = Arc::new(WorldBase::build(&library, &rules, IndexKind::Grid));
        let shared = WorldIndex::build(&area, &local, cell, IndexKind::Grid, Some(base));
        assert_eq!(
            monolithic.polys.len() + monolithic.n_base,
            shared.polys.len() + shared.n_base
        );
        let mut scratch = GridScratch::new();
        let mut edge_buf = Vec::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for wi in 0..40 {
            let x0 = -20.0 + wi as f64 * 5.0;
            let window = Rect::new(Point::new(x0, 10.0), Point::new(x0 + 30.0, 80.0));
            monolithic.candidates(&window, &mut scratch, &mut edge_buf, &mut a);
            shared.candidates(&window, &mut scratch, &mut edge_buf, &mut b);
            assert_eq!(a, b, "window {wi} diverged");
            for &k in &a {
                assert_eq!(
                    monolithic.poly(k).vertices(),
                    shared.poly(k).vertices(),
                    "poly {k} diverged"
                );
            }
        }
    }

    #[test]
    fn area_containment_check() {
        let (frame, len) = frame_for(Point::new(0.0, 0.0), Point::new(100.0, 0.0));
        let world = WorldContext {
            area: vec![Polygon::rectangle(
                Point::new(-10.0, -20.0),
                Point::new(110.0, 20.0),
            )],
            obstacles: vec![],
            other_uras: vec![],
        };
        let ctx = ShrinkContext::build(&world, &frame, len, 1);
        assert!(ctx.pattern_in_area(10.0, 30.0, 15.0));
        assert!(!ctx.pattern_in_area(10.0, 30.0, 25.0)); // pokes out the top
    }
}
