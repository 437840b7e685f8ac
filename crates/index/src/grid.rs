//! Uniform grid over segments for local edge queries.

use crate::cell_coord;
use meander_geom::{Rect, SegBatch, Segment};

/// End of an id list, and the `head` of an empty cell-table slot.
const NIL: u32 = u32::MAX;

/// Cell-table length the first insertion allocates.
const MIN_SLOTS: usize = 16;

/// Home slot of cell `(cx, cy)` in a table of `len` slots (a power of
/// two): the top bits of a multiplicative mix of both coordinates, so runs
/// of neighbouring cells spread over the whole table.
#[inline]
fn home_slot(cx: i64, cy: i64, len: usize) -> usize {
    let h = (cx as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(32)
        ^ cy as u64;
    (h.wrapping_mul(0xD6E8_FEB8_6659_FD93) >> (64 - len.trailing_zeros())) as usize
}

/// A uniform hash-grid spatial index over segments.
///
/// The extension engine asks for the obstacle edges near a pop's candidate
/// window, and the DRC scan for the segments near each probe. Both windows
/// are local — at most a few `dgap` across late in a run — so a uniform
/// grid sized to them makes candidate retrieval effectively `O(output)`.
///
/// Segments are stored by id (the caller keeps the geometry); each segment
/// is registered in every cell its bounding box overlaps, and queries return
/// deduplicated candidate ids whose cells intersect the query rectangle.
///
/// ## Storage
///
/// The DRC scan builds one of these grids per check and the extension
/// engine one per trace, so building one must not allocate per cell. Every
/// occupied cell owns one slot of an open-addressed table (linear probing,
/// power-of-two length, at most half full) keyed by a fixed integer mix
/// of its cell coordinates; the slot holds the head of an intrusive id
/// list. All lists share one flat `(id, next)` arena, and an insertion
/// prepends one arena entry per covered cell. Nothing here depends on list
/// or probe order: queries deduplicate and sort. The mix is fixed, not
/// keyed, so coordinates crafted to share home slots can lengthen probes,
/// but never change a result.
///
/// ```
/// use meander_geom::{Point, Rect, Segment};
/// use meander_index::SegmentGrid;
///
/// let mut grid = SegmentGrid::new(5.0);
/// grid.insert(0, &Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 0.0)));
/// grid.insert(1, &Segment::new(Point::new(50.0, 50.0), Point::new(60.0, 50.0)));
/// let near = grid.query(&Rect::new(Point::new(-1.0, -1.0), Point::new(4.0, 4.0)));
/// assert_eq!(near, vec![0]);
/// ```
#[derive(Debug, Clone)]
pub struct SegmentGrid {
    cell: f64,
    /// Open-addressed cell table of `(cx, cy, head)` slots; `head` indexes
    /// `arena`, and `NIL` marks an empty slot. Empty until the first
    /// insertion.
    table: Vec<(i64, i64, u32)>,
    /// Occupied slots in `table`.
    cells: usize,
    /// Every cell's id list as `(id, next)` links; `next` is an arena
    /// index or `NIL`.
    arena: Vec<(u32, u32)>,
    len: usize,
    max_id: u32,
    /// Occupied cell-coordinate bounds `(cx0, cy0, cx1, cy1)`; queries are
    /// clamped to this range. Without the clamp a query rectangle much
    /// larger than the occupied region (the extension engine's candidate
    /// windows are `remaining/2` tall early in a run) walks every *empty*
    /// cell coordinate it covers — `O(window area / cell²)` table probes
    /// per query for nothing.
    occupied: Option<(i64, i64, i64, i64)>,
    /// Endpoint coordinates per id (`[ax, ay, bx, by]`), so
    /// [`SegmentGrid::fill_batch`] can fill SoA buffers straight from the
    /// slab without the caller's id → geometry re-gather.
    coords: Vec<[f64; 4]>,
}

/// Reusable query state for [`SegmentGrid::query_scratch`] and
/// [`crate::RTree::query_scratch`].
///
/// For the grid it holds the visited-stamp table: deduplicating candidates
/// with `sort + dedup` costs `O(k log k)` per query and the stamp approach
/// is `O(k)` — each id's slot stores the stamp of the last query that saw
/// it, and a slot equal to the current stamp means "already emitted". For
/// the R-tree it holds the traversal stack instead (the tree never yields
/// duplicates). One scratch serves many indexes of either kind; the marks
/// table grows to the largest id seen.
#[derive(Debug, Clone, Default)]
pub struct GridScratch {
    marks: Vec<u32>,
    stamp: u32,
    /// Node-descent stack for the R-tree arm.
    pub(crate) stack: Vec<u32>,
    /// Staging buffer for [`crate::OverlayIndex`]'s second query (the
    /// overlay side cannot write into the caller's output buffer directly —
    /// inner queries clear their target).
    pub(crate) overlay_buf: Vec<u32>,
}

impl GridScratch {
    /// Fresh scratch (marks grow on demand).
    pub fn new() -> Self {
        GridScratch::default()
    }

    fn begin(&mut self, max_id: u32) {
        let need = max_id as usize + 1;
        if self.marks.len() < need {
            self.marks.resize(need, 0);
        }
        // Stamp 0 marks "never seen"; skip it on wrap.
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.marks.fill(0);
            self.stamp = 1;
        }
    }

    #[inline]
    fn first_visit(&mut self, id: u32) -> bool {
        let slot = &mut self.marks[id as usize];
        if *slot == self.stamp {
            false
        } else {
            *slot = self.stamp;
            true
        }
    }
}

impl SegmentGrid {
    /// Creates a grid with the given cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn new(cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive"
        );
        SegmentGrid {
            cell: cell_size,
            table: Vec::new(),
            cells: 0,
            arena: Vec::new(),
            len: 0,
            max_id: 0,
            occupied: None,
            coords: Vec::new(),
        }
    }

    /// The grid's cell size.
    #[inline]
    pub(crate) fn cell_size(&self) -> f64 {
        self.cell
    }

    /// Number of inserted segments.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is inserted.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn cell_of(&self, x: f64, y: f64) -> (i64, i64) {
        (cell_coord(self.cell, x), cell_coord(self.cell, y))
    }

    /// Grows the occupied-cell bounds to cover `[cx0, cx1] × [cy0, cy1]`.
    #[inline]
    fn cover(&mut self, cx0: i64, cy0: i64, cx1: i64, cy1: i64) {
        self.occupied = Some(match self.occupied {
            None => (cx0, cy0, cx1, cy1),
            Some((ox0, oy0, ox1, oy1)) => (ox0.min(cx0), oy0.min(cy0), ox1.max(cx1), oy1.max(cy1)),
        });
    }

    /// The query cell range for `r`: its cell span clamped to the occupied
    /// bounds. Empty (`None`) when the grid has no entries or `r` lies
    /// entirely outside them.
    #[inline]
    fn clamped_range(&self, r: &Rect) -> Option<(i64, i64, i64, i64)> {
        let (ox0, oy0, ox1, oy1) = self.occupied?;
        let (cx0, cy0) = self.cell_of(r.min.x, r.min.y);
        let (cx1, cy1) = self.cell_of(r.max.x, r.max.y);
        let (cx0, cy0) = (cx0.max(ox0), cy0.max(oy0));
        let (cx1, cy1) = (cx1.min(ox1), cy1.min(oy1));
        if cx0 > cx1 || cy0 > cy1 {
            return None;
        }
        Some((cx0, cy0, cx1, cy1))
    }

    /// Stores the coordinate slab entry for `id` (grown on demand).
    #[inline]
    fn store_coords(&mut self, id: u32, entry: [f64; 4]) {
        let need = id as usize + 1;
        if self.coords.len() < need {
            self.coords.resize(need, [0.0; 4]);
        }
        self.coords[id as usize] = entry;
    }

    /// Registers `seg` under `id` in every cell its bbox overlaps.
    pub fn insert(&mut self, id: u32, seg: &Segment) {
        let bb = seg.bbox();
        let (cx0, cy0) = self.cell_of(bb.min.x, bb.min.y);
        let (cx1, cy1) = self.cell_of(bb.max.x, bb.max.y);
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                self.push_id(cx, cy, id);
            }
        }
        self.cover(cx0, cy0, cx1, cy1);
        self.store_coords(id, [seg.a.x, seg.a.y, seg.b.x, seg.b.y]);
        self.len += 1;
        self.max_id = self.max_id.max(id);
    }

    /// Prepends `id` to cell `(cx, cy)`'s list, claiming the cell's table
    /// slot on first use.
    #[inline]
    fn push_id(&mut self, cx: i64, cy: i64, id: u32) {
        if 2 * (self.cells + 1) > self.table.len() {
            self.grow();
        }
        assert!(
            self.arena.len() < NIL as usize,
            "grid arena exceeds u32 links"
        );
        let link = self.arena.len() as u32;
        let i = self.slot(cx, cy);
        let slot = &mut self.table[i];
        if slot.2 == NIL {
            *slot = (cx, cy, NIL);
            self.cells += 1;
        }
        self.arena.push((id, slot.2));
        slot.2 = link;
    }

    /// Doubles the cell table (allocating it on first use) and re-seats
    /// every occupied slot.
    fn grow(&mut self) {
        let len = (2 * self.table.len()).max(MIN_SLOTS);
        let old = std::mem::replace(&mut self.table, vec![(0, 0, NIL); len]);
        for (cx, cy, head) in old {
            if head != NIL {
                let i = self.slot(cx, cy);
                self.table[i] = (cx, cy, head);
            }
        }
    }

    /// The table slot holding cell `(cx, cy)`, or the empty slot where it
    /// would go. The table must be allocated.
    #[inline]
    fn slot(&self, cx: i64, cy: i64) -> usize {
        let mask = self.table.len() - 1;
        let mut i = home_slot(cx, cy, self.table.len());
        loop {
            let (x, y, head) = self.table[i];
            if head == NIL || (x == cx && y == cy) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    /// Calls `f` on every list entry of every cell in the clamped range
    /// `(cx0, cy0, cx1, cy1)`; an id appears once per covered cell.
    #[inline]
    fn for_each_entry(&self, (cx0, cy0, cx1, cy1): (i64, i64, i64, i64), mut f: impl FnMut(u32)) {
        for cx in cx0..=cx1 {
            for cy in cy0..=cy1 {
                let mut link = self.table[self.slot(cx, cy)].2;
                while link != NIL {
                    let (id, next) = self.arena[link as usize];
                    f(id);
                    link = next;
                }
            }
        }
    }

    /// Largest id ever inserted (0 when empty).
    #[inline]
    pub(crate) fn max_id(&self) -> u32 {
        self.max_id
    }

    /// Builds a grid from an id-ordered segment list.
    pub fn from_segments(cell_size: f64, segments: &[Segment]) -> Self {
        let mut g = SegmentGrid::new(cell_size);
        for (i, s) in segments.iter().enumerate() {
            g.insert(i as u32, s);
        }
        g
    }

    /// Returns the sorted, deduplicated ids of segments whose cells overlap
    /// `r`. A superset of the truly-intersecting set — callers run the exact
    /// predicate on the candidates.
    pub fn query(&self, r: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_scratch(r, &mut GridScratch::new(), &mut out);
        out
    }

    /// [`SegmentGrid::query`] into a caller-owned buffer (cleared first),
    /// deduplicated with the visited stamps of a caller-owned
    /// [`GridScratch`], so hot loops reuse both allocations. Candidates
    /// come out in ascending id order.
    pub fn query_scratch(&self, r: &Rect, scratch: &mut GridScratch, out: &mut Vec<u32>) {
        out.clear();
        let Some(range) = self.clamped_range(r) else {
            return;
        };
        scratch.begin(self.max_id);
        self.for_each_entry(range, |id| {
            if scratch.first_visit(id) {
                out.push(id);
            }
        });
        // Cell walks emit ids in no particular order; the contract is
        // ascending ids.
        out.sort_unstable();
    }

    /// Materializes the geometry of `ids` (previously returned by a query)
    /// into `batch` (cleared first), straight from the coordinate slab:
    /// `batch.get(k)` is the segment inserted under `ids[k]`. Callers may
    /// filter candidates between the query and the gather, so no lane is
    /// spent on ids a cheap ownership test already rejects.
    pub fn fill_batch(&self, ids: &[u32], batch: &mut SegBatch) {
        batch.clear();
        for &id in ids {
            let c = self.coords[id as usize];
            batch.push_coords(c[0], c[1], c[2], c[3]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_geom::Point;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    #[test]
    fn near_and_far() {
        let mut g = SegmentGrid::new(2.0);
        g.insert(0, &seg(0.0, 0.0, 1.0, 1.0));
        g.insert(1, &seg(10.0, 10.0, 12.0, 10.0));
        assert_eq!(g.len(), 2);
        let r = Rect::new(Point::new(-0.5, -0.5), Point::new(1.5, 1.5));
        assert_eq!(g.query(&r), vec![0]);
        let r_all = Rect::new(Point::new(-1.0, -1.0), Point::new(13.0, 13.0));
        assert_eq!(g.query(&r_all), vec![0, 1]);
    }

    #[test]
    fn long_segment_spans_many_cells() {
        let mut g = SegmentGrid::new(1.0);
        g.insert(7, &seg(0.0, 0.5, 25.0, 0.5));
        // Query in the middle of the span still finds it.
        let r = Rect::new(Point::new(12.0, 0.0), Point::new(13.0, 1.0));
        assert_eq!(g.query(&r), vec![7]);
    }

    #[test]
    fn negative_coordinates() {
        let mut g = SegmentGrid::new(3.0);
        g.insert(3, &seg(-10.0, -10.0, -8.0, -9.0));
        let r = Rect::new(Point::new(-11.0, -11.0), Point::new(-7.0, -8.0));
        assert_eq!(g.query(&r), vec![3]);
        let far = Rect::new(Point::new(5.0, 5.0), Point::new(6.0, 6.0));
        assert!(g.query(&far).is_empty());
    }

    #[test]
    fn query_is_superset_of_exact_hits() {
        let segs: Vec<Segment> = (0..40)
            .map(|i| {
                let x = (i % 8) as f64 * 3.0;
                let y = (i / 8) as f64 * 3.0;
                seg(x, y, x + 2.0, y + 1.0)
            })
            .collect();
        let g = SegmentGrid::from_segments(2.5, &segs);
        let r = Rect::new(Point::new(4.0, 2.0), Point::new(10.0, 8.0));
        let candidates = g.query(&r);
        for (i, s) in segs.iter().enumerate() {
            if r.intersects(&s.bbox()) {
                assert!(
                    candidates.contains(&(i as u32)),
                    "segment {i} bbox-intersects query but was not a candidate"
                );
            }
        }
    }

    #[test]
    fn dedup_ids() {
        let mut g = SegmentGrid::new(0.5);
        // Crosses many cells; id must be reported once.
        g.insert(1, &seg(0.0, 0.0, 10.0, 10.0));
        let r = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        assert_eq!(g.query(&r), vec![1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_panics() {
        let _ = SegmentGrid::new(0.0);
    }

    #[test]
    fn query_scratch_matches_query() {
        let segs: Vec<Segment> = (0..60)
            .map(|i| {
                let x = (i % 8) as f64 * 2.0;
                let y = (i / 8) as f64 * 2.0;
                seg(x, y, x + 3.0, y + 2.0)
            })
            .collect();
        let g = SegmentGrid::from_segments(1.5, &segs);
        let mut scratch = GridScratch::new();
        let mut got = Vec::new();
        for qi in 0..20 {
            let q0 = Point::new(qi as f64 * 0.7 - 2.0, qi as f64 * 0.5 - 1.0);
            let r = Rect::new(q0, Point::new(q0.x + 5.0, q0.y + 4.0));
            g.query_scratch(&r, &mut scratch, &mut got);
            assert_eq!(got, g.query(&r), "query {qi} diverged");
        }
    }

    #[test]
    fn huge_query_windows_clamp_to_occupied_cells() {
        // A window thousands of cells tall must still answer from the few
        // occupied cells (and an empty grid answers immediately).
        let empty = SegmentGrid::new(1.0);
        let vast = Rect::new(Point::new(-1e6, -1e6), Point::new(1e6, 1e6));
        assert!(empty.query(&vast).is_empty());

        let mut g = SegmentGrid::new(1.0);
        g.insert(0, &seg(0.0, 0.0, 2.0, 0.0));
        g.insert(1, &seg(5.0, 3.0, 6.0, 3.0));
        assert_eq!(g.query(&vast), vec![0, 1]);
        let mut scratch = GridScratch::new();
        let mut out = Vec::new();
        g.query_scratch(&vast, &mut scratch, &mut out);
        assert_eq!(out, vec![0, 1]);
        // Disjoint-from-occupied window: empty without cell walking.
        let far = Rect::new(Point::new(1e5, 1e5), Point::new(2e5, 2e5));
        assert!(g.query(&far).is_empty());
    }

    #[test]
    fn fill_batch_materializes_candidates_in_id_order() {
        let segs: Vec<Segment> = (0..30)
            .map(|i| {
                let x = (i % 6) as f64 * 4.0;
                let y = (i / 6) as f64 * 4.0;
                seg(x, y, x + 3.0, y + 1.5)
            })
            .collect();
        let g = SegmentGrid::from_segments(2.0, &segs);
        assert_eq!(g.cell_size(), 2.0);
        assert_eq!(cell_coord(g.cell_size(), -0.1), -1);
        assert_eq!(cell_coord(g.cell_size(), 3.9), 1);
        let mut scratch = GridScratch::new();
        let mut ids = Vec::new();
        let mut batch = SegBatch::new();
        let r = Rect::new(Point::new(1.0, 1.0), Point::new(9.0, 9.0));
        g.query_scratch(&r, &mut scratch, &mut ids);
        g.fill_batch(&ids, &mut batch);
        assert_eq!(ids, g.query(&r));
        assert_eq!(batch.len(), ids.len());
        for (k, &id) in ids.iter().enumerate() {
            assert_eq!(batch.get(k), segs[id as usize], "candidate {k}");
        }
    }
}
