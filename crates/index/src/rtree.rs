//! STR-packed (Sort-Tile-Recursive) R-tree over segments.
//!
//! The routing flow's world indexes are **build-once, query-many**: built
//! once per board or trace, queried per queue pop. That workload wants a *packed*, bulk-
//! loaded R-tree — no insertion logic, no node splitting, 100 % node fill —
//! which is exactly what Sort-Tile-Recursive packing produces: sort the
//! entries into √P vertical slices by x, sort each slice by y, cut leaves
//! of `NODE_CAP` (8) entries, then repeat one level up on the leaf rectangles
//! until a single root remains.
//!
//! ## Why candidate sets match the grid exactly
//!
//! The tree does **not** test float bounding boxes. Every entry rectangle
//! is quantized to the same integer cell lattice [`SegmentGrid`](crate::SegmentGrid) uses
//! ([`cell_coord`] per axis) at build time, node rectangles are unions of
//! quantized child rectangles, and a query quantizes its window the same
//! way and clamps it to the occupied cell bounds before descending. An id
//! is reported exactly when its quantized rectangle intersects the clamped
//! quantized window — precisely the grid's membership rule — so for any
//! query the two structures return the **same id set** (property-tested in
//! `tests/props.rs` across 256 randomized boards). The engine's world
//! indexes therefore produce bit-identical placements whichever index is
//! selected; swapping is purely a performance decision.
//!
//! What changes is the cost model. The grid registers an entry in every
//! cell its rectangle overlaps: a full-width plane edge smeared across a
//! thousand cells costs a thousand slots on insert and surfaces as a
//! duplicate candidate in every query crossing its row. Here it is one
//! entry under one leaf, found by descending `O(log n)` nodes.
//!
//! ```
//! use meander_geom::{Point, Rect, Segment};
//! use meander_index::RTree;
//!
//! let segs = vec![
//!     Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 0.0)),
//!     Segment::new(Point::new(0.0, 0.0), Point::new(1000.0, 2.0)), // plane-sized
//!     Segment::new(Point::new(50.0, 50.0), Point::new(60.0, 50.0)),
//! ];
//! let tree = RTree::from_segments(5.0, &segs);
//! let near = tree.query(&Rect::new(Point::new(-1.0, -1.0), Point::new(4.0, 4.0)));
//! assert_eq!(near, vec![0, 1]);
//! ```

use crate::cell_coord;
use crate::grid::GridScratch;
use meander_geom::{Rect, Segment};

/// Maximum entries per leaf and children per internal node. Eight keeps a
/// node's rectangle array within two cache lines and the tree shallow
/// (a 10k-edge board is four levels).
const NODE_CAP: usize = 8;

/// Quantized cell rectangle `(cx0, cy0, cx1, cy1)`, inclusive on both ends.
type CellRect = [i64; 4];

#[inline]
fn cells_intersect(a: &CellRect, b: &CellRect) -> bool {
    a[0] <= b[2] && b[0] <= a[2] && a[1] <= b[3] && b[1] <= a[3]
}

#[inline]
fn cells_contains(outer: &CellRect, inner: &CellRect) -> bool {
    outer[0] <= inner[0] && outer[1] <= inner[1] && inner[2] <= outer[2] && inner[3] <= outer[3]
}

#[inline]
fn cells_union(a: &CellRect, b: &CellRect) -> CellRect {
    [
        a[0].min(b[0]),
        a[1].min(b[1]),
        a[2].max(b[2]),
        a[3].max(b[3]),
    ]
}

/// One packed node. Children (for internal nodes) and entries (for leaves)
/// are contiguous ranges, a property of STR packing that keeps the node a
/// plain `(rect, range)` record.
#[derive(Debug, Clone)]
struct Node {
    /// Union of the child/entry cell rectangles.
    rect: CellRect,
    /// First child node index, or first entry index for a leaf.
    first: u32,
    /// Child/entry count.
    count: u32,
    /// Leaf marker.
    leaf: bool,
}

/// A bulk-loaded, STR-packed R-tree over segments, quantized to the same
/// cell lattice as [`SegmentGrid`](crate::SegmentGrid) (see the [module docs](self) for the
/// exact-candidate-set contract).
#[derive(Debug, Clone)]
pub struct RTree {
    cell: f64,
    len: usize,
    max_id: u32,
    /// Occupied cell bounds, as in the grid; queries clamp to this.
    occupied: Option<CellRect>,
    /// Entry ids in leaf-packed order.
    entry_ids: Vec<u32>,
    /// Quantized entry rectangles, parallel to `entry_ids`.
    entry_rects: Vec<CellRect>,
    /// All nodes; the root is the **last** node (levels are appended
    /// bottom-up).
    nodes: Vec<Node>,
}

impl RTree {
    /// Bulk-loads a tree from an id-ordered segment list (item `i` gets
    /// id `i`) on a lattice of the given cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite.
    pub fn from_segments(cell_size: f64, segments: &[Segment]) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive"
        );
        let mut tree = RTree {
            cell: cell_size,
            len: segments.len(),
            max_id: segments.len().saturating_sub(1) as u32,
            occupied: None,
            entry_ids: Vec::with_capacity(segments.len()),
            entry_rects: Vec::with_capacity(segments.len()),
            nodes: Vec::new(),
        };
        // Quantize every entry once; ids are positional.
        let mut entries: Vec<(u32, CellRect)> = Vec::with_capacity(segments.len());
        for (i, s) in segments.iter().enumerate() {
            let bb = s.bbox();
            let r = [
                cell_coord(cell_size, bb.min.x),
                cell_coord(cell_size, bb.min.y),
                cell_coord(cell_size, bb.max.x),
                cell_coord(cell_size, bb.max.y),
            ];
            tree.occupied = Some(match tree.occupied {
                None => r,
                Some(o) => cells_union(&o, &r),
            });
            entries.push((i as u32, r));
        }
        tree.pack(entries);
        tree
    }

    /// STR packing: slice by x-center, tile by y-center, then build upper
    /// levels the same way on node rectangles until one root remains.
    fn pack(&mut self, mut entries: Vec<(u32, CellRect)>) {
        if entries.is_empty() {
            return;
        }
        // Integer centers (doubled to avoid halving) keep the sort exact
        // and deterministic; ties break by id so rebuilds are stable.
        let cx = |r: &CellRect| r[0] + r[2];
        let cy = |r: &CellRect| r[1] + r[3];
        str_tile(&mut entries, |(id, r)| (cx(r), cy(r), *id), NODE_CAP);
        for (id, r) in entries {
            self.entry_ids.push(id);
            self.entry_rects.push(r);
        }

        // Leaf level.
        let mut level_start = self.nodes.len();
        for chunk_start in (0..self.entry_ids.len()).step_by(NODE_CAP) {
            let chunk_end = (chunk_start + NODE_CAP).min(self.entry_ids.len());
            let mut rect = self.entry_rects[chunk_start];
            for r in &self.entry_rects[chunk_start + 1..chunk_end] {
                rect = cells_union(&rect, r);
            }
            self.nodes.push(Node {
                rect,
                first: chunk_start as u32,
                count: (chunk_end - chunk_start) as u32,
                leaf: true,
            });
        }

        // Upper levels until a single root.
        while self.nodes.len() - level_start > 1 {
            let mut refs: Vec<(u32, CellRect)> = (level_start..self.nodes.len())
                .map(|i| (i as u32, self.nodes[i].rect))
                .collect();
            str_tile(&mut refs, |(i, r)| (r[0] + r[2], r[1] + r[3], *i), NODE_CAP);
            let next_start = self.nodes.len();
            for chunk in refs.chunks(NODE_CAP) {
                let mut rect = chunk[0].1;
                for (_, r) in &chunk[1..] {
                    rect = cells_union(&rect, r);
                }
                // Children must be contiguous for the `(first, count)`
                // node layout: re-order the just-built level in place is
                // not possible (indices are referenced), so child order is
                // recorded by copying the nodes into tile order below.
                self.nodes.push(Node {
                    rect,
                    first: 0, // fixed up after the level is reordered
                    count: chunk.len() as u32,
                    leaf: false,
                });
            }
            // Reorder the child level into tile order so each parent's
            // children are contiguous, then point parents at their ranges.
            let child_count = next_start - level_start;
            let mut reordered: Vec<Node> = Vec::with_capacity(child_count);
            for &(i, _) in &refs {
                reordered.push(self.nodes[i as usize].clone());
            }
            self.nodes[level_start..next_start].clone_from_slice(&reordered);
            let mut cursor = level_start as u32;
            for parent in &mut self.nodes[next_start..] {
                parent.first = cursor;
                cursor += parent.count;
            }
            level_start = next_start;
        }
    }

    /// The lattice cell size.
    #[inline]
    pub(crate) fn cell_size(&self) -> f64 {
        self.cell
    }

    /// `true` when nothing is indexed.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Largest id indexed (0 when empty).
    #[inline]
    pub(crate) fn max_id(&self) -> u32 {
        self.max_id
    }

    /// The query window for `r`: its cell span clamped to the occupied
    /// bounds (`None` when empty or disjoint) — the same clamp the grid
    /// applies, which is part of the exact-candidate-set contract.
    #[inline]
    fn clamped_window(&self, r: &Rect) -> Option<CellRect> {
        let o = self.occupied?;
        let q = [
            cell_coord(self.cell, r.min.x).max(o[0]),
            cell_coord(self.cell, r.min.y).max(o[1]),
            cell_coord(self.cell, r.max.x).min(o[2]),
            cell_coord(self.cell, r.max.y).min(o[3]),
        ];
        if q[0] > q[2] || q[1] > q[3] {
            return None;
        }
        Some(q)
    }

    /// [`RTree::query`] into a caller-owned buffer (cleared first), with
    /// caller-owned scratch: the traversal stack lives there, so hot loops
    /// stay allocation-free.
    pub fn query_scratch(&self, r: &Rect, scratch: &mut GridScratch, out: &mut Vec<u32>) {
        out.clear();
        let Some(q) = self.clamped_window(r) else {
            return;
        };
        let root = self.nodes.len() - 1; // root is last (levels appended bottom-up)
        if !cells_intersect(&self.nodes[root].rect, &q) {
            return;
        }
        let stack = &mut scratch.stack;
        stack.clear();
        stack.push(root as u32);
        // Invariant: every stacked node intersects `q` (tested before the
        // push), so a pop goes straight to its children/entries.
        while let Some(ni) = stack.pop() {
            let n = &self.nodes[ni as usize];
            let (first, count) = (n.first as usize, n.count as usize);
            if n.leaf {
                if cells_contains(&q, &n.rect) {
                    // Window swallows the leaf whole (common for the huge
                    // clearance windows of plane-sized obstacles): every
                    // entry matches, no per-entry tests.
                    out.extend_from_slice(&self.entry_ids[first..first + count]);
                } else {
                    for k in first..first + count {
                        if cells_intersect(&self.entry_rects[k], &q) {
                            out.push(self.entry_ids[k]);
                        }
                    }
                }
            } else {
                for c in first..first + count {
                    if cells_intersect(&self.nodes[c].rect, &q) {
                        stack.push(c as u32);
                    }
                }
            }
        }
        // Leaf packing is spatial, not id order; the contract is ascending
        // ids (ties in downstream strict-min reductions resolve by id).
        out.sort_unstable();
    }

    /// Ids whose quantized rectangle intersects `r`'s clamped cell window,
    /// ascending — the exact set [`SegmentGrid::query`](crate::SegmentGrid::query) returns for the
    /// same items and cell size.
    pub fn query(&self, r: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_scratch(r, &mut GridScratch::new(), &mut out);
        out
    }
}

/// Sort-Tile-Recursive ordering in place: sort by the x key, cut into
/// vertical slices of `slice_len = ceil(sqrt(n / cap)) * cap` items, sort
/// each slice by the y key. After this, consecutive `cap`-sized chunks are
/// the packed nodes.
fn str_tile<T, K>(items: &mut [T], key: K, cap: usize)
where
    K: Fn(&T) -> (i64, i64, u32),
{
    let n = items.len();
    if n <= cap {
        items.sort_unstable_by_key(|t| {
            let (_, y, id) = key(t);
            (y, id)
        });
        return;
    }
    items.sort_unstable_by_key(|t| {
        let (x, _, id) = key(t);
        (x, id)
    });
    let n_nodes = n.div_ceil(cap);
    let n_slices = ((n_nodes as f64).sqrt().ceil() as usize).max(1);
    let slice_len = n_nodes.div_ceil(n_slices) * cap;
    for slice in items.chunks_mut(slice_len.max(cap)) {
        slice.sort_unstable_by_key(|t| {
            let (_, y, id) = key(t);
            (y, id)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SegmentGrid;
    use meander_geom::Point;

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    /// Deterministic pseudo-random stream (this crate has no rand dep
    /// outside dev).
    struct Lcg(u64);
    impl Lcg {
        fn next_f64(&mut self, lo: f64, hi: f64) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (self.0 >> 11) as f64 / (1u64 << 53) as f64;
            lo + u * (hi - lo)
        }
    }

    #[test]
    fn empty_tree_answers_empty() {
        let t = RTree::from_segments(1.0, &[]);
        assert_eq!(t.len, 0);
        let vast = Rect::new(Point::new(-1e9, -1e9), Point::new(1e9, 1e9));
        assert!(t.query(&vast).is_empty());
        let mut scratch = GridScratch::new();
        let mut out = vec![7u32];
        t.query_scratch(&vast, &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn single_board_spanning_obstacle() {
        // One segment covering the whole board: every window hits it, and
        // windows outside the occupied bounds answer empty immediately.
        let t = RTree::from_segments(2.0, &[seg(-500.0, -500.0, 500.0, 500.0)]);
        assert_eq!(t.len, 1);
        for q in [
            Rect::new(Point::new(-1.0, -1.0), Point::new(1.0, 1.0)),
            Rect::new(Point::new(-500.0, -500.0), Point::new(500.0, 500.0)),
            Rect::new(Point::new(499.0, -499.0), Point::new(499.5, -498.0)),
        ] {
            assert_eq!(t.query(&q), vec![0], "window {q:?}");
        }
        let far = Rect::new(Point::new(2000.0, 2000.0), Point::new(2001.0, 2001.0));
        assert!(t.query(&far).is_empty());
    }

    #[test]
    fn all_degenerate_rects() {
        // Zero-length segments (zero-area rectangles): each occupies one
        // lattice cell and must still be found exactly.
        let segs: Vec<Segment> = (0..40)
            .map(|i| {
                let x = (i % 8) as f64 * 3.0;
                let y = (i / 8) as f64 * 3.0;
                seg(x, y, x, y)
            })
            .collect();
        let t = RTree::from_segments(2.0, &segs);
        let g = SegmentGrid::from_segments(2.0, &segs);
        assert_eq!(t.len, 40);
        for qi in 0..20 {
            let q0 = Point::new(qi as f64 * 1.3 - 2.0, qi as f64 * 0.9 - 1.0);
            let q = Rect::new(q0, Point::new(q0.x + 4.0, q0.y + 5.0));
            assert_eq!(t.query(&q), g.query(&q), "window {qi}");
        }
        let all = Rect::new(Point::new(-10.0, -10.0), Point::new(30.0, 30.0));
        assert_eq!(t.query(&all), (0..40u32).collect::<Vec<_>>());
    }

    #[test]
    fn matches_grid_on_mixed_extents() {
        // The plane-plus-vias regime the tree exists for: candidate sets
        // must equal the grid's on every window, including windows crossing
        // the plane edge's smear row.
        let mut rng = Lcg(42);
        let mut segs = vec![
            seg(-200.0, 10.0, 1800.0, 10.5), // full-width plane edge
            seg(-200.0, 140.0, 1800.0, 139.0),
        ];
        for _ in 0..300 {
            let x = rng.next_f64(-150.0, 1750.0);
            let y = rng.next_f64(15.0, 135.0);
            segs.push(seg(
                x,
                y,
                x + rng.next_f64(0.1, 6.0),
                y + rng.next_f64(-3.0, 3.0),
            ));
        }
        let cell = 7.0;
        let t = RTree::from_segments(cell, &segs);
        let g = SegmentGrid::from_segments(cell, &segs);
        let mut scratch = GridScratch::new();
        let mut got = Vec::new();
        for k in 0..120 {
            let x = rng.next_f64(-300.0, 1900.0);
            let y = rng.next_f64(-50.0, 200.0);
            let q = Rect::new(
                Point::new(x, y),
                Point::new(x + rng.next_f64(0.0, 400.0), y + rng.next_f64(0.0, 80.0)),
            );
            let expect = g.query(&q);
            assert_eq!(t.query(&q), expect, "window {k}");
            t.query_scratch(&q, &mut scratch, &mut got);
            assert_eq!(got, expect, "scratch window {k}");
        }
    }

    #[test]
    fn query_scratch_matches_grid_in_id_order() {
        let segs: Vec<Segment> = (0..30)
            .map(|i| {
                let x = (i % 6) as f64 * 4.0;
                let y = (i / 6) as f64 * 4.0;
                seg(x, y, x + 3.0, y + 1.5)
            })
            .collect();
        let t = RTree::from_segments(2.0, &segs);
        assert_eq!(t.cell_size(), 2.0);
        assert_eq!(cell_coord(t.cell_size(), -0.1), -1);
        assert_eq!(cell_coord(t.cell_size(), 3.9), 1);
        let mut scratch = GridScratch::new();
        let mut ids = Vec::new();
        let r = Rect::new(Point::new(1.0, 1.0), Point::new(9.0, 9.0));
        t.query_scratch(&r, &mut scratch, &mut ids);
        assert_eq!(ids, SegmentGrid::from_segments(2.0, &segs).query(&r));
    }

    #[test]
    fn deep_tree_is_well_formed() {
        // Enough entries for three levels; every entry reachable.
        let segs: Vec<Segment> = (0..700)
            .map(|i| {
                let x = (i % 30) as f64 * 5.0;
                let y = (i / 30) as f64 * 5.0;
                seg(x, y, x + 2.0, y + 2.0)
            })
            .collect();
        let t = RTree::from_segments(3.0, &segs);
        let all = Rect::new(Point::new(-10.0, -10.0), Point::new(200.0, 200.0));
        assert_eq!(t.query(&all), (0..700u32).collect::<Vec<_>>());
        assert!(t.nodes.len() > 700 / NODE_CAP, "multiple levels expected");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_size_panics() {
        let _ = RTree::from_segments(0.0, &[]);
    }
}
