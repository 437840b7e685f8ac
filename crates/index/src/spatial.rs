//! The [`SpatialIndex`] trait, the [`IndexKind`] selection knob, and the
//! [`SegIndex`] dispatch enum every consumer stores.
//!
//! ## The `SpatialIndex` contract
//!
//! An implementation indexes a set of segments by **id** on a uniform
//! cell lattice of size [`SpatialIndex::cell_size`] and answers
//! conservative rectangle queries. The contract every consumer
//! (world index, DRC scan, shrink stage 1) relies on:
//!
//! * **Cell-quantized candidacy.** An id is a candidate for query rectangle
//!   `r` exactly when its bounding box's cell range intersects `r`'s cell
//!   range — the quantization being `⌊v / cell⌋` per axis
//!   ([`SpatialIndex::cell_coord`]). This makes candidate *sets* a property
//!   of the lattice, not of the structure: [`SegmentGrid`] and [`RTree`]
//!   built over the same items with the same cell size return **identical**
//!   id sets for every query, which is what keeps violation lists,
//!   witnesses, and placements bit-identical when the index is swapped
//!   (property-tested in `tests/props.rs`).
//! * **Occupied-bounds clamping.** Queries are clamped to the bounding cell
//!   range of everything inserted; a window vastly larger than the occupied
//!   region (the extension engine's `remaining/2`-tall candidate windows)
//!   costs output, not window area, and a disjoint window answers empty
//!   immediately.
//! * **Sorted, deduplicated output.** Candidates come out in ascending id
//!   order with no repeats, so strict-minimum reductions over them visit
//!   ties in the same order on every implementation.
//! * **Batch gather semantics.** [`SpatialIndex::query_batch`] additionally
//!   materializes the candidates' geometry into a reused SoA
//!   [`SegBatch`] straight from an internal coordinate slab —
//!   `batch.get(k)` is the item inserted under `ids[k]` — so lane kernels
//!   never re-gather geometry through the ids.
//!
//! Scratch state ([`GridScratch`]) carries the visited-stamp table the grid
//! deduplicates with *and* the traversal stack the R-tree descends with;
//! one scratch serves any number of indexes of either kind.
//!
//! ```
//! use meander_geom::{Point, Rect, Segment};
//! use meander_index::{IndexKind, SegIndex, SpatialIndex};
//!
//! let segs = vec![
//!     Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 1.0)),
//!     Segment::new(Point::new(40.0, 40.0), Point::new(44.0, 40.0)),
//! ];
//! let grid = SegIndex::from_segments(IndexKind::Grid, 2.0, &segs);
//! let rtree = SegIndex::from_segments(IndexKind::RTree, 2.0, &segs);
//! let near = Rect::new(Point::new(-1.0, -1.0), Point::new(4.0, 2.0));
//! assert_eq!(grid.query(&near), vec![0]);
//! // Same lattice ⇒ same candidate sets, whatever the structure.
//! assert_eq!(grid.query(&near), rtree.query(&near));
//! ```

use crate::grid::{GridScratch, SegmentGrid};
use crate::rtree::RTree;
use meander_geom::{Rect, SegBatch, Segment};

/// Which spatial index structure a consumer should build.
///
/// The two structures answer queries with **identical candidate sets**
/// (see the [module docs](self)); the choice is purely a performance
/// trade:
///
/// * [`IndexKind::Grid`] — the uniform hash grid: an open-addressed cell
///   table over one flat id arena, so building it allocates nothing per
///   cell. Inserting an item registers it in every cell its bbox
///   overlaps, so one huge item (a plane polygon's full-width edge) costs
///   `O(extent / cell)` arena links and turns up repeatedly in every query
///   that crosses its row. Best when item sizes are uniform and a cell
///   holds a handful of items.
/// * [`IndexKind::RTree`] — the STR-packed R-tree. Every item is stored
///   once regardless of extent, so mixed boards (plane slabs next to dense
///   vias — the `stress:mixed` regime) stop paying the smear cost; queries
///   descend a height-balanced tree instead of walking cells.
/// * [`IndexKind::Auto`] — measure the items and pick (see
///   [`IndexKind::resolve`] for the exact heuristic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// Uniform hash grid ([`SegmentGrid`]): open-addressed cells over a
    /// flat id arena.
    #[default]
    Grid,
    /// STR-packed R-tree ([`RTree`]).
    RTree,
    /// Decide per build from the item-extent distribution.
    Auto,
}

/// An item this many cells across (per axis) is considered *smeared*: the
/// grid would register it in at least this many cells along one axis.
const AUTO_SMEAR_CELLS: f64 = 8.0;

/// Extent-mix threshold: the largest item must exceed this multiple of the
/// mean extent before `Auto` leaves the grid.
const AUTO_SPREAD: f64 = 4.0;

impl IndexKind {
    /// Resolves `Auto` against the items about to be indexed, returning
    /// `Grid` or `RTree` (explicit kinds pass through unchanged).
    ///
    /// ## Selection heuristic
    ///
    /// `Auto` picks the R-tree exactly when **both** hold over the items'
    /// bounding-box extents (`max(width, height)` per item):
    ///
    /// 1. the largest extent spans more than `AUTO_SMEAR_CELLS` (8) cells —
    ///    i.e. the grid would smear at least one item across that many
    ///    cells per axis, paying the per-cell registration on insert and a
    ///    duplicate candidate in every query crossing its row; and
    /// 2. the largest extent exceeds `AUTO_SPREAD` (4) × the mean extent —
    ///    the sizes are genuinely *mixed*. A uniformly coarse item set
    ///    (every extent large) is better served by the grid with its cell
    ///    size as chosen by the caller: the smear is then the common case
    ///    the cell size should simply absorb, not an outlier.
    ///
    /// This is the "obstacle-size variance" test motivated by the
    /// plane-plus-via boards: one full-width plane edge among thousands of
    /// short via edges trips both conditions, while paper-sized boards and
    /// the per-pop shrink contexts (edges a few `d_gap` long) keep the
    /// cheap-to-build grid.
    pub fn resolve(self, cell: f64, extents: impl Iterator<Item = f64>) -> IndexKind {
        match self {
            IndexKind::Grid | IndexKind::RTree => self,
            IndexKind::Auto => {
                let (mut n, mut sum, mut max) = (0u64, 0.0f64, 0.0f64);
                for e in extents {
                    n += 1;
                    sum += e;
                    max = max.max(e);
                }
                if n == 0 {
                    return IndexKind::Grid;
                }
                let mean = sum / n as f64;
                if max > AUTO_SMEAR_CELLS * cell && max > AUTO_SPREAD * mean {
                    IndexKind::RTree
                } else {
                    IndexKind::Grid
                }
            }
        }
    }
}

/// The common query interface of [`SegmentGrid`] and [`RTree`].
///
/// See the [module docs](self) for the full contract (cell-quantized
/// candidacy, occupied-bounds clamping, sorted output, batch gather
/// semantics). Code generic over this trait — or holding a [`SegIndex`] —
/// answers identically whichever structure is selected.
pub trait SpatialIndex {
    /// Number of indexed items.
    fn len(&self) -> usize;

    /// `true` when nothing is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest id ever indexed (0 when empty).
    fn max_id(&self) -> u32;

    /// The quantization lattice's cell size.
    fn cell_size(&self) -> f64;

    /// The cell coordinate a world coordinate falls into — the exact
    /// quantization insertion and querying use (`⌊v / cell⌋`).
    fn cell_coord(&self, v: f64) -> i64;

    /// Candidate ids for `r` into a caller-owned buffer (cleared first),
    /// ascending and deduplicated.
    fn query_into(&self, r: &Rect, out: &mut Vec<u32>);

    /// [`SpatialIndex::query_into`] with caller-owned scratch state, for
    /// hot loops (the grid deduplicates with the scratch's visited stamps;
    /// the R-tree descends with its traversal stack).
    fn query_scratch(&self, r: &Rect, scratch: &mut GridScratch, out: &mut Vec<u32>);

    /// [`SpatialIndex::query_scratch`] that additionally materializes the
    /// candidates' geometry into a reused SoA [`SegBatch`] straight from
    /// the index's coordinate slab: `batch.get(k)` is the item inserted
    /// under `ids[k]`.
    fn query_batch(
        &self,
        r: &Rect,
        scratch: &mut GridScratch,
        ids: &mut Vec<u32>,
        batch: &mut SegBatch,
    );

    /// Materializes the geometry of `ids` (previously returned by a query
    /// on this index) into `batch` — for callers that filter candidates
    /// between the query and the kernel.
    fn fill_batch(&self, ids: &[u32], batch: &mut SegBatch);
}

/// A segment index of either kind, dispatch-selected at build time.
///
/// This is what consumers store: the enum carries whichever structure
/// [`IndexKind`] selected and forwards the whole [`SpatialIndex`] surface
/// with a two-arm match (no dynamic dispatch, no generics infecting the
/// consumer types). Candidate sets are identical across the two arms by
/// the cell-quantization contract.
#[derive(Debug)]
pub enum SegIndex {
    /// Uniform hash grid.
    Grid(SegmentGrid),
    /// STR-packed R-tree.
    RTree(RTree),
}

/// `max(width, height)` of a segment's bounding box.
fn seg_extent(s: &Segment) -> f64 {
    let bb = s.bbox();
    (bb.max.x - bb.min.x).max(bb.max.y - bb.min.y)
}

impl SegIndex {
    /// Builds an index of the resolved kind over an id-ordered segment
    /// list (item `i` gets id `i`). `Auto` resolves per
    /// [`IndexKind::resolve`] on the segments' bbox extents.
    pub fn from_segments(kind: IndexKind, cell: f64, segments: &[Segment]) -> Self {
        match kind.resolve(cell, segments.iter().map(seg_extent)) {
            IndexKind::RTree => SegIndex::RTree(RTree::from_segments(cell, segments)),
            _ => SegIndex::Grid(SegmentGrid::from_segments(cell, segments)),
        }
    }

    /// `true` when the R-tree arm was selected.
    pub fn is_rtree(&self) -> bool {
        matches!(self, SegIndex::RTree(_))
    }

    /// Allocating convenience query (ascending, deduplicated).
    pub fn query(&self, r: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_into(r, &mut out);
        out
    }
}

macro_rules! forward {
    ($self:ident, $m:ident ( $($a:expr),* )) => {
        match $self {
            SegIndex::Grid(g) => g.$m($($a),*),
            SegIndex::RTree(t) => t.$m($($a),*),
        }
    };
}

impl SpatialIndex for SegIndex {
    #[inline]
    fn len(&self) -> usize {
        forward!(self, len())
    }

    #[inline]
    fn max_id(&self) -> u32 {
        forward!(self, max_id())
    }

    #[inline]
    fn cell_size(&self) -> f64 {
        forward!(self, cell_size())
    }

    #[inline]
    fn cell_coord(&self, v: f64) -> i64 {
        forward!(self, cell_coord(v))
    }

    #[inline]
    fn query_into(&self, r: &Rect, out: &mut Vec<u32>) {
        forward!(self, query_into(r, out))
    }

    #[inline]
    fn query_scratch(&self, r: &Rect, scratch: &mut GridScratch, out: &mut Vec<u32>) {
        forward!(self, query_scratch(r, scratch, out))
    }

    #[inline]
    fn query_batch(
        &self,
        r: &Rect,
        scratch: &mut GridScratch,
        ids: &mut Vec<u32>,
        batch: &mut SegBatch,
    ) {
        forward!(self, query_batch(r, scratch, ids, batch))
    }

    #[inline]
    fn fill_batch(&self, ids: &[u32], batch: &mut SegBatch) {
        forward!(self, fill_batch(ids, batch))
    }
}

impl SpatialIndex for SegmentGrid {
    #[inline]
    fn len(&self) -> usize {
        SegmentGrid::len(self)
    }

    #[inline]
    fn max_id(&self) -> u32 {
        SegmentGrid::max_id(self)
    }

    #[inline]
    fn cell_size(&self) -> f64 {
        SegmentGrid::cell_size(self)
    }

    #[inline]
    fn cell_coord(&self, v: f64) -> i64 {
        SegmentGrid::cell_coord(self, v)
    }

    #[inline]
    fn query_into(&self, r: &Rect, out: &mut Vec<u32>) {
        SegmentGrid::query_into(self, r, out)
    }

    #[inline]
    fn query_scratch(&self, r: &Rect, scratch: &mut GridScratch, out: &mut Vec<u32>) {
        SegmentGrid::query_scratch(self, r, scratch, out)
    }

    #[inline]
    fn query_batch(
        &self,
        r: &Rect,
        scratch: &mut GridScratch,
        ids: &mut Vec<u32>,
        batch: &mut SegBatch,
    ) {
        SegmentGrid::query_batch(self, r, scratch, ids, batch)
    }

    #[inline]
    fn fill_batch(&self, ids: &[u32], batch: &mut SegBatch) {
        SegmentGrid::fill_batch(self, ids, batch)
    }
}

impl SpatialIndex for RTree {
    #[inline]
    fn len(&self) -> usize {
        RTree::len(self)
    }

    #[inline]
    fn max_id(&self) -> u32 {
        RTree::max_id(self)
    }

    #[inline]
    fn cell_size(&self) -> f64 {
        RTree::cell_size(self)
    }

    #[inline]
    fn cell_coord(&self, v: f64) -> i64 {
        RTree::cell_coord(self, v)
    }

    #[inline]
    fn query_into(&self, r: &Rect, out: &mut Vec<u32>) {
        RTree::query_into(self, r, out)
    }

    #[inline]
    fn query_scratch(&self, r: &Rect, scratch: &mut GridScratch, out: &mut Vec<u32>) {
        RTree::query_scratch(self, r, scratch, out)
    }

    #[inline]
    fn query_batch(
        &self,
        r: &Rect,
        scratch: &mut GridScratch,
        ids: &mut Vec<u32>,
        batch: &mut SegBatch,
    ) {
        RTree::query_batch(self, r, scratch, ids, batch)
    }

    #[inline]
    fn fill_batch(&self, ids: &[u32], batch: &mut SegBatch) {
        RTree::fill_batch(self, ids, batch)
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
    fn auto_resolves_by_smear_and_spread() {
        // Uniform small edges: grid.
        let small: Vec<f64> = vec![2.0; 40];
        assert_eq!(
            IndexKind::Auto.resolve(1.0, small.iter().copied()),
            IndexKind::Grid
        );
        // One plane-sized edge among vias: both conditions trip.
        let mut mixed = vec![2.0; 40];
        mixed.push(500.0);
        assert_eq!(
            IndexKind::Auto.resolve(1.0, mixed.iter().copied()),
            IndexKind::RTree
        );
        // Uniformly huge edges: smeared but not mixed — stay on the grid
        // (the caller's cell size is the right lever there).
        let coarse: Vec<f64> = vec![500.0; 40];
        assert_eq!(
            IndexKind::Auto.resolve(1.0, coarse.iter().copied()),
            IndexKind::Grid
        );
        // Empty: grid.
        assert_eq!(
            IndexKind::Auto.resolve(1.0, std::iter::empty()),
            IndexKind::Grid
        );
        // Explicit kinds pass through.
        assert_eq!(
            IndexKind::RTree.resolve(1.0, small.iter().copied()),
            IndexKind::RTree
        );
    }

    #[test]
    fn dispatch_selects_and_agrees() {
        let mut segs = vec![seg(0.0, 0.0, 900.0, 0.5)]; // plane-like smear
        for i in 0..40 {
            let x = 10.0 + i as f64 * 20.0;
            segs.push(seg(x, 30.0, x + 2.0, 31.0));
        }
        let auto = SegIndex::from_segments(IndexKind::Auto, 4.0, &segs);
        assert!(auto.is_rtree(), "plane+vias must auto-select the R-tree");
        let grid = SegIndex::from_segments(IndexKind::Grid, 4.0, &segs);
        assert!(!grid.is_rtree());
        for q in [
            Rect::new(Point::new(-5.0, -5.0), Point::new(50.0, 50.0)),
            Rect::new(Point::new(400.0, -1.0), Point::new(420.0, 1.0)),
            Rect::new(Point::new(-1e6, -1e6), Point::new(1e6, 1e6)),
            Rect::new(Point::new(5000.0, 5000.0), Point::new(5001.0, 5001.0)),
        ] {
            assert_eq!(grid.query(&q), auto.query(&q));
        }
    }
}
