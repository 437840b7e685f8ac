//! The [`IndexKind`] selection knob and the [`SegIndex`] enum every
//! consumer stores.
//!
//! ## The candidacy contract
//!
//! A segment index stores segments by **id** on a uniform cell lattice
//! and answers conservative rectangle queries. [`SegmentGrid`] and
//! [`RTree`] both keep this contract, and every consumer (the extension
//! engine's world index, the DRC scan) relies on it:
//!
//! * **Cell-quantized candidacy.** An id is a candidate for query rectangle
//!   `r` exactly when its bounding box's cell range intersects `r`'s cell
//!   range, each quantized by [`cell_coord`](crate::cell_coord). This makes
//!   candidate *sets* a property of the lattice, not of the structure: the
//!   grid and the R-tree built over the same items with the same cell size
//!   return **identical** id sets for every query, which is what keeps
//!   violation lists, witnesses, and placements bit-identical when the
//!   index is swapped (property-tested in `tests/props.rs`). A handful of
//!   edges needs no structure at all: the URA shrinker's per-pop contexts
//!   keep each edge's cell span on their own lattice and scan them, which
//!   *is* this candidacy rule
//!   (`meander_core::context::ShrinkContext::edge_candidates`,
//!   property-tested against [`SegmentGrid`]).
//! * **Occupied-bounds clamping.** Queries are clamped to the bounding cell
//!   range of everything inserted; a window vastly larger than the occupied
//!   region (the extension engine's `remaining/2`-tall candidate windows)
//!   costs output, not window area, and a disjoint window answers empty
//!   immediately.
//! * **Sorted, deduplicated output.** Candidates come out in ascending id
//!   order with no repeats, so strict-minimum reductions over them visit
//!   ties in the same order on every structure.
//! * **Batch gather.** [`SegmentGrid::fill_batch`] materializes the
//!   geometry of a query's candidates into a reused SoA
//!   [`SegBatch`](meander_geom::SegBatch) straight from the grid's
//!   coordinate slab — `batch.get(k)` is the item inserted under `ids[k]` —
//!   so the DRC scan's lane kernels never re-gather geometry through the
//!   ids.
//!
//! Scratch state ([`GridScratch`]) carries the visited-stamp table the grid
//! deduplicates with *and* the traversal stack the R-tree descends with;
//! one scratch serves any number of indexes of either kind.
//!
//! ```
//! use meander_geom::{Point, Rect, Segment};
//! use meander_index::{IndexKind, SegIndex};
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
use meander_geom::{Rect, Segment};

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// Uniform hash grid ([`SegmentGrid`]): open-addressed cells over a
    /// flat id arena.
    #[default]
    Grid,
    /// STR-packed R-tree ([`RTree`]).
    RTree,
}

/// A segment index of either kind, selected at build time.
///
/// This is what consumers store: the enum carries whichever structure
/// [`IndexKind`] selected and forwards each query with a two-arm match
/// (no dynamic dispatch, no generics infecting the consumer types).
/// Candidate sets are identical across the two arms by the
/// [cell-quantization contract](self).
#[derive(Debug)]
pub enum SegIndex {
    /// Uniform hash grid.
    Grid(SegmentGrid),
    /// STR-packed R-tree.
    RTree(RTree),
}

macro_rules! forward {
    ($self:ident, $m:ident ( $($a:expr),* )) => {
        match $self {
            SegIndex::Grid(g) => g.$m($($a),*),
            SegIndex::RTree(t) => t.$m($($a),*),
        }
    };
}

impl SegIndex {
    /// Builds an index of the given kind over an id-ordered segment list
    /// (item `i` gets id `i`).
    pub fn from_segments(kind: IndexKind, cell: f64, segments: &[Segment]) -> Self {
        match kind {
            IndexKind::Grid => SegIndex::Grid(SegmentGrid::from_segments(cell, segments)),
            IndexKind::RTree => SegIndex::RTree(RTree::from_segments(cell, segments)),
        }
    }

    /// Allocating convenience query (ascending, deduplicated).
    pub fn query(&self, r: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_scratch(r, &mut GridScratch::new(), &mut out);
        out
    }

    /// Candidate ids for `r` into `out` (cleared first), ascending and
    /// deduplicated, with caller-owned scratch state so hot loops stay
    /// allocation-free.
    #[inline]
    pub fn query_scratch(&self, r: &Rect, scratch: &mut GridScratch, out: &mut Vec<u32>) {
        forward!(self, query_scratch(r, scratch, out))
    }

    /// `true` when nothing is indexed.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        forward!(self, is_empty())
    }

    /// The quantization lattice's cell size.
    #[inline]
    pub(crate) fn cell_size(&self) -> f64 {
        forward!(self, cell_size())
    }

    /// Largest id indexed (0 when empty).
    #[inline]
    pub(crate) fn max_id(&self) -> u32 {
        forward!(self, max_id())
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
    fn dispatch_selects_and_agrees() {
        let mut segs = vec![seg(0.0, 0.0, 900.0, 0.5)]; // plane-like smear
        for i in 0..40 {
            let x = 10.0 + i as f64 * 20.0;
            segs.push(seg(x, 30.0, x + 2.0, 31.0));
        }
        let rtree = SegIndex::from_segments(IndexKind::RTree, 4.0, &segs);
        assert!(matches!(rtree, SegIndex::RTree(_)));
        let grid = SegIndex::from_segments(IndexKind::Grid, 4.0, &segs);
        assert!(matches!(grid, SegIndex::Grid(_)));
        for q in [
            Rect::new(Point::new(-5.0, -5.0), Point::new(50.0, 50.0)),
            Rect::new(Point::new(400.0, -1.0), Point::new(420.0, 1.0)),
            Rect::new(Point::new(-1e6, -1e6), Point::new(1e6, 1e6)),
            Rect::new(Point::new(5000.0, 5000.0), Point::new(5001.0, 5001.0)),
        ] {
            assert_eq!(grid.query(&q), rtree.query(&q));
        }
    }
}
