//! A shared immutable base index layered under a per-consumer overlay.
//!
//! The multi-board serving regime (`crates/fleet`) routes many boards that
//! reference one shared obstacle library. Indexing the library's edges per
//! trace — what [`crate::SegIndex::from_segments`] over the full edge list
//! would do — repeats identical work thousands of times. [`OverlayIndex`]
//! instead *reuses* one prebuilt, [`Arc`]-shared base index and builds only
//! the small per-consumer remainder (routable-area borders, board-local
//! obstacles) as an overlay.
//!
//! ## Equivalence to a monolithic index
//!
//! The [`SpatialIndex`] contract makes candidacy a property of the cell
//! lattice alone: an id is a candidate for query `r` exactly when its bbox's
//! cell range (quantized by the *absolute* `⌊v / cell⌋`, no per-index
//! origin) intersects `r`'s cell range. Occupied-bounds clamping never
//! changes that set — an entry's cells always lie inside its own index's
//! occupied bounds, so clamping only skips provably empty cells. Therefore
//! querying a base and an overlay built on the **same cell size** and
//! unioning the results yields *exactly* the candidate set of one monolithic
//! index over the concatenated items — which is what keeps fleet placements
//! bit-identical to the per-board sequential run (property-tested in
//! `tests/props.rs` and asserted end-to-end by `crates/fleet`).
//!
//! ## Id space
//!
//! Base items keep their ids `0..base_ids`; overlay item `i` comes out as
//! `base_ids + i`. Output stays ascending and deduplicated: each underlying
//! query is ascending, and every base id is smaller than every overlay id,
//! so concatenation preserves the ordering contract.
//!
//! ```
//! use meander_geom::{Point, Rect, Segment};
//! use meander_index::{IndexKind, OverlayIndex, SegIndex, SpatialIndex};
//! use std::sync::Arc;
//!
//! let library = vec![Segment::new(Point::new(0.0, 0.0), Point::new(3.0, 1.0))];
//! let local = vec![Segment::new(Point::new(2.0, 2.0), Point::new(5.0, 2.0))];
//! // Built once, shared by every consumer:
//! let base = Arc::new(SegIndex::from_segments(IndexKind::Grid, 2.0, &library));
//! // Built per consumer, same lattice:
//! let idx = OverlayIndex::over(base, 1, SegIndex::from_segments(IndexKind::Grid, 2.0, &local));
//!
//! // Identical to one index over library ++ local:
//! let mono: Vec<Segment> = library.iter().chain(&local).copied().collect();
//! let mono = SegIndex::from_segments(IndexKind::Grid, 2.0, &mono);
//! let q = Rect::new(Point::new(1.0, 0.5), Point::new(4.0, 3.0));
//! assert_eq!(idx.query(&q), mono.query(&q));
//! ```

use crate::grid::GridScratch;
use crate::spatial::{SegIndex, SpatialIndex};
use meander_geom::{Rect, SegBatch};
use std::sync::Arc;

/// A [`SpatialIndex`] that unions an optional shared base with a private
/// overlay (see the [module docs](self) for the equivalence argument).
#[derive(Debug)]
pub struct OverlayIndex {
    /// Shared immutable base, if any. `None` makes this a plain wrapper
    /// around `overlay` with zero reserved base ids.
    base: Option<Arc<SegIndex>>,
    /// Number of ids reserved for the base: overlay item `i` is reported as
    /// `base_ids + i`. Callers usually pass the base's item count.
    base_ids: u32,
    /// Per-consumer index over the non-shared items.
    overlay: SegIndex,
}

impl OverlayIndex {
    /// Wraps a single index; queries forward unchanged (no reserved ids).
    pub fn solo(overlay: SegIndex) -> Self {
        OverlayIndex {
            base: None,
            base_ids: 0,
            overlay,
        }
    }

    /// Layers `overlay` over a shared `base`, reserving `base_ids` ids for
    /// the base's items.
    ///
    /// # Panics
    ///
    /// Panics if the two indexes disagree on cell size (the lattice is what
    /// guarantees union-equals-monolithic) or if the base holds an id
    /// `≥ base_ids` (its outputs would collide with overlay ids).
    pub fn over(base: Arc<SegIndex>, base_ids: u32, overlay: SegIndex) -> Self {
        assert!(
            base.is_empty()
                || overlay.is_empty()
                || base.cell_size().to_bits() == overlay.cell_size().to_bits(),
            "overlay lattice mismatch: base cell {} vs overlay cell {}",
            base.cell_size(),
            overlay.cell_size()
        );
        assert!(
            base.is_empty() || base.max_id() < base_ids,
            "base id {} does not fit in the reserved id space {}",
            base.max_id(),
            base_ids
        );
        OverlayIndex {
            base: Some(base),
            base_ids,
            overlay,
        }
    }

    /// Number of ids reserved for the base (`0` for [`OverlayIndex::solo`]).
    #[inline]
    pub fn base_ids(&self) -> u32 {
        self.base_ids
    }

    /// Allocating convenience query (ascending, deduplicated).
    pub fn query(&self, r: &Rect) -> Vec<u32> {
        let mut out = Vec::new();
        self.query_into(r, &mut out);
        out
    }

    /// Appends the overlay's candidates for `r` (ids offset by `base_ids`)
    /// using scratch state. `out` is *not* cleared — callers chain this
    /// after the base query.
    fn append_overlay(&self, r: &Rect, scratch: &mut GridScratch, out: &mut Vec<u32>) {
        if self.overlay.is_empty() {
            return;
        }
        let start = out.len();
        // Reuse the tail of `out` as the overlay's output buffer would alias
        // `out`; query into a fresh spot by splitting the call: the overlay
        // query clears its buffer, so stage through `scratch`-free swap.
        let mut tmp = std::mem::take(&mut scratch.overlay_buf);
        self.overlay.query_scratch(r, scratch, &mut tmp);
        out.extend(tmp.iter().map(|&i| i + self.base_ids));
        scratch.overlay_buf = tmp;
        debug_assert!(out[start..].is_sorted());
    }
}

impl SpatialIndex for OverlayIndex {
    fn len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.len()) + self.overlay.len()
    }

    fn max_id(&self) -> u32 {
        if self.overlay.is_empty() {
            self.base.as_ref().map_or(0, |b| b.max_id())
        } else {
            self.overlay.max_id() + self.base_ids
        }
    }

    fn cell_size(&self) -> f64 {
        // The two lattices agree by construction; prefer whichever side has
        // entries (an empty `SegIndex` still knows its cell size, but the
        // overlay is the side consumers configure).
        match &self.base {
            Some(b) if self.overlay.is_empty() => b.cell_size(),
            _ => self.overlay.cell_size(),
        }
    }

    fn query_into(&self, r: &Rect, out: &mut Vec<u32>) {
        out.clear();
        if let Some(base) = &self.base {
            base.query_into(r, out);
        }
        if !self.overlay.is_empty() {
            let mut tail = Vec::new();
            self.overlay.query_into(r, &mut tail);
            out.extend(tail.into_iter().map(|i| i + self.base_ids));
        }
    }

    fn query_scratch(&self, r: &Rect, scratch: &mut GridScratch, out: &mut Vec<u32>) {
        out.clear();
        if let Some(base) = &self.base {
            base.query_scratch(r, scratch, out);
        }
        self.append_overlay(r, scratch, out);
    }

    fn query_batch(
        &self,
        r: &Rect,
        scratch: &mut GridScratch,
        ids: &mut Vec<u32>,
        batch: &mut SegBatch,
    ) {
        self.query_scratch(r, scratch, ids);
        self.fill_batch(ids, batch);
    }

    fn fill_batch(&self, ids: &[u32], batch: &mut SegBatch) {
        // Split at the base/overlay boundary (ids are ascending) and gather
        // each side from its own coordinate slab. The base side fills the
        // caller's batch directly (`fill_batch` clears it first); only a
        // non-empty overlay tail pays a staging gather, because the inner
        // call would otherwise clear what the base just wrote. Hot loops
        // (the DRC scan) gather through the underlying indexes
        // directly and never take this path.
        let split = ids.partition_point(|&id| id < self.base_ids);
        match &self.base {
            Some(base) if split > 0 => base.fill_batch(&ids[..split], batch),
            _ => batch.clear(),
        }
        if split < ids.len() {
            let local: Vec<u32> = ids[split..].iter().map(|&i| i - self.base_ids).collect();
            let mut tail = SegBatch::new();
            self.overlay.fill_batch(&local, &mut tail);
            batch.extend_from(&tail);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IndexKind;
    use meander_geom::{Point, Segment};

    fn seg(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(Point::new(ax, ay), Point::new(bx, by))
    }

    fn field(n: usize, dx: f64, dy: f64) -> Vec<Segment> {
        (0..n)
            .map(|i| {
                let x = (i % 9) as f64 * 7.0 + dx;
                let y = (i / 9) as f64 * 5.0 + dy;
                seg(x, y, x + 3.0, y + 1.5)
            })
            .collect()
    }

    /// Overlay(base ++ local) must answer exactly like one monolithic index,
    /// for every kind pairing and query window.
    #[test]
    fn union_equals_monolithic() {
        let library = {
            let mut v = field(30, 0.0, 0.0);
            v.push(seg(-10.0, 25.0, 300.0, 25.0)); // plane-sized smear
            v
        };
        let local = field(17, 3.0, 40.0);
        let mono: Vec<Segment> = library.iter().chain(&local).copied().collect();
        let queries = [
            Rect::new(Point::new(-5.0, -5.0), Point::new(20.0, 20.0)),
            Rect::new(Point::new(10.0, 20.0), Point::new(40.0, 50.0)),
            Rect::new(Point::new(-1e6, -1e6), Point::new(1e6, 1e6)),
            Rect::new(Point::new(500.0, 500.0), Point::new(501.0, 501.0)),
            Rect::new(Point::new(0.0, 24.0), Point::new(1.0, 26.0)),
        ];
        for base_kind in [IndexKind::Grid, IndexKind::RTree] {
            for over_kind in [IndexKind::Grid, IndexKind::RTree] {
                let base = Arc::new(SegIndex::from_segments(base_kind, 4.0, &library));
                let overlay = OverlayIndex::over(
                    Arc::clone(&base),
                    library.len() as u32,
                    SegIndex::from_segments(over_kind, 4.0, &local),
                );
                let reference = SegIndex::from_segments(IndexKind::Grid, 4.0, &mono);
                let mut scratch = GridScratch::new();
                let mut got = Vec::new();
                let mut batch = SegBatch::new();
                for (qi, q) in queries.iter().enumerate() {
                    let want = reference.query(q);
                    assert_eq!(
                        overlay.query(q),
                        want,
                        "query_into diverged ({base_kind:?}/{over_kind:?}, q{qi})"
                    );
                    overlay.query_scratch(q, &mut scratch, &mut got);
                    assert_eq!(
                        got, want,
                        "query_scratch diverged ({base_kind:?}/{over_kind:?}, q{qi})"
                    );
                    overlay.query_batch(q, &mut scratch, &mut got, &mut batch);
                    assert_eq!(got, want);
                    assert_eq!(batch.len(), want.len());
                    for (k, &id) in want.iter().enumerate() {
                        assert_eq!(
                            batch.get(k),
                            mono[id as usize],
                            "batch gather diverged at candidate {k}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn solo_forwards_unchanged() {
        let items = field(12, 0.0, 0.0);
        let solo = OverlayIndex::solo(SegIndex::from_segments(IndexKind::Grid, 3.0, &items));
        let plain = SegIndex::from_segments(IndexKind::Grid, 3.0, &items);
        assert_eq!(solo.base_ids(), 0);
        assert_eq!(solo.len(), plain.len());
        let q = Rect::new(Point::new(0.0, 0.0), Point::new(15.0, 9.0));
        assert_eq!(solo.query(&q), plain.query(&q));
    }

    #[test]
    fn empty_sides() {
        let items = field(6, 0.0, 0.0);
        let base = Arc::new(SegIndex::from_segments(IndexKind::Grid, 2.0, &items));
        let none: Vec<Segment> = Vec::new();
        // Empty overlay: base answers alone.
        let idx = OverlayIndex::over(
            Arc::clone(&base),
            items.len() as u32,
            SegIndex::from_segments(IndexKind::Grid, 2.0, &none),
        );
        let q = Rect::new(Point::new(-1.0, -1.0), Point::new(50.0, 50.0));
        assert_eq!(idx.query(&q), base.query(&q));
        assert_eq!(idx.len(), items.len());
        // Empty base: overlay ids still offset by the reserved space.
        let empty_base = Arc::new(SegIndex::from_segments(IndexKind::Grid, 2.0, &none));
        let idx = OverlayIndex::over(
            empty_base,
            5,
            SegIndex::from_segments(IndexKind::Grid, 2.0, &items),
        );
        let got = idx.query(&q);
        assert_eq!(got.len(), items.len());
        assert!(got.iter().all(|&id| id >= 5));
    }

    #[test]
    #[should_panic(expected = "lattice mismatch")]
    fn cell_mismatch_panics() {
        let items = field(4, 0.0, 0.0);
        let base = Arc::new(SegIndex::from_segments(IndexKind::Grid, 2.0, &items));
        let _ = OverlayIndex::over(
            base,
            4,
            SegIndex::from_segments(IndexKind::Grid, 3.0, &items),
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn base_id_overflow_panics() {
        let items = field(4, 0.0, 0.0);
        let base = Arc::new(SegIndex::from_segments(IndexKind::Grid, 2.0, &items));
        let _ = OverlayIndex::over(
            base,
            2,
            SegIndex::from_segments(IndexKind::Grid, 2.0, &items),
        );
    }
}
