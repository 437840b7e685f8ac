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
//! The [candidacy contract](crate::spatial) makes candidacy a property of
//! the cell lattice alone: an id is a candidate for query `r` exactly when
//! its bbox's cell range (quantized by the *absolute*
//! [`cell_coord`](crate::cell_coord), no per-index origin) intersects `r`'s
//! cell range. Occupied-bounds clamping never
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
//! use meander_index::{IndexKind, OverlayIndex, SegIndex};
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
use crate::spatial::SegIndex;
use meander_geom::Rect;
use std::sync::Arc;

/// A segment index that unions an optional shared base with a private
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
        self.query_scratch(r, &mut GridScratch::new(), &mut out);
        out
    }

    /// Candidate ids for `r` into `out` (cleared first): the base's ids,
    /// then the overlay's offset by `base_ids` — ascending and
    /// deduplicated, like one index over both item lists.
    pub fn query_scratch(&self, r: &Rect, scratch: &mut GridScratch, out: &mut Vec<u32>) {
        out.clear();
        if let Some(base) = &self.base {
            base.query_scratch(r, scratch, out);
        }
        if self.overlay.is_empty() {
            return;
        }
        // The overlay query clears its output buffer, so it cannot append
        // to `out`: it writes into the scratch's staging buffer, and the
        // offset ids are copied over from there.
        let start = out.len();
        let mut tmp = std::mem::take(&mut scratch.overlay_buf);
        self.overlay.query_scratch(r, scratch, &mut tmp);
        out.extend(tmp.iter().map(|&i| i + self.base_ids));
        scratch.overlay_buf = tmp;
        debug_assert!(out[start..].is_sorted());
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
                for (qi, q) in queries.iter().enumerate() {
                    let want = reference.query(q);
                    assert_eq!(
                        overlay.query(q),
                        want,
                        "query diverged ({base_kind:?}/{over_kind:?}, q{qi})"
                    );
                    overlay.query_scratch(q, &mut scratch, &mut got);
                    assert_eq!(
                        got, want,
                        "query_scratch diverged ({base_kind:?}/{over_kind:?}, q{qi})"
                    );
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
