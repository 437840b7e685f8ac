//! # meander-index
//!
//! Spatial acceleration structures for the routing flow's query shapes.
//!
//! The paper's complexity analysis (Sec. IV-D) prescribes two query shapes:
//!
//! 1. *Node-position checking* (Alg. 2) needs, for each URA, the set
//!    `P_check = {p | x_p ∈ [x_A, x_C], y_p ∈ [y_D, y_B]}` of polygon node
//!    points inside the outer border. The paper prescribes a merge-sort
//!    tree for it ("a segment tree to maintain points whose abscissa rank
//!    is within intervals, and the points in each tree node are sorted by
//!    ordinate": `O(N log N)` space, `O(log² N + k)` queries). This crate
//!    departs from it: [`NodeStrip`] sorts the points by x once and scans
//!    a query's x-range, `O(N)` space and `O(log N + s)` queries for `s`
//!    points in that range. The router builds one structure per shrink
//!    context (two per queue pop) and queries it only 92–291 times, on
//!    41–85 points with 11–22 of them in a query's x-range. There the
//!    tree's `4N` per-node vectors cost 263–466 ns per point to build
//!    against 32–47 ns for the strip's one sort, and the scan (176–260 ns
//!    a query) also beats the tree's node descent (260–390 ns), timed in
//!    an instrumented copy on the perfbench workloads (2-CPU host). Both
//!    report exactly the same multiset of points.
//! 2. The extension engine's obstacle gathering and the DRC scan ask for
//!    **candidate edges/segments near a rectangle**. Two structures answer
//!    it: [`SegmentGrid`], a uniform hash grid (an open-addressed cell
//!    table over one flat id arena), and [`RTree`], an STR-packed
//!    bulk-loaded R-tree. Both quantize with [`cell_coord`] and therefore
//!    return **identical candidate sets**, so choosing one for the
//!    engine's world indexes ([`IndexKind`], [`SegIndex`]) changes
//!    performance, never results; the DRC scan always runs on the grid.
//!    See the [`spatial`] module docs for the full contract (bounds
//!    clamping, dedup stamps, batch gather).
//!
//! ```
//! use meander_geom::{Point, Rect, Segment};
//! use meander_index::{RTree, SegmentGrid};
//!
//! // A tiny "board": one plane-sized edge above a row of via-sized edges.
//! let mut edges = vec![Segment::new(Point::new(0.0, 20.0), Point::new(800.0, 20.0))];
//! for i in 0..12 {
//!     let x = 30.0 + 50.0 * i as f64;
//!     edges.push(Segment::new(Point::new(x, 5.0), Point::new(x + 2.0, 6.0)));
//! }
//! let grid = SegmentGrid::from_segments(4.0, &edges);
//! let rtree = RTree::from_segments(4.0, &edges);
//! let window = Rect::new(Point::new(25.0, 0.0), Point::new(40.0, 25.0));
//! assert_eq!(grid.query(&window), vec![0, 1]);
//! assert_eq!(grid.query(&window), rtree.query(&window));
//! ```

pub mod grid;
pub mod overlay;
pub mod rtree;
pub mod spatial;
pub mod strip;
pub mod touch;

pub use grid::{GridScratch, SegmentGrid};
pub use overlay::OverlayIndex;
pub use rtree::RTree;
pub use spatial::{IndexKind, SegIndex};
pub use strip::NodeStrip;
pub use touch::{quantize, CellTouches, DirtyCells, StratumKey};

use meander_geom::Rect;

/// The lattice cell a world coordinate falls into: `⌊v / cell⌋`.
///
/// This is the candidacy rule every structure here shares, and what the
/// router's bit-identity arguments rest on: an item is a candidate for a
/// query window exactly when its bbox's cell range, per axis, meets the
/// window's. The grid and the R-tree quantize with it, as do
/// [`quantize`]'s lattice-cell stats and the index-free edge scans of
/// `meander_core`'s shrink contexts.
#[inline]
pub fn cell_coord(cell: f64, v: f64) -> i64 {
    (v / cell).floor() as i64
}

/// How far beyond a candidate window an obstacle's inflated bbox may lie
/// and still be kept by [`reaches`], in board units.
///
/// Soundness: a pop's window is the world bbox of the local rectangle
/// `x ∈ [−g_eff/2, len + g_eff/2]`, `y ∈ [−h_ob⁰, h_ob⁰]`, and every
/// probe of that pop (outer borders, `EPS`-wide side columns, trims)
/// stays inside it. The probes' predicates accept touches within
/// [`meander_geom::EPS`] (1e-9), and the world → local transform of a
/// polygon and the local → world transform of the window corners each
/// round by a few ulps of board coordinates (about 1e-12 at 1e4 units).
/// The slack is [`meander_geom::batch::PREFILTER_SLACK`] (1e-6), which
/// dominates both by three orders of magnitude, so no probe can see a
/// polygon whose bbox stays farther than this from the window.
pub const REACH_SLACK: f64 = meander_geom::batch::PREFILTER_SLACK;

/// The exact candidacy test shared by the router and the serving layer:
/// whether an obstacle whose inflated bbox is `bbox` can reach the query
/// `window`, i.e. whether `bbox` meets `window` grown by [`REACH_SLACK`]
/// on every side.
///
/// `meander_core`'s world index keeps an obstacle for a pop only when
/// this holds (after the lattice-cell prefilter), and [`CellTouches`]
/// decides whether damage can affect a unit by asking the very same
/// question of its recorded windows and the damage bboxes. Both
/// arguments are monotone — growing either rect can only turn `false`
/// into `true` — which is what lets the remembered sets merge and
/// collapse rects conservatively.
///
/// ```
/// use meander_geom::{Point, Rect};
/// use meander_index::{reaches, REACH_SLACK};
///
/// let window = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
/// let at = |x: f64| Rect::new(Point::new(x, 4.0), Point::new(x + 2.0, 6.0));
/// assert!(reaches(&window, &at(10.0 + REACH_SLACK / 2.0)));
/// assert!(!reaches(&window, &at(10.0 + 2.0 * REACH_SLACK)));
/// ```
#[inline]
pub fn reaches(window: &Rect, bbox: &Rect) -> bool {
    bbox.min.x <= window.max.x + REACH_SLACK
        && window.min.x - REACH_SLACK <= bbox.max.x
        && bbox.min.y <= window.max.y + REACH_SLACK
        && window.min.y - REACH_SLACK <= bbox.max.y
}
