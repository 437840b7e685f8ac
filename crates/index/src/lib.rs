//! # meander-index
//!
//! Spatial acceleration structures for the routing flow's query shapes.
//!
//! The paper's complexity analysis (Sec. IV-D) prescribes two query shapes:
//!
//! 1. *Node-position checking* (Alg. 2) needs, for each URA, the set
//!    `P_check = {p | x_p ∈ [x_A, x_C], y_p ∈ [y_D, y_B]}` of polygon node
//!    points inside the outer border. [`MergeSortTree`] implements the
//!    structure the paper describes: "a segment tree to maintain points whose
//!    abscissa rank is within intervals, and the points in each tree node are
//!    sorted by ordinate", giving `O(N log N)` space and `O(log² N)`-ish
//!    queries (we return the matching points, so add output size).
//! 2. The extension engine's obstacle gathering and the DRC scan ask for
//!    **candidate edges/segments near a rectangle**. Two
//!    structures answer that behind the [`SpatialIndex`] trait:
//!    [`SegmentGrid`], a uniform hash grid (an open-addressed cell table
//!    over one flat id arena), and [`RTree`], an STR-packed
//!    bulk-loaded R-tree for boards whose obstacle sizes are wildly mixed
//!    (plane polygons next to via fields). Both quantize to the same cell
//!    lattice and therefore return **identical candidate sets** — swapping
//!    them ([`IndexKind`], [`SegIndex`]) changes performance, never results.
//!    See the [`spatial`] module docs for the full contract (bounds
//!    clamping, dedup stamps, batch gather semantics).
//!
//! ```
//! use meander_geom::{Point, Rect, Segment};
//! use meander_index::{IndexKind, RTree, SegIndex, SegmentGrid, SpatialIndex};
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
//! // `Auto` picks the R-tree here: one edge smears across hundreds of
//! // grid cells while the mean edge is tiny.
//! assert!(matches!(
//!     SegIndex::from_segments(IndexKind::Auto, 4.0, &edges),
//!     SegIndex::RTree(_)
//! ));
//! ```

pub mod grid;
pub mod msegtree;
pub mod overlay;
pub mod rtree;
pub mod spatial;
pub mod touch;

pub use grid::{GridScratch, SegmentGrid};
pub use msegtree::MergeSortTree;
pub use overlay::OverlayIndex;
pub use rtree::RTree;
pub use spatial::{IndexKind, SegIndex, SpatialIndex};
pub use touch::{quantize, CellTouches, DirtyCells, StratumKey};
