//! # meander-geom
//!
//! Computational-geometry substrate for the `meander` length-matching router.
//!
//! The DAC 2024 paper this workspace reproduces ("Obstacle-Aware Length-Matching
//! Routing for Any-Direction Traces in Printed Circuit Board") replaces gridded
//! track-based meandering with plain computational geometry so that traces routed
//! at *arbitrary* angles can be extended. This crate provides exactly the
//! primitives that approach needs:
//!
//! * [`Point`], [`Vector`], [`Angle`] — planar primitives with `f64` coordinates.
//! * [`Segment`], [`Polyline`] — trace centerlines and their pieces.
//! * [`Polygon`], [`Rect`] — obstacles, routable-area borders, URA rectangles.
//! * [`Frame`] — local coordinate frames; every segment is meandered in a frame
//!   where it lies on the +x axis, which is what makes the router any-direction.
//! * [`offset`] — polyline offsetting with miter joins (differential-pair
//!   restoration after MSDTW).
//! * [`miter`] — corner chamfering per the `dmiter` design rule.
//! * [`intersect`] — the predicates the URA shrinking procedure
//!   (paper Alg. 2) is built from.
//! * [`batch`] — SoA candidate batches and lane-parallel kernels for the DRC
//!   scan and shrink stage 1, bit-identical to the scalar predicates.
//!
//! All comparisons run through the tolerance helpers in [`eps`]; geometry here is
//! floating-point with an explicit epsilon contract rather than exact arithmetic,
//! matching what PCB CAD kernels do in practice (coordinates are in mils/µm and
//! far from the subnormal range).
//!
//! ## Example
//!
//! ```
//! use meander_geom::{Point, Polyline, Segment};
//!
//! let trace = Polyline::new(vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(10.0, 0.0),
//!     Point::new(10.0, 5.0),
//! ]);
//! assert!((trace.length() - 15.0).abs() < 1e-12);
//! let first: Segment = trace.segment(0);
//! assert_eq!(first.length(), 10.0);
//! ```

pub mod angle;
pub mod batch;
pub mod eps;
pub mod frame;
pub mod intersect;
pub mod miter;
pub mod offset;
pub mod point;
pub mod polygon;
pub mod polyline;
pub mod rect;
pub mod segment;
pub mod vector;

pub use angle::Angle;
pub use batch::SegBatch;
pub use eps::{approx_eq, approx_zero, EPS};
pub use frame::Frame;
pub use intersect::{segment_intersection, SegmentIntersection};
pub use point::Point;
pub use polygon::Polygon;
pub use polyline::Polyline;
pub use rect::Rect;
pub use segment::Segment;
pub use vector::Vector;
