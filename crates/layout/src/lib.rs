//! # meander-layout
//!
//! Board model for the `meander` length-matching router: traces, matching
//! groups, differential pairs, obstacles, routable areas, plus the synthetic
//! benchmark generators and SVG rendering used to reproduce the paper's
//! tables and figures.
//!
//! The model mirrors the paper's problem statement (Sec. II): a PCB layout
//! holds already-routed traces; *matching groups* demand every member reach
//! a common target length `l_target`; obstacles are polygons a trace cannot
//! pass; each trace owns a *routable area* (a union of polygons) inside
//! which its meandering must stay.
//!
//! ```
//! use meander_layout::{Board, Trace, TraceId};
//! use meander_geom::{Point, Polyline};
//!
//! let mut board = Board::new(meander_geom::Rect::new(
//!     Point::new(0.0, 0.0),
//!     Point::new(200.0, 100.0),
//! ));
//! let id = board.add_trace(Trace::new(
//!     "DQ0",
//!     Polyline::new(vec![Point::new(0.0, 50.0), Point::new(200.0, 50.0)]),
//!     4.0,
//! ));
//! assert_eq!(board.trace(id).unwrap().name(), "DQ0");
//! ```
//!
//! Boards arriving from outside the process (files, fleet submissions)
//! should pass through [`validate::validate_board`] first: it rejects
//! NaN/infinite coordinates, degenerate polygons, geometry far outside
//! the board outline, empty, dangling or overlapping groups, and
//! malformed rule floats with a typed [`validate::ValidationError`]
//! instead of a panic (or an allocation abort) inside the router.

// Library-facing ingest must never panic on untrusted input: unwraps are
// linted against (tests keep their unwraps — a failing test panics by
// design).
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod area;
pub mod board;
pub mod diffpair;
pub mod edit;
pub mod gen;
pub mod group;
pub mod hash;
pub mod io;
pub mod library;
pub mod obstacle;
pub mod svg;
pub mod trace;
pub mod validate;

pub use area::RoutableArea;
pub use board::Board;
pub use diffpair::DiffPair;
pub use edit::{Edit, EditScope};
pub use group::{MatchGroup, TargetLength};
pub use hash::{hash_board_local, library_root, LibraryCommitment, MerkleTree};
pub use library::{LibraryBoard, ObstacleLibrary};
pub use obstacle::{Obstacle, ObstacleKind};
pub use trace::{Trace, TraceId};
pub use validate::{
    validate_board, validate_library, validate_library_board, Entity, ValidationError,
};
