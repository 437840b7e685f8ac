//! # meander-core
//!
//! The paper's primary contribution: obstacle-aware, DP-based segment
//! extension for any-direction length-matching (Sec. IV), plus the trace-
//! and group-level drivers and the two comparison baselines.
//!
//! ## How a trace gets longer
//!
//! A work queue holds the trace's segments (Alg. 1). Each popped segment is
//! mapped into a local frame where it runs along +x ([`meander_geom::Frame`]
//! — this is what makes the router any-direction), discretized at step
//! `l_disc`, and extended by a dynamic program over states `dp[i][dir]`
//! (best height-sum with patterns among the first `i` points, last pattern
//! on side `dir`). Candidate patterns get their maximum legal height from
//! the URA shrinking procedure ([`shrink`], Alg. 2) which checks the
//! routable-area border, obstacles, and the URAs of the trace's *other*
//! segments — and legally routes *around* obstacles when the space allows
//! (the capability Table II's ablation measures). Chosen patterns are
//! restored by backtracking ([`dp`]), spliced into the trace
//! (`pattern`), and the new segments re-enter the queue, enabling
//! meander-on-meander (paper Fig. 5).
//!
//! ## Entry points
//!
//! * [`extend::extend_trace`] — one trace to one target length,
//! * [`driver::match_board_group`] — a whole matching group, routing
//!   differential pairs through MSDTW automatically,
//! * [`baseline`] — the "without DP" fixed-track ablation comparator
//!   (Table II) and the AiDT-like greedy tuner (Table I).
//!
//! ## Spatial indexing
//!
//! The engine's hot queries (world polygons near a candidate window,
//! edges near a stage-1 side, the DP profile band) run behind the
//! [`meander_index::SpatialIndex`] contract; [`ExtendConfig::index`]
//! selects the uniform grid, the STR-packed R-tree, or `Auto`
//! (per-build choice by obstacle-size variance). The two structures
//! return identical candidate sets — cell-quantized candidacy with
//! occupied-bounds clamping, ascending deduplicated output — so router
//! placements are **bit-identical** whichever is selected
//! (property-tested); see `ARCHITECTURE.md` for the full invariant list.
//!
//! ```
//! use meander_core::extend::{extend_trace, ExtendInput};
//! use meander_core::{ExtendConfig, IndexKind};
//! use meander_drc::DesignRules;
//! use meander_geom::{Point, Polygon, Polyline};
//!
//! // A small board: one trace in a corridor with one via obstacle.
//! let trace = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(150.0, 0.0)]);
//! let area = vec![Polygon::rectangle(Point::new(-20.0, -50.0), Point::new(170.0, 50.0))];
//! let obstacles = vec![Polygon::regular(Point::new(75.0, 20.0), 4.0, 8, 0.0)];
//! let input = ExtendInput {
//!     trace: &trace,
//!     target: 200.0,
//!     rules: &DesignRules::default(),
//!     area: &area,
//!     obstacles: &obstacles,
//! };
//! let run = |index| {
//!     extend_trace(&input, &ExtendConfig { index, parallel: false, ..Default::default() })
//! };
//! let grid = run(IndexKind::Grid);
//! let rtree = run(IndexKind::RTree);
//! assert!((grid.achieved - 200.0).abs() <= 0.2);
//! // Identical candidate sets ⇒ bit-identical meander.
//! assert_eq!(grid.trace.points(), rtree.trace.points());
//! ```

pub mod baseline;
pub mod config;
pub mod context;
pub mod dp;
pub mod driver;
pub mod extend;
mod par;
mod pattern;
pub mod shrink;
mod tracebuf;

pub use config::ExtendConfig;
pub use context::WorldBase;
pub use driver::{
    apply_outputs, gather_obstacles, match_all_groups, match_board_group, miter_group,
    plan_board_units, run_unit, GroupReport, TraceReport, UnitInput, UnitOutput,
};
pub use extend::extend_trace;
pub use meander_drc::DesignRules;
pub use meander_index::{CellTouches, DirtyCells, IndexKind, StratumKey};
