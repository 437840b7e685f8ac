//! # meander — obstacle-aware length-matching routing for any-direction PCB traces
//!
//! Facade crate re-exporting the whole `meander` workspace, a Rust
//! reproduction of *"Obstacle-Aware Length-Matching Routing for Any-Direction
//! Traces in Printed Circuit Board"* (DAC 2024).
//!
//! Most users only need:
//!
//! * [`layout`] to build or load a board,
//! * [`region`] to assign routable areas,
//! * [`core`]'s driver to length-match a group,
//! * [`msdtw`] when the group contains differential pairs,
//! * [`drc`] to verify the result,
//! * [`fleet`] to batch-route many boards sharing an obstacle library
//!   (with an optional content-addressed result cache).
//!
//! ```
//! use meander::geom::{Point, Polyline};
//!
//! let trace = Polyline::new(vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0)]);
//! assert_eq!(trace.length(), 100.0);
//! ```

pub use meander_core as core;
pub use meander_drc as drc;
pub use meander_fleet as fleet;
pub use meander_geom as geom;
pub use meander_index as index;
pub use meander_layout as layout;
pub use meander_msdtw as msdtw;
pub use meander_region as region;
