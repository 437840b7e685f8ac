//! # meander-msdtw
//!
//! Multi-Scale Dynamic Time Warping (paper Sec. V): converts a — possibly
//! imperfectly coupled — differential pair into a single *median trace* that
//! the length-matching engine can meander, and restores the pair afterwards.
//!
//! Why not simple parallel-segment detection? Real pairs carry redundant
//! corner nodes ("short segments", Fig. 10a) and tiny length-compensation
//! patterns (Fig. 10b), so their segments are frequently *not* parallel.
//! MSDTW instead matches **nodes**:
//!
//! 1. [`dtw`] — classic DTW over the two node sequences (Eq. 17),
//! 2. `filter` — matched pairs with cost `> √2·r` are noise from tiny
//!    patterns and are dropped; their nodes become *unpaired*,
//! 3. [`multiscale`] — when the pair crosses several DRAs the distance rule
//!    `r` is ambiguous; Alg. 3 matches at increasing scales, splitting the
//!    pair into sub-pairs at each round's accepted matches,
//! 4. `median` — accepted matches form connected components whose nodes
//!    average into median points (Eq. 18),
//! 5. [`restore`] — after meandering, offsetting the median by `± sep/2`
//!    recovers the sub-traces; the virtual DRC from
//!    [`meander_drc::virtualize_rules`] guarantees the restored pair is
//!    legal.
//!
//! ```
//! use meander_geom::{Point, Polyline};
//! use meander_msdtw::{merge_pair, PairGeometry};
//!
//! let p = Polyline::new(vec![Point::new(0.0, 3.0), Point::new(100.0, 3.0)]);
//! let n = Polyline::new(vec![Point::new(0.0, -3.0), Point::new(100.0, -3.0)]);
//! let merged = merge_pair(&PairGeometry::new(&p, &n, 6.0)).unwrap();
//! assert_eq!(merged.median.point_count(), 2);
//! assert!(merged.median.points()[0].approx_eq(Point::new(0.0, 0.0)));
//! ```

pub mod dtw;
mod filter;
mod median;
pub mod multiscale;
pub mod restore;

pub use dtw::dtw_match;
pub use multiscale::{merge_pair, PairGeometry};
pub use restore::restore_pair;
