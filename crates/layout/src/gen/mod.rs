//! Synthetic benchmark generators.
//!
//! The paper evaluates on (a) a sample design shipped with Allegro PCB
//! Designer and (b) private/dummy designs — none of which are
//! redistributable. These generators synthesize layouts with the same
//! geometric regimes (see DESIGN.md "Substitutions"): dense bus corridors
//! with staggered initial lengths for Table I, a narrow via field with a
//! 135° mid-segment for Table II, an any-angle rotated bus for Fig. 14b,
//! and decoupled differential pairs for the MSDTW experiments (Figs. 9/16).

pub mod anyangle;
pub mod diffpair;
pub mod dup;
pub mod edits;
pub mod fleet;
pub mod stress;
pub mod table1;
pub mod table2;

pub use anyangle::any_angle_bus;
pub use diffpair::decoupled_pair;
pub use dup::{dup_fleet_boards, dup_fleet_boards_small};
pub use edits::{edit_stream, nth_edit};
pub use fleet::{fleet_boards, fleet_boards_small, FleetCase};
pub use stress::{stress_board, stress_mixed_board};
pub use table1::table1_case;
pub use table2::table2_case;

/// Trace-type tag used in Table I reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceType {
    /// Ordinary single-ended traces.
    SingleEnded,
    /// Differential pairs (MSDTW path).
    Differential,
}

impl std::fmt::Display for TraceType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceType::SingleEnded => f.write_str("single-ended"),
            TraceType::Differential => f.write_str("differential"),
        }
    }
}

/// Spacing regime tag used in Table I reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spacing {
    /// Corridors barely wider than the meander needs.
    Dense,
    /// Generous corridors.
    Sparse,
}

impl std::fmt::Display for Spacing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Spacing::Dense => f.write_str("dense"),
            Spacing::Sparse => f.write_str("sparse"),
        }
    }
}
