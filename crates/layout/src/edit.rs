//! Typed edits over a fleet of library-sharing boards.
//!
//! A serving workload is a stream of small changes — an obstacle moves, a
//! rule tweaks, one board of a large set is swapped out. [`Edit`] is the
//! closed vocabulary of those changes; `meander-fleet`'s `FleetSession`
//! applies them with damage tracking so a re-route touches only what an
//! edit could have affected.
//!
//! Two invariants the edit vocabulary is designed around:
//!
//! * **Order stability.** Obstacle edits never permute the surviving
//!   obstacles: a move replaces in place, an add appends, a remove closes
//!   the gap. Candidate ids may *shift* under adds/removes, but their
//!   relative order — and therefore the geometry sequence any unrelated
//!   unit's queries resolve to — is preserved, which is what keeps skipped
//!   units bit-identical.
//! * **Robustness.** Applying an edit is total: indices are taken modulo
//!   the current collection length (a remove on an empty collection is a
//!   no-op). Generated edit streams stay applicable after any prefix.

use crate::board::Board;
use crate::obstacle::Obstacle;
use meander_drc::DesignRules;
use meander_geom::Vector;
use std::fmt;

/// What an obstacle edit targets: a shared library (all boards referencing
/// it see the change) or one board's local obstacles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditScope {
    /// Library by fleet-session library slot (identity-grouped).
    Library(usize),
    /// Board by index in the fleet's board list.
    Board(usize),
}

impl fmt::Display for EditScope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditScope::Library(i) => write!(f, "library {i}"),
            EditScope::Board(i) => write!(f, "board {i}"),
        }
    }
}

/// One edit against a routed fleet.
#[derive(Debug, Clone)]
pub enum Edit {
    /// Translates the obstacle at `index` (mod count) by `by`, in place.
    MoveObstacle {
        /// Library or board obstacle list.
        scope: EditScope,
        /// Obstacle slot, taken modulo the current count.
        index: usize,
        /// Translation vector.
        by: Vector,
    },
    /// Appends an obstacle.
    AddObstacle {
        /// Library or board obstacle list.
        scope: EditScope,
        /// The new obstacle (appended, so existing ids are unchanged).
        obstacle: Obstacle,
    },
    /// Removes the obstacle at `index` (mod count), preserving the order of
    /// the rest. No-op on an empty collection.
    RemoveObstacle {
        /// Library or board obstacle list.
        scope: EditScope,
        /// Obstacle slot, taken modulo the current count.
        index: usize,
    },
    /// Overrides the design rules of every trace on one board (a rule
    /// tweak re-derives the clearance floats, so the whole board re-routes
    /// and its `WorldBase` cache key changes).
    SetRules {
        /// Board index.
        board: usize,
        /// The new rules.
        rules: DesignRules,
    },
    /// Swaps out one board's local part (traces, groups, areas, local
    /// obstacles) wholesale; the board keeps its current library binding.
    ReplaceBoard {
        /// Board index.
        board: usize,
        /// The replacement local part.
        replacement: Box<Board>,
    },
}

impl fmt::Display for Edit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Edit::MoveObstacle { scope, index, by } => {
                write!(
                    f,
                    "move obstacle {index} of {scope} by ({}, {})",
                    by.x, by.y
                )
            }
            Edit::AddObstacle { scope, obstacle } => {
                write!(f, "add {obstacle} to {scope}")
            }
            Edit::RemoveObstacle { scope, index } => {
                write!(f, "remove obstacle {index} of {scope}")
            }
            Edit::SetRules { board, rules } => {
                write!(f, "set rules of board {board} (gap {})", rules.gap)
            }
            Edit::ReplaceBoard { board, .. } => write!(f, "replace board {board}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_geom::Point;

    #[test]
    fn display_names_the_target() {
        let e = Edit::AddObstacle {
            scope: EditScope::Board(1),
            obstacle: Obstacle::via(Point::new(0.0, 0.0), 2.0),
        };
        assert!(format!("{e}").contains("board 1"));
    }
}
