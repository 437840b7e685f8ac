//! Deterministic edit streams over generated fleets.
//!
//! [`edit_stream`] synthesizes the serving workload the incremental
//! re-routing loop is built for: a stream of obstacle moves / adds /
//! removes, rule tweaks, and board swaps against a [`FleetCase`]. Two
//! properties the tests and the bench rely on:
//!
//! * **Deterministic** — a pure function of `(case, seed, k)`.
//! * **Prefix-stable** — edit `k` never depends on `n_edits` (each edit
//!   draws from its own splitmix-derived rng), so
//!   `edit_stream(case, s, n)[..k] == edit_stream(case, s, k)`.
//!
//! Edits are generated against the *original* case; indices stay valid
//! after any prefix because applying an edit is total (indices are taken
//! modulo the current collection length — see [`crate::edit`]).

use crate::edit::{Edit, EditScope};
use crate::obstacle::Obstacle;
use meander_geom::{Point, Vector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::fleet::{board_seed, fleet_rules, FleetCase, DGAP};

/// Generates `n_edits` edits over `case` (see the module docs).
///
/// The mix leans toward board-local obstacle churn — the serving regime
/// where damage should stay narrow — with occasional shared-library edits
/// (wide damage), rule tweaks, and board swaps (structural).
pub fn edit_stream(case: &FleetCase, seed: u64, n_edits: usize) -> Vec<Edit> {
    (0..n_edits).map(|k| nth_edit(case, seed, k)).collect()
}

/// The `k`-th edit of the stream — prefix stability is this signature.
pub fn nth_edit(case: &FleetCase, seed: u64, k: usize) -> Edit {
    let mut rng = StdRng::seed_from_u64(board_seed(seed, k));
    let n_boards = case.boards.len().max(1);
    let b = rng.gen_range(0..n_boards);
    let roll = rng.gen_range(0..100u32);
    match roll {
        // Board-local obstacle move: the narrow-damage common case.
        0..=39 => Edit::MoveObstacle {
            scope: EditScope::Board(b),
            index: rng.gen_range(0..64),
            by: jitter(&mut rng),
        },
        // Shared-library obstacle move: damage every referencing board.
        40..=49 => Edit::MoveObstacle {
            scope: EditScope::Library(0),
            index: rng.gen_range(0..1024),
            by: jitter(&mut rng),
        },
        // Add a via near the targeted board's outline.
        50..=64 => Edit::AddObstacle {
            scope: EditScope::Board(b),
            obstacle: random_via(&mut rng, case, b),
        },
        65..=74 => Edit::RemoveObstacle {
            scope: EditScope::Board(b),
            index: rng.gen_range(0..64),
        },
        // Rule tweak: widen the gap a notch — re-derives every clearance
        // float on the board (structural).
        75..=84 => {
            let mut rules = fleet_rules();
            rules.gap += (rng.gen_range(1..3) as f64) * DGAP / 8.0;
            Edit::SetRules { board: b, rules }
        }
        // Board swap: clone another original board's local part.
        _ => {
            let donor = (b + 1 + rng.gen_range(0..n_boards)) % n_boards;
            Edit::ReplaceBoard {
                board: b,
                replacement: Box::new(case.boards[donor].board().clone()),
            }
        }
    }
}

fn jitter(rng: &mut StdRng) -> Vector {
    let r = DGAP * rng.gen_range(0.1..0.8);
    let s = if rng.gen_range(0.0..1.0) < 0.5 {
        -1.0
    } else {
        1.0
    };
    let t = if rng.gen_range(0.0..1.0) < 0.5 {
        -1.0
    } else {
        1.0
    };
    Vector::new(s * r, t * rng.gen_range(0.1..0.8) * DGAP)
}

fn random_via(rng: &mut StdRng, case: &FleetCase, b: usize) -> Obstacle {
    let outline = case.boards[b % case.boards.len().max(1)]
        .board()
        .outline()
        .unwrap_or_else(|| meander_geom::Rect::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0)));
    let x = outline.min.x + rng.gen_range(0.05..0.95) * outline.width();
    let y = outline.min.y + rng.gen_range(0.05..0.95) * outline.height();
    Obstacle::via(Point::new(x, y), DGAP / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::fleet_boards_small;

    #[test]
    fn prefix_stable_and_deterministic() {
        let case = fleet_boards_small(4, 7, 11);
        let long = edit_stream(&case, 42, 32);
        let short = edit_stream(&case, 42, 10);
        for (a, b) in short.iter().zip(long.iter()) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        let again = edit_stream(&case, 42, 32);
        assert_eq!(format!("{long:?}"), format!("{again:?}"));
        // A different seed actually changes the stream.
        let other = edit_stream(&case, 43, 32);
        assert_ne!(format!("{long:?}"), format!("{other:?}"));
    }

    #[test]
    fn mix_covers_every_edit_kind() {
        let case = fleet_boards_small(4, 7, 11);
        let stream = edit_stream(&case, 1, 200);
        let count = |pred: fn(&Edit) -> bool| stream.iter().filter(|e| pred(e)).count();
        assert!(count(|e| matches!(e, Edit::MoveObstacle { .. })) > 0);
        assert!(count(|e| matches!(e, Edit::AddObstacle { .. })) > 0);
        assert!(count(|e| matches!(e, Edit::RemoveObstacle { .. })) > 0);
        assert!(count(|e| matches!(e, Edit::SetRules { .. })) > 0);
        assert!(count(|e| matches!(e, Edit::ReplaceBoard { .. })) > 0);
        // Library-scope edits present but the minority.
        let lib = count(|e| {
            matches!(
                e,
                Edit::MoveObstacle {
                    scope: EditScope::Library(_),
                    ..
                } | Edit::AddObstacle {
                    scope: EditScope::Library(_),
                    ..
                } | Edit::RemoveObstacle {
                    scope: EditScope::Library(_),
                    ..
                }
            )
        });
        assert!(lib > 0 && lib < stream.len() / 2);
    }
}
