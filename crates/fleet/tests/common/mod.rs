//! Near-miss library moves for the serving suites (`session.rs`,
//! `cache.rs`): moves placed against the candidate windows a fleet's
//! units record, on either side of the candidacy slack
//! ([`meander_index::REACH_SLACK`]).

use meander_core::{
    gather_obstacles, plan_board_units, run_unit, CellTouches, ExtendConfig, StratumKey,
};
use meander_geom::{Polygon, Rect, Vector};
use meander_index::{quantize, reaches, REACH_SLACK};
use meander_layout::LibraryBoard;

/// Every window the units of `boards` record, with its stratum: each
/// unit routed on its own over the board's whole obstacle set, which by
/// determinism issues the queries the serving loop's routes issue.
pub fn recorded_windows(boards: &[LibraryBoard], extend: &ExtendConfig) -> Vec<(StratumKey, Rect)> {
    let mut windows = Vec::new();
    for lb in boards {
        let board = lb.to_board();
        let obstacles = gather_obstacles(&board);
        for (_, units) in plan_board_units(&board) {
            for unit in &units {
                let mut touches = CellTouches::new();
                let _ = run_unit(unit, &obstacles, None, extend, Some(&mut touches));
                windows.extend(touches.windows().map(|(key, w)| (key, *w)));
            }
        }
    }
    windows
}

/// Two moves of one library obstacle, both toward the recorded window
/// nearest to it: `miss` leaves its inflated bbox two slacks short of that
/// window (inside one of the window's lattice cells, yet reaching no
/// recorded window), and `hit` half a slack short of it.
pub struct NearMiss {
    /// Library index of the moved obstacle.
    pub index: usize,
    /// The near-miss translation, from the obstacle's original position.
    pub miss: Vector,
    /// The slack-hit translation, from the original position.
    pub hit: Vector,
}

/// Translation moving `bb` to a gap of `gap` from `w` along every axis
/// the two are apart on.
fn approach(bb: &Rect, w: &Rect, gap: f64) -> Vector {
    let along = |lo: f64, hi: f64, wlo: f64, whi: f64| {
        if lo > whi {
            whi + gap - lo
        } else if hi < wlo {
            wlo - gap - hi
        } else {
            0.0
        }
    };
    Vector::new(
        along(bb.min.x, bb.max.x, w.min.x, w.max.x),
        along(bb.min.y, bb.max.y, w.min.y, w.max.y),
    )
}

/// Separation of two disjoint rects (0 when they overlap on both axes).
fn separation(a: &Rect, b: &Rect) -> f64 {
    let dx = (a.min.x - b.max.x).max(b.min.x - a.max.x).max(0.0);
    let dy = (a.min.y - b.max.y).max(b.min.y - a.max.y).max(0.0);
    dx.hypot(dy)
}

/// The first library obstacle of `boards[0]`'s library that reaches no
/// recorded window and admits a [`NearMiss`] toward its nearest one.
pub fn near_miss(boards: &[LibraryBoard], windows: &[(StratumKey, Rect)]) -> NearMiss {
    let bbox = |p: &Polygon, key: &StratumKey| p.offset_convex(key.inflation()).bbox();
    let reaches_none = |p: &Polygon| windows.iter().all(|(key, w)| !reaches(w, &bbox(p, key)));
    let library = boards[0].library();
    for (index, obstacle) in library.obstacles().iter().enumerate() {
        let old = obstacle.polygon();
        if !reaches_none(old) {
            continue;
        }
        let (key, w) = windows
            .iter()
            .min_by(|(ka, a), (kb, b)| {
                separation(&bbox(old, ka), a).total_cmp(&separation(&bbox(old, kb), b))
            })
            .expect("units record windows");
        let bb = bbox(old, key);
        let (miss, hit) = (
            approach(&bb, w, 2.0 * REACH_SLACK),
            approach(&bb, w, REACH_SLACK / 2.0),
        );
        let missed = old.translated(miss);
        let cells = quantize(key.cell_size(), w);
        let near = quantize(key.cell_size(), &bbox(&missed, key));
        let shares_a_cell = near[0] <= cells[2]
            && cells[0] <= near[2]
            && near[1] <= cells[3]
            && cells[1] <= near[3];
        let hits = reaches(w, &bbox(&missed.translated(hit - miss), key));
        if reaches_none(&missed) && shares_a_cell && hits {
            return NearMiss { index, miss, hit };
        }
    }
    panic!("no library obstacle admits a near miss");
}
