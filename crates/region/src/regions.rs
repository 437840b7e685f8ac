//! Free-space decomposition into capacity-carrying regions.

use meander_geom::{Point, Polygon, Rect};
use meander_layout::Board;

/// A candidate routing region with its space capacity.
///
/// "we divide the design according to its layout to compose several regions"
/// (paper Sec. III). We grid the board at a pitch proportional to `d_gap`
/// and keep cells whose free area is positive; `Cap_i` is the cell's free
/// area (cell minus overlapping obstacles, estimated by sampling).
#[derive(Debug, Clone)]
pub(crate) struct Region {
    /// Region id (index into the decomposition).
    pub id: usize,
    /// Cell polygon.
    pub polygon: Polygon,
    /// Usable area (`Cap_i`).
    pub capacity: f64,
}

/// Grids the board into regions of size `cell`, measuring each cell's free
/// capacity against the board's obstacles.
///
/// Capacity is estimated with a 4×4 sample grid per cell — adequate because
/// assignment only needs capacities at the granularity the requirement
/// estimate (also an approximation) works at.
pub(crate) fn decompose(board: &Board, cell: f64) -> Vec<Region> {
    assert!(cell > 0.0, "cell size must be positive");
    let Some(outline) = board.outline() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let nx = (outline.width() / cell).ceil() as usize;
    let ny = (outline.height() / cell).ceil() as usize;
    for iy in 0..ny {
        for ix in 0..nx {
            let min = Point::new(
                outline.min.x + ix as f64 * cell,
                outline.min.y + iy as f64 * cell,
            );
            let max = Point::new(
                (min.x + cell).min(outline.max.x),
                (min.y + cell).min(outline.max.y),
            );
            if max.x - min.x < 1e-9 || max.y - min.y < 1e-9 {
                continue;
            }
            let rect = Rect::new(min, max);
            let free = free_fraction(board, &rect);
            if free <= 0.0 {
                continue;
            }
            let id = out.len();
            out.push(Region {
                id,
                polygon: Polygon::rectangle(min, max),
                capacity: rect.area() * free,
            });
        }
    }
    out
}

/// Fraction of `rect` not covered by obstacles, by 4×4 point sampling.
fn free_fraction(board: &Board, rect: &Rect) -> f64 {
    let mut free = 0usize;
    let n = 4;
    for iy in 0..n {
        for ix in 0..n {
            let p = Point::new(
                rect.min.x + rect.width() * (ix as f64 + 0.5) / n as f64,
                rect.min.y + rect.height() * (iy as f64 + 0.5) / n as f64,
            );
            let blocked = board
                .obstacles()
                .iter()
                .any(|o| o.polygon().bbox().contains(p) && o.polygon().contains(p));
            if !blocked {
                free += 1;
            }
        }
    }
    free as f64 / (n * n) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_layout::{Obstacle, ObstacleKind};

    #[test]
    fn empty_board_decomposes_to_full_cells() {
        let board = Board::new(Rect::new(Point::new(0.0, 0.0), Point::new(40.0, 20.0)));
        let regions = decompose(&board, 10.0);
        assert_eq!(regions.len(), 8);
        for r in &regions {
            assert!((r.capacity - 100.0).abs() < 1e-9);
        }
        // Total capacity = board area.
        let total: f64 = regions.iter().map(|r| r.capacity).sum();
        assert!((total - 800.0).abs() < 1e-9);
    }

    #[test]
    fn obstacles_reduce_capacity() {
        let mut board = Board::new(Rect::new(Point::new(0.0, 0.0), Point::new(20.0, 20.0)));
        board.add_obstacle(Obstacle::new(
            Polygon::rectangle(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            ObstacleKind::Keepout,
        ));
        let regions = decompose(&board, 10.0);
        // The fully-covered cell is dropped.
        assert_eq!(regions.len(), 3);
        let total: f64 = regions.iter().map(|r| r.capacity).sum();
        assert!((total - 300.0).abs() < 1e-9);
    }

    #[test]
    fn ragged_edges_get_partial_cells() {
        let board = Board::new(Rect::new(Point::new(0.0, 0.0), Point::new(25.0, 10.0)));
        let regions = decompose(&board, 10.0);
        // 3 columns (last 5 wide) × 1 row.
        assert_eq!(regions.len(), 3);
        let total: f64 = regions.iter().map(|r| r.capacity).sum();
        assert!((total - 250.0).abs() < 1e-9);
    }

    #[test]
    fn region_ids_are_dense() {
        let board = Board::new(Rect::new(Point::new(0.0, 0.0), Point::new(30.0, 30.0)));
        let regions = decompose(&board, 10.0);
        for (i, r) in regions.iter().enumerate() {
            assert_eq!(r.id, i);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cell_panics() {
        let board = Board::new(Rect::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        let _ = decompose(&board, 0.0);
    }
}
