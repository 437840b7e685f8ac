//! Space-requirement estimation (`Req_j`).

use meander_layout::{Board, MatchGroup, TraceId};

/// Per-trace space requirement for a matching group, from the length–space
/// relation the paper inherits from BSG-route \[8\]: adding `Δl` of meander
/// at gap `d_gap` and width `w` consumes about `Δl · (d_gap + w)` of area
/// (each unit of added length must keep `d_gap` of air plus its own copper).
///
/// A 1.5× safety factor covers corner losses and space fragmented below the
/// minimum pattern size.
///
/// Returns `(trace, requirement)` pairs for every member of `group`.
pub(crate) fn requirements(board: &Board, group: &MatchGroup) -> Vec<(TraceId, f64)> {
    let lengths = board.group_lengths(group);
    let target = group.resolve_target(&lengths);
    group
        .members()
        .iter()
        .zip(&lengths)
        .map(|(&id, &len)| {
            let deficit = (target - len).max(0.0);
            let (gap, width) = board
                .trace(id)
                .map(|t| (t.rules().gap, t.width()))
                .unwrap_or((0.0, 0.0));
            (id, 1.5 * deficit * (gap + width))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_drc::DesignRules;
    use meander_geom::{Point, Polyline, Rect};
    use meander_layout::Trace;

    #[test]
    fn requirement_scales_with_deficit_and_rules() {
        let mut board = Board::new(Rect::new(Point::new(0.0, 0.0), Point::new(300.0, 100.0)));
        let rules = DesignRules {
            gap: 8.0,
            width: 4.0,
            ..DesignRules::default()
        };
        let a = board.add_trace(Trace::with_rules(
            "A",
            Polyline::new(vec![Point::new(0.0, 10.0), Point::new(100.0, 10.0)]),
            rules,
        ));
        let b = board.add_trace(Trace::with_rules(
            "B",
            Polyline::new(vec![Point::new(0.0, 50.0), Point::new(200.0, 50.0)]),
            rules,
        ));
        let g = MatchGroup::new("g", vec![a, b]);
        let reqs = requirements(&board, &g);
        // Target = 200; A needs 100 × (8+4) × 1.5 = 1800, B needs 0.
        assert_eq!(reqs.len(), 2);
        assert!((reqs[0].1 - 1800.0).abs() < 1e-9);
        assert_eq!(reqs[1].1, 0.0);
    }

    #[test]
    fn explicit_target_respected() {
        let mut board = Board::new(Rect::new(Point::new(0.0, 0.0), Point::new(300.0, 100.0)));
        let a = board.add_trace(Trace::new(
            "A",
            Polyline::new(vec![Point::new(0.0, 10.0), Point::new(100.0, 10.0)]),
            4.0,
        ));
        let g = MatchGroup::with_target("g", vec![a], 150.0);
        let reqs = requirements(&board, &g);
        let gap = board.trace(a).unwrap().rules().gap;
        assert!((reqs[0].1 - 1.5 * 50.0 * (gap + 4.0)).abs() < 1e-9);
    }
}
