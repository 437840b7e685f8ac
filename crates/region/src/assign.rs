//! The assignment LP (paper Sec. III, problem (4)).

use crate::capacity::requirements;
use crate::regions::{decompose, Region};
use crate::simplex::{solve, Constraint, LinearProgram, LpOutcome, Relation};
use meander_layout::{Board, MatchGroup, RoutableArea, TraceId};
use std::collections::HashMap;

/// Successful region assignment.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// Space grant `x_ij > 0` per (region, trace).
    pub grants: Vec<(usize, TraceId, f64)>,
    /// Routable area per trace: corridor around the original routing plus
    /// every region granted (winner-take-all per region to keep areas
    /// non-overlapping).
    pub areas: HashMap<TraceId, RoutableArea>,
}

/// Assignment failure.
#[derive(Debug, Clone, PartialEq)]
pub enum AssignError {
    /// The LP is infeasible: some trace cannot get enough space. Carries
    /// the per-trace shortfall diagnostics (trace, required, reachable).
    Insufficient(Vec<(TraceId, f64, f64)>),
    /// The board has no outline to decompose.
    NoOutline,
}

impl std::fmt::Display for AssignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssignError::Insufficient(v) => {
                write!(f, "insufficient space for {} trace(s)", v.len())
            }
            AssignError::NoOutline => write!(f, "board has no outline"),
        }
    }
}

impl std::error::Error for AssignError {}

/// Solves the paper's assignment problem for `group`:
///
/// * variables `x_ij` exist only for neighbor pairs (constraint 1),
/// * `Σ_j x_ij ≤ Cap_i` (constraint 2),
/// * `Σ_i x_ij ≥ Req_j` (constraint 3),
/// * objective: minimize total granted space (the feasibility problem made
///   deterministic).
///
/// `cell` is the decomposition pitch; `reach` is the neighbor radius — a
/// region is a neighbor of a trace when its cell center is within `reach`
/// of the trace centerline.
///
/// # Errors
///
/// [`AssignError::Insufficient`] when the LP is infeasible (with per-trace
/// shortfall diagnostics), [`AssignError::NoOutline`] when the board cannot
/// be decomposed.
pub fn assign(
    board: &Board,
    group: &MatchGroup,
    cell: f64,
    reach: f64,
) -> Result<Assignment, AssignError> {
    if board.outline().is_none() {
        return Err(AssignError::NoOutline);
    }
    let regions = decompose(board, cell);
    let reqs = requirements(board, group);

    // Neighbor sets.
    let mut vars: Vec<(usize, usize)> = Vec::new(); // (region idx, member idx)
    for (ri, region) in regions.iter().enumerate() {
        let center = region.polygon.bbox().center();
        for (mi, (tid, _)) in reqs.iter().enumerate() {
            let t = board.trace(*tid).expect("group member exists");
            if t.centerline().distance_to_point(center) <= reach {
                vars.push((ri, mi));
            }
        }
    }

    let n = vars.len();
    let mut constraints = Vec::new();

    // Capacity rows (only for regions that have variables).
    let mut region_vars: HashMap<usize, Vec<usize>> = HashMap::new();
    for (vi, (ri, _)) in vars.iter().enumerate() {
        region_vars.entry(*ri).or_default().push(vi);
    }
    for (ri, vis) in &region_vars {
        let mut coeffs = vec![0.0; n];
        for &vi in vis {
            coeffs[vi] = 1.0;
        }
        constraints.push(Constraint {
            coeffs,
            rel: Relation::Le,
            rhs: regions[*ri].capacity,
        });
    }

    // Sufficiency rows.
    let mut member_vars: HashMap<usize, Vec<usize>> = HashMap::new();
    for (vi, (_, mi)) in vars.iter().enumerate() {
        member_vars.entry(*mi).or_default().push(vi);
    }
    for (mi, (_, req)) in reqs.iter().enumerate() {
        if *req <= 0.0 {
            continue;
        }
        let mut coeffs = vec![0.0; n];
        for &vi in member_vars.get(&mi).map(|v| v.as_slice()).unwrap_or(&[]) {
            coeffs[vi] = 1.0;
        }
        constraints.push(Constraint {
            coeffs,
            rel: Relation::Ge,
            rhs: *req,
        });
    }

    let lp = LinearProgram {
        n_vars: n,
        objective: vec![1.0; n],
        minimize: true,
        constraints,
    };

    match solve(&lp) {
        LpOutcome::Optimal { x, .. } => {
            let mut grants = Vec::new();
            for (vi, &(ri, mi)) in vars.iter().enumerate() {
                if x[vi] > 1e-9 {
                    grants.push((regions[ri].id, reqs[mi].0, x[vi]));
                }
            }
            let areas = build_areas(board, group, &regions, &vars, &x, &reqs);
            Ok(Assignment { grants, areas })
        }
        LpOutcome::Infeasible => {
            // Diagnostics: reachable capacity vs requirement per member.
            let mut diag = Vec::new();
            for (mi, (tid, req)) in reqs.iter().enumerate() {
                let reachable: f64 = member_vars
                    .get(&mi)
                    .map(|vis| vis.iter().map(|&vi| regions[vars[vi].0].capacity).sum())
                    .unwrap_or(0.0);
                if reachable < *req {
                    diag.push((*tid, *req, reachable));
                }
            }
            if diag.is_empty() {
                // Contention between traces rather than absolute shortage.
                diag = reqs.iter().map(|&(t, r)| (t, r, f64::NAN)).collect();
            }
            Err(AssignError::Insufficient(diag))
        }
        LpOutcome::Unbounded => unreachable!("minimization over x ≥ 0 with finite rhs"),
    }
}

/// Folds LP grants into per-trace routable areas. Each region goes entirely
/// to the member holding its largest grant (areas must not overlap); every
/// trace additionally keeps a corridor around its original routing so the
/// preserved routing is always inside its area.
fn build_areas(
    board: &Board,
    _group: &MatchGroup,
    regions: &[Region],
    vars: &[(usize, usize)],
    x: &[f64],
    reqs: &[(TraceId, f64)],
) -> HashMap<TraceId, RoutableArea> {
    let mut winner: HashMap<usize, (usize, f64)> = HashMap::new();
    for (vi, &(ri, mi)) in vars.iter().enumerate() {
        if x[vi] > 1e-9 {
            let e = winner.entry(ri).or_insert((mi, x[vi]));
            if x[vi] > e.1 {
                *e = (mi, x[vi]);
            }
        }
    }
    let mut areas: HashMap<TraceId, RoutableArea> = HashMap::new();
    for (ri, (mi, _)) in winner {
        let tid = reqs[mi].0;
        areas
            .entry(tid)
            .or_default()
            .push(regions[ri].polygon.clone());
    }
    // Corridors around the original routing.
    for (tid, _) in reqs {
        let t = board.trace(*tid).expect("member exists");
        let hw = t.rules().centerline_obstacle().max(t.width());
        let entry = areas.entry(*tid).or_default();
        for seg in t.centerline().segments() {
            if let Some(frame) = meander_geom::Frame::from_segment(&seg) {
                let local = meander_geom::Polygon::rectangle(
                    meander_geom::Point::new(-hw, -hw),
                    meander_geom::Point::new(seg.length() + hw, hw),
                );
                entry.push(frame.polygon_to_world(&local));
            }
        }
    }
    areas
}

#[cfg(test)]
mod tests {
    use super::*;
    use meander_drc::DesignRules;
    use meander_geom::{Point, Polyline, Rect};
    use meander_layout::{Obstacle, Trace};

    fn two_trace_board(board_w: f64) -> (Board, MatchGroup) {
        let mut board = Board::new(Rect::new(Point::new(0.0, 0.0), Point::new(board_w, 100.0)));
        let rules = DesignRules {
            gap: 8.0,
            width: 4.0,
            ..DesignRules::default()
        };
        let a = board.add_trace(Trace::with_rules(
            "A",
            Polyline::new(vec![Point::new(0.0, 30.0), Point::new(board_w * 0.6, 30.0)]),
            rules,
        ));
        let b = board.add_trace(Trace::with_rules(
            "B",
            Polyline::new(vec![Point::new(0.0, 70.0), Point::new(board_w, 70.0)]),
            rules,
        ));
        let g = MatchGroup::new("g", vec![a, b]);
        (board, g)
    }

    #[test]
    fn feasible_assignment_grants_enough() {
        let (board, g) = two_trace_board(200.0);
        let asg = assign(&board, &g, 20.0, 30.0).expect("feasible");
        // Trace A (short one) needs space; total grants must cover it.
        let reqs = requirements(&board, &g);
        let need_a = reqs[0].1;
        let granted_a: f64 = asg
            .grants
            .iter()
            .filter(|(_, t, _)| *t == reqs[0].0)
            .map(|(_, _, v)| v)
            .sum();
        assert!(granted_a >= need_a - 1e-6, "{granted_a} < {need_a}");
        // Areas exist and contain the original routing.
        let area = &asg.areas[&reqs[0].0];
        for &p in board.trace(reqs[0].0).unwrap().centerline().points() {
            assert!(area.contains(p));
        }
    }

    #[test]
    fn areas_do_not_overlap_between_traces() {
        let (board, g) = two_trace_board(200.0);
        let asg = assign(&board, &g, 20.0, 25.0).expect("feasible");
        let ids: Vec<TraceId> = g.members().to_vec();
        // Region polygons (cells) granted to different traces are disjoint
        // sets of cells (corridors may touch, so test only cell centers).
        let a_cells: Vec<Point> = asg.areas[&ids[0]]
            .polygons()
            .iter()
            .map(|p| p.bbox().center())
            .collect();
        for c in asg.areas[&ids[1]]
            .polygons()
            .iter()
            .map(|p| p.bbox().center())
        {
            for a in &a_cells {
                assert!(a.distance(c) > 1e-9, "shared cell at {c}");
            }
        }
    }

    #[test]
    fn infeasible_when_board_too_small() {
        // A cramped board with a big via field leaves too little space.
        let (mut board, g) = two_trace_board(60.0);
        // Blanket obstacles covering most free space.
        for ix in 0..6 {
            for iy in 0..10 {
                board.add_obstacle(Obstacle::via(
                    Point::new(ix as f64 * 10.0 + 5.0, iy as f64 * 10.0 + 5.0),
                    4.5,
                ));
            }
        }
        // Demand far more than available.
        let g2 = MatchGroup::with_target("g", g.members().to_vec(), 2000.0);
        let err = assign(&board, &g2, 10.0, 15.0).unwrap_err();
        assert!(matches!(err, AssignError::Insufficient(_)));
    }

    #[test]
    fn no_outline_error() {
        let board = Board::default();
        let g = MatchGroup::new("g", vec![]);
        assert_eq!(
            assign(&board, &g, 10.0, 10.0).unwrap_err(),
            AssignError::NoOutline
        );
    }

    #[test]
    fn zero_deficit_group_trivially_feasible() {
        let (board, _) = two_trace_board(200.0);
        // Group of one trace matched to itself: zero requirement.
        let ids: Vec<TraceId> = board.traces().map(|(id, _)| id).collect();
        let g = MatchGroup::new("solo", vec![ids[0]]);
        let asg = assign(&board, &g, 20.0, 25.0).expect("feasible");
        // Corridor still produced.
        assert!(asg.areas.contains_key(&ids[0]));
    }
}
