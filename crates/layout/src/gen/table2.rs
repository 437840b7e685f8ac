//! Table II ablation design: a trace through a dense via field.
//!
//! The paper's DP ablation runs on "a dummy design with narrow space between
//! dense vias": one trace with a 135° middle segment, `w_trace` fixed, and
//! `d_gap` swept from 2.5 to 5.0 trace-widths. Both algorithms extend the
//! trace as far as possible (`l_target = ∞`); the metric is the extension
//! upper bound `(l_ext − l_orig)/l_orig`.

use crate::area::RoutableArea;
use crate::board::Board;
use crate::group::MatchGroup;
use crate::obstacle::Obstacle;
use crate::trace::{Trace, TraceId};
use meander_drc::DesignRules;
use meander_geom::{Point, Polygon, Polyline, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A generated Table II case.
#[derive(Debug, Clone)]
pub struct Table2Case {
    /// Case number (1-based; 1 ⇒ dgap = 2.5·w, 6 ⇒ dgap = 5.0·w).
    pub case_no: usize,
    /// The layout: one trace, one group, via obstacles.
    pub board: Board,
    /// The trace under extension.
    pub trace: TraceId,
    /// `dgap / w_trace` ratio for reporting.
    pub dgap_ratio: f64,
    /// `l_original / d_gap` ratio for reporting.
    pub loriginal_ratio: f64,
    /// `dgap` in force.
    pub dgap: f64,
}

/// `dgap/wtrace` ratios of the six paper cases.
pub(crate) const DGAP_RATIOS: [f64; 6] = [2.5, 3.0, 3.5, 4.0, 4.5, 5.0];

/// Generates Table II case `case_no` (1–6).
///
/// Geometry (units of `w_trace = 1`):
/// * routable region ≈ 130 × 90 centred on the trace,
/// * trace: left horizontal run, 135° diagonal middle segment, right
///   horizontal run, `l_original ≈ 65`,
/// * via field: a perturbed grid of octagonal vias leaving narrow slots;
///   spacing tuned so small-`dgap` runs thread between vias while large
///   `dgap` makes fixed tracks collide (the regime where DP wins).
///
/// # Panics
///
/// Panics if `case_no` is outside `1..=6`.
pub fn table2_case(case_no: usize) -> Table2Case {
    assert!(
        (1..=6).contains(&case_no),
        "Table II has cases 1–6, got {case_no}"
    );
    let ratio = DGAP_RATIOS[case_no - 1];
    let w = 1.0;
    let dgap = ratio * w;

    let rules = DesignRules {
        gap: dgap,
        obstacle: dgap,
        protect: w,
        miter: dgap / 4.0,
        width: w,
    };

    // Trace: 25 left, 135° diagonal (10·√2 ≈ 14.14), 25.86 right ⇒ ≈ 65.
    let y0 = 0.0;
    let rise = 10.0;
    let pl = Polyline::new(vec![
        Point::new(0.0, y0),
        Point::new(25.0, y0),
        Point::new(35.0, y0 + rise),
        Point::new(61.0, y0 + rise),
    ]);
    let loriginal = pl.length();

    // "Narrow space": the routable region is tight enough that the DP's
    // extension upper bound saturates it (paper-scale percentages) rather
    // than growing unboundedly.
    let region = Polygon::rectangle(Point::new(-15.0, y0 - 20.0), Point::new(76.0, y0 + 30.0));
    let mut board = Board::new(Rect::new(
        Point::new(-20.0, y0 - 25.0),
        Point::new(81.0, y0 + 35.0),
    ));

    let trace = board.add_trace(Trace::with_rules("U1", pl, rules));
    board.set_area(trace, RoutableArea::from_polygon(region.clone()));

    // Dense via field across the region, with a clear lane along the trace
    // so the original routing is legal. Slot pitch between vias is sized in
    // absolute units, so growing dgap strangles the slots.
    let mut rng = StdRng::seed_from_u64(0x7AB1E2);
    let rvia = 1.2;
    // Slot arithmetic at w = 1: a fixed-track slot needs 2·(dgap + 1) of
    // clear column width; the inter-column channel offers
    // pitch − (2.4 + dgap) after clearance inflation. With pitch 13 the
    // channels host fixed-track serpentines up to dgap ≈ 3–3.5 and pinch
    // off beyond — the crossover regime of the paper's Table II, where
    // only the DP's adaptive feet/widths (and obstacle enclosure) keep
    // extending.
    let pitch = 13.0;
    let clear = rules.centerline_obstacle() + rvia;
    // Vias sit on a regular grid (columns aligned, tiny jitter): between
    // columns run full-height channels whose clear width shrinks as dgap
    // (hence clearance inflation) grows — the paper's regime where fixed
    // tracks thread the channels at loose DRC but pinch off at tight DRC.
    let bbox = region.bbox();
    let trace_probe = board
        .trace(trace)
        .expect("trace added above")
        .centerline()
        .clone();
    let mut gy = bbox.min.y + pitch / 2.0;
    while gy < bbox.max.y {
        let mut gx = bbox.min.x + pitch / 2.0;
        while gx < bbox.max.x {
            let c = Point::new(gx + rng.gen_range(-0.1..0.1), gy + rng.gen_range(-0.1..0.1));
            // Keep the original routing legal.
            if trace_probe.distance_to_point(c) > clear && region.contains(c) {
                board.add_obstacle(Obstacle::via(c, rvia));
            }
            gx += pitch;
        }
        gy += pitch;
    }

    // Unbounded target modeled as a huge explicit target.
    board.add_group(MatchGroup::with_target(
        "table2",
        vec![trace],
        loriginal * 50.0,
    ));

    Table2Case {
        case_no,
        board,
        trace,
        dgap_ratio: ratio,
        loriginal_ratio: loriginal / dgap,
        dgap,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cases_generate_clean() {
        for case_no in 1..=6 {
            let c = table2_case(case_no);
            let v = c.board.check();
            assert!(v.is_empty(), "case {case_no} dirty: {v:?}");
        }
    }

    #[test]
    fn ratios_match_paper_regime() {
        // Paper: loriginal/dgap from ~24.9 (case 1) down to ~13.6 (case 6).
        let c1 = table2_case(1);
        assert!((c1.dgap_ratio - 2.5).abs() < 1e-12);
        assert!(c1.loriginal_ratio > 20.0 && c1.loriginal_ratio < 30.0);
        let c6 = table2_case(6);
        assert!((c6.dgap_ratio - 5.0).abs() < 1e-12);
        assert!(c6.loriginal_ratio > 10.0 && c6.loriginal_ratio < 16.0);
    }

    #[test]
    fn trace_has_135_degree_segment() {
        let c = table2_case(1);
        let t = c.board.trace(c.trace).unwrap();
        let diag = t.centerline().segment(1);
        let dir = diag.direction().unwrap();
        // 45° rise = 135° corner with the horizontal runs.
        assert!((dir.x - dir.y).abs() < 1e-9);
    }

    #[test]
    fn via_field_is_dense() {
        let c = table2_case(3);
        assert!(
            c.board.obstacles().len() > 15,
            "only {} vias",
            c.board.obstacles().len()
        );
    }

    #[test]
    fn deterministic() {
        let a = table2_case(2);
        let b = table2_case(2);
        assert_eq!(a.board.obstacles().len(), b.board.obstacles().len());
    }

    #[test]
    #[should_panic(expected = "cases 1–6")]
    fn case_out_of_range_panics() {
        let _ = table2_case(7);
    }
}
